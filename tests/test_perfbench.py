"""Smoke tests of the benchmark.  The names the tracer wraps, and those
fstarq exports, must resolve on the package, and each wrapped method must
keep the parameters its wrapper passes, so that a rename or a signature
drift fails here with the name and not inside a deck.  One traced
diagnostics deck must run, pass its output checks, move no reported number,
and see no fd4 fallback.  One untraced field-io deck must write the
reference CSV bytes and read them back bit-exact."""

import importlib.util
import inspect
import json
import pathlib
import subprocess
import sys

import fstarq
import fstarq.cli  # tracing.FUNCTIONS wraps cli.main; the package does not import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _tracing():
    """perfbench/tracing.py as a module: it reads the lists and installs nothing."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_and_exported_names_resolve():
    tracing = _tracing()
    missing = [f"{mod}.{attr}" for mod, attr, _ in tracing.FUNCTIONS
               if not hasattr(getattr(fstarq, mod, None), attr)]
    missing += [f"{mod}.{cls}.{meth}" for mod, cls, meth, _ in tracing.METHODS
                if not hasattr(getattr(getattr(fstarq, mod, None), cls, None), meth)]
    missing += [name for name in fstarq.__all__ if not hasattr(fstarq, name)]
    assert missing == []


# The arguments each wrapper of tracing.METHODS passes on, by method name
WRAPPED_PARAMETERS = {"evaluate": ["self", "grid"], "deriv": ["self", "v", "order"],
                      "eval_grid": ["self", "Q", "P"]}


def _parameters(fn) -> list[str]:
    """fn's parameters, each marked with its default if it has one."""
    return [name if param.default is param.empty else f"{name}={param.default!r}"
            for name, param in inspect.signature(fn).parameters.items()]


def test_traced_methods_keep_the_wrapped_call_shapes():
    # the wrappers pass exactly these arguments, so a drift fails here by name
    # rather than on every traced request
    shapes = {f"{mod}.{cls}.{meth}": _parameters(getattr(getattr(getattr(fstarq, mod), cls), meth))
              for mod, cls, meth, _ in _tracing().METHODS}
    assert shapes == {name: WRAPPED_PARAMETERS[name.rsplit(".", 1)[1]] for name in shapes}
    assert _parameters(fstarq.partial_field)[:3] == ["field", "i", "j"]


def test_traced_diagnostics_deck(tmp_path):
    trace = tmp_path / "t.json"
    proc = subprocess.run(
        [sys.executable, "perfbench/worker.py", "run", "--workload", "diagnostics",
         "--seed", "0", "--seconds", "0", "--ops", "4", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert len(result["ops"]) == 4
    assert [op for op in result["ops"] if op["status"] == "failed"] == []
    assert result["layers"]["phasespace.partial_field.fd4"] == 0
    assert result["moved"] == []  # every reported number matches reference.json bitwise
    assert trace.is_file()


def test_field_io_deck():
    # one deck: a Fock export, a mixture export and a commutator export
    proc = subprocess.run(
        [sys.executable, "perfbench/worker.py", "run", "--workload", "field-io",
         "--seed", "0", "--seconds", "0", "--ops", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert len(result["ops"]) == 3
    # a failed op includes a read-back that is not bit-exact (check_fields)
    assert [op for op in result["ops"] if op["status"] == "failed"] == []
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    assert all(op["key"] in reference["field-io"] for op in result["ops"])
    assert result["moved"] == []  # CSV sha256 digests match the reference
