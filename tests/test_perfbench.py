"""Smoke tests of the benchmark.  The names the tracer wraps, and those
fstarq exports, must resolve on the package, so that a rename fails here
with the name and not inside a deck.  One traced diagnostics deck must run,
pass its output checks, move no reported number, and see no fd4 fallback.
One untraced field-io deck must write the reference CSV bytes and read them
back bit-exact."""

import importlib.util
import json
import pathlib
import subprocess
import sys

import fstarq
import fstarq.cli  # tracing.FUNCTIONS wraps cli.main; the package does not import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_traced_and_exported_names_resolve():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # reads the lists; installs nothing
    missing = [f"{mod}.{attr}" for mod, attr, _ in tracing.FUNCTIONS
               if not hasattr(getattr(fstarq, mod, None), attr)]
    missing += [f"{mod}.{cls}.{meth}" for mod, cls, meth, _ in tracing.METHODS
                if not hasattr(getattr(getattr(fstarq, mod, None), cls, None), meth)]
    missing += [name for name in fstarq.__all__ if not hasattr(fstarq, name)]
    assert missing == []


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
