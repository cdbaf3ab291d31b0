"""Smoke tests of the benchmark.  One traced diagnostics deck must run, pass
its output checks, move no reported number, and see no fd4 fallback; the
tracer wraps fstarq's layers by name, so a rename in the package shows up
here.  One untraced field-io deck must write the reference CSV bytes and
read them back bit-exact."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


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
