"""Smoke test of the benchmark tracer: one traced diagnostics deck must run,
pass its output checks, and see no fd4 fallback.  The tracer wraps fstarq's
layers by name, so a rename in the package shows up here."""

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
    assert trace.is_file()
