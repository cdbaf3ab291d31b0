import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from fstarq import (PhaseGrid, canonical_json, fcs_wigner, field_from_values,
                    field_report, field_to_csv, genvalue_residual, identity_spec,
                    read_field_csv, report_to_dict, report_to_json, spectrum,
                    spectrum_to_csv, sqrt_n_spec)
from fstarq.cli import main
from fstarq.io import format_float
from fstarq.verify import worker_count


# ---------------------------------------------------------------------------
# canonical JSON


def test_canonical_json_formats():
    doc = {"a": 1, "b": 0.5, "c": [True, None, "x"]}
    text = canonical_json(doc)
    assert text == '{"a": 1, "b": 0.5, "c": [true, null, "x"]}\n'
    assert json.loads(canonical_json({"z": 2.5e-7})) == {"z": 2.5e-7}


def test_canonical_json_rejects_nonfinite():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


def test_canonical_json_float_round_trip():
    vals = [1 / 3, 1e-300, 123456.789, 2**-52]
    text = canonical_json(vals)
    assert json.loads(text) == vals


# ---------------------------------------------------------------------------
# CSV


def test_spectrum_csv_identity():
    text = spectrum_to_csv(spectrum(identity_spec(), 3))
    assert text == "n,energy\n0,0.5\n1,1.5\n2,2.5\n3,3.5\n"


def test_spectrum_csv_sqrt_n():
    text = spectrum_to_csv(spectrum(sqrt_n_spec(), 1))
    assert text == "n,energy\n0,0.5\n1,2.5\n"


def test_field_csv_round_trip(tmp_path):
    grid = PhaseGrid(-2.0, 2.0, -2.0, 2.0, 9, 9, offset=0.5)
    field = fcs_wigner(sqrt_n_spec(), 1.0, grid)
    path = tmp_path / "field.csv"
    field_to_csv(field, path)
    again = read_field_csv(path)
    assert np.array_equal(again.values, field.values)  # 17g round-trips exactly
    assert np.allclose(again.grid.q_values(), grid.q_values(), rtol=0, atol=0)


def reference_field_csv(field) -> bytes:
    """The per-element writer that field_to_csv must match byte for byte."""
    lines = ["q,p,re,im"]
    for iq, q in enumerate(field.grid.q_values()):
        for ip, p in enumerate(field.grid.p_values()):
            v = field.values[iq, ip]
            lines.append(",".join(format_float(x) for x in (q, p, v.real, v.imag)))
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.fixture
def awkward_field():
    grid = PhaseGrid(-1.0, 1.5, -2.0, 0.5, 5, 6, offset=0.25)
    rng = np.random.default_rng(20250810)
    vals = np.empty((5, 6), dtype=complex)
    vals.real = rng.standard_normal((5, 6)) * 10.0 ** rng.integers(-300, 300, (5, 6))
    vals.imag = -rng.standard_normal((5, 6)) * 10.0 ** rng.integers(-300, 300, (5, 6))
    awkward = [-0.0, 5e-324, 1e308, 0.1, -0.1, -1e308, 0.0, -5e-324, 2.0**-1074 * 3]
    vals.real.flat[:9] = awkward
    vals.imag.flat[3:12] = awkward[::-1]
    return field_from_values(grid, vals, label="awkward")


def test_field_csv_matches_reference_writer(tmp_path, awkward_field):
    path = tmp_path / "f.csv"
    field_to_csv(awkward_field, path)
    assert path.read_bytes() == reference_field_csv(awkward_field)


def test_field_csv_round_trip_is_bit_exact(tmp_path, awkward_field):
    path = tmp_path / "f.csv"
    field_to_csv(awkward_field, path)
    again = read_field_csv(path)
    # the int64 view tells -0.0 from 0.0
    assert np.array_equal(again.values.view(np.int64), awkward_field.values.view(np.int64))
    assert np.array_equal(again.grid.q_values(), awkward_field.grid.q_values())
    assert np.array_equal(again.grid.p_values(), awkward_field.grid.p_values())


@pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.inf)])
def test_field_csv_rejects_nonfinite(tmp_path, awkward_field, bad):
    awkward_field.values[2, 3] = bad  # after construction, past Field's own check
    path = tmp_path / "f.csv"
    with pytest.raises(ValueError, match="non-finite"):
        field_to_csv(awkward_field, path)
    assert not path.exists()


def _bad_header(lines):
    lines[0] = "q,p,re,imag"


def _short_row(lines):
    lines[3] = lines[3].rsplit(",", 1)[0]


def _missing_row(lines):
    del lines[-2]


def _header_only(lines):
    del lines[1:-1]


@pytest.mark.parametrize("edit, message", [
    (_bad_header, "header"), (_short_row, None), (_missing_row, "rectangular"),
    (_header_only, "no data rows"),
])
def test_read_field_csv_rejects_malformed(tmp_path, awkward_field, edit, message):
    path = tmp_path / "f.csv"
    field_to_csv(awkward_field, path)
    lines = path.read_text().split("\n")  # ends with "" after the final newline
    edit(lines)
    path.write_text("\n".join(lines))
    with pytest.raises(ValueError, match=message):
        read_field_csv(path)


def test_field_report_stats():
    grid = PhaseGrid(-6.0, 6.0, -6.0, 6.0, 129, 129)
    doc = field_report(fcs_wigner(identity_spec(), 0.5, grid))
    assert doc["grid"]["n_q"] == 129
    assert doc["stats"]["abs_max"] <= 2.0 + 1e-12
    assert doc["stats"]["integral_re"] == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# report schema


def test_report_schema_keys(grid257):
    rep = genvalue_residual(sqrt_n_spec(), 1, grid257)
    doc = report_to_dict(rep)
    assert list(doc)[:11] == ["identity", "spec", "n", "hbar", "omega", "order",
                              "max_abs", "l2", "imag_max", "witness", "grid"]
    assert doc["spec"] == "sqrt_n"
    assert doc["witness"].keys() == {"q", "p", "re", "im"}
    assert doc["grid"]["n_q"] == grid257.n_q
    text = report_to_json(rep)
    assert json.loads(text)["identity"] == "genvalue"


# ---------------------------------------------------------------------------
# CLI


def run_cli(*argv):
    return main(list(argv))


def test_cli_spectrum_stdout(capsys):
    assert run_cli("spectrum", "--spec", "identity", "--n-max", "3") == 0
    out = capsys.readouterr().out
    assert out == "n,energy\n0,0.5\n1,1.5\n2,2.5\n3,3.5\n"


def test_cli_spectrum_file(tmp_path):
    path = tmp_path / "spec.csv"
    assert run_cli("spectrum", "--spec", "sqrt_n", "--n-max", "1",
                   "--out", str(path)) == 0
    assert path.read_text() == "n,energy\n0,0.5\n1,2.5\n"


def test_cli_wigner_fock(tmp_path):
    path = tmp_path / "w.csv"
    code = run_cli("wigner", "--n", "2", "--grid=-4,4,-4,4,65,65",
                   "--out", str(path))
    assert code == 0
    field = read_field_csv(path)
    assert field.grid.n_q == 65


def test_cli_wigner_coherent(tmp_path):
    path = tmp_path / "wf.csv"
    code = run_cli("wigner", "--spec", "qdef:q=1.2", "--zeta2", "0.5",
                   "--grid=-6,6,-6,6,129,129", "--out", str(path))
    assert code == 0
    assert path.read_text().startswith("q,p,re,im\n")


def test_cli_residual_json(tmp_path):
    path = tmp_path / "r.json"
    code = run_cli("residual", "--spec", "identity", "--n", "2",
                   "--grid=-6,6,-6,6,129,129", "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["identity"] == "genvalue"
    assert doc["max_abs"] <= 1e-8


def test_cli_commutator_writes_report_and_field(tmp_path):
    path = tmp_path / "c.json"
    code = run_cli("commutator", "--spec", "sqrt_n",
                   "--grid=-6,6,-6,6,129,129", "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["identity"] == "commutator"
    field_csv = tmp_path / "c.field.csv"
    assert field_csv.exists()
    assert read_field_csv(field_csv).grid.n_q == 129


def test_cli_assoc_csv(tmp_path):
    path = tmp_path / "a.csv"
    code = run_cli("assoc", "--spec", "sqrt_n", "--grid=-6,6,-6,6,129,129",
                   "--out", str(path))
    assert code == 0
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "hbar,defect,slope"
    assert len(lines) == 4
    slope = float(lines[1].split(",")[2])
    assert slope >= 1.9


def test_cli_refused_qdef_assoc_prints_only_the_error():
    # F(n) (q = 1.2) or dF/dn (q = 0.9, 1.1) overflows far inside the default
    # grid; the refusal names the point and is not preceded by numpy warnings
    root = pathlib.Path(__file__).resolve().parents[1]
    for q, quantity in (("0.9", "dF/dn"), ("1.1", "dF/dn"), ("1.2", "F(n)")):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from fstarq.cli import main; "
             f"sys.exit(main(['assoc', '--spec', 'qdef:q={q}']))"],
            cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr == (f"error: {quantity} singular at n = 6375.0244140625 "
                               "for kind 'qdef'\n")


@pytest.mark.parametrize("argv", [
    ("spectrum", "--spec", "bogus", "--n-max", "2"),
    ("spectrum", "--spec", "identity", "--n-max", "-3"),
    ("spectrum", "--spec", "expr:sqrt(", "--n-max", "2"),
    ("residual", "--spec", "identity", "--n", "1", "--grid=1,2,3"),
    ("residual", "--spec", "identity", "--n", "1", "--grid=-1,1,-1,1,3,3"),
    ("wigner", "--n", "1"),  # missing --out for a field dump
    ("spectrum",),  # missing required --n-max
    ("bogus-command",),
])
def test_cli_config_errors_exit_2(argv, capsys):
    assert run_cli(*argv) == 2
    capsys.readouterr()


def test_cli_error_names_flag(capsys):
    run_cli("spectrum", "--spec", "bogus", "--n-max", "2")
    err = capsys.readouterr().err
    assert "--spec" in err


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("FSTAR_THREADS", "2")
    assert worker_count() == 2
    monkeypatch.setenv("FSTAR_THREADS", "not-a-number")
    with pytest.raises(ValueError):
        worker_count()
    monkeypatch.delenv("FSTAR_THREADS")
    assert worker_count() >= 1


def test_cli_verify_quick_deterministic(tmp_path):
    out1 = tmp_path / "v1.json"
    out2 = tmp_path / "v2.json"
    code1 = run_cli("verify", "--quick", "--out", str(out1))
    code2 = run_cli("verify", "--quick", "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()
    summary = json.loads(out1.read_text())
    assert code1 == code2 == (0 if summary["all_pass"] else 1)
    failing = {c["name"] for c in summary["checks"] if not c["passed"]}
    assert failing == set()
    assert summary["all_pass"] and code1 == 0
