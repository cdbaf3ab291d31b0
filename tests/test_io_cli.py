import functools
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import fstarq.io
from fstarq import (Field, PhaseGrid, canonical_json, commutator_deviation, expr_spec,
                    fcs_wigner, field_report, field_to_csv, fock_wigner,
                    genvalue_residual, identity_spec, partial_field, qdef_spec, read_field_csv,
                    report_to_dict, report_to_json, spectrum, spectrum_to_csv, sqrt_n_spec)
from fstarq import cli
from fstarq.cli import main
from fstarq.genvalue import ASSOC_HBARS
from fstarq.io import format_float
from fstarq.phasespace import default_grid


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


def test_canonical_json_writes_numpy_bools_as_python_bools():
    doc = {"ok": np.bool_(True), "flags": [np.True_, np.False_]}
    assert canonical_json(doc) == canonical_json({"ok": True, "flags": [True, False]})
    assert canonical_json(doc) == '{"ok": true, "flags": [true, false]}\n'


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


def test_read_back_field_has_no_exact_partials(tmp_path):
    # the CSV keeps the samples alone: the field has no source, and
    # partial_field refuses, naming the stencil estimate
    path = tmp_path / "field.csv"
    field_to_csv(fock_wigner(1, PhaseGrid(-2.0, 2.0, -2.0, 2.0, 9, 9)), path)
    field = read_field_csv(path)
    with pytest.raises(ValueError, match=r"^partial \(1, 0\) of an unnamed field: "
                                         r"no exact source; fd4_partial"):
        partial_field(field, 1, 0)
    assert field.source is None


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
    return Field(grid, vals, label="awkward")


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


def test_reports_record_the_first_order_product(grid257):
    residual = report_to_dict(genvalue_residual(sqrt_n_spec(), 1, grid257))
    assert residual["order"] == "first"
    assert residual["extra"]["path"] == "fstar_first"
    commutator = report_to_dict(commutator_deviation(sqrt_n_spec(), grid257)[1])
    assert commutator["order"] == "first"


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


@pytest.mark.parametrize("flag, value", [("--spec", "sqrt_n"), ("--zeta2", "3"),
                                         ("--tol", "0.5")])
def test_cli_wigner_number_state_refuses_mixture_flags(tmp_path, capsys, flag, value):
    # W_n does not depend on f, so the number state would drop these flags unseen
    path = tmp_path / "w.csv"
    assert run_cli("wigner", "--n", "2", flag, value, "--grid=-4,4,-4,4,17,17",
                   "--out", str(path)) == 2
    assert capsys.readouterr().err == (f"error: {flag}: a number state's W_n does not "
                                       "depend on f; give it without --n\n")
    assert not path.exists()


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


def test_cli_assoc_default_hbars_are_the_probe_list():
    args = cli.build_parser().parse_args(["assoc"])
    assert cli._parse_hbars(args.hbar) == ASSOC_HBARS == (0.1, 0.01, 0.001)


def _cli_process(*argv):
    """The CLI run in a fresh interpreter with default warning filters, so a
    numpy warning reaches stderr as it would for a user."""
    root = pathlib.Path(__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-c", "import sys; from fstarq.cli import main; "
         f"sys.exit(main({list(argv)!r}))"],
        cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=120)


def test_cli_refused_qdef_assoc_prints_only_the_error():
    # F(n) (q = 1.2) or dF/dn (q = 0.9, 1.1) overflows far inside the default
    # grid; the refusal names the point and is not preceded by numpy warnings
    for q, quantity in (("0.9", "dF/dn"), ("1.1", "dF/dn"), ("1.2", "F(n)")):
        proc = _cli_process("assoc", "--spec", f"qdef:q={q}")
        assert proc.returncode == 2
        assert proc.stderr == (f"error: {quantity} singular at n = 6375.0244140625 "
                               "for kind 'qdef'\n")


def test_cli_names_a_nan_partial_without_numpy_warnings():
    # f = 1 + sqrt(n) has f'(0) = inf, so the chain rule puts 0 * inf at the origin
    proc = _cli_process("commutator", "--spec", "expr:1+sqrt(n)", "--grid=-4,4,-4,4,129,129,0")
    assert proc.returncode == 2
    assert proc.stderr == ("error: partial (1, 0) of A[expr:1+sqrt(n)] is not finite "
                           "at (q, p) = (0.0, 0.0)\n")


def test_cli_residual_serves_the_hamiltonian_slope_at_the_origin():
    # f = 1 + sqrt(n) has s'(0) = inf, but dH/dq takes x s'(x) -> 0 at the origin
    proc = _cli_process("residual", "--spec", "expr:1+sqrt(n)", "--n", "2",
                        "--grid=-4,4,-4,4,129,129,0")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["max_abs"] == 30.049159094905647


@pytest.mark.parametrize("argv,line", [
    # 1/0 and exp(801) are inf on the one numpy path, refused by name
    (("residual", "--spec", "expr:1/n", "--n", "0", "--grid=-4,4,-4,4,33,33"),
     "error: f(n) is not a finite positive value at n = 0.0 for kind 'expr'"),
    (("residual", "--spec", "expr:exp(n)", "--n", "800", "--grid=-4,4,-4,4,33,33"),
     "error: f(n) is not a finite positive value at n = 801.0 for kind 'expr'"),
    (("spectrum", "--spec", "expr:exp(n)", "--n-max", "800"),
     "error: f(n) is not a finite positive value at n = 710.0 for kind 'expr'"),
    # f = exp(n) is finite up to n = 709, but E_n overflows from n = 351
    (("spectrum", "--spec", "expr:exp(n)", "--n-max", "400"),
     "error: E_n is not finite at n = 351.0 for kind 'expr'"),
    # the Hamiltonian overflows in the grid's corners
    (("residual", "--spec", "qdef:q=1e6", "--n", "1"),
     "error: field H[qdef:q=1000000.0] is not finite at (q, p) = (-7.984375, -7.984375)"),
], ids=["residual-inverse", "residual-exp", "spectrum-exp-f", "spectrum-exp-level",
        "residual-qdef"])
def test_cli_overflow_refusals_print_only_the_error(argv, line):
    proc = _cli_process(*argv)
    assert proc.returncode == 2
    assert proc.stderr == line + "\n"


# each refusal's error line; where several flags are bad, the line names the
# one that wins (argparse prints its usage above its line)
CLI_REFUSALS = [
    (("spectrum", "--spec", "bogus", "--n-max", "2"),
     "error: --spec: unknown deformation 'bogus' at position 0 "
     "(expected: expr:, identity, qdef:, sqrt_n)"),
    (("spectrum", "--spec", "identity", "--n-max", "-3"), "error: --n-max: must be >= 0"),
    (("spectrum", "--spec", "expr:sqrt(", "--n-max", "2"),
     "error: --spec: unexpected end at position 10 (expected: (, name, number)"),
    (("residual", "--spec", "identity", "--n", "1", "--grid=1,2,3"),
     "error: --grid: expected 'qmin,qmax,pmin,pmax,nq,np[,offset]'"),
    (("residual", "--spec", "identity", "--n", "1", "--grid=-1,1,-1,1,3,3"),
     "error: --grid: sample counts must be >= 5"),
    (("wigner", "--n", "1"),  # missing --out for a field dump
     "error: --out: wigner writes a field CSV; give a path"),
    (("spectrum", "--n-max", "2", "--omega", "nan"),
     "error: --omega: must be a positive finite real"),
    (("residual", "--n", "1", "--omega", "-1", "--grid=-2,2,-2,2,17,17"),
     "error: --omega: must be a positive finite real"),
    (("wigner", "--n", "1", "--tol", "inf", "--out", os.devnull),
     "error: --tol: a number state's W_n does not depend on f; give it without --n"),
    (("spectrum",),  # missing required --n-max
     "fstarq spectrum: error: the following arguments are required: --n-max"),
    (("bogus-command",),
     "fstarq: error: argument command: invalid choice: 'bogus-command' (choose from "
     "'spectrum', 'wigner', 'residual', 'commutator', 'assoc', 'verify')"),
    (("wigner", "--n", "1", "--grid=-2,2,-2,2,17,17,nan", "--out", os.devnull),
     "error: --grid: grid offset must be finite"),
    (("wigner", "--n", "1", "--grid=-2,2,-2,2,17,17,inf", "--out", os.devnull),
     "error: --grid: grid offset must be finite"),
    (("spectrum", "--n-max", "2", "--hbar", "0.1,0.2"),
     "error: --hbar: this command takes a single value"),
    (("spectrum", "--n-max", "2", "--hbar", "x"),
     "error: --hbar: could not convert string to float: 'x'"),
    (("spectrum", "--n-max", "2", "--hbar", "-1"),
     "error: --hbar: values must be positive finite reals"),
    (("assoc", "--hbar", "0.1,,0.3"), "error: --hbar: could not convert string to float: ''"),
    # the library's refusals name no flag
    (("assoc", "--hbar", "0.1,0.1,0.1", "--grid=-2,2,-2,2,17,17"),
     "error: need at least 3 distinct hbar values"),
    (("assoc", "--hbar", "0.1,0.2,0.3", "--grid=-2,2,-2,2,17,17"),
     "error: hbar values should span at least two decades"),
    # q= is read with the tokenizer's numeric-literal grammar
    (("spectrum", "--n-max", "1", "--spec", "qdef:q=1_2"),
     "error: --spec: bad numeric literal '1_2' at position 7 (expected: number)"),
    (("spectrum", "--n-max", "1", "--spec", "qdef:q= 1.2"),
     "error: --spec: bad numeric literal ' 1.2' at position 7 (expected: number)"),
    (("spectrum", "--n-max", "1", "--spec", "qdef:q=+1.2"),
     "error: --spec: bad numeric literal '+1.2' at position 7 (expected: number)"),
    (("spectrum", "--n-max", "1", "--spec", "qdef:q=1e400"),
     "error: --spec: qdef parameter overflows a float at position 7"),
    (("spectrum", "--n-max", "1", "--spec", "qdef:q=1e-400"),
     "error: --spec: qdef parameter underflows a float at position 7"),
    (("spectrum", "--n-max", "1", "--spec", "qdef:q=0"),
     "error: --spec: qdef parameter must satisfy q > 0 at position 7"),
    # a repeated hbar used to be recomputed and weight the fit toward it
    (("assoc", "--hbar", "0.1,0.1,0.01,0.001", "--grid=-2,2,-2,2,17,17"),
     "error: hbar = 0.1 is given more than once"),
    # a NaN bound used to read as an ordering error
    (("wigner", "--n", "1", "--grid=nan,1,-1,1,9,9", "--out", os.devnull),
     "error: --grid: grid bounds must be finite"),
]


@pytest.mark.parametrize("argv, line", CLI_REFUSALS,
                         ids=[f"argv{i}" for i in range(len(CLI_REFUSALS))])
def test_cli_config_errors_exit_2(argv, line, capsys):
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == line
    assert err == line + "\n" or line.startswith("fstarq")


def test_wigner_refuses_a_missing_out_before_sampling(monkeypatch, capsys):
    # a refused dump must not first build the whole field
    def no_sampling(*args, **kwargs):
        raise AssertionError("field sampled before the --out check")
    for name in ("fock_wigner", "fcs_wigner"):
        monkeypatch.setattr(cli, name, no_sampling)
    for argv in (("wigner", "--n", "1"), ("wigner", "--spec", "sqrt_n")):
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == "error: --out: wigner writes a field CSV; give a path\n"


REQUIRED_ARGS = {"spectrum": ("--n-max", "2"), "residual": ("--n", "1"),
                 "wigner": ("--n", "1", "--out", os.devnull)}


# flags a command would ignore are not registered on it, and the first-order
# product has no --order to choose
@pytest.mark.parametrize("command, flag, value", [
    ("commutator", "--omega", "0.5"), ("assoc", "--omega", "0.5"), ("wigner", "--omega", "0.5"),
    ("spectrum", "--tol", "0.5"), ("residual", "--tol", "0.5"), ("commutator", "--tol", "0.5"),
    ("assoc", "--tol", "0.5"), ("residual", "--order", "first"), ("commutator", "--order", "first"),
])
def test_cli_rejects_unregistered_flags(command, flag, value, capsys):
    assert run_cli(command, *REQUIRED_ARGS.get(command, ()), flag, value) == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_cli_r_cut_must_be_positive_finite(value, capsys):
    assert run_cli("residual", "--n", "1", "--r-cut", value,
                   "--grid=-2,2,-2,2,17,17") == 2
    assert "--r-cut: must be a positive finite real" in capsys.readouterr().err


def test_cli_residual_refuses_an_empty_disc(capsys):
    assert run_cli("residual", "--spec", "sqrt_n", "--n", "1", "--r-cut", "0.01",
                   "--grid=-2,2,-2,2,17,17") == 2
    assert capsys.readouterr().err == ("error: r_cut = 0.01: no grid sample lies "
                                       "inside the disc\n")


def test_cli_error_names_flag(capsys):
    run_cli("spectrum", "--spec", "bogus", "--n-max", "2")
    err = capsys.readouterr().err
    assert "--spec" in err


OUT_COMMANDS = {
    "spectrum": ("--n-max", "3"),
    "wigner": ("--n", "1", "--grid=-2,2,-2,2,17,17"),
    "residual": ("--n", "1", "--grid=-2,2,-2,2,17,17"),
    "commutator": ("--spec", "sqrt_n", "--grid=-2,2,-2,2,17,17"),
    "assoc": ("--grid=-2,2,-2,2,17,17",),
    "verify": ("--quick",),
}


@pytest.mark.parametrize("command", OUT_COMMANDS)
def test_cli_unwritable_out_exits_2(command, tmp_path, monkeypatch, capsys):
    # an output that cannot be written is a bad flag, not a failed verification
    monkeypatch.setattr(cli, "run_verification", lambda quick: {"all_pass": True})
    path = tmp_path / "missing" / "x.json"
    assert run_cli(command, *OUT_COMMANDS[command], "--out", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --out: No such file or directory: {path}\n"


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


# ---------------------------------------------------------------------------
# Field CSV: one format per distinct number, rows in q-outer order


def template_field_csv(field, path) -> None:
    """The earlier writer, which formatted every sample with %.17g: the byte oracle."""
    vals = field.values
    leads = [format_float(q) + "," for q in field.grid.q_values()]
    rests = [format_float(p) + ",%.17g,%.17g\n" for p in field.grid.p_values()]
    pairs = np.stack([vals.real, vals.imag], -1).reshape(len(leads), -1).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("q,p,re,im\n")
        for lead, row in zip(leads, pairs):
            fh.write((lead + lead.join(rests)) % tuple(row))


def _signed_zero_field(grid):
    rng = np.random.default_rng(18)
    pool = np.array([-0.0, 0.0, 1.5, -2.25, 1 / 3, 5e-324, -5e-324, 0.1])
    vals = np.empty((grid.n_q, grid.n_p), dtype=complex)
    vals.real = rng.choice(pool, vals.shape)
    vals.imag = rng.choice(pool, vals.shape)
    return Field(grid, vals, label="signed zeros")


@functools.cache
def _field_513(name):
    grid = default_grid()
    if name == "fock":
        return fock_wigner(10, grid)
    if name == "qdef_mixture":
        return fcs_wigner(qdef_spec(1.2), 4.0, grid)
    if name == "expr_commutator":
        return commutator_deviation(expr_spec("sqrt(1+0.1*n)"), grid)[0]
    return _signed_zero_field(grid)


FIELDS_513 = ["fock", "qdef_mixture", "expr_commutator", "signed_zeros"]


@pytest.mark.parametrize("name", FIELDS_513)
def test_field_csv_matches_the_template_writer_at_513(tmp_path, name):
    field = _field_513(name)
    field_to_csv(field, tmp_path / "new.csv")
    template_field_csv(field, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("name", FIELDS_513)
def test_field_csv_formats_each_distinct_number_once(tmp_path, monkeypatch, name):
    field = _field_513(name)
    calls = []

    def counted(x):
        calls.append(x)
        return format_float(x)

    monkeypatch.setattr(fstarq.io, "format_float", counted)
    field_to_csv(field, tmp_path / "f.csv")
    pairs = np.stack([field.values.real, field.values.imag], -1)
    distinct = len(np.unique(pairs.view(np.int64)))  # bits: -0.0 and 0.0 count twice
    assert len(calls) == distinct + field.grid.n_q + field.grid.n_p
    if name == "signed_zeros":
        assert distinct == 8


# The writer walks PhaseGrid.row_blocks and formats only the patterns that
# are new to a block: these fields put the block edges where they bite.


def _pooled_field(grid):
    """Draws from a shuffled pool, each q row from a longer prefix of it, so
    that every row block meets patterns new to it which sort between ones met
    before.  0.0 and -0.0 enter in the last row alone: -0.0 is the least
    int64 pattern, and 0.0 sorts between the negatives and the positives."""
    rng = np.random.default_rng(37)
    pool = rng.standard_normal(3000) * 10.0 ** rng.integers(-5, 5, 3000)
    reach = np.linspace(len(pool) / grid.n_q, len(pool), grid.n_q)[:, None]
    vals = np.empty((grid.n_q, grid.n_p), dtype=complex)
    vals.real = pool[(rng.random((grid.n_q, grid.n_p)) * reach).astype(int)]
    vals.imag = pool[(rng.random((grid.n_q, grid.n_p)) * reach).astype(int)]
    vals.real[-1, :2] = 0.0, -0.0
    vals.imag[-1, -2:] = -0.0, 0.0
    return Field(grid, vals, label="pooled")


BLOCK_EDGE_FIELDS = {  # the field and its number of row blocks
    # 16 blocks of 32 rows, then one of a single row
    "default_grid": (lambda: _field_513("fock"), 17),
    # n_p > 2^14: every row block is one q row
    "one_row_blocks": (lambda: _pooled_field(PhaseGrid(-1.0, 1.0, -2.0, 2.0, 4, 20000,
                                                       offset=0.25)), 4),
    # 5 blocks of 8 rows, whose repeats come back out of sorted order
    "pooled": (lambda: _pooled_field(PhaseGrid(-1.0, 1.0, -2.0, 2.0, 40, 2048,
                                               offset=0.25)), 5),
}


@pytest.mark.parametrize("name", BLOCK_EDGE_FIELDS)
def test_field_csv_block_edges(tmp_path, monkeypatch, name):
    make, n_blocks = BLOCK_EDGE_FIELDS[name]
    field = make()
    blocks = field.grid.row_blocks()
    assert len(blocks) == n_blocks
    pairs = np.stack([field.values.real, field.values.imag], -1).view(np.int64)
    distinct = len(np.unique(pairs))
    if name != "default_grid":
        # later blocks meet patterns the first did not: they are inserted mid-memo
        assert len(np.unique(pairs[blocks[0]])) < distinct
        assert {0, np.iinfo(np.int64).min} <= set(np.unique(pairs[blocks[-1]]).tolist())
    expected = reference_field_csv(field)
    calls = []

    def counted(x):
        calls.append(x)
        return format_float(x)

    monkeypatch.setattr(fstarq.io, "format_float", counted)
    field_to_csv(field, tmp_path / "f.csv")
    assert (tmp_path / "f.csv").read_bytes() == expected
    assert len(calls) == distinct + field.grid.n_q + field.grid.n_p


def test_field_csv_names_a_nan_in_the_last_row_block(tmp_path):
    grid = default_grid()
    field = Field(grid, _field_513("fock").values.copy(), label="W_10")
    field.values[-1, 7] = math.nan  # past Field's own check, in the one-row last block
    path = tmp_path / "f.csv"
    with pytest.raises(ValueError) as err:
        field_to_csv(field, path)
    q, p = float(grid.q_values()[-1]), float(grid.p_values()[7])
    assert str(err.value) == (f"cannot write non-finite numbers: field W_10 is not finite "
                              f"at (q, p) = ({q!r}, {p!r})")
    assert not path.exists()


def _swap_rows(lines):
    lines[1], lines[2] = lines[2], lines[1]


def _p_outer(lines):
    rows = [ln.split(",") for ln in lines[1:-1]]
    rows.sort(key=lambda r: (float(r[1]), float(r[0])))
    lines[1:-1] = [",".join(r) for r in rows]


def _swap_rows_among_blank_lines(lines):
    _swap_rows(lines)
    # blank, header, blank, then the misplaced row on line 4, a blank and the rest
    lines[:] = ["", lines[0], "", lines[1], "", *lines[2:]]


@pytest.mark.parametrize("edit, line", [(_swap_rows, 2), (_p_outer, 3),
                                        (_swap_rows_among_blank_lines, 4)])
def test_read_field_csv_refuses_rows_out_of_order(tmp_path, edit, line):
    # square, so a p-outer file passes the rectangular count check
    grid = PhaseGrid(-1.0, 1.0, -1.0, 1.0, 3, 3, offset=0.25)
    field = Field(grid, np.arange(9.0).reshape(3, 3) + 0.5j, label="ordered")
    path = tmp_path / "f.csv"
    field_to_csv(field, path)
    lines = path.read_text().split("\n")
    edit(lines)
    path.write_text("\n".join(lines))
    with pytest.raises(ValueError, match=f"not in q-outer, p-inner order at line {line}$"):
        read_field_csv(path)


def test_read_field_csv_refuses_a_non_uniform_axis(tmp_path):
    # q = 0, 1, 3 was read back as q = 0, 1.5, 3, with an integral of 0.477
    path = tmp_path / "f.csv"
    path.write_text("q,p,re,im\n" + "".join(f"{q},{p},1,0\n" for q in (0, 1, 3)
                                             for p in (0, 1)))
    with pytest.raises(ValueError,
                       match=r"^CSV q coordinates are not on a uniform grid: q = 1\.0$"):
        read_field_csv(path)
    path.write_text("q,p,re,im\n" + "".join(f"{q},{p},1,0\n" for q in (0, 1)
                                             for p in (0, 0.5, 2, 3)))
    with pytest.raises(ValueError,
                       match=r"^CSV p coordinates are not on a uniform grid: p = 0\.5$"):
        read_field_csv(path)


@pytest.mark.parametrize("grid", [
    PhaseGrid(1e6, 1e6 + 1e-3, -1.0, 1.0, 33, 17, offset=0.37),
    PhaseGrid(-8.0, 8.0, -8.0, 8.0, 33, 33, offset=0.0),
    PhaseGrid(-3.0, 5.0, -8.0, 8.0, 65, 97, offset=0.5),
], ids=["far-offset", "origin", "default-offset"])
def test_read_field_csv_accepts_written_grids(tmp_path, grid):
    field = Field(grid, np.ones((grid.n_q, grid.n_p)))
    path = tmp_path / "f.csv"
    field_to_csv(field, path)
    again = read_field_csv(path)
    assert np.array_equal(again.values, field.values)
    assert (again.grid.n_q, again.grid.n_p) == (grid.n_q, grid.n_p)


def test_cli_wigner_refuses_an_underflowing_f_squared(tmp_path, capsys):
    path = tmp_path / "w.csv"
    assert run_cli("wigner", "--spec", "expr:1e-200*n", "--zeta2", "4",
                   "--grid=-4,4,-4,4,17,17", "--out", str(path)) == 2
    assert capsys.readouterr().err == ("error: f(n)^2 underflows to 0 at n = 1.0 "
                                       "for kind 'expr'\n")
    assert not path.exists()
