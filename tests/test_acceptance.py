"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The Moyal limit is the exact anchor; deformed-case quantities are
asserted against closed-form oracles or reported as regression baselines.

Criterion 8 (fd4 vs analytic gradients at 1e-6) samples the differentiated
axis at h = 1/128 (1537 samples on [-6,6], 65 across it): the fd4 truncation
floor h^4/30 * max|d^5 W_4| with max|d^5 W_4| ~ 5.28e3 is then ~6.6e-7, and
the observed error is ~6.4e-7.  See README ("Verification suite").

Criteria 1-3 read one full Fock pass, as a verify run does; the others read
no W_n and are handed none.
"""

import hashlib
import os
import pathlib
import subprocess
import sys
import time

import pytest

from fstarq import canonical_json, run_verification
from fstarq.cli import main
from fstarq.verify import (check_associativity_scaling, check_commutator_correspondence,
                           check_derivative_crosscheck, check_imag_vanishing,
                           check_moyal_algebra, check_moyal_genvalue,
                           check_spectrum_closed_form, check_wigner_normalization, fock_pass)


def _report(criterion: str, check: dict, elapsed: float | None = None) -> bool:
    status = "PASS" if check["passed"] else "FAIL"
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"{status} {criterion}: observed {check['observed']:.3e} "
          f"{check['direction']} {check['tolerance']:.1e}{timing}")
    return check["passed"]


@pytest.fixture(scope="module")
def full_pass():
    """The full Fock pass criteria 1-3 share, and its wall time."""
    t0 = time.time()
    run = fock_pass(quick=False)
    return run, time.time() - t0


def test_criterion_1_moyal_genvalue_exactness(full_pass):
    fock, pass_s = full_pass
    t0 = time.time()
    check = check_moyal_genvalue(False, fock)
    elapsed = pass_s + time.time() - t0
    ok = _report("criterion 1 (Moyal genvalue, identity, n<=10, 513^2)", check, elapsed)
    assert ok, check
    assert elapsed <= 10.0, f"runtime {elapsed:.1f}s exceeds the 10 s budget"


def test_criterion_2_imaginary_part_vanishing(full_pass):
    check = check_imag_vanishing(False, full_pass[0])
    assert _report("criterion 2 (imag part of H star W_n, registry, n<=10)", check), check


def test_criterion_3_wigner_normalization(full_pass):
    check = check_wigner_normalization(False, full_pass[0])
    assert _report("criterion 3 (Wigner normalization, n<=20 and mixtures)", check), check


def test_criterion_4_moyal_algebra():
    check = check_moyal_algebra(quick=False, fock=None)
    assert _report("criterion 4 (ladder commutator + exact associativity)", check), check


def test_criterion_5_commutator_correspondence():
    check = check_commutator_correspondence(quick=False, fock=None)
    ok = _report("criterion 5 (commutator correspondence)", check)
    print("      " + check["detail"])
    assert ok, check


def test_criterion_6_associativity_scaling():
    t0 = time.time()
    check = check_associativity_scaling(quick=False, fock=None)
    elapsed = time.time() - t0
    ok = _report("criterion 6 (associativity defect slope >= 1.9)", check, elapsed)
    assert ok, check
    assert elapsed <= 30.0, f"runtime {elapsed:.1f}s exceeds the 30 s budget"


def test_criterion_7_spectrum_closed_form():
    check = check_spectrum_closed_form(quick=False, fock=None)
    assert _report("criterion 7 (spectrum closed forms, n<=100)", check), check


def test_criterion_8_derivative_crosscheck():
    check = check_derivative_crosscheck(quick=False, fock=None)
    ok = _report("criterion 8 (fd4 vs analytic gradients of W_4 at 1e-6)", check)
    print("      h = 1/128 along the differentiated axis (1537 x 65 per axis): "
          "fd4 floor h^4/30 * max|d^5 W_4| ~ 6.6e-7 with max|d^5 W_4| ~ 5.28e3; "
          f"observed {check['observed']:.2e}.")
    assert ok, check


def test_criterion_9_verify_determinism(tmp_path):
    first = canonical_json(run_verification(quick=True))
    second = canonical_json(run_verification(quick=True))
    ok = first == second
    print(f"{'PASS' if ok else 'FAIL'} criterion 9 (verify emits byte-identical "
          f"summaries): {len(first)} bytes")
    assert ok
    # the summary itself round-trips through files byte-for-byte
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    p1.write_text(first, encoding="utf-8")
    p2.write_text(second, encoding="utf-8")
    assert p1.read_bytes() == p2.read_bytes()


# sha256 of `fstarq verify` stdout, full and --quick: a speed-up counts only if
# these bytes stay; a change that moves a number names it and re-pins the hash
VERIFY_STDOUT_SHA256 = {
    "full": "21b8983fb5971af1dc1110093d88b9f2ffe7291141ce3cef1658c891c221dc64",
    "quick": "66b1df24bc7c0261e055471489cf7440adb3be17c16930b94245c5acf880e932",
}


@pytest.mark.parametrize("mode", VERIFY_STDOUT_SHA256)
def test_criterion_9_verify_stdout_bytes(mode, capsys):
    code = main(["verify"] + (["--quick"] if mode == "quick" else []))
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    print(f"{'PASS' if digest == VERIFY_STDOUT_SHA256[mode] else 'FAIL'} criterion 9 "
          f"(verify {mode} stdout sha256 {digest[:8]}...)")
    assert code == 0
    assert digest == VERIFY_STDOUT_SHA256[mode]


def test_criterion_9_quick_verify_bytes_on_one_blas_thread():
    # the summary must not depend on how OpenBLAS splits its calls across
    # threads; the residuals' phase_space_average_im does (see ROADMAP)
    root = pathlib.Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "fstarq.cli", "verify", "--quick"], cwd=root,
        env={**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True, timeout=300)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == VERIFY_STDOUT_SHA256["quick"]


# exit code and sha256 of stdout and stderr of `fstarq assoc --spec <spec>` on the
# default grid, for the 12 catalogue specs: the 4 registry specs, 4 qdef and 4 expr
# (the qdef ones are refused: F(n) or dF/dn is singular on the 513^2 grid)
_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
ASSOC_BYTES = {
    "identity": (0, "2ca1a47b98bf4256f3f8ca87bd0706c417fd9fb13550e58f08690d7984f72c3b", _EMPTY),
    "sqrt_n": (0, "bbdbfb91a1df49a03c26d29c1cc444de9f446b39cb84f783718e0ce81ea822de", _EMPTY),
    "qdef:q=1.2": (2, _EMPTY,
                   "afbfd680771d09dd3a77b3b8a4969dc53efaccd9edbcaa10e64e114a3e436cd3"),
    "expr:sqrt(1+0.1*n)": (
        0, "fcbcf7d888c5578c7b92acaf14db4dabdcd05ff485a62697fda50fd3a4f09029", _EMPTY),
    "qdef:q=0.9": (2, _EMPTY,
                   "4ce0d25a5b17c4ad1dfbe6250849077478a24d5dfbd81ca841949bbbce34ba31"),
    "qdef:q=0.95": (2, _EMPTY,
                    "403f2f5f774c45369ed4ef66d24a5dc859e243e96f874b33db7196e4a758ec34"),
    "qdef:q=1.05": (2, _EMPTY,
                    "403f2f5f774c45369ed4ef66d24a5dc859e243e96f874b33db7196e4a758ec34"),
    "qdef:q=1.1": (2, _EMPTY,
                   "4ce0d25a5b17c4ad1dfbe6250849077478a24d5dfbd81ca841949bbbce34ba31"),
    "expr:sqrt(1+0.05*n)": (
        0, "43a9f1e27b8847acb109d8eda07706d6f0d5452da335cbd122ce42ffd2cc558f", _EMPTY),
    "expr:sqrt(1+0.2*n)": (
        0, "757e3bb7ac26fa3cd1f3b9025be97f6519546f20f3601122770606a457626129", _EMPTY),
    "expr:sqrt(1+0.5*n)": (
        0, "9056e30544106d0c7c568670a799cf01458837afc36d536444140864d002db07", _EMPTY),
    "expr:sqrt(1+1.0*n)": (
        0, "a363239ffddb9b98e65b2d08883048f3727eceb4c0d4d53feab7e35a44af9c78", _EMPTY),
}


@pytest.mark.parametrize("spec", ASSOC_BYTES)
def test_assoc_bytes(spec, capsys):
    code = main(["assoc", "--spec", spec])
    captured = capsys.readouterr()
    got = (code, hashlib.sha256(captured.out.encode("utf-8")).hexdigest(),
           hashlib.sha256(captured.err.encode("utf-8")).hexdigest())
    assert got == ASSOC_BYTES[spec], captured.err


# exit code and sha256 of stdout and stderr of `fstarq residual --spec <spec> --n 3`
# and `fstarq commutator --spec <spec>` on the default grid, for the same 12 specs:
# the report schema is pinned byte for byte, key order and extra block included
REPORT_BYTES = {
    ("residual", "identity"):
        (0, "f1fcf8f07d6b81b0357f89a71de72c2ba8af079b816decb7ff8cb2f9c9e3c2b0", _EMPTY),
    ("residual", "sqrt_n"):
        (0, "9e2bf1fa1f9283fe6896a2e69b4b7bff7f1672bada4a26a8482e8a829f073baf", _EMPTY),
    ("residual", "qdef:q=1.2"):
        (0, "5ce678a3a7db110dd3e73574d94c7ef2b7ca3f4c2a8e180670206824ce7a24b7", _EMPTY),
    ("residual", "expr:sqrt(1+0.1*n)"):
        (0, "20f770d6cdd5b529df627b4d714d5ceb16910a53473ee817a3aadfdf8de33c6f", _EMPTY),
    ("residual", "qdef:q=0.9"):
        (0, "c9b840c03bc958f268d7181d4e85efcf627bfd9b9db99a18ef60c714a7e7af7a", _EMPTY),
    ("residual", "qdef:q=0.95"):
        (0, "cd387f4dd72b8fba50ecf150195d15a1fa801eba6ea6a75c8de253c985770f5f", _EMPTY),
    ("residual", "qdef:q=1.05"):
        (0, "e45ba4ade83102cf194c63ce00d6400e4eebeab6f9aecd3e8351e08431e86d1c", _EMPTY),
    ("residual", "qdef:q=1.1"):
        (0, "707a89b9ba5e3afcf059584a24dc81746e21a2dabea4cde93d4768fd951bdd0b", _EMPTY),
    ("residual", "expr:sqrt(1+0.05*n)"):
        (0, "bbe01771eb0815a1ff181945c1045bf745f855b3cc5b47e59e03e2e04d8b3867", _EMPTY),
    ("residual", "expr:sqrt(1+0.2*n)"):
        (0, "d2261587ba1536ca7b6fb3666766903c7a0c05b6215cf68d09477db84728ba8c", _EMPTY),
    ("residual", "expr:sqrt(1+0.5*n)"):
        (0, "6451f9c3cd356358ac0fa452c8206a79da6b2670e11f2e57190666414ce949f3", _EMPTY),
    ("residual", "expr:sqrt(1+1.0*n)"):
        (0, "d86f8ae48500bc343c6d306b504ed42a5d26fe9fa33439c6b1ac3f5e70f285ba", _EMPTY),
    ("commutator", "identity"):
        (0, "344015bd2646b18a6ef1694cc4d73bedb3b9c02b3f3cd1edfc47b89616b3b196", _EMPTY),
    ("commutator", "sqrt_n"):
        (0, "880bf8ad6c1db07411104ba3ebd279020caf049965506c8f6f7d2730e4686e79", _EMPTY),
    ("commutator", "qdef:q=1.2"):
        (0, "422d5418efc6c0267bf2c3cbfe3ce7d675d878831d5658af5acdea24c0677303", _EMPTY),
    ("commutator", "expr:sqrt(1+0.1*n)"):
        (0, "d20339401e29ef53106cf2fbc42d1a1d8a7d0c93c2c429203f70a0009525c8c5", _EMPTY),
    ("commutator", "qdef:q=0.9"):
        (0, "581b2c73ff8afe6cf408172c1d2a9ba1b99e36a7451d8df4ad6a59dd7aaeea66", _EMPTY),
    ("commutator", "qdef:q=0.95"):
        (0, "ee91f44682a17b5b70d496214834446300141a619e0c7aa36c386a1cbaa74807", _EMPTY),
    ("commutator", "qdef:q=1.05"):
        (0, "0bdfe33fcc18d21dac82ac6b9f00c2f7851f11715f38c3ee785386399f0bec1d", _EMPTY),
    ("commutator", "qdef:q=1.1"):
        (0, "cb8f0d795a9c54b15269fec66099725cd1875d109b7a19f17bed6de380287e5e", _EMPTY),
    ("commutator", "expr:sqrt(1+0.05*n)"):
        (0, "1517299698143027b49d0c766dc6f5788f2efab9ed7033fe8fcdec044d2dd524", _EMPTY),
    ("commutator", "expr:sqrt(1+0.2*n)"):
        (0, "3c7d3c0355046e7194b80128301f0973f1430b241ee47da8f5d53176522e9f7a", _EMPTY),
    ("commutator", "expr:sqrt(1+0.5*n)"):
        (0, "8a63be537d1d6db3558bd214851384229c91dd5ccbb66fefc43efa61e67eeee0", _EMPTY),
    ("commutator", "expr:sqrt(1+1.0*n)"):
        (0, "0442fa412caed5b193fa277902f9278c2875bb9105f1877249637bcaaad39f6a", _EMPTY),
}


@pytest.mark.parametrize("command, spec", REPORT_BYTES)
def test_report_bytes(command, spec, capsys):
    code = main([command, "--spec", spec] + (["--n", "3"] if command == "residual" else []))
    captured = capsys.readouterr()
    got = (code, hashlib.sha256(captured.out.encode("utf-8")).hexdigest(),
           hashlib.sha256(captured.err.encode("utf-8")).hexdigest())
    assert got == REPORT_BYTES[command, spec], captured.err


# sha256 of the deviation-field CSV that `fstarq commutator --spec <spec> --out`
# writes on a 65^2 grid, for the 4 registry specs: the field's bytes, where the
# report pins above read only its norms
COMMUTATOR_CSV_SHA256 = {
    "identity": "9813b4fdd17eb9cbd8c7ced3f0591ed47543b715e7f64b5eefa7e27e6db86322",
    "sqrt_n": "ef2858b07088def91ce92b115adb6ed1de99675f8645a3cbc32bffae860a8101",
    "qdef:q=1.2": "033a425b28ccfe0a52eb226c5e25c026c2797dbb173a06ab6573318f20684547",
    "expr:sqrt(1+0.1*n)": "0dae35d1313f0cb14a7db90c9c45e5579502f82ec946290ce1abef05e8501a6b",
}


@pytest.mark.parametrize("spec", COMMUTATOR_CSV_SHA256)
def test_commutator_field_csv_bytes(spec, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["commutator", "--spec", spec, "--grid=-4,4,-4,4,65,65", "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    digest = hashlib.sha256((tmp_path / "report.field.csv").read_bytes()).hexdigest()
    assert digest == COMMUTATOR_CSV_SHA256[spec]
