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
    """The full Fock pass criteria 1-3 share, as a thunk, and its wall time."""
    t0 = time.time()
    run = fock_pass(quick=False)
    return (lambda: run), time.time() - t0


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
