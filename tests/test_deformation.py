import functools
import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import iv

from fstarq import (DeformationSpec, amplitude_F, amplitude_F_deriv,
                    commutator_target, eval_f, expr_spec, f_squared,
                    identity_spec, normalization_Nf,
                    parse_deformation, qdef_spec, registry_specs, spec_to_text,
                    spectrum, sqrt_n_spec)
from fstarq import deformation
from fstarq.deformation import series_terms
from fstarq.phasespace import PhaseGrid, default_grid, fcs_wigner, wigner_weights
from fstarq.starproduct import ProductSetup
from fstarq.errors import NonPositiveValue, ParseError, SeriesDivergence, SingularAmplitude

REGISTRY = registry_specs()
REGISTRY_IDS = [spec_to_text(s) for s in REGISTRY]


# ---------------------------------------------------------------------------
# identity: everything collapses to the harmonic oscillator, exactly


def test_identity_is_exact():
    spec = identity_spec()
    assert eval_f(spec, 7.3) == 1.0
    assert np.all(eval_f(spec, np.linspace(0, 40, 17)) == 1.0)
    assert amplitude_F(spec, 12.75) == 1.0
    assert commutator_target(spec, 9.0) == 1.0
    E = spectrum(spec, 12)
    assert E.tolist() == [n + 0.5 for n in range(13)]
    assert normalization_Nf(spec, 0.0) == 1.0


def test_identity_normalization_is_exp_half():
    # sum 1/n! = e, so N_f = e^{-1/2}
    assert normalization_Nf(identity_spec(), 1.0) == pytest.approx(
        math.exp(-0.5), rel=1e-13)


# ---------------------------------------------------------------------------
# sqrt_n


def test_sqrt_n_values():
    spec = sqrt_n_spec()
    assert eval_f(spec, 4.0) == 2.0
    assert eval_f(spec, 0.0) == 0.0


def test_sqrt_n_amplitude():
    spec = sqrt_n_spec()
    # (2*2 - 1*1) / (1 * sqrt2) = 3 / sqrt2
    assert amplitude_F(spec, 1.0) == pytest.approx(3.0 / math.sqrt(2.0), rel=1e-14)
    with pytest.raises(SingularAmplitude):
        amplitude_F(spec, 0.0)
    with pytest.raises(SingularAmplitude):
        amplitude_F(spec, np.array([1.0, 0.0]))


def test_amplitude_refuses_a_cancelled_numerator():
    # at n = 1e300, (n+1) f(n+1)^2 - n f(n)^2 is 0.0 in float64 where F is 1
    spec = identity_spec()
    cancelled = r"^F\(n\) cancelled to no significant digit at n = {} for kind 'identity'$"
    with pytest.raises(SingularAmplitude, match=cancelled.format(r"1e\+300")):
        amplitude_F(spec, 1e300)
    # a grid whose corners reach n = 7.7e15 would drop the bracket term there
    with pytest.raises(SingularAmplitude, match=cancelled.format(r"7656250000000000\.0")):
        ProductSetup(PhaseGrid(-1e8, 1e8, -1e8, 1e8, 9, 9), spec)
    # below the bound F keeps its value
    assert amplitude_F(spec, np.array([0.0, 1e-300, 1.0, 1e5, 1e12])).tolist() == [1.0] * 5


@pytest.mark.parametrize("spec", REGISTRY, ids=REGISTRY_IDS)
def test_default_grid_is_far_from_cancellation(spec):
    # the default grid's n reach 64, where identity's numerator of 1 clears the
    # refusal's bound by about 1e13
    grid = default_grid()
    upper, lower = deformation._target_terms(spec, grid._radii()[0] / (2.0 * grid.hbar))
    margin = np.abs(upper - lower) / (4.0 * np.finfo(float).eps * (upper + lower))
    assert margin.min() > 1e12


def test_sqrt_n_commutator_target():
    spec = sqrt_n_spec()
    assert commutator_target(spec, 3.0) == 7.0
    assert commutator_target(spec, 0.0) == 1.0
    ns = np.arange(0, 30, dtype=float)
    assert np.allclose(commutator_target(spec, ns), 2 * ns + 1, rtol=0, atol=0)


def test_sqrt_n_spectrum():
    E = spectrum(sqrt_n_spec(), 5)
    assert E.dtype == np.float64 and E.shape == (6,)
    assert E[1] == 2.5
    assert E[0] == 0.5
    for n in range(6):
        assert E[n] == ((n + 1) ** 2 + n**2) / 2.0


def test_sqrt_n_normalization_brute_force():
    # direct factorial sums as the oracle: sum |z|^{2n} / (n!)^2
    z2 = 1.0
    total = sum(z2**n / math.factorial(n) ** 2 for n in range(60))
    oracle = 1.0 / math.sqrt(total)
    got = normalization_Nf(sqrt_n_spec(), z2)
    assert got == pytest.approx(oracle, rel=1e-13)
    # cross-check: the sum is the modified Bessel function I_0(2 sqrt(z2))
    assert got == pytest.approx(1.0 / math.sqrt(iv(0, 2.0)), rel=1e-12)
    assert got == pytest.approx(0.6623264148718883, rel=1e-12)


# ---------------------------------------------------------------------------
# qdef


def test_qdef_against_extended_precision_oracle():
    mp.mp.dps = 50
    q = mp.mpf("1.2")
    bracket3 = (q**3 - q**-3) / (q - 1 / q)
    oracle = float(mp.sqrt(bracket3 / 3))
    spec = qdef_spec(1.2)
    assert eval_f(spec, 3.0) == pytest.approx(oracle, rel=1e-14)
    assert eval_f(spec, 3.0) == pytest.approx(1.0221618339650600, rel=1e-14)


def test_qdef_smooth_through_zero():
    spec = qdef_spec(1.2)
    lam = math.log(1.2)
    limit = math.sqrt(lam / math.sinh(lam))
    assert eval_f(spec, 0.0) == pytest.approx(limit, rel=1e-12)
    # value from the series branch agrees with the direct branch
    assert eval_f(spec, 0.2499) == pytest.approx(eval_f(spec, 0.2501), rel=1e-3)


def test_qdef_near_one_is_identity_like():
    spec = qdef_spec(1.0 + 1e-9)
    ns = np.linspace(0, 20, 11)
    assert np.allclose(eval_f(spec, ns), 1.0, atol=1e-9)


@pytest.mark.parametrize("n", [0.3, 1.0, 2.7, 9.4])
def test_qdef_derivatives_match_finite_differences(n):
    spec = qdef_spec(1.3)
    h = 1e-5
    fd1 = (eval_f(spec, n + h) - eval_f(spec, n - h)) / (2 * h)
    assert eval_f(spec, n, 1) == pytest.approx(fd1, rel=1e-7)
    # second differences are roundoff-limited below h ~ 1e-3
    h = 1e-3
    fd2 = (eval_f(spec, n + h) - 2 * eval_f(spec, n) + eval_f(spec, n - h)) / h**2
    assert eval_f(spec, n, 2) == pytest.approx(fd2, rel=1e-5)


def test_qdef_requires_positive_q():
    with pytest.raises(ValueError):
        qdef_spec(-1.0)
    with pytest.raises(ValueError):
        DeformationSpec("qdef")


# ---------------------------------------------------------------------------
# expr


def test_expr_eval_and_errors():
    spec = expr_spec("sqrt(1+0.1*n)")
    assert eval_f(spec, 0.0) == 1.0
    assert eval_f(spec, 30.0) == 2.0
    with pytest.raises(ParseError):
        expr_spec("sqrt(1+")
    with pytest.raises(ValueError):
        DeformationSpec("expr")


def test_expr_nonpositive_detection():
    spec = expr_spec("1-n")
    assert eval_f(spec, 0.5) == 0.5
    with pytest.raises(NonPositiveValue):
        eval_f(spec, 2.0)
    with pytest.raises(NonPositiveValue):
        eval_f(spec, np.array([0.5, 3.0]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text, n_max, bad_n", [
    ("expr:ln(n)", 20, 0.0),       # f(0) = -inf used to give E_0 = NaN
    ("expr:1-0.1*n", 9, 10.0),     # E_9 needs f(10) = 0
])
def test_spectrum_rejects_nonpositive_f(text, n_max, bad_n):
    with pytest.raises(NonPositiveValue, match=f"at n = {bad_n} "):
        spectrum(parse_deformation(text), n_max)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["hbar", "omega"])
def test_spectrum_rejects_nonfinite_hbar_and_omega(name, value):
    # NaN passes a plain "<= 0" test and would come back as energy = nan
    with pytest.raises(ValueError, match=f"^{name} must be a positive finite real$"):
        spectrum(identity_spec(), 1, **{"hbar": 1.0, "omega": 1.0, name: value})


def test_spectrum_refuses_a_fractional_n_max():
    # n_max = 2.5 used to return the four levels E_0..E_3; a numpy integer is an n_max
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        spectrum(identity_spec(), 2.5)
    assert spectrum(identity_spec(), np.int64(2)).tolist() == [0.5, 1.5, 2.5]


def test_expr_derivatives_are_symbolic():
    spec = expr_spec("sqrt(1+0.1*n)")
    n = 4.0
    f = eval_f(spec, n)
    assert eval_f(spec, n, 1) == pytest.approx(0.05 / f, rel=1e-13)


def test_eval_f_rejects_negative_n():
    with pytest.raises(ValueError):
        eval_f(identity_spec(), -0.5)


# ---------------------------------------------------------------------------
# cross-spec properties


@pytest.mark.parametrize("spec", REGISTRY, ids=REGISTRY_IDS)
@pytest.mark.parametrize("n", [1, 3, 10, 137, 1000])
def test_telescoping_sum(spec, n):
    # sum_{k<n} [(k+1)f(k+1)^2 - k f(k)^2] telescopes to n f(n)^2
    ks = np.arange(0, n, dtype=float)
    lhs = float(np.sum(commutator_target(spec, ks)))
    rhs = n * f_squared(spec, float(n))
    assert lhs == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize("spec", REGISTRY, ids=REGISTRY_IDS)
def test_spectrum_vs_commutator_identity(spec):
    # 2 E_n / (hbar w) = commutator_target(n) + 2 n f(n)^2
    E = spectrum(spec, 40)
    for n in range(41):
        expected = commutator_target(spec, float(n)) + 2 * n * f_squared(spec, float(n))
        assert 2 * E[n] == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("spec", REGISTRY, ids=REGISTRY_IDS)
def test_f_squared_matches_square(spec):
    ns = np.linspace(0.0, 30.0, 19)
    assert np.allclose(f_squared(spec, ns), eval_f(spec, ns) ** 2, rtol=1e-13)


@pytest.mark.parametrize("spec", REGISTRY, ids=REGISTRY_IDS)
def test_f_squared_deriv_matches_finite_difference(spec):
    h = 1e-5
    for n in (0.7, 2.0, 11.3):
        fd = (f_squared(spec, n + h) - f_squared(spec, n - h)) / (2 * h)
        assert f_squared(spec, n, 1) == pytest.approx(fd, rel=1e-7, abs=1e-9)


@pytest.mark.parametrize("spec", REGISTRY, ids=REGISTRY_IDS)
def test_amplitude_deriv_matches_finite_difference(spec):
    h = 1e-5
    for n in (0.6, 1.5, 8.2):
        fd = (amplitude_F(spec, n + h) - amplitude_F(spec, n - h)) / (2 * h)
        assert amplitude_F_deriv(spec, n) == pytest.approx(fd, rel=1e-6, abs=1e-9)


@settings(max_examples=60)
@given(z2=st.floats(min_value=0.0, max_value=4.0))
def test_weights_normalize(z2):
    terms = series_terms(sqrt_n_spec(), z2)
    assert np.all(terms >= 0)
    assert np.sum(terms / np.sum(terms)) == pytest.approx(1.0, abs=1e-12)


def test_series_divergence():
    spec = expr_spec("1/(n+1)")
    with pytest.raises(SeriesDivergence):
        series_terms(spec, 1.0)


def test_series_terms_evaluates_f_once_per_term(monkeypatch):
    # f_squared checks an expr f itself, so no separate positivity probe runs
    calls = []
    original = deformation._f

    def counted(spec, n, order):
        if order == 0:
            calls.append(float(n))
        return original(spec, n, order)

    monkeypatch.setattr(deformation, "_f", counted)
    terms = series_terms(expr_spec("sqrt(1+0.1*n)"), 4.0)
    assert len(terms) == 21
    assert calls == [float(n) for n in range(1, len(terms) + 1)]


def test_f_squared_refuses_an_expr_square_that_overflows():
    # f = exp(n) is finite up to n = 709, but its square overflows from n = 355
    spec = expr_spec("exp(n)")
    assert math.isfinite(eval_f(spec, 400.0))
    line = r"^f\(n\)\^2 is not finite at n = {} for kind 'expr'$"
    with pytest.raises(NonPositiveValue, match=line.format(r"400\.0")):
        f_squared(spec, 400.0)
    with pytest.raises(NonPositiveValue, match=line.format(r"355\.0")):
        f_squared(spec, np.array([354.0, 355.0, 400.0]))
    assert f_squared(spec, 354.0) == eval_f(spec, 354.0) ** 2


def test_series_terms_refuses_an_underflowing_f_squared():
    # f(1) = 1e-200 is finite and positive, but its square is 0.0
    with pytest.raises(NonPositiveValue, match=r"f\(n\)\^2 underflows to 0 at n = 1.0 "):
        series_terms(expr_spec("1e-200*n"), 4.0)


SERIES_ENTRIES = {
    "series_terms": series_terms,
    "normalization_Nf": normalization_Nf,
    "wigner_weights": wigner_weights,
    "fcs_wigner": lambda spec, zeta_abs2, tol=1e-14: fcs_wigner(
        spec, zeta_abs2, PhaseGrid(-2, 2, -2, 2, 17, 17), tol=tol),
}
BAD_SERIES_INPUTS = [
    (dict(zeta_abs2=math.nan), "^zeta_abs2 must be a finite real >= 0$"),
    (dict(zeta_abs2=math.inf), "^zeta_abs2 must be a finite real >= 0$"),
    (dict(zeta_abs2=-1.0), "^zeta_abs2 must be a finite real >= 0$"),
    (dict(tol=math.nan), "^tol must be a positive finite real$"),
    (dict(tol=math.inf), "^tol must be a positive finite real$"),
    (dict(tol=0.0), "^tol must be a positive finite real$"),
]


# a NaN or inf input used to run all n_max terms and then report divergence
@pytest.mark.parametrize("entry, bad, message", [
    pytest.param(entry, bad, message, id=f"{entry}-{','.join(f'{k}={v}' for k, v in bad.items())}")
    for entry in SERIES_ENTRIES for bad, message in BAD_SERIES_INPUTS
    if not (entry == "normalization_Nf" and "tol" in bad)])  # normalization_Nf has no tol
def test_series_inputs_rejected_by_name(entry, bad, message):
    kwargs = {"zeta_abs2": 1.0, **bad}
    with pytest.raises(ValueError, match=message):
        SERIES_ENTRIES[entry](sqrt_n_spec(), **kwargs)


# ---------------------------------------------------------------------------
# the one n guard and the one refusal


N_FUNCTIONS = {
    "eval_f:0": lambda spec, n: eval_f(spec, n),
    "eval_f:1": lambda spec, n: eval_f(spec, n, 1),
    "eval_f:2": lambda spec, n: eval_f(spec, n, 2),
    "f_squared:0": lambda spec, n: f_squared(spec, n),
    "f_squared:1": lambda spec, n: f_squared(spec, n, 1),
    "f_squared:2": lambda spec, n: f_squared(spec, n, 2),
    "amplitude_F": amplitude_F,
    "amplitude_F_deriv": amplitude_F_deriv,
    "commutator_target": commutator_target,
}
N_PROBES = {"0": 0.0, "1": 1.0, "12": 12.0, "400": 400.0, "801": 801.0, "7000": 7000.0,
            "arr": np.array([0.0, 0.5, 3.0, 12.0, 64.75, 400.0, 801.0, 7000.0])}
REFUSAL_SPECS = REGISTRY_IDS + ["expr:1-0.1*n", "expr:ln(n)", "expr:exp(n)", "expr:1e-200*n"]


def refusal_calls():
    """{(call, argument): thunk on a spec} over the five n-functions at every
    probe, spectrum at four n_max and series_terms at four |zeta|^2."""
    calls = {(name, key): functools.partial(fn, n=n)
             for name, fn in N_FUNCTIONS.items() for key, n in N_PROBES.items()}
    calls.update((("spectrum", str(n_max)), functools.partial(spectrum, n_max=n_max))
                 for n_max in (5, 20, 400, 5000))
    calls.update((("series_terms", str(z)), functools.partial(series_terms, zeta_abs2=z))
                 for z in (1.0, 4.0, 50.0, 5000.0))
    return calls


# Every refusal of refusal_calls() on REFUSAL_SPECS, by type and full text;
# every other call returns.  The texts were recorded from the hand-written
# refusals that _refuse replaced.
REFUSALS = {
    ("identity", "series_terms", "5000.0"): (SeriesDivergence,
        "normalization series not converged after 1000 terms for kind 'identity'"),
    ("sqrt_n", "amplitude_F", "0"): (SingularAmplitude,
        "F(n) singular at n = 0.0 for kind 'sqrt_n'"),
    ("sqrt_n", "amplitude_F", "arr"): (SingularAmplitude,
        "F(n) singular at n = 0.0 for kind 'sqrt_n'"),
    ("sqrt_n", "amplitude_F_deriv", "0"): (SingularAmplitude,
        "dF/dn singular at n = 0.0 for kind 'sqrt_n'"),
    ("sqrt_n", "amplitude_F_deriv", "arr"): (SingularAmplitude,
        "dF/dn singular at n = 0.0 for kind 'sqrt_n'"),
    ("qdef:q=1.2", "eval_f:0", "7000"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 7000.0 for kind 'qdef'"),
    ("qdef:q=1.2", "eval_f:0", "arr"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 7000.0 for kind 'qdef'"),
    ("qdef:q=1.2", "amplitude_F", "7000"): (SingularAmplitude,
        "F(n) singular at n = 7000.0 for kind 'qdef'"),
    ("qdef:q=1.2", "amplitude_F", "arr"): (SingularAmplitude,
        "F(n) singular at n = 7000.0 for kind 'qdef'"),
    ("qdef:q=1.2", "amplitude_F_deriv", "7000"): (SingularAmplitude,
        "dF/dn singular at n = 7000.0 for kind 'qdef'"),
    ("qdef:q=1.2", "amplitude_F_deriv", "arr"): (SingularAmplitude,
        "dF/dn singular at n = 7000.0 for kind 'qdef'"),
    ("qdef:q=1.2", "commutator_target", "7000"): (NonPositiveValue,
        "commutator target is not finite at n = 7000.0 for kind 'qdef'"),
    ("qdef:q=1.2", "commutator_target", "arr"): (NonPositiveValue,
        "commutator target is not finite at n = 7000.0 for kind 'qdef'"),
    ("qdef:q=1.2", "spectrum", "5000"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 3897.0 for kind 'qdef'"),
    ("expr:1-0.1*n", "eval_f:0", "12"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 12.0 for kind 'expr'"),
    ("expr:1-0.1*n", "eval_f:0", "400"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 400.0 for kind 'expr'"),
    ("expr:1-0.1*n", "eval_f:0", "801"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 801.0 for kind 'expr'"),
    ("expr:1-0.1*n", "eval_f:0", "7000"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 7000.0 for kind 'expr'"),
    ("expr:1-0.1*n", "eval_f:0", "arr"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 12.0 for kind 'expr'"),
    ("expr:1-0.1*n", "f_squared:0", "12"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 12.0 for kind 'expr'"),
    ("expr:1-0.1*n", "f_squared:0", "400"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 400.0 for kind 'expr'"),
    ("expr:1-0.1*n", "f_squared:0", "801"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 801.0 for kind 'expr'"),
    ("expr:1-0.1*n", "f_squared:0", "7000"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 7000.0 for kind 'expr'"),
    ("expr:1-0.1*n", "f_squared:0", "arr"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 12.0 for kind 'expr'"),
    ("expr:1-0.1*n", "amplitude_F", "12"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 13.0 for kind 'expr'"),
    ("expr:1-0.1*n", "amplitude_F", "400"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 401.0 for kind 'expr'"),
    ("expr:1-0.1*n", "amplitude_F", "801"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 802.0 for kind 'expr'"),
    ("expr:1-0.1*n", "amplitude_F", "7000"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 7001.0 for kind 'expr'"),
    ("expr:1-0.1*n", "amplitude_F", "arr"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 13.0 for kind 'expr'"),
    ("expr:1-0.1*n", "amplitude_F_deriv", "12"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 12.0 for kind 'expr'"),
    ("expr:1-0.1*n", "amplitude_F_deriv", "400"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 400.0 for kind 'expr'"),
    ("expr:1-0.1*n", "amplitude_F_deriv", "801"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 801.0 for kind 'expr'"),
    ("expr:1-0.1*n", "amplitude_F_deriv", "7000"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 7000.0 for kind 'expr'"),
    ("expr:1-0.1*n", "amplitude_F_deriv", "arr"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 12.0 for kind 'expr'"),
    ("expr:1-0.1*n", "commutator_target", "12"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 13.0 for kind 'expr'"),
    ("expr:1-0.1*n", "commutator_target", "400"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 401.0 for kind 'expr'"),
    ("expr:1-0.1*n", "commutator_target", "801"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 802.0 for kind 'expr'"),
    ("expr:1-0.1*n", "commutator_target", "7000"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 7001.0 for kind 'expr'"),
    ("expr:1-0.1*n", "commutator_target", "arr"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 13.0 for kind 'expr'"),
    ("expr:1-0.1*n", "spectrum", "20"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 10.0 for kind 'expr'"),
    ("expr:1-0.1*n", "spectrum", "400"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 10.0 for kind 'expr'"),
    ("expr:1-0.1*n", "spectrum", "5000"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 10.0 for kind 'expr'"),
    ("expr:1-0.1*n", "series_terms", "1.0"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 10.0 for kind 'expr'"),
    ("expr:1-0.1*n", "series_terms", "4.0"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 10.0 for kind 'expr'"),
    ("expr:1-0.1*n", "series_terms", "50.0"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 10.0 for kind 'expr'"),
    ("expr:1-0.1*n", "series_terms", "5000.0"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 10.0 for kind 'expr'"),
    ("expr:ln(n)", "eval_f:0", "0"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 0.0 for kind 'expr'"),
    ("expr:ln(n)", "eval_f:0", "1"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 1.0 for kind 'expr'"),
    ("expr:ln(n)", "eval_f:0", "arr"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 0.0 for kind 'expr'"),
    ("expr:ln(n)", "f_squared:0", "0"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 0.0 for kind 'expr'"),
    ("expr:ln(n)", "f_squared:0", "1"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 1.0 for kind 'expr'"),
    ("expr:ln(n)", "f_squared:0", "arr"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 0.0 for kind 'expr'"),
    ("expr:ln(n)", "amplitude_F", "0"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 1.0 for kind 'expr'"),
    ("expr:ln(n)", "amplitude_F", "1"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 1.0 for kind 'expr'"),
    ("expr:ln(n)", "amplitude_F", "arr"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 1.0 for kind 'expr'"),
    ("expr:ln(n)", "amplitude_F_deriv", "0"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 0.0 for kind 'expr'"),
    ("expr:ln(n)", "amplitude_F_deriv", "1"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 1.0 for kind 'expr'"),
    ("expr:ln(n)", "amplitude_F_deriv", "arr"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 0.0 for kind 'expr'"),
    ("expr:ln(n)", "commutator_target", "0"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 1.0 for kind 'expr'"),
    ("expr:ln(n)", "commutator_target", "1"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 1.0 for kind 'expr'"),
    ("expr:ln(n)", "commutator_target", "arr"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 1.0 for kind 'expr'"),
    ("expr:ln(n)", "spectrum", "5"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 0.0 for kind 'expr'"),
    ("expr:ln(n)", "spectrum", "20"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 0.0 for kind 'expr'"),
    ("expr:ln(n)", "spectrum", "400"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 0.0 for kind 'expr'"),
    ("expr:ln(n)", "spectrum", "5000"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 0.0 for kind 'expr'"),
    ("expr:ln(n)", "series_terms", "1.0"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 1.0 for kind 'expr'"),
    ("expr:ln(n)", "series_terms", "4.0"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 1.0 for kind 'expr'"),
    ("expr:ln(n)", "series_terms", "50.0"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 1.0 for kind 'expr'"),
    ("expr:ln(n)", "series_terms", "5000.0"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 1.0 for kind 'expr'"),
    ("expr:exp(n)", "eval_f:0", "801"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 801.0 for kind 'expr'"),
    ("expr:exp(n)", "eval_f:0", "7000"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 7000.0 for kind 'expr'"),
    ("expr:exp(n)", "eval_f:0", "arr"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 801.0 for kind 'expr'"),
    ("expr:exp(n)", "f_squared:0", "400"): (NonPositiveValue,
        "f(n)^2 is not finite at n = 400.0 for kind 'expr'"),
    ("expr:exp(n)", "f_squared:0", "801"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 801.0 for kind 'expr'"),
    ("expr:exp(n)", "f_squared:0", "7000"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 7000.0 for kind 'expr'"),
    ("expr:exp(n)", "f_squared:0", "arr"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 801.0 for kind 'expr'"),
    ("expr:exp(n)", "amplitude_F", "400"): (SingularAmplitude,
        "F(n) singular at n = 400.0 for kind 'expr'"),
    ("expr:exp(n)", "amplitude_F", "801"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 802.0 for kind 'expr'"),
    ("expr:exp(n)", "amplitude_F", "7000"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 7001.0 for kind 'expr'"),
    ("expr:exp(n)", "amplitude_F", "arr"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 802.0 for kind 'expr'"),
    ("expr:exp(n)", "amplitude_F_deriv", "400"): (SingularAmplitude,
        "dF/dn singular at n = 400.0 for kind 'expr'"),
    ("expr:exp(n)", "amplitude_F_deriv", "801"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 801.0 for kind 'expr'"),
    ("expr:exp(n)", "amplitude_F_deriv", "7000"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 7000.0 for kind 'expr'"),
    ("expr:exp(n)", "amplitude_F_deriv", "arr"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 801.0 for kind 'expr'"),
    ("expr:exp(n)", "commutator_target", "400"): (NonPositiveValue,
        "commutator target is not finite at n = 400.0 for kind 'expr'"),
    ("expr:exp(n)", "commutator_target", "801"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 802.0 for kind 'expr'"),
    ("expr:exp(n)", "commutator_target", "7000"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 7001.0 for kind 'expr'"),
    ("expr:exp(n)", "commutator_target", "arr"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 802.0 for kind 'expr'"),
    ("expr:exp(n)", "spectrum", "400"): (NonPositiveValue,
        "E_n is not finite at n = 351.0 for kind 'expr'"),
    ("expr:exp(n)", "spectrum", "5000"): (NonPositiveValue,
        "f(n) is not a finite positive value at n = 710.0 for kind 'expr'"),
    ("expr:1e-200*n", "amplitude_F", "0"): (SingularAmplitude,
        "F(n) singular at n = 0.0 for kind 'expr'"),
    ("expr:1e-200*n", "amplitude_F", "1"): (SingularAmplitude,
        "F(n) singular at n = 1.0 for kind 'expr'"),
    ("expr:1e-200*n", "amplitude_F", "12"): (SingularAmplitude,
        "F(n) singular at n = 12.0 for kind 'expr'"),
    ("expr:1e-200*n", "amplitude_F", "400"): (SingularAmplitude,
        "F(n) singular at n = 400.0 for kind 'expr'"),
    ("expr:1e-200*n", "amplitude_F", "801"): (SingularAmplitude,
        "F(n) singular at n = 801.0 for kind 'expr'"),
    ("expr:1e-200*n", "amplitude_F", "7000"): (SingularAmplitude,
        "F(n) singular at n = 7000.0 for kind 'expr'"),
    ("expr:1e-200*n", "amplitude_F", "arr"): (SingularAmplitude,
        "F(n) singular at n = 0.0 for kind 'expr'"),
    ("expr:1e-200*n", "amplitude_F_deriv", "0"): (SingularAmplitude,
        "dF/dn singular at n = 0.0 for kind 'expr'"),
    ("expr:1e-200*n", "amplitude_F_deriv", "1"): (SingularAmplitude,
        "dF/dn singular at n = 1.0 for kind 'expr'"),
    ("expr:1e-200*n", "amplitude_F_deriv", "12"): (SingularAmplitude,
        "dF/dn singular at n = 12.0 for kind 'expr'"),
    ("expr:1e-200*n", "amplitude_F_deriv", "400"): (SingularAmplitude,
        "dF/dn singular at n = 400.0 for kind 'expr'"),
    ("expr:1e-200*n", "amplitude_F_deriv", "801"): (SingularAmplitude,
        "dF/dn singular at n = 801.0 for kind 'expr'"),
    ("expr:1e-200*n", "amplitude_F_deriv", "7000"): (SingularAmplitude,
        "dF/dn singular at n = 7000.0 for kind 'expr'"),
    ("expr:1e-200*n", "amplitude_F_deriv", "arr"): (SingularAmplitude,
        "dF/dn singular at n = 0.0 for kind 'expr'"),
    ("expr:1e-200*n", "series_terms", "1.0"): (NonPositiveValue,
        "f(n)^2 underflows to 0 at n = 1.0 for kind 'expr'"),
    ("expr:1e-200*n", "series_terms", "4.0"): (NonPositiveValue,
        "f(n)^2 underflows to 0 at n = 1.0 for kind 'expr'"),
    ("expr:1e-200*n", "series_terms", "50.0"): (NonPositiveValue,
        "f(n)^2 underflows to 0 at n = 1.0 for kind 'expr'"),
    ("expr:1e-200*n", "series_terms", "5000.0"): (NonPositiveValue,
        "f(n)^2 underflows to 0 at n = 1.0 for kind 'expr'"),
}


@pytest.mark.parametrize("text", REFUSAL_SPECS)
def test_refusals_keep_their_type_and_text(text):
    spec = parse_deformation(text)
    found = {}
    for (call, arg), run in refusal_calls().items():
        try:
            run(spec)
        except Exception as exc:  # the table pins which calls refuse, and how
            found[text, call, arg] = (type(exc), str(exc))
    assert found == {key: want for key, want in REFUSALS.items() if key[0] == text}


@pytest.mark.parametrize("name", N_FUNCTIONS)
@pytest.mark.parametrize("spec", REGISTRY, ids=REGISTRY_IDS)
def test_n_functions_refuse_negative_and_nan_n(spec, name):
    # amplitude_F(identity, -3) gave 1.0 and eval_f(identity, nan) gave 1.0
    for n in (-3.0, math.nan, np.array([1.0, -3.0]), np.array([1.0, math.nan])):
        with pytest.raises(ValueError, match=r"^n must be >= 0$"):
            N_FUNCTIONS[name](spec, n)


# ---------------------------------------------------------------------------
# mini-language


@pytest.mark.parametrize("text,kind", [
    ("identity", "identity"),
    ("sqrt_n", "sqrt_n"),
    ("qdef:q=1.2", "qdef"),
    ("expr:sqrt(1+0.1*n)", "expr"),
    ("  identity  ", "identity"),
])
def test_parse_deformation(text, kind):
    spec = parse_deformation(text)
    assert spec.kind == kind


def test_parse_deformation_round_trip():
    for spec in REGISTRY:
        again = parse_deformation(spec_to_text(spec))
        assert again == spec


ACCEPTED_SPECS = [
    DeformationSpec("identity"), DeformationSpec("sqrt_n"),
    DeformationSpec("qdef", q=2), DeformationSpec("qdef", q=np.float64(1.2)),
    DeformationSpec("qdef", q=np.int64(3)), DeformationSpec("qdef", q=5e-324),
    DeformationSpec("qdef", q=1.7976931348623157e308), DeformationSpec("qdef", q=0.1 + 0.2),
    DeformationSpec("expr", expr_source="sqrt(1+0.1*n)"),
    DeformationSpec("expr", expr_source="  1 + n"),
]


@pytest.mark.parametrize("spec", ACCEPTED_SPECS, ids=lambda s: spec_to_text(s))
def test_spec_text_round_trips(spec):
    text = spec_to_text(spec)
    assert parse_deformation(text) == spec
    assert spec_to_text(parse_deformation(text)) == text


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                 st.integers(min_value=1, max_value=int(sys.float_info.max))))
def test_qdef_text_round_trips_for_every_accepted_q(q):
    spec = DeformationSpec("qdef", q=q)
    assert type(spec.q) is float and spec == qdef_spec(float(q))
    assert parse_deformation(spec_to_text(spec)) == spec


def test_qdef_keeps_q_as_a_python_float():
    assert spec_to_text(DeformationSpec("qdef", q=np.float64(1.2))) == "qdef:q=1.2"
    assert spec_to_text(DeformationSpec("qdef", q=2)) == "qdef:q=2.0"


@pytest.mark.parametrize("kind, params", [
    ("qdef", {"q": True}), ("qdef", {"q": np.True_}), ("qdef", {"q": "1.2"}),
    ("qdef", {"q": 1.2, "expr_source": "n"}),
    ("identity", {"q": 2.0}), ("sqrt_n", {"q": 1.0}), ("identity", {"expr_source": "n"}),
    ("expr", {"expr_source": "n", "q": 1.0}),
    ("expr", {"expr_source": "n "}), ("expr", {"expr_source": "n\n"}),
])
def test_spec_refuses_a_parameter_its_kind_does_not_take(kind, params):
    with pytest.raises(ValueError):
        DeformationSpec(kind, **params)


def test_qdef_refuses_a_q_beyond_the_float_range():
    # an integer float() cannot hold is refused like inf, not by OverflowError
    for q in (10**400, -10**400):
        with pytest.raises(ValueError, match="qdef requires a finite parameter q > 0"):
            DeformationSpec("qdef", q=q)


def test_parse_deformation_qdef_value():
    spec = parse_deformation("qdef:q=1.5")
    assert spec.q == 1.5
    # a spec is a plain frozen value, so equal specs hash equal
    assert hash(qdef_spec(1.2)) == hash(parse_deformation("qdef:q=1.2"))


def test_parse_deformation_expr_eval():
    spec = parse_deformation("expr:sqrt(1+0.1*n)")
    assert eval_f(spec, 0.0) == 1.0


@pytest.mark.parametrize("text", [
    "bogus",
    "qdef:r=1.2",
    "qdef:q=zebra",
    "qdef:q=-1",
    "qdef:q=1_2",
    "qdef:q= 1.2",
    "qdef:q=+1.2",
    "qdef:q=1e400",
    "qdef:q=1e-400",
    "qdef:q=0",
    "expr:sqrt(",
    "expr:",
])
def test_parse_deformation_errors(text):
    with pytest.raises(ParseError):
        parse_deformation(text)


@pytest.mark.parametrize("text, message", [
    ("qdef:q=1_2", "bad numeric literal '1_2'"),
    ("qdef:q= 1.2", "bad numeric literal ' 1.2'"),
    ("qdef:q=+1.2", "bad numeric literal '+1.2'"),
    ("qdef:q=1e400", "qdef parameter overflows a float"),
    ("qdef:q=1e-400", "qdef parameter underflows a float"),
    ("qdef:q=0.001e-400", "qdef parameter underflows a float"),
    ("qdef:q=0", "qdef parameter must satisfy q > 0"),
    ("qdef:q=0.0", "qdef parameter must satisfy q > 0"),
    ("qdef:q=.0e5", "qdef parameter must satisfy q > 0"),
])
def test_qdef_reads_q_with_the_tokenizer_number_grammar(text, message):
    # float() would take digit-group underscores, blanks and a sign, and read
    # 1e400 as inf and 1e-400 as 0; the mini-language has one grammar for
    # numeric literals, and only a literal with no nonzero digit reads as 0
    with pytest.raises(ParseError) as err:
        parse_deformation(text)
    assert (err.value.message, err.value.position) == (message, 7)


def test_parse_deformation_expr_error_position_is_global():
    with pytest.raises(ParseError) as err:
        parse_deformation("expr:sqrt(")
    assert err.value.position == len("expr:sqrt(")
