import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import iv

from fstarq import (DeformationSpec, amplitude_F, amplitude_F_deriv,
                    build_f_factorial_table, commutator_target, deriv_f, eval_f,
                    expr_spec, f_factorial, f_squared, f_squared_deriv,
                    identity_spec, normalization_Nf, parse_deformation, qdef_spec,
                    registry_specs, spec_to_text, spectrum, sqrt_n_spec)
from fstarq.deformation import series_terms
from fstarq.errors import (NonPositiveValue, OutOfRange, ParseError,
                           SeriesDivergence, SingularAmplitude)

REGISTRY = registry_specs()
REGISTRY_IDS = [spec_to_text(s) for s in REGISTRY]


# ---------------------------------------------------------------------------
# identity: everything collapses to the harmonic oscillator, exactly


def test_identity_is_exact():
    spec = identity_spec()
    assert eval_f(spec, 7.3) == 1.0
    assert np.all(eval_f(spec, np.linspace(0, 40, 17)) == 1.0)
    table = build_f_factorial_table(spec, 50)
    assert all(f_factorial(table, n) == 1.0 for n in range(51))
    assert amplitude_F(spec, 12.75) == 1.0
    assert commutator_target(spec, 9.0) == 1.0
    rows = spectrum(spec, 12)
    assert [r.energy for r in rows] == [n + 0.5 for n in range(13)]
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
    # f(1) f(2) f(3) f(4) = 1 * sqrt2 * sqrt3 * 2, multiplied out independently
    oracle = 1.0 * math.sqrt(2.0) * math.sqrt(3.0) * 2.0
    table = build_f_factorial_table(spec, 10)
    assert f_factorial(table, 4) == pytest.approx(oracle, rel=1e-14)
    assert f_factorial(table, 4) == pytest.approx(math.sqrt(24.0), rel=1e-14)
    assert f_factorial(table, 0) == 1.0


def test_sqrt_n_amplitude():
    spec = sqrt_n_spec()
    # (2*2 - 1*1) / (1 * sqrt2) = 3 / sqrt2
    assert amplitude_F(spec, 1.0) == pytest.approx(3.0 / math.sqrt(2.0), rel=1e-14)
    with pytest.raises(SingularAmplitude):
        amplitude_F(spec, 0.0)
    with pytest.raises(SingularAmplitude):
        amplitude_F(spec, np.array([1.0, 0.0]))


def test_sqrt_n_commutator_target():
    spec = sqrt_n_spec()
    assert commutator_target(spec, 3.0) == 7.0
    assert commutator_target(spec, 0.0) == 1.0
    ns = np.arange(0, 30, dtype=float)
    assert np.allclose(commutator_target(spec, ns), 2 * ns + 1, rtol=0, atol=0)


def test_sqrt_n_spectrum():
    rows = spectrum(sqrt_n_spec(), 5)
    assert rows[1].energy == 2.5
    assert rows[0].energy == 0.5
    for row in rows:
        assert row.energy == ((row.n + 1) ** 2 + row.n**2) / 2.0


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
    assert deriv_f(spec, n, 1) == pytest.approx(fd1, rel=1e-7)
    # second differences are roundoff-limited below h ~ 1e-3
    h = 1e-3
    fd2 = (eval_f(spec, n + h) - 2 * eval_f(spec, n) + eval_f(spec, n - h)) / h**2
    assert deriv_f(spec, n, 2) == pytest.approx(fd2, rel=1e-5)


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


def test_expr_derivatives_are_symbolic():
    spec = expr_spec("sqrt(1+0.1*n)")
    n = 4.0
    f = eval_f(spec, n)
    assert deriv_f(spec, n, 1) == pytest.approx(0.05 / f, rel=1e-13)


def test_eval_f_rejects_negative_n():
    with pytest.raises(ValueError):
        eval_f(identity_spec(), -0.5)


# ---------------------------------------------------------------------------
# cross-spec properties


@pytest.mark.parametrize("spec", REGISTRY, ids=REGISTRY_IDS)
def test_factorial_ratio_is_f(spec):
    # qdef factorials overflow float range past n ~ 150; stay within it
    table = build_f_factorial_table(spec, 60)
    for n in (1, 2, 7, 25, 60):
        ratio = f_factorial(table, n) / f_factorial(table, n - 1)
        assert ratio == pytest.approx(eval_f(spec, float(n)), rel=1e-12)


def test_factorial_ratio_large_n():
    for spec in (identity_spec(), sqrt_n_spec()):
        table = build_f_factorial_table(spec, 200)
        ratio = f_factorial(table, 200) / f_factorial(table, 199)
        assert ratio == pytest.approx(eval_f(spec, 200.0), rel=1e-12)


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
    rows = spectrum(spec, 40)
    for row in rows:
        expected = commutator_target(spec, float(row.n)) + \
            2 * row.n * f_squared(spec, float(row.n))
        assert 2 * row.energy == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("spec", REGISTRY, ids=REGISTRY_IDS)
def test_f_squared_matches_square(spec):
    ns = np.linspace(0.0, 30.0, 19)
    assert np.allclose(f_squared(spec, ns), eval_f(spec, ns) ** 2, rtol=1e-13)


@pytest.mark.parametrize("spec", REGISTRY, ids=REGISTRY_IDS)
def test_f_squared_deriv_matches_finite_difference(spec):
    h = 1e-5
    for n in (0.7, 2.0, 11.3):
        fd = (f_squared(spec, n + h) - f_squared(spec, n - h)) / (2 * h)
        assert f_squared_deriv(spec, n, 1) == pytest.approx(fd, rel=1e-7, abs=1e-9)


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
        series_terms(spec, 1.0, n_max=60)


def test_f_factorial_out_of_range():
    table = build_f_factorial_table(identity_spec(), 10)
    with pytest.raises(OutOfRange):
        f_factorial(table, 11)
    with pytest.raises(ValueError):
        f_factorial(table, -1)


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


def test_parse_deformation_qdef_value():
    spec = parse_deformation("qdef:q=1.5")
    assert spec.params["q"] == 1.5


def test_parse_deformation_expr_eval():
    spec = parse_deformation("expr:sqrt(1+0.1*n)")
    assert eval_f(spec, 0.0) == 1.0


@pytest.mark.parametrize("text", [
    "bogus",
    "qdef:r=1.2",
    "qdef:q=zebra",
    "qdef:q=-1",
    "expr:sqrt(",
    "expr:",
])
def test_parse_deformation_errors(text):
    with pytest.raises(ParseError):
        parse_deformation(text)


def test_parse_deformation_expr_error_position_is_global():
    with pytest.raises(ParseError) as err:
        parse_deformation("expr:sqrt(")
    assert err.value.position == len("expr:sqrt(")
