"""Per-kind evaluation of f and f^2: bit-exact references, and refusals that
raise no floating-point warning first.

The functions below are the four per-kind chains that `_f` and `_s` replaced
(`_f_raw`, `deriv_f`, `f_squared`, `f_squared_deriv`), with the `_sinhc`
helpers and the f check they used, copied verbatim.  Every order of f and f^2
must keep their bits.  Past n ~ 710 / |ln q| the qdef values overflow to inf
and NaN; those bits are compared too, with floating-point warnings silenced
on both sides.

An `expr` f has one evaluator, so a scalar n gives the bits of the same n
inside an array.
"""

import functools
import warnings

import numpy as np
import pytest

from fstarq import (PhaseGrid, amplitude_F, amplitude_F_deriv, commutator_target, eval_f,
                    expr_spec, f_squared, identity_spec, mesh, parse_deformation, qdef_spec,
                    registry_specs, sqrt_n_spec)
from fstarq.deformation import _expr_asts, _f, _qdef_lambda, _s
from fstarq.errors import FStarError, NonPositiveValue, SingularAmplitude

SPECS = [
    identity_spec(),
    sqrt_n_spec(),
    qdef_spec(0.9),
    qdef_spec(1.2),
    qdef_spec(1.0 + 1e-10),
    expr_spec("sqrt(1+0.1*n)"),
    expr_spec("exp(-0.01*n)+ln(1+n)"),
    expr_spec("(1+n)^0.5/(2+0.5*n)"),
]
SPEC_IDS = ["identity", "sqrt_n", "qdef-0.9", "qdef-1.2", "qdef-1+1e-10",
            "expr-sqrt", "expr-exp-ln", "expr-ratio"]


# ---------------------------------------------------------------------------
# the replaced chains, verbatim


def _sinhc(t):
    t = np.asarray(t, dtype=float)
    small = np.abs(t) < 0.25
    ts = np.where(small, t, 1.0)
    series = 1.0 + ts * ts / 6.0 + ts**4 / 120.0 + ts**6 / 5040.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        direct = np.sinh(t) / np.where(small, 1.0, t)
    return np.where(small, series, direct)


def _sinhc_d1(t):
    t = np.asarray(t, dtype=float)
    small = np.abs(t) < 0.25
    ts = np.where(small, t, 1.0)
    series = ts / 3.0 + ts**3 / 30.0 + ts**5 / 840.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        direct = (t * np.cosh(t) - np.sinh(t)) / np.where(small, 1.0, t * t)
    return np.where(small, series, direct)


def _sinhc_d2(t):
    t = np.asarray(t, dtype=float)
    small = np.abs(t) < 0.25
    ts = np.where(small, t, 1.0)
    series = 1.0 / 3.0 + ts * ts / 10.0 + ts**4 / 168.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        direct = ((t * t + 2.0) * np.sinh(t) - 2.0 * t * np.cosh(t)) / np.where(small, 1.0, t**3)
    return np.where(small, series, direct)


def _qdef_s(spec, n, order):
    lam, pref = _qdef_lambda(spec)
    t = lam * np.asarray(n, dtype=float)
    if order == 0:
        return pref * _sinhc(t)
    if order == 1:
        return pref * lam * _sinhc_d1(t)
    return pref * lam * lam * _sinhc_d2(t)


def _f_raw(spec, n):
    if spec.kind == "identity":
        return np.ones_like(n)
    if spec.kind == "sqrt_n":
        return np.sqrt(n)
    if spec.kind == "qdef":
        return np.sqrt(_qdef_s(spec, n, 0))
    ast, _, _ = _expr_asts(spec.expr_source)
    return np.asarray(ast(n), dtype=float)


def _checked_f(spec, arr):
    vals = _f_raw(spec, arr)
    bad = ~np.isfinite(vals) | ((vals <= 0) & (arr > 0))
    if np.any(bad):
        witness = float(arr[bad].flat[0]) if arr.ndim else float(arr)
        raise NonPositiveValue(
            f"f(n) is not a finite positive value at n = {witness} for kind {spec.kind!r}")
    return vals


def deriv_f(spec, n, order=1):
    arr = np.asarray(n, dtype=float)
    if spec.kind == "identity":
        out = np.zeros_like(arr)
    elif spec.kind == "sqrt_n":
        with np.errstate(divide="ignore"):
            out = 0.5 * arr**-0.5 if order == 1 else -0.25 * arr**-1.5
    elif spec.kind == "qdef":
        f = np.sqrt(_qdef_s(spec, arr, 0))
        s1 = _qdef_s(spec, arr, 1)
        if order == 1:
            out = s1 / (2.0 * f)
        else:
            s2 = _qdef_s(spec, arr, 2)
            out = s2 / (2.0 * f) - s1 * s1 / (4.0 * f**3)
    else:
        _, d1, d2 = _expr_asts(spec.expr_source)
        out = np.asarray((d1 if order == 1 else d2)(arr), dtype=float)
    if np.ndim(n) == 0:
        return float(out)
    return out


def f_squared_ref(spec, n):
    arr = np.asarray(n, dtype=float)
    if spec.kind == "identity":
        out = np.ones_like(arr)
    elif spec.kind == "sqrt_n":
        out = arr.copy()
    elif spec.kind == "qdef":
        out = _qdef_s(spec, arr, 0)
    else:
        f = _checked_f(spec, arr)
        out = f * f
    if np.ndim(n) == 0:
        return float(out)
    return out


def f_squared_deriv(spec, n, order=1):
    arr = np.asarray(n, dtype=float)
    if spec.kind == "identity":
        out = np.zeros_like(arr)
    elif spec.kind == "sqrt_n":
        out = np.ones_like(arr) if order == 1 else np.zeros_like(arr)
    elif spec.kind == "qdef":
        out = _qdef_s(spec, arr, order)
    else:
        f = _f_raw(spec, arr)
        d1 = deriv_f(spec, arr, 1)
        if order == 1:
            out = 2.0 * f * d1
        else:
            d2 = deriv_f(spec, arr, 2)
            out = 2.0 * (d1 * d1 + f * d2)
    if np.ndim(n) == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------


def _reference(spec, n, order, squared):
    if squared:
        return f_squared_ref(spec, n) if order == 0 else f_squared_deriv(spec, n, order)
    return _f_raw(spec, np.asarray(n, dtype=float)) if order == 0 else deriv_f(spec, n, order)


def _same_bits(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _n_samples():
    """Dense n on [0, 70], and n = (q^2 + p^2) / (2 hbar) on the 513^2 mesh
    at hbar = 1 and 1e-2 (n up to 6400, where qdef overflows)."""
    samples = [np.linspace(0.0, 70.0, 14001)]
    for hbar in (1.0, 1e-2):
        Q, P = mesh(PhaseGrid(-8.0, 8.0, -8.0, 8.0, 513, 513, hbar=hbar, offset=0.5))
        samples.append((Q * Q + P * P) / (2.0 * hbar))
    return samples


N_SAMPLES = _n_samples()


@pytest.mark.parametrize("squared", [False, True], ids=["f", "f2"])
@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_f_and_f_squared_bit_identical_to_per_kind_chains(spec, squared):
    new = _s if squared else _f
    with np.errstate(all="ignore"):
        for n in N_SAMPLES:
            for order in (0, 1, 2):
                assert _same_bits(new(spec, n, order), _reference(spec, n, order, squared)), \
                    (spec, order, n.shape)


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_public_scalars_bit_identical(spec):
    for n in (0.0, 0.1, 1.0, 2.5, 13.0, 64.75):
        for order in (0, 1, 2):
            got_f, got_s = eval_f(spec, n, order), f_squared(spec, n, order)
            assert type(got_f) is float and type(got_s) is float
            assert _same_bits(got_f, _reference(spec, n, order, False))
            assert _same_bits(got_s, _reference(spec, n, order, True))


@pytest.mark.parametrize("q", [0.9, 1.2])
def test_amplitude_deriv_overflow_refused_without_warning(q):
    # the suite turns RuntimeWarning into an error, so a warning from the
    # numerator would surface here instead of the refusal
    with pytest.raises(SingularAmplitude,
                       match=r"^dF/dn singular at n = 7000\.0 for kind 'qdef'$"):
        amplitude_F_deriv(qdef_spec(q), 7000.0)


# ---------------------------------------------------------------------------
# one evaluator for scalar and array n, and no floating-point warnings

# dense below n = 1, where math.log once rounded ln(1+n) differently
FOLD_N = np.concatenate([np.arange(0.0, 1.0, 0.0025), np.arange(1.0, 50.0, 0.125)])
FOLD_SOURCES = ["exp(0.01*n)", "ln(1+n)", "(1+n)^0.3"] + [
    spec.expr_source for spec in registry_specs() if spec.kind == "expr"]


@pytest.mark.parametrize("source", FOLD_SOURCES)
def test_scalar_n_bit_identical_to_array_n(source):
    spec = expr_spec(source)
    for fn in (eval_f, f_squared):
        for order in (0, 1, 2):
            scalars = np.array([fn(spec, float(n), order) for n in FOLD_N])
            assert _same_bits(scalars, fn(spec, FOLD_N, order)), (fn.__name__, order)


WARNING_SPECS = ["identity", "sqrt_n", "qdef:q=0.5", "qdef:q=1.2", "qdef:q=1e6", "expr:exp(n)",
                 "expr:1/n", "expr:ln(n)", "expr:n^-1", "expr:(n-3)^0.5", "expr:sqrt(1+0.1*n)"]
WARNING_CALLS = ([functools.partial(eval_f, order=k) for k in (0, 1, 2)]
                 + [functools.partial(f_squared, order=k) for k in (0, 1, 2)]
                 + [amplitude_F, amplitude_F_deriv, commutator_target])
# exp(400) is finite but its square is not
WARNING_N = [0.0, 400.0, 800.0, np.array([0.0, 0.5, 1.0, 5.0, 400.0, 800.0, 1e4])]


@pytest.mark.parametrize("text", WARNING_SPECS)
def test_deformation_layer_returns_or_refuses_without_warning(text):
    spec = parse_deformation(text)
    for call in WARNING_CALLS:
        for n in WARNING_N:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    call(spec, n)
                except (FStarError, ValueError):
                    pass
