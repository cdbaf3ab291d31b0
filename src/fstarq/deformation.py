"""Deformation functions f(n) and the quantities derived from them.

A deformation is a positive function f of the (continuous) excitation number
n.  Everything downstream is built from three derived quantities:

* the star amplitude  F(n) = ((n+1) f(n+1)^2 - n f(n)^2) / (f(n) f(n+1))
* the commutator target  (n+1) f(n+1)^2 - n f(n)^2
* the level energies  E_n = (hbar w / 2) ((n+1) f(n+1)^2 + n f(n)^2)

The f-factorial f(n)! = f(1) f(2) ... f(n) enters only the coherent-state
normalization, whose series is summed by term ratios.

Built-in kinds: ``identity`` (f = 1), ``sqrt_n`` (f = sqrt(n)), ``qdef``
(f = sqrt([n]_q / n) with the symmetric q-bracket) and ``expr`` (a parsed
closed-form expression in n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping

import numpy as np

from .errors import NonPositiveValue, ParseError, SeriesDivergence, SingularAmplitude
from .expressions import parse_scalar_expr

KINDS = ("identity", "sqrt_n", "qdef", "expr")

DEFAULT_SERIES_TOL = 1e-14
DEFAULT_SERIES_NMAX = 1000


@dataclass(frozen=True)
class DeformationSpec:
    """A named, parameterized deformation function f(n)."""

    kind: str
    params: Mapping[str, float] = field(default_factory=dict)
    expr_source: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown deformation kind {self.kind!r}; choose from {KINDS}")
        if self.kind == "qdef":
            q = self.params.get("q")
            if q is None or not math.isfinite(q) or q <= 0:
                raise ValueError("qdef requires a finite parameter q > 0")
        if self.kind == "expr":
            if not self.expr_source:
                raise ValueError("expr deformation requires expr_source text")
            _expr_asts(self.expr_source)  # fail fast on malformed text


def identity_spec() -> DeformationSpec:
    return DeformationSpec("identity")


def sqrt_n_spec() -> DeformationSpec:
    return DeformationSpec("sqrt_n")


def qdef_spec(q: float) -> DeformationSpec:
    return DeformationSpec("qdef", params={"q": float(q)})


def expr_spec(source: str) -> DeformationSpec:
    return DeformationSpec("expr", expr_source=source)


@lru_cache(maxsize=64)
def _expr_asts(source: str):
    ast = parse_scalar_expr(source)
    d1 = ast.diff()
    d2 = d1.diff()
    return ast, d1, d2


# ---------------------------------------------------------------------------
# qdef helpers.  With t = n ln q,
#   f(n)^2 = s(n) = (ln q / sinh ln q) * g(t),   g(t) = sinh(t)/t,
# which extends smoothly through n = 0.  Series fallbacks keep g, g', g''
# accurate for small |t|.

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


def _qdef_lambda(spec: DeformationSpec) -> tuple[float, float]:
    lam = math.log(spec.params["q"])
    if abs(lam) < 1e-8:
        pref = 1.0 / (1.0 + lam * lam / 6.0)
    else:
        pref = lam / math.sinh(lam)
    return lam, pref


def _qdef_s(spec, n, order):
    """s(n) = f(n)^2 for qdef and its first two n-derivatives."""
    lam, pref = _qdef_lambda(spec)
    t = lam * np.asarray(n, dtype=float)
    if order == 0:
        return pref * _sinhc(t)
    if order == 1:
        return pref * lam * _sinhc_d1(t)
    return pref * lam * lam * _sinhc_d2(t)


# ---------------------------------------------------------------------------
# Evaluation


def _f_raw(spec: DeformationSpec, n: np.ndarray) -> np.ndarray:
    if spec.kind == "identity":
        return np.ones_like(n)
    if spec.kind == "sqrt_n":
        return np.sqrt(n)
    if spec.kind == "qdef":
        return np.sqrt(_qdef_s(spec, n, 0))
    ast, _, _ = _expr_asts(spec.expr_source)
    return np.asarray(ast(n), dtype=float)


def _checked_f(spec: DeformationSpec, arr: np.ndarray) -> np.ndarray:
    """f on arr; NonPositiveValue names the first n where f is non-finite,
    or <= 0 with n > 0 (f(0) = 0 is legitimate, e.g. for sqrt_n)."""
    vals = _f_raw(spec, arr)
    bad = ~np.isfinite(vals) | ((vals <= 0) & (arr > 0))
    if np.any(bad):
        witness = float(arr[bad].flat[0]) if arr.ndim else float(arr)
        raise NonPositiveValue(
            f"f(n) is not a finite positive value at n = {witness} for kind {spec.kind!r}")
    return vals


def eval_f(spec: DeformationSpec, n):
    """Evaluate f at a real (scalar or array) excitation number n >= 0.

    Raises NonPositiveValue if f comes out non-finite, or <= 0 at any
    probed point with n > 0.
    """
    arr = np.asarray(n, dtype=float)
    if np.any(arr < 0):
        raise ValueError("n must be >= 0")
    vals = _checked_f(spec, arr)
    if np.ndim(n) == 0:
        return float(vals)
    return vals


def deriv_f(spec: DeformationSpec, n, order: int = 1):
    """Analytic derivative d^order f / dn^order, order in {1, 2}."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
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


def f_squared(spec: DeformationSpec, n):
    """f(n)^2 in closed form (avoids the sqrt-then-square rounding where the
    square itself is the natural primitive, e.g. n for sqrt_n).  An expr f
    is checked as in eval_f first, so squaring cannot hide its sign."""
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


def f_squared_deriv(spec: DeformationSpec, n, order: int = 1):
    """d^order (f^2) / dn^order, order in {1, 2}."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
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
# Amplitude, commutator target, spectrum


def amplitude_F(spec: DeformationSpec, n):
    """F(n) = ((n+1) f(n+1)^2 - n f(n)^2) / (f(n) f(n+1))."""
    arr = np.asarray(n, dtype=float)
    f0 = _f_raw(spec, arr)
    f1 = _f_raw(spec, arr + 1.0)
    den = f0 * f1
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        num = (arr + 1.0) * f_squared(spec, arr + 1.0) - arr * f_squared(spec, arr)
        out = num / den
    bad = (den == 0) | ~np.isfinite(out)
    if np.any(bad):
        witness = float(arr[bad].flat[0]) if arr.ndim else float(arr)
        raise SingularAmplitude(f"F(n) singular at n = {witness} for kind {spec.kind!r}")
    if np.ndim(n) == 0:
        return float(out)
    return out


def amplitude_F_deriv(spec: DeformationSpec, n):
    """dF/dn by the quotient rule, using the analytic derivatives.

    Raises SingularAmplitude at the first n where it is not finite.  For qdef
    that refusal is as false as amplitude_F's: the quotient overflows first."""
    arr = np.asarray(n, dtype=float)
    f0 = _f_raw(spec, arr)
    f1 = _f_raw(spec, arr + 1.0)
    g0 = deriv_f(spec, arr, 1)
    g1 = deriv_f(spec, arr + 1.0, 1)
    s0 = f_squared(spec, arr)
    s1 = f_squared(spec, arr + 1.0)
    num = (arr + 1.0) * s1 - arr * s0
    dnum = (s1 + (arr + 1.0) * f_squared_deriv(spec, arr + 1.0, 1)
            - s0 - arr * f_squared_deriv(spec, arr, 1))
    den = f0 * f1
    dden = g0 * f1 + f0 * g1
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = (dnum * den - num * dden) / (den * den)
    bad = ~np.isfinite(out)
    if np.any(bad):
        witness = float(arr[bad].flat[0]) if arr.ndim else float(arr)
        raise SingularAmplitude(f"dF/dn singular at n = {witness} for kind {spec.kind!r}")
    if np.ndim(n) == 0:
        return float(out)
    return out


def commutator_target(spec: DeformationSpec, n):
    """(n+1) f(n+1)^2 - n f(n)^2, the deformed commutation-relation value."""
    arr = np.asarray(n, dtype=float)
    out = (arr + 1.0) * f_squared(spec, arr + 1.0) - arr * f_squared(spec, arr)
    if np.ndim(n) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class SpectrumRow:
    n: int
    energy: float


def require_positive(name: str, value: float) -> float:
    """value, once 0 < value < inf; NaN and inf fail with a ValueError naming it."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be a positive finite real")
    return value


def spectrum(spec: DeformationSpec, n_max: int, hbar: float = 1.0,
             omega: float = 1.0) -> list[SpectrumRow]:
    """Level energies E_n = (hbar w / 2) ((n+1) f(n+1)^2 + n f(n)^2), n <= n_max."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    require_positive("hbar", hbar)
    require_positive("omega", omega)
    ns = np.arange(0, n_max + 1, dtype=float)
    eval_f(spec, np.arange(0, n_max + 2, dtype=float))  # NonPositiveValue names the bad n
    # assembled via the commutator target plus 2 n f(n)^2; the genvalue module
    # recomputes E_n from the raw formula as an independent cross-check
    energies = 0.5 * hbar * omega * (commutator_target(spec, ns)
                                     + 2.0 * ns * f_squared(spec, ns))
    return [SpectrumRow(int(k), float(e)) for k, e in zip(range(n_max + 1), energies)]


# ---------------------------------------------------------------------------
# Coherent-state normalization series


def series_terms(spec: DeformationSpec, zeta_abs2: float, tol: float = DEFAULT_SERIES_TOL,
                 n_max: int = DEFAULT_SERIES_NMAX) -> np.ndarray:
    """Terms t_n = |zeta|^(2n) / (n! (f(n)!)^2), truncated at t < tol * sum.

    Accumulated by term ratios t_n / t_{n-1} = |zeta|^2 / (n f(n)^2), which
    stays stable where explicit factorials would overflow.
    """
    if not 0.0 <= zeta_abs2 < math.inf:
        raise ValueError("zeta_abs2 must be a finite real >= 0")
    require_positive("tol", tol)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    terms = [1.0]
    total = 1.0
    t = 1.0
    for n in range(1, n_max + 1):
        eval_f(spec, float(n))  # positivity probe along the series
        t *= zeta_abs2 / (n * f_squared(spec, float(n)))
        if t < tol * total:
            return np.array(terms)
        terms.append(t)
        total += t
    raise SeriesDivergence(
        f"normalization series not converged after {n_max} terms for kind {spec.kind!r}")


def normalization_Nf(spec: DeformationSpec, zeta_abs2: float, tol: float = DEFAULT_SERIES_TOL,
                     n_max: int = DEFAULT_SERIES_NMAX) -> float:
    """Unit-norm prefactor N_f = [sum_n |zeta|^(2n) / (n! (f(n)!)^2)]^(-1/2)."""
    return 1.0 / math.sqrt(float(np.sum(series_terms(spec, zeta_abs2, tol, n_max))))


# ---------------------------------------------------------------------------
# Mini-language:  identity | sqrt_n | qdef:q=<real> | expr:<expression in n>


def parse_deformation(text: str) -> DeformationSpec:
    body = text.strip()
    if body == "identity":
        return identity_spec()
    if body == "sqrt_n":
        return sqrt_n_spec()
    if body.startswith("qdef:"):
        rest = body[len("qdef:"):]
        if not rest.startswith("q="):
            raise ParseError("qdef takes a single parameter written q=<real>",
                             text.index(":") + 1, expected={"q="})
        try:
            q = float(rest[2:])
        except ValueError:
            raise ParseError(f"bad numeric literal {rest[2:]!r}",
                             text.index("=") + 1, expected={"number"}) from None
        if not math.isfinite(q) or q <= 0:
            raise ParseError("qdef parameter must satisfy q > 0", text.index("=") + 1)
        return qdef_spec(q)
    if body.startswith("expr:"):
        source = body[len("expr:"):]
        offset = text.index("expr:") + len("expr:")
        if not source.strip():
            raise ParseError("empty expression", offset, expected={"number", "name", "("})
        try:
            return expr_spec(source)
        except ParseError as exc:
            raise ParseError(str(exc).split(" at position")[0],
                             offset + exc.position, exc.expected or None) from None
    raise ParseError(f"unknown deformation {body!r}", 0,
                     expected={"identity", "sqrt_n", "qdef:", "expr:"})


def spec_to_text(spec: DeformationSpec) -> str:
    if spec.kind == "identity":
        return "identity"
    if spec.kind == "sqrt_n":
        return "sqrt_n"
    if spec.kind == "qdef":
        return f"qdef:q={spec.params['q']!r}"
    return f"expr:{spec.expr_source}"


def registry_specs() -> list[DeformationSpec]:
    """Canonical built-in examples, one per kind, used by suite-wide checks."""
    return [
        identity_spec(),
        sqrt_n_spec(),
        qdef_spec(1.2),
        expr_spec("sqrt(1+0.1*n)"),
    ]
