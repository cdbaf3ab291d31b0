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

The five functions of n (eval_f, f_squared, amplitude_F, amplitude_F_deriv,
commutator_target) take a real n >= 0, scalar or array; a negative or NaN n
is a ValueError.  Every refusal of a value names the first bad n.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonPositiveValue, ParseError, SeriesDivergence, SingularAmplitude
from .expressions import NUMBER_RE, parse_scalar_expr

KINDS = ("identity", "sqrt_n", "qdef", "expr")

DEFAULT_SERIES_TOL = 1e-14
DEFAULT_SERIES_NMAX = 1000


@dataclass(frozen=True)
class DeformationSpec:
    """A named, parameterized deformation function f(n).  Only qdef takes q (kept
    a Python float) and only expr takes expr_source, so ``spec_to_text`` writes
    a text that ``parse_deformation`` reads back as an equal spec."""

    kind: str
    q: float | None = None
    expr_source: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown deformation kind {self.kind!r}; choose from {KINDS}")
        if self.kind != "qdef" and self.q is not None:
            raise ValueError(f"{self.kind} takes no parameter q")
        if self.kind != "expr" and self.expr_source is not None:
            raise ValueError(f"{self.kind} takes no expr_source")
        if self.kind == "qdef":
            if (isinstance(self.q, bool) or not isinstance(self.q, numbers.Real)
                    or not 0 < self.q <= sys.float_info.max):  # compared exactly, not cast
                raise ValueError("qdef requires a finite parameter q > 0")
            object.__setattr__(self, "q", float(self.q))
        if self.kind == "expr":
            if not self.expr_source:
                raise ValueError("expr deformation requires expr_source text")
            if self.expr_source != self.expr_source.rstrip():
                # parse_deformation strips the text, so it could not give this back
                raise ValueError("expr_source must not end in whitespace")
            _expr_asts(self.expr_source)  # fail fast on malformed text


def identity_spec() -> DeformationSpec:
    return DeformationSpec("identity")


def sqrt_n_spec() -> DeformationSpec:
    return DeformationSpec("sqrt_n")


def qdef_spec(q: float) -> DeformationSpec:
    return DeformationSpec("qdef", q=q)


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

def _sinhc(t, order):
    """g(t) = sinh(t)/t (order 0) or its order-th derivative (1 or 2)."""
    t = np.asarray(t, dtype=float)
    small = np.abs(t) < 0.25
    ts = np.where(small, t, 1.0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if order == 0:
            series = 1.0 + ts * ts / 6.0 + ts**4 / 120.0 + ts**6 / 5040.0
            direct = np.sinh(t) / np.where(small, 1.0, t)
        elif order == 1:
            series = ts / 3.0 + ts**3 / 30.0 + ts**5 / 840.0
            direct = (t * np.cosh(t) - np.sinh(t)) / np.where(small, 1.0, t * t)
        else:
            series = 1.0 / 3.0 + ts * ts / 10.0 + ts**4 / 168.0
            direct = (((t * t + 2.0) * np.sinh(t) - 2.0 * t * np.cosh(t))
                      / np.where(small, 1.0, t**3))
    return np.where(small, series, direct)


def _qdef_lambda(spec: DeformationSpec) -> tuple[float, float]:
    lam = math.log(spec.q)
    if abs(lam) < 1e-8:
        pref = 1.0 / (1.0 + lam * lam / 6.0)
    else:
        pref = lam / math.sinh(lam)
    return lam, pref


def _qdef_s(spec, n, order):
    """s(n) = f(n)^2 for qdef and its first two n-derivatives."""
    lam, pref = _qdef_lambda(spec)
    t = lam * n
    return (pref, pref * lam, pref * lam * lam)[order] * _sinhc(t, order)


# ---------------------------------------------------------------------------
# Evaluation.  _s is the one per-kind table: s = f^2 and its n-derivatives,
# order in {0, 1, 2}, on a float array n, unchecked.  _f derives f from it by
# the chain rule, except that sqrt_n keeps its own f' and f'' (the derived
# form moves them in the last bit) and an expr f is its own AST.


def _s(spec: DeformationSpec, n: np.ndarray, order: int) -> np.ndarray:
    """s = f^2 in closed form where the square is the natural primitive
    (n for sqrt_n).  An expr f is checked first at order 0, so squaring
    cannot hide its sign; s itself may overflow."""
    if spec.kind == "identity":
        return np.ones_like(n) if order == 0 else np.zeros_like(n)
    if spec.kind == "sqrt_n":
        if order == 0:
            return n.copy()
        return np.ones_like(n) if order == 1 else np.zeros_like(n)
    if spec.kind == "qdef":
        return _qdef_s(spec, n, order)
    with np.errstate(over="ignore", invalid="ignore"):
        if order == 0:
            f = _checked_f(spec, n)
            return f * f
        f, d1 = _f(spec, n, 0), _f(spec, n, 1)
        if order == 1:
            return 2.0 * f * d1
        return 2.0 * (d1 * d1 + f * _f(spec, n, 2))


def _f(spec: DeformationSpec, n: np.ndarray, order: int) -> np.ndarray:
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if spec.kind == "expr":
            return np.asarray(_expr_asts(spec.expr_source)[order](n), dtype=float)
        if spec.kind == "sqrt_n" and order:
            return 0.5 * n**-0.5 if order == 1 else -0.25 * n**-1.5
        f = np.sqrt(_s(spec, n, 0))
        if order == 0:
            return f
        s1 = _s(spec, n, 1)
        if order == 1:
            return s1 / (2.0 * f)
        return _s(spec, n, 2) / (2.0 * f) - s1 * s1 / (4.0 * f**3)


def _refuse(error, what: str, spec: DeformationSpec, n: np.ndarray, bad) -> None:
    """Raise error(what ...) naming the first n, in flat order, where bad holds."""
    if np.any(bad):
        raise error(f"{what} at n = {float(n[bad].flat[0])} for kind {spec.kind!r}")


def _like_n(n, out):
    """out as a float for a scalar n, else the array itself."""
    return float(out) if np.ndim(n) == 0 else out


def _checked_f(spec: DeformationSpec, n: np.ndarray, vals=None) -> np.ndarray:
    """f on n, or vals standing in for it; NonPositiveValue names the first n
    where it is non-finite, or <= 0 with n > 0 (f(0) = 0 is legitimate, e.g.
    for sqrt_n)."""
    vals = _f(spec, n, 0) if vals is None else vals
    _refuse(NonPositiveValue, "f(n) is not a finite positive value", spec, n,
            ~np.isfinite(vals) | ((vals <= 0) & (n > 0)))
    return vals


def _n_array(n, order: int = 0) -> np.ndarray:
    """n as a float array: the one way n enters.  NaN fails as n < 0 does."""
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    arr = np.asarray(n, dtype=float)
    if not np.all(arr >= 0):
        raise ValueError("n must be >= 0")
    return arr


def eval_f(spec: DeformationSpec, n, order: int = 0):
    """f or its n-derivative of the given order (0, 1 or 2) at a real n >= 0,
    scalar or array; NaN is refused.

    At order 0, raises NonPositiveValue if f comes out non-finite, or <= 0
    at any probed point with n > 0.
    """
    arr = _n_array(n, order)
    return _like_n(n, _checked_f(spec, arr) if order == 0 else _f(spec, arr, order))


def f_squared(spec: DeformationSpec, n, order: int = 0):
    """f(n)^2 or its n-derivative of the given order (0, 1 or 2) at a real
    n >= 0 (NaN is refused), in closed form.  At order 0 an expr f is checked
    as in eval_f, and NonPositiveValue names the first n where its square is
    not finite."""
    arr = _n_array(n, order)
    out = _s(spec, arr, order)
    if order == 0 and spec.kind == "expr":
        _refuse(NonPositiveValue, "f(n)^2 is not finite", spec, arr, ~np.isfinite(out))
    return _like_n(n, out)


# ---------------------------------------------------------------------------
# Amplitude, commutator target, spectrum


def _target_terms(spec: DeformationSpec, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n+1) s(n+1) and n s(n), s = f^2: the commutator target is their difference."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (n + 1.0) * _s(spec, n + 1.0, 0), n * _s(spec, n, 0)


def _target(spec: DeformationSpec, n: np.ndarray) -> np.ndarray:
    upper, lower = _target_terms(spec, n)
    with np.errstate(invalid="ignore"):
        return upper - lower


def amplitude_F(spec: DeformationSpec, n):
    """F(n) = ((n+1) f(n+1)^2 - n f(n)^2) / (f(n) f(n+1)) at a real n >= 0
    (NaN is refused); SingularAmplitude names the first n where it is not
    finite, then the first where its numerator cancelled to no significant
    digit: |(n+1) s(n+1) - n s(n)| <= 4 eps ((n+1) s(n+1) + n s(n)), s = f^2."""
    arr = _n_array(n)
    f0 = _f(spec, arr, 0)
    f1 = _f(spec, arr + 1.0, 0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        den = f0 * f1
        upper, lower = _target_terms(spec, arr)
        num = upper - lower  # kept to the end: freeing it early adds page faults
        out = num / den
        cancelled = np.abs(num) <= 4.0 * np.finfo(float).eps * (upper + lower)
    _refuse(SingularAmplitude, "F(n) singular", spec, arr, (den == 0) | ~np.isfinite(out))
    _refuse(SingularAmplitude, "F(n) cancelled to no significant digit", spec, arr, cancelled)
    return _like_n(n, out)


def amplitude_F_deriv(spec: DeformationSpec, n):
    """dF/dn by the quotient rule, using the analytic derivatives, at a real
    n >= 0 (NaN is refused).

    Raises SingularAmplitude at the first n where it is not finite.  For qdef
    that refusal is as false as amplitude_F's: the quotient overflows first."""
    arr = _n_array(n)
    f0 = _f(spec, arr, 0)
    f1 = _f(spec, arr + 1.0, 0)
    g0 = _f(spec, arr, 1)
    g1 = _f(spec, arr + 1.0, 1)
    s0 = _s(spec, arr, 0)
    s1 = _s(spec, arr + 1.0, 0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        num = (arr + 1.0) * s1 - arr * s0
        dnum = (s1 + (arr + 1.0) * _s(spec, arr + 1.0, 1)
                - s0 - arr * _s(spec, arr, 1))
        den = f0 * f1
        dden = g0 * f1 + f0 * g1
        out = (dnum * den - num * dden) / (den * den)
    _refuse(SingularAmplitude, "dF/dn singular", spec, arr, ~np.isfinite(out))
    return _like_n(n, out)


def commutator_target(spec: DeformationSpec, n):
    """(n+1) f(n+1)^2 - n f(n)^2, the deformed commutation-relation value, at a
    real n >= 0 (NaN is refused); NonPositiveValue names its first non-finite n."""
    arr = _n_array(n)
    out = _target(spec, arr)
    _refuse(NonPositiveValue, "commutator target is not finite", spec, arr, ~np.isfinite(out))
    return _like_n(n, out)


def require_positive(name: str, value: float) -> float:
    """value, once 0 < value < inf; NaN and inf fail with a ValueError naming it."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be a positive finite real")
    return value


def spectrum(spec: DeformationSpec, n_max: int, hbar: float = 1.0,
             omega: float = 1.0) -> np.ndarray:
    """The level energies as a float64 array E, E[n] = E_n for n <= n_max, with
    E_n = (hbar w / 2) ((n+1) f(n+1)^2 + n f(n)^2).

    Raises NonPositiveValue at the first n where f is not finite and
    positive, or where E_n overflows.  n_max goes through operator.index, so a
    float is a TypeError."""
    n_max = operator.index(n_max)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    require_positive("hbar", hbar)
    require_positive("omega", omega)
    ns = np.arange(0, n_max + 1, dtype=float)
    eval_f(spec, np.arange(0, n_max + 2, dtype=float))  # NonPositiveValue names the bad n
    # assembled via the commutator target plus 2 n f(n)^2; the genvalue module
    # recomputes E_n from the raw formula as an independent cross-check
    with np.errstate(over="ignore", invalid="ignore"):
        energies = 0.5 * hbar * omega * (_target(spec, ns) + 2.0 * ns * _s(spec, ns, 0))
    _refuse(NonPositiveValue, "E_n is not finite", spec, ns, ~np.isfinite(energies))
    return energies


# ---------------------------------------------------------------------------
# Coherent-state normalization series


def series_terms(spec: DeformationSpec, zeta_abs2: float,
                 tol: float = DEFAULT_SERIES_TOL) -> np.ndarray:
    """Terms t_n = |zeta|^(2n) / (n! (f(n)!)^2), truncated at t < tol * sum,
    n <= DEFAULT_SERIES_NMAX.

    Accumulated by term ratios t_n / t_{n-1} = |zeta|^2 / (n f(n)^2), which
    stays stable where explicit factorials would overflow.
    """
    if not 0.0 <= zeta_abs2 < math.inf:
        raise ValueError("zeta_abs2 must be a finite real >= 0")
    require_positive("tol", tol)
    terms = [1.0]
    total = 1.0
    t = 1.0
    for n in range(1, DEFAULT_SERIES_NMAX + 1):
        arr = np.asarray(float(n))
        # an expr f is checked in _s; an f^2 that overflows ends the series
        s = float(_s(spec, arr, 0))
        if spec.kind != "expr":
            # f^2 is finite and > 0 exactly where f is, for the closed-form kinds
            _checked_f(spec, arr, s)
        else:  # an expr f can be positive while its square underflows
            _refuse(NonPositiveValue, "f(n)^2 underflows to 0", spec, arr, s == 0.0)
        t *= zeta_abs2 / (n * s)
        if t < tol * total:
            return np.array(terms)
        terms.append(t)
        total += t
    raise SeriesDivergence(
        f"normalization series not converged after {DEFAULT_SERIES_NMAX} terms "
        f"for kind {spec.kind!r}")


def normalization_Nf(spec: DeformationSpec, zeta_abs2: float) -> float:
    """Unit-norm prefactor N_f = [sum_n |zeta|^(2n) / (n! (f(n)!)^2)]^(-1/2)."""
    return 1.0 / math.sqrt(float(np.sum(series_terms(spec, zeta_abs2))))


# ---------------------------------------------------------------------------
# Mini-language:  identity | sqrt_n | qdef:q=<real> | expr:<expression in n>


def parse_deformation(text: str) -> DeformationSpec:
    body = text.strip()
    if body in ("identity", "sqrt_n"):
        return DeformationSpec(body)
    if body.startswith("qdef:"):
        rest = body[len("qdef:"):]
        if not rest.startswith("q="):
            raise ParseError("qdef takes a single parameter written q=<real>",
                             text.index(":") + 1, expected={"q="})
        if not NUMBER_RE.fullmatch(rest[2:]):
            raise ParseError(f"bad numeric literal {rest[2:]!r}",
                             text.index("=") + 1, expected={"number"})
        q = float(rest[2:])  # an unsigned literal: finite, 0, an underflow to 0, or inf
        if q == 0 or q == math.inf:
            zero = not rest[2:].lower().partition("e")[0].strip("0.")  # no nonzero digit
            why = "must satisfy q > 0" if zero else f"{'over' if q else 'under'}flows a float"
            raise ParseError(f"qdef parameter {why}", text.index("=") + 1)
        return qdef_spec(q)
    if body.startswith("expr:"):
        source = body[len("expr:"):]
        offset = text.index("expr:") + len("expr:")
        if not source.strip():
            raise ParseError("empty expression", offset, expected={"number", "name", "("})
        try:
            return expr_spec(source)
        except ParseError as exc:
            raise ParseError(exc.message, offset + exc.position, exc.expected or None) from None
    raise ParseError(f"unknown deformation {body!r}", 0,
                     expected={"identity", "sqrt_n", "qdef:", "expr:"})


def spec_to_text(spec: DeformationSpec) -> str:
    if spec.kind == "qdef":
        return f"qdef:q={spec.q!r}"
    if spec.kind == "expr":
        return f"expr:{spec.expr_source}"
    return spec.kind


def registry_specs() -> list[DeformationSpec]:
    """Canonical built-in examples, one per kind, used by suite-wide checks."""
    return [
        identity_spec(),
        sqrt_n_spec(),
        qdef_spec(1.2),
        expr_spec("sqrt(1+0.1*n)"),
    ]
