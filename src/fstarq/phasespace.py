"""Phase-space grids, fields, Wigner functions, derivatives, quadrature.

Fields are complex arrays sampled on a rectangular (q, p) grid.
``partial_field`` serves each partial from the first source that has it:

* known partials -- seeded with precomputed partials (the product-rule
  jets of an f-star product); every partial computed later joins them;
* ``poly``      -- an exact PolySymbol backing the samples;
* ``analytic``  -- a sum  sum_k c_k(q, p) * w^(k)(v)  with polynomial
  coefficients c_k and a radial profile w of v = (q^2 + p^2) / scale;
  this family is closed under partial derivatives, so mixed partials of
  any order come out exact within the profile's own derivative budget; each
  profile memoizes w^(k)(v) by (grid, scale, k) for as long as it lives;
* 4th-order finite-difference stencils, for everything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .deformation import DeformationSpec, series_terms, spec_to_text
from .errors import ProfileUnavailable
from .symbols import PolySymbol

# ---------------------------------------------------------------------------
# Grid


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform rectangular (q, p) sampling.

    Sample points sit at q_min + (i + offset) dq with dq spanning
    (q_max - q_min) / (n_q - 1); offset = 0.5 shifts all samples half a
    cell so no sample hits the phase-space origin exactly (where some
    star amplitudes are singular).
    """

    q_min: float
    q_max: float
    p_min: float
    p_max: float
    n_q: int
    n_p: int
    hbar: float = 1.0
    offset: float = 0.5

    def __post_init__(self):
        if self.n_q < 2 or self.n_p < 2:
            raise ValueError("grids need at least 2 samples per axis")
        if not (self.q_max > self.q_min and self.p_max > self.p_min):
            raise ValueError("grid bounds must satisfy max > min")
        if not (math.isfinite(self.q_min) and math.isfinite(self.q_max)
                and math.isfinite(self.p_min) and math.isfinite(self.p_max)):
            raise ValueError("grid bounds must be finite")
        if self.hbar <= 0 or not math.isfinite(self.hbar):
            raise ValueError("hbar must be a positive finite real")
        if self.offset != 0.0 and (0.0 in self.q_values()) and (0.0 in self.p_values()):
            raise ValueError("offset grid still hits the exact origin; adjust bounds")

    @property
    def dq(self) -> float:
        return (self.q_max - self.q_min) / (self.n_q - 1)

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / (self.n_p - 1)

    def q_values(self) -> np.ndarray:
        return self.q_min + (np.arange(self.n_q) + self.offset) * self.dq

    def p_values(self) -> np.ndarray:
        return self.p_min + (np.arange(self.n_p) + self.offset) * self.dp

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """A q column and a p row that broadcast to the (n_q, n_p) mesh."""
        return self.q_values()[:, None], self.p_values()[None, :]


def default_grid(hbar: float = 1.0) -> PhaseGrid:
    """[-8, 8]^2 at 513 x 513 with a half-cell offset."""
    return PhaseGrid(-8.0, 8.0, -8.0, 8.0, 513, 513, hbar=hbar, offset=0.5)


@lru_cache(maxsize=64)
def mesh(grid: PhaseGrid) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate matrices Q, P with shape (n_q, n_p), row-major in q."""
    Q, P = np.meshgrid(grid.q_values(), grid.p_values(), indexing="ij")
    Q.setflags(write=False)
    P.setflags(write=False)
    return Q, P


# ---------------------------------------------------------------------------
# Laguerre recurrences


def laguerre(n: int, x):
    """L_n(x) by the three-term recurrence
    (k+1) L_{k+1} = (2k+1-x) L_k - k L_{k-1}, with L_0 = 1, L_1 = 1 - x."""
    if n < 0:
        raise ValueError("n must be >= 0")
    arr = np.asarray(x, dtype=float)
    if n == 0:
        out = np.ones_like(arr)
    else:
        lkm1 = np.ones_like(arr)
        lk = 1.0 - arr
        for k in range(1, n):
            lkm1, lk = lk, ((2.0 * k + 1.0 - arr) * lk - k * lkm1) / (k + 1.0)
        out = lk
    if np.ndim(x) == 0:
        return float(out)
    return out


def laguerre_series(alpha: int, coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] L_k^(alpha)(x), accumulated in one recurrence sweep."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    if len(coeffs) == 0:
        return out
    lkm1 = np.ones_like(x)
    out += coeffs[0] * lkm1
    if len(coeffs) == 1:
        return out
    lk = 1.0 + alpha - x
    out += coeffs[1] * lk
    for k in range(1, len(coeffs) - 1):
        lkm1, lk = lk, ((2.0 * k + 1.0 + alpha - x) * lk - (k + alpha) * lkm1) / (k + 1.0)
        out += coeffs[k + 1] * lk
    return out


# ---------------------------------------------------------------------------
# Radial profiles: w(v) plus derivatives of any requested order


class RadialProfile:
    """Base of the radial profiles; subclasses supply ``deriv(v, order)`` and
    cap ``max_order`` if their derivative budget is finite."""

    max_order = None

    def on_grid(self, grid: PhaseGrid, scale: float, k: int) -> np.ndarray:
        """w^(k)(v), v = (q^2 + p^2) / scale, computed once per (grid, scale, k) and
        kept read-only for the profile's life; unlocked, so fill before sharing."""
        memo = self.__dict__.setdefault("_memo", {})
        if (grid, scale, k) not in memo:
            Q, P = mesh(grid)
            memo[grid, scale, k] = self.deriv((Q * Q + P * P) / scale, k)
            memo[grid, scale, k].setflags(write=False)
        return memo[grid, scale, k]


class FockWignerProfile(RadialProfile):
    """w(v) = 2 (-1)^n e^{-v} L_n(2v); derivatives of every order."""

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("n must be >= 0")
        self.n = n

    def deriv(self, v: np.ndarray, order: int) -> np.ndarray:
        if order == 0:
            return 2.0 * (-1.0) ** self.n * np.exp(-v) * laguerre(self.n, 2.0 * v)
        # d^m/dv^m [e^{-v} L_n(2v)] = (-1)^m e^{-v} sum_j C(m,j) 2^j L_{n-j}^{(j)}(2v)
        x = 2.0 * np.asarray(v, dtype=float)
        acc = np.zeros_like(x)
        for j in range(0, min(order, self.n) + 1):
            coeffs = np.zeros(self.n - j + 1)
            coeffs[self.n - j] = 1.0
            acc += math.comb(order, j) * (2.0 ** j) * laguerre_series(j, coeffs, x)
        sign = 2.0 * (-1.0) ** self.n * (-1.0) ** order
        return sign * np.exp(-v) * acc


class MixtureWignerProfile(RadialProfile):
    """Weighted sum of Fock Wigner profiles: w(v) = sum_n c_n W_n-profile(v)."""

    def __init__(self, weights: np.ndarray):
        self.weights = np.asarray(weights, dtype=float)

    def deriv(self, v: np.ndarray, order: int) -> np.ndarray:
        x = 2.0 * np.asarray(v, dtype=float)
        nmax = len(self.weights) - 1
        acc = np.zeros_like(x)
        for j in range(0, min(order, nmax) + 1):
            # coefficient of L_k^{(j)} is 2 (-1)^{k+j} weights[k+j]
            ks = np.arange(0, nmax - j + 1)
            coeffs = 2.0 * ((-1.0) ** (ks + j)) * self.weights[ks + j]
            acc += math.comb(order, j) * (2.0 ** j) * laguerre_series(j, coeffs, x)
        return (-1.0) ** order * np.exp(-v) * acc


class AnalyticStructure:
    """sum_k c_k(q,p) * w^(k)(v) with v = (q^2+p^2)/scale; closed under d/dq, d/dp.
    ``evaluate`` reads w^(k)(v) from the profile's memo (``on_grid``), keyed by
    (grid, scale, k) and kept as long as the profile, which its partials share."""

    def __init__(self, profile, scale: float, terms: dict[int, PolySymbol] | None = None):
        self.profile = profile
        self.scale = float(scale)
        self.terms = terms if terms is not None else {0: PolySymbol.constant(1.0)}

    @property
    def is_radial(self) -> bool:
        return all(c.is_constant() for c in self.terms.values())

    @property
    def order_needed(self) -> int:
        return max(self.terms, default=0)

    def partial(self, axis: int) -> "AnalyticStructure":
        chain = PolySymbol({((1, 0) if axis == 0 else (0, 1)): 2.0 / self.scale})
        new: dict[int, PolySymbol] = {}
        for k, c in self.terms.items():
            d = c.dq() if axis == 0 else c.dp()
            if d.terms:
                new[k] = new.get(k, PolySymbol()) + d
            lifted = c * chain
            if lifted.terms:
                new[k + 1] = new.get(k + 1, PolySymbol()) + lifted
        return AnalyticStructure(self.profile, self.scale, new)

    def mixed(self, i: int, j: int) -> "AnalyticStructure":
        s = self
        for _ in range(i):
            s = s.partial(0)
        for _ in range(j):
            s = s.partial(1)
        return s

    def evaluate(self, grid: PhaseGrid) -> np.ndarray:
        q, p = grid.axes()
        out = np.zeros((grid.n_q, grid.n_p), dtype=complex)
        for k in sorted(self.terms):
            c = self.terms[k]
            if not c.terms:
                continue
            coeff = c.constant_value() if c.is_constant() else c.eval_grid(q, p)
            out += coeff * self.profile.on_grid(grid, self.scale, k)
        return out


# ---------------------------------------------------------------------------
# Field


class Field:
    """Complex-valued samples on a PhaseGrid, with optional exact-derivative
    metadata (polynomial backing, analytic radial structure) and the known
    partials: a dict keyed by (i, j), seeded from ``partials`` and filled by
    ``partial_field`` as it computes more."""

    __slots__ = ("grid", "values", "label", "poly", "analytic", "_cache")

    def __init__(self, grid: PhaseGrid, values: np.ndarray, label: str = "",
                 poly: PolySymbol | None = None,
                 analytic: AnalyticStructure | None = None,
                 partials: dict[tuple[int, int], np.ndarray] | None = None):
        arr = np.asarray(values, dtype=complex)
        if arr.shape != (grid.n_q, grid.n_p):
            raise ValueError(f"values shape {arr.shape} does not match grid "
                             f"({grid.n_q}, {grid.n_p})")
        if not np.all(np.isfinite(arr)):
            raise ValueError("field values must be finite")
        self.grid = grid
        self.values = arr
        self.label = label
        self.poly = poly
        self.analytic = analytic
        self._cache: dict[tuple[int, int], np.ndarray] = {
            key: np.asarray(part, dtype=complex) for key, part in (partials or {}).items()}

    def conjugate(self) -> "Field":
        poly = self.poly.conjugate() if self.poly is not None else None
        analytic = None
        if self.analytic is not None:
            # radial profiles are real, so conjugation only touches the coefficients
            analytic = AnalyticStructure(
                self.analytic.profile, self.analytic.scale,
                {k: c.conjugate() for k, c in self.analytic.terms.items()})
        return Field(self.grid, np.conj(self.values), label=f"conj({self.label})",
                     poly=poly, analytic=analytic,
                     partials={k: np.conj(v) for k, v in self._cache.items()})

    def __repr__(self):
        return f"Field({self.label or 'unnamed'}, {self.grid.n_q}x{self.grid.n_p})"


def field_from_values(grid: PhaseGrid, values: np.ndarray, label: str = "") -> Field:
    return Field(grid, values, label=label)


def field_from_poly(poly: PolySymbol, grid: PhaseGrid, label: str = "") -> Field:
    return Field(grid, poly.eval_grid(*grid.axes()), label=label or poly.to_string(),
                 poly=poly)


def field_from_function(fn, grid: PhaseGrid, label: str = "") -> Field:
    Q, P = mesh(grid)
    return Field(grid, np.asarray(fn(Q, P), dtype=complex), label=label)


# ---------------------------------------------------------------------------
# Finite differences (4th order)

_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0


def _fd4_axis(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """4th-order first derivative: central stencils inside, one-sided at edges."""
    v = np.moveaxis(values, axis, 0)
    if v.shape[0] < 5:
        raise ValueError("fd4 needs at least 5 samples along the axis")
    out = np.empty_like(v)
    out[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * h)
    for row, coeffs in ((0, _EDGE0), (1, _EDGE1)):
        out[row] = sum(c * v[k] for k, c in enumerate(coeffs)) / h
        out[-1 - row] = -sum(c * v[-1 - k] for k, c in enumerate(coeffs)) / h
    return np.moveaxis(out, 0, axis)


def partial_field(field: Field, i: int, j: int) -> np.ndarray:
    """d^i/dq^i d^j/dp^j of the samples, from the best available source.

    Preference order: the field's known partials, exact polynomial,
    analytic radial structure within the profile's derivative budget,
    repeated fd4 stencils (which lose one order of accuracy per
    application).  A computed partial joins the known partials.
    """
    if i == 0 and j == 0:
        return field.values
    key = (i, j)
    if key in field._cache:
        return field._cache[key]
    if field.poly is not None:
        arr = field.poly.partial(i, j).eval_grid(*field.grid.axes())
    elif field.analytic is not None and (
            field.analytic.profile.max_order is None
            or field.analytic.order_needed + i + j <= field.analytic.profile.max_order):
        arr = field.analytic.mixed(i, j).evaluate(field.grid)
    else:
        arr = field.values
        for _ in range(i):
            arr = _fd4_axis(arr, field.grid.dq, 0)
        for _ in range(j):
            arr = _fd4_axis(arr, field.grid.dp, 1)
    field._cache[key] = arr
    return arr


def derivative(field: Field, axis: int, method: str = "fd4") -> Field:
    """First derivative of a field along one axis (0: d/dq, 1: d/dp).

    ``fd4``: 4th-order stencils (one-sided at the boundary rows).
    ``analytic_radial``: exact chain rule through the registered radial
    profile; raises ProfileUnavailable when the field has none.
    """
    if axis not in (0, 1):
        raise ValueError(f"axis must be 0 (q) or 1 (p), got {axis!r}")
    grid = field.grid
    label = f"d({field.label})/d{'qp'[axis]}"
    if method == "fd4":
        h = grid.dq if axis == 0 else grid.dp
        return Field(grid, _fd4_axis(field.values, h, axis), label=label)
    if method == "analytic_radial":
        if field.analytic is None or not field.analytic.is_radial:
            raise ProfileUnavailable(
                f"field {field.label!r} has no registered radial profile")
        structure = field.analytic.partial(axis)
        return Field(grid, structure.evaluate(grid), label=label, analytic=structure)
    raise ValueError(f"unknown gradient method {method!r}")


def gradient(field: Field, method: str = "fd4") -> tuple[Field, Field]:
    """Gradient (d/dq, d/dp) of a field; see ``derivative`` for the methods."""
    return derivative(field, 0, method), derivative(field, 1, method)


# ---------------------------------------------------------------------------
# Quadrature


def integrate(field: Field) -> complex:
    """Trapezoid quadrature of the field against dq dp / (2 pi hbar)."""
    g = field.grid
    w_q = np.ones(g.n_q)
    w_q[0] = w_q[-1] = 0.5
    w_p = np.ones(g.n_p)
    w_p[0] = w_p[-1] = 0.5
    s = w_q @ field.values @ w_p
    return complex(s * g.dq * g.dp / (2.0 * math.pi * g.hbar))


# ---------------------------------------------------------------------------
# Wigner functions


def fock_wigner(n: int, grid: PhaseGrid) -> Field:
    """Number-state Wigner function W_n = 2 (-1)^n e^{-v} L_n(2v), v = (q^2+p^2)/hbar."""
    structure = AnalyticStructure(FockWignerProfile(n), scale=grid.hbar)
    return Field(grid, structure.evaluate(grid), label=f"W_{n}", analytic=structure)


@dataclass(frozen=True)
class WignerWeights:
    """Normalized diagonal mixture weights N_f^2 |zeta|^(2n) / (n! (f(n)!)^2)."""

    spec: DeformationSpec
    zeta_abs2: float
    weights: np.ndarray
    truncation_n: int


def wigner_weights(spec: DeformationSpec, zeta_abs2: float, tol: float = 1e-14,
                   n_max: int = 1000) -> WignerWeights:
    terms = series_terms(spec, zeta_abs2, tol, n_max)
    weights = terms / float(np.sum(terms))
    return WignerWeights(spec, float(zeta_abs2), weights, len(terms) - 1)


def fcs_wigner(spec: DeformationSpec, zeta_abs2: float, grid: PhaseGrid,
               tol: float = 1e-14) -> Field:
    """Wigner function of an f-deformed coherent state (diagonal mixture)."""
    ww = wigner_weights(spec, zeta_abs2, tol)
    structure = AnalyticStructure(MixtureWignerProfile(ww.weights), scale=grid.hbar)
    label = f"Wf[{spec_to_text(spec)}, |zeta|^2={zeta_abs2:g}]"
    return Field(grid, structure.evaluate(grid), label=label, analytic=structure)
