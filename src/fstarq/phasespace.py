"""Phase-space grids, fields, Wigner functions, derivatives, quadrature.

Field values are complex128 samples on a rectangular (q, p) grid; radial
profiles, and the partials of fields with real coefficients, are float64.
``partial_field`` is the one route to a derivative (``gradient`` pairs its
two first partials); it serves each partial, in its source's dtype, from the
field's one exact ``source``, which answers ``partial(i, j)``, and refuses
any other by name:

* a ``PolySymbol`` backing the samples; a constant partial (zero included)
  is one (1, 1) sample that broadcasts to the mesh;
* an ``AnalyticStructure``, a sum  sum_k c_k(q, p) * w^(k)(v)  with
  polynomial coefficients c_k and a radial profile w of
  v = (q^2 + p^2) / scale; this family is closed under partial derivatives,
  so mixed partials of any order come out exact within the profile's own
  derivative budget; each profile keeps w^(k)(v) only as a read-only table
  over the grid's distinct radii, by (grid, scale, k), for as long as it
  lives (``RadialProfile.table``).

No partial is kept on a field.  Every partial is formed by ``_partials``,
which plans the partials a caller reads together once (each source
differentiated, each table made) and then forms them one block of q rows at
a time, gathering each w^(k) once per block for all its structures;
``partial_field`` and ``gradient`` run it as one block, the whole mesh.  The
products (``starproduct``) run it over the row blocks and drop each block's
partials with the block, so no mesh-sized partial outlives them.  An operand
of ``_partials`` is a ``Field`` or an exact source, an ``AnalyticStructure``
or a ``PolySymbol``, which serves the values and partials of the field it
samples without holding mesh-sized values.

``PhaseGrid.radial_table`` evaluates a radial function once per distinct
radius of the grid, and ``PhaseGrid.gather`` puts the table on the mesh
(``radial`` does both) or on a block of its rows; ``PhaseGrid.row_blocks``
is the one partition of the mesh into such blocks, which every streamed pass
(the partials of a product, the f-star products, the commutator deviation)
visits in order.  Number-state and coherent-state Wigner profiles share one
Laguerre recurrence: a number state W_n is the mixture with one-hot weights.
"""

from __future__ import annotations

import collections
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .deformation import (DEFAULT_SERIES_TOL, DeformationSpec, require_positive,
                          series_terms, spec_to_text)
from .symbols import PolySymbol

# ---------------------------------------------------------------------------
# Grid

_BLOCK_SAMPLES = 1 << 14  # samples per row block; a complex temporary of one is 256 KiB


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
        if operator.index(self.n_q) < 2 or operator.index(self.n_p) < 2:
            raise ValueError("grids need at least 2 samples per axis")
        if not all(map(math.isfinite, (self.q_min, self.q_max, self.p_min, self.p_max))):
            raise ValueError("grid bounds must be finite")
        if not (self.q_max > self.q_min and self.p_max > self.p_min):
            raise ValueError("grid bounds must satisfy max > min")
        require_positive("hbar", self.hbar)
        if not math.isfinite(self.offset):
            raise ValueError("grid offset must be finite")
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

    def radial(self, fn, scale: float = 1.0):
        """fn(v) on the mesh, v = (q^2 + p^2) / scale: the table of
        ``radial_table`` gathered onto every sample."""
        return self.gather(self.radial_table(fn, scale), slice(None))

    def radial_table(self, fn, scale: float) -> np.ndarray:
        """fn(v) once per distinct v = (q^2 + p^2) / scale, the one place a
        radial function is sampled.  fn sees the distinct v in order of first
        appearance in the mesh, so its first bad v is the mesh's first."""
        return fn(self._radii()[0] / scale)

    def gather(self, table: np.ndarray, rows: slice) -> np.ndarray:
        """A ``radial_table`` on the mesh's q rows ``rows``."""
        return table[self._radii()[1][rows]]

    def row_blocks(self) -> list[slice]:
        """Slices of whole q rows, about ``_BLOCK_SAMPLES`` samples each,
        covering the mesh in order: the blocks a streamed pass visits."""
        step = max(1, round(_BLOCK_SAMPLES / self.n_p))
        return [slice(start, start + step) for start in range(0, self.n_q, step)]

    @lru_cache(maxsize=64)
    def _radii(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct q^2 + p^2 in first-appearance mesh order, and the
        (n_q, n_p) index of each mesh point into them; both read-only."""
        # cached per grid: its sort costs about 20x one profile on the quotient
        q, p = self.axes()
        r2 = (q * q + p * p).ravel()
        _, first, inverse = np.unique(r2, return_index=True, return_inverse=True)
        order = np.argsort(first)
        r2u, idx = r2[first[order]], np.argsort(order)[inverse].reshape(self.n_q, self.n_p)
        r2u.setflags(write=False)
        idx.setflags(write=False)
        return r2u, idx


def default_grid() -> PhaseGrid:
    """[-8, 8]^2 at 513 x 513, hbar = 1, with a half-cell offset."""
    return PhaseGrid(-8.0, 8.0, -8.0, 8.0, 513, 513, hbar=1.0, offset=0.5)


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
    """L_n(x), the one-hot series of ``laguerre_series``."""
    out = laguerre_series(0, _one_hot(n), x)
    return float(out) if np.ndim(x) == 0 else out


def _one_hot(n: int) -> np.ndarray:
    """Weights 0, ..., 0, 1 that pick out the n-th term of a series; n goes
    through operator.index, so a float is a TypeError."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("n must be >= 0")
    weights = np.zeros(n + 1)
    weights[n] = 1.0
    return weights


def laguerre_series(alpha: int, coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] L_k^(alpha)(x), accumulated in one recurrence sweep
    k L_k = (2k-1+alpha-x) L_{k-1} - (k-1+alpha) L_{k-2}, L_0 = 1, L_1 = 1+alpha-x.
    Zero coefficients are skipped: adding 0 L_k to the sum changes no bit."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    lk = np.ones_like(x)
    for k, c in enumerate(coeffs):
        if k == 1:
            lkm1, lk = lk, 1.0 + alpha - x
        elif k:
            lkm1, lk = lk, ((2.0 * k - 1.0 + alpha - x) * lk - (k - 1 + alpha) * lkm1) / k
        if c != 0:
            out += c * lk
    return out


# ---------------------------------------------------------------------------
# Radial profiles: w(v) plus derivatives of any requested order


class RadialProfile:
    """Base of the radial profiles; subclasses supply ``deriv(v, order)`` and
    cap ``max_order`` if their derivative budget is finite; ``table``
    enforces the cap."""

    max_order = None

    def table(self, grid: PhaseGrid, scale: float, k: int) -> np.ndarray:
        """w^(k)(v), v = (q^2 + p^2) / scale, once per distinct radius of the
        grid (``PhaseGrid.radial_table``): computed once per (grid, scale, k)
        and kept read-only for the profile's life, the only arrays a profile
        holds."""
        if self.max_order is not None and k > self.max_order:
            raise ValueError(f"{type(self).__name__} carries {self.max_order} derivatives only")
        tables = self.__dict__.setdefault("_tables", {})
        if (grid, scale, k) not in tables:
            tables[grid, scale, k] = grid.radial_table(lambda v: self.deriv(v, k), scale)
            tables[grid, scale, k].setflags(write=False)
        return tables[grid, scale, k]

    def on_grid(self, grid: PhaseGrid, scale: float, k: int) -> np.ndarray:
        """w^(k) freshly gathered onto the mesh from its ``table``, the
        caller's to keep or drop."""
        return grid.gather(self.table(grid, scale, k), slice(None))


class MixtureWignerProfile(RadialProfile):
    """Weighted sum of Fock Wigner profiles: w(v) = sum_n c_n W_n-profile(v)."""

    def __init__(self, weights: np.ndarray):
        self.weights = np.asarray(weights, dtype=float)

    def deriv(self, v: np.ndarray, order: int) -> np.ndarray:
        # d^m/dv^m [e^{-v} L_n(2v)] = (-1)^m e^{-v} sum_j C(m,j) 2^j L_{n-j}^{(j)}(2v)
        x = 2.0 * np.asarray(v, dtype=float)
        nmax = len(self.weights) - 1
        acc = np.zeros_like(x)
        for j in range(0, min(order, nmax) + 1):
            # coefficient of L_k^{(j)} is 2 (-1)^{k+j} weights[k+j]
            ks = np.arange(0, nmax - j + 1)
            coeffs = 2.0 * ((-1.0) ** (ks + j)) * self.weights[ks + j]
            acc += math.comb(order, j) * (2.0 ** j) * laguerre_series(j, coeffs, x)
        return (-1.0) ** order * np.exp(-v) * acc


class FockWignerProfile(MixtureWignerProfile):
    """w(v) = 2 (-1)^n e^{-v} L_n(2v), the mixture with all weight on n; it
    differs from the direct formula by exact factors +-1, +-2, so no bit moves."""

    def __init__(self, n: int):
        super().__init__(_one_hot(n))
        self.n = n


class AnalyticStructure:
    """sum_k c_k(q,p) * w^(k)(v) with v = (q^2+p^2)/scale; closed under d/dq, d/dp.
    ``evaluate`` gathers each w^(k)(v) from the profile's table (``on_grid``)
    and drops it once multiplied; ``_partials`` forms the sum one row block
    at a time instead, sharing each block's gather among its structures.
    ``label`` names it in a refusal as its field would be named; it is empty
    unless the builder that made the structure set it."""

    label = ""

    def __init__(self, profile, scale: float, terms: dict[int, PolySymbol] | None = None):
        self.profile = profile
        self.scale = float(scale)
        self.terms = terms if terms is not None else {0: PolySymbol.constant(1.0)}

    @property
    def order_needed(self) -> int:
        return max(self.terms, default=0)

    def partial(self, i: int, j: int) -> "AnalyticStructure":
        """d^i/dq^i d^j/dp^j of the sum, q first, refused for a negative order
        as ``PolySymbol.partial`` refuses it."""
        if i < 0 or j < 0:
            raise ValueError(f"partial ({i}, {j}): orders must be >= 0")
        s = self
        for axis in [0] * i + [1] * j:
            s = s._step(axis)
        return s

    def _step(self, axis: int) -> "AnalyticStructure":
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

    def conjugate(self) -> "AnalyticStructure":
        # radial profiles are real, so conjugation only touches the coefficients
        return AnalyticStructure(self.profile, self.scale,
                                 {k: c.conjugate() for k, c in self.terms.items()})

    def evaluate(self, grid: PhaseGrid) -> np.ndarray:
        """The sum on the grid, each w^(k) gathered by ``on_grid``."""
        return self._sum(*grid.axes(), lambda k: self.profile.on_grid(grid, self.scale, k))

    def _sum(self, q: np.ndarray, p: np.ndarray, take) -> np.ndarray:
        """The sum on the points of a q column and a p row (the grid's axes,
        or q on a block of rows), with w^(k) on them from take(k): float64 if
        every coefficient is real (profiles are), else complex128, with the
        bits of the all-complex sum.  In ascending k, w^(k) is taken, then the
        coefficient is sampled by ``_poly_samples`` and takes w^(k), in place
        when it fills the points; the first term becomes the sum (+ 0 as in
        ``eval_grid``), and the first complex term promotes it.  Every sample
        sees the same operations whatever the rows."""
        out = None
        for k in sorted(self.terms):
            c = self.terms[k]
            if not c.terms:
                continue
            w = take(k)
            term = _poly_samples(c, q, p)
            # 0 * inf (a zero coefficient on a singular w^(k)) is NaN; _partials names it
            with np.errstate(invalid="ignore"):
                term = np.multiply(term, w, out=term if term.shape == w.shape else None)
                if out is None:
                    out = term
                    out += 0
                elif np.can_cast(term.dtype, out.dtype):
                    out += term
                else:
                    out = out + term
        return np.zeros(np.broadcast(q, p).shape) if out is None else out

    def field(self, grid: PhaseGrid, label: str) -> "Field":
        """The structure sampled on grid, as a Field whose partials it serves."""
        field = Field(grid, self.evaluate(grid), label=label)
        field.source = self
        return field


# ---------------------------------------------------------------------------
# Field


def _not_finite(grid: PhaseGrid, what: str, iq: int, ip: int) -> ValueError:
    """The refusal of ``what`` at the mesh point (iq, ip)."""
    return ValueError(f"{what} is not finite at (q, p) = "
                      f"({float(grid.q_values()[iq])!r}, {float(grid.p_values()[ip])!r})")


def _require_finite(grid: PhaseGrid, arr: np.ndarray, what: str) -> None:
    """A ValueError naming ``what`` and the first non-finite (q, p) of arr in
    mesh order, if there is one."""
    if not np.isfinite(arr).all():
        raise _not_finite(grid, what, *np.argwhere(~np.isfinite(arr))[0])


class Field:
    """complex128 samples on a PhaseGrid, checked and then cast once, and the
    exact ``source`` they were sampled from, if any: a ``PolySymbol`` or an
    ``AnalyticStructure``, attached only by the builder that sampled it
    (``field_from_poly``, ``AnalyticStructure.field``).  The source answers
    ``partial(i, j)`` and ``conjugate()``; a field keeps no partial."""

    __slots__ = ("grid", "values", "label", "source")

    def __init__(self, grid: PhaseGrid, values: np.ndarray, label: str = ""):
        arr = np.asarray(values)
        if arr.shape != (grid.n_q, grid.n_p):
            raise ValueError(f"values shape {arr.shape} does not match grid "
                             f"({grid.n_q}, {grid.n_p})")
        _require_finite(grid, arr, f"field {label}" if label else "an unnamed field")
        self.grid = grid
        self.values = arr.astype(complex, copy=False)
        self.label = label
        self.source: PolySymbol | AnalyticStructure | None = None

    def conjugate(self) -> "Field":
        out = Field(self.grid, np.conj(self.values), label=f"conj({self.label})")
        out.source = None if self.source is None else self.source.conjugate()
        return out

    def __repr__(self):
        return f"Field({self.label or 'unnamed'}, {self.grid.n_q}x{self.grid.n_p})"


def _poly_samples(poly: PolySymbol, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """poly on the points of a q column and a p row with ``eval_grid``'s bits;
    a constant (zero included) is one (1, 1) sample, float64 when real, that
    broadcasts to them."""
    if not poly.is_constant():
        return poly.eval_grid(q, p)
    c = poly.constant_value()
    return np.full((1, 1), c.real if c.imag == 0 else c) + 0  # + 0: eval_grid's zeros


def field_from_poly(poly: PolySymbol, grid: PhaseGrid) -> Field:
    """poly sampled on grid, labelled by its text, as a Field whose partials it serves."""
    field = Field(grid, poly.eval_grid(*grid.axes()), label=poly.to_string())
    field.source = poly
    return field


# ---------------------------------------------------------------------------
# Finite differences (4th order), called by name alone

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


def fd4_partial(field: Field, i: int, j: int) -> np.ndarray:
    """d^i/dq^i d^j/dp^j of the samples alone, by repeated 4th-order stencils
    (q first, then p), each losing one order of accuracy; nothing is cached."""
    arr = field.values
    for _ in range(i):
        arr = _fd4_axis(arr, field.grid.dq, 0)
    for _ in range(j):
        arr = _fd4_axis(arr, field.grid.dp, 1)
    return arr


def partial_field(field: Field, i: int, j: int) -> np.ndarray:
    """d^i/dq^i d^j/dp^j of the samples from the field's exact ``source``: the
    polynomial or the analytic radial structure, formed by ``_partials`` as
    one block, the whole mesh; (0, 0) is the values.

    It keeps its source's dtype: float64 from real coefficients, complex128
    from complex ones; a constant polynomial partial (zero included) is one
    (1, 1) sample that broadcasts to the mesh.  Nothing is kept on the field.
    A ValueError names the partial and the field for a negative order, no
    exact source (``fd4_partial`` estimates one), the profile's derivative
    budget (``RadialProfile.table`` states it), or the first (q, p) in mesh
    order where it is not finite.
    """
    [(_, [arr])] = _partials(field.grid, [(field, i, j)], [slice(None)])
    return arr


def gradient(field: Field) -> tuple[np.ndarray, np.ndarray]:
    """(d/dq, d/dp) of the samples, ``partial_field``'s, formed together."""
    [(_, arrays)] = _partials(field.grid, [(field, 1, 0), (field, 0, 1)], [slice(None)])
    return tuple(arrays)


def _name(operand) -> str:
    """An operand's name as its field's label would give it: a field's or a
    structure's label, a polynomial's text (``field_from_poly``), or else
    "an unnamed field"."""
    if isinstance(operand, PolySymbol):
        return operand.to_string()
    return operand.label or "an unnamed field"


def _partials(grid: PhaseGrid, requests, blocks):
    """The partial of each (operand, i, j) of requests on grid, formed one
    block of q rows at a time: yields (rows, [each partial on rows]) for each
    rows of blocks, in order, and keeps nothing once it is done.

    An operand is a ``Field`` on grid, whose partials are ``partial_field``'s,
    or an exact source, an ``AnalyticStructure`` or a ``PolySymbol``, which
    has the partials of the field it samples (``AnalyticStructure.field``,
    ``field_from_poly``) with no mesh-sized values: its (0, 0) is its
    samples, cast to complex128 as ``Field`` casts its values, and a refusal
    names it as that field (``_name``).  The plan is made at the call: a
    partial is a field's values for (0, 0), or else the exact source (the
    field's ``source``, the operand itself), differentiated once by its
    ``partial(i, j)``, with the profile tables it takes; a negative order, no
    exact source or the derivative budget is refused there, in request
    order.  Per block, each w^(k) is gathered once for every analytic sum
    that takes it and dropped after the last; a polynomial is sampled on the
    rows.  After the last block, the first request whose partial was not
    finite somewhere is refused at its first (q, p) in mesh order; no numpy
    warning comes first.
    """
    def what(operand, i, j):
        return f"partial ({i}, {j}) of {_name(operand)}"

    plan, uses = {}, collections.Counter()  # plan: key -> [operand, source]
    for operand, i, j in requests:
        if (id(operand), i, j) in plan:
            continue
        if i < 0 or j < 0:
            raise ValueError(f"{what(operand, i, j)}: orders must be >= 0")
        exact = operand.source if isinstance(operand, Field) else operand
        if isinstance(operand, Field) and (i, j) == (0, 0):
            source = operand.values
        elif exact is None:
            raise ValueError(f"{what(operand, i, j)}: no exact source; "
                             "fd4_partial estimates it by stencils")
        else:
            source = exact.partial(i, j)
        if isinstance(source, AnalyticStructure):  # and the table of each w^(k) it takes
            try:
                source = source, {k: source.profile.table(grid, source.scale, k)
                                  for k, c in source.terms.items() if c.terms}
            except ValueError as exc:  # the profile's derivative budget
                raise ValueError(f"{what(operand, i, j)}: {exc}") from None
            uses.update(id(table) for table in source[1].values())
        plan[id(operand), i, j] = [operand, source]
    q, p = grid.axes()

    def formed():
        refusals = {}
        for rows in blocks:
            left, gathered, arrays = uses.copy(), {}, {}

            def take(table):
                """The table on the block, gathered for its first use there."""
                if id(table) not in gathered:
                    gathered[id(table)] = grid.gather(table, rows)
                left[id(table)] -= 1
                return gathered[id(table)] if left[id(table)] else gathered.pop(id(table))

            with np.errstate(all="ignore"):  # refused by name after the last block
                for key, entry in plan.items():
                    operand, source = entry
                    if isinstance(source, np.ndarray):  # values or a constant: checked
                        arrays[key] = source if source.shape[0] == 1 else source[rows]
                        continue
                    if isinstance(source, PolySymbol):
                        arr = _poly_samples(source, q[rows], p)
                    else:
                        structure, tables = source
                        arr = structure._sum(q[rows], p, lambda k: take(tables[k]))
                    if key[1:] == (0, 0):  # an exact source's values, as its field holds them
                        arr = arr.astype(complex, copy=False)
                    if key not in refusals and not np.isfinite(arr).all():
                        iq, ip = np.argwhere(~np.isfinite(arr))[0]
                        refusals[key] = _not_finite(grid, what(operand, *key[1:]),
                                                    range(grid.n_q)[rows][iq], ip)
                    if isinstance(source, PolySymbol) and arr.shape == (1, 1):
                        entry[1] = arr  # a constant: this sample serves every block
                    arrays[key] = arr
            yield rows, [arrays[id(operand), i, j] for operand, i, j in requests]
        for key in plan:
            if key in refusals:
                raise refusals[key]
    return formed()


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
    return AnalyticStructure(FockWignerProfile(n), scale=grid.hbar).field(grid, f"W_{n}")


def wigner_weights(spec: DeformationSpec, zeta_abs2: float,
                   tol: float = DEFAULT_SERIES_TOL) -> np.ndarray:
    """The normalized diagonal mixture weights N_f^2 |zeta|^(2n) / (n! (f(n)!)^2)
    as a float64 array indexed by n; the series is truncated at n = len - 1."""
    terms = series_terms(spec, zeta_abs2, tol)
    return terms / float(np.sum(terms))


def fcs_wigner(spec: DeformationSpec, zeta_abs2: float, grid: PhaseGrid,
               tol: float = DEFAULT_SERIES_TOL) -> Field:
    """Wigner function of an f-deformed coherent state (diagonal mixture)."""
    weights = wigner_weights(spec, zeta_abs2, tol)
    structure = AnalyticStructure(MixtureWignerProfile(weights), scale=grid.hbar)
    return structure.field(grid, f"Wf[{spec_to_text(spec)}, |zeta|^2={zeta_abs2:g}]")
