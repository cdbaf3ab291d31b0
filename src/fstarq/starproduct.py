"""Star products on sampled fields and exact sources.

``moyal_apply`` multiplies a polynomial symbol onto a field through the full
Moyal bidifferential series (exact, since the polynomial truncates it).
``fstar_apply`` is the deformed product, truncated at first order in hbar,

    k *_f g = k g + (i hbar / 2) F(n) {k, g}

with n = (q^2 + p^2) / (2 hbar) evaluated pointwise and {.,.} the Poisson
bracket.  At f = 1 (F = 1) it is Moyal's product without its hbar^2 and
higher terms.

``ProductSetup(grid, spec, hbar)`` samples F(n) once for every product taken
through it, as a table over the grid's distinct radii (F depends on n
alone): the default 513^2 grid has 20,759 of them for 263,169 samples.  Its
``hbar`` defaults to the grid's; the one-call entries use the grid's alone.
A product's operand is a ``Field``, or an exact source with no mesh-sized
values, an ``AnalyticStructure`` or a ``PolySymbol``, which stands for the
field it samples, bits and name alike; ``genvalue`` passes H, A, Abar and
the associativity probe so.  Operands take their values and partials from
their exact sources (``Field.source``, or the operand itself), formed
inside the product's own row-block loop (``phasespace._partials``) and
dropped with the block, so no mesh-sized operand value or partial outlives
a block and operands on one radial profile share each block's gather of
its derivatives.  The nested products
of the associativity defect need the exact first partials of k *_f g and
g *_f h ("jets"), formed from the operands' second partials and dF/dn; they
exist only inside ``defect_squared``'s row block, which samples dF/dn once
per call.

``_star_block`` is the one place the first-order formula (the value and the
jets) is formed, on one block of whole q rows (``PhaseGrid.row_blocks``), so
its temporaries stay in cache rather than passing through memory as whole-mesh
arrays would.  ``_blocks`` is the one loop over the blocks: it gathers each
setup's F, and for the defect the gradient of F, from the tables, and hands
over the operands' values and partials on the block.  ``product`` fills its
output block by block; ``commutator`` writes both orders' difference over
hbar into its one output; ``defect_squared`` keeps only the real
|difference|^2 of its four nested products; and ``imag_maxima`` keeps only
max |Im(k *_f g)| of every product of several setups' k with several g,
forming each operand's partials once per block for all of them.
``moyal_apply`` streams the same blocks.  Every element goes through the
same operations in the same order as on the whole mesh, so the bits do not
depend on the blocking.
Numpy's warnings are off in the blocks.  An operand partial without an exact
source or past its profile's budget is refused before any block; after the
last block, the first operand partial in argument order that was not finite
is refused at its first (q, p) in mesh order; then the finished result is
checked once (``Field``'s, or ``associativity_defect``'s of the squares;
``imag_maxima`` names its first product that was not finite as ``product``
would).  A result's label names its operands as their fields are labelled
(``phasespace._name``), an unlabelled one as "an unnamed field".
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .deformation import DeformationSpec, amplitude_F, amplitude_F_deriv, require_positive
from .phasespace import Field, _name, _not_finite, _partials, _poly_samples
from .symbols import PolySymbol


def moyal_apply(h: PolySymbol, w: Field) -> Field:
    """Left Moyal multiplication h * w of a polynomial symbol onto a field, at
    the grid's hbar.

    Exact in the h-derivatives; the w-derivatives are ``partial_field``'s,
    formed with h's one row block at a time (``_partials``), and one without
    an exact source is refused before any block.
    """
    grid = w.grid
    terms = [((0.5j * grid.hbar) ** m / math.factorial(m) * (-1.0 if j % 2 else 1.0)
              * math.comb(m, j), hpart, (j, m - j))
             for m in range(h.degree + 1) for j in range(m + 1)
             if (hpart := h.partial(m - j, j)).terms]
    blocks = _partials(grid, [(w, *key) for *_, key in terms], grid.row_blocks())
    q, p = grid.axes()
    out = np.zeros((grid.n_q, grid.n_p), dtype=complex)
    with np.errstate(all="ignore"):  # Field names the first sample that is not finite
        for rows, wparts in blocks:
            block = out[rows]
            for (coeff, hpart, _), wpart in zip(terms, wparts):
                block += coeff * _poly_samples(hpart, q[rows], p) * wpart
    return Field(grid, out, label=f"({h.to_string()}) star {_name(w)}")


_FIRST = ((1, 0), (0, 1))
_SECOND = ((2, 0), (1, 1), (0, 2))


def _star_block(hbar: float, F, k, g, dF=None):
    """(value, jets) of k *_f g = k g + (i hbar / 2) F {k, g} on one row block.

    k and g are [value, d/dq, d/dp] on the block, followed by
    [d2/dq2, d2/dqdp, d2/dp2] when dF = (dF/dq, dF/dp) asks for the jets, the
    result's exact first partials (None without dF).  The bracket and its
    derivatives are formed in the partials' dtype, so real operands keep them
    real, and only the (i hbar / 2) F term is complex."""
    kv, kq, kp, *k2 = k
    gv, gq, gp, *g2 = g
    poisson = kq * gp - kp * gq
    out = kv * gv + (0.5j * hbar) * F * poisson
    if dF is None:
        return out, None
    (kqq, kqp, kpp), (gqq, gqp, gpp), (Fq, Fp) = k2, g2, dF
    br_q = kqq * gp + kq * gqp - kqp * gq - kp * gqq
    br_p = kqp * gp + kq * gpp - kpp * gq - kp * gqp
    d_q = kq * gv + kv * gq + (0.5j * hbar) * (Fq * poisson + F * br_q)
    d_p = kp * gv + kv * gp + (0.5j * hbar) * (Fp * poisson + F * br_p)
    return out, (d_q, d_p)


class ProductSetup:
    """Validated options of f-star products among operands on one grid:
    fields, or exact sources standing for them (``_blocks``).  F(n) is
    sampled once for every product taken through the setup, as a table over
    the grid's distinct radii (``PhaseGrid.radial_table``), gathered one row
    block at a time, so no setup holds a mesh-sized grid."""

    def __init__(self, grid, spec: DeformationSpec, hbar: float | None = None):
        hbar = require_positive("hbar", grid.hbar if hbar is None else hbar)
        self.grid = grid
        self.spec = spec
        self.hbar = hbar
        self.F = grid.radial_table(functools.partial(amplitude_F, spec), 2.0 * hbar)

    def product(self, k: Field, g: Field) -> Field:
        """k *_f g = k g + (i hbar / 2) F(n) {k, g}, allocated once and filled
        one row block at a time by ``_star_block``."""
        out = np.empty((self.grid.n_q, self.grid.n_p), dtype=complex)
        with np.errstate(all="ignore"):  # Field names the first sample that is not finite
            for rows, [(F, _)], (kb, gb) in _blocks([self], (k, g), jets=False):
                out[rows] = _star_block(self.hbar, F, kb, gb)[0]
        return Field(self.grid, out, label=f"{_name(k)} star_f {_name(g)}")

    def commutator(self, k: Field, g: Field) -> Field:
        """(k *_f g - g *_f k) / hbar, both orders formed by ``_star_block``
        one row block at a time into the one output, which ``Field`` refuses
        if it is not finite."""
        out = np.empty((self.grid.n_q, self.grid.n_p), dtype=complex)
        with np.errstate(all="ignore"):  # Field names the first sample that is not finite
            for rows, [(F, _)], (kb, gb) in _blocks([self], (k, g), jets=False):
                diff = _star_block(self.hbar, F, kb, gb)[0]
                diff -= _star_block(self.hbar, F, gb, kb)[0]
                np.divide(diff, self.hbar, out=out[rows])
        return Field(self.grid, out, label=f"[{_name(k)}, {_name(g)}]_f / hbar")

    def defect_squared(self, k: Field, g: Field, h: Field) -> np.ndarray:
        """|(k *_f g) *_f h - k *_f (g *_f h)|^2 on the mesh, the four products
        formed by ``_star_block`` one row block at a time, so the jets of k g
        and g h stay in the block.  dF/dn is sampled once the operands'
        partials are planned, as a table like ``F``.  A product that is not
        finite leaves the squares not finite, which the caller refuses."""
        sq = np.empty((self.grid.n_q, self.grid.n_p))
        with np.errstate(all="ignore"):  # the caller names the first square that is not finite
            for rows, [(F, dF)], (kb, gb, hb) in _blocks([self], (k, g, h), jets=True):
                kg, kg_jets = _star_block(self.hbar, F, kb, gb, dF)
                gh, gh_jets = _star_block(self.hbar, F, gb, hb, dF)
                diff = _star_block(self.hbar, F, [kg, *kg_jets], hb)[0]
                diff -= _star_block(self.hbar, F, kb, [gh, *gh_jets])[0]
                sq[rows] = np.abs(diff) ** 2
        return sq


def _blocks(setups, operands, jets: bool):
    """Per row block of ``PhaseGrid.row_blocks`` of the setups' one grid: its
    rows, each setup's (F, dF) on the block, dF being with jets the gradient
    (dF/dq, dF/dp) = dF/dn (q, p) / hbar and else None, and each operand's
    ``_star_block`` operand on the block, formed there by
    ``_partials``: its values and first partials, with jets its second too,
    where a (1, 1) constant broadcasts whole.  An operand is a ``Field``, an
    ``AnalyticStructure`` or a ``PolySymbol`` (``_partials``).  The one loop of
    ``_star_block``'s callers.  Refused, in this order: setups on different
    grids, a field off the setups' grid, an operand partial without an exact
    source or past its budget (argument order), the dF/dn tables, and after
    the last block the first operand partial that was not finite."""
    grid = setups[0].grid
    if any(setup.grid != grid for setup in setups):
        raise ValueError("setups must share a grid")
    if any(isinstance(f, Field) and f.grid != grid for f in operands):
        raise ValueError("fields must share the setup's grid")
    keys = ((0, 0),) + _FIRST + (_SECOND if jets else ())
    blocks = _partials(grid, [(f, *key) for f in operands for key in keys], grid.row_blocks())
    dF_dn = [grid.radial_table(functools.partial(amplitude_F_deriv, setup.spec),
                               2.0 * setup.hbar) if jets else None for setup in setups]
    q, p = grid.axes()
    for rows, arrays in blocks:
        Fs = []
        for setup, table in zip(setups, dF_dn):
            dF = None
            if table is not None:  # rebound to its gradient so no block of it outlives the yield
                dF = grid.gather(table, rows)
                dF = (dF * q[rows] / setup.hbar, dF * p / setup.hbar)
            Fs.append((grid.gather(setup.F, rows), dF))
        yield rows, Fs, [arrays[start:start + len(keys)]
                         for start in range(0, len(arrays), len(keys))]
        del arrays, Fs  # so the next block is formed without this one


def imag_maxima(stars, gs) -> list[list[float]]:
    """max |Im(k *_f g)| for each star (setup, k) of stars and each g of gs,
    as one list per star, with the bits of ``setup.product(k, g)``'s; k and g
    are operands on the setups' one grid, as ``_blocks`` takes them.

    One pass over the row blocks (``_blocks``) forms each operand's values
    and first partials once per block, for every product that takes them,
    and gathers each setup's F once; each product lives one block at a time
    (``_star_block``) and only the running maxima are kept.  Refused as
    ``product`` refuses: an operand before any block or after the last, and
    then, after the last block, the first product in argument order (star,
    then g) that was not finite, at its first (q, p) in mesh order."""
    if not stars:
        return []
    setups, gs = [setup for setup, _ in stars], list(gs)
    operands = [k for _, k in stars] + gs
    maxima = [[0.0] * len(gs) for _ in stars]
    bad = {}  # (star, g) -> the mesh point of the product's first non-finite sample
    with np.errstate(all="ignore"):  # refused by name after the last block
        for rows, Fs, ops in _blocks(setups, operands, jets=False):
            for a, (setup, (F, _), kb) in enumerate(zip(setups, Fs, ops)):
                for b, gb in enumerate(ops[len(stars):]):
                    out = _star_block(setup.hbar, F, kb, gb)[0]
                    if (a, b) not in bad and not np.isfinite(out).all():
                        iq, ip = np.argwhere(~np.isfinite(out))[0]
                        bad[a, b] = rows.start + iq, ip
                    maxima[a][b] = max(maxima[a][b], float(np.max(np.abs(out.imag))))
            del ops  # so the next block is formed without this one
    if bad:
        a, b = min(bad)
        label = f"{_name(operands[a])} star_f {_name(gs[b])}"
        raise _not_finite(setups[0].grid, f"field {label}", *bad[a, b])
    return maxima


def fstar_apply(k: Field, g: Field, spec: DeformationSpec) -> Field:
    """Truncated f-star product of two fields sharing a grid, at its hbar."""
    return ProductSetup(k.grid, spec).product(k, g)


def star_commutator(k: Field, g: Field, spec: DeformationSpec) -> Field:
    """(k *_f g - g *_f k) / hbar, at the grid's hbar."""
    return ProductSetup(k.grid, spec).commutator(k, g)
