"""Star products on sampled fields.

``moyal_apply`` multiplies a polynomial symbol onto a field through the full
Moyal bidifferential series (exact, since the polynomial truncates it).
``fstar_apply`` is the deformed product

    k *_f g = k g + (i hbar / 2) F(n) {k, g}              (order "first")
            - (hbar^2 / 4) F(n)^2 B2(k, g)                (order "second")

with n = (q^2 + p^2) / (2 hbar) evaluated pointwise, {.,.} the Poisson
bracket, and B2 the second bidifferential power with F held constant under
the inner derivatives.  The second-order term keeps the printed prefactor
of the construction it implements and is considered experimental; the
first-order product is the supported path.

Products can optionally propagate exact first partials of the result
("jets") when the operands supply exact second partials; nested products
in the associativity study rely on this to stay above the fd4 noise floor.
The jets seed the result's known partials, which ``partial_field`` serves.
``ProductSetup`` validates the options of ``fstar_apply``, ``star_commutator``
and ``genvalue.bracket_term`` in one place, and one setup samples F(n) once
for every product taken at its (spec, grid, hbar).
"""

from __future__ import annotations

import math

import numpy as np

from .deformation import DeformationSpec, amplitude_F, amplitude_F_deriv
from .phasespace import Field, mesh, partial_field
from .symbols import PolySymbol

ORDERS = ("first", "second")


def _checked_hbar(grid, hbar: float | None) -> float:
    """hbar, or the grid's when None, once it is a positive finite real."""
    if hbar is None:
        hbar = grid.hbar
    if not 0.0 < hbar < math.inf:
        raise ValueError("hbar must be a positive finite real")
    return hbar


def moyal_apply(h: PolySymbol, w: Field, hbar: float | None = None) -> Field:
    """Left Moyal multiplication h * w of a polynomial symbol onto a field.

    Exact in the h-derivatives; the w-derivatives come from the field's best
    available source (analytic profile preferred, else fd4 stencils).
    """
    grid = w.grid
    hbar = _checked_hbar(grid, hbar)
    q, p = grid.axes()
    out = np.zeros((grid.n_q, grid.n_p), dtype=complex)
    for m in range(h.degree + 1):
        pref = (0.5j * hbar) ** m / math.factorial(m)
        for j in range(m + 1):
            hpart = h.partial(m - j, j)
            if not hpart.terms:
                continue
            sign = -1.0 if j % 2 else 1.0
            wpart = partial_field(w, j, m - j)
            out += (pref * sign * math.comb(m, j)) * hpart.eval_grid(q, p) * wpart
    return Field(grid, out, label=f"({h.to_string()}) star {w.label}")


class ProductSetup:
    """Validated options of f-star products among fields on one grid, with F(n)
    (and, for jet_order=1, its gradient) sampled once for every product taken
    through the setup; whether a product propagates jets is chosen per product."""

    def __init__(self, fields, spec: DeformationSpec, hbar: float | None = None,
                 order: str = "first", jet_order: int = 0):
        grid = fields[0].grid
        if any(f.grid != grid for f in fields):
            raise ValueError("fields must share a grid")
        hbar = _checked_hbar(grid, hbar)
        if order not in ORDERS:
            raise ValueError(f"order must be one of {ORDERS}")
        if jet_order not in (0, 1):
            raise ValueError("jet_order must be 0 or 1")
        if jet_order == 1 and order == "second":
            raise ValueError("jet propagation is only supported at order='first'")
        self.grid = grid
        self.hbar = hbar
        self.order = order
        Q, P = mesh(grid)
        n = (Q * Q + P * P) / (2.0 * hbar)
        self.F = amplitude_F(spec, n)
        self.Fq = self.Fp = None
        if jet_order:
            dF = amplitude_F_deriv(spec, n)
            self.Fq = dF * Q / hbar
            self.Fp = dF * P / hbar

    def product(self, k: Field, g: Field, jets: bool = False) -> Field:
        """k *_f g; jets=True attaches its exact first partials."""
        if k.grid != self.grid or g.grid != self.grid:
            raise ValueError("fields must share the setup's grid")
        if jets and self.Fq is None:
            raise ValueError("jets need a setup built with jet_order=1")
        hbar = self.hbar
        kv, gv = k.values, g.values
        kq = partial_field(k, 1, 0)
        kp = partial_field(k, 0, 1)
        gq = partial_field(g, 1, 0)
        gp = partial_field(g, 0, 1)
        bracket = kq * gp - kp * gq
        out = kv * gv + (0.5j * hbar) * self.F * bracket
        partials = None
        if self.order == "second" or jets:
            kqq, kqp, kpp, gqq, gqp, gpp = (partial_field(f, *key) for f in (k, g)
                                            for key in ((2, 0), (1, 1), (0, 2)))
        if self.order == "second":
            bi2 = kqq * gpp - 2.0 * kqp * gqp + kpp * gqq
            out = out - (hbar * hbar / 4.0) * self.F * self.F * bi2
        if jets:
            br_q = kqq * gp + kq * gqp - kqp * gq - kp * gqq
            br_p = kqp * gp + kq * gpp - kpp * gq - kp * gqp
            d_q = kq * gv + kv * gq + (0.5j * hbar) * (self.Fq * bracket + self.F * br_q)
            d_p = kp * gv + kv * gp + (0.5j * hbar) * (self.Fp * bracket + self.F * br_p)
            partials = {(1, 0): d_q, (0, 1): d_p}
        return Field(self.grid, out, label=f"{k.label} star_f {g.label}", partials=partials)

    def commutator(self, k: Field, g: Field, jets: bool = False) -> Field:
        """(k *_f g - g *_f k) / hbar."""
        kg = self.product(k, g, jets)
        gk = self.product(g, k, jets)
        partials = None
        if jets:
            partials = {key: (partial_field(kg, *key) - partial_field(gk, *key)) / self.hbar
                        for key in ((1, 0), (0, 1))}
        return Field(self.grid, (kg.values - gk.values) / self.hbar,
                     label=f"[{k.label}, {g.label}]_f / hbar", partials=partials)


def fstar_apply(k: Field, g: Field, spec: DeformationSpec, hbar: float | None = None,
                order: str = "first", jet_order: int = 0) -> Field:
    """Truncated f-star product of two fields sharing a grid.

    jet_order=1 additionally attaches exact first partials of the result,
    computed by the product rule from the operands' second partials.
    """
    return ProductSetup((k, g), spec, hbar, order, jet_order).product(k, g, bool(jet_order))


def star_commutator(k: Field, g: Field, spec: DeformationSpec,
                    hbar: float | None = None, order: str = "first",
                    jet_order: int = 0) -> Field:
    """(k *_f g - g *_f k) / hbar."""
    return ProductSetup((k, g), spec, hbar, order, jet_order).commutator(k, g, bool(jet_order))
