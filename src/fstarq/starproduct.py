"""Star products on sampled fields.

``moyal_apply`` multiplies a polynomial symbol onto a field through the full
Moyal bidifferential series (exact, since the polynomial truncates it).
``fstar_apply`` is the deformed product, truncated at first order in hbar,

    k *_f g = k g + (i hbar / 2) F(n) {k, g}

with n = (q^2 + p^2) / (2 hbar) evaluated pointwise and {.,.} the Poisson
bracket.  At f = 1 (F = 1) it is Moyal's product without its hbar^2 and
higher terms.

``ProductSetup(grid, spec, hbar)`` samples F(n) once for every product taken
through it, and ``product`` is the one place the bracket term is formed.  Its
``hbar`` defaults to the grid's; the one-call entries use the grid's alone.
``product(k, g, jets=True)`` also attaches exact first partials of the result
("jets") from the operands' exact second partials, with the gradient of F
sampled by the setup's first such product; nested products in the
associativity study rely on this to stay above the fd4 noise floor.  The jets
seed the result's known partials, which ``partial_field`` serves.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .deformation import DeformationSpec, amplitude_F, amplitude_F_deriv, require_positive
from .phasespace import Field, _poly_samples, partial_field
from .symbols import PolySymbol


def moyal_apply(h: PolySymbol, w: Field) -> Field:
    """Left Moyal multiplication h * w of a polynomial symbol onto a field, at
    the grid's hbar.

    Exact in the h-derivatives; the w-derivatives come from the field's best
    available source (analytic profile preferred, else fd4 stencils).
    """
    grid = w.grid
    out = np.zeros((grid.n_q, grid.n_p), dtype=complex)
    for m in range(h.degree + 1):
        pref = (0.5j * grid.hbar) ** m / math.factorial(m)
        for j in range(m + 1):
            hpart = h.partial(m - j, j)
            if not hpart.terms:
                continue
            sign = -1.0 if j % 2 else 1.0
            wpart = partial_field(w, j, m - j)
            out += (pref * sign * math.comb(m, j)) * _poly_samples(hpart, grid) * wpart
    return Field(grid, out, label=f"({h.to_string()}) star {w.label}")


class ProductSetup:
    """Validated options of f-star products among fields on one grid, with F(n)
    sampled once for every product taken through the setup (and its gradient
    once, by the first product with jets); whether a product propagates jets
    is chosen per product."""

    def __init__(self, grid, spec: DeformationSpec, hbar: float | None = None):
        hbar = require_positive("hbar", grid.hbar if hbar is None else hbar)
        self.grid = grid
        self.spec = spec
        self.hbar = hbar
        self.F = grid.radial(functools.partial(amplitude_F, spec), 2.0 * hbar)

    @functools.cached_property
    def _F_gradient(self) -> tuple[np.ndarray, np.ndarray]:
        """(dF/dq, dF/dp) on the grid."""
        dF = self.grid.radial(functools.partial(amplitude_F_deriv, self.spec), 2.0 * self.hbar)
        q, p = self.grid.axes()
        return dF * q / self.hbar, dF * p / self.hbar

    def product(self, k: Field, g: Field, jets: bool = False) -> Field:
        """k *_f g = k g + (i hbar / 2) F(n) {k, g}; jets=True attaches its
        exact first partials.  The bracket and its derivatives are formed in
        the partials' dtype, so real operands keep them real, and only the
        (i hbar / 2) F term is complex."""
        if k.grid != self.grid or g.grid != self.grid:
            raise ValueError("fields must share the setup's grid")
        kq, kp, gq, gp = (partial_field(f, *key) for f in (k, g) for key in ((1, 0), (0, 1)))
        poisson = kq * gp - kp * gq
        kv, gv = k.values, g.values
        out = kv * gv + (0.5j * self.hbar) * self.F * poisson
        partials = None
        if jets:
            Fq, Fp = self._F_gradient
            kqq, kqp, kpp, gqq, gqp, gpp = (partial_field(f, *key) for f in (k, g)
                                            for key in ((2, 0), (1, 1), (0, 2)))
            br_q = kqq * gp + kq * gqp - kqp * gq - kp * gqq
            br_p = kqp * gp + kq * gpp - kpp * gq - kp * gqp
            d_q = kq * gv + kv * gq + (0.5j * self.hbar) * (Fq * poisson + self.F * br_q)
            d_p = kp * gv + kv * gp + (0.5j * self.hbar) * (Fp * poisson + self.F * br_p)
            partials = {(1, 0): d_q, (0, 1): d_p}
        return Field(self.grid, out, label=f"{k.label} star_f {g.label}", partials=partials)

    def commutator(self, k: Field, g: Field) -> Field:
        """(k *_f g - g *_f k) / hbar."""
        diff = self.product(k, g).values - self.product(g, k).values
        return Field(self.grid, diff / self.hbar, label=f"[{k.label}, {g.label}]_f / hbar")


def fstar_apply(k: Field, g: Field, spec: DeformationSpec) -> Field:
    """Truncated f-star product of two fields sharing a grid, at its hbar."""
    return ProductSetup(k.grid, spec).product(k, g)


def star_commutator(k: Field, g: Field, spec: DeformationSpec) -> Field:
    """(k *_f g - g *_f k) / hbar, at the grid's hbar."""
    return ProductSetup(k.grid, spec).commutator(k, g)
