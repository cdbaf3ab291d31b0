"""Star-genvalue diagnostics for deformed oscillators.

The deformed Hamiltonian field is the level-energy formula evaluated at the
continuous excitation number n = (q^2 + p^2) / (2 hbar):

    H(q, p) = (hbar w / 2) [ (n+1) f(n+1)^2 + n f(n)^2 ]

For the identity deformation the genvalue residual is anchored to the exact
harmonic identity (w/2)(q^2 + p^2) star W_n = hbar w (n + 1/2) W_n computed
with the exact Moyal product; the substituted Hamiltonian field differs
from that harmonic symbol by the constant hbar w / 2 and satisfies the same
equation with eigenvalue hbar w (n + 1), so the exact anchor uses the
harmonic symbol.  For every other deformation the residual of the
first-order f-star equation is measured and reported, not asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .deformation import (DeformationSpec, commutator_target, deriv_f,
                          eval_f, f_squared, f_squared_deriv, spec_to_text, spectrum)
from .phasespace import (AnalyticStructure, Field, PhaseGrid, RadialProfile, default_grid,
                         fock_wigner, integrate, mesh, partial_field)
from .starproduct import ProductSetup, fstar_apply, moyal_apply
from .symbols import PolySymbol, annihilation_symbol, creation_symbol, moyal_exact

DEFAULT_R_CUT = 4.0


# ---------------------------------------------------------------------------
# Profiles in the excitation number n (scale = 2 hbar makes v = n)


class HamiltonianProfile(RadialProfile):
    """h(n) = (hbar w / 2) [(n+1) f(n+1)^2 + n f(n)^2] with two derivatives."""

    max_order = 2

    def __init__(self, spec: DeformationSpec, hbar: float, omega: float):
        self.spec = spec
        self.hbar = hbar
        self.omega = omega

    def _g(self, x, order):
        # g(x) = x f(x)^2 and its first two derivatives, via s = f^2
        if order == 0:
            return x * f_squared(self.spec, x)
        s1 = f_squared_deriv(self.spec, x, 1)
        if order == 1:
            return f_squared(self.spec, x) + x * s1
        return 2.0 * s1 + x * f_squared_deriv(self.spec, x, 2)

    def deriv(self, n, order: int):
        if order > self.max_order:
            raise ValueError("Hamiltonian profile carries two derivatives only")
        pref = 0.5 * self.hbar * self.omega
        return pref * (self._g(np.asarray(n, dtype=float) + 1.0, order)
                       + self._g(np.asarray(n, dtype=float), order))


class DeformationProfile(RadialProfile):
    """f(n) itself, with two derivatives; backs the ladder fields a f(n)."""

    max_order = 2

    def __init__(self, spec: DeformationSpec):
        self.spec = spec

    def deriv(self, n, order: int):
        if order == 0:
            return eval_f(self.spec, n)
        if order > self.max_order:
            raise ValueError("deformation profile carries two derivatives only")
        return deriv_f(self.spec, n, order)


# ---------------------------------------------------------------------------
# Hamiltonian field


@dataclass(frozen=True)
class HamiltonianField:
    field: Field
    spec: DeformationSpec
    hbar: float
    omega: float


def build_hamiltonian(spec: DeformationSpec, grid: PhaseGrid,
                      omega: float = 1.0) -> HamiltonianField:
    """Sample the deformed Hamiltonian on a grid, with analytic derivatives."""
    if omega <= 0:
        raise ValueError("omega must be > 0")
    structure = AnalyticStructure(HamiltonianProfile(spec, grid.hbar, omega),
                                  scale=2.0 * grid.hbar)
    label = f"H[{spec_to_text(spec)}]"
    return HamiltonianField(Field(grid, structure.evaluate(grid), label=label,
                                  analytic=structure),
                            spec, grid.hbar, omega)


def ladder_fields(spec: DeformationSpec, grid: PhaseGrid) -> tuple[Field, Field]:
    """A = a f(n) and Abar = abar f(n) sampled with exact partials."""
    profile = DeformationProfile(spec)
    sA = AnalyticStructure(profile, scale=2.0 * grid.hbar,
                           terms={0: annihilation_symbol()})
    sB = AnalyticStructure(profile, scale=2.0 * grid.hbar,
                           terms={0: creation_symbol()})
    A = Field(grid, sA.evaluate(grid), label=f"A[{spec_to_text(spec)}]", analytic=sA)
    B = Field(grid, sB.evaluate(grid), label=f"Abar[{spec_to_text(spec)}]", analytic=sB)
    return A, B


# ---------------------------------------------------------------------------
# Residual reports


@dataclass(frozen=True)
class Witness:
    q: float
    p: float
    value: complex


@dataclass(frozen=True)
class ResidualReport:
    identity_name: str
    max_abs: float
    l2: float
    imag_max: float
    witness: Witness
    params: dict = dc_field(default_factory=dict)


def _region_norms(residual: np.ndarray, grid: PhaseGrid,
                  r_cut: float | None) -> tuple[float, float, Witness]:
    Q, P = mesh(grid)
    absr = np.abs(residual)
    if r_cut is None:
        masked = absr
    else:
        inside = (Q * Q + P * P) <= r_cut * r_cut
        masked = np.where(inside, absr, -1.0)
    flat = int(np.argmax(masked))  # first occurrence: lowest q index, then p index
    iq, ip = np.unravel_index(flat, absr.shape)
    max_abs = float(masked[iq, ip])
    if r_cut is None:
        l2 = float(np.sqrt(np.sum(absr * absr) * grid.dq * grid.dp))
    else:
        l2 = float(np.sqrt(np.sum((absr * absr)[inside]) * grid.dq * grid.dp))
    witness = Witness(float(Q[iq, ip]), float(P[iq, ip]), complex(residual[iq, ip]))
    return max_abs, l2, witness


def energy_level(spec: DeformationSpec, n: int, hbar: float, omega: float) -> float:
    """E_n = (hbar w / 2) ((n+1) f(n+1)^2 + n f(n)^2), assembled directly.

    Intentionally a separate code path from deformation.spectrum (which goes
    through the commutator target) so the two can be cross-checked.
    """
    s1 = f_squared(spec, float(n) + 1.0)
    s0 = f_squared(spec, float(n))
    return 0.5 * hbar * omega * ((n + 1) * s1 + n * s0)


def genvalue_residual(spec: DeformationSpec, n: int, grid: PhaseGrid | None = None,
                      omega: float = 1.0, order: str = "first",
                      r_cut: float = DEFAULT_R_CUT) -> ResidualReport:
    """Residual of the star-genvalue equation H star W_n = E_n W_n.

    Identity deformation: exact Moyal product with the harmonic symbol
    (w/2)(q^2+p^2).  Other deformations: first- (or second-) order f-star
    product with the deformed Hamiltonian field; the report records the
    mismatch rather than asserting it away.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if grid is None:
        grid = default_grid()
    hbar = grid.hbar
    w = fock_wigner(n, grid)
    e_n = energy_level(spec, n, hbar, omega)
    e_crosscheck = spectrum(spec, n, hbar, omega)[n].energy
    if spec.kind == "identity":
        h_sym = PolySymbol({(2, 0): 0.5 * omega, (0, 2): 0.5 * omega})
        star = moyal_apply(h_sym, w, hbar)
        path = "moyal_exact"
    else:
        ham = build_hamiltonian(spec, grid, omega)
        star = fstar_apply(ham.field, w, spec, hbar, order=order)
        path = f"fstar_{order}"
    residual = star.values - e_n * w.values
    max_abs, l2, witness = _region_norms(residual, grid, r_cut)
    imag_max = float(np.max(np.abs(residual.imag)))
    avg = integrate(star)
    return ResidualReport(
        identity_name="genvalue",
        max_abs=max_abs, l2=l2, imag_max=imag_max, witness=witness,
        params={
            "spec": spec_to_text(spec), "n": n, "hbar": hbar, "omega": omega,
            "order": order, "path": path, "r_cut": r_cut, "grid": grid,
            "energy": e_n, "energy_crosscheck": e_crosscheck,
            "phase_space_average_re": float(avg.real),
            "phase_space_average_im": float(avg.imag),
        })


def bracket_term(h: Field, w: Field, spec: DeformationSpec,
                 hbar: float | None = None) -> Field:
    """(i hbar / 2) F(n) (dh/dq dw/dp - dh/dp dw/dq), analytic where possible."""
    s = ProductSetup((h, w), spec, hbar)
    hq = partial_field(h, 1, 0)
    hp = partial_field(h, 0, 1)
    wq = partial_field(w, 1, 0)
    wp = partial_field(w, 0, 1)
    vals = (0.5j * s.hbar) * s.F * (hq * wp - hp * wq)
    return Field(s.grid, vals, label=f"bracket({h.label}, {w.label})")


def commutator_deviation(spec: DeformationSpec, grid: PhaseGrid | None = None,
                         order: str = "first") -> tuple[Field, ResidualReport]:
    """Deviation of (1/hbar)[A, Abar]_f from the target (n+1)f(n+1)^2 - n f(n)^2.

    Also evaluates the closed-form first-order prediction
    F(n) (f(n)^2 + 2 n f(n) f'(n)) and reports how closely the grid
    computation tracks it (params key "closed_form_match").  Returns the
    pointwise deviation field together with the report.
    """
    if grid is None:
        grid = default_grid()
    hbar = grid.hbar
    A, Abar = ladder_fields(spec, grid)
    s = ProductSetup((A, Abar), spec, hbar, order)
    comm = s.commutator(A, Abar)
    Q, P = mesh(grid)
    nfield = (Q * Q + P * P) / (2.0 * hbar)
    target = commutator_target(spec, nfield)
    # first-order closed form F(n) (f^2 + 2 n f f'), with 2 f f' = (f^2)'; s.F is F(nfield)
    closed = s.F * (f_squared(spec, nfield) + nfield * f_squared_deriv(spec, nfield, 1))
    deviation = comm.values - target
    max_abs, l2, witness = _region_norms(deviation, grid, r_cut=None)
    imag_max = float(np.max(np.abs(comm.values.imag)))
    report = ResidualReport(
        identity_name="commutator",
        max_abs=max_abs, l2=l2, imag_max=imag_max, witness=witness,
        params={
            "spec": spec_to_text(spec), "n": None, "hbar": hbar, "omega": None,
            "order": order, "grid": grid,
            "closed_form_match": float(np.max(np.abs(comm.values - closed))),
            "closed_form_vs_target_max": float(np.max(np.abs(closed - target))),
        })
    dev_field = Field(grid, deviation, label=f"commutator deviation[{spec_to_text(spec)}]")
    return dev_field, report


def commutator_report(spec: DeformationSpec, grid: PhaseGrid | None = None,
                      order: str = "first") -> ResidualReport:
    return commutator_deviation(spec, grid, order)[1]


# ---------------------------------------------------------------------------
# Associativity scaling


@dataclass(frozen=True)
class AssocScaling:
    """Defect norms per hbar plus the fitted log-log slope.

    When every defect sits below the 1e-14 roundoff floor the fit is
    degenerate; slope is None and exact_zero is set instead.
    """

    points: tuple[tuple[float, float], ...]
    slope: float | None
    exact_zero: bool


EXACT_ZERO_FLOOR = 1e-14


def associativity_defect(k: Field, g: Field, h: Field, spec: DeformationSpec,
                         hbar_list, order: str = "first") -> AssocScaling:
    """L2 norm of (k *_f g) *_f h - k *_f (g *_f h) across hbar values.

    The defect is defined for the first-order product. Identity-deformation
    polynomial inputs route through the exact Moyal product, where the
    defect vanishes identically.
    """
    if order != "first":
        raise ValueError("the associativity defect is defined at order='first'")
    hbars = [float(x) for x in hbar_list]
    if len(set(hbars)) < 3:
        raise ValueError("need at least 3 distinct hbar values")
    if max(hbars) / min(hbars) < 100.0:
        raise ValueError("hbar values should span at least two decades")
    grid = k.grid
    if g.grid != grid or h.grid != grid:
        raise ValueError("fields must share a grid")
    all_poly = all(f.poly is not None for f in (k, g, h))
    q, p = grid.axes()
    points = []
    for hbar in hbars:
        if spec.kind == "identity" and all_poly:
            left = moyal_exact(moyal_exact(k.poly, g.poly, hbar), h.poly, hbar)
            right = moyal_exact(k.poly, moyal_exact(g.poly, h.poly, hbar), hbar)
            diff = (left - right).eval_grid(q, p)
        else:
            s = ProductSetup((k, g, h), spec, hbar, order, jet_order=1)
            kg = s.product(k, g, jets=True)
            gh = s.product(g, h, jets=True)
            diff = s.product(kg, h).values - s.product(k, gh).values
        norm = float(np.sqrt(np.sum(np.abs(diff) ** 2) * grid.dq * grid.dp))
        points.append((hbar, norm))
    if all(norm < EXACT_ZERO_FLOOR for _, norm in points):
        return AssocScaling(tuple(points), slope=None, exact_zero=True)
    logs_h = np.log([p[0] for p in points])
    logs_d = np.log([max(p[1], 1e-300) for p in points])
    slope = float(np.polyfit(logs_h, logs_d, 1)[0])
    return AssocScaling(tuple(points), slope=slope, exact_zero=False)
