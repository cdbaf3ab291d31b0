"""Star-genvalue diagnostics for deformed oscillators.

The deformed Hamiltonian field is the level-energy formula evaluated at the
continuous excitation number n = (q^2 + p^2) / (2 hbar):

    H(q, p) = (hbar w / 2) [ (n+1) f(n+1)^2 + n f(n)^2 ]

``hamiltonian_star`` chooses the product for H star W.  For the identity
deformation it is the exact Moyal product with the harmonic symbol, anchored
to (w/2)(q^2 + p^2) star W_n = hbar w (n + 1/2) W_n; the substituted field
above differs from that symbol by the constant hbar w / 2.  For every other
deformation it is the first-order f-star product with the deformed
Hamiltonian, whose residual is measured and reported, not asserted.

The diagnostics' products take H (``hamiltonian_structure``), A and Abar as
``AnalyticStructure``s labelled as their fields, and the associativity probe
q, p, q + p (``probe_defect``) as ``PolySymbol``s; only W_n, whose samples
the residual subtracts, is a ``Field``.  ``build_hamiltonian``,
``ladder_fields`` and ``assoc_probe`` sample the same sources as fields.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .deformation import (DeformationSpec, commutator_target, eval_f, f_squared,
                          require_positive, spec_to_text, spectrum)
from .phasespace import (AnalyticStructure, Field, PhaseGrid, RadialProfile, _require_finite,
                         field_from_poly, fock_wigner, integrate)
from .starproduct import ProductSetup, moyal_apply
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
        # g(x) = x s(x) with s = f^2, and g^(k) = k s^(k-1) + x s^(k).  At order
        # 1, x s'(x) is its limit 0 at x = 0, which holds wherever s(0) is finite
        # (s' diverges there for sqrt(n) growth); x s''(x) may diverge, so is kept
        if order == 0:
            return x * f_squared(self.spec, x)
        ds = f_squared(self.spec, x, order)
        if order == 1:
            ds = np.where(x == 0, 0.0, ds)
        return order * f_squared(self.spec, x, order - 1) + x * ds

    def deriv(self, v, order: int):
        pref = 0.5 * self.hbar * self.omega
        return pref * (self._g(np.asarray(v, dtype=float) + 1.0, order)
                       + self._g(np.asarray(v, dtype=float), order))


class DeformationProfile(RadialProfile):
    """f(n) itself, with two derivatives; backs the ladder fields a f(n)."""

    max_order = 2

    def __init__(self, spec: DeformationSpec):
        self.spec = spec

    def deriv(self, v, order: int):
        return eval_f(self.spec, v, order)


# ---------------------------------------------------------------------------
# Hamiltonian field


def _labelled(structure: AnalyticStructure, label: str) -> AnalyticStructure:
    """structure, named as the field it samples is labelled."""
    structure.label = label
    return structure


def _sampled(structure: AnalyticStructure, grid: PhaseGrid) -> Field:
    """A labelled structure's field on grid.  The field carries the label, so
    its source is the same sum unlabelled, as every field's source is."""
    return (AnalyticStructure(structure.profile, structure.scale, structure.terms)
            .field(grid, structure.label))


def hamiltonian_structure(spec: DeformationSpec, grid: PhaseGrid,
                          omega: float) -> AnalyticStructure:
    """The deformed Hamiltonian's exact source on a grid: the structure of
    ``build_hamiltonian``'s field, labelled as it, with no mesh-sized values.
    H is radial, so its table over the grid's distinct radii is finite
    exactly where its samples would be; it is made and refused here, at the
    first (q, p) in mesh order, as sampling the field refuses it."""
    require_positive("omega", omega)
    structure = _labelled(AnalyticStructure(HamiltonianProfile(spec, grid.hbar, omega),
                                            scale=2.0 * grid.hbar), f"H[{spec_to_text(spec)}]")
    table = structure.profile.table(grid, structure.scale, 0)
    if not np.isfinite(table).all():
        _require_finite(grid, grid.gather(table, slice(None)), f"field {structure.label}")
    return structure


def build_hamiltonian(spec: DeformationSpec, grid: PhaseGrid, omega: float = 1.0) -> Field:
    """Sample the deformed Hamiltonian on a grid, with analytic derivatives."""
    return _sampled(hamiltonian_structure(spec, grid, omega), grid)


def hamiltonian_star(spec: DeformationSpec, grid: PhaseGrid, omega: float = 1.0):
    """(star, path) with star(w) = H star w.  For a deformed spec, H's exact
    source is checked and F(n) sampled here, once for every product taken
    through star; no mesh-sized H is formed."""
    if spec.kind == "identity":
        h_sym = PolySymbol({(2, 0): 0.5 * omega, (0, 2): 0.5 * omega})
        return functools.partial(moyal_apply, h_sym), "moyal_exact"
    ham = hamiltonian_structure(spec, grid, omega)
    return functools.partial(ProductSetup(grid, spec).product, ham), "fstar_first"


def _ladder(spec: DeformationSpec, grid: PhaseGrid) -> tuple[AnalyticStructure, ...]:
    """A = a f(n) and Abar = abar f(n) as exact sources on a grid, labelled as
    their fields.  f's table over the grid's distinct radii is made here, so
    f is refused before anything else is sampled, as sampling A refused it."""
    profile = DeformationProfile(spec)
    profile.table(grid, 2.0 * grid.hbar, 0)
    return tuple(_labelled(AnalyticStructure(profile, 2.0 * grid.hbar, {0: symbol}),
                           f"{name}[{spec_to_text(spec)}]")
                 for name, symbol in (("A", annihilation_symbol()), ("Abar", creation_symbol())))


def ladder_fields(spec: DeformationSpec, grid: PhaseGrid) -> tuple[Field, Field]:
    """A = a f(n) and Abar = abar f(n) sampled with exact partials."""
    return tuple(_sampled(structure, grid) for structure in _ladder(spec, grid))


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
    spec: str            # spec_to_text of the deformation
    n: int | None        # n and omega are None for the commutator
    omega: float | None
    grid: PhaseGrid      # the report's hbar is grid.hbar
    max_abs: float
    l2: float
    imag_max: float
    witness: Witness
    extra: dict          # the identity's own numbers, by name


def _region_norms(residual: np.ndarray, grid: PhaseGrid,
                  r_cut: float | None) -> tuple[float, float, Witness]:
    absr = squares = np.abs(residual)
    if r_cut is not None:
        inside = grid.radial(lambda v: v <= r_cut * r_cut)
        if not inside.any():
            raise ValueError(f"r_cut = {r_cut!r}: no grid sample lies inside the disc")
        squares = absr[inside]  # the in-disc samples, in mesh order
        absr[~inside] = -1.0  # masked in place
    flat = int(np.argmax(absr))  # first occurrence: lowest q index, then p index
    iq, ip = np.unravel_index(flat, absr.shape)
    max_abs = float(absr[iq, ip])
    # squared in place: every sample, or the in-disc ones only, in mesh order
    squares *= squares
    l2 = float(np.sqrt(np.sum(squares) * grid.dq * grid.dp))
    witness = Witness(float(grid.q_values()[iq]), float(grid.p_values()[ip]),
                      complex(residual[iq, ip]))
    return max_abs, l2, witness


def _report(identity_name: str, residual: np.ndarray, grid: PhaseGrid, disc: float | None,
            spec: DeformationSpec, n: int | None, omega: float | None,
            **extra) -> ResidualReport:
    """residual's report: norms over the disc r <= disc (None: all), then max |Im|."""
    max_abs, l2, witness = _region_norms(residual, grid, disc)
    imag_max = float(np.max(np.abs(residual.imag)))
    return ResidualReport(identity_name, spec_to_text(spec), n, omega, grid,
                          max_abs, l2, imag_max, witness, extra)


def energy_level(spec: DeformationSpec, n: int, hbar: float, omega: float) -> float:
    """E_n = h(n), the Hamiltonian profile at n.  A separate path from
    deformation.spectrum (via the commutator target), so the two cross-check."""
    return float(HamiltonianProfile(spec, hbar, omega).deriv(float(n), 0))


def genvalue_residual(spec: DeformationSpec, n: int, grid: PhaseGrid,
                      omega: float = 1.0, r_cut: float = DEFAULT_R_CUT) -> ResidualReport:
    """Residual of the star-genvalue equation H star W_n = E_n W_n.

    The product is ``hamiltonian_star``'s; for a deformed spec the report
    records the mismatch rather than asserting it away.  The norms cover the
    disc q^2 + p^2 <= r_cut^2.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    require_positive("omega", omega)
    require_positive("r_cut", r_cut)
    return _residual_report(spec, n, fock_wigner(n, grid), omega, r_cut)


def _residual_report(spec: DeformationSpec, n: int, w: Field, omega: float,
                     r_cut: float) -> ResidualReport:
    """genvalue_residual's report for a W_n the caller has built."""
    grid = w.grid
    hbar = grid.hbar
    e_n = energy_level(spec, n, hbar, omega)
    e_crosscheck = float(spectrum(spec, n, hbar, omega)[n])
    h_star, path = hamiltonian_star(spec, grid, omega)
    star = h_star(w)
    del h_star  # H and F(n) go before the residual is formed
    avg = integrate(star)
    residual = star.values  # star - E_n W, formed in the product's buffer
    for rows in grid.row_blocks():
        residual[rows] -= e_n * w.values[rows]
    del w  # a W_n built for this report goes before its norms are taken
    return _report("genvalue", residual, grid, r_cut, spec, n, omega,
                   path=path, r_cut=r_cut, energy=e_n, energy_crosscheck=e_crosscheck,
                   phase_space_average_re=float(avg.real),
                   phase_space_average_im=float(avg.imag))


def commutator_deviation(spec: DeformationSpec, grid: PhaseGrid) -> tuple[Field, ResidualReport]:
    """Deviation of (1/hbar)[A, Abar]_f from the target (n+1)f(n+1)^2 - n f(n)^2.

    Also evaluates the closed-form first-order prediction
    F(n) (f(n)^2 + 2 n f(n) f'(n)) and reports how closely the grid
    computation tracks it (extra key "closed_form_match").  Returns the
    pointwise deviation field together with the report.
    """
    hbar = grid.hbar
    A, Abar = _ladder(spec, grid)
    s = ProductSetup(grid, spec)
    comm = s.commutator(A, Abar).values
    # the target and the closed form are tables over the distinct radii, as s.F is
    target = grid.radial_table(functools.partial(commutator_target, spec), 2.0 * hbar)
    # first-order closed form F(n) (f^2 + 2 n f f'), with 2 f f' = (f^2)'
    closed = s.F * grid.radial_table(lambda n: f_squared(spec, n) + n * f_squared(spec, n, 1),
                                     2.0 * hbar)
    closed_vs_target = float(np.max(np.abs(closed - target)))
    # one pass: each block is matched to the closed form, then turned into the
    # deviation in the commutator's buffer
    deviation = comm
    maxima = []
    for rows in grid.row_blocks():
        maxima.append(np.max(np.abs(comm[rows] - grid.gather(closed, rows))))
        deviation[rows] -= grid.gather(target, rows)
    match = float(np.max(maxima))
    # the target is real, so deviation.imag is the commutator's imaginary part
    report = _report("commutator", deviation, grid, None, spec, None, None,
                     closed_form_match=match, closed_form_vs_target_max=closed_vs_target)
    dev_field = Field(grid, deviation, label=f"commutator deviation[{spec_to_text(spec)}]")
    return dev_field, report


# ---------------------------------------------------------------------------
# Associativity scaling


@dataclass(frozen=True)
class AssocScaling:
    """Defect norms per hbar plus the fitted log-log slope.

    When every defect sits below the 1e-14 roundoff floor the fit is
    degenerate, and slope is None.
    """

    points: tuple[tuple[float, float], ...]
    slope: float | None


EXACT_ZERO_FLOOR = 1e-14
ASSOC_HBARS = (1e-1, 1e-2, 1e-3)


def _probe_symbols() -> tuple[PolySymbol, PolySymbol, PolySymbol]:
    """The associativity probe: the polynomials q, p and q + p."""
    q, p = PolySymbol.q(), PolySymbol.p()
    return q, p, q + p


def assoc_probe(grid: PhaseGrid) -> tuple[Field, Field, Field]:
    """The fields q, p and q + p on grid, whose defect ``fstarq assoc`` and
    verify's scaling check take over ``ASSOC_HBARS`` (``probe_defect``)."""
    return tuple(field_from_poly(poly, grid) for poly in _probe_symbols())


def probe_defect(grid: PhaseGrid, spec: DeformationSpec, hbar_list) -> AssocScaling:
    """``associativity_defect(*assoc_probe(grid), spec, hbar_list)``, bit for
    bit, taken on the probe's polynomials themselves, so no operand is
    sampled on the mesh: each product forms their samples one row block at a
    time.  Refused as ``associativity_defect`` refuses."""
    return _scaling(grid, _probe_symbols(), spec, hbar_list)


def associativity_defect(k: Field, g: Field, h: Field, spec: DeformationSpec,
                         hbar_list) -> AssocScaling:
    """L2 norm of (k *_f g) *_f h - k *_f (g *_f h) across hbar values.

    The defect is defined for the first-order product. Identity-deformation
    polynomial inputs route through the exact Moyal product, where the
    defect vanishes identically.  Otherwise each hbar streams its real
    |difference|^2 from ``ProductSetup.defect_squared``, then drops its
    setup.  Either route's |difference|^2 is refused where it is not finite,
    and a repeated hbar is refused by name.
    """
    return _scaling(k.grid, (k, g, h), spec, hbar_list)


def _scaling(grid: PhaseGrid, operands, spec: DeformationSpec, hbar_list) -> AssocScaling:
    """The defect of operands, ``Field``s on grid or exact sources (as
    ``_partials`` takes them), at each hbar of hbar_list, and its fitted
    slope; every hbar check runs before any operand is read."""
    hbars = [require_positive("hbar", float(x)) for x in hbar_list]
    if len(set(hbars)) < 3:
        raise ValueError("need at least 3 distinct hbar values")
    for i, hbar in enumerate(hbars):
        if hbar in hbars[:i]:  # a repeat would weight the fit toward it
            raise ValueError(f"hbar = {hbar!r} is given more than once")
    if max(hbars) / min(hbars) < 100.0:
        raise ValueError("hbar values should span at least two decades")
    if any(isinstance(f, Field) and f.grid != grid for f in operands):
        raise ValueError("fields must share a grid")
    points = [(hbar, _defect_norm(grid, *operands, spec, hbar)) for hbar in hbars]
    if all(norm < EXACT_ZERO_FLOOR for _, norm in points):
        return AssocScaling(tuple(points), slope=None)
    logs_h = np.log([p[0] for p in points])
    logs_d = np.log([max(p[1], 1e-300) for p in points])
    slope = float(np.polyfit(logs_h, logs_d, 1)[0])
    return AssocScaling(tuple(points), slope=slope)


def _defect_norm(grid: PhaseGrid, k, g, h, spec: DeformationSpec, hbar: float) -> float:
    """associativity_defect's norm at one hbar, of operands on grid."""
    sources = [f.source if isinstance(f, Field) else f for f in (k, g, h)]
    if spec.kind == "identity" and all(isinstance(f, PolySymbol) for f in sources):
        ks, gs, hs = sources
        left = moyal_exact(moyal_exact(ks, gs, hbar), hs, hbar)
        right = moyal_exact(ks, moyal_exact(gs, hs, hbar), hbar)
        with np.errstate(all="ignore"):  # refused below, with its first (q, p)
            sq = np.abs((left - right).eval_grid(*grid.axes())) ** 2
    else:
        sq = ProductSetup(grid, spec, hbar).defect_squared(k, g, h)
    _require_finite(grid, sq, f"associativity defect at hbar = {hbar!r}")
    return float(np.sqrt(np.sum(sq) * grid.dq * grid.dp))
