"""Built-in verification suite.

Runs the battery of exactness, normalization, correspondence and scaling
checks and returns a deterministic summary (same build, same bytes).
``quick`` shrinks grids and level counts for a fast smoke run; the full
mode uses the canonical parameters.

Checks 1-3 read the number-state Wigner functions W_n.  One pass per run
(``fock_pass``) builds each W_n once and feeds all three, so its profile
tables are shared by every check that reads it; the pass belongs to one
``run_verification`` call and is not kept.  The deformed stars' products
with every W_n are one ``imag_maxima`` sweep over the row blocks, on each
star's H (``hamiltonian_structure``, never sampled) and each kept W_n's
``source``, both analytic structures, so no mesh-sized H, W_n or partial is
held while it runs, and each operand's first partials are formed once per
block for every product that reads them.  Check 5 takes A and Abar as
structures and check 6 the probe as ``PolySymbol``s (``probe_defect``).
The suite runs on one thread.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .deformation import identity_spec, registry_specs, spec_to_text, spectrum, sqrt_n_spec
from .genvalue import (ASSOC_HBARS, DEFAULT_R_CUT, _residual_report, commutator_deviation,
                       hamiltonian_structure, probe_defect)
from .phasespace import (PhaseGrid, default_grid, fcs_wigner, fd4_partial, fock_wigner,
                         integrate, partial_field)
from .starproduct import ProductSetup, imag_maxima
from .symbols import (PolySymbol, annihilation_symbol, creation_symbol, moyal_exact,
                      random_polynomial)


def _check(name: str, observed: float, tolerance: float, larger_is_better: bool = False,
           detail: str = "") -> dict:
    passed = observed >= tolerance if larger_is_better else observed <= tolerance
    entry = {
        "name": name,
        "passed": bool(passed),
        "observed": float(observed),
        "tolerance": float(tolerance),
        "direction": ">=" if larger_is_better else "<=",
    }
    if detail:
        entry["detail"] = detail
    return entry


def _grid(quick: bool) -> PhaseGrid:
    return replace(default_grid(), n_q=257, n_p=257) if quick else default_grid()


@dataclass(frozen=True)
class FockPass:
    """Floats from one pass over W_0..W_n_norm, indexed by n."""

    residual: tuple[float, ...]          # identity genvalue max_abs, n <= n_top
    imag: tuple[tuple[float, ...], ...]  # max |Im(H star W_n)| per registry spec, n <= n_top
    norm: tuple[float, ...]              # |integral W_n - 1|, n <= n_norm


def fock_pass(quick: bool) -> FockPass:
    """Builds each W_n once, n = 0..n_norm, and keeps floats only.

    Every n gives |integral W_n - 1| (check 3).  For n <= n_top the pass also
    takes the identity residual report on that W_n, whose max_abs is check 1's
    and whose imag_max is check 2's identity column (W_n is real, so the
    residual's imaginary part is the product's), and keeps W_n's analytic
    structure alone.  One ``imag_maxima`` sweep over the row blocks then
    gives the other columns: each deformed registry star's H, a structure
    too, with every kept W_n, each operand's partials formed once per block.
    """
    grid = _grid(quick)
    n_top, n_norm = (3, 8) if quick else (10, 20)
    identity = identity_spec()
    residual, identity_imag, structures, norm = [], [], [], []
    for n in range(n_norm + 1):
        w = fock_wigner(n, grid)
        norm.append(abs(integrate(w).real - 1.0))
        if n <= n_top:
            report = _residual_report(identity, n, w, 1.0, DEFAULT_R_CUT)
            residual.append(report.max_abs)
            identity_imag.append(report.imag_max)
            structures.append(w.source)
    del w  # the sweep holds no mesh-sized W_n
    stars = [(ProductSetup(grid, spec), hamiltonian_structure(spec, grid, 1.0))
             for spec in registry_specs() if spec.kind != "identity"]
    deformed = iter(imag_maxima(stars, structures))
    columns = [identity_imag if spec.kind == "identity" else next(deformed)
               for spec in registry_specs()]
    return FockPass(tuple(residual), tuple(zip(*columns)), tuple(norm))


def check_moyal_genvalue(quick: bool, fock: FockPass) -> dict:
    residual = fock.residual
    return _check("moyal_genvalue_identity", max(residual), 1e-8,
                  detail=f"n<={len(residual) - 1}, region r<=4")


def check_imag_vanishing(quick: bool, fock: FockPass) -> dict:
    imag = fock.imag
    worst = 0.0
    worst_at = ""
    for k, spec in enumerate(registry_specs()):
        local = max(row[k] for row in imag)
        if local > worst:
            worst = local
            worst_at = spec_to_text(spec)
    return _check("imaginary_part_vanishing", worst, 1e-10,
                  detail=f"worst registry spec: {worst_at}")


def check_wigner_normalization(quick: bool, fock: FockPass) -> dict:
    grid = _grid(quick)
    norm = fock.norm
    worst = max(norm)
    for spec in registry_specs():
        for z2 in (0.5, 1.0, 2.0):
            worst = max(worst, abs(integrate(fcs_wigner(spec, z2, grid)).real - 1.0))
    return _check("wigner_normalization", worst, 1e-6,
                  detail=f"fock n<={len(norm) - 1} and registry coherent mixtures")


def check_moyal_algebra(quick: bool, fock: FockPass) -> dict:
    hbar = 1.0
    a = annihilation_symbol()
    abar = creation_symbol()
    comm = (moyal_exact(a, abar, hbar) - moyal_exact(abar, a, hbar)) * (1.0 / hbar)
    dev_comm = (comm - PolySymbol.constant(1.0)).max_abs_coeff()
    rng = np.random.default_rng(20250810)
    trials = 8 if quick else 20
    worst_rel = 0.0
    for _ in range(trials):
        k = random_polynomial(rng, 4)
        g = random_polynomial(rng, 4)
        h = random_polynomial(rng, 4)
        left = moyal_exact(moyal_exact(k, g, hbar), h, hbar)
        right = moyal_exact(k, moyal_exact(g, h, hbar), hbar)
        scale = max(left.max_abs_coeff(), 1.0)
        worst_rel = max(worst_rel, (left - right).max_abs_coeff() / scale)
    worst = max(dev_comm, worst_rel)
    return _check("moyal_algebra", worst, 1e-12,
                  detail=f"commutator dev {dev_comm:.3e}, assoc rel {worst_rel:.3e}")


def check_commutator_correspondence(quick: bool, fock: FockPass) -> dict:
    grid = _grid(quick)
    rep_id = commutator_deviation(identity_spec(), grid)[1]
    rep_sq = commutator_deviation(sqrt_n_spec(), grid)[1]
    match = rep_sq.extra["closed_form_match"]
    entry = _check("commutator_correspondence", max(rep_id.max_abs, match), 1e-8,
                   detail=(f"identity dev {rep_id.max_abs:.3e} (tol 1e-10); "
                           f"sqrt_n closed-form match {match:.3e} (tol 1e-8); "
                           f"sqrt_n deviation from (2n+1) target {rep_sq.max_abs:.6e} "
                           "reported, not asserted"))
    entry["passed"] = bool(rep_id.max_abs <= 1e-10 and match <= 1e-8)
    return entry


def check_associativity_scaling(quick: bool, fock: FockPass) -> dict:
    result = probe_defect(_grid(quick), sqrt_n_spec(), ASSOC_HBARS)
    slope = result.slope if result.slope is not None else float("inf")
    defects = ", ".join(f"{hb:g}:{d:.3e}" for hb, d in result.points)
    return _check("associativity_scaling", slope, 1.9, larger_is_better=True,
                  detail=f"defects {defects}")


def check_spectrum_closed_form(quick: bool, fock: FockPass) -> dict:
    worst = max(abs(e - (n + 0.5)) for n, e in enumerate(spectrum(identity_spec(), 100)))
    for n, e in enumerate(spectrum(sqrt_n_spec(), 100)):
        expected = ((n + 1) ** 2 + n**2) / 2.0
        worst = max(worst, abs(e - expected) / expected)
    return _check("spectrum_closed_form", worst, 1e-12,
                  detail="identity exact half-integers; sqrt_n ((n+1)^2+n^2)/2, n<=100")


def check_derivative_crosscheck(quick: bool, fock: FockPass) -> dict:
    # fd4 truncation is (h^4/30) |d^5 W_4| with max |d^5 W_4| ~ 5.28e3 on [-6,6]^2,
    # so the differentiated axis needs h <= 8.7e-3 to get under 1e-6:
    # 1537 samples there (h = 1/128, floor ~6.6e-7), 65 across it.
    worst = 0.0
    for key in ((1, 0), (0, 1)):
        n_q, n_p = (1537, 65) if key == (1, 0) else (65, 1537)
        grid = PhaseGrid(-6.0, 6.0, -6.0, 6.0, n_q, n_p, hbar=1.0, offset=0.5)
        w4 = fock_wigner(4, grid)
        diff = fd4_partial(w4, *key) - partial_field(w4, *key)
        worst = max(worst, float(np.abs(diff[2:-2, 2:-2]).max()))
    return _check("derivative_crosscheck", worst, 1e-6,
                  detail="W_4 on [-6,6]^2, h = 1/128 along the differentiated axis "
                         "(1537 x 65 per axis): fd4 floor h^4/30 max|d^5 W_4| ~ 6.6e-7")


# Each check takes the run's mode and the run's Fock pass; the checks that read
# no W_n ignore it.
ALL_CHECKS = (
    check_moyal_genvalue,
    check_imag_vanishing,
    check_wigner_normalization,
    check_moyal_algebra,
    check_commutator_correspondence,
    check_associativity_scaling,
    check_spectrum_closed_form,
    check_derivative_crosscheck,
)


def run_verification(quick: bool = False) -> dict:
    fock = fock_pass(quick)
    checks = [fn(quick, fock) for fn in ALL_CHECKS]
    failures = sum(1 for c in checks if not c["passed"])
    return {
        "mode": "quick" if quick else "full",
        "checks": checks,
        "failures": failures,
        "all_pass": failures == 0,
    }
