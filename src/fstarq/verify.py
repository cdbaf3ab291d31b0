"""Built-in verification suite.

Runs the battery of exactness, normalization, correspondence and scaling
checks and returns a deterministic summary (same build, same bytes).
``quick`` shrinks grids and level counts for a fast smoke run; the full
mode uses the canonical parameters.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .deformation import identity_spec, registry_specs, spec_to_text, spectrum, sqrt_n_spec
from .genvalue import (associativity_defect, build_hamiltonian, commutator_report,
                       genvalue_residual)
from .phasespace import (PhaseGrid, derivative, fcs_wigner, field_from_poly, fock_wigner,
                         integrate, mesh, partial_field)
from .starproduct import ProductSetup, moyal_apply
from .symbols import (PolySymbol, annihilation_symbol, creation_symbol, moyal_exact,
                      random_polynomial)


def worker_count() -> int:
    """Worker cap honoring the FSTAR_THREADS environment variable."""
    ncpu = os.cpu_count() or 1
    env = os.environ.get("FSTAR_THREADS")
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise ValueError("FSTAR_THREADS must be an integer") from None
        return max(1, min(ncpu, cap))
    return min(ncpu, 8)


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


def _grid(quick: bool, hbar: float = 1.0) -> PhaseGrid:
    n = 257 if quick else 513
    return PhaseGrid(-8.0, 8.0, -8.0, 8.0, n, n, hbar=hbar, offset=0.5)


def check_moyal_genvalue(quick: bool) -> dict:
    grid = _grid(quick)
    spec = identity_spec()
    n_top = 3 if quick else 10
    mesh(grid)  # built here: lru_cache lets pool threads that miss together each build it
    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        reports = list(pool.map(
            lambda n: genvalue_residual(spec, n, grid, omega=1.0), range(n_top + 1)))
    worst = max(r.max_abs for r in reports)
    return _check("moyal_genvalue_identity", worst, 1e-8,
                  detail=f"n<={n_top}, region r<=4")


def check_imag_vanishing(quick: bool) -> dict:
    grid = _grid(quick)
    n_top = 3 if quick else 10
    worst = 0.0
    worst_at = ""

    def imag_of(ham, setup, n):
        w = fock_wigner(n, grid)
        if setup is None:
            h_sym = PolySymbol({(2, 0): 0.5, (0, 2): 0.5})
            star = moyal_apply(h_sym, w)
        else:
            star = setup.product(ham.field, w)
        return float(np.max(np.abs(star.values.imag)))

    for spec in registry_specs():
        ham = setup = None
        if spec.kind != "identity":
            # every task reads these: built here, no task writes shared state
            ham = build_hamiltonian(spec, grid)
            partial_field(ham.field, 1, 0)
            partial_field(ham.field, 0, 1)
            setup = ProductSetup((ham.field,), spec)
        with ThreadPoolExecutor(max_workers=worker_count()) as pool:
            vals = list(pool.map(lambda n: imag_of(ham, setup, n), range(n_top + 1)))
        local = max(vals)
        if local > worst:
            worst = local
            worst_at = spec_to_text(spec)
    return _check("imaginary_part_vanishing", worst, 1e-10,
                  detail=f"worst registry spec: {worst_at}")


def check_wigner_normalization(quick: bool) -> dict:
    grid = _grid(quick)
    n_top = 8 if quick else 20
    worst = 0.0
    for n in range(n_top + 1):
        worst = max(worst, abs(integrate(fock_wigner(n, grid)).real - 1.0))
    for spec in registry_specs():
        for z2 in (0.5, 1.0, 2.0):
            worst = max(worst, abs(integrate(fcs_wigner(spec, z2, grid)).real - 1.0))
    return _check("wigner_normalization", worst, 1e-6,
                  detail=f"fock n<={n_top} and registry coherent mixtures")


def check_moyal_algebra(quick: bool) -> dict:
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


def check_commutator_correspondence(quick: bool) -> dict:
    grid = _grid(quick)
    rep_id = commutator_report(identity_spec(), grid)
    rep_sq = commutator_report(sqrt_n_spec(), grid)
    ok_id = rep_id.max_abs <= 1e-10
    match = rep_sq.params["closed_form_match"]
    ok_sq = match <= 1e-8
    entry = {
        "name": "commutator_correspondence",
        "passed": bool(ok_id and ok_sq),
        "observed": float(max(rep_id.max_abs, match)),
        "tolerance": 1e-8,
        "direction": "<=",
        "detail": (f"identity dev {rep_id.max_abs:.3e} (tol 1e-10); "
                   f"sqrt_n closed-form match {match:.3e} (tol 1e-8); "
                   f"sqrt_n deviation from (2n+1) target {rep_sq.max_abs:.6e} "
                   "reported, not asserted"),
    }
    return entry


def check_associativity_scaling(quick: bool) -> dict:
    grid = _grid(quick)
    k = field_from_poly(PolySymbol.q(), grid, "q")
    g = field_from_poly(PolySymbol.p(), grid, "p")
    h = field_from_poly(PolySymbol.q() + PolySymbol.p(), grid, "q+p")
    result = associativity_defect(k, g, h, sqrt_n_spec(), [1e-1, 1e-2, 1e-3])
    slope = result.slope if result.slope is not None else float("inf")
    defects = ", ".join(f"{hb:g}:{d:.3e}" for hb, d in result.points)
    return _check("associativity_scaling", slope, 1.9, larger_is_better=True,
                  detail=f"defects {defects}")


def check_spectrum_closed_form(quick: bool) -> dict:
    rows_id = spectrum(identity_spec(), 100)
    worst = max(abs(row.energy - (row.n + 0.5)) for row in rows_id)
    rows_sq = spectrum(sqrt_n_spec(), 100)
    for row in rows_sq:
        expected = ((row.n + 1) ** 2 + row.n**2) / 2.0
        worst = max(worst, abs(row.energy - expected) / expected)
    return _check("spectrum_closed_form", worst, 1e-12,
                  detail="identity exact half-integers; sqrt_n ((n+1)^2+n^2)/2, n<=100")


def check_derivative_crosscheck(quick: bool) -> dict:
    # fd4 truncation is (h^4/30) |d^5 W_4| with max |d^5 W_4| ~ 5.28e3 on [-6,6]^2,
    # so the differentiated axis needs h <= 8.7e-3 to get under 1e-6:
    # 1537 samples there (h = 1/128, floor ~6.6e-7), 65 across it.
    worst = 0.0
    for axis in (0, 1):
        n_q, n_p = (1537, 65) if axis == 0 else (65, 1537)
        grid = PhaseGrid(-6.0, 6.0, -6.0, 6.0, n_q, n_p, hbar=1.0, offset=0.5)
        w4 = fock_wigner(4, grid)
        diff = (derivative(w4, axis, "fd4").values
                - derivative(w4, axis, "analytic_radial").values)
        worst = max(worst, float(np.abs(diff[2:-2, 2:-2]).max()))
    return _check("derivative_crosscheck", worst, 1e-6,
                  detail="W_4 on [-6,6]^2, h = 1/128 along the differentiated axis "
                         "(1537 x 65 per axis): fd4 floor h^4/30 max|d^5 W_4| ~ 6.6e-7")


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
    checks = [fn(quick) for fn in ALL_CHECKS]
    failures = sum(1 for c in checks if not c["passed"])
    return {
        "mode": "quick" if quick else "full",
        "checks": checks,
        "failures": failures,
        "all_pass": failures == 0,
    }
