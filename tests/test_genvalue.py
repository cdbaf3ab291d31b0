import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fstarq import (NonPositiveValue, PhaseGrid, PolySymbol, associativity_defect,
                    bracket_term, build_hamiltonian, commutator_deviation,
                    commutator_report, deformation, energy_level, expr_spec,
                    field_from_poly, fock_wigner, fstar_apply, genvalue_residual,
                    identity_spec, integrate, ladder_fields, mesh, parse_symbol,
                    qdef_spec, registry_specs, spec_to_text, spectrum, sqrt_n_spec)
from fstarq.phasespace import partial_field, field_from_values
from fstarq.starproduct import ProductSetup
from fstarq.verify import check_imag_vanishing

REGISTRY = registry_specs()
REGISTRY_IDS = [spec_to_text(s) for s in REGISTRY]

SQRT2 = math.sqrt(2.0)

# first verified run on the default grid (513^2, [-8,8]^2, offset 0.5); the
# sqrt_n residual is a regression baseline, not a claim of smallness
GOLDEN_SQRT_N_RESIDUALS = {
    0: (0.5869356979648209, 1.5976683105623155),
    1: (3.993655323322633, 4.180323992013295),
    2: (11.970234506997565, 10.476607266586369),
    3: (23.91755351366767, 20.570034312596484),
}


@pytest.fixture
def amplitude_samples(monkeypatch):
    """Counts of amplitude_F and amplitude_F_deriv calls, wherever fstarq binds them."""
    counts = {"F": 0, "dF": 0}
    for key, name in (("F", "amplitude_F"), ("dF", "amplitude_F_deriv")):
        original = getattr(deformation, name)

        def counted(*args, _key=key, _fn=original, **kwargs):
            counts[_key] += 1
            return _fn(*args, **kwargs)

        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "fstarq" and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return counts


# ---------------------------------------------------------------------------
# Hamiltonian field


def test_hamiltonian_identity_pointwise(origin_grid):
    ham = build_hamiltonian(identity_spec(), origin_grid)
    Q, P = mesh(origin_grid)
    expected = (Q**2 + P**2) / 2.0 + 0.5
    assert np.max(np.abs(ham.field.values - expected)) <= 1e-14


def test_hamiltonian_radial_symmetry(origin_grid):
    ham = build_hamiltonian(qdef_spec(1.2), origin_grid)
    vals = ham.field.values
    assert np.max(np.abs(vals - vals[::-1, :])) <= 1e-12
    assert np.max(np.abs(vals - vals[:, ::-1])) <= 1e-12
    assert np.max(np.abs(vals.imag)) == 0.0


def test_hamiltonian_sqrt_n_value_at_unit_excitation():
    g = PhaseGrid(SQRT2, SQRT2 + 1.0, 0.0, 1.0, 9, 9, hbar=1.0, offset=0.0)
    ham = build_hamiltonian(sqrt_n_spec(), g)
    # n = 1 there: (2 * f(2)^2 + 1 * f(1)^2)/2 = (4 + 1)/2
    assert ham.field.values[0, 0].real == pytest.approx(2.5, rel=1e-14)


def test_negative_expr_f_refused_by_hamiltonian_and_residual(grid513):
    # f = 1 - 0.1 n < 0 for n > 10: squaring f must not hide its sign
    spec = expr_spec("1-0.1*n")
    for call in (lambda: build_hamiltonian(spec, grid513),
                 lambda: genvalue_residual(spec, 3, grid513)):
        with pytest.raises(NonPositiveValue, match=r"at n = 64\.750244140625 for kind 'expr'"):
            call()


def test_hamiltonian_origin_value(origin_grid):
    ham = build_hamiltonian(identity_spec(), origin_grid)
    i0 = list(origin_grid.q_values()).index(0.0)
    assert ham.field.values[i0, i0].real == pytest.approx(0.5, rel=1e-14)


@pytest.mark.parametrize("spec", REGISTRY, ids=REGISTRY_IDS)
@pytest.mark.parametrize("n", [0, 1, 7])
def test_energy_level_matches_spectrum(spec, n):
    direct = energy_level(spec, n, 1.0, 1.0)
    via_rows = spectrum(spec, n)[n].energy
    assert direct == pytest.approx(via_rows, rel=1e-12)


# ---------------------------------------------------------------------------
# genvalue residuals


@pytest.mark.parametrize("n", [0, 4, 10])
def test_identity_genvalue_exact(grid513, n):
    rep = genvalue_residual(identity_spec(), n, grid513)
    assert rep.max_abs <= 1e-8
    assert rep.imag_max <= 1e-10
    assert rep.params["energy"] == pytest.approx(n + 0.5, rel=1e-14)
    assert rep.params["energy_crosscheck"] == pytest.approx(n + 0.5, rel=1e-12)
    # the phase-space average of H star W reproduces the level energy
    assert rep.params["phase_space_average_re"] == pytest.approx(n + 0.5, abs=1e-6)


def test_identity_genvalue_scaled_units():
    grid = PhaseGrid(-8, 8, -8, 8, 257, 257, hbar=0.5, offset=0.5)
    rep = genvalue_residual(identity_spec(), 2, grid, omega=2.0)
    assert rep.params["energy"] == pytest.approx(0.5 * 2.0 * 2.5, rel=1e-14)
    assert rep.max_abs <= 1e-8


@pytest.mark.parametrize("n", sorted(GOLDEN_SQRT_N_RESIDUALS))
def test_sqrt_n_residual_regression(grid513, n):
    rep = genvalue_residual(sqrt_n_spec(), n, grid513)
    golden_max, golden_l2 = GOLDEN_SQRT_N_RESIDUALS[n]
    assert abs(rep.max_abs - golden_max) <= 1e-9
    assert abs(rep.l2 - golden_l2) <= 1e-9
    assert rep.imag_max <= 1e-10


def test_witness_lies_on_grid(grid513):
    rep = genvalue_residual(sqrt_n_spec(), 1, grid513)
    assert rep.witness.q in grid513.q_values()
    assert rep.witness.p in grid513.p_values()
    assert rep.witness.q**2 + rep.witness.p**2 <= rep.params["r_cut"] ** 2


@pytest.mark.parametrize("spec", REGISTRY, ids=REGISTRY_IDS)
def test_imag_vanishing_per_spec(grid257, spec):
    rep = genvalue_residual(spec, 5, grid257)
    assert rep.imag_max <= 1e-10


def test_genvalue_second_order_runs(grid257):
    # experimental path: second-order term is real, so Im still vanishes
    rep = genvalue_residual(sqrt_n_spec(), 2, grid257, order="second")
    assert rep.params["order"] == "second"
    assert rep.imag_max <= 1e-10
    first = genvalue_residual(sqrt_n_spec(), 2, grid257, order="first")
    assert rep.max_abs != first.max_abs  # the extra term actually contributes


# ---------------------------------------------------------------------------
# bracket term


def test_bracket_radial_pair_vanishes(grid257):
    h = build_hamiltonian(sqrt_n_spec(), grid257).field
    w = fock_wigner(4, grid257)
    out = bracket_term(h, w, sqrt_n_spec())
    assert np.max(np.abs(out.values)) <= 1e-12


def test_bracket_q_p_constant(origin_grid):
    h = field_from_poly(PolySymbol.q(), origin_grid)
    w = field_from_poly(PolySymbol.p(), origin_grid)
    out = bracket_term(h, w, identity_spec(), hbar=0.9)
    assert np.max(np.abs(out.values - 0.5j * 0.9)) <= 1e-13


def test_bracket_quadratic_example(origin_grid):
    # h = q^2, w = p^2: (i hbar / 2) * (2q)(2p) = 2 i hbar q p -> 2 i at (1,1)
    h = field_from_poly(parse_symbol("q^2"), origin_grid)
    w = field_from_poly(parse_symbol("p^2"), origin_grid)
    out = bracket_term(h, w, identity_spec())
    iq = list(origin_grid.q_values()).index(1.0)
    assert out.values[iq, iq] == pytest.approx(2.0j, rel=1e-13)


# ---------------------------------------------------------------------------
# commutator correspondence


def test_commutator_identity_is_one(grid513):
    rep = commutator_report(identity_spec(), grid513)
    assert rep.max_abs <= 1e-10
    assert rep.imag_max <= 1e-10


def test_commutator_sqrt_n_matches_closed_form(grid513):
    dev_field, rep = commutator_deviation(sqrt_n_spec(), grid513)
    assert rep.params["closed_form_match"] <= 1e-8
    # the reported deviation from the (2n+1) target equals the closed-form
    # prediction of that deviation
    assert rep.max_abs == pytest.approx(rep.params["closed_form_vs_target_max"], abs=1e-8)
    assert rep.max_abs > 1.0  # genuinely nonzero: reported, never asserted away
    assert dev_field.values.shape == (grid513.n_q, grid513.n_p)


def test_commutator_deviation_samples_amplitude_once(grid257, amplitude_samples):
    # the closed form reuses the commutator's F(n) samples
    commutator_deviation(sqrt_n_spec(), grid257)
    assert amplitude_samples == {"F": 1, "dF": 0}


def test_imag_vanishing_check_samples_amplitude_once_per_spec(amplitude_samples):
    # one setup per non-identity registry spec, shared by the pool's products
    check_imag_vanishing(quick=True)
    assert sum(s.kind != "identity" for s in REGISTRY) == 3
    assert amplitude_samples == {"F": 3, "dF": 0}


def test_shared_setup_is_only_read_by_pool_threads():
    # the imag-vanishing pattern with more threads than cores and a short
    # switch interval: pooled products match serial ones, and neither the
    # setup nor the Hamiltonian's known partials are written by the tasks
    grid = PhaseGrid(-8.0, 8.0, -8.0, 8.0, 65, 65, hbar=1.0, offset=0.5)
    spec = sqrt_n_spec()
    ham = build_hamiltonian(spec, grid)
    partial_field(ham.field, 1, 0)
    partial_field(ham.field, 0, 1)
    setup = ProductSetup((ham.field,), spec)
    known = dict(ham.field._cache)
    F = setup.F.copy()
    serial = [setup.product(ham.field, fock_wigner(n, grid)).values.tobytes()
              for n in range(16)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(lambda n: setup.product(
                ham.field, fock_wigner(n, grid)).values.tobytes(), n) for n in range(16)]
            pooled = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(old)
    assert pooled == serial
    assert ham.field._cache.keys() == known.keys()
    assert all(ham.field._cache[k] is v for k, v in known.items())
    assert setup.F.tobytes() == F.tobytes()


def test_commutator_ladder_fields_sampled_correctly(grid257):
    A, Abar = ladder_fields(sqrt_n_spec(), grid257)
    Q, P = mesh(grid257)
    n = (Q**2 + P**2) / 2.0
    a = (Q + 1j * P) / SQRT2
    assert np.max(np.abs(A.values - a * np.sqrt(n))) <= 1e-13
    assert np.max(np.abs(Abar.values - np.conj(a) * np.sqrt(n))) <= 1e-13


def test_small_deformation_sweep():
    grid = PhaseGrid(-4, 4, -4, 4, 129, 129, offset=0.5)
    eps_values = [0.01, 0.005, 0.0025]
    devs = []
    for eps in eps_values:
        rep = commutator_report(expr_spec(f"1+{eps}*n"), grid)
        assert rep.params["closed_form_match"] <= 1e-10
        devs.append(rep.max_abs)
    assert devs[0] > devs[1] > devs[2]
    slope = np.polyfit(np.log(eps_values), np.log(devs), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.35)


# ---------------------------------------------------------------------------
# associativity scaling


def assoc_operands(grid):
    return (field_from_poly(PolySymbol.q(), grid), field_from_poly(PolySymbol.p(), grid),
            field_from_poly(PolySymbol.q() + PolySymbol.p(), grid))


def test_associativity_samples_amplitude_once_per_hbar(grid257, amplitude_samples):
    associativity_defect(*assoc_operands(grid257), sqrt_n_spec(), [1e-1, 1e-2, 1e-3])
    assert amplitude_samples == {"F": 3, "dF": 3}


@pytest.mark.parametrize("spec", [sqrt_n_spec(), expr_spec("sqrt(1+0.5*n)")],
                         ids=spec_to_text)
def test_associativity_shared_setup_matches_independent_products(grid257, spec):
    hbars = [1e-1, 1e-2, 1e-3]
    result = associativity_defect(*assoc_operands(grid257), spec, hbars)
    expected = []
    for hbar in hbars:
        k, g, h = assoc_operands(grid257)
        kg = fstar_apply(k, g, spec, hbar, jet_order=1)
        gh = fstar_apply(g, h, spec, hbar, jet_order=1)
        diff = fstar_apply(kg, h, spec, hbar).values - fstar_apply(k, gh, spec, hbar).values
        expected.append((hbar, float(np.sqrt(np.sum(np.abs(diff) ** 2)
                                             * grid257.dq * grid257.dp))))
    assert (np.array(result.points).view(np.int64).tolist()
            == np.array(expected).view(np.int64).tolist())


def test_associativity_identity_exact_zero(grid257):
    k = field_from_poly(PolySymbol.q(), grid257)
    g = field_from_poly(PolySymbol.p(), grid257)
    h = field_from_poly(PolySymbol.q() + PolySymbol.p(), grid257)
    result = associativity_defect(k, g, h, identity_spec(), [1e-1, 1e-2, 1e-3])
    assert result.exact_zero
    assert result.slope is None
    assert all(d <= 1e-12 for _, d in result.points)


def test_associativity_sqrt_n_slope(grid257):
    k = field_from_poly(PolySymbol.q(), grid257)
    g = field_from_poly(PolySymbol.p(), grid257)
    h = field_from_poly(PolySymbol.q() + PolySymbol.p(), grid257)
    result = associativity_defect(k, g, h, sqrt_n_spec(), [1e-1, 1e-2, 1e-3])
    assert not result.exact_zero
    assert result.slope >= 1.9
    defects = [d for _, d in result.points]
    assert defects[0] > defects[1] > defects[2] > 1e-14


def test_associativity_radial_triple_vanishes(grid257):
    k = fock_wigner(0, grid257)
    g = fock_wigner(1, grid257)
    h = fock_wigner(2, grid257)
    result = associativity_defect(k, g, h, sqrt_n_spec(), [1e-1, 1e-2, 1e-3])
    assert result.exact_zero
    assert all(d <= 1e-12 for _, d in result.points)


def test_associativity_validation(grid257):
    k = field_from_poly(PolySymbol.q(), grid257)
    with pytest.raises(ValueError):
        associativity_defect(k, k, k, sqrt_n_spec(), [1e-1, 1e-2])
    with pytest.raises(ValueError):
        associativity_defect(k, k, k, sqrt_n_spec(), [1e-1, 2e-1, 3e-1])
    with pytest.raises(ValueError):
        associativity_defect(k, k, k, sqrt_n_spec(), [1e-1, 1e-2, 1e-3],
                             order="second")
