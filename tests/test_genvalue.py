import dataclasses
import functools
import math
import re
import sys
import warnings

import numpy as np
import pytest

from fstarq import (FStarError, NonPositiveValue, PhaseGrid, PolySymbol,
                    amplitude_F_deriv, associativity_defect, build_hamiltonian, canonical_json,
                    commutator_deviation, deformation,
                    energy_level, expr_spec, fcs_wigner, field_from_poly, fock_wigner,
                    fstar_apply, genvalue_residual, identity_spec, integrate, ladder_fields,
                    mesh, parse_symbol, partial_field, qdef_spec, registry_specs,
                    run_verification, spec_to_text, spectrum, sqrt_n_spec)
from fstarq import genvalue
from fstarq.genvalue import hamiltonian_star
from fstarq.starproduct import ProductSetup, _star_block, moyal_apply
from fstarq.verify import FockPass, check_imag_vanishing, fock_pass

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
    assert np.max(np.abs(ham.values - expected)) <= 1e-14


def test_hamiltonian_radial_symmetry(origin_grid):
    ham = build_hamiltonian(qdef_spec(1.2), origin_grid)
    vals = ham.values
    assert np.max(np.abs(vals - vals[::-1, :])) <= 1e-12
    assert np.max(np.abs(vals - vals[:, ::-1])) <= 1e-12
    assert np.max(np.abs(vals.imag)) == 0.0


def test_hamiltonian_sqrt_n_value_at_unit_excitation():
    g = PhaseGrid(SQRT2, SQRT2 + 1.0, 0.0, 1.0, 9, 9, hbar=1.0, offset=0.0)
    ham = build_hamiltonian(sqrt_n_spec(), g)
    # n = 1 there: (2 * f(2)^2 + 1 * f(1)^2)/2 = (4 + 1)/2
    assert ham.values[0, 0].real == pytest.approx(2.5, rel=1e-14)


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
    assert ham.values[i0, i0].real == pytest.approx(0.5, rel=1e-14)


def test_hamiltonian_slope_at_the_origin_is_the_limit():
    # f = 1 + sqrt(n): s = f^2 has s'(0) = inf, yet x s'(x) -> 0, so
    # h'(0) = (g'(1) + g'(0)) / 2 = ((4 + 2) + 1) / 2
    profile = genvalue.HamiltonianProfile(expr_spec("1+sqrt(n)"), 1.0, 1.0)
    assert profile.deriv(0.0, 1) == 3.5
    assert profile.deriv(np.array([0.0, 1.0]), 1)[0] == 3.5


def test_hamiltonian_curvature_at_the_origin_stays_refused():
    # x s''(x) diverges at x = 0 for sqrt(n) growth, so h''(0) is not finite
    grid = PhaseGrid(-4.0, 4.0, -4.0, 4.0, 129, 129, hbar=1.0, offset=0.0)
    ham = build_hamiltonian(expr_spec("1+sqrt(n)"), grid)
    assert np.isfinite(partial_field(ham, 1, 0)).all()
    with pytest.raises(ValueError, match=r"^partial \(2, 0\) of H\[expr:1\+sqrt\(n\)\] is "
                                         r"not finite at \(q, p\) = \(0\.0, 0\.0\)$"):
        partial_field(ham, 2, 0)


@pytest.mark.parametrize("spec", REGISTRY, ids=REGISTRY_IDS)
@pytest.mark.parametrize("n", [0, 1, 7])
def test_energy_level_matches_spectrum(spec, n):
    direct = energy_level(spec, n, 1.0, 1.0)
    assert direct == pytest.approx(spectrum(spec, n)[n], rel=1e-12)


@pytest.mark.parametrize("spec", REGISTRY, ids=REGISTRY_IDS)
@pytest.mark.parametrize("hbar, omega", [(1.0, 1.0), (0.7, 1.3)])
def test_energy_level_is_the_old_direct_formula_bit_for_bit(spec, hbar, omega):
    # energy_level reads the Hamiltonian profile; it kept the bits of the direct
    # sum it replaced
    for n in range(11):
        s1 = deformation.f_squared(spec, float(n) + 1.0)
        s0 = deformation.f_squared(spec, float(n))
        old = 0.5 * hbar * omega * ((n + 1) * s1 + n * s0)
        assert energy_level(spec, n, hbar, omega).hex() == old.hex()


# ---------------------------------------------------------------------------
# genvalue residuals


@pytest.mark.parametrize("n", [0, 4, 10])
def test_identity_genvalue_exact(grid513, n):
    rep = genvalue_residual(identity_spec(), n, grid513)
    assert rep.max_abs <= 1e-8
    assert rep.imag_max <= 1e-10
    assert rep.extra["energy"] == pytest.approx(n + 0.5, rel=1e-14)
    assert rep.extra["energy_crosscheck"] == pytest.approx(n + 0.5, rel=1e-12)
    # the phase-space average of H star W reproduces the level energy
    assert rep.extra["phase_space_average_re"] == pytest.approx(n + 0.5, abs=1e-6)


def test_identity_genvalue_scaled_units():
    grid = PhaseGrid(-8, 8, -8, 8, 257, 257, hbar=0.5, offset=0.5)
    rep = genvalue_residual(identity_spec(), 2, grid, omega=2.0)
    assert rep.extra["energy"] == pytest.approx(0.5 * 2.0 * 2.5, rel=1e-14)
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
    assert rep.witness.q**2 + rep.witness.p**2 <= rep.extra["r_cut"] ** 2


@pytest.mark.parametrize("spec", REGISTRY, ids=REGISTRY_IDS)
def test_imag_vanishing_per_spec(grid257, spec):
    rep = genvalue_residual(spec, 5, grid257)
    assert rep.imag_max <= 1e-10


@pytest.mark.parametrize("spec", REGISTRY, ids=REGISTRY_IDS)
def test_hamiltonian_star_is_the_direct_product_bit_for_bit(spec):
    grid = PhaseGrid(-8.0, 8.0, -8.0, 8.0, 65, 65, hbar=1.0, offset=0.5)
    star, path = hamiltonian_star(spec, grid)
    w = fock_wigner(3, grid)
    if spec.kind == "identity":
        direct = moyal_apply(PolySymbol({(2, 0): 0.5, (0, 2): 0.5}), w)
        assert path == "moyal_exact"
    else:
        direct = fstar_apply(build_hamiltonian(spec, grid), w, spec)
        assert path == "fstar_first"
    assert star(w).values.tobytes() == direct.values.tobytes()


def test_diagnostics_take_no_order_option(grid257):
    # the f-star product is first order only, so no diagnostic takes an order
    for call in (lambda: genvalue_residual(sqrt_n_spec(), 2, grid257, order="first"),
                 lambda: commutator_deviation(sqrt_n_spec(), grid257, order="first")):
        with pytest.raises(TypeError, match="order"):
            call()


@pytest.mark.parametrize("r_cut", [-1.0, 0.0, math.nan, math.inf])
def test_residual_rejects_bad_r_cut(r_cut):
    with pytest.raises(ValueError, match="r_cut must be a positive finite real"):
        genvalue_residual(identity_spec(), 1, PhaseGrid(-2, 2, -2, 2, 17, 17), r_cut=r_cut)


def test_residual_refuses_at_the_level_before_the_spectrum_and_the_star():
    # f = ln(n) is refused on each path at its own n: the level E_1 at n = 1,
    # the spectrum cross-check at n = 0, the Hamiltonian field at n = 0.953125
    grid = PhaseGrid(-4.0, 4.0, -4.0, 4.0, 33, 33, hbar=1.0, offset=0.5)
    spec = expr_spec("ln(n)")
    line = "^f\\(n\\) is not a finite positive value at n = {} for kind 'expr'$"
    with pytest.raises(NonPositiveValue, match=line.format(r"0\.0")):
        spectrum(spec, 1)
    with pytest.raises(NonPositiveValue, match=line.format(r"0\.953125")):
        hamiltonian_star(spec, grid)
    with pytest.raises(NonPositiveValue, match=line.format(r"1\.0")):
        genvalue_residual(spec, 1, grid)


@pytest.mark.parametrize("omega", [math.nan, math.inf])
def test_nonfinite_omega_is_refused_before_grid_work(monkeypatch, omega):
    # named up front; a NaN omega would otherwise fail late, at "field values must be finite"
    def no_grid_work(*args, **kwargs):
        raise AssertionError("grid work before the omega check")
    for name in ("AnalyticStructure", "fock_wigner"):
        monkeypatch.setattr(genvalue, name, no_grid_work)
    grid = PhaseGrid(-2, 2, -2, 2, 17, 17)
    with pytest.raises(ValueError, match="^omega must be a positive finite real$"):
        build_hamiltonian(identity_spec(), grid, omega=omega)
    with pytest.raises(ValueError, match="^omega must be a positive finite real$"):
        genvalue_residual(identity_spec(), 1, grid, omega=omega)


def test_residual_refuses_a_disc_without_samples():
    # the nearest sample of this grid lies 0.18 from the origin
    grid = PhaseGrid(-2, 2, -2, 2, 17, 17)
    with pytest.raises(ValueError, match=r"r_cut = 0\.01: no grid sample"):
        genvalue_residual(sqrt_n_spec(), 1, grid, r_cut=0.01)


# ---------------------------------------------------------------------------
# bracket term: for real fields, i Im(h *_f w) is (i hbar / 2) F(n) {h, w}


def bracket_of(h, w, spec):
    return 1j * fstar_apply(h, w, spec).values.imag


def test_bracket_radial_pair_vanishes(grid257):
    h = build_hamiltonian(sqrt_n_spec(), grid257)
    w = fock_wigner(4, grid257)
    out = bracket_of(h, w, sqrt_n_spec())
    assert np.max(np.abs(out)) <= 1e-12


def test_bracket_q_p_constant(origin_grid):
    grid = dataclasses.replace(origin_grid, hbar=0.9)
    h = field_from_poly(PolySymbol.q(), grid)
    w = field_from_poly(PolySymbol.p(), grid)
    out = bracket_of(h, w, identity_spec())
    assert np.max(np.abs(out - 0.5j * 0.9)) <= 1e-13
    # the rest of the product is h w itself
    real = fstar_apply(h, w, identity_spec()).values.real
    assert np.array_equal(real, (h.values * w.values).real)


def test_bracket_quadratic_example(origin_grid):
    # h = q^2, w = p^2: (i hbar / 2) * (2q)(2p) = 2 i hbar q p -> 2 i at (1,1)
    h = field_from_poly(parse_symbol("q^2"), origin_grid)
    w = field_from_poly(parse_symbol("p^2"), origin_grid)
    out = bracket_of(h, w, identity_spec())
    iq = list(origin_grid.q_values()).index(1.0)
    assert out[iq, iq] == pytest.approx(2.0j, rel=1e-13)


# ---------------------------------------------------------------------------
# commutator correspondence


def test_commutator_identity_is_one(grid513):
    rep = commutator_deviation(identity_spec(), grid513)[1]
    assert rep.max_abs <= 1e-10
    assert rep.imag_max <= 1e-10


def test_commutator_sqrt_n_matches_closed_form(grid513):
    dev_field, rep = commutator_deviation(sqrt_n_spec(), grid513)
    assert rep.extra["closed_form_match"] <= 1e-8
    # the reported deviation from the (2n+1) target equals the closed-form
    # prediction of that deviation
    assert rep.max_abs == pytest.approx(rep.extra["closed_form_vs_target_max"], abs=1e-8)
    assert rep.max_abs > 1.0  # genuinely nonzero: reported, never asserted away
    assert dev_field.values.shape == (grid513.n_q, grid513.n_p)


def test_commutator_deviation_samples_amplitude_once(grid257, amplitude_samples):
    # the closed form reuses the commutator's F(n) samples
    commutator_deviation(sqrt_n_spec(), grid257)
    assert amplitude_samples == {"F": 1, "dF": 0}


def _commutator_deviation_before(spec, grid):
    """commutator_deviation as it formed whole-mesh grids: the two products,
    then F, the target and the closed form on the mesh; its report's norms
    as _region_norms took them over the whole mesh.  Returns the deviation
    and the report's numbers."""
    hbar = grid.hbar
    A, Abar = ladder_fields(spec, grid)
    s = ProductSetup(grid, spec)
    comm = (s.product(A, Abar).values - s.product(Abar, A).values) / hbar
    target = grid.radial(lambda n: deformation.commutator_target(spec, n), 2.0 * hbar)
    F = grid.radial(lambda n: deformation.amplitude_F(spec, n), 2.0 * hbar)
    closed = F * grid.radial(lambda n: deformation.f_squared(spec, n)
                             + n * deformation.f_squared(spec, n, 1), 2.0 * hbar)
    match = float(np.max(np.abs(comm - closed)))
    closed_vs_target = float(np.max(np.abs(closed - target)))
    deviation = comm - target
    absr = np.abs(deviation)
    iq, ip = np.unravel_index(int(np.argmax(absr)), absr.shape)
    l2 = float(np.sqrt(np.sum(absr * absr) * grid.dq * grid.dp))
    numbers = [float(absr[iq, ip]), l2, float(np.max(np.abs(deviation.imag))),
               float(grid.q_values()[iq]), float(grid.p_values()[ip]),
               deviation[iq, ip].real, deviation[iq, ip].imag, match, closed_vs_target]
    return deviation, numbers


CATALOGUE = ("identity", "sqrt_n", "qdef:q=1.2", "expr:sqrt(1+0.1*n)", "qdef:q=0.9",
             "qdef:q=0.95", "qdef:q=1.05", "qdef:q=1.1", "expr:sqrt(1+0.05*n)",
             "expr:sqrt(1+0.2*n)", "expr:sqrt(1+0.5*n)", "expr:sqrt(1+1.0*n)")
DEVIATION_CASES = ([(text, "65") for text in CATALOGUE]
                   + [(text, "513") for text in ("sqrt_n", "qdef:q=1.2")])
DEVIATION_GRIDS = {"65": PhaseGrid(-4.0, 4.0, -4.0, 4.0, 65, 65, hbar=1.0, offset=0.5),
                   "513": PhaseGrid(-8.0, 8.0, -8.0, 8.0, 513, 513, hbar=1.0, offset=0.5)}


@pytest.mark.parametrize("text, grid_name", DEVIATION_CASES)
def test_commutator_deviation_keeps_the_whole_mesh_bits(text, grid_name):
    # the commutator is streamed, the target and the closed form are tables
    # over the distinct radii, and the deviation is formed in place
    spec, grid = deformation.parse_deformation(text), DEVIATION_GRIDS[grid_name]
    want, want_numbers = _commutator_deviation_before(spec, grid)
    dev_field, rep = commutator_deviation(spec, grid)
    got_numbers = [rep.max_abs, rep.l2, rep.imag_max, rep.witness.q, rep.witness.p,
                   rep.witness.value.real, rep.witness.value.imag,
                   rep.extra["closed_form_match"], rep.extra["closed_form_vs_target_max"]]
    assert (np.array(got_numbers).view(np.int64).tolist()
            == np.array(want_numbers).view(np.int64).tolist())
    assert dev_field.values.dtype == np.complex128
    assert np.array_equal(dev_field.values.view(np.int64), want.view(np.int64))


def test_imag_vanishing_check_samples_amplitude_once_per_spec(amplitude_samples):
    # one setup per non-identity registry spec, shared by the pass's products
    check_imag_vanishing(True, fock_pass(True))
    assert sum(s.kind != "identity" for s in REGISTRY) == 3
    assert amplitude_samples == {"F": 3, "dF": 0}


# ---------------------------------------------------------------------------
# verify's Fock pass: each W_n built once per run feeds checks 1-3


@pytest.fixture
def fock_builds(monkeypatch):
    """(n, n_q, n_p) of each fock_wigner call, wherever fstarq binds it."""
    calls = []
    original = fock_wigner

    def counted(n, grid):
        calls.append((n, grid.n_q, grid.n_p))
        return original(n, grid)

    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "fstarq" and getattr(mod, "fock_wigner", None) is original:
            monkeypatch.setattr(mod, "fock_wigner", counted)
    return calls


def _separate_loops(quick: bool) -> tuple[FockPass, list[dict]]:
    """The per-n table and checks 1-3 by the route they took before the shared
    pass: a residual per n, a fresh W_n per (spec, n) under each star, a fresh
    W_n per integral."""
    size = 257 if quick else 513
    grid = PhaseGrid(-8.0, 8.0, -8.0, 8.0, size, size, hbar=1.0, offset=0.5)
    n_top, n_norm = (3, 8) if quick else (10, 20)
    residual = tuple(genvalue_residual(identity_spec(), n, grid, omega=1.0).max_abs
                     for n in range(n_top + 1))
    stars = [hamiltonian_star(spec, grid)[0] for spec in REGISTRY]
    imag = tuple(tuple(float(np.max(np.abs(star(fock_wigner(n, grid)).values.imag)))
                       for star in stars) for n in range(n_top + 1))
    norm = tuple(abs(integrate(fock_wigner(n, grid)).real - 1.0) for n in range(n_norm + 1))
    worst_imag, worst_at = 0.0, ""
    for k, spec in enumerate(REGISTRY):
        local = max(row[k] for row in imag)
        if local > worst_imag:
            worst_imag, worst_at = local, spec_to_text(spec)
    worst_norm = max(norm)
    for spec in REGISTRY:
        for z2 in (0.5, 1.0, 2.0):
            worst_norm = max(worst_norm, abs(integrate(fcs_wigner(spec, z2, grid)).real - 1.0))

    def entry(name, observed, tolerance, detail):
        return {"name": name, "passed": observed <= tolerance, "observed": observed,
                "tolerance": tolerance, "direction": "<=", "detail": detail}

    return FockPass(residual, imag, norm), [
        entry("moyal_genvalue_identity", max(residual), 1e-8, f"n<={n_top}, region r<=4"),
        entry("imaginary_part_vanishing", worst_imag, 1e-10,
              f"worst registry spec: {worst_at}"),
        entry("wigner_normalization", worst_norm, 1e-6,
              f"fock n<={n_norm} and registry coherent mixtures")]


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
def test_fock_pass_equals_the_separate_loops_bytewise(quick):
    # every float of the table, the identity column of imag included, and the
    # three summary entries; the floats are absolute values, so == is bitwise
    table, entries = _separate_loops(quick)
    assert fock_pass(quick) == table
    checks = run_verification(quick)["checks"][:3]
    assert canonical_json(checks) == canonical_json(entries)


def test_quick_verify_builds_each_fock_state_once_per_run(fock_builds):
    # W_0..W_8 once on 257^2, and W_4 on check 8's two crosscheck grids.  The
    # second run builds them all again (nothing outlives a run) and writes the
    # first run's bytes
    summaries = []
    for _ in range(2):
        fock_builds.clear()
        summaries.append(canonical_json(run_verification(quick=True)))
        assert len(fock_builds) == 11
        assert sorted(fock_builds) == sorted([(n, 257, 257) for n in range(9)]
                                             + [(4, 65, 1537), (4, 1537, 65)])
    assert summaries[0] == summaries[1]


def test_identity_residual_imag_is_the_moyal_product_imag_bitwise(grid257):
    # W_n is real, so residual.imag = star.imag - E_n * 0.0 = star.imag
    star = hamiltonian_star(identity_spec(), grid257)[0]
    for n in range(11):
        w = fock_wigner(n, grid257)
        assert not w.values.imag.view(np.int64).any()
        expected = float(np.max(np.abs(star(w).values.imag)))
        assert genvalue_residual(identity_spec(), n, grid257).imag_max.hex() == expected.hex()


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
        rep = commutator_deviation(expr_spec(f"1+{eps}*n"), grid)[1]
        assert rep.extra["closed_form_match"] <= 1e-10
        devs.append(rep.max_abs)
    assert devs[0] > devs[1] > devs[2]
    slope = np.polyfit(np.log(eps_values), np.log(devs), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.35)


# ---------------------------------------------------------------------------
# associativity scaling


def assoc_operands(grid):
    return (field_from_poly(PolySymbol.q(), grid), field_from_poly(PolySymbol.p(), grid),
            field_from_poly(PolySymbol.q() + PolySymbol.p(), grid))


def test_assoc_probe_is_q_p_and_their_sum(grid257):
    probe = genvalue.assoc_probe(grid257)
    assert [f.source for f in probe] == [poly.source for poly in assoc_operands(grid257)]
    assert [f.label for f in probe] == ["q", "p", "p + q"]
    for field, poly in zip(probe, assoc_operands(grid257)):
        assert np.array_equal(field.values, poly.values)


def test_associativity_samples_amplitude_once_per_hbar(grid257, amplitude_samples):
    associativity_defect(*assoc_operands(grid257), sqrt_n_spec(), [1e-1, 1e-2, 1e-3])
    assert amplitude_samples == {"F": 3, "dF": 3}


_JET_KEYS = ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def _operand(f):
    """f's values and partials to second order by ``partial_field``: a
    whole-mesh ``_star_block`` operand."""
    return [f.values, *(partial_field(f, *key) for key in _JET_KEYS)]


def _with_jets(setup, k, g):
    """k *_f g formed by _star_block on the whole mesh as one block, as the
    whole-mesh ``_star_block`` operand of a nested product: its value, then
    its jets as its first partials."""
    grid, hbar = setup.grid, setup.hbar
    q, p = grid.axes()
    dF_dn = grid.gather(grid.radial_table(functools.partial(amplitude_F_deriv, setup.spec),
                                          2.0 * hbar), slice(None))
    value, jets = _star_block(hbar, grid.gather(setup.F, slice(None)), _operand(k), _operand(g),
                              (dF_dn * q / hbar, dF_dn * p / hbar))
    return [value, *jets]


def _nested(setup, k, g):
    """The value of k *_f g by _star_block on the whole mesh, for operand lists."""
    return _star_block(setup.hbar, setup.grid.gather(setup.F, slice(None)), k, g)[0]


@pytest.mark.parametrize("spec", [sqrt_n_spec(), expr_spec("sqrt(1+0.5*n)")],
                         ids=spec_to_text)
def test_associativity_shared_setup_matches_independent_products(grid257, spec):
    hbars = [1e-1, 1e-2, 1e-3]
    result = associativity_defect(*assoc_operands(grid257), spec, hbars)
    expected = []
    for hbar in hbars:
        k, g, h = assoc_operands(grid257)
        kg = _with_jets(ProductSetup(grid257, spec, hbar), k, g)
        gh = _with_jets(ProductSetup(grid257, spec, hbar), g, h)
        diff = (_nested(ProductSetup(grid257, spec, hbar), kg, _operand(h))
                - _nested(ProductSetup(grid257, spec, hbar), _operand(k), gh))
        expected.append((hbar, float(np.sqrt(np.sum(np.abs(diff) ** 2)
                                             * grid257.dq * grid257.dp))))
    assert (np.array(result.points).view(np.int64).tolist()
            == np.array(expected).view(np.int64).tolist())


def _associativity_before(k, g, h, spec, hbars):
    """associativity_defect as it took each hbar's products before the nested
    pairs: k g and g h (both with jets), then (k g) h and k (g h)."""
    grid = k.grid
    points = []
    for hbar in hbars:
        s = ProductSetup(grid, spec, hbar)
        kg = _with_jets(s, k, g)
        gh = _with_jets(s, g, h)
        diff = _nested(s, kg, _operand(h)) - _nested(s, _operand(k), gh)
        points.append((hbar, float(np.sqrt(np.sum(np.abs(diff) ** 2) * grid.dq * grid.dp))))
    if all(norm < genvalue.EXACT_ZERO_FLOOR for _, norm in points):
        return tuple(points), None
    logs_h = np.log([p[0] for p in points])
    logs_d = np.log([max(p[1], 1e-300) for p in points])
    return tuple(points), float(np.polyfit(logs_h, logs_d, 1)[0])


ASSOC_TRIPLES = {
    "q, p, q+p": assoc_operands,
    "W_1, W_2, H": lambda grid: (fock_wigner(1, grid), fock_wigner(2, grid),
                                 build_hamiltonian(sqrt_n_spec(), grid)),
}
ASSOC_GRIDS = {
    "513": PhaseGrid(-8.0, 8.0, -8.0, 8.0, 513, 513, hbar=1.0, offset=0.5),
    "origin": PhaseGrid(-4.0, 4.0, -4.0, 4.0, 129, 129, hbar=1.0, offset=0.0),
    # 169-row blocks, the last of 31 rows
    "200x97": PhaseGrid(-6.0, 6.0, -5.0, 5.0, 200, 97, hbar=1.0, offset=0.5),
}


@pytest.mark.parametrize("grid", ASSOC_GRIDS.values(), ids=ASSOC_GRIDS)
@pytest.mark.parametrize("triple", ASSOC_TRIPLES)
@pytest.mark.parametrize("spec", [sqrt_n_spec(), expr_spec("sqrt(1+0.5*n)")],
                         ids=spec_to_text)
def test_associativity_nested_pairs_match_the_old_order(grid, triple, spec):
    hbars = [1e-1, 1e-2, 1e-3]
    try:
        want = _associativity_before(*ASSOC_TRIPLES[triple](grid), spec, hbars)
    except FStarError as exc:  # sqrt_n's F is singular at the origin sample
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            associativity_defect(*ASSOC_TRIPLES[triple](grid), spec, hbars)
        return
    result = associativity_defect(*ASSOC_TRIPLES[triple](grid), spec, hbars)
    assert (result.points, result.slope) == want


@pytest.mark.parametrize("grid", ASSOC_GRIDS.values(), ids=ASSOC_GRIDS)
@pytest.mark.parametrize("spec", [identity_spec(), sqrt_n_spec(), expr_spec("sqrt(1+0.5*n)"),
                                  qdef_spec(1.2)], ids=spec_to_text)
def test_probe_defect_keeps_the_bits_of_the_sampled_probe(grid, spec):
    # the probe taken on its polynomials, formed one row block at a time,
    # against the defect of its sampled fields, refusals included
    try:
        want = associativity_defect(*genvalue.assoc_probe(grid), spec, genvalue.ASSOC_HBARS)
    except (FStarError, ValueError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            genvalue.probe_defect(grid, spec, genvalue.ASSOC_HBARS)
        return
    got = genvalue.probe_defect(grid, spec, genvalue.ASSOC_HBARS)
    assert (np.array(got.points).view(np.int64).tolist()
            == np.array(want.points).view(np.int64).tolist())
    assert repr(got.slope) == repr(want.slope)


# 33 columns make 496-row blocks, so the 1100 rows take three.  k g and g h
# overflow only where q p > 1.15, first at row 1034 (q = 1.135), in the last
# block; h's second partials are refused at the first sample
REFUSAL_GRID = PhaseGrid(0.1, 1.2, 0.1, 1.0, 1100, 33, hbar=1.0, offset=0.5)
FIRST_SAMPLE = "(q, p) = (0.10050045495905369, 0.11406250000000001)"
DEFECT_REFUSALS = {
    # k g is not finite from row 1034, |difference|^2 already at the first sample
    "k g": ("1.25e154*q", "1.25e154*p", "q + p",
            f"associativity defect at hbar = 0.1 is not finite at {FIRST_SAMPLE}"),
    # every partial is fetched before any product is formed
    "d2h": ("0.5*q", "0.5*p", "3.1e307*q^3",
            f"partial (2, 0) of 3.1e+307*q^3 is not finite at {FIRST_SAMPLE}"),
    "k g and d2h": ("1.25e154*q", "1.25e154*p", "3.1e307*q^3",
                    f"partial (2, 0) of 3.1e+307*q^3 is not finite at {FIRST_SAMPLE}"),
    # k g and (k g) h are finite, g h is not from row 1034; the squares are not
    # finite before that row
    "g h": ("0.8e-154*q", "1.25e154*p", "1.25e154*q",
            "associativity defect at hbar = 0.1 is not finite at "
            "(q, p) = (0.22361237488626023, 1.0140625)"),
    # every product is finite and |diff|^2 overflows: the norm used to be inf
    "square": ("1e100*q", "1e100*p", "1e100*q^2 + 1e100*p^2",
               f"associativity defect at hbar = 0.1 is not finite at {FIRST_SAMPLE}"),
}


@pytest.mark.parametrize("case", DEFECT_REFUSALS)
def test_streamed_defect_refuses_once_without_warnings(case):
    *texts, message = DEFECT_REFUSALS[case]
    fields = [field_from_poly(parse_symbol(text), REFUSAL_GRID) for text in texts]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError) as err:
            genvalue._defect_norm(REFUSAL_GRID, *fields, qdef_spec(1.2), 0.1)
    assert str(err.value) == message
    assert not caught


def test_exact_moyal_defect_refuses_a_non_finite_point():
    # 1e200 q star 1e200 p has an inf coefficient, so left - right is NaN
    # everywhere; it used to give NaN points and a NaN slope, with no warning
    grid = PhaseGrid(-4, 4, -4, 4, 33, 33)
    fields = [field_from_poly(parse_symbol(text), grid) for text in ("1e200*q", "1e200*p", "q^2")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError) as err:
            associativity_defect(*fields, identity_spec(), [0.1, 0.01, 0.001])
    assert str(err.value) == ("associativity defect at hbar = 0.1 is not finite at "
                              "(q, p) = (-3.875, -3.875)")
    assert not caught


def test_streamed_defect_refuses_an_h_off_the_grid():
    # h has the mesh's shape but other points: (k g) h refuses it, so the stream must
    grid = PhaseGrid(-4, 4, -4, 4, 65, 65)
    k, g = (field_from_poly(poly, grid) for poly in (PolySymbol.q(), PolySymbol.p()))
    h = field_from_poly(PolySymbol.q() + PolySymbol.p(), PhaseGrid(-2, 2, -2, 2, 65, 65))
    s = ProductSetup(grid, qdef_spec(1.2), 0.1)
    with pytest.raises(ValueError, match="^fields must share") as whole_mesh:
        s.product(s.product(k, g), h)
    with pytest.raises(ValueError) as streamed:
        s.defect_squared(k, g, h)
    assert str(streamed.value) == str(whole_mesh.value)


def test_associativity_identity_exact_zero(grid257):
    k = field_from_poly(PolySymbol.q(), grid257)
    g = field_from_poly(PolySymbol.p(), grid257)
    h = field_from_poly(PolySymbol.q() + PolySymbol.p(), grid257)
    result = associativity_defect(k, g, h, identity_spec(), [1e-1, 1e-2, 1e-3])
    assert result.slope is None
    assert all(d <= 1e-12 for _, d in result.points)


def test_associativity_sqrt_n_slope(grid257):
    k = field_from_poly(PolySymbol.q(), grid257)
    g = field_from_poly(PolySymbol.p(), grid257)
    h = field_from_poly(PolySymbol.q() + PolySymbol.p(), grid257)
    result = associativity_defect(k, g, h, sqrt_n_spec(), [1e-1, 1e-2, 1e-3])
    assert result.slope is not None
    assert result.slope >= 1.9
    defects = [d for _, d in result.points]
    assert defects[0] > defects[1] > defects[2] > 1e-14


def test_associativity_radial_triple_vanishes(grid257):
    k = fock_wigner(0, grid257)
    g = fock_wigner(1, grid257)
    h = fock_wigner(2, grid257)
    result = associativity_defect(k, g, h, sqrt_n_spec(), [1e-1, 1e-2, 1e-3])
    assert result.slope is None
    assert all(d <= 1e-12 for _, d in result.points)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_associativity_refuses_each_hbar_before_any_product(grid257, bad, monkeypatch):
    # every hbar is checked before the list checks: 0 used to divide by zero in
    # the span check, -1 to fail it, and NaN and inf to pass both
    calls = []
    for name in ("ProductSetup", "moyal_exact"):
        original = getattr(genvalue, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(genvalue, name, counted)
    for spec in (identity_spec(), sqrt_n_spec()):
        with pytest.raises(ValueError, match=r"^hbar must be a positive finite real$"):
            associativity_defect(*assoc_operands(grid257), spec, [bad, 0.1, 1.0, 10.0])
    assert calls == []


def test_associativity_validation(grid257):
    k = field_from_poly(PolySymbol.q(), grid257)
    with pytest.raises(ValueError):
        associativity_defect(k, k, k, sqrt_n_spec(), [1e-1, 1e-2])
    with pytest.raises(ValueError):
        associativity_defect(k, k, k, sqrt_n_spec(), [1e-1, 2e-1, 3e-1])
    with pytest.raises(TypeError, match="order"):
        associativity_defect(k, k, k, sqrt_n_spec(), [1e-1, 1e-2, 1e-3],
                             order="first")


@pytest.mark.parametrize("hbars, repeated", [
    ([0.1, 0.01, 0.001, 0.1], 0.1),
    ([0.1, 0.01, 0.001, 0.001, 0.001], 0.001),
    (["1e-1", 0.01, "0.10", 0.001], 0.1),
], ids=["twice", "thrice", "spelled"])
def test_associativity_refuses_a_repeated_hbar(grid257, hbars, repeated):
    # a repeat was recomputed and weighted the slope's fit toward it
    for spec in (identity_spec(), sqrt_n_spec()):
        with pytest.raises(ValueError) as err:
            associativity_defect(*assoc_operands(grid257), spec, hbars)
        assert str(err.value) == f"hbar = {repeated!r} is given more than once"
