import math

import numpy as np
import pytest

from fstarq import (PhaseGrid, PolySymbol, amplitude_F, annihilation_symbol,
                    bracket_term, creation_symbol, field_from_poly, field_from_values,
                    fock_wigner, fstar_apply, identity_spec, mesh, moyal_apply,
                    parse_symbol, partial_field, qdef_spec, sqrt_n_spec,
                    star_commutator)
from fstarq.errors import SingularAmplitude
from fstarq.starproduct import ProductSetup

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def grid():
    return PhaseGrid(-6.0, 6.0, -6.0, 6.0, 193, 193, hbar=1.0, offset=0.5)


# ---------------------------------------------------------------------------
# moyal_apply


def test_moyal_apply_constant_is_identity(grid):
    w = fock_wigner(2, grid)
    out = moyal_apply(PolySymbol.constant(1.0), w)
    assert np.array_equal(out.values, w.values)


def test_moyal_apply_sho_genvalue_ground_state(grid):
    # (q^2+p^2)/2 star W_0 = 0.5 W_0, the closed form
    w0 = fock_wigner(0, grid)
    h = parse_symbol("(q^2+p^2)/2")
    out = moyal_apply(h, w0)
    assert np.max(np.abs(out.values - 0.5 * w0.values)) <= 1e-8
    assert np.max(np.abs(out.values.imag)) <= 1e-12


def test_moyal_apply_linear_symbol_two_terms(grid):
    # q star w = q w + (i hbar / 2) dw/dp: the degree-1 series, assembled by hand
    w0 = fock_wigner(0, grid)
    out = moyal_apply(PolySymbol.q(), w0, hbar=0.8)
    Q, _ = mesh(grid)
    expected = Q * w0.values + 0.5j * 0.8 * partial_field(w0, 0, 1)
    assert np.max(np.abs(out.values - expected)) <= 1e-13


# ---------------------------------------------------------------------------
# fstar_apply


def test_fstar_radial_pair_is_pointwise_product(grid):
    k = fock_wigner(0, grid)
    g = fock_wigner(1, grid)
    out = fstar_apply(k, g, sqrt_n_spec())
    assert np.max(np.abs(out.values - k.values * g.values)) <= 1e-12


def test_fstar_identity_matches_moyal_first_order(grid):
    hbar = 0.6
    k = field_from_poly(parse_symbol("q^2"), grid)
    g = field_from_poly(parse_symbol("q*p + p^2"), grid)
    out = fstar_apply(k, g, identity_spec(), hbar=hbar)
    Q, P = mesh(grid)
    kg = k.poly * g.poly
    bracket = k.poly.dq() * g.poly.dp() - k.poly.dp() * g.poly.dq()
    expected = (kg + (0.5j * hbar) * bracket).eval_grid(Q, P)
    assert np.max(np.abs(out.values - expected)) <= 1e-12


def test_fstar_identity_q_p(grid):
    out = fstar_apply(field_from_poly(PolySymbol.q(), grid),
                      field_from_poly(PolySymbol.p(), grid), identity_spec())
    Q, P = mesh(grid)
    assert np.max(np.abs(out.values - (Q * P + 0.5j))) <= 1e-12


def test_fstar_sqrt_n_at_unit_excitation():
    # grid point with (q^2+p^2)/2 = 1 exactly: (q, p) = (sqrt 2, 0)
    g = PhaseGrid(SQRT2, SQRT2 + 1.0, 0.0, 1.0, 9, 9, hbar=1.0, offset=0.0)
    k = field_from_poly(PolySymbol.q(), g)
    w = field_from_poly(PolySymbol.p(), g)
    out = fstar_apply(k, w, sqrt_n_spec())
    val = out.values[0, 0]
    # q p + (i/2) F(1) with F(1) = 3/sqrt2, and qp = 0 at that corner
    expected = 0.5j * (3.0 / SQRT2)
    assert val == pytest.approx(expected, rel=1e-13)
    assert val == pytest.approx(1.0606601717798212j, rel=1e-13)


def test_fstar_conjugation_symmetry(grid):
    # conj(k *_f g) = conj(g) *_f conj(k) for the real amplitude F
    spec = sqrt_n_spec()
    k = field_from_poly(parse_symbol("(q+i*p)^2 - 3*i*q"), grid)
    g = field_from_poly(parse_symbol("q*p + i*p^2"), grid)
    left = fstar_apply(k, g, spec).values.conj()
    right = fstar_apply(g.conjugate(), k.conjugate(), spec).values
    assert np.max(np.abs(left - right)) <= 1e-12


def test_fstar_singular_amplitude_on_origin_grid():
    g = PhaseGrid(-2, 2, -2, 2, 17, 17, offset=0.0)  # contains the origin
    k = field_from_poly(PolySymbol.q(), g)
    w = field_from_poly(PolySymbol.p(), g)
    with pytest.raises(SingularAmplitude):
        fstar_apply(k, w, sqrt_n_spec())


def test_fstar_grid_mismatch(grid):
    other = PhaseGrid(-2, 2, -2, 2, 17, 17)
    with pytest.raises(ValueError):
        fstar_apply(field_from_poly(PolySymbol.q(), grid),
                    field_from_poly(PolySymbol.p(), other), identity_spec())


def test_fstar_invalid_options(grid):
    k = field_from_poly(PolySymbol.q(), grid)
    bad_hbar = [{"hbar": -1.0}, {"hbar": 0.0}, {"hbar": math.nan}]
    bad_product = bad_hbar + [{"order": "third"}, {"order": "second", "jet_order": 1},
                              {"jet_order": 2}]
    for entry, cases in ((fstar_apply, bad_product), (star_commutator, bad_product),
                         (bracket_term, bad_hbar)):
        for kwargs in cases:
            with pytest.raises(ValueError):
                entry(k, k, identity_spec(), **kwargs)
    for kwargs in bad_hbar:
        with pytest.raises(ValueError, match="hbar must be a positive finite real"):
            moyal_apply(PolySymbol.q(), k, **kwargs)


def test_shared_setup_refuses_foreign_grid_and_missing_jets(grid):
    k = field_from_poly(PolySymbol.q(), grid)
    other = field_from_poly(PolySymbol.p(), PhaseGrid(-2, 2, -2, 2, 17, 17))
    setup = ProductSetup((k,), identity_spec())
    with pytest.raises(ValueError, match="setup's grid"):
        setup.product(k, other)
    with pytest.raises(ValueError, match="jet_order=1"):
        setup.product(k, k, jets=True)


def test_fstar_second_order_formula(grid):
    # k = q^2, g = p^2: bidifferential square gives d2q k * d2p g = 4, so
    # k *_f g = q^2 p^2 + 2 i hbar F q p - (hbar^2 / 4) F^2 * 4
    hbar = 0.5
    spec = qdef_spec(1.3)
    k = field_from_poly(parse_symbol("q^2"), grid)
    g = field_from_poly(parse_symbol("p^2"), grid)
    out = fstar_apply(k, g, spec, hbar=hbar, order="second")
    Q, P = mesh(grid)
    n = (Q**2 + P**2) / (2 * hbar)
    F = amplitude_F(spec, n)
    expected = (Q * P) ** 2 + 0.5j * hbar * F * (2 * Q) * (2 * P) \
        - (hbar**2 / 4.0) * F**2 * 4.0
    assert np.max(np.abs(out.values - expected)) <= 1e-12


def test_fstar_jet_partials_match_polynomial_truth(grid):
    # identity spec on q, p: the product is qp + i hbar/2, whose gradient is (p, q)
    k = field_from_poly(PolySymbol.q(), grid)
    g = field_from_poly(PolySymbol.p(), grid)
    out = fstar_apply(k, g, identity_spec(), jet_order=1)
    Q, P = mesh(grid)
    assert np.max(np.abs(partial_field(out, 1, 0) - P)) <= 1e-12
    assert np.max(np.abs(partial_field(out, 0, 1) - Q)) <= 1e-12
    # the conjugate field serves the conjugated jets, not a stencil estimate
    conj = out.conjugate()
    for key in ((1, 0), (0, 1)):
        assert partial_field(conj, *key).tobytes() == np.conj(partial_field(out, *key)).tobytes()


def test_fstar_jet_partials_match_fd(grid):
    # sqrt_n jets against an independent fd4 differentiation of the samples;
    # compare away from the origin, where fd4 can still track the F(n) ~
    # 1/sqrt(n) amplitude (near the origin only the jets stay accurate)
    spec = sqrt_n_spec()
    k = field_from_poly(parse_symbol("q^2 + p"), grid)
    g = field_from_poly(parse_symbol("q*p"), grid)
    out = fstar_apply(k, g, spec, jet_order=1)
    raw = field_from_values(grid, out.values)
    Q, P = mesh(grid)
    mask = (Q**2 + P**2) >= 1.0
    mask[:8, :] = mask[-8:, :] = mask[:, :8] = mask[:, -8:] = False
    for key in ((1, 0), (0, 1)):
        fd = partial_field(raw, *key)
        dev = np.abs(partial_field(out, *key) - fd)
        assert np.max(dev[mask]) <= 2e-4


# ---------------------------------------------------------------------------
# star_commutator


def test_commutator_antisymmetry_and_self(grid):
    k = field_from_poly(parse_symbol("q^2 + i*p"), grid)
    out = star_commutator(k, k, sqrt_n_spec())
    assert np.max(np.abs(out.values)) <= 1e-13


def test_commutator_identity_ladder(grid):
    a = field_from_poly(annihilation_symbol(), grid)
    abar = field_from_poly(creation_symbol(), grid)
    out = star_commutator(a, abar, identity_spec(), hbar=0.7)
    assert np.max(np.abs(out.values - 1.0)) <= 1e-10


def test_commutator_second_order_term_cancels(grid):
    spec = qdef_spec(1.2)
    k = field_from_poly(parse_symbol("q^2"), grid)
    g = field_from_poly(parse_symbol("p^2"), grid)
    first = star_commutator(k, g, spec, order="first")
    second = star_commutator(k, g, spec, order="second")
    assert np.max(np.abs(first.values - second.values)) <= 1e-11
