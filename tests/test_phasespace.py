import math

import numpy as np
import pytest
from scipy.special import eval_laguerre

from fstarq import (Field, PhaseGrid, PolySymbol, default_grid, fcs_wigner,
                    field_from_function, field_from_poly, field_from_values,
                    fock_wigner, fstar_apply, gradient, identity_spec, integrate,
                    laguerre, mesh, moyal_apply, parse_symbol, partial_field,
                    qdef_spec, registry_specs, spec_to_text, sqrt_n_spec,
                    wigner_weights)
from fstarq.errors import ProfileUnavailable
from fstarq.genvalue import HamiltonianProfile
from fstarq.phasespace import AnalyticStructure, FockWignerProfile, derivative, laguerre_series

REGISTRY = registry_specs()
REGISTRY_IDS = [spec_to_text(s) for s in REGISTRY]


# ---------------------------------------------------------------------------
# grid


def test_grid_spacing_and_samples():
    g = PhaseGrid(-8, 8, -8, 8, 513, 513)
    assert g.dq == pytest.approx(16 / 512)
    qs = g.q_values()
    assert len(qs) == 513
    assert qs[0] == pytest.approx(-8 + 0.5 * g.dq)
    assert not np.any(qs == 0.0)  # half-cell offset keeps the origin off-grid


def test_grid_origin_present_without_offset(origin_grid):
    assert 0.0 in origin_grid.q_values()
    assert 0.0 in origin_grid.p_values()


@pytest.mark.parametrize("kwargs", [
    dict(q_min=1, q_max=-1, p_min=-1, p_max=1, n_q=9, n_p=9),
    dict(q_min=-1, q_max=1, p_min=-1, p_max=1, n_q=1, n_p=9),
    dict(q_min=-1, q_max=1, p_min=-1, p_max=1, n_q=9, n_p=9, hbar=-1.0),
])
def test_grid_validation(kwargs):
    with pytest.raises(ValueError):
        PhaseGrid(**kwargs)


def test_mesh_is_cached_and_readonly(grid257):
    Q1, P1 = mesh(grid257)
    Q2, _ = mesh(grid257)
    assert Q1 is Q2
    with pytest.raises(ValueError):
        Q1[0, 0] = 5.0


# ---------------------------------------------------------------------------
# Laguerre


def test_laguerre_values():
    assert laguerre(0, 3.7) == 1.0
    assert laguerre(5, 0.0) == 1.0
    # L_2(x) = 1 - 2x + x^2/2 at x = 1, by hand
    assert laguerre(2, 1.0) == pytest.approx(-0.5, rel=1e-15)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 15, 30])
def test_laguerre_matches_scipy(n):
    x = np.linspace(0.0, 200.0, 501)
    mine = laguerre(n, x)
    ref = eval_laguerre(n, x)
    assert np.max(np.abs(mine - ref) / (1.0 + np.abs(ref))) <= 1e-12


def test_laguerre_series_accumulates():
    x = np.linspace(0.0, 30.0, 91)
    coeffs = np.array([0.3, -1.2, 0.0, 2.5])
    direct = sum(c * eval_laguerre(k, x) for k, c in enumerate(coeffs))
    assert np.allclose(laguerre_series(0, coeffs, x), direct, rtol=1e-12, atol=1e-12)


def test_fock_profile_derivative_matches_finite_difference():
    prof = FockWignerProfile(6)
    u = np.linspace(0.1, 20.0, 57)
    h = 1e-6
    for order in (1, 2, 3):
        lower = prof.deriv(u - h, order - 1)
        upper = prof.deriv(u + h, order - 1)
        fd = (upper - lower) / (2 * h)
        got = prof.deriv(u, order)
        assert np.max(np.abs(got - fd)) <= 1e-4 * (1.0 + np.max(np.abs(got)))


# ---------------------------------------------------------------------------
# Wigner fields


def test_fock_wigner_origin_values(origin_grid):
    i0 = list(origin_grid.q_values()).index(0.0)
    w0 = fock_wigner(0, origin_grid)
    w1 = fock_wigner(1, origin_grid)
    assert w0.values[i0, i0].real == pytest.approx(2.0, rel=1e-15)
    assert w1.values[i0, i0].real == pytest.approx(-2.0, rel=1e-15)
    assert np.max(np.abs(w0.values.imag)) == 0.0


@pytest.mark.parametrize("n", range(0, 13))
def test_fock_wigner_sign_near_origin(grid257, n):
    w = fock_wigner(n, grid257)
    Q, P = mesh(grid257)
    idx = np.unravel_index(np.argmin(Q * Q + P * P), Q.shape)
    assert math.copysign(1.0, w.values[idx].real) == (-1.0) ** n


@pytest.mark.parametrize("n", [0, 3, 5, 12, 20])
def test_fock_wigner_normalized(grid513, n):
    assert integrate(fock_wigner(n, grid513)).real == pytest.approx(1.0, abs=1e-6)


def test_fock_wigner_orthogonality(grid513):
    # trace-orthogonality of number states: integral of W_m W_n is delta_mn
    fields = {n: fock_wigner(n, grid513) for n in range(11)}
    worst = 0.0
    for m in range(11):
        for n in range(m, 11):
            prod = field_from_values(grid513, fields[m].values * fields[n].values)
            val = integrate(prod).real
            worst = max(worst, abs(val - (1.0 if m == n else 0.0)))
    assert worst <= 2e-4


# ---------------------------------------------------------------------------
# quadrature


def test_integrate_constant():
    g = PhaseGrid(-1, 1, -1, 1, 33, 33, offset=0.0)
    ones = field_from_values(g, np.ones((33, 33)))
    assert integrate(ones).real == pytest.approx(4 / (2 * math.pi), rel=1e-14)


def test_integrate_gaussian(grid513):
    f = field_from_function(lambda Q, P: 2.0 * np.exp(-(Q**2 + P**2)), grid513)
    assert integrate(f).real == pytest.approx(1.0, abs=1e-8)


def test_integrate_is_complex():
    g = PhaseGrid(-1, 1, -1, 1, 17, 17)
    f = field_from_function(lambda Q, P: 1j * np.ones_like(Q), g)
    val = integrate(f)
    assert val.real == pytest.approx(0.0, abs=1e-15)
    assert val.imag > 0


# ---------------------------------------------------------------------------
# gradients


def test_fd4_exact_on_linear(grid257):
    f = field_from_values(grid257, mesh(grid257)[0] + 0j)  # plain samples of q
    gq, gp = gradient(f, "fd4")
    assert np.max(np.abs(gq.values - 1.0)) <= 1e-12
    assert np.max(np.abs(gp.values)) <= 1e-12


def test_fd4_needs_five_points():
    g = PhaseGrid(-1, 1, -1, 1, 4, 9)
    f = field_from_values(g, np.zeros((4, 9)))
    with pytest.raises(ValueError):
        gradient(f, "fd4")


def test_analytic_gradient_of_vacuum(origin_grid):
    # d/dq [2 e^{-(q^2+p^2)}] = -4 q e^{-(q^2+p^2)}; at (1, 0) this is -4/e
    w0 = fock_wigner(0, origin_grid)
    gq, _ = gradient(w0, "analytic_radial")
    iq = list(origin_grid.q_values()).index(1.0)
    ip = list(origin_grid.p_values()).index(0.0)
    assert gq.values[iq, ip].real == pytest.approx(-4.0 * math.exp(-1.0), rel=1e-13)
    # fd4 agrees at its truncation level on this coarse (dq = 1/16) grid
    fq, _ = gradient(w0, "fd4")
    assert fq.values[iq, ip].real == pytest.approx(-4.0 * math.exp(-1.0), rel=1e-4)


def test_profile_unavailable():
    g = PhaseGrid(-2, 2, -2, 2, 17, 17)
    f = field_from_values(g, np.zeros((17, 17)))
    with pytest.raises(ProfileUnavailable):
        gradient(f, "analytic_radial")
    with pytest.raises(ValueError):
        gradient(f, "bogus")


def test_derivative_is_one_gradient_component():
    g = PhaseGrid(-6, 6, -6, 6, 97, 33, offset=0.5)
    w4 = fock_wigner(4, g)
    for method in ("fd4", "analytic_radial"):
        pair = gradient(w4, method)
        for axis in (0, 1):
            d = derivative(w4, axis, method)
            assert np.array_equal(d.values, pair[axis].values)
            assert d.label == pair[axis].label
    with pytest.raises(ValueError):
        derivative(w4, 2, "fd4")


def test_fd4_vs_analytic_crosscheck_is_fourth_order():
    # the two methods agree at the fd4 truncation level, which shrinks 16x
    # per grid halving (confirming the stencil order)
    def crosscheck(n_samples):
        g = PhaseGrid(-6, 6, -6, 6, n_samples, n_samples, offset=0.5)
        w4 = fock_wigner(4, g)
        fq, fp = gradient(w4, "fd4")
        aq, ap = gradient(w4, "analytic_radial")
        inner = np.s_[2:-2, 2:-2]
        return max(float(np.max(np.abs((fq.values - aq.values)[inner]))),
                   float(np.max(np.abs((fp.values - ap.values)[inner]))))

    d257 = crosscheck(257)
    d513 = crosscheck(513)
    assert d257 == pytest.approx(8.392e-04, rel=0.02)
    assert 12.0 <= d257 / d513 <= 20.0


def test_partial_field_poly_and_fallback(grid257):
    poly = parse_symbol("q^2*p")
    f = field_from_poly(poly, grid257)
    Q, P = mesh(grid257)
    assert np.allclose(partial_field(f, 1, 1), 2 * Q, rtol=0, atol=1e-12)
    raw = field_from_values(grid257, poly.eval_grid(Q, P))
    inner = np.s_[4:-4, 4:-4]
    assert np.max(np.abs((partial_field(raw, 1, 1) - 2 * Q)[inner])) <= 1e-9


def test_mixed_partials_of_radial_match_fd(grid257):
    # repeated fd4 loses one order per application; agreement is coarse
    w = fock_wigner(3, grid257)
    exact = partial_field(w, 1, 1)
    approx = field_from_values(grid257, w.values)
    fd = partial_field(approx, 1, 1)
    inner = np.s_[4:-4, 4:-4]
    assert np.max(np.abs((exact - fd)[inner])) <= 1e-2
    assert np.max(np.abs(exact - fd)) > 0  # genuinely different code paths


# ---------------------------------------------------------------------------
# weights and coherent-state Wigner functions


@pytest.mark.parametrize("spec", REGISTRY, ids=REGISTRY_IDS)
@pytest.mark.parametrize("z2", [0.5, 2.0, 4.0])
def test_weights_sum_to_one(spec, z2):
    ww = wigner_weights(spec, z2)
    assert np.all(ww.weights >= 0)
    assert float(np.sum(ww.weights)) == pytest.approx(1.0, abs=1e-10)
    assert ww.truncation_n == len(ww.weights) - 1


def test_fcs_vacuum_limit(grid257):
    w = fcs_wigner(sqrt_n_spec(), 0.0, grid257)
    Q, P = mesh(grid257)
    vacuum = 2.0 * np.exp(-(Q**2 + P**2))
    assert np.max(np.abs(w.values - vacuum)) <= 1e-14


def test_fcs_identity_origin_value(origin_grid):
    # 2 e^{-1} sum (-1)^n / n! = 2 e^{-2}, brute-forced term by term
    oracle = 2.0 * math.exp(-1.0) * sum((-1.0) ** n / math.factorial(n)
                                        for n in range(40))
    assert oracle == pytest.approx(2.0 * math.exp(-2.0), rel=1e-14)
    w = fcs_wigner(identity_spec(), 1.0, origin_grid)
    i0 = list(origin_grid.q_values()).index(0.0)
    assert w.values[i0, i0].real == pytest.approx(oracle, rel=1e-12)
    assert w.values[i0, i0].real == pytest.approx(0.2706705664732254, rel=1e-12)


@pytest.mark.parametrize("z2", [0.5, 1.0, 2.0])
def test_fcs_identity_respects_wigner_bound(grid257, z2):
    w = fcs_wigner(identity_spec(), z2, grid257)
    assert np.max(np.abs(w.values)) <= 2.0 + 1e-12


@pytest.mark.parametrize("spec", REGISTRY, ids=REGISTRY_IDS)
def test_fcs_normalized(grid513, spec):
    assert integrate(fcs_wigner(spec, 1.0, grid513)).real == pytest.approx(1.0, abs=1e-6)


def test_fcs_mixture_matches_weighted_sum(grid257):
    spec = qdef_spec(1.2)
    z2 = 1.5
    ww = wigner_weights(spec, z2)
    w = fcs_wigner(spec, z2, grid257)
    acc = np.zeros((grid257.n_q, grid257.n_p), dtype=complex)
    for n, weight in enumerate(ww.weights):
        acc += weight * fock_wigner(n, grid257).values
    assert np.max(np.abs(w.values - acc)) <= 1e-12


def test_field_finite_guard(grid257):
    bad = np.zeros((grid257.n_q, grid257.n_p))
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        field_from_values(grid257, bad)


def test_analytic_structure_radial_flag(grid257):
    w = fock_wigner(2, grid257)
    assert w.analytic.is_radial
    assert not w.analytic.partial(0).is_radial
    sq = w.analytic.partial(0)
    assert isinstance(sq, AnalyticStructure)


# ---------------------------------------------------------------------------
# radial-derivative memo


class Counting:
    """Records the order of every deriv call that reaches the profile."""

    def deriv(self, v, order):
        self.__dict__.setdefault("orders", []).append(order)
        return super().deriv(v, order)


class CountingFock(Counting, FockWignerProfile):
    pass


class CountingHamiltonian(Counting, HamiltonianProfile):
    pass


def _analytic_field(profile, grid, scale):
    structure = AnalyticStructure(profile, scale=scale)
    return Field(grid, structure.evaluate(grid), analytic=structure)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_radial_derivatives_computed_once_per_key(grid257):
    spec = sqrt_n_spec()
    fock = CountingFock(3)
    ham = CountingHamiltonian(spec, 1.0, 1.0)
    w = _analytic_field(fock, grid257, 1.0)
    h = _analytic_field(ham, grid257, 2.0)
    # six partials of W_3, orders 0..2 of its profile
    moyal_apply(PolySymbol({(2, 0): 0.5, (0, 2): 0.5}), w)
    # jets ask for the second partials of both operands too
    fstar_apply(h, w, spec, jet_order=1)
    assert sorted(fock.orders) == [0, 1, 2]
    assert sorted(ham.orders) == [0, 1, 2]
    Q, P = mesh(grid257)
    for profile, direct, scale in ((fock, FockWignerProfile(3), 1.0),
                                   (ham, HamiltonianProfile(spec, 1.0, 1.0), 2.0)):
        for k in range(3):
            assert _same_bits(profile.on_grid(grid257, scale, k),
                              direct.deriv((Q * Q + P * P) / scale, k))
    assert len(fock.orders) == len(ham.orders) == 3  # served from the memo


def test_radial_memo_keys_on_grid_and_scale(grid257, origin_grid):
    profile = CountingFock(2)
    for grid, scale in ((grid257, 1.0), (origin_grid, 1.0), (grid257, 2.0)):
        Q, P = mesh(grid)
        direct = FockWignerProfile(2).deriv((Q * Q + P * P) / scale, 1)
        assert _same_bits(profile.on_grid(grid, scale, 1), direct)
    with pytest.raises(ValueError):
        profile.on_grid(grid257, 1.0, 1)[0, 0] = 0.0
    assert profile.orders == [1, 1, 1]
