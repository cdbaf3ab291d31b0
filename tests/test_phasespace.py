import functools
import math
import re
import sys
import threading

import numpy as np
import pytest
from scipy.special import eval_laguerre

from fstarq import (FStarError, Field, NonPositiveValue, PhaseGrid, PolySymbol, amplitude_F,
                    amplitude_F_deriv, annihilation_symbol, build_hamiltonian,
                    commutator_target, creation_symbol, default_grid, fcs_wigner,
                    field_from_poly, fock_wigner, genvalue_residual, gradient, identity_spec,
                    integrate, laguerre, mesh, moyal_apply, parse_symbol, partial_field,
                    qdef_spec, ladder_fields, registry_specs, spec_to_text, sqrt_n_spec,
                    wigner_weights)
from fstarq.genvalue import DeformationProfile, HamiltonianProfile
from fstarq.phasespace import (AnalyticStructure, FockWignerProfile, MixtureWignerProfile,
                               RadialProfile, _fd4_axis, _partials, fd4_partial,
                               laguerre_series)
from fstarq.starproduct import ProductSetup

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
    dict(q_min=-1, q_max=1, p_min=-1, p_max=1, n_q=9, n_p=9, offset=math.nan),
    dict(q_min=-1, q_max=1, p_min=-1, p_max=1, n_q=9, n_p=9, offset=math.inf),
])
def test_grid_validation(kwargs):
    with pytest.raises(ValueError):
        PhaseGrid(**kwargs)


def test_grid_refuses_a_fractional_sample_count():
    # n_q = 5.5 was accepted, and q_values() gave 6 samples, the last beyond q_max
    for n_q, n_p in ((5.5, 5), (5, 5.0)):
        with pytest.raises(TypeError):
            PhaseGrid(-4, 4, -4, 4, n_q, n_p)
    grid = PhaseGrid(-4, 4, -4, 4, np.int64(5), np.int32(6))
    assert (len(grid.q_values()), len(grid.p_values())) == (5, 6)


@pytest.mark.parametrize("bounds", [(math.nan, 1, -1, 1), (-1, 1, -1, math.nan),
                                    (-1, math.inf, -1, 1), (-math.inf, 1, -1, 1)], ids=str)
def test_grid_names_a_non_finite_bound(bounds):
    # a NaN bound used to read as an ordering error, "max > min"
    with pytest.raises(ValueError, match="^grid bounds must be finite$"):
        PhaseGrid(*bounds, 9, 9)


def test_number_state_refuses_a_fractional_n(grid257):
    # n = 2.5 died in numpy ("expected a sequence of integers"); a numpy integer is an n
    for build in (lambda n: laguerre(n, 1.0), FockWignerProfile,
                  lambda n: fock_wigner(n, grid257),
                  lambda n: genvalue_residual(sqrt_n_spec(), n, grid257)):
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            build(2.5)
    assert laguerre(np.int64(2), 1.0) == laguerre(2, 1.0)


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


# The number-state profile is the one-hot mixture, and the Laguerre series is
# one recurrence loop; these are the direct formulas they replaced, kept here
# as the bit-exact reference.


def _reference_laguerre(n, x):
    lkm1 = np.ones_like(x)
    if n == 0:
        return lkm1
    lk = 1.0 - x
    for k in range(1, n):
        lkm1, lk = lk, ((2.0 * k + 1.0 - x) * lk - k * lkm1) / (k + 1.0)
    return lk


def _reference_laguerre_series(alpha, coeffs, x):
    out = np.zeros_like(x)
    lkm1 = np.ones_like(x)
    out += coeffs[0] * lkm1
    if len(coeffs) == 1:
        return out
    lk = 1.0 + alpha - x
    out += coeffs[1] * lk
    for k in range(1, len(coeffs) - 1):
        lkm1, lk = lk, ((2.0 * k + 1.0 + alpha - x) * lk - (k + alpha) * lkm1) / (k + 1.0)
        out += coeffs[k + 1] * lk
    return out


def _reference_fock_deriv(n, v, order):
    if order == 0:
        return 2.0 * (-1.0) ** n * np.exp(-v) * _reference_laguerre(n, 2.0 * v)
    x = 2.0 * v
    acc = np.zeros_like(x)
    for j in range(0, min(order, n) + 1):
        coeffs = np.zeros(n - j + 1)
        coeffs[n - j] = 1.0
        acc += math.comb(order, j) * (2.0 ** j) * _reference_laguerre_series(j, coeffs, x)
    sign = 2.0 * (-1.0) ** n * (-1.0) ** order
    return sign * np.exp(-v) * acc


def test_fock_profile_bit_identical_to_direct_formula(grid513):
    Q, P = mesh(grid513)
    v = Q * Q + P * P
    for n in range(13):
        assert _same_bits(laguerre(n, 2.0 * v), _reference_laguerre(n, 2.0 * v))
        profile = FockWignerProfile(n)
        for order in range(4):
            assert _same_bits(profile.deriv(v, order), _reference_fock_deriv(n, v, order))


def test_laguerre_series_bit_identical_to_direct_sweep(grid513, rng):
    Q, P = mesh(grid513)
    x = 2.0 * (Q * Q + P * P)
    for alpha in range(4):
        for length in (1, 2, 3, 13):
            coeffs = rng.standard_normal(length)
            assert _same_bits(laguerre_series(alpha, coeffs, x),
                              _reference_laguerre_series(alpha, coeffs, x))


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
            prod = Field(grid513, fields[m].values * fields[n].values)
            val = integrate(prod).real
            worst = max(worst, abs(val - (1.0 if m == n else 0.0)))
    assert worst <= 2e-4


# ---------------------------------------------------------------------------
# quadrature


def test_integrate_constant():
    g = PhaseGrid(-1, 1, -1, 1, 33, 33, offset=0.0)
    ones = Field(g, np.ones((33, 33)))
    assert integrate(ones).real == pytest.approx(4 / (2 * math.pi), rel=1e-14)


def test_integrate_gaussian(grid513):
    Q, P = mesh(grid513)
    f = Field(grid513, 2.0 * np.exp(-(Q**2 + P**2)))
    assert integrate(f).real == pytest.approx(1.0, abs=1e-8)


def test_integrate_is_complex():
    g = PhaseGrid(-1, 1, -1, 1, 17, 17)
    f = Field(g, 1j * np.ones((17, 17)))
    val = integrate(f)
    assert val.real == pytest.approx(0.0, abs=1e-15)
    assert val.imag > 0


# ---------------------------------------------------------------------------
# gradients: partial_field is the one exact route; fd4_partial is called by name


def test_fd4_exact_on_linear(grid257):
    f = Field(grid257, mesh(grid257)[0] + 0j)  # plain samples of q
    gq, gp = fd4_partial(f, 1, 0), fd4_partial(f, 0, 1)
    assert np.max(np.abs(gq - 1.0)) <= 1e-12
    assert np.max(np.abs(gp)) <= 1e-12


def test_fd4_needs_five_points():
    g = PhaseGrid(-1, 1, -1, 1, 4, 9)
    f = Field(g, np.zeros((4, 9)))
    with pytest.raises(ValueError, match="at least 5 samples"):
        fd4_partial(f, 1, 0)


def test_analytic_gradient_of_vacuum(origin_grid):
    # d/dq [2 e^{-(q^2+p^2)}] = -4 q e^{-(q^2+p^2)}; at (1, 0) this is -4/e
    w0 = fock_wigner(0, origin_grid)
    gq, _ = gradient(w0)
    iq = list(origin_grid.q_values()).index(1.0)
    ip = list(origin_grid.p_values()).index(0.0)
    assert gq[iq, ip].real == pytest.approx(-4.0 * math.exp(-1.0), rel=1e-13)
    # fd4 agrees at its truncation level on this coarse (dq = 1/16) grid
    fq = fd4_partial(w0, 1, 0)
    assert fq[iq, ip].real == pytest.approx(-4.0 * math.exp(-1.0), rel=1e-4)


def test_partial_field_sources_match_fd4_and_the_profile_bitwise():
    # fd4_partial is the bare fd4 stencil on the samples, and the Wigner field
    # gets the chain rule through its profile, bit for bit
    g = PhaseGrid(-6, 6, -6, 6, 97, 33, offset=0.5)
    w4 = fock_wigner(4, g)
    for axis, key, h in ((0, (1, 0), g.dq), (1, (0, 1), g.dp)):
        assert _same_bits(fd4_partial(w4, *key), _fd4_axis(w4.values, h, axis))
        assert _same_bits(partial_field(w4, *key), w4.source.partial(*key).evaluate(g))
    gq, gp = gradient(w4)
    assert _same_bits(gq, partial_field(w4, 1, 0)) and _same_bits(gp, partial_field(w4, 0, 1))


def test_fd4_vs_analytic_crosscheck_is_fourth_order():
    # the two sources agree at the fd4 truncation level, which shrinks 16x
    # per grid halving (confirming the stencil order)
    def crosscheck(n_samples):
        g = PhaseGrid(-6, 6, -6, 6, n_samples, n_samples, offset=0.5)
        w4 = fock_wigner(4, g)
        fq, fp = fd4_partial(w4, 1, 0), fd4_partial(w4, 0, 1)
        aq, ap = gradient(w4)
        inner = np.s_[2:-2, 2:-2]
        return max(float(np.max(np.abs((fq - aq)[inner]))),
                   float(np.max(np.abs((fp - ap)[inner]))))

    d257 = crosscheck(257)
    d513 = crosscheck(513)
    assert d257 == pytest.approx(8.392e-04, rel=0.02)
    assert 12.0 <= d257 / d513 <= 20.0


def test_partial_field_poly_and_fallback(grid257):
    poly = parse_symbol("q^2*p")
    f = field_from_poly(poly, grid257)
    Q, P = mesh(grid257)
    assert np.allclose(partial_field(f, 1, 1), 2 * Q, rtol=0, atol=1e-12)
    raw = Field(grid257, poly.eval_grid(Q, P))
    inner = np.s_[4:-4, 4:-4]
    assert np.max(np.abs((fd4_partial(raw, 1, 1) - 2 * Q)[inner])) <= 1e-9


@pytest.mark.parametrize("key", [(-1, 0), (0, -1), (-1, 2), (2, -3)], ids=str)
def test_partial_field_refuses_negative_orders(grid257, key):
    # analytic, poly and sourceless fields alike, with the whole message
    fields = (fock_wigner(1, grid257), field_from_poly(parse_symbol("q^2*p"), grid257),
              Field(grid257, np.ones((257, 257)), label="ones"))
    for field in fields:
        with pytest.raises(ValueError, match="^" + re.escape(f"partial {key} of {field.label}: "
                                                             "orders must be >= 0") + "$"):
            partial_field(field, *key)


def test_mixed_partials_of_radial_match_fd(grid257):
    # repeated fd4 loses one order per application; agreement is coarse
    w = fock_wigner(3, grid257)
    exact = partial_field(w, 1, 1)
    fd = fd4_partial(w, 1, 1)
    inner = np.s_[4:-4, 4:-4]
    assert np.max(np.abs((exact - fd)[inner])) <= 1e-2
    assert np.max(np.abs(exact - fd)) > 0  # genuinely different code paths


# ---------------------------------------------------------------------------
# weights and coherent-state Wigner functions


@pytest.mark.parametrize("spec", REGISTRY, ids=REGISTRY_IDS)
@pytest.mark.parametrize("z2", [0.5, 2.0, 4.0])
def test_weights_sum_to_one(spec, z2):
    weights = wigner_weights(spec, z2)
    assert weights.dtype == np.float64 and weights.ndim == 1
    assert np.all(weights >= 0)
    assert float(np.sum(weights)) == pytest.approx(1.0, abs=1e-10)


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
    weights = wigner_weights(spec, z2)
    w = fcs_wigner(spec, z2, grid257)
    acc = np.zeros((grid257.n_q, grid257.n_p), dtype=complex)
    for n, weight in enumerate(weights):
        acc += weight * fock_wigner(n, grid257).values
    assert np.max(np.abs(w.values - acc)) <= 1e-12


def test_field_finite_guard(grid257):
    bad = np.zeros((grid257.n_q, grid257.n_p))
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        Field(grid257, bad)


def test_analytic_structure_radial_flag(grid257):
    w = fock_wigner(2, grid257)
    sq = w.source.partial(1, 0)
    assert isinstance(sq, AnalyticStructure)
    assert set(sq.terms) == {1}  # the chain rule lifts w to w', times 2q / scale
    for source in (w.source, PolySymbol.q()):  # both sources refuse a negative order alike
        with pytest.raises(ValueError, match=r"^partial \(0, -1\): orders must be >= 0$"):
            source.partial(0, -1)


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
    return AnalyticStructure(profile, scale=scale).field(grid, "")


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("source", ["poly", "analytic", "source"])
def test_field_takes_no_exact_source(grid257, source):
    # a caller could attach partials of some other function to the samples
    w = fock_wigner(2, grid257)
    with pytest.raises(TypeError):
        Field(grid257, w.values, **{source: w.source})
    assert Field(grid257, w.values).source is None


def test_conjugate_serves_the_conjugated_source(grid257):
    poly = field_from_poly(parse_symbol("q^2 + i*q*p - 3*i*p"), grid257)
    ladder = ladder_fields(qdef_spec(1.2), grid257)[0]
    for field in (poly, ladder):
        conj = field.conjugate()
        assert conj.label == f"conj({field.label})"
        for key in ((1, 0), (0, 1), (1, 1)):
            assert _same_bits(partial_field(conj, *key), np.conj(partial_field(field, *key)))
    assert poly.conjugate().source == poly.source.conjugate()
    assert ladder.conjugate().source.terms == {0: ladder.source.terms[0].conjugate()}


def test_radial_derivatives_computed_once_per_key(grid257):
    spec = sqrt_n_spec()
    fock = CountingFock(3)
    ham = CountingHamiltonian(spec, 1.0, 1.0)
    w = _analytic_field(fock, grid257, 1.0)
    h = _analytic_field(ham, grid257, 2.0)
    # six partials of W_3, orders 0..2 of its profile
    moyal_apply(PolySymbol({(2, 0): 0.5, (0, 2): 0.5}), w)
    # the associativity defect asks for the second partials of every operand too
    ProductSetup(grid257, spec).defect_squared(h, w, h)
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
    # the n_q != n_p grid fails if the q and p axes of the sampling are swapped
    oblong = PhaseGrid(-4.0, 4.0, -3.0, 3.0, 33, 17, hbar=1.0, offset=0.5)
    profile = CountingFock(2)
    keys = ((grid257, 1.0), (origin_grid, 1.0), (grid257, 2.0), (oblong, 1.0))
    for grid, scale in keys:
        Q, P = mesh(grid)
        direct = FockWignerProfile(2).deriv((Q * Q + P * P) / scale, 1)
        assert _same_bits(profile.on_grid(grid, scale, 1), direct)
    # the profile keeps one read-only table per key, over the distinct radii
    tables = profile.__dict__["_tables"]
    assert list(tables) == [(grid, scale, 1) for grid, scale in keys]
    for (grid, _, _), table in tables.items():
        assert table.shape == grid._radii()[0].shape and not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.0
    # each gather is a fresh, writable mesh array: writing to one leaves the
    # table and the next gather as they were
    first = profile.on_grid(grid257, 1.0, 1)
    kept = first.copy()
    first[0, 0] = 0.0
    second = profile.on_grid(grid257, 1.0, 1)
    assert second is not first and not np.shares_memory(second, first)
    assert _same_bits(second, kept)
    assert profile.orders == [1, 1, 1, 1]


def test_on_grid_enforces_the_derivative_budget(grid257):
    profile = CountingHamiltonian(sqrt_n_spec(), 1.0, 1.0)
    with pytest.raises(ValueError, match="CountingHamiltonian carries 2 derivatives only"):
        profile.on_grid(grid257, 2.0, 3)
    assert "orders" not in profile.__dict__  # refused before any sample


class CountingDeformation(Counting, DeformationProfile):
    pass


def _gathers(monkeypatch, profile):
    """(k, first row) of each gather of the profile's tables onto a block of
    rows, in order, as ``PhaseGrid.gather`` is asked for them from now on."""
    seen = []
    gather = PhaseGrid.gather

    def recording(self, table, rows):
        seen.extend((key[2], rows.start) for key, kept in profile.__dict__["_tables"].items()
                    if kept is table)
        return gather(self, table, rows)
    monkeypatch.setattr(PhaseGrid, "gather", recording)
    return seen


def test_a_batch_gathers_each_derivative_once(monkeypatch, grid257):
    # once per block: each w^(k) is gathered onto the block once for every
    # partial formed there that takes it, and dropped with the block
    starts = [rows.start for rows in grid257.row_blocks()]
    w = _analytic_field(CountingFock(3), grid257, 1.0)
    gathers = _gathers(monkeypatch, w.source.profile)
    moyal_apply(PolySymbol({(2, 0): 0.5, (0, 2): 0.5}), w)
    # the four partials of W_3 take w' (all four) and w'' (the second two)
    assert gathers == [(k, start) for start in starts for k in (1, 2)]
    assert w.source.profile.orders == [0, 1, 2]  # one table per (grid, scale, k)
    spec = qdef_spec(1.2)
    profile = CountingDeformation(spec)
    A, Abar = (AnalyticStructure(profile, 2.0, {0: symbol}).field(grid257, "")
               for symbol in (annihilation_symbol(), creation_symbol()))
    gathers = _gathers(monkeypatch, profile)
    ProductSetup(grid257, spec).commutator(A, Abar)
    # a f(n) and its conjugate share one gather of f and of f' for their four partials
    assert gathers == [(k, start) for start in starts for k in (0, 1)]
    assert profile.orders == [0, 1]


BATCH_GRIDS = {"513": default_grid(), "origin": PhaseGrid(-4.0, 4.0, -4.0, 4.0, 129, 129,
                                                          hbar=1.0, offset=0.0),
               "1537x65": PhaseGrid(-6.0, 6.0, -6.0, 6.0, 1537, 65, hbar=1.0, offset=0.5)}


def _by_blocks(requests, grid):
    """Each request's ``_partials`` blocks over ``row_blocks``, put back
    together: a (1, 1) constant is served whole, so by every block alike."""
    blocks = [arrays for _, arrays in _partials(grid, requests, grid.row_blocks())]
    out = []
    for parts in zip(*blocks):
        if parts[0].shape == (1, 1):
            assert all(_same_bits(part, parts[0]) for part in parts)
            out.append(parts[0])
        else:
            out.append(np.concatenate(parts))
    return out


@pytest.mark.parametrize("grid", BATCH_GRIDS.values(), ids=BATCH_GRIDS)
@pytest.mark.parametrize("group", ["W_n and H", "A and Abar"])
def test_a_batch_keeps_the_bits_of_one_partial_at_a_time(grid, group):
    def fields():
        if group == "W_n and H":
            return [fock_wigner(3, grid), build_hamiltonian(sqrt_n_spec(), grid)]
        return list(ladder_fields(qdef_spec(1.2), grid))
    keys = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    batch = _by_blocks([(field, *key) for field in fields() for key in keys], grid)
    alone = [partial_field(field, *key) for field in fields() for key in keys]
    assert all(_same_bits(got, want) for got, want in zip(batch, alone, strict=True))


# 513^2 and 257^2 end on a one-row block, the offset-0 129^2 on two rows and
# 1537 x 65 on 25
BLOCK_GRIDS = {**BATCH_GRIDS, "257": PhaseGrid(-8.0, 8.0, -8.0, 8.0, 257, 257,
                                               hbar=1.0, offset=0.5)}


def _block_fields(grid):
    """Fields of every source kind, each with the highest partial order it serves."""
    yield fock_wigner(4, grid), 3
    yield fcs_wigner(qdef_spec(1.2), 1.5, grid), 3
    yield build_hamiltonian(sqrt_n_spec(), grid), 2
    for field in ladder_fields(qdef_spec(1.2), grid):
        yield field, 2
    for text in ("0.5*q^3 - 2*q*p + p^2 - 1.5", "i*q^2*p + (2-i)*p^3 + q"):
        yield field_from_poly(parse_symbol(text), grid), 4


@pytest.mark.parametrize("grid", BLOCK_GRIDS.values(), ids=BLOCK_GRIDS)
def test_block_partials_keep_the_bits_of_partial_field(grid):
    for field, top in _block_fields(grid):
        keys = [(i, m - i) for m in range(top + 1) for i in range(m + 1)]
        blocks = _by_blocks([(field, *key) for key in keys], grid)
        for key, got in zip(keys, blocks, strict=True):
            want = partial_field(field, *key)
            assert got.dtype == want.dtype and _same_bits(got, want), (field.label, key)


def _structure_fields(grid):
    yield fock_wigner(0, grid)
    yield fock_wigner(4, grid)
    yield build_hamiltonian(sqrt_n_spec(), grid)


@pytest.mark.parametrize("grid", BLOCK_GRIDS.values(), ids=BLOCK_GRIDS)
def test_structure_operands_keep_the_bits_of_their_fields(grid):
    # a structure operand is the field it samples, with no mesh-sized values:
    # its (0, 0) is the sum cast to complex128, its partials the field's
    keys = [(0, 0), (1, 0), (0, 1), (1, 1)]
    for field in _structure_fields(grid):
        blocks = _by_blocks([(field.source, *key) for key in keys], grid)
        for key, got in zip(keys, blocks, strict=True):
            want = field.values if key == (0, 0) else partial_field(field, *key)
            assert got.dtype == want.dtype and _same_bits(got, want), (field.label, key)


def test_structure_operand_budget_is_refused_as_a_field_operands_is(origin_grid):
    structure = build_hamiltonian(sqrt_n_spec(), origin_grid).source
    unnamed = structure.field(origin_grid, "")
    with pytest.raises(ValueError) as want:
        partial_field(unnamed, 3, 0)
    with pytest.raises(ValueError) as got:
        _partials(origin_grid, [(structure, 1, 0), (structure, 3, 0)], origin_grid.row_blocks())
    assert str(got.value) == str(want.value) == (
        "partial (3, 0) of an unnamed field: HamiltonianProfile carries 2 derivatives only")


def _arrays(value):
    """The arrays in value, looking into dicts."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)


@pytest.mark.parametrize("spec", [identity_spec(), sqrt_n_spec()], ids=["identity", "sqrt_n"])
def test_profiles_keep_only_tables_over_the_distinct_radii(monkeypatch, grid257, spec):
    profiles = []
    on_grid = RadialProfile.on_grid

    def recording(self, grid, scale, k):
        profiles.append(self)
        return on_grid(self, grid, scale, k)
    monkeypatch.setattr(RadialProfile, "on_grid", recording)
    genvalue_residual(spec, 5, grid257)
    sizes = [array.size for profile in profiles for array in _arrays(vars(profile))]
    assert profiles and max(sizes) == len(grid257._radii()[0])


def test_nan_partial_at_the_origin_is_named(origin_grid):
    # a * f(n) for f = sqrt(n): the chain rule puts 0 * f'(0) = 0 * inf at the
    # origin; the refusal names the partial, the field and the point, with no
    # numpy warning first (pytest turns RuntimeWarning into an error)
    A = ladder_fields(sqrt_n_spec(), origin_grid)[0]
    with pytest.raises(ValueError, match=r"^partial \(1, 0\) of A\[sqrt_n\] is not finite "
                                         r"at \(q, p\) = \(0\.0, 0\.0\)$"):
        partial_field(A, 1, 0)


# ---------------------------------------------------------------------------
# radial quotient: PhaseGrid.radial calls fn once per distinct q^2 + p^2 and
# gathers the values back; every sample keeps the bits of the direct mesh
# evaluation fn((q*q + p*p) / scale), and every refusal its message.

QUOTIENT_GRIDS = {
    "513": default_grid(),
    "257": PhaseGrid(-8.0, 8.0, -8.0, 8.0, 257, 257, hbar=1.0, offset=0.5),
    "oblong": PhaseGrid(-4.0, 4.0, -3.0, 3.0, 33, 17, hbar=1.0, offset=0.5),
    # offset 0: v = 0 is a sample, the only one the r_cut = 0.0 disc keeps
    "origin": PhaseGrid(-4.0, 4.0, -4.0, 4.0, 129, 129, hbar=1.0, offset=0.0),
}
AMPLITUDE_SPECS = REGISTRY + [qdef_spec(0.9), qdef_spec(1.1)]


def _sample(sampler, fn):
    """fn's samples, or the type and message of the toolkit error it raised."""
    try:
        return sampler(fn)
    except FStarError as exc:
        return type(exc), str(exc)


def _direct(grid, scale):
    Q, P = mesh(grid)
    return lambda fn: fn((Q * Q + P * P) / scale)


def _assert_quotient_exact(grid, fn, scale):
    got = _sample(lambda f: grid.radial(f, scale), fn)
    want = _sample(_direct(grid, scale), fn)
    if isinstance(want, tuple):
        assert got == want
    elif want.dtype == bool:
        assert got.dtype == bool and np.array_equal(got, want)
    else:
        assert _same_bits(got, want)


def _profile_cases():
    weights = np.random.default_rng(1401).standard_normal(40)
    yield from ((MixtureWignerProfile(weights), 1.0, k) for k in range(4))
    for spec in REGISTRY:
        for k in range(3):
            yield HamiltonianProfile(spec, 1.0, 1.0), 2.0, k
            yield DeformationProfile(spec), 2.0, k


@pytest.mark.parametrize("name", QUOTIENT_GRIDS)
def test_radial_quotient_fock_profiles_bit_exact(name):
    grid = QUOTIENT_GRIDS[name]
    for n in range(21):
        profile = FockWignerProfile(n)
        for k in range(4):
            _assert_quotient_exact(grid, lambda v: profile.deriv(v, k), 1.0)


@pytest.mark.parametrize("name", QUOTIENT_GRIDS)
def test_radial_quotient_profiles_bit_exact(name):
    grid = QUOTIENT_GRIDS[name]
    for profile, scale, k in _profile_cases():
        _assert_quotient_exact(grid, lambda v: profile.deriv(v, k), scale)


@pytest.mark.parametrize("name", QUOTIENT_GRIDS)
def test_radial_quotient_amplitudes_and_mask_bit_exact(name):
    grid = QUOTIENT_GRIDS[name]
    for spec in AMPLITUDE_SPECS:
        for fn in (amplitude_F, amplitude_F_deriv, commutator_target):
            _assert_quotient_exact(grid, functools.partial(fn, spec), 2.0)
    for r_cut in (0.0, 0.1, 2.5, 4.0, 7.9):
        _assert_quotient_exact(grid, lambda v: v <= r_cut * r_cut, 1.0)


@pytest.mark.parametrize("grid, distinct", [
    (default_grid(), 20759),
    (QUOTIENT_GRIDS["257"], 5553),
    (PhaseGrid(-6.0, 6.0, -6.0, 6.0, 1537, 65, hbar=1.0, offset=0.5), 24223),
], ids=["513", "257", "crosscheck"])
def test_radial_calls_fn_once_per_distinct_radius(grid, distinct):
    seen = []
    out = grid.radial(lambda v: seen.append(v.copy()) or 3.0 * v, 2.0)
    assert len(seen) == 1 and seen[0].shape == (distinct,)
    assert np.unique(seen[0]).size == distinct
    assert out.shape == (grid.n_q, grid.n_p)


@pytest.mark.parametrize("lo, hi", [(0.0, 0.5), (1.0, 2.0), (3.0, 3.5), (7.0, 9.0), (20.0, 25.0)])
def test_radial_refusal_names_the_first_point_in_mesh_order(lo, hi):
    # a refusal that names the first flagged element of its input names the
    # first flagged point of the mesh, because fn sees first appearances in order
    grid = QUOTIENT_GRIDS["oblong"]

    def refuse(v):
        bad = (v > lo) & (v < hi)
        if bad.any():
            raise NonPositiveValue(f"bad at v = {v[bad].flat[0]!r}")
        return v

    Q, P = mesh(grid)
    v = Q * Q + P * P
    first = v[(v > lo) & (v < hi)].flat[0]
    with pytest.raises(NonPositiveValue, match=f"^bad at v = {re.escape(repr(first))}$"):
        grid.radial(refuse)


def test_radii_are_read_only(grid257):
    r2u, idx = grid257._radii()
    with pytest.raises(ValueError):
        r2u[0] = 1.0
    with pytest.raises(ValueError):
        idx[0, 0] = 0


def test_radial_on_a_fresh_grid_from_threads():
    grid = PhaseGrid(-5.5, 5.25, -4.75, 5.5, 211, 199, hbar=1.0, offset=0.5)
    profile = FockWignerProfile(5)
    barrier = threading.Barrier(4)
    results = [None] * 4

    def work(i):
        barrier.wait(timeout=10)
        results[i] = grid.radial(lambda v: profile.deriv(v, 1), 1.0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    want = _direct(grid, 1.0)(lambda v: profile.deriv(v, 1))
    assert all(_same_bits(r, want) for r in results)
