import math

import numpy as np
import pytest

from fstarq import (PolySymbol, annihilation_symbol, creation_symbol, mesh, moyal_exact,
                    parse_symbol, poisson_bracket, random_polynomial)
from fstarq.errors import ParseError


def terms(text):
    return parse_symbol(text).terms


def test_parse_basic():
    assert terms("q") == {(1, 0): 1.0 + 0j}
    assert terms("p") == {(0, 1): 1.0 + 0j}
    assert terms("i") == {(0, 0): 1j}
    assert terms("(q^2+p^2)/2") == {(2, 0): 0.5 + 0j, (0, 2): 0.5 + 0j}


def test_parse_complex_square():
    # (q + i p)^2 = q^2 + 2i qp - p^2, expanded by hand
    assert terms("(q+i*p)^2") == {(2, 0): 1.0 + 0j, (1, 1): 2j, (0, 2): -1.0 + 0j}


def test_parse_cancellation_drops_zero_terms():
    assert terms("q - q") == {}
    assert parse_symbol("q - q").to_string() == "0"


@pytest.mark.parametrize("text", ["q/p", "1/(q+p)", "q^p", "q^(2)", "q^-1", "2^^3", "(q"])
def test_parse_rejections(text):
    with pytest.raises(ParseError):
        parse_symbol(text)


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_symbol("q + $")
    assert err.value.position == 4
    with pytest.raises(ParseError) as err:
        parse_symbol("q/p")
    assert err.value.position == 1


def test_division_by_zero_rejected():
    with pytest.raises(ParseError):
        parse_symbol("q/0")


def test_division_by_complex_constant():
    got = terms("q/(2*i)")
    assert got == {(1, 0): -0.5j}


def test_eval_against_direct():
    poly = parse_symbol("3*q^2*p - i*p^3 + 2")
    q, p = 1.5, -0.5
    direct = 3 * q**2 * p - 1j * p**3 + 2
    assert poly(q, p) == pytest.approx(direct, rel=1e-15)
    Q = np.array([[q]])
    P = np.array([[p]])
    assert poly.eval_grid(Q, P)[0, 0] == pytest.approx(direct, rel=1e-15)


def test_eval_grid_on_axes_matches_mesh(grid513):
    poly = random_polynomial(np.random.default_rng(6), 6)
    on_mesh = poly.eval_grid(*mesh(grid513))
    on_axes = poly.eval_grid(*grid513.axes())
    assert on_axes.shape == on_mesh.shape
    assert np.array_equal(on_axes.view(np.int64), on_mesh.view(np.int64))


def test_partial_derivatives():
    poly = parse_symbol("q^3*p^2")
    assert poly.dq().terms == {(2, 2): 3.0 + 0j}
    assert poly.dp().terms == {(3, 1): 2.0 + 0j}
    assert poly.partial(1, 1).terms == {(2, 1): 6.0 + 0j}
    assert poly.partial(4, 0).terms == {}


def test_print_parse_round_trip(rng):
    for _ in range(25):
        poly = random_polynomial(rng, max_degree=4)
        again = parse_symbol(poly.to_string())
        assert again == poly


def test_round_trip_sparse_and_edge_coeffs():
    for poly in (PolySymbol(), PolySymbol.constant(-1.0), PolySymbol({(2, 0): 1.0}),
                 PolySymbol({(0, 3): -2.5j, (1, 0): 1.0 + 0j}),
                 PolySymbol({(1, 1): 1e-17 + 1e300j})):
        assert parse_symbol(poly.to_string()) == poly


# ---------------------------------------------------------------------------
# Moyal product


def test_moyal_q_star_q():
    q = PolySymbol.q()
    assert moyal_exact(q, q, 1.0) == parse_symbol("q^2")


def test_moyal_q_star_p():
    q, p = PolySymbol.q(), PolySymbol.p()
    hbar = 0.7
    got = moyal_exact(q, p, hbar)
    assert got.terms == {(1, 1): 1.0 + 0j, (0, 0): 0.5j * hbar}
    got_rev = moyal_exact(p, q, hbar)
    assert got_rev.terms == {(1, 1): 1.0 + 0j, (0, 0): -0.5j * hbar}


@pytest.mark.parametrize("hbar", [1.0, 0.1, 2.5])
def test_moyal_ladder_commutator(hbar):
    # (1/hbar) (a * abar - abar * a) = 1
    a = annihilation_symbol()
    abar = creation_symbol()
    comm = (moyal_exact(a, abar, hbar) - moyal_exact(abar, a, hbar)) * (1.0 / hbar)
    dev = (comm - PolySymbol.constant(1.0)).max_abs_coeff()
    assert dev <= 1e-15


def test_moyal_constant_is_identity():
    one = PolySymbol.constant(1.0)
    poly = parse_symbol("(q+i*p)^3 - 2*q*p")
    assert moyal_exact(one, poly, 1.3) == poly
    assert moyal_exact(poly, one, 1.3) == poly


def test_moyal_associativity_random(rng):
    hbar = 1.0
    for _ in range(20):
        k = random_polynomial(rng, 4)
        g = random_polynomial(rng, 4)
        h = random_polynomial(rng, 4)
        left = moyal_exact(moyal_exact(k, g, hbar), h, hbar)
        right = moyal_exact(k, moyal_exact(g, h, hbar), hbar)
        scale = max(left.max_abs_coeff(), 1.0)
        assert (left - right).max_abs_coeff() / scale <= 1e-12


def test_moyal_bilinear(rng):
    hbar = 0.3
    k1 = random_polynomial(rng, 3)
    k2 = random_polynomial(rng, 3)
    g = random_polynomial(rng, 3)
    combo = moyal_exact(k1 * 2.0 + k2 * (1.5j), g, hbar)
    split = moyal_exact(k1, g, hbar) * 2.0 + moyal_exact(k2, g, hbar) * 1.5j
    assert (combo - split).max_abs_coeff() <= 1e-12 * max(combo.max_abs_coeff(), 1.0)


def test_moyal_small_hbar_limit(rng):
    # k * g - k g = (i hbar / 2) {k, g} + O(hbar^2): halving hbar roughly
    # halves the deviation from the pointwise product
    k = random_polynomial(rng, 3)
    g = random_polynomial(rng, 3)

    def dev(hbar):
        return (moyal_exact(k, g, hbar) - k * g).max_abs_coeff()

    d1, d2 = dev(1e-3), dev(5e-4)
    assert d2 == pytest.approx(0.5 * d1, rel=0.05)
    # subtracting the first-order term leaves O(hbar^2)
    bracket_term = poisson_bracket(k, g) * (0.5j * 1e-3)
    residual = moyal_exact(k, g, 1e-3) - k * g - bracket_term
    assert residual.max_abs_coeff() <= 1e-3 * bracket_term.max_abs_coeff()


def test_poisson_bracket_canonical():
    q, p = PolySymbol.q(), PolySymbol.p()
    assert poisson_bracket(q, p) == PolySymbol.constant(1.0)
    assert poisson_bracket(p, q) == PolySymbol.constant(-1.0)


def test_pow_and_degree():
    poly = (PolySymbol.q() + PolySymbol.p()) ** 3
    assert poly.degree == 3
    assert poly.terms[(2, 1)] == 3.0 + 0j
    with pytest.raises(ValueError):
        PolySymbol.q() ** -1
