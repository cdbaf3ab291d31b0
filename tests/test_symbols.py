
import math

import numpy as np
import pytest

from fstarq import (PhaseGrid, PolySymbol, annihilation_symbol, associativity_defect,
                    creation_symbol, field_from_poly, identity_spec, mesh, moyal_exact,
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


# position and accepted token kinds of each rejection; the symbol grammar
# shares the expression grammar's parser, so these pin what its hooks keep
PARSE_REJECTIONS = [
    ("q/p", 1, ()),
    ("1/(q+p)", 1, ()),
    ("q^p", 2, ("integer",)),
    ("q^(2)", 2, ("integer",)),
    ("q^-1", 2, ("integer",)),
    ("2^^3", 2, ("integer",)),
    ("(q", 2, (")",)),
    ("sqrt(q)", 0, ("i", "p", "q")),
    ("q p", 2, ("end",)),
]


@pytest.mark.parametrize("text, position, expected", PARSE_REJECTIONS,
                         ids=[case[0] for case in PARSE_REJECTIONS])
def test_parse_rejections(text, position, expected):
    with pytest.raises(ParseError) as err:
        parse_symbol(text)
    assert err.value.position == position
    assert err.value.expected == expected


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


def test_partial_refuses_negative_orders():
    poly = parse_symbol("q^2*p")
    for i, j in ((-1, 0), (0, -1), (-2, -3)):
        with pytest.raises(ValueError, match="orders must be >= 0"):
            poly.partial(i, j)
    with pytest.raises(TypeError):
        poly.partial(1.5, 0)


def test_integer_inputs_go_through_index():
    q = PolySymbol.q()
    with pytest.raises(TypeError):
        PolySymbol({(1.5, 0): 1.0})
    with pytest.raises(ValueError, match="degrees must be >= 0"):
        PolySymbol({(0, -1): 1.0})
    poly = PolySymbol({(np.int64(2), np.int32(1)): 1.0})
    assert poly == parse_symbol("q^2*p")
    assert all(type(a) is int and type(b) is int for a, b in poly.terms)
    assert q ** np.int64(2) == parse_symbol("q^2")
    with pytest.raises(TypeError):
        q ** 1.5
    # a scalar that is not exactly a Python int, float or complex is taken
    # through complex(), so every coefficient stays a Python complex
    poly = random_polynomial(np.random.default_rng(3), 3)
    for scalar in (np.int64(2), np.int32(-3), np.float32(0.5), np.complex128(0.3 - 1.7j)):
        plain = complex(scalar)
        assert coefficient_bits((poly * scalar).terms) == coefficient_bits((poly * plain).terms)
        assert coefficient_bits((poly + scalar).terms) == coefficient_bits((poly + plain).terms)
        assert {type(c) for c in (poly * scalar).terms.values()} == {complex}
    with pytest.raises(TypeError):
        poly * "2"


@pytest.mark.parametrize("hbar", [0.0, -1.0, float("nan"), float("inf")])
def test_moyal_exact_refuses_hbar(hbar):
    with pytest.raises(ValueError, match="hbar must be a positive finite real"):
        moyal_exact(PolySymbol.q(), PolySymbol.p(), hbar)


def test_associativity_identity_route_refuses_nan_hbar():
    grid = PhaseGrid(-4.0, 4.0, -4.0, 4.0, 33, 33, hbar=1.0, offset=0.5)
    k, g, h = (field_from_poly(parse_symbol(t), grid) for t in ("q", "p", "q + p"))
    with pytest.raises(ValueError, match="hbar must be a positive finite real"):
        associativity_defect(k, g, h, identity_spec(), [float("nan"), 1e-2, 1.0, 10.0])


# ---------------------------------------------------------------------------
# moyal_exact against the step-by-step PolySymbol algorithm, frozen here on
# plain dicts: each step builds a clean polynomial (complex coefficients,
# zeros dropped), and every partial is taken from scratch.


def _clean(terms):
    return {k: complex(c) for k, c in terms.items() if complex(c) != 0}


def _partial(terms, i, j):
    for _ in range(i):
        terms = _clean({(a - 1, b): c * a for (a, b), c in terms.items() if a > 0})
    for _ in range(j):
        terms = _clean({(a, b - 1): c * b for (a, b), c in terms.items() if b > 0})
    return terms


def _product(x, y):
    out = {}
    for (a1, b1), c1 in x.items():
        for (a2, b2), c2 in y.items():
            k = (a1 + a2, b1 + b2)
            out[k] = out.get(k, 0.0) + c1 * c2
    return _clean(out)


def _sum(x, y):
    out = dict(x)
    for k, c in y.items():
        out[k] = out.get(k, 0.0) + c
    return _clean(out)


def moyal_reference(k, g, hbar):
    """Terms of k * g, as each Moyal term was once scaled and summed as a PolySymbol."""
    top = min(max((a + b for a, b in t), default=0) for t in (k, g))
    out = {}
    for m in range(top + 1):
        pref = (0.5j * hbar) ** m / math.factorial(m)
        acc = {}
        for j in range(m + 1):
            sign = -1.0 if j % 2 else 1.0
            left = _partial(k, m - j, j)
            right = _partial(g, j, m - j)
            if not left or not right:
                continue
            scale = sign * math.comb(m, j)
            acc = _sum(acc, _clean({key: c * scale for key, c in _product(left, right).items()}))
        out = _sum(out, _clean({key: c * pref for key, c in acc.items()}))
    return out


def coefficient_bits(terms):
    """Keys in order, and the int64 views of the real and imaginary parts."""
    values = np.array(list(terms.values()), dtype=np.complex128)
    return list(terms), values.real.view(np.int64).tolist(), values.imag.view(np.int64).tolist()


def assert_moyal_bits(k, g, hbar):
    got = moyal_exact(k, g, hbar)
    assert coefficient_bits(got.terms) == coefficient_bits(moyal_reference(k.terms, g.terms, hbar))
    return got


def test_moyal_bits_on_the_verify_inputs():
    # verify's moyal_algebra check: the ladder commutator, then 20 trials of
    # both nestings (its quick pass takes the first 8)
    a, abar = annihilation_symbol(), creation_symbol()
    assert_moyal_bits(a, abar, 1.0)
    assert_moyal_bits(abar, a, 1.0)
    rng = np.random.default_rng(20250810)
    for _ in range(20):
        k, g, h = (random_polynomial(rng, 4) for _ in range(3))
        assert_moyal_bits(assert_moyal_bits(k, g, 1.0), h, 1.0)
        assert_moyal_bits(k, assert_moyal_bits(g, h, 1.0), 1.0)


@pytest.mark.parametrize("hbar", [1.0, 0.3, 1e-3])
def test_moyal_bits_on_random_polynomials(hbar):
    rng = np.random.default_rng(24)
    for dk in range(7):
        for dg in range(7):
            assert_moyal_bits(random_polynomial(rng, dk), random_polynomial(rng, dg), hbar)


def test_moyal_bits_with_cancellations_zero_and_constants():
    a, abar = annihilation_symbol(), creation_symbol()
    # signed zeros, and subnormal coefficients that a scaling takes to zero
    signed = PolySymbol({(1, 0): complex(-0.0, 1.0), (0, 1): complex(2.0, -0.0),
                         (1, 1): complex(-0.0, -0.0) + 1.0})
    polys = [a, abar, a * abar, abar * a, a ** 2 * abar, (a - abar) ** 3,
             parse_symbol("q - q + p"), parse_symbol("q^2 - p^2"), signed,
             PolySymbol(), PolySymbol.constant(0.0), PolySymbol.constant(2.5),
             PolySymbol.constant(-1j), PolySymbol({(1, 0): 5e-324, (0, 1): 5e-324j})]
    for hbar in (1.0, 0.3, 1e-3):
        for k in polys:
            for g in polys:
                assert_moyal_bits(k, g, hbar)
    # small exact coefficients: a term often cancels to zero and a later term
    # brings its key back, at the end of the insertion order
    rng = np.random.default_rng(11)
    exact = [0, 1, -1, 1j, -1j, 2, -0.5, 0.5j]
    for trial in range(400):
        k, g = (PolySymbol({(a, b): exact[rng.integers(len(exact))]
                            for a in range(d + 1) for b in range(d + 1 - a)})
                for d in rng.integers(1, 4, size=2))
        assert_moyal_bits(k, g, 2.0 if trial % 2 else 1.0)
