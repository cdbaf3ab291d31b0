import dataclasses
import math
import warnings

import numpy as np
import pytest

from fstarq import (Field, PhaseGrid, PolySymbol, annihilation_symbol, build_hamiltonian,
                    commutator_deviation, creation_symbol, default_grid, field_from_poly,
                    fock_wigner, fstar_apply, genvalue_residual, identity_spec,
                    ladder_fields, mesh, moyal_apply, moyal_exact, normalization_Nf,
                    parse_symbol, partial_field, qdef_spec, random_polynomial, registry_specs,
                    sqrt_n_spec, star_commutator, wigner_weights)
from fstarq.deformation import series_terms
from fstarq.errors import SingularAmplitude
from fstarq.phasespace import AnalyticStructure, FockWignerProfile, fd4_partial
from fstarq.starproduct import ProductSetup, _star_block, imag_maxima

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
    grid = dataclasses.replace(grid, hbar=0.8)
    w0 = fock_wigner(0, grid)
    out = moyal_apply(PolySymbol.q(), w0)
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
    grid = dataclasses.replace(grid, hbar=hbar)
    k = field_from_poly(parse_symbol("q^2"), grid)
    g = field_from_poly(parse_symbol("q*p + p^2"), grid)
    out = fstar_apply(k, g, identity_spec())
    Q, P = mesh(grid)
    kg = k.source * g.source
    bracket = k.source.dq() * g.source.dp() - k.source.dp() * g.source.dq()
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
    # the product is first order only, takes the grid's hbar and forms no
    # jets; the diagnostics need a grid, the series its default
    # length, and random polynomials are complex.  Removed options are not accepted
    k = field_from_poly(PolySymbol.q(), grid)
    spec = identity_spec()
    removed = [(entry, (k, k, spec), option)
               for entry in (fstar_apply, star_commutator)
               for option in ({"order": "first"}, {"jet_order": 1}, {"hbar": 0.5})]
    removed += [(ProductSetup, (grid, spec), option)
                for option in ({"order": "first"}, {"jet_order": 1}, {"jets": True})]
    # partials come from a field's exact source, and the jets stay in the defect
    removed += [(ProductSetup(grid, spec).product, (k, k), {"jets": True}),
                (Field, (grid, k.values), {"partials": {}})]
    removed += [
        (moyal_apply, (PolySymbol.q(), k), {"hbar": 0.5}),
        (genvalue_residual, (spec, 1), {}),
        (commutator_deviation, (spec,), {}),
        (default_grid, (), {"hbar": 0.5}),
        (series_terms, (spec, 1.0), {"n_max": 10}),
        (normalization_Nf, (spec, 1.0), {"n_max": 10}),
        (normalization_Nf, (spec, 1.0), {"tol": 1e-10}),
        (wigner_weights, (spec, 1.0), {"n_max": 10}),
        (random_polynomial, (np.random.default_rng(0), 2), {"complex_coeffs": False}),
    ]
    for entry, args, option in removed:
        name = next(iter(option), "grid")
        with pytest.raises(TypeError, match=name):
            entry(*args, **option)
    # a setup that takes its own hbar still refuses a bad one (PhaseGrid refuses the grid's)
    for bad in (-1.0, 0.0, math.nan):
        with pytest.raises(ValueError, match="hbar must be a positive finite real"):
            ProductSetup(grid, spec, bad)


def test_shared_setup_refuses_a_foreign_grid(grid):
    k = field_from_poly(PolySymbol.q(), grid)
    other = field_from_poly(PolySymbol.p(), PhaseGrid(-2, 2, -2, 2, 17, 17))
    setup = ProductSetup(grid, identity_spec())
    with pytest.raises(ValueError, match="setup's grid"):
        setup.product(k, other)
    with pytest.raises(ValueError, match="setup's grid"):
        setup.product(other, k)


def test_fstar_identity_truncates_moyal_second_order_term(grid):
    # q^2 * p^2 = q^2 p^2 + 2 i hbar q p - hbar^2 / 2 under Moyal's product; at
    # f = 1 the f-star product keeps the first two terms, so the difference to
    # moyal_exact is the dropped +hbar^2 / 2 = 0.5 at every sample (hbar = 1)
    k2, p2 = parse_symbol("q^2"), parse_symbol("p^2")
    out = fstar_apply(field_from_poly(k2, grid), field_from_poly(p2, grid), identity_spec())
    exact = moyal_exact(k2, p2, grid.hbar).eval_grid(*grid.axes())
    assert grid.hbar == 1.0
    assert np.max(np.abs(out.values - exact - 0.5)) <= 1e-12


def _bracket(a, b):
    return a.dq() * b.dp() - a.dp() * b.dq()


def test_fstar_jet_partials_match_polynomial_truth(grid):
    # at f = 1 the first-order terms of (k * g) * h - k * (g * h) cancel, so
    # the defect is (i hbar / 2)^2 ({{k, g}, h} - {k, {g, h}}): second partials
    # that reach it only through the jets of k g and g h.  Here it is -1.5 q^2
    polys = [parse_symbol(text) for text in ("q^2 + p", "q*p", "p^2 - q^3")]
    k, g, h = polys
    truth = (_bracket(_bracket(k, g), h) - _bracket(k, _bracket(g, h))) * (-0.25 * grid.hbar**2)
    assert truth == parse_symbol("-1.5*q^2")
    fields = [field_from_poly(poly, grid) for poly in polys]
    sq = ProductSetup(grid, identity_spec()).defect_squared(*fields)
    assert np.allclose(sq, np.abs(truth.eval_grid(*grid.axes())) ** 2, rtol=1e-12, atol=1e-12)


def _operand(field, partial=partial_field):
    """field's values and its first partials by ``partial``: a whole-mesh
    ``_star_block`` operand."""
    return [field.values, partial(field, 1, 0), partial(field, 0, 1)]


def test_fstar_jet_partials_match_fd(grid):
    # the defect's sqrt_n jets against an independent fd4 differentiation of
    # the product samples, carried into the nested products; compare away from
    # the origin, where fd4 can still track the F(n) ~ 1/sqrt(n) amplitude
    # (near the origin only the jets stay accurate)
    spec = sqrt_n_spec()
    k, g, h = (field_from_poly(parse_symbol(text), grid) for text in ("q^2 + p", "q*p", "q + p"))
    s = ProductSetup(grid, spec)
    F = grid.gather(s.F, slice(None))
    diff = (_star_block(s.hbar, F, _operand(s.product(k, g), fd4_partial), _operand(h))[0]
            - _star_block(s.hbar, F, _operand(k), _operand(s.product(g, h), fd4_partial))[0])
    Q, P = mesh(grid)
    mask = (Q**2 + P**2) >= 1.0
    mask[:8, :] = mask[-8:, :] = mask[:, :8] = mask[:, -8:] = False
    dev = np.abs(np.sqrt(s.defect_squared(k, g, h)) - np.abs(diff))
    assert np.max(dev[mask]) <= 2e-4


# ---------------------------------------------------------------------------
# star_commutator


def test_commutator_antisymmetry_and_self(grid):
    k = field_from_poly(parse_symbol("q^2 + i*p"), grid)
    out = star_commutator(k, k, sqrt_n_spec())
    assert np.max(np.abs(out.values)) <= 1e-13


def test_commutator_identity_ladder(grid):
    grid = dataclasses.replace(grid, hbar=0.7)
    a = field_from_poly(annihilation_symbol(), grid)
    abar = field_from_poly(creation_symbol(), grid)
    out = star_commutator(a, abar, identity_spec())
    assert np.max(np.abs(out.values - 1.0)) <= 1e-10


# 33 columns make 496-row blocks, so the 1100 rows take three
REFUSAL_GRID = PhaseGrid(0.1, 1.2, 0.1, 1.0, 1100, 33, hbar=1.0, offset=0.5)
COMMUTATOR_REFUSALS = {
    # k g overflows only where q p > 1.15, but the two orders' bracket terms
    # add up to 3.1e308 i everywhere, so the difference overflows at the first sample
    "k g": ("1.25e154*q", "1.25e154*p",
            "field [1.25e+154*q, 1.25e+154*p]_f / hbar is not finite at (q, p) = "
            "(0.10050045495905369, 0.11406250000000001)"),
    # both products are finite; their difference, 2e308 q i, overflows from
    # q = 0.899, row 798
    "difference": ("5e307*q^2", "p",
                   "field [5e+307*q^2, p]_f / hbar is not finite at (q, p) = "
                   "(0.899226569608735, 0.11406250000000001)"),
}


@pytest.mark.parametrize("case", COMMUTATOR_REFUSALS)
def test_streamed_commutator_refuses_once_without_warnings(case):
    k_text, g_text, message = COMMUTATOR_REFUSALS[case]
    k, g = (field_from_poly(parse_symbol(text), REFUSAL_GRID) for text in (k_text, g_text))
    setup = ProductSetup(REFUSAL_GRID, identity_spec(), hbar=2.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError) as err:
            setup.commutator(k, g)
    assert str(err.value) == message
    assert not caught


def test_streamed_product_refuses_without_warnings():
    # k g overflows where q p > 1.15, first at row 1034 (q = 1.135); the
    # overflow used to be warned of before the refusal
    k, g = (field_from_poly(parse_symbol(text), REFUSAL_GRID)
            for text in ("1.25e154*q", "1.25e154*p"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError) as err:
            fstar_apply(k, g, identity_spec())
    assert str(err.value) == ("field 1.25e+154*q star_f 1.25e+154*p is not finite at "
                              "(q, p) = (1.1354413102820746, 1.0140625)")
    assert not caught


# Operand partials are formed one row block at a time and refused after the
# last block: the first failing partial in argument order (k, g, then h) is
# named at its first (q, p) in mesh order, whichever block it failed in.
# 5.9e307 q^3 has a finite first partial below q = 1.0083, in the second
# block, and 5e307 q^3 below q = 1.0954, in the third; their values are finite
PARTIAL_REFUSALS = {
    "5.9e+307*q^3": "partial (1, 0) of 5.9e+307*q^3 is not finite at (q, p) = "
                    "(1.0083257506824386, 0.11406250000000001)",
    "5e+307*q^3": "partial (1, 0) of 5e+307*q^3 is not finite at (q, p) = "
                  "(1.0954049135577797, 0.11406250000000001)",
}


def _refusal(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError) as err:
            fn(*args)
    assert not caught
    return str(err.value)


def _streams(k, g, h):
    """Each streamed f-star result of k, g and h, in that argument order."""
    setup = ProductSetup(REFUSAL_GRID, identity_spec(), hbar=0.1)
    return [(setup.product, k, g), (setup.commutator, k, g),
            (lambda k, g: imag_maxima([(setup, k)], [g]), k, g), (setup.defect_squared, k, g, h)]


@pytest.mark.parametrize("text", PARTIAL_REFUSALS)
def test_a_partial_failing_past_the_first_block_is_refused_after_it(text):
    bad = field_from_poly(parse_symbol(text), REFUSAL_GRID)
    message = PARTIAL_REFUSALS[text]
    first_block = REFUSAL_GRID.q_values()[REFUSAL_GRID.row_blocks()[0]]
    assert float(message.split("(q, p) = (")[1].split(",")[0]) > first_block[-1]
    assert _refusal(partial_field, bad, 1, 0) == message  # the whole-mesh refusal
    g, h = (field_from_poly(parse_symbol(t), REFUSAL_GRID) for t in ("p", "q + p"))
    defect_of_h = _streams(g, h, bad)[-1]
    for fn, *fields in _streams(bad, g, h) + _streams(g, bad, h) + [defect_of_h]:
        assert _refusal(fn, *fields) == message
    assert _refusal(moyal_apply, parse_symbol("q^2 + p"), bad) == message


def test_the_first_failing_operand_in_argument_order_is_refused():
    # in mesh order 5.9e307 q^3 fails first, in the second block; the operand
    # named is the first in argument order that fails anywhere
    early, late = (field_from_poly(parse_symbol(text), REFUSAL_GRID) for text in PARTIAL_REFUSALS)
    h = field_from_poly(parse_symbol("q + p"), REFUSAL_GRID)
    for first, second in ((early, late), (late, early)):
        for fn, *fields in _streams(first, second, h):
            assert _refusal(fn, *fields) == PARTIAL_REFUSALS[first.label]
    assert _refusal(ProductSetup(REFUSAL_GRID, identity_spec(), 0.1).defect_squared,
                    h, late, early) == PARTIAL_REFUSALS[late.label]


# ---------------------------------------------------------------------------
# imag_maxima: max |Im(k *_f g)| of many products in one pass over the blocks

# 16 blocks of 32 rows and a one-row block; one block past 100 rows; two
# blocks of 496 rows and one of 108
IMAG_GRIDS = {"513": default_grid(),
              "100x37": PhaseGrid(-5.0, 5.0, -4.0, 4.0, 100, 37, hbar=0.7, offset=0.5),
              "1100x33": PhaseGrid(-6.0, 6.0, -5.0, 5.0, 1100, 33, hbar=1.0, offset=0.5)}


@pytest.mark.parametrize("grid", IMAG_GRIDS.values(), ids=IMAG_GRIDS)
def test_imag_maxima_keep_the_bits_of_each_product(grid):
    specs = [spec for spec in registry_specs() if spec.kind != "identity"]
    setups = [ProductSetup(grid, spec) for spec in specs]
    hams = [build_hamiltonian(spec, grid) for spec in specs]
    # real and complex structures, and for Field operands a polynomial too
    ws = [fock_wigner(n, grid) for n in (0, 3, 7)] + [ladder_fields(qdef_spec(1.2), grid)[0]]
    poly = field_from_poly(parse_symbol("0.5*q^2 - q*p + 0.25*p^3"), grid)
    want = [[float(np.max(np.abs(setup.product(k, g).values.imag))) for g in ws + [poly]]
            for setup, k in zip(setups, hams)]
    got = imag_maxima(list(zip(setups, hams)), ws + [poly])
    assert [[x.hex() for x in row] for row in got] == [[x.hex() for x in row] for row in want]
    got = imag_maxima([(setup, k.source) for setup, k in zip(setups, hams)],
                      [w.source for w in ws])
    assert [[x.hex() for x in row] for row in got] == [[x.hex() for x in row[:-1]]
                                                       for row in want]


def test_imag_maxima_refuse_the_first_product_in_argument_order():
    # A B overflows where q p > 1.15, first at row 1034 (q = 1.135); C B
    # where q p > 0.072, in the first row; neither A P nor C P overflows.  A B
    # comes first in argument order, so it is named, as product names it
    A, C, B, P = (field_from_poly(parse_symbol(text), REFUSAL_GRID)
                  for text in ("1.25e154*q", "2e155*q", "1.25e154*p", "p"))
    setup = ProductSetup(REFUSAL_GRID, identity_spec())
    message = ("field 1.25e+154*q star_f 1.25e+154*p is not finite at "
               "(q, p) = (1.1354413102820746, 1.0140625)")
    assert _refusal(setup.product, A, B) == message
    assert _refusal(imag_maxima, [(setup, A), (setup, C)], [P, B]) == message
    assert _refusal(imag_maxima, [(setup, C)], [P, B]).startswith(
        "field 2e+155*q star_f 1.25e+154*p is not finite at (q, p) = (0.10050045495905369, ")


def test_unlabelled_operands_are_named_in_a_refusal():
    # an operand without a label is "an unnamed field", as in the refusals of
    # Field and of the partials, for Field and structure operands alike
    grid = PhaseGrid(-4.0, 4.0, -4.0, 4.0, 33, 33, hbar=1.0, offset=0.5)
    big = AnalyticStructure(FockWignerProfile(0), grid.hbar, {0: PolySymbol.constant(1e200)})
    field = big.field(grid, "")
    setup = ProductSetup(grid, identity_spec())
    where = "is not finite at (q, p) = (-3.875, -3.875)"
    product = f"field an unnamed field star_f an unnamed field {where}"
    assert _refusal(setup.product, field, field) == product
    assert _refusal(imag_maxima, [(setup, big)], [big]) == product
    assert _refusal(setup.commutator, field, field) == (
        f"field [an unnamed field, an unnamed field]_f / hbar {where}")


def test_imag_maxima_refuse_a_foreign_grid(grid):
    k = field_from_poly(PolySymbol.q(), grid)
    other_grid = PhaseGrid(-2, 2, -2, 2, 17, 17)
    other = field_from_poly(PolySymbol.p(), other_grid)
    setup = ProductSetup(grid, sqrt_n_spec())
    for stars, gs in (([(setup, k)], [other]), ([(setup, other)], [k])):
        with pytest.raises(ValueError, match="^fields must share the setup's grid$"):
            imag_maxima(stars, gs)
    with pytest.raises(ValueError, match="^setups must share a grid$"):
        imag_maxima([(setup, k), (ProductSetup(other_grid, sqrt_n_spec()), other)], [k])


def test_imag_maxima_of_no_products(grid):
    setup, w = ProductSetup(grid, sqrt_n_spec()), fock_wigner(1, grid)
    assert imag_maxima([], [w]) == []
    assert imag_maxima([(setup, w)], []) == [[]]
