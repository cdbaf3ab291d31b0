"""Real grid data stays float64 through the grid kernels, with the old bits.

``PolySymbol.eval_grid`` and ``AnalyticStructure.evaluate`` return float64
when every coefficient is real; ``partial_field`` keeps its source's dtype, so
the Poisson bracket of ``ProductSetup.product``, and the jets inside
``ProductSetup.defect_squared``, stay real for real operands.
``Field.values`` stays complex128.  A constant polynomial partial is one
(1, 1) sample, compared through ``np.broadcast_to``.  The product is formed
one block of q rows at a time, so it is held to the whole-mesh formula on
grids whose last block is ragged, and on one grid smaller than a block; so
is the associativity defect, against nested whole-mesh products whose inner
products carry their jets as their first partials.

The oracles below are the all-complex formulas the kernels replaced, kept
verbatim, but for F and dF/dn, which the product oracle gathers onto the mesh
from tables over the distinct radii: the setup's F, and dF/dn sampled as
``defect_squared`` samples it.  The defect's outer products take
``_star_block`` on whole-mesh operand lists: the inner product's value and
jets, and the oracle's values and first partials of the other operand.
Results are compared as int64 views, so signed zeros count: a real result
must equal the oracle's real part bit for bit, and the oracle's imaginary
part must be +0.0 everywhere.
"""

import functools
import math
import re
import tracemalloc

import numpy as np
import pytest

from fstarq import (PhaseGrid, PolySymbol, amplitude_F_deriv, annihilation_symbol,
                    associativity_defect, build_hamiltonian, commutator_deviation,
                    creation_symbol, default_grid,
                    fcs_wigner, field_from_poly, field_to_csv, fock_wigner, genvalue_residual,
                    identity_spec, ladder_fields, moyal_apply, parse_symbol, partial_field,
                    qdef_spec, random_polynomial, read_field_csv, sqrt_n_spec)
from fstarq.genvalue import ASSOC_HBARS, probe_defect
from fstarq.phasespace import (AnalyticStructure, FockWignerProfile, MixtureWignerProfile,
                               _fd4_axis)
from fstarq.starproduct import ProductSetup, _star_block
from fstarq.verify import fock_pass, run_verification

GRIDS = {
    "513": default_grid(),
    # offset 0: the origin and both axes are samples
    "origin": PhaseGrid(-4.0, 4.0, -4.0, 4.0, 129, 129, hbar=1.0, offset=0.0),
    # criterion 8's grid along q
    "1537x65": PhaseGrid(-6.0, 6.0, -6.0, 6.0, 1537, 65, hbar=1.0, offset=0.5),
}
# the product is formed one row block at a time: 513^2 and 257^2 end on a
# one-row block, 129^2 on two rows, 1537 x 65 on 25, and 65^2 is one block
PRODUCT_GRIDS = {
    **GRIDS,
    "257": PhaseGrid(-8.0, 8.0, -8.0, 8.0, 257, 257, hbar=1.0, offset=0.5),
    "65": PhaseGrid(-4.0, 4.0, -4.0, 4.0, 65, 65, hbar=1.0, offset=0.5),
}


# ---------------------------------------------------------------------------
# the all-complex formulas, as they stood before real data stayed real


def _eval_grid_before(poly, Q, P):
    out = np.zeros(np.broadcast(Q, P).shape, dtype=complex)
    qpow = {0: np.ones_like(Q, dtype=float)}
    ppow = {0: np.ones_like(P, dtype=float)}
    for (a, b), c in poly.terms.items():
        if a not in qpow:
            qpow[a] = Q**a
        if b not in ppow:
            ppow[b] = P**b
        out += c * qpow[a] * ppow[b]
    return out


def _evaluate_before(structure, grid):
    q, p = grid.axes()
    out = np.zeros((grid.n_q, grid.n_p), dtype=complex)
    for k in sorted(structure.terms):
        c = structure.terms[k]
        if not c.terms:
            continue
        coeff = c.constant_value() if c.is_constant() else _eval_grid_before(c, q, p)
        with np.errstate(invalid="ignore"):
            out += coeff * structure.profile.on_grid(grid, structure.scale, k)
    return out


def _partial_before(field, i, j):
    if (i, j) == (0, 0):
        return field.values
    source = field.source
    if isinstance(source, PolySymbol):
        return _eval_grid_before(source.partial(i, j), *field.grid.axes())
    if source is not None and (source.profile.max_order is None
                               or source.order_needed + i + j <= source.profile.max_order):
        return _evaluate_before(source.partial(i, j), field.grid)
    arr = field.values  # fd4 on the complex samples, as before
    for _ in range(i):
        arr = _fd4_axis(arr, field.grid.dq, 0)
    for _ in range(j):
        arr = _fd4_axis(arr, field.grid.dp, 1)
    return arr


def _moyal_apply_before(h, w):
    grid = w.grid
    q, p = grid.axes()
    out = np.zeros((grid.n_q, grid.n_p), dtype=complex)
    for m in range(h.degree + 1):
        pref = (0.5j * grid.hbar) ** m / math.factorial(m)
        for j in range(m + 1):
            hpart = h.partial(m - j, j)
            if not hpart.terms:
                continue
            sign = -1.0 if j % 2 else 1.0
            wpart = _partial_before(w, j, m - j)
            out += (pref * sign * math.comb(m, j)) * _eval_grid_before(hpart, q, p) * wpart
    return out


def _product_before(setup, k, g, jets=False):
    # F and dF/dn are tables over the distinct radii, gathered onto the mesh;
    # the gradient is formed as the whole-mesh setup formed it
    grid = setup.grid
    F = grid.gather(setup.F, slice(None))
    kq, kp, gq, gp = (_partial_before(f, *key) for f in (k, g) for key in ((1, 0), (0, 1)))
    poisson = kq * gp - kp * gq
    kv, gv = k.values, g.values
    out = kv * gv + (0.5j * setup.hbar) * F * poisson
    if not jets:
        return out, None
    dF_dn = grid.radial_table(functools.partial(amplitude_F_deriv, setup.spec),
                              2.0 * setup.hbar)
    dF = grid.gather(dF_dn, slice(None))
    q, p = grid.axes()
    Fq, Fp = dF * q / setup.hbar, dF * p / setup.hbar
    kqq, kqp, kpp, gqq, gqp, gpp = (_partial_before(f, *key) for f in (k, g)
                                    for key in ((2, 0), (1, 1), (0, 2)))
    br_q = kqq * gp + kq * gqp - kqp * gq - kp * gqq
    br_p = kqp * gp + kq * gpp - kpp * gq - kp * gqp
    d_q = kq * gv + kv * gq + (0.5j * setup.hbar) * (Fq * poisson + F * br_q)
    d_p = kp * gv + kv * gp + (0.5j * setup.hbar) * (Fp * poisson + F * br_p)
    return out, {(1, 0): d_q, (0, 1): d_p}


def _operand_before(field):
    """field's values and first partials by _partial_before: a whole-mesh
    ``_star_block`` operand."""
    return [field.values, _partial_before(field, 1, 0), _partial_before(field, 0, 1)]


def _with_jets(setup, k, g):
    """k *_f g by _product_before, as the whole-mesh ``_star_block`` operand
    of a nested product: its values, then its jets as its first partials."""
    value, jets = _product_before(setup, k, g, jets=True)
    return [value, jets[1, 0], jets[0, 1]]


def _assert_same_bits(got, want):
    """got keeps want's bits, signed zeros included; a real got stands for
    got + 0j, so want's imaginary part must then be +0.0 everywhere."""
    got = np.asarray(got)
    assert got.dtype in (np.float64, np.complex128)
    assert want.dtype == np.complex128 and got.shape == want.shape
    got = np.ascontiguousarray(got.astype(complex, copy=False))
    want = np.ascontiguousarray(want)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


# ---------------------------------------------------------------------------
# eval_grid

POLYS = {
    "real": "0.5*q^2 + 0.5*p^2 - 1.25*q*p + 3",
    "negative": "-q - 2*p^3 - 0.75*q^2*p - 0.5",
    "zero-crossing": "p - q",  # exactly 0 on the diagonal
    "complex": "(q + i*p)^2 - 0.5*q + 2",
    "imaginary": "2*i*q*p - 0.5*i*p^2",
    "constant": "-2",
    "zero": "0",
}


def _poly(name):
    if name == "random":
        return random_polynomial(np.random.default_rng(2101), 4)
    return parse_symbol(POLYS[name])


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS)
@pytest.mark.parametrize("name", list(POLYS) + ["random"])
def test_eval_grid_keeps_the_complex_bits(grid, name):
    poly = _poly(name)
    q, p = grid.axes()
    got = poly.eval_grid(q, p)
    real = all(c.imag == 0 for c in poly.terms.values())
    assert got.dtype == (np.float64 if real else np.complex128)
    assert got.shape == (grid.n_q, grid.n_p)
    _assert_same_bits(got, _eval_grid_before(poly, q, p))


# ---------------------------------------------------------------------------
# evaluate and partial_field


def _structures(grid):
    weights = np.random.default_rng(2102).standard_normal(12)
    A = ladder_fields(qdef_spec(1.2), grid)[0]
    yield "W_3", fock_wigner(3, grid).source
    yield "mixture", AnalyticStructure(MixtureWignerProfile(weights), scale=grid.hbar)
    yield "H[qdef]", build_hamiltonian(qdef_spec(1.2), grid).source
    yield "H[identity]", build_hamiltonian(identity_spec(), grid).source
    yield "A[qdef]", A.source  # complex; its partials mix a real and a complex term
    yield "conj", fock_wigner(2, grid).conjugate().source


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS)
def test_evaluate_and_partials_keep_the_complex_bits(grid):
    for name, structure in _structures(grid):
        real = all(c.imag == 0 for poly in structure.terms.values()
                   for c in poly.terms.values())
        for i, j in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
            partial = structure.partial(i, j)
            got = partial.evaluate(grid)
            assert got.dtype == (np.float64 if real else np.complex128), (name, i, j)
            _assert_same_bits(got, _evaluate_before(partial, grid))


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS)
def test_partial_field_keeps_its_source_dtype(grid):
    def check(field, key, dtype, compact):
        got = partial_field(field, *key)
        want = _partial_before(field, *key)
        assert got.shape == ((1, 1) if compact else want.shape)
        assert got.dtype == dtype
        _assert_same_bits(np.broadcast_to(got, want.shape), want)

    # a constant polynomial partial (zero included) is one (1, 1) sample that
    # broadcasts to the mesh: the (1, 1) partials of q^2 - 3 q p (-3) and of
    # a^2 (i), and every partial of q, p and q + p
    w = fock_wigner(4, grid)
    poly = field_from_poly(parse_symbol("q^2 - 3*q*p"), grid)
    cpoly = field_from_poly(annihilation_symbol() ** 2, grid)
    A = ladder_fields(qdef_spec(1.2), grid)[0]
    for field, dtype in ((w, np.float64), (poly, np.float64), (cpoly, np.complex128),
                         (A, np.complex128)):
        for key in ((1, 0), (0, 1), (1, 1)):
            check(field, key, dtype,
                  compact=isinstance(field.source, PolySymbol) and key == (1, 1))
    for text in ("q", "p", "q + p"):
        field = field_from_poly(parse_symbol(text), grid)
        for key in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
            check(field, key, np.float64, compact=True)
    assert partial_field(w, 0, 0).dtype == np.complex128


# ---------------------------------------------------------------------------
# moyal_apply

def _random_cubic():
    return random_polynomial(np.random.default_rng(2103), 3)


MOYAL_CASES = [
    ("harmonic", lambda: parse_symbol("0.5*q^2 + 0.5*p^2"), "W_3"),
    ("negative", lambda: parse_symbol("-q^2*p + 2*p - 1"), "mixture"),
    ("annihilation", annihilation_symbol, "W_2"),
    ("imaginary", lambda: parse_symbol("i*q*p"), "poly"),
    ("random", _random_cubic, "a W_2"),
]


def _moyal_operand(name, grid):
    if name == "mixture":
        return fcs_wigner(qdef_spec(1.2), 1.5, grid)
    if name == "poly":
        return field_from_poly(parse_symbol("q^3 - q*p + 2"), grid)
    if name == "a W_2":  # complex, and every partial exact: its profile has no budget
        structure = AnalyticStructure(FockWignerProfile(2), grid.hbar, {0: annihilation_symbol()})
        return structure.field(grid, name)
    return fock_wigner(int(name[2:]), grid)


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS)
@pytest.mark.parametrize("name, symbol, operand", MOYAL_CASES,
                         ids=[c[0] for c in MOYAL_CASES])
def test_moyal_apply_keeps_the_complex_bits(grid, name, symbol, operand):
    h = symbol()
    w = _moyal_operand(operand, grid)
    want = _moyal_apply_before(h, w)
    got = moyal_apply(h, w).values
    assert got.dtype == np.complex128
    _assert_same_bits(got, want)


def test_moyal_apply_refuses_a_partial_past_the_profile_budget():
    # A = a f(n) carries two n-derivatives of f, so a cubic's third partials
    # of A are refused by name rather than estimated by stencils
    A = ladder_fields(identity_spec(), GRIDS["origin"])[0]
    with pytest.raises(ValueError, match=re.escape(
            "partial (0, 3) of A[identity]: DeformationProfile carries 2 derivatives only")):
        moyal_apply(_random_cubic(), A)


# ---------------------------------------------------------------------------
# the f-star product, and the associativity defect with its jets


def _operands(kind, grid):
    """(k, g) for a real x real, real x complex or complex x complex product."""
    if kind == "H x W_3":
        return build_hamiltonian(qdef_spec(1.2), grid), fock_wigner(3, grid)
    if kind == "W_1 x W_1":
        return fock_wigner(1, grid), fock_wigner(1, grid)
    if kind == "q x p":
        return field_from_poly(PolySymbol.q(), grid), field_from_poly(PolySymbol.p(), grid)
    if kind == "poly x mixture":
        return (field_from_poly(parse_symbol("-q^2 + 0.5*q*p - p"), grid),
                fcs_wigner(identity_spec(), 2.0, grid))
    if kind == "W_2 x A":
        return fock_wigner(2, grid), ladder_fields(qdef_spec(1.2), grid)[0]
    if kind == "poly x cpoly":
        return (field_from_poly(parse_symbol("q^2 + p"), grid),
                field_from_poly(creation_symbol() ** 2, grid))
    if kind == "A x Abar":
        return ladder_fields(qdef_spec(1.2), grid)
    assert kind == "cpoly x cpoly"
    rng = np.random.default_rng(2104)
    return (field_from_poly(random_polynomial(rng, 3), grid),
            field_from_poly(random_polynomial(rng, 2), grid))


PRODUCT_KINDS = ["H x W_3", "W_1 x W_1", "q x p", "poly x mixture",   # real x real
                 "W_2 x A", "poly x cpoly",                           # real x complex
                 "A x Abar", "cpoly x cpoly"]                         # complex x complex


def test_row_blocks_cover_the_mesh_in_order():
    last_rows = {"513": 1, "origin": 2, "1537x65": 25, "257": 1, "65": 65}
    for name, grid in PRODUCT_GRIDS.items():
        blocks = grid.row_blocks()
        rows = [r for block in blocks for r in range(grid.n_q)[block]]
        assert rows == list(range(grid.n_q)), name
        assert all(b.stop - b.start == blocks[0].stop - blocks[0].start for b in blocks)
        assert len(range(grid.n_q)[blocks[-1]]) == last_rows[name], name
    assert (PRODUCT_GRIDS["513"].row_blocks()[0].stop,
            PRODUCT_GRIDS["257"].row_blocks()[0].stop) == (32, 64)


@pytest.mark.parametrize("grid", PRODUCT_GRIDS.values(), ids=PRODUCT_GRIDS)
@pytest.mark.parametrize("kind", PRODUCT_KINDS)
def test_product_keeps_the_complex_bits(grid, kind):
    # sqrt_n's F is singular at the origin, so the origin grid takes qdef
    spec = qdef_spec(1.2) if grid is GRIDS["origin"] else sqrt_n_spec()
    setup = ProductSetup(grid, spec, hbar=0.1)  # an hbar whose half is inexact
    k, g = _operands(kind, grid)
    want, _ = _product_before(setup, k, g)
    got = setup.product(k, g)
    assert got.values.dtype == np.complex128
    _assert_same_bits(got.values, want)
    # the defect's jets stay in its block: its squares are those of the nested
    # whole-mesh products, whose inner products carry their jets as partials
    F = setup.grid.gather(setup.F, slice(None))
    diff = (_star_block(setup.hbar, F, _with_jets(setup, k, g), _operand_before(k))[0]
            - _star_block(setup.hbar, F, _operand_before(k), _with_jets(setup, g, k))[0])
    sq = setup.defect_squared(k, g, k)
    assert sq.dtype == np.float64
    _assert_same_bits(sq, np.abs(diff) ** 2 + 0j)


COMMUTATOR_KINDS = ["H x W_3", "W_1 x W_1", "q x p", "poly x mixture",   # real x real
                    "W_2 x A", "poly x cpoly",                           # real x complex
                    "A x Abar"]


@pytest.mark.parametrize("grid", PRODUCT_GRIDS.values(), ids=PRODUCT_GRIDS)
@pytest.mark.parametrize("kind", COMMUTATOR_KINDS)
def test_commutator_keeps_the_bits_of_two_whole_products(grid, kind):
    # both orders are formed one row block at a time into one output
    spec = qdef_spec(1.2) if grid is GRIDS["origin"] else sqrt_n_spec()
    setup = ProductSetup(grid, spec, hbar=0.1)
    k, g = _operands(kind, grid)
    want = (setup.product(k, g).values - setup.product(g, k).values) / setup.hbar
    got = setup.commutator(k, g)
    assert got.label == f"[{k.label}, {g.label}]_f / hbar"
    _assert_same_bits(got.values, want)


def test_real_bracket_differs_only_in_signed_zeros_where_kg_is_minus_zero():
    # The one place the real bracket leaves the old bits: the complex bracket of
    # real partials had a -0.0 imaginary part where kq, gp < 0 and not kp, gq < 0,
    # and that zero decided the sign of Re(k *_f g) where k g is exactly -0.0.
    # Here k = p - q is +0.0 on the diagonal, where g = 2q - p - 5 < 0.
    grid = GRIDS["513"]
    setup = ProductSetup(grid, sqrt_n_spec())
    k = field_from_poly(parse_symbol("p - q"), grid)
    g = field_from_poly(parse_symbol("2*q - p - 5"), grid)
    want, _ = _product_before(setup, k, g)
    got = setup.product(k, g).values
    assert np.array_equal(got, want)  # as numbers, every sample agrees
    moved = got.view(np.int64) != want.view(np.int64)
    assert moved.any()
    assert np.all(got.view(float)[moved] == 0.0)  # and only zeros change sign
    diagonal = np.abs(got.real) == 0.0
    assert np.all(diagonal == np.eye(grid.n_q, dtype=bool))


def test_real_product_keeps_its_bracket_real():
    grid = GRIDS["513"]
    setup = ProductSetup(grid, sqrt_n_spec())
    k, g = build_hamiltonian(sqrt_n_spec(), grid), fock_wigner(3, grid)
    kg = setup.product(k, g)
    sq = setup.defect_squared(k, g, k)  # fetches the second partials the jets take
    assert all(partial_field(f, *key).dtype == np.float64 for f in (k, g)
               for key in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2)))
    assert kg.values.dtype == np.complex128 and sq.dtype == np.float64


# ---------------------------------------------------------------------------
# dtype contract


def test_eval_grid_dtype_contract():
    q, p = default_grid().axes()
    assert parse_symbol("q^2 + 2*q*p - 1").eval_grid(q, p).dtype == np.float64
    assert annihilation_symbol().eval_grid(q, p).dtype == np.complex128


def test_field_values_stay_complex(tmp_path):
    grid = PhaseGrid(-4.0, 4.0, -4.0, 4.0, 65, 65, hbar=1.0, offset=0.5)
    setup = ProductSetup(grid, sqrt_n_spec())
    H = build_hamiltonian(sqrt_n_spec(), grid)
    W = fock_wigner(3, grid)
    path = tmp_path / "w.csv"
    field_to_csv(W, str(path))
    fields = [W, fcs_wigner(qdef_spec(1.2), 1.0, grid), H, *ladder_fields(sqrt_n_spec(), grid),
              field_from_poly(parse_symbol("q^2 + p"), grid),
              setup.product(H, W),
              moyal_apply(parse_symbol("q^2 + p^2"), W),
              commutator_deviation(sqrt_n_spec(), grid)[0], read_field_csv(str(path))]
    for field in fields:
        assert field.values.dtype == np.complex128, field.label


# ---------------------------------------------------------------------------
# allocation guard: peak bytes traced at 513^2, in units of one float64 grid


def _peak_grids(fn, grid):
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (grid.n_q * grid.n_p * 8)


def test_allocation_peaks_at_513(monkeypatch, tmp_path):
    grid = default_grid()
    fock_wigner(0, grid)  # caches the grid's radii, so no call below pays for them
    q, p = grid.axes()
    poly = parse_symbol("0.5*q^2 + 0.5*p^2 - 1.25*q*p")
    # the sum and one scratch grid (2.07); every term was a complex temporary
    assert _peak_grids(lambda: poly.eval_grid(q, p), grid) <= 2.25
    # the gathered profile, dropped once multiplied, one real term and the
    # complex values (3.08; 4.0 grids while the profile kept its gather)
    assert _peak_grids(lambda: fock_wigner(4, grid), grid) <= 3.25
    setup = ProductSetup(grid, sqrt_n_spec())
    H, W = build_hamiltonian(sqrt_n_spec(), grid), fock_wigner(3, grid)
    # the complex result alone: the four real partials, the bracket and its
    # terms live one row block at a time (2.88; 6.60 grids with the partials
    # formed on the mesh and memoized, 8.44 while each profile kept its w' on
    # the mesh, 11.06 with whole-mesh temporaries)
    assert _peak_grids(lambda: setup.product(H, W), grid) <= 3.0
    # the commutator's one complex output, and then |deviation| and
    # |Im deviation| beside it; A and Abar are structures, so their values,
    # their complex first partials and both products live one row block at a
    # time, and the target and the closed form are tables over the distinct
    # radii (4.37; 7.89 grids with A and Abar sampled as fields, 17.38 with
    # the four partials on the mesh, 18.22 with the profile's mesh-sized f
    # and f', 23.0 with the two whole products, their difference and
    # mesh-sized F, target and closed form)
    assert _peak_grids(lambda: commutator_deviation(sqrt_n_spec(), grid), grid) <= 4.5
    # W_5 and the complex product, in whose buffer the residual is formed one
    # row block at a time; H is a structure, and its values and the real
    # first partials of both live one row block at a time; W_5 goes before
    # the norms, which mask |residual| in place (5.35; 7.11 grids with H
    # sampled, E_n W_5 a whole grid and a masked copy of |residual|, 10.84
    # with the partials on the mesh, 14.53 while the profiles kept w and w'
    # on the mesh, 20.32 with mesh-sized F, H kept alive and the residual a
    # fresh grid)
    assert _peak_grids(lambda: genvalue_residual(sqrt_n_spec(), 5, grid), grid) <= 5.5
    # the Moyal route: W_5, its partials to second order one row block at a
    # time, and the complex product, in whose buffer the residual is formed
    # (4.94; 6.57 grids with E_n W_5 a whole grid and a masked copy of
    # |residual|, 11.30 with W_5's five partials on the mesh)
    assert _peak_grids(lambda: genvalue_residual(identity_spec(), 5, grid), grid) <= 5.0
    # the identity residual's grids on the last W_n it reads, beside the
    # profile tables of the W_n kept for the one imag_maxima sweep, which
    # holds one row block of every operand at a time, each star's H a
    # structure never sampled (8.06; 8.94 grids with the residual's whole
    # E_n W_n and masked copy, 21.29 while the pass memoized each star's H
    # with its first partials and each W_n's first partials on the mesh,
    # 24.02 when every product memoized its operands' partials on the mesh,
    # 31.58 with mesh-sized profile derivatives, 37.34 also with mesh-sized F
    # in each star and the residual a fresh grid)
    assert _peak_grids(lambda: fock_pass(False), grid) <= 8.25
    # the whole verify, whose peak is the pass's; check 6's associativity
    # defect comes next (8.06; 8.95 grids before the residual streamed, 21.28
    # with the memoizing pass)
    np.random.default_rng(0)  # its first call imports modules that stay (0.36 grids)
    assert _peak_grids(lambda: run_verification(False), grid) <= 8.25
    # the probe of `fstarq assoc` and verify check 6, taken on the polynomials
    # q, p and q + p: each hbar keeps the real |diff|^2 grid, and the
    # operands' samples live one row block at a time (3.23; 8.86 grids with
    # the three probe fields sampled)
    assert _peak_grids(lambda: probe_defect(grid, sqrt_n_spec(), ASSOC_HBARS), grid) <= 3.25
    # the identity probe's exact Moyal route: its |diff|^2 grid and the
    # difference sampled by eval_grid (2.00; 8.02 grids with the probe fields)
    assert _peak_grids(lambda: probe_defect(grid, identity_spec(), ASSOC_HBARS), grid) <= 2.25
    # field_to_csv writes one row block at a time: a block's patterns, the
    # sorted memo of those met so far and the texts of each distinct number
    # (W_5: 2.01; the sqrt_n commutator deviation: 5.41, most of it its
    # 90k texts; 12.36 and 12.63 grids with one whole-field unique and every
    # sample's text gathered before the first byte was written)
    W5 = fock_wigner(5, grid)
    assert _peak_grids(lambda: field_to_csv(W5, tmp_path / "w.csv"), grid) <= 2.25
    deviation = commutator_deviation(sqrt_n_spec(), grid)[0]
    assert _peak_grids(lambda: field_to_csv(deviation, tmp_path / "c.csv"), grid) <= 5.5

    calls = []
    eval_grid = PolySymbol.eval_grid

    def counted(self, Q, P):
        calls.append(self)
        return eval_grid(self, Q, P)
    monkeypatch.setattr(PolySymbol, "eval_grid", counted)

    def assoc():
        k, g, h = (field_from_poly(parse_symbol(text), grid) for text in ("q", "p", "q + p"))
        associativity_defect(k, g, h, sqrt_n_spec(), [0.1, 0.01, 0.001])
    # the three fields' samples and no grid for their constant partials; each
    # hbar keeps the real |diff|^2 grid, F and dF/dn as tables over the distinct
    # radii, and streams its four products one row block at a time (8.92; 11.5
    # grids with F and its gradient on the mesh; 23.07 grids with one
    # whole-mesh product with jets alive at a time; 50.07 grids and 18
    # eval_grid calls when every partial was a grid and both jets products
    # were alive at once)
    assert _peak_grids(assoc, grid) <= 9.0
    assert len(calls) == 3
