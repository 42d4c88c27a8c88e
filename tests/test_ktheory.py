"""tau-coordinates: lifts, filtration, lattices, Adams operations, Bott parts."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from chowops import (
    KClass,
    adams_lower,
    adams_matrix,
    adams_upper,
    atiyah_decompose,
    bott_decompose,
    degree,
    euler_char,
    filtration_level,
    k0_from_chow_lift,
    kclass_from_json,
    kclass_pullback,
    kclass_pushforward,
    line_bundle,
    make_class,
    odd_quadric,
    phi_top,
    projective_space,
    structure_sheaf,
    tangent_bundle,
    tau_lattice,
    theta_p,
    trivial_bundle,
    build_morphism,
    variety_from_spec,
)
from chowops.char_classes import todd_class
from chowops.core import CellularVariety, Matrix, apply_matrix, kron, kunneth
from chowops.errors import (
    FlagViolation,
    IntegralityViolation,
    NonIntegralInput,
    ZeroClass,
)
from chowops.bundles import k0_generator_bundles, kclass_to_bundle
from chowops.ktheory import _p_adic_split, _projective_adams, _psi_ch


P1 = projective_space(1)
P2 = projective_space(2)
Q3 = odd_quadric(3)


def _cls(X, coeffs):
    return make_class(X, coeffs)


def test_canonical_lift_examples():
    x = k0_from_chow_lift(make_class(P2, {"h^1": 1}))
    assert x.tau == _cls(P2, {"h^1": 1, "h^2": 1})
    assert k0_from_chow_lift(P2.zero()).is_zero()
    pt = k0_from_chow_lift(make_class(P2, {"h^2": 1}))
    assert pt.tau == _cls(P2, {"h^2": 1})


def test_lift_needs_integral_input():
    with pytest.raises(NonIntegralInput):
        k0_from_chow_lift(_cls(P2, {"h^1": Fraction(1, 2)}))


def test_phi_top_examples():
    x = KClass(P2, _cls(P2, {"h^1": 1, "h^2": 1}), integral=True)
    assert phi_top(x) == make_class(P2, {"h^1": 1})
    pt = KClass(P2, _cls(P2, {"h^2": 1}), integral=True)
    assert phi_top(pt) == make_class(P2, {"h^2": 1})
    assert phi_top(pt.scale(2)) == make_class(P2, {"h^2": 2})
    with pytest.raises(NonIntegralInput):
        phi_top(adams_lower(structure_sheaf(P2), 2))


def test_scale_by_an_integral_fraction_keeps_the_class_integral():
    x = k0_from_chow_lift(make_class(P2, {"h^1": 1}))
    for c in (2, Fraction(2), Fraction(-6, 3)):
        y = x.scale(c)
        assert y.integral and y == x.scale(int(c))
        atiyah_decompose(y, 2)
    assert not x.scale(Fraction(1, 2)).integral
    with pytest.raises(TypeError):
        x.scale(True)


def test_filtration_level_examples():
    assert filtration_level(k0_from_chow_lift(make_class(P2, {"h^1": 1}))) == 1
    assert filtration_level(structure_sheaf(P2)) == 2
    assert filtration_level(
        KClass(P2, _cls(P2, {"h^2": 1}), integral=True)) == 0
    with pytest.raises(ZeroClass):
        filtration_level(k0_from_chow_lift(P2.zero()))


def test_lattice_membership_examples():
    L = tau_lattice(P2)
    col = P2.tau_class("h^1")
    assert L.membership(col)
    assert not L.membership(col.scale(Fraction(1, 2)))
    assert L.membership(col + P2.tau_class("h^0"))
    assert L.membership(_cls(P2, {"h^1": 1, "h^2": 1}))


def test_kclass_json():
    x = k0_from_chow_lift(make_class(P2, {"h^1": 1}))
    blob = x.to_json()
    assert blob == {"tau": {"h^1": "1", "h^2": "1"}, "integral": True}
    assert kclass_from_json(P2, blob) == x
    with pytest.raises(NonIntegralInput):
        kclass_from_json(P2, {"tau": {"h^2": "1/2"}, "integral": True})


@pytest.mark.parametrize("obj", [[1], "x", 5, None])
def test_kclass_json_must_be_an_object(obj):
    with pytest.raises(ValueError):
        kclass_from_json(P2, obj)


def test_kclass_json_integral_flag_is_a_json_boolean():
    tau = {"h^1": "1", "h^2": "1"}
    assert kclass_from_json(P2, {"tau": tau, "integral": True}).integral is True
    assert kclass_from_json(P2, {"tau": tau, "integral": False}).integral is False
    assert kclass_from_json(P2, {"tau": tau}).integral is False
    for flag in ("false", "true", 0, 1, None, [], {}):
        with pytest.raises(ValueError, match="'integral' must be true or false"):
            kclass_from_json(P2, {"tau": tau, "integral": flag})


def test_adams_upper_examples():
    om1 = line_bundle(P2, -1)
    assert adams_upper(om1, 2).ch == line_bundle(P2, -2).ch
    tr = trivial_bundle(P2, 4)
    assert adams_upper(tr, 3) == tr
    t = tangent_bundle(P1)  # = [O(2)]
    assert adams_upper(t, 3).ch == line_bundle(P1, 6).ch


def test_adams_upper_is_multiplicative():
    e = tangent_bundle(P2)
    f = line_bundle(P2, 2)
    for p in (2, 3, 5):
        assert adams_upper(e * f, p).ch == \
            (adams_upper(e, p) * adams_upper(f, p)).ch


def test_adams_lower_examples():
    x = structure_sheaf(P1)
    assert adams_lower(x, 2).tau == _cls(P1, {"h^0": Fraction(1, 2), "h^1": 1})
    pt = k0_from_chow_lift(make_class(P1, {"h^1": 1}))
    assert adams_lower(pt, 2).tau == _cls(P1, {"h^1": 1})
    zero = k0_from_chow_lift(P1.zero())
    assert adams_lower(zero, 2).is_zero()


def test_adams_lower_frozen_p2():
    got = adams_lower(structure_sheaf(P2), 2).tau
    assert got == _cls(P2, {"h^0": Fraction(1, 4), "h^1": Fraction(3, 4),
                            "h^2": 1})


def test_adams_lower_identity_on_point():
    pt = projective_space(0)
    x = structure_sheaf(pt)
    for p in (2, 3, 5):
        assert adams_lower(x, p).tau == x.tau


def test_euler_characteristics():
    for n in range(7):
        assert euler_char(structure_sheaf(projective_space(n))) == 1
    assert euler_char(structure_sheaf(Q3)) == 1
    assert euler_char(k0_from_chow_lift(make_class(P2, {"h^2": 5}))) == 5


def test_k0_k_identification_round_trip():
    for label in Q3.labels():
        x = k0_from_chow_lift(Q3.basis_class(label))
        e = kclass_to_bundle(x)
        assert e.ch * todd_class(Q3) == x.tau


def test_kclass_push_pull():
    f = build_morphism("linear_embedding", m=1, n=2)
    x = structure_sheaf(P1)
    pushed = kclass_pushforward(f, x)
    assert pushed.tau == f.push_class(x.tau)
    y = structure_sheaf(P2)
    pulled = kclass_pullback(f, y)
    assert pulled.tau == structure_sheaf(P1).tau  # O_{P^2} restricts to O_{P^1}
    fake_flags = build_morphism("linear_embedding", m=0, n=1)
    from chowops.morphisms import Morphism
    fake = Morphism("fake", fake_flags.source, fake_flags.target,
                    fake_flags.push, fake_flags.pull,
                    proper=False, lci=False, flat=False)
    with pytest.raises(FlagViolation):
        kclass_pushforward(fake, structure_sheaf(fake.source))
    with pytest.raises(FlagViolation):
        kclass_pullback(fake, structure_sheaf(fake.target))


# -- Bott decomposition ---------------------------------------------------------

def test_bott_trivial_bundle():
    e = trivial_bundle(P2, 3)
    parts = bott_decompose(e, 2)
    assert parts[0] == P2.unit()
    assert all(pk.is_zero() for pk in parts[1:])


def test_bott_line_bundle_on_p1():
    parts = bott_decompose(line_bundle(P1, 1), 2)
    # theta^2 = 2 - h = 2 * 1 + 1 * (-h), and -h = h mod 2 = w_1
    assert parts[0] == P1.unit()
    assert parts[1] == _cls(P1, {"h^1": -1})


def test_bott_reconstructs_theta():
    for X in (P2, Q3):
        for p in (2, 3):
            for e in (tangent_bundle(X), -tangent_bundle(X),
                      line_bundle(X, 2)):
                parts = bott_decompose(e, p)
                total = X.zero()
                for k, ek in enumerate(parts):
                    total = total + ek.scale(Fraction(p) ** (e.rank - k))
                assert total == theta_p(e, p)
                for k, ek in enumerate(parts):
                    dims = ek.support_dims()
                    assert not dims or X.dim - dims[-1] >= k * (p - 1)


def test_p_adic_split_groups_scales_and_finds_the_largest_bad_dimension():
    # the split both decompositions share: the cell of dimension j goes to
    # k = [(top - j)/(p - 1)], scaled by p^(shift + k); Bott's first bad
    # codimension is the largest bad dimension
    # (coordinates as integers over one denominator: 1, 1/2, 1/4, 3 over 4)
    dims = projective_space(4)._dims
    coords = {"h^0": 4, "h^1": 2, "h^3": 1, "h^4": 12}
    pieces, bad = _p_adic_split(dims, coords, 4, 2, 4, -1)  # Bott, rank 1
    assert pieces == [
        {"h^0": Fraction(1, 2)}, {"h^1": Fraction(1, 2)}, {}, {"h^3": 1},
        {"h^4": 24}]
    assert bad == 4
    coords = {"h^1": 3 ** 7, "h^2": 9, "h^4": 1}  # 1, 1/243, 1/3^7
    pieces, bad = _p_adic_split(dims, coords, 3 ** 7, 3, 4, 4)  # Atiyah, d = 4
    assert pieces == [{"h^1": 81}, {"h^2": 1}, {"h^4": Fraction(1, 3)}]
    assert bad == 0


SPLIT_VARIETIES = [projective_space(6), odd_quadric(5),
                   variety_from_spec("P^1xP^2")]


@st.composite
def split_cases(draw):
    """Coordinates num / den on the cells of dimension <= top, whose
    numerators and denominator mix powers of p with other factors, and a
    shift of either sign."""
    X = draw(st.sampled_from(SPLIT_VARIETIES))
    p = draw(st.sampled_from([2, 3, 5, 7, 3317044064679887385961813]))
    top = draw(st.integers(0, X.dim))
    labels = [l for l, d in X.cells if d <= top]
    p_power = st.integers(0, 6).map(lambda e: p ** e)
    num = draw(st.dictionaries(st.sampled_from(labels), st.builds(
        lambda c, q: c * q, st.integers(-10 ** 12, 10 ** 12), p_power)))
    den = draw(p_power) * draw(st.integers(1, 10 ** 6))
    return X, num, den, p, top, draw(st.integers(-8, 8))


@settings(max_examples=200, deadline=None)
@given(split_cases())
def test_integer_split_matches_the_fraction_oracle(case):
    # the split on integers over one denominator, against Fraction scales
    X, num, den, p, top, shift = case
    coords = _cls(X, {l: Fraction(v, den) for l, v in num.items()})
    want, want_bad = oracles.p_adic_split(coords, p, top, shift)
    pieces, bad = _p_adic_split(X._dims, num, den, p, top, shift)
    assert pieces == [piece.coeffs for piece in want]
    assert bad == want_bad
    # an integral value is an int, and only a failing one a Fraction
    assert all(type(v) is int or v.denominator != 1
               for piece in pieces for v in piece.values())


def test_bott_needs_integral_bundle():
    e = theta_p(tangent_bundle(P2), 2)  # a rational class, not a bundle
    from chowops import VirtualBundle
    frac = VirtualBundle(P2, 4, e, integral=False)
    with pytest.raises(NonIntegralInput):
        bott_decompose(frac, 2)


def test_generator_bundles_have_integral_chern_classes():
    from chowops import chern
    for X in (P2, Q3):
        for label, g in k0_generator_bundles(X):
            assert chern(g).is_integral()


def test_adams_lower_closed_form_on_projective_spaces():
    import oracles
    for n in (1, 2, 3, 4):
        X = projective_space(n)
        for p in (2, 3):
            expected = oracles.h_powers_on_pn(
                X, oracles.psi_p_structure_sheaf_pn(n, p))
            assert adams_lower(structure_sheaf(X), p).tau == expected


def test_adams_lower_closed_form_on_quadrics():
    import oracles
    for d in (3, 5):
        X = odd_quadric(d)
        for p in (2, 3):
            expected = oracles.h_powers_on_quadric(
                X, oracles.psi_p_structure_sheaf_quadric(d, p))
            assert adams_lower(structure_sheaf(X), p).tau == expected


# -- the Adams matrix against the tau route ---------------------------------------

def adams_by_tau_route(X, p):
    """Column l: psi_p of [O_{Z_l}] by the dimension scaling of its tau
    column (`_psi_ch`), solved in the tau basis by back substitution."""
    return {l: oracles.tau_coordinates(
                X, _psi_ch(X.tau_class(l), p, p ** X.dim))
            for l in X.labels()}


# every builder of dimension <= 8: the closed form on P^n, the tau route on
# Q_d, and Kronecker products of both, nested ones included
SMALL_BUILDERS = (["P^%d" % n for n in range(9)]
                  + ["Q_%d" % d for d in (1, 3, 5, 7)]
                  + ["P^1xP^1", "P^1xP^2", "P^2xP^2", "P^1xQ_1", "P^1xQ_3",
                     "P^2xQ_5", "Q_3xQ_3", "Q_3xQ_5", "P^3xP^4", "P^4xP^4",
                     "P^1xP^1xP^1", "P^1xP^1xQ_3", "P^2xP^2xP^1",
                     "P^2xP^2xP^2", "P^1xP^2xP^1xP^2"])


@pytest.mark.parametrize("spec", SMALL_BUILDERS)
def test_adams_matrix_equals_the_tau_route(spec):
    X = variety_from_spec(spec)
    assert X.dim <= 8
    for p in (2, 3, 5):
        assert adams_matrix(X, p) == adams_by_tau_route(X, p), p


# -- adams_lower against the twist route --------------------------------------

def seeded_rational_classes(X, seed, count=4):
    """count rational K-classes on X, each on a random half of the cells."""
    rng = random.Random(seed)
    return [KClass(X, make_class(X, {
        l: Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4))
        for l in X.labels() if rng.random() < 0.5}), integral=False)
        for _ in range(count)]


@pytest.mark.parametrize("spec", SMALL_BUILDERS)
def test_adams_lower_equals_the_twist_route(spec):
    # Bott's identity makes Todd(T_X) theta^p(-T_X) psi^p(tau(x) / Todd(T_X))
    # the dimension-j part of tau(x) times p^{-j}
    X = variety_from_spec(spec)
    lifts = [k0_from_chow_lift(X.basis_class(l)) for l in X.labels()]
    for p in (2, 3, 5):
        for x in lifts + seeded_rational_classes(X, "%s at %d" % (spec, p)):
            assert adams_lower(x, p) == oracles.adams_lower_by_twist(x, p), p


def test_adams_lower_on_corrupted_tangent_data_is_the_true_one():
    # P^2's ring and tau columns with ch_1(T) = 7/2 and ch_2(T) = 5/2, and
    # tau[O_X] the Todd class of that data, 1 + c_1/2 + (c_1^2 + c_2)/12
    # with c_2 = 29/8, as the constructor insists: the twist cancels
    # whatever tangent data of rank dim X, so both routes give the true
    # P^2's result
    tangent = dict(P2.tangent_ch, **{"h^1": Fraction(7, 2),
                                     "h^2": Fraction(5, 2)})
    tau = dict(P2.tau_columns, **{"h^0": {"h^0": 1, "h^1": Fraction(7, 4),
                                          "h^2": Fraction(127, 96)}})
    X = CellularVariety("P^2-corrupt", 2, P2.cells, oracles.pair_table(P2),
                        P2.degree_vector, tangent, tau)
    true = [k0_from_chow_lift(P2.basis_class(l)) for l in P2.labels()]
    true += seeded_rational_classes(P2, "P^2-corrupt")
    for p in (2, 3, 5):
        for y in true:
            want = adams_lower(y, p).tau.coeffs
            x = KClass(X, make_class(X, y.tau.coeffs), y.integral)
            assert adams_lower(x, p).tau.coeffs == want
            assert oracles.adams_lower_by_twist(x, p).tau.coeffs == want


# one table given to CellularVariety directly, its tau columns as a mapping
_P1Q3 = variety_from_spec("P^1xQ_3")
RAW = CellularVariety("raw P^1xQ_3", _P1Q3.dim, _P1Q3.cells,
                      oracles.pair_table(_P1Q3), _P1Q3.degree_vector,
                      _P1Q3.tangent_ch,
                      {c: dict(col) for c, col in _P1Q3.tau_columns.items()})


@st.composite
def rational_classes(draw):
    X = draw(st.sampled_from([RAW] + SMALL_BUILDERS))
    if isinstance(X, str):
        X = variety_from_spec(X)
    values = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                       st.integers(1, 10 ** 4))
    return make_class(X, draw(st.dictionaries(st.sampled_from(X.labels()),
                                              values)))


@settings(max_examples=150, deadline=None)
@given(rational_classes())
def test_tau_coordinates_match_a_back_substitution(x):
    import oracles
    X = x.variety
    lattice = tau_lattice(X)
    coords = KClass(X, x, False).coords.coeffs
    assert coords == oracles.tau_coordinates(X, x)
    assert lattice.membership(x) == all(Fraction(v).denominator == 1
                                        for v in coords.values())
    # the inverse times tau, and tau times the inverse, is the identity
    for l in X.labels():
        assert KClass(X, X.tau_class(l), True).coords.coeffs == {l: 1}
        assert apply_matrix(X.tau_columns, make_class(X, lattice.inverse[l]),
                            X) == X.basis_class(l)


@st.composite
def kclass_cases(draw):
    """A SMALL_BUILDERS shape, a random rational tau vector, random integer
    lattice coordinates, an integral flag and an integer scalar."""
    X = variety_from_spec(draw(st.sampled_from(SMALL_BUILDERS)))
    cells = st.sampled_from(X.labels())
    values = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                       st.integers(1, 10 ** 4))
    tau = make_class(X, draw(st.dictionaries(cells, values, max_size=6)))
    coords = make_class(X, draw(st.dictionaries(cells, st.integers(-50, 50),
                                                max_size=6)))
    return X, tau, coords, draw(st.booleans()), draw(st.integers(-5, 5))


@settings(max_examples=150, deadline=None)
@given(kclass_cases())
def test_a_kclass_is_its_lattice_coordinates(case):
    # the constructor solves tau once; a lift wraps its input; tau, the
    # filtration, the top part, sums, scales and JSON all agree with the
    # back substitution and with tau read through the tau columns
    X, tau, coords, integral, c = case
    x = KClass(X, tau, integral)
    assert x.coords.coeffs == oracles.tau_coordinates(X, tau)
    assert x.tau == tau and x.integral is integral
    y = k0_from_chow_lift(coords)
    assert y.coords == coords and y.integral
    assert y.tau == apply_matrix(X.tau_columns, coords, X)
    for z in (x, y):
        if z.is_zero():
            assert z.tau.is_zero()
            continue
        top = z.tau.top_dim()
        assert filtration_level(z) == top
        if not z.integral:
            continue
        if z.coords.dim_component(top).is_integral():
            assert phi_top(z) == z.tau.dim_component(top)
        else:
            with pytest.raises(IntegralityViolation):
                phi_top(z)
    assert (x + y).tau == tau + y.tau
    assert (x - y).tau == tau - y.tau
    assert x.scale(c).tau == tau.scale(c) and y.scale(c).tau == y.tau.scale(c)
    assert (x + y).integral is integral and y.scale(c).integral
    for z in (KClass(X, tau, False), y):
        back = kclass_from_json(X, z.to_json())
        assert back == z and back.integral is z.integral


@st.composite
def euler_char_cases(draw):
    """A K-class on RAW or a SMALL_BUILDERS shape: solved from a random
    rational tau vector, or lifted from random integer coordinates."""
    X = draw(st.sampled_from([RAW] + SMALL_BUILDERS))
    if isinstance(X, str):
        X = variety_from_spec(X)
    cells = st.sampled_from(X.labels())
    if draw(st.booleans()):
        values = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                           st.integers(1, 10 ** 4))
        return KClass(X, make_class(X, draw(st.dictionaries(cells, values))),
                      False)
    return k0_from_chow_lift(make_class(X, draw(st.dictionaries(
        cells, st.integers(-50, 50)))))


@settings(max_examples=150, deadline=None)
@given(euler_char_cases())
def test_euler_char_is_the_degree_of_the_dimension_0_part_of_tau(x):
    # one dot product of the coordinates with the cached chi(O_Z) row
    chi = euler_char(x)
    assert type(chi) is Fraction
    assert chi == degree(x.tau.dim_component(0))


@pytest.mark.parametrize("other", [1, Fraction(1, 2), "x", None,
                                   P2.unit()])
def test_a_kclass_adds_only_kclasses(other):
    x = structure_sheaf(P2)
    with pytest.raises(TypeError):
        x + other
    with pytest.raises(TypeError):
        x - other


def test_product_tau_columns_are_one_kronecker_product(monkeypatch):
    # a fresh product's columns are the Kronecker product of its factors'
    # integer forms: no Fraction entries and no Matrix.of round trip
    from chowops import varieties
    monkeypatch.setattr(varieties, "_VARIETY_CACHE", {})
    X, Y = variety_from_spec("P^2"), variety_from_spec("Q_3")
    A, B = X.tau_columns, Y.tau_columns
    of, calls = Matrix.of, []

    def counting_of(cls, columns):
        calls.append(columns)
        return of(columns)

    monkeypatch.setattr(Matrix, "of", classmethod(counting_of))
    tau = variety_from_spec("P^2xQ_3").tau_columns
    assert calls == []
    assert tau.den == A.den * B.den
    assert tau == {kunneth(a, b): kron(A[a], B[b]) for a in A for b in B}


@pytest.mark.parametrize("spec", ["P^0", "P^7", "P^24", "Q_1", "Q_9", "Q_15",
                                  "P^2xQ_3", "P^2xP^2xP^2xP^2"])
def test_tau_inverse_is_the_back_substitution_in_one_integer_loop(
        monkeypatch, spec):
    # column c of T^{-1} is the tau-coordinates of the cell c, over the lcm
    # of their denominators; the integer loop builds no Fraction
    from chowops import ktheory
    X = variety_from_spec(spec)
    X.tau_columns
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    inverse = ktheory._unitriangular_inverse(X)
    assert made == []
    monkeypatch.undo()
    want = Matrix.of({c: oracles.tau_coordinates(X, X.basis_class(c))
                      for c in X.labels()})
    assert (inverse.ints, inverse.den) == (want.ints, want.den)


def test_projective_adams_matrix_past_p_minus_one():
    # at p = 7 the binomials C(p, m+1) vanish from m = 7 on
    for n in range(14):
        X = projective_space(n)
        assert adams_matrix(X, 7) == adams_by_tau_route(X, 7), n


# an 82-bit prime, the largest below errors.PRIME_BOUND
BIG_PRIME = 3317044064679887385961813


@pytest.mark.parametrize("n, p", [
    (0, 2), (1, 3), (2, 2), (4, 3), (8, 7), (5, 11), (24, 3), (40, 2),
    (40, 3), (40, 5), (12, 13), (39, BIG_PRIME), (6, 7), (7, 7),
    (3, BIG_PRIME)])
def test_projective_adams_riordan_build_matches_the_running_products(n, p):
    # column j is p x^j theta^{j-n-1}, one series.spower each at x = p y,
    # in the same integers over the same p^{2n}
    A = _projective_adams(n, p)
    assert (A.ints, A.den) == oracles.projective_adams_products(n, p)


def test_adams_matrix_has_p_power_denominators():
    for spec in ("P^6", "Q_5", "P^2xQ_3"):
        X = variety_from_spec(spec)
        for p in (2, 3, 5):
            for col in adams_matrix(X, p).values():
                for v in col.values():
                    den = Fraction(v).denominator
                    while den % p == 0:
                        den //= p
                    assert den == 1, (spec, p, v)
