"""Property tests on random classes, not just basis cells: the linear maps (the
Riemann-Roch lift, pushforward and pullback) all go through one shared
matrix step, so they must act linearly on any input, and the Atiyah and Bott
p-adic decompositions must hold on random lattice classes and bundles.  The
Atiyah decomposition reads psi_p off the cached Adams matrix, and must
rebuild what the twist route (`oracles.adams_lower_by_twist`) computes.  The
operations read S_k off the scaled tau-coordinates, and must agree with
lifting the x_k and reading their tau-vectors, and they must obey the laws
of the paper on random mod-p classes: additivity, S_0 = id, the x^p rule,
and the Cartan formula on external products.  They are read off one cached column per basis
cell, and must agree with decomposing each homogeneous part of a random
class as a whole, whichever columns earlier operations cached, and an
explicit lift c [l] + p r1 + r2 of a cell, read off its own split, must give
the columns' S_k on every small builder.  The ring
exponential and the series log are computed by recurrences, and must agree
with the power sums they replace on random rational input.  todd, theta^p
and w^{CH,p} read one cached log-weight vector per (series, p, dim) and
build the log class in one pass, and must agree with rebuilding the series
and the power-sum class from scratch; and every ring result stores its
coefficients as exact ints or non-integral Fractions.  The total Chern class
is the multiplicative class of 1 + t, and must match the closed form prod_i
(1 + i h)^{a_i} (1 + h)^{b(n+1)} of r + sum_i a_i O(i) + b T on P^n.  The
operations must not depend on the cell basis: shearing one cell into another
of its dimension and transporting the table, tangent data and tau columns
transports every S_k unchanged.  Along composite chains of two and three
catalogue morphisms, whose derived T_h must be T_f + f^* T_g, psi_p commutes
with the proper pushforward, and with the lci pullback up to theta^p(-T_h),
on random lattice K-classes.  The ring product, the exponential and every
matrix apply run on integers over one denominator, and must agree with plain
Fraction arithmetic on random rational classes whose denominators mix powers
of p, factorials and large primes; every result, a class or a matrix apply,
is stored in lowest terms, and equal classes reached by different routes
are equal and hash alike."""
import random
from fractions import Fraction
from functools import reduce
from math import factorial, gcd, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chowops import series as S
from chowops import varieties
from chowops import (
    CellularVariety,
    ChowClass,
    ModPClass,
    adams_lower,
    adams_matrix,
    atiyah_decompose,
    bott_decompose,
    build_morphism,
    chern,
    degree,
    external_product,
    k0_from_chow_lift,
    kclass_pullback,
    kclass_pushforward,
    line_bundle,
    make_class,
    op_component,
    projective_space,
    steenrod_cohomological,
    steenrod_homological,
    steenrod_total,
    tangent_bundle,
    tau_lattice,
    theta_p,
    todd,
    trivial_bundle,
    variety_from_spec,
    VirtualBundle,
    w_chp,
)
from chowops.char_classes import w_tangent
from chowops.core import _built, apply_matrix
from chowops.errors import UnknownLabel
from chowops.ktheory import _psi_ch
from chowops.morphisms import Morphism
from chowops.verify import random_lattice_kclass, standard_morphisms
from oracles import coeffs as taylor_coeffs
from oracles import h_powers_on_pn, multiplicative_class_anew, t
from oracles import adams_lower_by_twist, pair_table, sadd, tau_coordinates
from test_ktheory import SMALL_BUILDERS

VARIETIES = [variety_from_spec(name) for name in ("P^4", "Q_5", "P^1xP^2")]
MORPHISMS = standard_morphisms()

EXP_VARIETIES = VARIETIES + [variety_from_spec("P^1xP^1xP^1")]

coefficients = st.integers(min_value=-10 ** 6, max_value=10 ** 6)
rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 50))


def integral_class(draw, X):
    return make_class(X, draw(st.dictionaries(st.sampled_from(X.labels()),
                                              coefficients)))


@st.composite
def classes(draw, varieties=VARIETIES):
    X = draw(st.sampled_from(varieties))
    return integral_class(draw, X)


@st.composite
def lattice_classes_and_primes(draw, varieties=VARIETIES):
    x = k0_from_chow_lift(draw(classes(varieties)))
    assume(not x.is_zero())
    return x, draw(st.sampled_from([2, 3, 5]))


@st.composite
def bundles_and_primes(draw):
    """An integral bundle: a sum of multiples of O(i), plus or minus T_X."""
    X = draw(st.sampled_from(VARIETIES))
    e = tangent_bundle(X).scale(draw(st.sampled_from([-1, 0, 1])))
    twists = st.tuples(st.integers(-4, 4), st.integers(-3, 3))
    for i, m in draw(st.lists(twists, max_size=3)):
        e = e + line_bundle(X, i).scale(m)
    return e, draw(st.sampled_from([2, 3, 5]))


@st.composite
def morphism_and_classes(draw):
    f = draw(st.sampled_from(MORPHISMS))
    direction = draw(st.sampled_from(["push", "pull"]))
    X = f.source if direction == "push" else f.target
    x, y = integral_class(draw, X), integral_class(draw, X)
    p = draw(st.sampled_from([None, 2, 3, 5]))
    if p is not None:
        x, y = ModPClass.from_integral(x, p), ModPClass.from_integral(y, p)
    return f, direction, x, y


@settings(max_examples=60, deadline=None)
@given(classes())
def test_lift_is_the_sum_of_scaled_tau_columns(x):
    X = x.variety
    expected = X.zero()
    for label, v in x.coeffs.items():
        expected = expected + X.tau_class(label).scale(v)
    lift = k0_from_chow_lift(x)
    assert lift.integral
    assert lift.tau == expected


@settings(max_examples=80, deadline=None)
@given(morphism_and_classes())
def test_push_and_pull_are_additive(case):
    f, direction, x, y = case
    apply = f.push_class if direction == "push" else f.pull_class
    assert apply(x + y) == apply(x) + apply(y)


@settings(max_examples=60, deadline=None)
@given(lattice_classes_and_primes())
def test_atiyah_decomposition_of_lattice_classes(case):
    x, p = case
    dec = atiyah_decompose(x, p)
    assert dec.verify()
    L = tau_lattice(x.variety)
    for part in dec.parts:
        assert part.integral and L.membership(part.tau)


@settings(max_examples=60, deadline=None)
@given(lattice_classes_and_primes(EXP_VARIETIES))
def test_adams_matrix_decomposition_rebuilds_the_tau_route(case):
    # the decomposition reads psi_p off the Adams matrix; the oracle runs
    # the twist route (Todd, p-power scale, Todd theta^p(-T))
    x, p = case
    assert atiyah_decompose(x, p).reconstruction() == \
        adams_lower_by_twist(x, p).tau


@settings(max_examples=60, deadline=None)
@given(bundles_and_primes())
def test_bott_parts_rebuild_theta(case):
    e, p = case
    total = e.variety.zero()
    for k, ek in enumerate(bott_decompose(e, p)):
        total = total + ek.scale(Fraction(p) ** (e.rank - k))
    assert total == theta_p(e, p)


@settings(max_examples=40, deadline=None)
@given(bundles_and_primes())
def test_cached_classes_match_a_rebuild_from_scratch(case):
    e, _ = case
    assert todd(e) == multiplicative_class_anew("todd", e)
    for p in (2, 3, 5):
        assert theta_p(e, p) == multiplicative_class_anew("theta", e, p)
        assert w_chp(e, p) == multiplicative_class_anew("w", e, p)


@settings(max_examples=40, deadline=None)
@given(bundles_and_primes())
def test_bott_identity_relates_theta_and_todd(case):
    # theta^p(e) psi^p(Todd(e)) = p^rank(e) Todd(e), root by root
    # 1 + e^{-t} + ... + e^{-(p-1)t} = p todd(t) / todd(pt): the identity
    # that makes psi_p a dimension scaling in tau-coordinates
    e, _ = case
    for p in (2, 3, 5):
        assert theta_p(e, p) * _psi_ch(todd(e), p) == \
            todd(e).scale(Fraction(p) ** e.rank)


@st.composite
def rational_pairs_and_scalars(draw):
    """Two rational classes of one variety and an int or Fraction scalar."""
    X = draw(st.sampled_from(EXP_VARIETIES))
    cells = st.sampled_from(X.labels())
    x, y = (make_class(X, draw(st.dictionaries(cells, rationals, max_size=4)))
            for _ in range(2))
    return x, y, draw(st.one_of(rationals, st.integers(-5, 5)))


def is_normalized(z):
    """No zero, no float, and no Fraction with denominator 1."""
    return all(v and (type(v) is int or type(v) is Fraction
                      and v.denominator != 1) for v in z.coeffs.values())


@settings(max_examples=80, deadline=None)
@given(rational_pairs_and_scalars())
def test_ring_results_are_stored_normalized(case):
    x, y, c = case
    u, v = (z - z.codim_component(0) for z in (x, y))
    for z in (x + y, x - y, -x, x * y, x.scale(c), u.exp(), (u + v).exp()):
        assert is_normalized(z), z.coeffs


def test_caller_input_keeps_its_checks():
    X = projective_space(2)
    with pytest.raises(TypeError):
        ChowClass(X, {"h^1": 0.5})
    with pytest.raises(TypeError):
        X.unit().scale(0.5)


@st.composite
def modp_classes(draw):
    X = draw(st.sampled_from(EXP_VARIETIES))
    p = draw(st.sampled_from([2, 3, 5]))
    coeffs = draw(st.dictionaries(st.sampled_from(X.labels()),
                                  st.integers(1, p - 1), min_size=1))
    return ModPClass(X, p, coeffs)


def ops_from_lifted_parts(xbar, cohomological, lifted=True):
    """The operations by the per-class route: atiyah_decompose of the
    canonical lift of each homogeneous part.  S_k of the dim-d part is the
    tau-vector of x_k (lifted) or the piece of x_k (not lifted) in dimension
    d - k(p-1), mod p, then twisted by w^{CH,p}(T_X) when cohomological."""
    X, p = xbar.variety, xbar.p
    dims = xbar.support_dims()
    n_ops = max(d // (p - 1) for d in dims) + 1
    w = ModPClass.from_integral(w_tangent(X, p), p)
    out = [ModPClass(X, p, {}) for _ in range(n_ops)]
    for d in dims:
        lift = k0_from_chow_lift(xbar.dim_component(d).lift())
        dec = atiyah_decompose(lift, p, level=d)
        vectors = [part.tau for part in dec.parts] if lifted else dec.pieces
        parts = [ModPClass.from_integral(
                     v.dim_component(d - k * (p - 1)).as_integral(), p)
                 for k, v in enumerate(vectors)]
        if cohomological:
            total = w * steenrod_total(parts)
            parts = [total.dim_component(d - k * (p - 1))
                     for k in range(n_ops)]
        for k, part in enumerate(parts):
            out[k] = out[k] + part
    return out


@settings(max_examples=60, deadline=None)
@given(modp_classes())
def test_operations_match_the_lifted_parts(xbar):
    assert steenrod_homological(xbar) == ops_from_lifted_parts(xbar, False)
    assert steenrod_cohomological(xbar) == ops_from_lifted_parts(xbar, True)


@st.composite
def single_cells(draw):
    """c [l] with c in [1, p-1], and a second cell m != l of the variety."""
    X = draw(st.sampled_from(EXP_VARIETIES))
    p = draw(st.sampled_from([2, 3, 5]))
    l, m = draw(st.lists(st.sampled_from(X.labels()), min_size=2, max_size=2,
                         unique=True))
    return ModPClass(X, p, {l: draw(st.integers(1, p - 1))}), m


@settings(max_examples=60, deadline=None)
@given(single_cells())
def test_single_cell_operations_match_the_multi_cell_route(case):
    # one cell takes the wrap-as-it-is route; adding a second cell sends
    # the same column through the accumulate-and-reduce route
    xbar, m = case
    X, p = xbar.variety, xbar.p
    (l, c), = xbar.coeffs.items()
    pair = ModPClass(X, p, {l: c, m: 1})
    for cohomological, S in ((False, steenrod_homological),
                             (True, steenrod_cohomological)):
        ops = S(xbar)
        assert ops == ops_from_lifted_parts(xbar, cohomological)
        n = len(S(pair))
        assert [a + b for a, b in zip(padded(ops, n),
                                      padded(S(ModPClass(X, p, {m: 1})), n))
                ] == S(pair)
        assert all(v != 0 and type(v) is int for y in ops
                   for v in y.num.values())


CACHE_SPECS = ("P^8", "Q_7", "P^2xP^3", "P^1xP^1xP^1xP^1")
CACHE_VARIETIES = {name: variety_from_spec(name) for name in CACHE_SPECS}


def fresh_variety(name):
    """The builder's output for name, built anew, so nothing is cached on it."""
    saved = varieties._VARIETY_CACHE
    varieties._VARIETY_CACHE = {}
    try:
        return variety_from_spec(name)
    finally:
        varieties._VARIETY_CACHE = saved


@st.composite
def cache_cases(draw):
    name = draw(st.sampled_from(CACHE_SPECS))
    p = draw(st.sampled_from([2, 3, 5]))
    labels = CACHE_VARIETIES[name].labels()
    coeffs = draw(st.dictionaries(st.sampled_from(labels),
                                  st.integers(1, p - 1), min_size=2))
    return name, p, coeffs, draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(cache_cases())
def test_cached_columns_match_the_per_class_route(case):
    # the cache makes S additive by construction, so compare it with the
    # route that decomposes each homogeneous part as a whole; the shared
    # variety holds the columns of every earlier example, the fresh one
    # only what this example builds, in either order of the conventions
    name, p, coeffs, coh_first = case
    warm, fresh = CACHE_VARIETIES[name], fresh_variety(name)
    conventions = [(False, steenrod_homological), (True, steenrod_cohomological)]
    for cohomological, S in conventions[::-1] if coh_first else conventions:
        expected = ops_from_lifted_parts(ModPClass(warm, p, coeffs),
                                         cohomological, lifted=False)
        assert S(ModPClass(warm, p, coeffs)) == expected
        assert [y.coeffs for y in S(ModPClass(fresh, p, coeffs))] == \
            [y.coeffs for y in expected]


LIFT_VARIETIES = {spec: variety_from_spec(spec) for spec in SMALL_BUILDERS}


@st.composite
def lifts_of_a_cell(draw, X, p):
    """(c [l] mod p, c [l] + p r1 + r2) for a cell l and c in 1..p-1: r1
    of level <= dim l and r2 of level <= dim l - 1, over the tau columns."""
    label = draw(st.sampled_from(X.labels()))
    d, c = X.cell_dim(label), draw(st.integers(1, p - 1))
    coeffs = {label: c}
    for scale, level in ((p, d), (1, d - 1)):
        cells = [l for l, e in X.cells if e <= level]
        if cells:
            for l, v in draw(st.dictionaries(st.sampled_from(cells),
                                             st.integers(-9, 9))).items():
                coeffs[l] = coeffs.get(l, 0) + scale * v
    return ModPClass(X, p, {label: c}), make_class(X, coeffs)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("spec", SMALL_BUILDERS)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_an_explicit_lift_gives_the_columns_s_k(spec, p, data):
    # the lift branch reads S_k off the integer pieces of its own split;
    # the canonical route reads them off the cached basis columns
    X = LIFT_VARIETIES[spec]
    xbar, lift = data.draw(lifts_of_a_cell(X, p))
    ops = steenrod_homological(xbar, p, lift=k0_from_chow_lift(lift))
    assert ops == steenrod_homological(xbar, p)


OPERATIONS = (steenrod_homological, steenrod_cohomological)


def padded(ops, n):
    return [op_component(ops, k) for k in range(n)]


@st.composite
def modp_pairs(draw):
    x = draw(modp_classes())
    X, p = x.variety, x.p
    return x, ModPClass(X, p, draw(st.dictionaries(st.sampled_from(X.labels()),
                                                   st.integers(1, p - 1))))


@settings(max_examples=60, deadline=None)
@given(modp_pairs())
def test_operations_are_additive(pair):
    x, y = pair
    n = x.variety.dim + 1  # S_k vanishes once k(p - 1) > dim
    for S in OPERATIONS:
        assert padded(S(x + y), n) == [
            a + b for a, b in zip(padded(S(x), n), padded(S(y), n))]


@settings(max_examples=60, deadline=None)
@given(modp_classes())
def test_s0_is_the_identity(xbar):
    for S in OPERATIONS:
        assert S(xbar)[0] == xbar


@st.composite
def pure_codim_classes(draw):
    """A mod-p class of one codimension q, with q."""
    X = draw(st.sampled_from(EXP_VARIETIES))
    p = draw(st.sampled_from([2, 3, 5]))
    q = draw(st.integers(0, X.dim))
    cells = [l for l in X.labels() if X.cell_codim(l) == q]
    coeffs = draw(st.dictionaries(st.sampled_from(cells),
                                  st.integers(1, p - 1), min_size=1))
    return ModPClass(X, p, coeffs), q


@settings(max_examples=60, deadline=None)
@given(pure_codim_classes())
def test_top_operation_is_the_p_th_power(case):
    # S^q(x) = x^p on codimension q, and S^k(x) = 0 for k > q
    xbar, q = case
    ops = steenrod_cohomological(xbar)
    power = xbar.lift().power(xbar.p)
    assert op_component(ops, q) == ModPClass.from_integral(power, xbar.p)
    assert all(op.is_zero() for op in ops[q + 1:])


CARTAN_FACTORS = [variety_from_spec(name)
                  for name in ("P^1", "P^2", "P^3", "Q_3", "P^1xP^1")]


@st.composite
def external_factors(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    out = []
    for _ in range(2):
        X = draw(st.sampled_from(CARTAN_FACTORS))
        out.append(ModPClass(X, p, draw(st.dictionaries(
            st.sampled_from(X.labels()), st.integers(1, p - 1)))))
    return tuple(out)


@settings(max_examples=60, deadline=None)
@given(external_factors())
def test_cartan_formula_on_external_products(pair):
    # the product's data, and its Adams matrix, are Kronecker products of
    # the factors' (the Kunneth rule); the total operation must follow
    x, y = pair
    for S in OPERATIONS:
        assert steenrod_total(S(external_product(x, y))) == external_product(
            steenrod_total(S(x)), steenrod_total(S(y)))


@st.composite
def positive_codim_pairs(draw):
    """Two rational classes of one variety with no codim-0 part."""
    X = draw(st.sampled_from(EXP_VARIETIES))
    cells = st.sampled_from([l for l in X.labels() if l != X.fundamental])
    return tuple(make_class(X, draw(st.dictionaries(cells, rationals,
                                                    max_size=4)))
                 for _ in range(2))


def exp_by_powers(x):
    """sum_k x^k / k!, which stops at the dimension."""
    X = x.variety
    out = X.zero()
    for k in range(X.dim + 1):
        out = out + x.power(k).scale(Fraction(1, factorial(k)))
    return out


@settings(max_examples=60, deadline=None)
@given(positive_codim_pairs())
def test_ring_exp_is_the_sum_of_powers(pair):
    x, _ = pair
    assert x.exp() == exp_by_powers(x)


@settings(max_examples=60, deadline=None)
@given(positive_codim_pairs())
def test_ring_exp_turns_sums_into_products(pair):
    x, y = pair
    assert (x + y).exp() == x.exp() * y.exp()


@st.composite
def series_and_degree(draw):
    n = draw(st.integers(0, 10))
    return draw(st.lists(rationals, min_size=n + 1, max_size=n + 1)), n


def sexp_by_powers(a, n):
    """sum_k a^k / k! for a series with zero constant term."""
    out, term = S.series([1], n), S.series([1], n)
    for k in range(1, n + 1):
        term = S.smul(term, a, n)
        out = sadd(out, S.sscale(Fraction(1, factorial(k)), term, n), n)
    return out


def slog_by_powers(a, n):
    """sum_k (-1)^{k+1} u^k / k for a = 1 + u."""
    u = [Fraction(0)] + a[1:]
    out, term = S.series([0], n), S.series([1], n)
    for k in range(1, n + 1):
        term = S.smul(term, u, n)
        out = sadd(out, S.sscale(Fraction((-1) ** (k + 1), k), term, n), n)
    return out


@settings(max_examples=80, deadline=None)
@given(series_and_degree())
def test_series_exp_and_log_are_the_power_sums(case):
    a, n = case
    u = [Fraction(0)] + a[1:]
    # t^k <-> h^k is a ring map onto CH(P^n), so the ring exp stands in for
    # a series exp
    Pn = projective_space(n)
    assert h_powers_on_pn(Pn, u).exp() == h_powers_on_pn(
        Pn, sexp_by_powers(u, n))
    one_plus_u = [Fraction(1)] + a[1:]
    assert S.slog(one_plus_u, n) == slog_by_powers(one_plus_u, n)


PN = {n: projective_space(n) for n in range(1, 6)}


@st.composite
def pn_bundles(draw):
    """r + sum_i a_i O(i) + b T on P^n, n <= 5, as (X, r, {i: a_i}, b)."""
    X = PN[draw(st.integers(1, 5))]
    twists = draw(st.dictionaries(st.integers(-3, 3).filter(bool),
                                  st.integers(-3, 3), max_size=3))
    return X, draw(st.integers(-3, 3)), twists, draw(st.integers(-2, 2))


@settings(max_examples=60, deadline=None)
@given(pn_bundles())
def test_chern_is_the_closed_form_on_pn(case):
    # c(O(i)) = 1 + i h and c(T) = (1 + h)^(n+1), multiplied out by sympy
    X, r, twists, b = case
    e = trivial_bundle(X, r) + tangent_bundle(X).scale(b)
    form = (1 + t) ** (b * (X.dim + 1))
    for i, a in twists.items():
        e = e + line_bundle(X, i).scale(a)
        form *= (1 + i * t) ** a
    assert chern(e) == h_powers_on_pn(X, taylor_coeffs(form, X.dim))


# on P^1xP^3 some higher S_k is non-zero at p = 3, which the other two lack
SHEAR_VARIETIES = [variety_from_spec(name)
                   for name in ("P^1xP^2", "P^2xP^2", "P^1xP^3")]


def sheared(X, a, b, c):
    """X in the basis with the cell a replaced by a + c b, where a and b have
    one dimension: the table, tangent_ch and tau columns transported, built
    as a raw CellularVariety (so its Adams matrix comes from the tau route).
    Returns it with the coordinate maps old -> new and new -> old."""
    def to_old(v):
        out = dict(v)
        out[b] = out.get(b, 0) + c * v.get(a, 0)
        return out

    def to_new(v):
        out = dict(v)
        out[b] = out.get(b, 0) - c * v.get(a, 0)
        return {l: s for l, s in out.items() if s}

    def old(l):
        return ChowClass(X, to_old({l: 1}))

    L = X.labels()
    table = {(x, y): to_new((old(x) * old(y)).coeffs) for x in L for y in L}
    tau = {l: to_new(apply_matrix(X.tau_columns, old(l), X).coeffs)
           for l in L}
    Y = CellularVariety("sheared " + X.name, X.dim, X.cells, table,
                        {l: degree(old(l)) for l in X.points},
                        to_new(X.tangent_ch), tau)
    return Y, to_new, to_old


@st.composite
def shears(draw):
    X = draw(st.sampled_from(SHEAR_VARIETIES))
    pairs = [(a, b) for a in X.labels() for b in X.labels()
             if a != b and X.cell_dim(a) == X.cell_dim(b)]
    a, b = draw(st.sampled_from(pairs))
    c = draw(st.integers(-6, 6).filter(bool))
    return X, a, b, c, draw(st.sampled_from([2, 3]))


@settings(max_examples=20, deadline=None)
@given(shears())
def test_operations_do_not_depend_on_the_basis(case):
    # S_k of the cell l of the sheared variety is S_k of the old class it
    # stands for, read in the new coordinates
    X, a, b, c, p = case
    Y, to_new, to_old = sheared(X, a, b, c)
    for l in Y.labels():
        for op in OPERATIONS:
            got = op(ModPClass(Y, p, {l: 1}))
            want = op(ModPClass(X, p, to_old({l: 1})))
            assert got == [ModPClass(Y, p, to_new(s.coeffs)) for s in want]


def matmul(first, second):
    """The matrix of the map `second` after the map `first`, as rows of
    cell -> image vector."""
    out = {}
    for a, row in first.items():
        image = {}
        for b, s in row.items():
            for c, t in second.get(b, {}).items():
                image[c] = image.get(c, 0) + s * t
        out[a] = {c: v for c, v in image.items() if v}
    return out


def compose(f, g):
    """g after f: push matrices multiply and pull matrices multiply; its
    derived T_{g f} must be T_f + f^* T_g."""
    assert f.target is g.source
    h = Morphism("%s;%s" % (f.name, g.name), f.source, g.target,
                 matmul(f.push, g.push), matmul(g.pull, f.pull),
                 proper=f.proper and g.proper, lci=f.lci and g.lci,
                 flat=f.flat and g.flat)
    assert h.T_f == f.T_f + VirtualBundle(f.source, g.T_f.rank,
                                          f.pull_class(g.T_f.ch))
    return h


def nonzero_rows(matrix):
    return {a: row for a, row in matrix.items() if row}


@pytest.mark.parametrize("first, second, direct", [
    (("linear_in_quadric", {"j": 1, "d": 3}),
     ("quadric_in_projective", {"d": 3}),
     ("linear_embedding", {"m": 1, "n": 4})),
    (("linear_in_quadric", {"j": 2, "d": 5}),
     ("quadric_in_projective", {"d": 5}),
     ("linear_embedding", {"m": 2, "n": 6})),
    (("linear_embedding", {"m": 1, "n": 2}),
     ("linear_embedding", {"m": 2, "n": 4}),
     ("linear_embedding", {"m": 1, "n": 4})),
    (("pn_self_map", {"degree": 2}), ("pn_self_map", {"degree": 3}),
     ("pn_self_map", {"degree": 6})),
])
def test_composites_are_the_catalogue_entries(first, second, direct):
    # each binds the table's parameters by name: swapping m and n, or j
    # and d, breaks the chain
    h = compose(build_morphism(first[0], **first[1]),
                build_morphism(second[0], **second[1]))
    f = build_morphism(direct[0], **direct[1])
    assert (h.source, h.target) == (f.source, f.target)
    assert nonzero_rows(h.push) == nonzero_rows(f.push)
    assert nonzero_rows(h.pull) == nonzero_rows(f.pull)
    assert h.T_f == f.T_f


# the chains of two and of three catalogue morphisms, 83 and 229 of them;
# 49 of the triples go through a product projection
PAIRS = [(f, g) for f in MORPHISMS for g in MORPHISMS if f.target is g.source]
CHAINS = PAIRS + [(f, g, k) for (f, g) in PAIRS for k in MORPHISMS
                  if g.target is k.source]


def fresh_copy(h):
    """h on freshly built copies of its source and target, so nothing is
    cached on them; its T_f is derived from the copies' tangent data."""
    saved = varieties._VARIETY_CACHE
    varieties._VARIETY_CACHE = {}
    try:
        X, Y = (variety_from_spec(V.name) for V in (h.source, h.target))
    finally:
        varieties._VARIETY_CACHE = saved
    return Morphism(h.name, X, Y, h.push, h.pull, proper=h.proper,
                    lci=h.lci, flat=h.flat)


@st.composite
def chains_and_classes(draw):
    h = reduce(compose, draw(st.sampled_from(CHAINS)))
    if draw(st.booleans()):
        h = fresh_copy(h)
    p = draw(st.sampled_from([2, 3]))
    x, y = (ModPClass(V, p, draw(st.dictionaries(
                st.sampled_from(V.labels()), st.integers(1, p - 1))))
            for V in (h.source, h.target))
    return h, x, y


@settings(max_examples=60, deadline=None)
@given(chains_and_classes())
def test_composites_obey_naturality_and_wu(case):
    # S-bar commutes with the lci pullback, and the proper pushforward
    # needs the Wu twist w^{CH,p}(-T_h)
    h, x, y = case
    p = x.p

    def S(z):
        return steenrod_total(steenrod_cohomological(z, p))

    assert S(h.pull_class(y)) == h.pull_class(S(y))
    w = ModPClass.from_integral(w_chp(-h.T_f, p), p)
    assert S(h.push_class(x)) == h.push_class(w * S(x))


@st.composite
def chains_and_kclasses(draw):
    h = reduce(compose, draw(st.sampled_from(CHAINS)))
    if draw(st.booleans()):
        h = fresh_copy(h)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    x, y = (random_lattice_kclass(V, rng, V.dim)
            for V in (h.source, h.target))
    return h, x, y, draw(st.sampled_from([2, 3]))


@settings(max_examples=60, deadline=None)
@given(chains_and_kclasses())
def test_composites_obey_riemann_roch(case):
    # psi_p commutes with the proper pushforward, and with the lci pullback
    # up to the twist theta^p(-T_h)
    h, x, y, p = case
    assert h.proper and h.lci
    assert (adams_lower(kclass_pushforward(h, x), p).tau
            == h.push_class(adams_lower(x, p).tau))
    assert (adams_lower(kclass_pullback(h, y), p).tau
            == theta_p(-h.T_f, p) * kclass_pullback(h, adams_lower(y, p)).tau)


# -- the integer engine against a Fraction oracle -------------------------------

# denominators the engine meets: powers of p, factorials, and large primes
DENOMINATORS = [2 ** 9, 3 ** 5, 5 ** 4, factorial(7), factorial(9),
                1000003, 2 ** 61 - 1]
oracle_rationals = st.builds(
    lambda n, dens: Fraction(n, prod(dens)), st.integers(-10 ** 9, 10 ** 9),
    st.lists(st.sampled_from(DENOMINATORS), max_size=3))


def oracle_class(draw, X, positive=False):
    cells = [l for l in X.labels() if not positive or l != X.fundamental]
    return make_class(X, draw(st.dictionaries(st.sampled_from(cells),
                                              oracle_rationals, max_size=5)))


def oracle_mul(x, y, table=None):
    """x y through the pair-keyed structure constants a caller gives
    CellularVariety, by default the `pair_table` of x's variety, one
    Fraction at a time."""
    if table is None:
        table = pair_table(x.variety)
    out = {}
    for a, s in x.coeffs.items():
        for b, t in y.coeffs.items():
            for c, k in table.get((a, b), {}).items():
                out[c] = out.get(c, Fraction(0)) + Fraction(s) * t * k
    return out


def oracle_exp(x, table=None):
    """sum_k x^k / k!, by oracle_mul."""
    X = x.variety
    if table is None:
        table = pair_table(X)
    out, term = {}, {X.fundamental: Fraction(1)}
    for k in range(X.dim + 1):
        for l, v in term.items():
            out[l] = out.get(l, Fraction(0)) + v / factorial(k)
        term = oracle_mul(make_class(X, term), x, table)
    return out


def oracle_apply(matrix, x):
    out = {}
    for l, v in x.coeffs.items():
        for r, s in matrix.get(l, {}).items():
            out[r] = out.get(r, Fraction(0)) + Fraction(v) * s
    return out


def agrees(z, oracle):
    """z is the oracle's vector, stored normalized."""
    assert is_normalized(z), z.coeffs
    assert z.coeffs == {l: v for l, v in oracle.items() if v}


@st.composite
def oracle_cases(draw):
    X = draw(st.sampled_from(EXP_VARIETIES))
    f = draw(st.sampled_from(MORPHISMS))
    push = draw(st.booleans())
    return (oracle_class(draw, X), oracle_class(draw, X),
            oracle_class(draw, X, positive=True),
            f, push, oracle_class(draw, f.source if push else f.target))


@settings(max_examples=60, deadline=None)
@given(oracle_cases())
def test_integer_engine_matches_a_fraction_oracle(case):
    x, y, u, f, push, z = case
    X = x.variety
    agrees(x * y, oracle_mul(x, y))
    agrees(u.exp(), oracle_exp(u))
    agrees(apply_matrix(X.tau_columns, x, X), oracle_apply(X.tau_columns, x))
    for p in (2, 3, 5):
        A = adams_matrix(X, p)
        agrees(apply_matrix(A, x, X), oracle_apply(A, x))
    if push:
        agrees(f.push_class(z), oracle_apply(f.push, z))
    else:
        agrees(f.pull_class(z), oracle_apply(f.pull, z))


# every ring product runs one kernel on the rows of the table: on each
# builder shape, and on a caller's copy of P^1xP^2 whose pair-keyed table,
# the oracle's, is given to CellularVariety directly
_P1P2 = variety_from_spec("P^1xP^2")
P1P2_TABLE = pair_table(_P1P2)
KERNEL_VARIETIES = [(variety_from_spec(spec), None) for spec in SMALL_BUILDERS]
KERNEL_VARIETIES.append((CellularVariety(
    "raw P^1xP^2", _P1P2.dim, _P1P2.cells, P1P2_TABLE, _P1P2.degree_vector,
    _P1P2.tangent_ch, _P1P2.tau_columns), P1P2_TABLE))


@st.composite
def kernel_cases(draw):
    X, table = draw(st.sampled_from(KERNEL_VARIETIES))
    p = draw(st.sampled_from([2, 3, 5]))
    lifts = [make_class(X, draw(st.dictionaries(
        st.sampled_from(X.labels()), coefficients, max_size=5)))
        for _ in range(2)]
    u = oracle_class(draw, X, positive=True) if X.dim else X.zero()  # P^0
    return (table, oracle_class(draw, X), oracle_class(draw, X), u, p, *lifts)


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_products_and_exp_match_the_pair_table_oracle(case):
    table, x, y, u, p, a, b = case
    agrees(x * y, oracle_mul(x, y, table))
    agrees(u.exp(), oracle_exp(u, table))
    abar, bbar = (ModPClass.from_integral(z, p) for z in (a, b))
    assert (abar * bbar).num == {
        l: r for l, v in oracle_mul(a, b, table).items() if (r := v % p)}


# -- the stored form: integers over one denominator, in lowest terms ----------

def in_lowest_terms(z):
    """z stores nonzero ints over a den >= 1 that shares no factor with all
    of them."""
    return (type(z.den) is int and z.den >= 1
            and all(type(v) is int and v for v in z.num.values())
            and gcd(z.den, *z.num.values()) == 1)


def oracle_sum(*terms):
    """sum c x over the (c, x) terms, one Fraction at a time."""
    out = {}
    for c, x in terms:
        for l, v in x.coeffs.items():
            out[l] = out.get(l, Fraction(0)) + c * Fraction(v)
    return out


@st.composite
def stored_form_cases(draw):
    X = draw(st.sampled_from(VARIETIES))
    return (oracle_class(draw, X), oracle_class(draw, X),
            oracle_class(draw, X, positive=True), draw(st.integers(-5, 5)),
            draw(oracle_rationals), draw(st.integers(0, X.dim)))


@settings(max_examples=60, deadline=None)
@given(stored_form_cases())
def test_every_result_is_stored_in_lowest_terms(case):
    x, y, u, k, c, d = case
    X = x.variety
    results = [
        (x + y, oracle_sum((1, x), (1, y))),
        (x - y, oracle_sum((1, x), (-1, y))),
        (x * y, oracle_mul(x, y)),
        (x.scale(k), oracle_sum((k, x))),
        (x.scale(c), oracle_sum((c, x))),
        (u.exp(), oracle_exp(u)),
        (x.dim_component(d), {l: v for l, v in x.coeffs.items()
                              if X.cell_dim(l) == d}),
        (apply_matrix(X.tau_columns, x, X), oracle_apply(X.tau_columns, x)),
        (apply_matrix(tau_lattice(X).inverse, x, X), tau_coordinates(X, x)),
    ]
    for z, oracle in results:
        assert in_lowest_terms(z), (z.num, z.den)
        assert z.coeffs == {l: v for l, v in oracle.items() if v}
    # equal classes reached by different routes are equal and hash alike
    for a, b in [(x + y - y, x), (x.scale(Fraction(2, 4)),
                                  x.scale(Fraction(1, 2))),
                 (x * y, y * x), (x - x, X.zero()),
                 ((x + y).dim_component(d),
                  x.dim_component(d) + y.dim_component(d)),
                 (x.scale(c).scale(k), x.scale(c * k))]:
        assert a == b and hash(a) == hash(b)


@st.composite
def built_inputs(draw):
    """(X, num, den): den in 1..2^80 and num ints, zeros included, sharing
    a drawn factor g with den."""
    X = draw(st.sampled_from(VARIETIES))
    g = draw(st.integers(1, 2 ** 40))
    den = g * draw(st.one_of(st.just(1), st.integers(1, 2 ** 80 // g)))
    values = st.one_of(st.just(0), st.integers(-2 ** 60, 2 ** 60))
    return X, draw(st.dictionaries(st.sampled_from(X.labels()),
                                   values.map(lambda v: v * g))), den


@settings(max_examples=200, deadline=None)
@given(built_inputs())
def test_built_stores_the_fraction_oracle_in_lowest_terms(case):
    X, num, den = case
    z = _built(X, dict(num), den)
    assert in_lowest_terms(z), (z.num, z.den)
    assert z.coeffs == {l: Fraction(v, den) for l, v in num.items() if v}


def test_built_keeps_a_zero_free_num_over_den_1():
    X = VARIETIES[0]
    num = {"h^1": 3, "h^2": -2}
    assert _built(X, num).num is num


@pytest.mark.parametrize("X", [X for X, _ in KERNEL_VARIETIES],
                         ids=lambda X: X.name)
def test_library_made_classes_equal_the_checked_ones(X):
    # unit, zero and basis_class are built as trusted data, after
    # resolve_label: the same classes the checked constructor makes
    assert X.zero() == ChowClass(X, {})
    assert X.unit() == ChowClass(X, {X.fundamental: 1})
    assert X.basis_class("1") == ChowClass(X, {X.fundamental: 1})
    for l in X.labels():
        assert X.basis_class(l) == ChowClass(X, {l: 1})
    with pytest.raises(UnknownLabel) as info:
        X.basis_class("nope")
    assert str(info.value) == "variety %s has no cell 'nope'" % X.name
