"""Builders and the morphism catalog, cross-checked against sympy series."""
import json
import sys
import time
from fractions import Fraction

import pytest

import oracles
from chowops import (
    build_morphism,
    degree,
    external_product,
    hyperplane_class,
    line_bundle,
    make_class,
    morphism_from_spec,
    odd_quadric,
    product,
    projective_space,
    pullback,
    pushforward,
    registered_morphisms,
    variety_from_spec,
)
from chowops import char_classes as C
from chowops import core
from chowops import morphisms as M
from chowops import series as S
from chowops import varieties as V
from chowops.char_classes import todd_class
from chowops.cli import main
from chowops.core import (
    CellularVariety,
    ChowClass,
    Matrix,
    ModPClass,
    kron,
    kunneth,
)
from chowops.errors import (
    EvenDimensionUnsupported,
    FlagViolation,
    IncompatibleDimensions,
    InvalidVariety,
    UnknownKind,
    VarietyMismatch,
)
from chowops.steenrod import steenrod_operation
from chowops.morphisms import Morphism
from chowops.varieties import BuiltVariety
from test_ktheory import SMALL_BUILDERS


# -- projective spaces -------------------------------------------------------

def test_p1_tau_is_one_plus_h():
    P1 = projective_space(1)
    assert P1.tau_class("h^0") == make_class(P1, {"h^0": 1, "h^1": 1})


def test_p2_data_matches_worked_values():
    P2 = projective_space(2)
    assert P2.tau_class("h^1") == make_class(P2, {"h^1": 1, "h^2": 1})
    assert P2.tangent_chern_character() == make_class(
        P2, {"h^0": 2, "h^1": 3, "h^2": Fraction(3, 2)})


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pn_tau_columns_against_sympy(n):
    X = projective_space(n)
    for j in range(n + 1):
        expected = oracles.h_powers_on_pn(X, oracles.pn_tau_column(n, j))
        assert X.tau_class("h^%d" % j) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_pn_tangent_against_sympy(n):
    X = projective_space(n)
    assert X.tangent_chern_character() == \
        oracles.h_powers_on_pn(X, oracles.pn_tangent(n))


def test_pn_cell_structure():
    X = projective_space(3)
    assert X.cells == [("h^0", 3), ("h^1", 2), ("h^2", 1), ("h^3", 0)]
    assert X.fundamental == "h^0"
    assert X.degree_vector == {"h^3": 1}


# -- odd quadrics -------------------------------------------------------------

def test_quadric_rejects_even_dimension():
    with pytest.raises(EvenDimensionUnsupported):
        odd_quadric(4)


def test_q3_basis_and_degrees():
    Q3 = odd_quadric(3)
    assert Q3.cells == [("h^0", 3), ("h^1", 2), ("l_1", 1), ("l_0", 0)]
    assert degree(make_class(Q3, {"l_0": 1})) == 1
    assert Q3.tangent_ch["h^0"] == 3  # rank equals dimension


def test_q3_tau_of_embedded_line():
    Q3 = odd_quadric(3)
    assert Q3.tau_class("l_1") == make_class(Q3, {"l_1": 1, "l_0": 1})


@pytest.mark.parametrize("d", [1, 3, 5, 7])
def test_quadric_h_columns_against_sympy(d):
    X = odd_quadric(d)
    m = (d - 1) // 2
    for i in range(m + 1):
        expected = oracles.h_powers_on_quadric(
            X, oracles.quadric_tau_column_h(d, i))
        assert X.tau_class("h^%d" % i) == expected


@pytest.mark.parametrize("d", [1, 3, 5, 7])
def test_quadric_tangent_against_sympy(d):
    X = odd_quadric(d)
    assert X.tangent_chern_character() == \
        oracles.h_powers_on_quadric(X, oracles.quadric_tangent(d))


def test_quadric_l_columns_push_todd_from_linear_subspace():
    # Riemann-Roch, tau[O_Z] = i_* Todd(T_Z): a column is the pushforward of
    # the fundamental column of its closure, through the catalogue's maps
    for d in (3, 5, 7):
        Q = odd_quadric(d)
        for j in range((d + 1) // 2):
            f = build_morphism("linear_in_quadric", j=j, d=d)
            todd_pj = projective_space(j).tau_class("h^0")
            assert Q.tau_class("l_%d" % j) == f.push_class(todd_pj), (d, j)
    for n in range(1, 7):
        P = projective_space(n)
        for i in range(n + 1):
            f = build_morphism("linear_embedding", m=n - i, n=n)
            todd_z = projective_space(n - i).tau_class("h^0")
            assert P.tau_class("h^%d" % i) == f.push_class(todd_z), (n, i)
    # and the fundamental column is tau[O_X] = Todd(T_X)
    for spec in SMALL_BUILDERS:
        X = variety_from_spec(spec)
        assert X.tau_class(X.fundamental) == todd_class(X), spec


# -- tau columns against series powers ----------------------------------------

def scratch_pn_tau(n):
    """The P^n tau columns td^{n-j+1}, each power computed from scratch."""
    td = S.todd_series(n)
    tau = {}
    for j in range(n + 1):
        col = oracles.spow(td, n - j + 1, n)
        tau["h^%d" % j] = {"h^%d" % (j + k): col[k]
                           for k in range(n - j + 1) if col[k]}
    return tau


def scratch_quadric_tau(d):
    """The Q_d tau columns, each power computed from scratch."""
    m = (d - 1) // 2
    td = S.todd_series(d)
    td2 = [td[k] * 2 ** k for k in range(d + 1)]
    todd_q = S.smul(oracles.spow(td, d + 2, d), S.sinv(td2, d), d)
    one_minus = oracles.sadd(S.series([1], d),
                             S.sscale(-1, oracles.exp_t(-1, d), d), d)
    tau = {}
    for i in range(m + 1):
        col = {}
        power = oracles.spow(one_minus, i, d)
        for k, c in enumerate(S.smul(todd_q, power, d)):
            for label, mult in V._quadric_h_power(d, k).items():
                col[label] = col.get(label, 0) + c * mult
        tau["h^%d" % i] = {l: v for l, v in col.items() if v}
    for j in range(m + 1):
        tdj = oracles.spow(S.todd_series(j), j + 1, j)
        tau["l_%d" % j] = {"l_%d" % (j - k): c for k, c in enumerate(tdj) if c}
    return tau


@pytest.mark.parametrize("n", range(14))
def test_pn_tau_columns_equal_powers_from_scratch(n):
    assert projective_space(n).tau_columns == scratch_pn_tau(n)


@pytest.mark.parametrize("d", range(1, 14, 2))
def test_quadric_tau_columns_equal_powers_from_scratch(d):
    assert odd_quadric(d).tau_columns == scratch_quadric_tau(d)


@pytest.mark.parametrize("spec, oracle", [
    *(("P^%d" % n, lambda n=n: oracles.pn_tau_running(n)) for n in range(41)),
    *(("Q_%d" % d, lambda d=d: oracles.quadric_tau_running(d))
      for d in range(1, 16, 2))])
def test_integer_tau_columns_equal_the_fraction_running_products(
        monkeypatch, spec, oracle):
    # the builders run their products on integers over one denominator and
    # hand the constructor a Matrix; entry by entry it is the Fraction
    # running product, over the same lcm
    monkeypatch.setattr(V, "_VARIETY_CACHE", {})
    X = variety_from_spec(spec)
    assert isinstance(X._tau_source(), Matrix)
    tau, want = X.tau_columns, oracle()
    assert set(tau) == set(want)
    for c, col in want.items():
        assert tau[c] == col, (spec, c)
    expected = Matrix.of(want)
    assert (tau.ints, tau.den) == (expected.ints, expected.den)


def count_products(monkeypatch):
    """The ring products (`ChowClass.__mul__`) made from an empty builder
    cache on."""
    monkeypatch.setattr(V, "_VARIETY_CACHE", {})
    calls = []
    mul = ChowClass.__mul__

    def counting(a, b):
        calls.append(a.variety.name)
        return mul(a, b)

    monkeypatch.setattr(ChowClass, "__mul__", counting)
    return calls


def ring_running_tau(X):
    """The tau columns of P^n or Q_d by running products in the Chow ring, as
    the builders made them before the per-cell rule: h^i is Todd(T_X)
    (1 - ch O(-1))^i, one product per hyperplane section, and l_i of Q_d is
    l_i Todd(O(1))^{i+1}, one product for the cell and one per power."""
    quadric = X.builder == "odd_quadric"
    m = (X.dim - 1) // 2 if quadric else X.dim
    col = todd_class(X)
    step = X.unit() - line_bundle(X, -1).ch
    columns = {}
    for i in range(m + 1):
        if i:
            col = col * step
        columns["h^%d" % i] = col
    if quadric:
        td = col = C.line_sum_class(X, "todd", ((1, 1),))
        for i in range(m + 1):
            if i:
                col = col * td
            columns["l_%d" % i] = X.basis_class("l_%d" % i) * col
    return columns


def fresh_tau_counts(monkeypatch, build):
    """Read the tau columns of build() from an empty builder cache on: the
    ring products and exponentials (`_exp`, patched in `core` and in
    `char_classes`) that read makes, the cells it hands `line_sum_class`,
    and the ring products `ring_running_tau` makes for the same columns,
    which are checked to agree with the read."""
    calls = count_products(monkeypatch)
    exps, cells = [], []
    for module in (core, C):
        monkeypatch.setattr(module, "_exp", lambda *a, exp=module._exp:
                            exps.append(a) or exp(*a))
    monkeypatch.setattr(V, "line_sum_class", lambda *a, f=V.line_sum_class,
                        **kw: cells.append(kw.get("cell")) or f(*a, **kw))
    X = build()
    X.tau_columns
    fresh = calls + exps
    calls, exps = count_products(monkeypatch), []
    want = ring_running_tau(X)
    for c in X.labels():
        assert X.tau_class(c) == want[c], (X.name, c)
    return fresh, cells, len(calls)


# the column of a cell Z is [Z] Todd(T_Z), one integer product: the series of
# the Euler sequence of Z's closure put on the cell, so a fresh read makes no
# ring product and no exponential (no line bundle either); `products` is the
# count of ring products the running-product construction takes instead

@pytest.mark.parametrize("spec, products", [
    ("P^0", 0), ("P^12", 12), ("P^24", 24), ("P^40", 40),
    ("Q_13", 6 + 7 + 6)])
def test_fresh_tau_columns_make_one_integer_product_per_column(
        monkeypatch, spec, products):
    fresh, cells, running = fresh_tau_counts(
        monkeypatch, lambda: variety_from_spec(spec))
    assert fresh == []
    assert sorted(cells) == sorted(variety_from_spec(spec).labels())
    assert running == products


@pytest.mark.parametrize("n", [12])
def test_fresh_projective_space_makes_one_product_per_column(monkeypatch, n):
    # the same through the builder itself rather than a spec
    fresh, cells, running = fresh_tau_counts(
        monkeypatch, lambda: projective_space(n))
    assert fresh == []
    assert cells == ["h^%d" % i for i in range(n + 1)]
    assert running == n


@pytest.mark.parametrize("d", [1, 13, 25])
def test_fresh_quadric_makes_linearly_many_products(monkeypatch, d):
    # d + 1 columns, one integer product each, against linearly many ring
    # products by running products
    fresh, cells, running = fresh_tau_counts(
        monkeypatch, lambda: odd_quadric(d))
    assert fresh == []
    assert len(cells) == len(set(cells)) == d + 1
    assert 0 < running <= 2 * d


def test_fresh_pn_build_makes_no_series_product(monkeypatch):
    # the tau columns are built on first read, and the build reads neither
    # them nor the Todd class they start from
    monkeypatch.setattr(V, "_VARIETY_CACHE", {})
    X = variety_from_spec("P^40")
    assert "tau_columns" not in X.__dict__ and "todd" not in X._cache


@pytest.mark.parametrize("spec", ["P^12", "P^2xP^3"])
def test_operations_on_fresh_builds_never_read_tau(monkeypatch, spec):
    # psi_p on P^n and on products comes from the closed form and its
    # Kronecker products, so no operation reads the tau columns or Todd(T_X)
    monkeypatch.setattr(V, "_VARIETY_CACHE", {})
    X = variety_from_spec(spec)
    for p in (2, 3, 5):
        for label in X.labels():
            for convention in ("hom", "coh"):
                steenrod_operation(ModPClass(X, p, {label: 1}), p,
                                   convention=convention)
    built = [X, *getattr(X, "_factors", ())]
    assert all("tau_columns" not in Y.__dict__ and "todd" not in Y._cache
               for Y in built)


# -- products ------------------------------------------------------------------

def test_p1xp1_kunneth_basis():
    XY = product(projective_space(1), projective_space(1))
    assert sorted(XY.labels()) == ["h^0*h^0", "h^0*h^1", "h^1*h^0", "h^1*h^1"]
    assert XY.dim == 2
    assert XY.fundamental == "h^0*h^0"


def test_external_product_of_basis_cells():
    P1 = projective_space(1)
    h = make_class(P1, {"h^1": 1})
    one = P1.unit()
    assert external_product(h, one).coeffs == {"h^1*h^0": 1}


def test_external_product_builds_trusted_data_and_checks_mixed_factors():
    P1, Q3 = projective_space(1), odd_quadric(3)
    x = make_class(P1, {"h^0": Fraction(2, 3), "h^1": 5})
    y = make_class(Q3, {"h^1": Fraction(3, 4), "l_1": -2})
    xy = external_product(x, y)
    assert xy == make_class(xy.variety, kron(x.coeffs, y.coeffs))
    assert (xy.num, xy.den) == ({"h^0*h^1": 6, "h^0*l_1": -16,
                                 "h^1*h^1": 45, "h^1*l_1": -120}, 12)
    xb = ModPClass(P1, 3, {"h^0": 2, "h^1": 1})
    yb = ModPClass(Q3, 3, {"h^1": 2})
    assert external_product(xb, yb) == ModPClass(
        xy.variety, 3, {"h^0*h^1": 1, "h^1*h^1": 2})
    # a rational factor paired with a mod-p one is checked and reduced
    z = make_class(Q3, {"h^1": 7, "l_1": 3})
    assert external_product(xb, z) == ModPClass(
        xy.variety, 3, {"h^0*h^1": 14, "h^1*h^1": 7})
    assert external_product(z, xb) == ModPClass(
        external_product(z, xb).variety, 3, {"h^1*h^0": 14, "h^1*h^1": 7})
    with pytest.raises(TypeError):
        external_product(xb, y)
    with pytest.raises(TypeError):
        external_product(x, yb)
    with pytest.raises(VarietyMismatch):
        external_product(xb, ModPClass(Q3, 5, {"h^1": 1}))


def test_tau_of_point_times_line():
    P1 = projective_space(1)
    XY = product(P1, P1)
    got = XY.tau_class("h^1*h^0")
    assert got == make_class(XY, {"h^1*h^0": 1, "h^1*h^1": 1})


def test_degree_kunneth_for_points():
    P1, P2_ = projective_space(1), projective_space(2)
    x = make_class(P1, {"h^1": 2})
    y = make_class(P2_, {"h^2": 3})
    assert degree(external_product(x, y)) == 6


def test_triple_product_folds():
    X = variety_from_spec({"type": "product", "factors": [
        {"type": "projective_space", "n": 1},
        {"type": "projective_space", "n": 1},
        {"type": "projective_space", "n": 1}]})
    assert X.dim == 3
    assert len(X.cells) == 8


@pytest.mark.parametrize(
    "spec", ["P^2xQ_3", "P^1xP^1xP^2", "P^2xP^2xP^2"]
    + ["P^%d" % n for n in range(14)] + ["Q_%d" % d for d in range(1, 14, 2)])
def test_products_pass_the_full_associativity_check(spec):
    # built varieties skip the check at construction; run the one raw
    # tables get
    X = variety_from_spec(spec)
    assert isinstance(X, BuiltVariety)
    CellularVariety._check_associativity(X)


@pytest.mark.parametrize("spec", ["P^1xQ_3", "P^2xP^2"])
def test_product_tau_columns_are_the_kronecker_products(monkeypatch, spec):
    monkeypatch.setattr(V, "_VARIETY_CACHE", {})
    X = variety_from_spec(spec)
    A, B = X._factors
    assert X.tau_columns == {kunneth(a, b): kron(u, v)
                             for a, u in A.tau_columns.items()
                             for b, v in B.tau_columns.items()}


def test_fresh_product_runs_no_associativity_check(monkeypatch):
    monkeypatch.setattr(V, "_VARIETY_CACHE", {})
    P1, P2, Q3 = projective_space(1), projective_space(2), odd_quadric(3)
    calls = []
    check = CellularVariety._check_associativity

    def counting(self):
        calls.append(self.name)
        return check(self)

    monkeypatch.setattr(CellularVariety, "_check_associativity", counting)
    XY = product(product(P1, P1), product(P2, Q3))
    assert XY.name == "P^1xP^1xP^2xQ_3" and len(XY.cells) == 48
    assert projective_space(12).dim == 12 and odd_quadric(13).dim == 13
    assert calls == []
    # the spy sees the check a table given directly gets
    raw_copy(XY)
    assert calls == [XY.name]


# -- size caps -----------------------------------------------------------------

def refuse_to_build(monkeypatch):
    def refuse(*args):
        raise AssertionError("a capped spec reached a builder")

    for builder in ("projective_space", "odd_quadric", "product"):
        monkeypatch.setattr(V, builder, refuse)


def test_parsed_spec_counts_cells(monkeypatch):
    refuse_to_build(monkeypatch)
    for spec, dim, cells in [
            ("P^40", 40, 41), ("Q_15", 15, 16), ("P^4xP^4", 8, 25),
            ("x".join(["P^1"] * 8), 8, 256), ("P^1xQ_3xP^1", 5, 16),
            ({"type": "product", "factors": [
                "P^2", {"type": "odd_quadric", "dim": 5}]}, 7, 18)]:
        assert V._parse_spec(spec)[:2] == (dim, cells), spec


def test_cell_cap_is_checked_before_building(monkeypatch):
    # (P^1)^20 is within a dimension cap of 40 and has 2^20 cells
    refuse_to_build(monkeypatch)
    wide = "x".join(["P^1"] * 20)
    for spec in (wide, "x".join(["P^1"] * 9), "P^256", "Q_257",
                 {"type": "product", "factors": ["P^15", "P^16"]}):
        with pytest.raises(ValueError, match="cell cap 256"):
            variety_from_spec(spec, max_dim=1000)
    monkeypatch.setenv("STEENROD_MAX_DIM", "40")
    assert main(["describe", "--variety", wide]) == 2


def test_factor_cap_counts_nested_products_before_building(monkeypatch):
    # a nested product counts by its factors, and one nested 5000 deep is
    # refused within eight levels, before the stack runs out
    refuse_to_build(monkeypatch)

    def nest(*factors):
        return {"type": "product", "factors": list(factors)}

    deep = "P^1"
    for _ in range(5000):
        deep = nest(deep, "P^0")
    for spec in ("x".join(["P^0"] * 8 + ["P^1"]), nest(*["P^0"] * 9), deep,
                 nest("P^0xP^0xP^0xP^0", nest("P^0", "P^0", "P^0", "P^0xP^1")),
                 nest(nest(nest("P^1", "P^0"), "P^0xP^0"), "P^0x" * 4 + "P^1")):
        with pytest.raises(ValueError, match="factor cap 8"):
            variety_from_spec(spec, max_dim=1000)
    for spec in ("x".join(["P^0"] * 7 + ["P^1"]),
                 nest("P^0xP^0xP^0xP^0", nest("P^0", "P^0", "P^0xP^1")),
                 nest(nest(nest("P^1", "P^0"), "P^0xP^0"), "P^0x" * 3 + "P^1")):
        assert V._parse_spec(spec)[3] == 8


def test_a_wide_product_is_refused_before_its_factors_are_parsed(monkeypatch):
    # more than MAX_CELLS factors fail a cap whatever they are, so no leaf
    # is parsed; (P^1)^9 still meets the cell cap first
    parsed = []
    builder_spec = V._builder_spec

    def recording(builder, n):
        parsed.append(n)
        return builder_spec(builder, n)

    monkeypatch.setattr(V, "_builder_spec", recording)
    wide = ["P^0"] * 30000 + ["P^1"]
    for spec in ("x".join(wide), {"type": "product", "factors": wide},
                 "x".join(["P^1"] * 257), "x".join(["P^0"] * 300 + ["foo"])):
        with pytest.raises(ValueError, match="^variety exceeds the factor cap "
                                             "8$"):
            variety_from_spec(spec, max_dim=1000)
    assert parsed == []
    with pytest.raises(ValueError, match="^variety exceeds the cell cap 256$"):
        variety_from_spec("x".join(["P^1"] * 9), max_dim=1000)
    assert len(parsed) == 9


# -- morphism catalog ----------------------------------------------------------

def test_linear_embedding_matrices():
    f = build_morphism("linear_embedding", m=1, n=2)
    P1, P2 = f.source, f.target
    assert pushforward(f, make_class(P1, {"h^1": 1})) == \
        make_class(P2, {"h^2": 1})
    assert pushforward(f, P1.unit()) == make_class(P2, {"h^1": 1})
    assert pullback(f, make_class(P2, {"h^1": 1})) == make_class(P1, {"h^1": 1})


def test_veronese_pull_and_push():
    f = build_morphism("veronese", n=1, deg=2)
    assert f.target.name == "P^2"
    P1 = f.source
    assert pullback(f, make_class(f.target, {"h^1": 1})) == \
        make_class(P1, {"h^1": 2})
    f3 = build_morphism("veronese", n=1, deg=3)
    assert pullback(f3, make_class(f3.target, {"h^1": 1})) == \
        make_class(P1, {"h^1": 3})
    # the quadratic Veronese surface has degree 4
    v2 = build_morphism("veronese", n=2, deg=2)
    assert v2.target.name == "P^5"
    assert pushforward(v2, v2.source.unit()).coeffs == {"h^3": 4}


def test_quadric_embedding_push():
    f = build_morphism("quadric_in_projective", d=3)
    Q3, P4 = f.source, f.target
    assert pushforward(f, make_class(Q3, {"h^1": 1})) == \
        make_class(P4, {"h^2": 2})
    assert pushforward(f, make_class(Q3, {"l_1": 1})) == \
        make_class(P4, {"h^3": 1})
    assert pullback(f, make_class(P4, {"h^3": 1})) == \
        make_class(Q3, {"l_0": 2})


def test_self_map_of_p1():
    f = build_morphism("pn_self_map", degree=3)
    P1 = f.source
    assert pullback(f, make_class(P1, {"h^1": 1})) == make_class(P1, {"h^1": 3})
    assert pushforward(f, P1.unit()) == P1.unit().scale(3)
    assert pushforward(f, make_class(P1, {"h^1": 1})) == \
        make_class(P1, {"h^1": 1})
    assert f.map_degree() == 3


def test_product_projection():
    P1, P2 = projective_space(1), projective_space(2)
    f = build_morphism("product_projection", factors=(P1, P2), onto=0)
    XY = f.source
    assert f.target is P1
    assert pullback(f, make_class(P1, {"h^1": 1})).coeffs == {"h^1*h^0": 1}
    # only classes with zero-dimensional second factor survive
    assert pushforward(f, make_class(XY, {"h^1*h^2": 1})).coeffs == {"h^1": 1}
    assert pushforward(f, make_class(XY, {"h^1*h^1": 1})).is_zero()


def test_pushforward_preserves_point_degree():
    from chowops.verify import standard_morphisms
    for f in standard_morphisms():
        for label in f.source.points:
            pt = f.source.basis_class(label)
            assert degree(pushforward(f, pt)) == degree(pt)


def test_morphism_t_f_ranks():
    f = build_morphism("linear_embedding", m=1, n=3)
    assert f.T_f.rank == -2
    g = build_morphism("quadric_in_projective", d=3)
    assert g.T_f.rank == -1
    h = build_morphism("pn_self_map", degree=2)
    assert h.T_f.rank == 0
    assert h.T_f.ch == make_class(h.source, {"h^1": -2})


def test_derived_t_f_is_the_hand_formula_of_each_kind():
    from chowops.verify import standard_morphisms
    P1xQ3, Q3xP2 = variety_from_spec("P^1xQ_3"), variety_from_spec("Q_3xP^2")
    morphisms = standard_morphisms() + [
        build_morphism("veronese", n=1, deg=3),
        build_morphism("linear_in_quadric", j=0, d=7),
        build_morphism("linear_in_quadric", j=3, d=7),
        *(build_morphism("product_projection", factors=XY._factors, onto=i)
          for XY in (P1xQ3, Q3xP2) for i in (0, 1))]
    catalogue = {id(f): key for key, f in M._MORPHISM_CACHE.items()}
    kinds = set()
    for f in morphisms:
        kind, args = catalogue[id(f)]
        kinds.add(kind)
        assert f.T_f == oracles.catalogue_relative_tangent(f, kind, args), \
            f.name
        assert f.T_f.rank == f.source.dim - f.target.dim
    assert kinds == set(M._KINDS)


def test_unknown_kind_and_bad_params():
    with pytest.raises(UnknownKind):
        build_morphism("blowup", center=0)
    with pytest.raises(IncompatibleDimensions):
        build_morphism("linear_in_quadric", j=2, d=3)
    with pytest.raises(IncompatibleDimensions):
        build_morphism("linear_embedding", m=3, n=1)


def test_flag_violations():
    f = build_morphism("linear_embedding", m=1, n=2)
    fake = Morphism("fake", f.source, f.target, f.push, f.pull,
                    proper=False, lci=False, flat=False)
    with pytest.raises(FlagViolation):
        pushforward(fake, f.source.unit())
    with pytest.raises(FlagViolation):
        pullback(fake, f.target.unit())


def test_push_pull_variety_checks():
    f = build_morphism("linear_embedding", m=1, n=2)
    with pytest.raises(VarietyMismatch):
        pushforward(f, projective_space(3).unit())


def test_morphisms_apply_to_modp_classes():
    f = build_morphism("quadric_in_projective", d=3)
    xbar = ModPClass(f.source, 2, {"h^1": 1})
    assert f.push_class(xbar) == ModPClass(f.target, 2, {})  # 2 h^2 = 0 mod 2
    ybar = ModPClass(f.target, 2, {"h^1": 1})
    assert f.pull_class(ybar) == ModPClass(f.source, 2, {"h^1": 1})


def test_identity_via_degenerate_catalog_entries():
    ident = build_morphism("linear_embedding", m=2, n=2)
    P2 = ident.source
    x = make_class(P2, {"h^1": 5})
    assert pushforward(ident, x) == x
    assert pullback(ident, x) == x
    assert ident.T_f.rank == 0 and ident.T_f.ch == P2.zero()


def test_line_bundle_and_hyperplane():
    Q3 = odd_quadric(3)
    o2 = line_bundle(Q3, 2)
    assert o2.rank == 1
    assert o2.ch.coeffs["h^1"] == 2
    assert hyperplane_class(odd_quadric(1)).coeffs == {"l_0": 2}


def test_line_bundles_are_built_once_per_variety(monkeypatch):
    # O(i) is cached on X: a second read runs no exponential and returns
    # the same bundle; the twist is still checked on every call
    monkeypatch.setattr(V, "_VARIETY_CACHE", {})
    X = V.projective_space(5)
    calls = []
    exp = core._exp
    monkeypatch.setattr(core, "_exp", lambda *a: calls.append(a) or exp(*a))
    bundles = [line_bundle(X, i) for i in range(-3, 4)]
    assert len(calls) == 7
    assert all(line_bundle(X, i) is bundle
               for i, bundle in zip(range(-3, 4), bundles))
    assert line_bundle(X, Fraction(2)) is bundles[5]
    assert len(calls) == 7
    for i, bundle in zip(range(-3, 4), bundles):
        assert bundle.ch == hyperplane_class(X).scale(i).exp()
    for bad in (True, 1.0, "1", Fraction(1, 2)):
        with pytest.raises(TypeError):
            line_bundle(X, bad)


def test_variety_from_spec_shorthand_and_json():
    assert variety_from_spec("P^3").name == "P^3"
    assert variety_from_spec("Q_5").name == "Q_5"
    assert variety_from_spec("P^1xP^2").name == "P^1xP^2"
    assert variety_from_spec({"type": "odd_quadric", "dim": 3}).name == "Q_3"
    with pytest.raises(ValueError):
        variety_from_spec({"type": "grassmannian", "k": 2, "n": 4})
    with pytest.raises(ValueError):
        variety_from_spec("P^7", max_dim=5)


def test_morphism_from_spec():
    f = morphism_from_spec({"kind": "veronese", "n": 1, "deg": 2})
    assert f.source.name == "P^1" and f.target.name == "P^2"
    g = morphism_from_spec({"kind": "pn_self_map", "degree": 5})
    assert g.map_degree() == 5


def test_builders_are_interned():
    assert projective_space(2) is projective_space(2)
    assert odd_quadric(3) is odd_quadric(3)
    P1 = projective_space(1)
    assert product(P1, P1) is product(P1, P1)


def test_projection_from_json_spec():
    f = morphism_from_spec({
        "kind": "product_projection",
        "factors": [{"type": "projective_space", "n": 1},
                    {"type": "projective_space", "n": 2}],
        "onto": 1})
    assert f.source.name == "P^1xP^2" and f.target.name == "P^2"
    assert f is morphism_from_spec({
        "kind": "product_projection",
        "factors": ["P^1", "P^2"], "onto": 1})


def test_registry_is_append_only():
    from chowops import registered_morphisms
    before = registered_morphisms()
    f = build_morphism("pn_self_map", degree=7)
    after = registered_morphisms()
    assert len(after) == len(before) + 1 and after[-1] is f
    assert build_morphism("pn_self_map", degree=7) is f
    assert len(registered_morphisms()) == len(after)


def test_one_map_is_one_morphism():
    # onto defaults to 0, so leaving it out names the same map
    P1, P2 = projective_space(1), projective_space(2)
    f = build_morphism("product_projection", factors=(P1, P2))
    assert build_morphism("product_projection", factors=(P1, P2), onto=0) is f
    assert build_morphism("product_projection", factors=["P^1", "P^2"]) is f
    assert [g for g in registered_morphisms() if g.name == f.name] == [f]


def raw_copy(X):
    """X as a table given to CellularVariety directly, under X's name."""
    return CellularVariety(X.name, X.dim, X.cells, oracles.pair_table(X),
                           X.degree_vector, X.tangent_ch, X.tau_columns)


def test_products_and_projections_are_interned_on_objects():
    P1, P2 = projective_space(1), projective_space(2)
    raw = raw_copy(P1)
    assert product(raw, P2) is product(raw, P2)
    assert product(raw, P2) is not product(P1, P2)
    f = build_morphism("product_projection", factors=(raw, P2))
    assert f.source is product(raw, P2) and f.target is raw
    g = build_morphism("product_projection", factors=(P1, P2))
    assert g is not f and g.source is product(P1, P2)


MALFORMED_MORPHISM_SPECS = [
    {"kind": "veronese", "n": 1, "deg": 2, "note": "x"},  # unknown parameter
    {"kind": "veronese", "n": 1},                         # missing parameter
    {"kind": "linear_embedding", "m": 1.5, "n": 2},       # a float size
    {"kind": "veronese", "n": 1, "deg": True},            # a bool size
    {"kind": "pn_self_map", "degree": "2"},               # a string size
    {"kind": "product_projection", "factors": "P^1xP^2"},  # not a list
]


@pytest.mark.parametrize("spec", MALFORMED_MORPHISM_SPECS)
def test_malformed_morphism_specs_name_the_kind(spec):
    before = registered_morphisms()
    with pytest.raises(ValueError, match=r"^%s takes exactly " % spec["kind"]):
        morphism_from_spec(spec)
    assert registered_morphisms() == before


def test_a_morphism_spec_must_be_an_object():
    for spec in ([1], "veronese", None):
        with pytest.raises(ValueError, match="must be a JSON object"):
            morphism_from_spec(spec)
    with pytest.raises(UnknownKind):
        morphism_from_spec({"kind": ["veronese"]})


def build_only_small(monkeypatch):
    """Let the builders make P^n and Q_d with n, d <= 17 and nothing else."""
    for name in ("projective_space", "odd_quadric", "product"):
        builder = getattr(V, name)

        def spy(*args, name=name, builder=builder):
            if name == "product" or args[0] > 17:
                raise AssertionError("%s%r reached its builder" % (name, args))
            return builder(*args)

        monkeypatch.setattr(V, name, spy)


@pytest.mark.parametrize("kind, params", [
    ("veronese", {"n": 8, "deg": 8}),        # P^12869: 12870 cells
    ("linear_embedding", {"m": 1, "n": 300}),
    ("quadric_in_projective", {"d": 301}),
    ("linear_in_quadric", {"j": 1, "d": 301}),
    ("product_projection", {"factors": ["P^15", "P^16"]}),
])
def test_catalogue_varieties_are_capped_before_building(monkeypatch, kind,
                                                        params):
    build_only_small(monkeypatch)
    with pytest.raises(ValueError, match="cell cap 256"):
        build_morphism(kind, **params)


@pytest.mark.parametrize("kind, params", [
    ("veronese", {"n": 2, "deg": 10 ** 3000}),
    ("veronese", {"n": 10 ** 3000, "deg": 1}),
    ("linear_embedding", {"m": 1, "n": 10 ** 3000}),
    ("quadric_in_projective", {"d": 10 ** 3000 + 1}),
    ("linear_in_quadric", {"j": 1, "d": 10 ** 3000 + 1}),
])
def test_sizes_too_long_to_print_hit_the_cap(kind, params):
    # the cap is checked before a size is formatted, and its message prints
    # no size: a 3000-digit int is past the int-to-str conversion limit
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^variety exceeds the cell cap 256$"):
        build_morphism(kind, **params)
    with pytest.raises(ValueError, match="^variety exceeds the dimension cap 8$"):
        variety_from_spec({"type": "projective_space", "n": 10 ** 3000},
                          max_dim=8)
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("kind, params, name", [
    ("veronese", {"n": 2, "deg": 10 ** 5000, "note": 1}, "deg"),
    ("pn_self_map", {"degree": 10 ** 5000}, "degree"),
    ("linear_embedding", {"m": -10 ** 5000, "n": 2}, "m"),
])
def test_sizes_past_the_print_limit_are_refused_by_name(monkeypatch, kind,
                                                        params, name):
    # refused by the parameter rule before any builder runs, with a message
    # that formats no size
    refuse_to_build(monkeypatch)
    monkeypatch.setitem(M._KINDS, kind, (None, M._KINDS[kind][1]))
    before = registered_morphisms()
    with pytest.raises(ValueError,
                       match="^%s parameter %s is too long to print$"
                       % (kind, name)):
        build_morphism(kind, **params)
    assert registered_morphisms() == before
    huge = {"type": "odd_quadric", "dim": 10 ** 5000}
    for spec in (huge, {"type": "product", "factors": ["P^1", huge]}):
        with pytest.raises(ValueError, match="^odd_quadric parameter dim is "
                                             "too long to print$"):
            variety_from_spec(spec)


def test_the_print_rule_follows_a_changed_limit():
    # the bound is computed once per limit, and the limit can change while
    # the process runs: a size of exactly limit digits passes the rule (and
    # fails later, on the cap or in the builder), one of limit + 1 digits is
    # refused by it
    old = sys.get_int_max_str_digits()
    try:
        for limit in (700, 640, 700):
            sys.set_int_max_str_digits(limit)
            for sign, later in ((1, "^variety exceeds the dimension cap 8$"),
                                (-1, "^quadric dimension must be >= 1$")):
                for size, message in (
                        (10 ** limit - 1, later),
                        (10 ** limit, "^odd_quadric parameter dim is too "
                                      "long to print$")):
                    with pytest.raises(ValueError, match=message):
                        variety_from_spec({"type": "odd_quadric",
                                           "dim": sign * size}, max_dim=8)
    finally:
        sys.set_int_max_str_digits(old)


def test_a_malformed_call_names_types_not_values():
    # the stray note fails the rule, and the message prints no value, not
    # even a nested size too long to print
    huge = {"type": "odd_quadric", "dim": 10 ** 5000}
    before = registered_morphisms()
    with pytest.raises(ValueError) as err:
        build_morphism("product_projection", factors=[huge, "P^1"], onto=0,
                       note=1)
    assert str(err.value) == (
        "product_projection takes exactly factors (a list), onto (an "
        "integer); got factors (list), onto (int), note (int)")
    assert registered_morphisms() == before
    with pytest.raises(ValueError, match=r"^projective_space takes exactly "
                                         r"n \(an integer\); got nothing$"):
        variety_from_spec({"type": "projective_space"})


@pytest.mark.parametrize("spec", [
    '{"type":"projective_space"}',
    '{"type":"projective_space","n":2,"dim":9}',
    '{"type":"odd_quadric","dim":true}',
    '{"type":"product","factors":"P^1xP^1"}',
])
def test_malformed_variety_specs_name_the_type(capsys, spec):
    assert main(["describe", "--variety", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: %s takes exactly " % json.loads(spec)["type"])


@pytest.mark.parametrize("bad", [1.5, Fraction(3, 2), True, "2"])
def test_morphism_matrices_must_be_integers(bad):
    f = build_morphism("pn_self_map", degree=2)
    for push, pull in (({**f.push, "h^1": {"h^1": bad}}, f.pull),
                       (f.push, {**f.pull, "h^1": {"h^1": bad}})):
        with pytest.raises(InvalidVariety, match="must be integers"):
            Morphism("bad", f.source, f.target, push, pull,
                     proper=True, lci=True, flat=True)


# a degree-2 self map of P^3 (push h^i -> 2^(3-i) h^i, pull h^i -> 2^i h^i)
# with one entry changed, and the message the validation gives, naming the
# first failing pair in label order: the unit, then multiplicativity on
# (y1, y2), then the projection formula on (y, x)
_SELF_PUSH = {"h^%d" % i: {"h^%d" % i: 2 ** (3 - i)} for i in range(4)}
_SELF_PULL = {"h^%d" % i: {"h^%d" % i: 2 ** i} for i in range(4)}
BROKEN_MORPHISMS = [
    (_SELF_PUSH, {**_SELF_PULL, "h^0": {"h^0": 2}},
     "bad: pull does not preserve the unit"),
    (_SELF_PUSH, {**_SELF_PULL, "h^0": {}},
     "bad: pull does not preserve the unit"),
    (_SELF_PUSH, {**_SELF_PULL, "h^3": {"h^3": 7}},
     "bad: pull is not multiplicative on ('h^1', 'h^2')"),
    ({**_SELF_PUSH, "h^2": {"h^2": 3}}, _SELF_PULL,
     "bad: projection formula fails on ('h^1', 'h^1')"),
    ({**_SELF_PUSH, "h^1": {"h^1": 3}}, _SELF_PULL,
     "bad: projection formula fails on ('h^1', 'h^0')"),
]


@pytest.mark.parametrize("push, pull, message", BROKEN_MORPHISMS)
def test_a_broken_morphism_names_its_first_failing_pair(push, pull, message):
    P3 = projective_space(3)
    Morphism("good", P3, P3, _SELF_PUSH, _SELF_PULL,
             proper=True, lci=True, flat=True)
    with pytest.raises(InvalidVariety) as err:
        Morphism("bad", P3, P3, push, pull, proper=True, lci=True, flat=True)
    assert str(err.value) == message


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        make_class(P2 := projective_space(2), {"h^1": 0.5})
    with pytest.raises(TypeError):
        projective_space(2).unit().scale(0.5)
