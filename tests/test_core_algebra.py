"""Ring structure, grading, degree and serialization of Chow classes."""
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from chowops import (
    class_from_json,
    class_to_json,
    degree,
    make_class,
    odd_quadric,
    projective_space,
    pushforward,
    build_morphism,
    chern,
    line_bundle,
    tangent_bundle,
    todd,
)
from chowops.core import CellularVariety, Matrix, ModPClass, apply_matrix
from chowops.errors import (
    IntegralityViolation,
    InvalidVariety,
    SeriesDomainError,
    UnknownLabel,
    VarietyMismatch,
)
from oracles import pair_table


P1 = projective_space(1)
P2 = projective_space(2)
Q3 = odd_quadric(3)


def test_make_class_examples():
    line = make_class(P2, {"h^1": 1})
    assert line.coeffs == {"h^1": 1}
    assert make_class(P2, {}).is_zero()
    mixed = make_class(Q3, {"l_1": 2, "h^1": 1})
    assert mixed.coeffs == {"l_1": 2, "h^1": 1}


def test_make_class_drops_zeros_and_checks_labels():
    assert make_class(P2, {"h^1": 0}).is_zero()
    with pytest.raises(UnknownLabel):
        make_class(P2, {"h^9": 1})


def test_mul_examples():
    h = make_class(P2, {"h^1": 1})
    assert h * h == make_class(P2, {"h^2": 1})
    assert (h * h * h).is_zero()
    hq = make_class(Q3, {"h^1": 1})
    l1 = make_class(Q3, {"l_1": 1})
    assert hq * l1 == make_class(Q3, {"l_0": 1})


def test_mul_rejects_variety_mismatch():
    with pytest.raises(VarietyMismatch):
        make_class(P2, {"h^1": 1}) * make_class(P1, {"h^1": 1})


def test_middle_relation_on_odd_quadric():
    h = make_class(Q3, {"h^1": 1})
    assert h * h == make_class(Q3, {"l_1": 2})
    assert h * h * h == make_class(Q3, {"l_0": 2})


def test_degree_examples():
    assert degree(make_class(P2, {"h^2": 1})) == 1
    assert degree(make_class(Q3, {"l_0": 1})) == 1
    h = make_class(Q3, {"h^1": 1})
    assert degree(h * h * h) == 2


def test_degree_of_h3_by_pushforward_to_p4():
    # same number through the ambient embedding: deg of 2 h^4 in P^4
    f = build_morphism("quadric_in_projective", d=3)
    h = make_class(Q3, {"h^1": 1})
    pushed = pushforward(f, h * h * h)
    assert pushed == make_class(projective_space(4), {"h^4": 2})
    assert degree(pushed) == 2


def test_grade_component_examples():
    x = make_class(P2, {"h^0": 1, "h^1": 1, "h^2": 1})
    assert x.dim_component(1) == make_class(P2, {"h^1": 1})
    assert P2.zero().dim_component(1).is_zero()
    tau = P2.tau_class("h^1")  # h + h^2
    assert tau.dim_component(0) == make_class(P2, {"h^2": 1})


def test_grading_decomposition_reassembles():
    x = make_class(Q3, {"h^0": 2, "h^1": -1, "l_1": 5, "l_0": 7})
    total = Q3.zero()
    for d in range(Q3.dim + 1):
        total = total + x.dim_component(d)
    assert total == x


def test_fundamental_class_is_unit():
    for X in (P1, P2, Q3):
        one = X.unit()
        for label in X.labels():
            assert one * X.basis_class(label) == X.basis_class(label)


def test_rational_mode_promotion():
    a = make_class(P2, {"h^1": 1})
    b = make_class(P2, {"h^1": Fraction(1, 2)})
    assert a.is_integral()
    assert not b.is_integral()
    assert not (a + b).is_integral()
    assert not (a * b).is_integral()
    with pytest.raises(IntegralityViolation):
        b.as_integral()


def test_scalar_and_power():
    h = make_class(P2, {"h^1": 1})
    assert h.scale(3).coeffs == {"h^1": 3}
    assert h.power(2) == make_class(P2, {"h^2": 1})
    assert h.power(0) == P2.unit()


@pytest.mark.parametrize("k", [-1, True, 1.5])
def test_power_needs_a_non_negative_int(k):
    # range(k) would read -1 as 0 and True as 1
    with pytest.raises(ValueError, match="non-negative int"):
        make_class(P2, {"h^1": 1}).power(k)


def test_exp_needs_positive_codimension():
    with pytest.raises(SeriesDomainError):
        P2.unit().exp()
    with pytest.raises(SeriesDomainError):
        make_class(P2, {"h^0": 1, "h^1": 1}).exp()
    assert P2.zero().exp() == P2.unit()
    h = make_class(P2, {"h^1": 1})
    assert h.exp() == make_class(P2, {"h^0": 1, "h^1": 1,
                                      "h^2": Fraction(1, 2)})


@pytest.mark.parametrize("n", [6, 12])
def test_exp_makes_at_most_quadratically_many_products(monkeypatch, n):
    # k E_k = sum_i (i x_i) E_{k-i}: on P^n each part is one cell, so one
    # product of two cells per pair (i, k - i), where the sum of x^k / k!
    # multiplies whole classes
    X = projective_space(n)
    x = make_class(X, {"h^%d" % i: Fraction(i + 1, 3) for i in range(1, n + 1)})
    cell_products = []
    mul_into = CellularVariety._mul_into

    def counting(self, out, va, vb, c=1):
        cell_products.append(len(va) * len(vb))
        return mul_into(self, out, va, vb, c)

    monkeypatch.setattr(CellularVariety, "_mul_into", counting)
    x.exp()
    assert 0 < sum(cell_products) <= n * (n + 1) // 2


def count_fraction_work(monkeypatch):
    """Counters of Fraction multiplications and of Fractions built."""
    counts = {"mul": 0, "new": 0}
    new, mul, rmul = Fraction.__new__, Fraction.__mul__, Fraction.__rmul__

    def counting_new(cls, *args, **kwargs):
        counts["new"] += 1
        return new(cls, *args, **kwargs)

    def counting(op):
        def spy(a, b):
            counts["mul"] += 1
            return op(a, b)
        return spy

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    monkeypatch.setattr(Fraction, "__mul__", counting(mul))
    monkeypatch.setattr(Fraction, "__rmul__", counting(rmul))
    return counts


def test_product_and_exp_divide_once_per_cell(monkeypatch):
    # a class is stored as integers over one denominator, so the product and
    # the exponential build no Fraction at all; reading the coefficients
    # afterwards divides once per cell of the result
    X = projective_space(8)
    x = make_class(X, {"h^%d" % i: Fraction(2 * i + 1, 3 ** i + 4)
                       for i in range(9)})
    y = make_class(X, {"h^%d" % i: Fraction(i - 7, 2 ** i * 5)
                       for i in range(9)})
    u = x - x.codim_component(0)
    counts = count_fraction_work(monkeypatch)
    for compute in (lambda: x * y, u.exp):
        counts.update(mul=0, new=0)
        z = compute()
        assert counts == {"mul": 0, "new": 0}
        assert len(z.coeffs) == 9
        assert counts["mul"] == 0 and 0 < counts["new"] <= 9


def test_ring_operations_read_the_stored_form(monkeypatch):
    # a class is stored as integers over one denominator, so no ring
    # operation converts its operands: _integer_form is for caller input
    from chowops import char_classes, core

    X = projective_space(6)
    x = make_class(X, {"h^%d" % i: Fraction(i - 3, 2 ** i + 1)
                       for i in range(7)})
    y = make_class(X, {"h^%d" % i: Fraction(5, 3 ** i) for i in range(1, 7)})
    e = line_bundle(X, 2) + tangent_bundle(X)
    todd(e), chern(e)  # each series' log weights come once, from outside
    calls = []
    integer_form = core._integer_form

    def spy(coeffs):
        calls.append(coeffs)
        return integer_form(coeffs)

    for module in (core, char_classes):
        monkeypatch.setattr(module, "_integer_form", spy)
    x * y
    x + y
    (y * y).exp()
    apply_matrix(X.tau_columns, x, X)
    todd(e)
    chern(e)
    assert calls == []


def test_modp_reduction():
    x = make_class(P2, {"h^1": 5, "h^2": -1})
    xbar = ModPClass.from_integral(x, 3)
    assert xbar.coeffs == {"h^1": 2, "h^2": 2}
    assert (xbar + xbar).coeffs == {"h^1": 1, "h^2": 1}
    assert (xbar * xbar).coeffs == {"h^2": 1}


@pytest.mark.parametrize("p,v", [(2, Fraction(3, 2)), (3, 1.7), (3, True),
                                 (3, "1"), (3, None)])
def test_modp_coefficients_must_be_integers(p, v):
    # a coefficient that is not an integer is an error, never truncated
    with pytest.raises(TypeError):
        ModPClass(P2, p, {"h^1": v})
    xbar = ModPClass(P2, p, {"h^1": 1})
    with pytest.raises(TypeError):
        xbar * v
    with pytest.raises(TypeError):
        xbar.scale(v)


@pytest.mark.parametrize("c", ["1/2", "2", Decimal("0.5"), Decimal(2), 0.5,
                               True])
def test_chow_scalars_are_ints_or_fractions(c):
    # the scalar follows the coefficient rule: exact numbers only
    x = make_class(P2, {"h^1": 1, "h^2": Fraction(1, 3)})
    with pytest.raises(TypeError):
        x.scale(c)
    with pytest.raises(TypeError):
        x * c
    assert x.scale(Fraction(3, 1)).coeffs == {"h^1": 3, "h^2": 1}
    assert (Fraction(1, 2) * x).coeffs == {"h^1": Fraction(1, 2),
                                           "h^2": Fraction(1, 6)}


@pytest.mark.parametrize("other", [1, Fraction(1, 2), "x", None])
def test_a_class_adds_only_classes(other):
    # a sum with anything that is not a class is Python's TypeError, not an
    # AttributeError from reading its variety
    for x in (make_class(P2, {"h^1": 1}), ModPClass(P2, 3, {"h^1": 1})):
        with pytest.raises(TypeError):
            x + other
        with pytest.raises(TypeError):
            other + x
    with pytest.raises(TypeError):
        make_class(P2, {"h^1": 1}) - other


def test_modp_integral_scalars():
    xbar = ModPClass(P2, 3, {"h^1": 1, "h^2": 2})
    assert ModPClass(P2, 3, {"h^1": Fraction(4, 1)}).coeffs == {"h^1": 1}
    assert (xbar * Fraction(2, 1)).coeffs == {"h^1": 2, "h^2": 1}
    assert (5 * xbar).coeffs == {"h^1": 2, "h^2": 1}
    assert xbar.scale(-3).is_zero()


@pytest.mark.parametrize("p", [0, -3, 4, True, 2.0])
def test_modp_classes_need_a_prime(p):
    # the modulus is checked like every p: no division by zero, no negative
    # or composite modulus, no bool or float
    with pytest.raises(ValueError, match="p must be (a )?prime"):
        ModPClass(P2, p, {"h^1": 1})
    with pytest.raises(ValueError, match="p must be (a )?prime"):
        ModPClass.from_integral(P2.unit(), p)


def test_modp_classes_of_different_primes_do_not_mix():
    with pytest.raises(VarietyMismatch):
        ModPClass(P2, 2, {"h^1": 1}) + ModPClass(P2, 3, {"h^1": 1})
    with pytest.raises(VarietyMismatch):
        make_class(P2, {"h^1": 1}) + ModPClass(P2, 3, {"h^1": 1})
    assert ModPClass(P2, 2, {"h^1": 1}) != ModPClass(P2, 3, {"h^1": 1})
    assert make_class(P2, {"h^1": 1}) != ModPClass(P2, 3, {"h^1": 1})


# -- construction invariants --------------------------------------------------

def _tiny(mult, cells=None, tau=None):
    cells = cells or [("a", 1), ("b", 0)]
    tau = tau or {"a": {"a": 1}, "b": {"b": 1}}
    return CellularVariety("T", 1, cells, mult, {"b": 1}, {"a": 1}, tau)


def test_valid_tiny_variety():
    X = _tiny({("b", "b"): {}})
    assert X.fundamental == "a"


def test_rejects_two_fundamental_cells():
    with pytest.raises(InvalidVariety):
        CellularVariety("T", 1, [("a", 1), ("b", 1)], {}, {}, {"a": 1},
                        {"a": {"a": 1}, "b": {"b": 1}})


def test_rejects_grading_violation():
    with pytest.raises(InvalidVariety):
        _tiny({("b", "b"): {"a": 1}})


def test_rejects_noncommutative_table():
    mult = {("a", "b"): {"b": 1}, ("b", "a"): {"b": 2}}
    with pytest.raises(InvalidVariety,
                       match=r"^product of 'a' and 'b' is not commutative$"):
        _tiny(mult)


def test_rejects_nonassociative_table():
    # (b*b)*a = x*a = p while b*(b*a) = 0
    cells = [("e", 3), ("a", 2), ("b", 2), ("x", 1), ("p", 0)]
    tau = {l: {l: 1} for l, _ in cells}
    mult = {("a", "a"): {"x": 1}, ("b", "b"): {"x": 1}, ("a", "b"): {},
            ("a", "x"): {"p": 1}, ("b", "x"): {}, ("a", "p"): {},
            ("b", "p"): {}, ("x", "x"): {}, ("x", "p"): {}, ("p", "p"): {}}
    # the message names the first failing triple in label order
    with pytest.raises(InvalidVariety,
                       match=r"^associativity fails on \('a', 'b', 'b'\)$"):
        CellularVariety("BAD", 3, cells, mult, {"p": 1}, {"e": 3}, tau)
    good = dict(mult)
    good[("b", "b")] = {}
    X = CellularVariety("OK", 3, cells, good, {"p": 1}, {"e": 3}, tau)
    assert X.fundamental == "e"


def test_rejects_broken_unit_row():
    with pytest.raises(InvalidVariety):
        _tiny({("a", "b"): {"b": 2}})


def test_rejects_bad_tau():
    with pytest.raises(InvalidVariety):
        _tiny({}, tau={"a": {"a": 2}, "b": {"b": 1}})
    with pytest.raises(InvalidVariety):
        _tiny({}, tau={"a": {"a": 1}, "b": {"b": 1, "a": 1}})


@pytest.mark.parametrize("bad", [0.1, 0.0, "3/2", True, False, Decimal("0.5")])
def test_variety_data_follows_the_coefficient_rule(bad):
    # a caller's tau entry or tangent_ch entry is an int or a Fraction;
    # anything else, zero or not, is refused naming the cell
    with pytest.raises(InvalidVariety,
                       match=r"^tau column 'a' at row 'b': coefficient must "
                             r"be int or Fraction, got "):
        _tiny({}, tau={"a": {"a": 1, "b": bad}, "b": {"b": 1}})
    with pytest.raises(InvalidVariety,
                       match=r"^tangent_ch at cell 'b': coefficient must be "
                             r"int or Fraction, got "):
        CellularVariety("T", 1, [("a", 1), ("b", 0)], {}, {"b": 1},
                        {"a": 1, "b": bad}, {"a": {"a": 1}, "b": {"b": 1}})


def _raw_p2(**changes):
    P = projective_space(2)
    data = dict(name="P^2-raw", dim=2, cells=P.cells,
                mult_table=pair_table(P), degree_vector=P.degree_vector,
                tangent_ch=P.tangent_ch, tau_columns=P.tau_columns)
    return CellularVariety(**dict(data, **changes))


@pytest.mark.parametrize("changes,where", [
    ({"degree_vector": {"h^2": 2.7}}, "degree at cell 'h^2'"),
    ({"degree_vector": {"h^2": "3"}}, "degree at cell 'h^2'"),
    ({"degree_vector": {"h^2": True}}, "degree at cell 'h^2'"),
    ({"cells": [("h^0", 2), ("h^1", 1.5), ("h^2", 0)]},
     "dimension of cell 'h^1'"),
    ({"mult_table": {**pair_table(P2), ("h^1", "h^1"): {"h^2": True}}},
     "structure constant of 'h^1' * 'h^1' at 'h^2'"),
    ({"dim": 2.0}, "dim"),
], ids=["degree-float", "degree-str", "degree-bool", "cell-dim-float",
        "structure-constant-bool", "dim-float"])
def test_variety_integers_are_ints(changes, where):
    # a dimension, structure constant or degree is an int, never coerced
    assert _raw_p2().degree_vector == {"h^2": 1}
    with pytest.raises(InvalidVariety,
                       match=r"^%s: must be an integer, got " % re.escape(where)):
        _raw_p2(**changes)


def test_variety_data_is_stored_by_the_coefficient_rule():
    # a Fraction with denominator 1 is stored as an int, in both places;
    # tau[O_X] is Todd(T_X) = 1 + ch_1 / 2 of each tangent_ch
    X = CellularVariety("T", 1, [("a", 1), ("b", 0)], {}, {"b": 1},
                        {"a": 1, "b": 4},
                        {"a": {"a": Fraction(1), "b": Fraction(4, 2)},
                         "b": {"b": 1}})
    assert X.tau_columns["a"] == {"a": 1, "b": 2}
    assert all(type(v) is int for v in X.tau_columns["a"].values())
    X = CellularVariety("T", 1, [("a", 1), ("b", 0)], {}, {"b": 1},
                        {"a": Fraction(1), "b": Fraction(1, 2)},
                        {"a": {"a": 1, "b": Fraction(1, 4)}, "b": {"b": 1}})
    assert X.tangent_ch == {"a": 1, "b": Fraction(1, 2)}
    assert type(X.tangent_ch["a"]) is int


@pytest.mark.parametrize("tau,message", [
    ({"a": {"a": 2}, "b": {"b": 1}}, "no unit diagonal"),
    ({"a": {"a": 1}, "b": {"b": 1, "a": 1}}, "not triangular"),
    ({"a": {"a": 1}}, "one column per cell"),
])
def test_tau_is_checked_where_it_enters(tau, message):
    # a mapping is checked by the constructor, a builder's callable on the
    # first read of tau_columns, with the same message, and a builder's
    # Matrix in its integer form
    with pytest.raises(InvalidVariety, match=message):
        _tiny({}, tau=tau)
    for columns in (tau, Matrix.of(tau), Matrix(
            {c: {r: 6 * v for r, v in col.items()} for c, col in tau.items()},
            6)):
        X = _tiny({}, tau=lambda: columns)
        with pytest.raises(InvalidVariety, match=message):
            X.tau_columns


def test_a_callers_fundamental_tau_column_must_be_the_todd_class():
    # tau[O_X] = Todd(T_X) of tangent_ch is refused otherwise at entry: P^2's
    # columns against ch_2(T) = 5/2, the tiny variety's identity against
    # ch_1 = 2; a builder's columns are trusted
    def message(cell):
        return "^%s$" % re.escape("tau column %r of the fundamental cell is "
                                  "not Todd(T_X) of tangent_ch" % cell)

    with pytest.raises(InvalidVariety, match=message("h^0")):
        _raw_p2(tangent_ch=dict(P2.tangent_ch, **{"h^2": Fraction(5, 2)}))
    identity = {"a": {"a": 1}, "b": {"b": 1}}
    with pytest.raises(InvalidVariety, match=message("a")):
        CellularVariety("T", 1, [("a", 1), ("b", 0)], {}, {"b": 1},
                        {"a": 1, "b": 2}, identity)
    X = CellularVariety("T", 1, [("a", 1), ("b", 0)], {}, {"b": 1},
                        {"a": 1, "b": 2}, lambda: identity)
    assert X.tau_columns["a"] == {"a": 1}
    assert _raw_p2().tau_columns == P2.tau_columns


def test_rejects_unknown_labels_in_tau_and_tangent_data():
    with pytest.raises(InvalidVariety, match="unknown row 'z'"):
        _tiny({}, tau={"a": {"a": 1, "z": 1}, "b": {"b": 1}})
    with pytest.raises(InvalidVariety, match="tangent_ch"):
        CellularVariety("T", 1, [("a", 1), ("b", 0)], {}, {"b": 1},
                        {"a": 1, "z": 2}, {"a": {"a": 1}, "b": {"b": 1}})


def test_tangent_rank_must_match_dim():
    with pytest.raises(InvalidVariety):
        CellularVariety("T", 1, [("a", 1), ("b", 0)], {}, {"b": 1},
                        {"a": 2}, {"a": {"a": 1}, "b": {"b": 1}})


# -- serialization -------------------------------------------------------------

def test_json_round_trip_integral():
    x = make_class(Q3, {"h^1": 1, "l_1": -3})
    blob = class_to_json(x)
    assert blob == {"h^1": "1", "l_1": "-3"}
    assert class_from_json(Q3, blob) == x


def test_json_round_trip_rational():
    x = P2.tau_class("h^0")
    blob = class_to_json(x)
    assert blob["h^1"] == "3/2"
    assert class_from_json(P2, blob) == x


def test_json_accepts_fundamental_alias():
    x = class_from_json(P2, {"1": "4"})
    assert x == make_class(P2, {"h^0": 4})


def test_a_cell_given_twice_is_refused():
    # "1" and "h^0" name one cell: the later value must not replace the other
    from chowops import VirtualBundle, kclass_from_json
    with pytest.raises(ValueError, match="^cell 'h\\^0' given twice$"):
        make_class(P2, {"1": 1, "h^0": 2})
    for read in (lambda obj: class_from_json(P2, obj),
                 lambda obj: VirtualBundle.from_json(P2, {"rank": 0, "ch": obj},
                                                     integral=False),
                 lambda obj: kclass_from_json(P2, {"tau": obj})):
        with pytest.raises(ValueError, match="given twice"):
            read({"h^0": "2", "1": "1"})


def test_class_ops_are_pure():
    x = make_class(P2, {"h^1": 1})
    y = make_class(P2, {"h^1": 2})
    _ = x + y
    _ = x * y
    assert x.coeffs == {"h^1": 1}
    assert y.coeffs == {"h^1": 2}


def test_classes_share_no_dict_with_their_source():
    # a class owns its num: tangent_ch is all ints on P^1, so _integer_form
    # hands it back as it is, and a lift starts from the mod-p class's num
    for X in (P1, P2):
        ch = X.tangent_chern_character()
        assert ch.num is not X.tangent_ch
        assert ch.coeffs == X.tangent_ch
    xbar = ModPClass(P2, 3, {"h^1": 1, "h^2": 2})
    assert xbar.lift().num is not xbar.num
    assert xbar.lift().coeffs == xbar.coeffs
