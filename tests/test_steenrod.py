"""The p-adic decomposition and the reduced operations built from it."""
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import chowops

from chowops import (
    CellularVariety,
    KClass,
    ModPClass,
    atiyah_decompose,
    build_morphism,
    chi_defect,
    degree,
    degree_formula_witness,
    euler_char,
    external_product,
    k0_from_chow_lift,
    make_class,
    odd_quadric,
    projective_space,
    segre_number,
    steenrod_cohomological,
    steenrod_homological,
    steenrod_total,
    structure_sheaf,
    op_component,
    w_chp,
    tangent_bundle,
)
from chowops.errors import (
    DimensionMismatch,
    ExtractionFailure,
    LevelViolation,
    NonIntegralInput,
    VarietyMismatch,
)
from chowops.verify import lucas_binom, random_lattice_kclass
from oracles import pair_table


P1 = projective_space(1)
P2 = projective_space(2)
Q3 = odd_quadric(3)


def _cls(X, coeffs):
    return make_class(X, coeffs)


def _bar(X, p, coeffs):
    return ModPClass(X, p, coeffs)


# -- Atiyah-style decomposition -------------------------------------------------

def test_decomposition_of_structure_sheaf_p1():
    dec = atiyah_decompose(structure_sheaf(P1), 2)
    assert dec.level == 1
    assert dec.parts[0].tau == _cls(P1, {"h^0": 1, "h^1": 1})
    assert dec.parts[1].tau == _cls(P1, {"h^1": 2})
    assert dec.verify()


def test_decomposition_of_point_class_is_trivial():
    for X in (P1, P2, Q3):
        pt = k0_from_chow_lift(X.basis_class(X.points[0]))
        for p in (2, 3, 5):
            dec = atiyah_decompose(pt, p)
            assert dec.level == 0
            assert dec.parts[0] == pt
            assert all(part.is_zero() for part in dec.parts[1:])


def test_decomposition_of_structure_sheaf_p2():
    dec = atiyah_decompose(structure_sheaf(P2), 2)
    assert dec.parts[0].tau == structure_sheaf(P2).tau
    assert dec.parts[1].tau == _cls(P2, {"h^1": 3, "h^2": 3})
    assert dec.parts[2].tau == _cls(P2, {"h^2": 6})
    assert dec.verify()


def test_decomposition_reconstruction_on_quadric():
    for p in (2, 3):
        dec = atiyah_decompose(structure_sheaf(Q3), p)
        assert dec.verify()
        for k, part in enumerate(dec.parts):
            if not part.is_zero():
                from chowops import filtration_level
                assert filtration_level(part) <= 3 - k * (p - 1)


def test_decomposition_rejects_rational_input():
    from chowops import adams_lower
    with pytest.raises(NonIntegralInput):
        atiyah_decompose(adams_lower(structure_sheaf(P2), 2), 2)


def test_extraction_failure_on_lying_input():
    lying = KClass(P1, _cls(P1, {"h^1": Fraction(1, 2)}), integral=True)
    with pytest.raises(ExtractionFailure) as err:
        atiyah_decompose(lying, 2)
    assert "variety" in err.value.details


_CORRUPT_DECOMPOSITION = """
import sys
from chowops import atiyah_decompose, projective_space, structure_sheaf
from chowops.errors import ChowopsError
dec = atiyah_decompose(structure_sheaf(projective_space(2)), 2)
dec.parts = dec.parts[:1] + [part.scale(2) for part in dec.parts[1:]]
try:
    dec.verify()
except ChowopsError as exc:
    print(sys.flags.optimize, type(exc).__name__, exc)
else:
    print(sys.flags.optimize, "verified")
"""


def test_corrupted_decomposition_fails_under_optimize():
    # the theory checks must not be assert statements, which -O strips
    src = os.path.dirname(os.path.dirname(chowops.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", _CORRUPT_DECOMPOSITION],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split()[:2] == ["1", "ExtractionFailure"], out.stdout


def test_corrupted_decomposition_details():
    dec = atiyah_decompose(structure_sheaf(P1), 2)
    dec.parts = dec.parts[:1] + [part.scale(2) for part in dec.parts[1:]]
    with pytest.raises(ExtractionFailure) as err:
        dec.verify()
    assert err.value.details["variety"] == "P^1"
    assert err.value.details["parts"][1] == {"h^1": "4"}


def test_explicit_level_must_dominate():
    x = structure_sheaf(P2)
    with pytest.raises(LevelViolation):
        atiyah_decompose(x, 2, level=1)


@pytest.mark.parametrize("level", [3, -1, 10 ** 6])
def test_an_explicit_level_above_the_filtration_is_refused_at_once(
        monkeypatch, level):
    # the filtration of P^2 stops at 2; the split would build
    # level // (p - 1) + 1 pieces and p-powers up to about p^(2 level)
    from chowops import steenrod

    def refuse(*args):
        raise AssertionError("the decomposition ran")

    monkeypatch.setattr(steenrod, "_psi_pieces", refuse)
    for x in (structure_sheaf(P2), k0_from_chow_lift(P2.zero())):
        with pytest.raises(LevelViolation):
            atiyah_decompose(x, 2, level=level)


@pytest.mark.parametrize("level", ["3", True, False, 2.0, Fraction(2)])
def test_an_explicit_level_is_an_int(level):
    with pytest.raises(TypeError, match="a level must be an int"):
        atiyah_decompose(structure_sheaf(P2), 2, level=level)
    assert atiyah_decompose(structure_sheaf(P2), 2, level=2).level == 2


@pytest.mark.parametrize("spec", ["P^4", "Q_5", "P^2xP^2"])
def test_an_explicit_lift_makes_one_apply_and_solves_nothing(monkeypatch,
                                                             spec):
    # the lift wraps its coordinates, the decomposition applies the Adams
    # matrix to them once, and its parts wrap the pieces: no inverse tau
    # matrix is built or read
    import random
    from chowops import core, ktheory, varieties
    monkeypatch.setattr(varieties, "_VARIETY_CACHE", {})
    X = chowops.variety_from_spec(spec)
    rng = random.Random(spec)
    label = X.labels()[1]
    d = X.cell_dim(label)
    for p in (2, 3):
        adams = ktheory.adams_matrix(X, p)
        calls = []
        apply, lattice = core.Matrix.apply, ktheory.tau_lattice
        inverse = ktheory._unitriangular_inverse
        monkeypatch.setattr(core.Matrix, "apply", lambda self, *args: (
            calls.append(self) or apply(self, *args)))
        monkeypatch.setattr(ktheory, "tau_lattice", lambda X: (
            calls.append("tau_lattice") or lattice(X)))
        monkeypatch.setattr(ktheory, "_unitriangular_inverse", lambda X: (
            calls.append("inverse") or inverse(X)))
        xbar = _bar(X, p, {label: 1})
        lift = k0_from_chow_lift(xbar.lift())
        lift = lift + random_lattice_kclass(X, rng, d).scale(p)
        lift = lift + random_lattice_kclass(X, rng, d - 1)
        assert calls == []
        dec = atiyah_decompose(lift, p, level=d)
        dec.parts
        assert calls == [adams]
        del calls[:]
        ops = steenrod_homological(xbar, lift=lift)
        assert calls == [adams]
        monkeypatch.undo()
        assert ops == steenrod_homological(xbar)


# -- homological and cohomological operations ------------------------------------

def count_tau_route(monkeypatch):
    """Empty the builder cache and record every adams_lower, K-class solve
    (the public `KClass` constructor) and build of the inverse tau matrix
    from then on."""
    from chowops import ktheory
    from chowops import varieties
    monkeypatch.setattr(varieties, "_VARIETY_CACHE", {})
    calls = []
    adams_lower, solve = ktheory.adams_lower, ktheory.KClass.__init__
    inverse = ktheory._unitriangular_inverse

    def counting_adams(x, p):
        calls.append("adams_lower")
        return adams_lower(x, p)

    def counting_solve(self, *args):
        calls.append("KClass")
        solve(self, *args)

    def counting_inverse(*args):
        calls.append("inverse")
        return inverse(*args)

    monkeypatch.setattr(ktheory, "adams_lower", counting_adams)
    monkeypatch.setattr(ktheory.KClass, "__init__", counting_solve)
    monkeypatch.setattr(ktheory, "_unitriangular_inverse", counting_inverse)
    return calls


def test_tables_on_pn_and_products_skip_the_tau_route(monkeypatch):
    # psi_p comes from the closed form on P^n and Kronecker products on
    # X x Y, and the canonical lift's coordinates are its coefficients
    calls = count_tau_route(monkeypatch)
    for X in (projective_space(12), chowops.variety_from_spec("P^2xP^2xP^2")):
        for p in (2, 3):
            for label in X.labels():
                xbar = _bar(X, p, {label: 1})
                steenrod_homological(xbar)
                steenrod_cohomological(xbar)
    assert calls == []
    # a quadric's matrix is built by the tau route, T^{-1} D T on the integer
    # tau columns, once per prime: no adams_lower of a class, one inverse
    from chowops import ktheory
    columns = ktheory._adams_columns
    monkeypatch.setattr(ktheory, "_adams_columns",
                        lambda X, p: calls.append("columns") or columns(X, p))
    Q5 = odd_quadric(5)
    for label in Q5.labels():
        steenrod_homological(_bar(Q5, 2, {label: 1}))
    assert calls == ["columns", "inverse"]


def test_quadric_tables_build_no_todd_or_theta_twist(monkeypatch):
    # psi_p is a dimension scaling in tau-coordinates, so the tables of a
    # fresh Q_5 need neither Todd(T_X)^{-1} nor theta^p(-T_X)
    from chowops import varieties
    monkeypatch.setattr(varieties, "_VARIETY_CACHE", {})
    Q5 = odd_quadric(5)
    for p in (2, 3):
        for label in Q5.labels():
            xbar = _bar(Q5, p, {label: 1})
            steenrod_homological(xbar)
            steenrod_cohomological(xbar)
    for p in (2, 3):
        for key in ("todd_inv", ("theta_minus_T", p), ("psi_twist", p)):
            assert key not in Q5._cache, key


def count_extractions(monkeypatch):
    """Empty the builder cache and record, from then on, every extraction
    (`_psi_pieces`, with the cells its coordinates sit on) and every
    `apply_matrix` call of the operation path."""
    from chowops import steenrod
    from chowops import varieties
    monkeypatch.setattr(varieties, "_VARIETY_CACHE", {})
    calls = []
    psi_pieces, apply_matrix = steenrod._psi_pieces, steenrod.apply_matrix

    def counting_pieces(X, p, d, coords):
        calls.append(("_psi_pieces", p, tuple(sorted(coords))))
        return psi_pieces(X, p, d, coords)

    def counting_apply(*args):
        calls.append(("apply_matrix",))
        return apply_matrix(*args)

    monkeypatch.setattr(steenrod, "_psi_pieces", counting_pieces)
    monkeypatch.setattr(steenrod, "apply_matrix", counting_apply)
    return calls


def test_an_operation_builds_one_column_per_input_cell(monkeypatch):
    calls = count_extractions(monkeypatch)
    X = projective_space(40)
    xbar = _bar(X, 5, {"h^3": 1, "h^17": 2})
    ops = steenrod_homological(xbar)
    assert sorted(c for c in calls if c[0] == "_psi_pieces") == [
        ("_psi_pieces", 5, ("h^17",)), ("_psi_pieces", 5, ("h^3",))]
    assert sorted(X._cache[("sbar", 5, False)]) == ["h^17", "h^3"]
    # the same op again reads the two cached columns
    del calls[:]
    assert steenrod_homological(xbar) == ops
    assert calls == []


def test_cohomological_table_reuses_the_homological_columns(monkeypatch):
    calls = count_extractions(monkeypatch)
    X = projective_space(12)
    for p in (2, 3):
        for operation in (steenrod_homological, steenrod_cohomological):
            for label in X.labels():
                operation(_bar(X, p, {label: 1}))
    extracted = [c[1:] for c in calls if c[0] == "_psi_pieces"]
    assert sorted(extracted) == sorted((p, (label,)) for p in (2, 3)
                                       for label in X.labels())


def test_cached_operations_build_no_checked_class(capsys, monkeypatch):
    # once its columns are cached, table and operate run no validating
    # ChowClass(...) and no extraction; operate parses its --class input
    from chowops import cli
    from chowops.core import ChowClass

    calls = count_extractions(monkeypatch)
    X = odd_quadric(7)
    monkeypatch.setattr(cli, "_load_variety", lambda text: X)
    cli_args = [("table", "--variety", "Q_7", "--p", "3", "--convention", c)
                for c in ("hom", "coh")]
    cli_args += [("operate", "--variety", "Q_7", "--p", "3", "--class",
                  '{"h^0":"1","h^1":"2","l_1":"4"}', "--convention", "coh")]
    for argv in cli_args:
        assert cli.main(list(argv)) == 0
    first = capsys.readouterr().out
    assert len([c for c in calls if c[0] == "_psi_pieces"]) == len(X.cells)

    checked = []
    init = ChowClass.__init__

    def counting_init(self, *args):
        checked.append(args)
        init(self, *args)

    monkeypatch.setattr(ChowClass, "__init__", counting_init)
    del calls[:]
    for argv in cli_args:
        assert cli.main(list(argv)) == 0
    assert capsys.readouterr().out == first
    assert calls == []
    assert len(checked) == 1  # the --class input of operate


@pytest.mark.parametrize("operation", [steenrod_homological,
                                       steenrod_cohomological])
def test_cold_columns_build_no_checked_class(monkeypatch, operation):
    # the extraction wraps its coordinates, and apply_matrix its result,
    # without the validating constructors: their data is already checked
    from chowops.core import ChowClass

    calls = count_extractions(monkeypatch)
    X = projective_space(12)
    inputs = [_bar(X, 3, {label: 1}) for label in X.labels()]
    checked = []
    for cls in (ChowClass, ModPClass):
        init = cls.__init__

        def counting_init(self, *args, init=init):
            checked.append((type(self).__name__, args))
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting_init)
    for xbar in inputs:
        operation(xbar)
    assert len([c for c in calls if c[0] == "_psi_pieces"]) == len(X.cells)
    assert checked == []


def test_cold_columns_run_in_integers(monkeypatch):
    # a cold homological column is one integer apply of the Adams matrix
    # and the integer split: no apply_matrix, which divides, and no Fraction
    calls = count_extractions(monkeypatch)
    inputs = [_bar(X, p, {label: 1})
              for X in (projective_space(12),
                        chowops.variety_from_spec("P^2xP^2xP^2"))
              for p in (2, 3) for label in X.labels()]
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    for xbar in inputs:
        steenrod_homological(xbar)
    assert len([c for c in calls if c[0] == "_psi_pieces"]) == len(inputs)
    assert ("apply_matrix",) not in calls
    assert made == []


@pytest.mark.parametrize("operation", [steenrod_homological,
                                       steenrod_cohomological])
def test_warm_single_cell_outputs_are_not_shared(operation):
    # the one-cell route writes fresh dicts: changing an output's num
    # changes neither the cached column nor the next call's result
    X = projective_space(12)
    xbar = _bar(X, 5, {"h^8": 3})
    first = operation(xbar)
    expected = [y.coeffs.copy() for y in first]
    for y in first:
        y.num.clear()
        y.num["h^0"] = 4
    assert [y.coeffs for y in operation(xbar)] == expected
    assert [y.coeffs for y in operation(_bar(X, 5, {"h^8": 1}))] == \
        [{l: v * 2 % 5 for l, v in c.items()} for c in expected]


@pytest.mark.parametrize("operation", [steenrod_homological,
                                       steenrod_cohomological])
def test_warm_single_cell_op_builds_no_class_through_the_checks(
        monkeypatch, operation):
    # once the column is cached, c [l] is wrapped as it is: neither the
    # checked constructor nor the reducing _like runs; two cells still add
    # up through _like
    X = odd_quadric(7)
    inputs = [_bar(X, 3, {label: c}) for label in X.labels() for c in (1, 2)]
    pair = _bar(X, 3, {"h^1": 1, "l_1": 2})
    for xbar in inputs:
        operation(xbar)
    calls = []
    init, like = ModPClass.__init__, ModPClass._like

    def counting_init(self, *args):
        calls.append("__init__")
        init(self, *args)

    def counting_like(self, *args, **kwargs):
        calls.append("_like")
        return like(self, *args, **kwargs)

    monkeypatch.setattr(ModPClass, "__init__", counting_init)
    monkeypatch.setattr(ModPClass, "_like", counting_like)
    for xbar in inputs:
        operation(xbar)
    assert calls == []
    ops = operation(pair)
    assert calls == ["_like"] * len(ops)


def test_from_integral_reduces_without_the_checked_constructor(monkeypatch):
    x = make_class(Q3, {"h^0": 7, "h^1": -3, "l_1": 9})
    calls = []
    monkeypatch.setattr(ModPClass, "__init__",
                        lambda self, *args: calls.append(args))
    xbar = ModPClass.from_integral(x, 3)
    assert calls == []
    assert xbar.coeffs == {"h^0": 1} and xbar.p == 3 and xbar.variety is Q3


def test_checked_modp_input_keeps_its_refusals():
    # the same errors and messages as before the fast paths of the
    # constructor and of from_integral
    from chowops.errors import IntegralityViolation, UnknownLabel

    cases = [
        ({"h^1": True}, TypeError,
         "coefficient must be int or Fraction, got True"),
        ({"h^1": 1.5}, TypeError,
         "coefficient must be int or Fraction, got 1.5"),
        ({"h^1": Fraction(1, 2)}, TypeError,
         "a mod-p coefficient must be an integer, got 1/2"),
        ({"h^9": 1}, UnknownLabel, "variety P^2 has no cell 'h^9'"),
    ]
    for coeffs, error, message in cases:
        with pytest.raises(error) as info:
            ModPClass(P2, 3, coeffs)
        assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        ModPClass(P2, 4, {"h^1": 1})
    assert str(info.value) == "p must be prime, got 4"
    with pytest.raises(IntegralityViolation) as info:
        ModPClass.from_integral(make_class(P2, {"h^1": Fraction(1, 2)}), 3)
    assert str(info.value) == "cannot reduce a fractional class mod 3"
    assert ModPClass(P2, 3, {"h^1": 7, "h^2": Fraction(6, 2)}).coeffs == \
        {"h^1": 1}


def test_s0_is_identity_spot():
    for X in (P2, Q3):
        for label in X.labels():
            xbar = _bar(X, 2, {label: 1})
            assert steenrod_homological(xbar)[0] == xbar
            assert steenrod_cohomological(xbar)[0] == xbar


def test_fundamental_class_of_p1_has_trivial_s1():
    ops = steenrod_homological(_bar(P1, 2, {"h^0": 1}))
    assert ops[1].is_zero()  # x_1 = 2[pt] vanishes mod 2


def test_line_on_p2_matches_twisted_square_oracle():
    # homological total = w^{CH,2}(-T) * classical Sq, reduced mod 2
    xbar = _bar(P2, 2, {"h^1": 1})
    total = steenrod_total(steenrod_homological(xbar))
    w_minus = ModPClass.from_integral(w_chp(-tangent_bundle(P2), 2), 2)
    sq = _bar(P2, 2, {"h^1": 1, "h^2": 1})  # Sq(h) = h + h^2
    assert total == w_minus * sq
    # cohomological total is the classical square itself
    coh = steenrod_total(steenrod_cohomological(xbar))
    assert coh == sq


def test_zero_class_maps_to_zero():
    ops = steenrod_cohomological(_bar(P2, 2, {}))
    assert len(ops) == 1 and ops[0].is_zero()


def test_mixed_input_is_processed_componentwise():
    a = _bar(P2, 2, {"h^1": 1})
    b = _bar(P2, 2, {"h^2": 1})
    mixed = a + b
    ops_mixed = steenrod_cohomological(mixed)
    ops_a = steenrod_cohomological(a)
    ops_b = steenrod_cohomological(b)
    for k in range(max(len(ops_a), len(ops_b), len(ops_mixed))):
        assert op_component(ops_mixed, k) == \
            op_component(ops_a, k) + op_component(ops_b, k)


def test_top_power_rule_spot():
    # codim-q class to the p-th power in grade q
    for X, label, p in ((P2, "h^1", 2), (Q3, "h^1", 2), (Q3, "l_1", 2),
                        (P2, "h^1", 3)):
        q = X.cell_codim(label)
        ops = steenrod_cohomological(_bar(X, p, {label: 1}))
        expected = ModPClass.from_integral(X.basis_class(label).power(p), p)
        assert op_component(ops, q) == expected


def test_op_component_is_zero_below_zero_and_past_the_range():
    # S_k = 0 for k < 0: a negative k must not index from the end
    ops = steenrod_cohomological(_bar(P2, 2, {"h^1": 1}))
    assert op_component(ops, 1) == _bar(P2, 2, {"h^2": 1})
    for k in (-1, -2, -len(ops), -len(ops) - 1, len(ops), len(ops) + 5):
        assert op_component(ops, k) == _bar(P2, 2, {}), k


def test_explicit_lift_reproduces_canonical_result():
    import random
    rng = random.Random(3)
    xbar = _bar(Q3, 2, {"h^1": 1})
    base = steenrod_homological(xbar)
    lift = k0_from_chow_lift(xbar.lift())
    lift = lift + random_lattice_kclass(Q3, rng, 2).scale(2)
    lift = lift + random_lattice_kclass(Q3, rng, 1)
    assert steenrod_homological(xbar, lift=lift) == base


def test_lift_guards():
    xbar = _bar(P2, 2, {"h^2": 1})
    deep = structure_sheaf(P2)  # level 2 > dim of the input class
    with pytest.raises(LevelViolation):
        steenrod_homological(xbar, lift=deep)
    mixed = _bar(P2, 2, {"h^1": 1, "h^2": 1})
    with pytest.raises(ValueError):
        steenrod_homological(mixed, lift=k0_from_chow_lift(mixed.lift()))
    # a lift must reduce to the input: h^2 and 2 h^1 are not lifts of h^1
    line = _bar(P2, 2, {"h^1": 1})
    for wrong in ({"h^2": 1}, {"h^1": 2}):
        with pytest.raises(ValueError):
            steenrod_homological(line, lift=k0_from_chow_lift(_cls(P2, wrong)))


def test_a_lift_on_another_variety_is_refused(monkeypatch):
    # a raw copy of P^2 has the same cells, so nothing but the variety
    # itself tells its classes apart; the split must never run
    from chowops import steenrod
    Y = CellularVariety(P2.name, P2.dim, P2.cells, pair_table(P2),
                        P2.degree_vector, P2.tangent_ch, P2.tau_columns)
    lift = k0_from_chow_lift(_cls(Y, {"h^1": 1}))
    monkeypatch.setattr(steenrod, "atiyah_decompose", None)
    with pytest.raises(VarietyMismatch):
        steenrod_homological(_bar(P2, 2, {"h^1": 1}), 2, lift=lift)


@pytest.mark.parametrize("lift", [P2.basis_class("h^1"), "h^1",
                                  {"h^1": 1}, 1])
def test_a_lift_that_is_not_a_kclass_is_refused(monkeypatch, lift):
    # a Chow class is not yet a lift: the error names its type and the way
    # to make one, before the split or any reading of the lift
    from chowops import steenrod
    monkeypatch.setattr(steenrod, "atiyah_decompose", None)
    for xbar in (_bar(P2, 2, {"h^1": 1}), _bar(P2, 2, {})):
        with pytest.raises(TypeError, match="^a lift must be a KClass, got "
                           "%s; lift a Chow class with k0_from_chow_lift$"
                           % type(lift).__name__):
            steenrod_homological(xbar, 2, lift=lift)


def test_an_explicit_lift_is_read_off_its_integer_pieces(monkeypatch):
    # one extraction, then each S_k mod p straight off the integer piece k:
    # no graded component of a piece and no reducing _like, of either kind
    from chowops.core import ChowClass, _CellVector
    import random
    rng = random.Random(11)
    X = odd_quadric(7)
    cases = []
    for p in (2, 3, 5):
        for label in X.labels():
            xbar = _bar(X, p, {label: p - 1})
            coeffs = {label: p - 1}
            for l, e in X.cells:
                if e <= X.cell_dim(label):
                    coeffs[l] = coeffs.get(l, 0) + p * rng.randint(-3, 3)
                if e < X.cell_dim(label):
                    coeffs[l] += rng.randint(-3, 3)
            lift = k0_from_chow_lift(_cls(X, coeffs))
            cases.append((xbar, p, lift, steenrod_homological(xbar, p)))
    calls = []

    def spy(cls, name):
        method = getattr(cls, name)

        def counting(self, *args, **kwargs):
            calls.append("%s.%s" % (cls.__name__, name))
            return method(self, *args, **kwargs)
        monkeypatch.setattr(cls, name, counting)

    spy(_CellVector, "dim_component")
    spy(ChowClass, "_like")
    spy(ModPClass, "_like")
    for xbar, p, lift, expected in cases:
        assert steenrod_homological(xbar, p, lift=lift) == expected
    assert calls == []


def test_lucas_binom():
    assert [lucas_binom(4, k, 2) for k in range(5)] == [1, 0, 0, 0, 1]
    assert [lucas_binom(5, k, 2) for k in range(6)] == [1, 1, 0, 0, 1, 1]
    assert lucas_binom(7, 3, 5) == (35 % 5)
    assert lucas_binom(10, 5, 3) == (252 % 3)


def test_classical_squares_on_p4():
    X = projective_space(4)
    for i in range(5):
        total = steenrod_total(steenrod_cohomological(_bar(X, 2, {"h^%d" % i: 1})))
        expected = {"h^%d" % (i + j): lucas_binom(i, j, 2)
                    for j in range(i + 1) if i + j <= 4 and lucas_binom(i, j, 2)}
        assert total == _bar(X, 2, expected)


def test_cartan_spot_p1xp1():
    Xa = Xb = P1
    XY = external_product(Xa.unit(), Xb.unit()).variety
    for p in (2, 3):
        if p - 1 > XY.dim:
            continue
        xa = _bar(Xa, p, {"h^1": 1})
        yb = _bar(Xb, p, {"h^1": 1})
        lhs = steenrod_total(steenrod_cohomological(external_product(xa, yb)))
        rhs = external_product(steenrod_total(steenrod_cohomological(xa)),
                               steenrod_total(steenrod_cohomological(yb)))
        assert lhs == rhs


# -- characteristic numbers and degree formulas ----------------------------------

def test_segre_values():
    assert segre_number(P1, 2) == 2
    assert segre_number(P2, 3) == -3
    assert segre_number(P2, 2) == 6
    assert segre_number(Q3, 2) % 2 == 0


def test_segre_dimension_guard():
    with pytest.raises(DimensionMismatch):
        segre_number(P1, 3)
    with pytest.raises(DimensionMismatch):
        segre_number(projective_space(0), 2)


def test_witness_for_point_class():
    pt = k0_from_chow_lift(make_class(P2, {"h^2": 1}))
    c, lam = degree_formula_witness(pt, 2)
    assert lam == 1
    assert c == _cls(P2, {"h^2": 1})


def test_witness_for_p1_structure_sheaf():
    c, lam = degree_formula_witness(structure_sheaf(P1), 2)
    # chi = 1, d = 1: a zero-cycle of degree lambda * 2
    assert Fraction(degree(c)) == lam * 2
    assert lam.numerator % 2 and lam.denominator % 2


def test_witness_on_quadric():
    x = structure_sheaf(Q3)
    c, lam = degree_formula_witness(x, 2)
    assert Fraction(degree(c)) == lam * Fraction(2) ** 3 * euler_char(x)
    for v in c.coeffs.values():
        assert Fraction(v).denominator % 2  # denominators prime to p


def test_chi_defect_of_self_maps():
    for m, p, exponent in ((3, 2, 0), (2, 3, 0), (5, 2, 0)):
        f = build_morphism("pn_self_map", degree=m)
        rep = chi_defect(f, p)
        assert rep["defect"] == 1 - m
        assert rep["exponent"] == exponent
        assert rep["witness_degree"] == \
            rep["lambda"] * Fraction(p) ** exponent * (1 - m)


def test_chi_defect_frozen_example():
    f = build_morphism("pn_self_map", degree=3)
    rep = chi_defect(f, 2)
    assert rep["defect"] == -2
    assert rep["delta_level"] == 0
    assert rep["lambda"] == 1
    assert rep["witness_degree"] == -2


def test_chi_defect_identity():
    rep = chi_defect(build_morphism("linear_embedding", m=2, n=2), 2)
    assert rep["defect"] == 0
    assert rep["witness"].is_zero()


def test_chi_defect_needs_equal_dimensions():
    f = build_morphism("linear_embedding", m=1, n=2)
    with pytest.raises(DimensionMismatch):
        chi_defect(f, 2)


def test_q3_operation_table_mod_2():
    # h-classes restrict from the ambient P^4 (pullback naturality), the
    # l-classes come from the twisted pushforward along P^j -> Q_3; both
    # routes are classical squares, worked out by hand:
    #   S(h)   = h + h^2 = h + 2 l_1 = h mod 2
    #   S(l_1) = push((1+h)[P^1]) = l_1 + l_0
    expected = {
        "h^0": {0: {"h^0": 1}},
        "h^1": {0: {"h^1": 1}},
        "l_1": {0: {"l_1": 1}, 1: {"l_0": 1}},
        "l_0": {0: {"l_0": 1}},
    }
    for label, table in expected.items():
        ops = steenrod_cohomological(_bar(Q3, 2, {label: 1}))
        for k in range(len(ops)):
            want = table.get(k, {})
            assert op_component(ops, k) == _bar(Q3, 2, want), (label, k)


def test_convention_names_dispatch_through_one_table():
    from chowops.steenrod import CONVENTIONS, steenrod_operation

    xbar = ModPClass(Q3, 2, {"h^1": 1})
    for name, full in CONVENTIONS.items():
        expected = (steenrod_cohomological(xbar) if full == "cohomological"
                    else steenrod_homological(xbar))
        assert steenrod_operation(xbar, convention=name) == expected
    for bad in ("Coh", "", None, ["coh"]):
        with pytest.raises(ValueError):
            steenrod_operation(xbar, convention=bad)
    with pytest.raises(ValueError):
        steenrod_operation(xbar, convention="coh",
                           lift=k0_from_chow_lift(xbar.lift()))
