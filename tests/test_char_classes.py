"""Characteristic classes: worked examples, Whitney sums, integrality."""
import random
from fractions import Fraction
from math import isqrt

import pytest

from chowops import (
    SeriesSpec,
    VirtualBundle,
    chern,
    line_bundle,
    make_class,
    multiplicative_class,
    odd_quadric,
    projective_space,
    tangent_bundle,
    theta_p,
    todd,
    trivial_bundle,
    w_chp,
)
from chowops.errors import (
    PRIME_BOUND,
    IntegralityViolation,
    NonIntegralInput,
    NonInvertibleSeries,
    require_prime,
)
from chowops import char_classes as CC
from chowops import series as S
from chowops.verify import _primes, default_builders, random_bundle, run_suite
from oracles import pair_table


P1 = projective_space(1)
P2 = projective_space(2)


def _cls(X, coeffs):
    return make_class(X, coeffs)


def test_todd_examples():
    assert todd(trivial_bundle(P2, 0)) == P2.unit()
    assert todd(tangent_bundle(P1)) == _cls(P1, {"h^0": 1, "h^1": 1})
    assert todd(-tangent_bundle(P1)) == _cls(P1, {"h^0": 1, "h^1": -1})
    assert todd(tangent_bundle(P2)) == \
        _cls(P2, {"h^0": 1, "h^1": Fraction(3, 2), "h^2": 1})


def test_chern_examples():
    assert chern(line_bundle(P2, 1)) == make_class(P2, {"h^0": 1, "h^1": 1})
    assert chern(tangent_bundle(P2)) == \
        make_class(P2, {"h^0": 1, "h^1": 3, "h^2": 3})
    assert chern(trivial_bundle(P2, 0)) == P2.unit()


def test_theta_examples():
    assert theta_p(trivial_bundle(P1, 3), 2) == P1.unit().scale(8)
    assert theta_p(line_bundle(P1, 1), 2) == _cls(P1, {"h^0": 2, "h^1": -1})
    assert theta_p(-tangent_bundle(P1), 2) == \
        _cls(P1, {"h^0": Fraction(1, 2), "h^1": Fraction(1, 2)})
    # negative rank gives the honest p^rank constant
    assert theta_p(trivial_bundle(P1, -2), 3) == \
        P1.unit().scale(Fraction(1, 9))


def test_w_examples():
    assert w_chp(line_bundle(P2, 1), 2) == make_class(P2, {"h^0": 1, "h^1": -1})
    assert w_chp(-tangent_bundle(P2), 2) == \
        make_class(P2, {"h^0": 1, "h^1": 3, "h^2": 6})
    assert w_chp(tangent_bundle(P2), 3) == make_class(P2, {"h^0": 1, "h^2": 3})


def test_multiplicative_identity_series():
    ones = SeriesSpec([1])
    for e in (tangent_bundle(P2), line_bundle(P2, -2), trivial_bundle(P2, 5)):
        assert multiplicative_class(ones, e) == P2.unit()


def test_series_spec_needs_unit_constant():
    with pytest.raises(NonInvertibleSeries):
        SeriesSpec([0, 1])


def test_chern_integrality_assertion():
    corrupt = VirtualBundle(
        P2, 1, _cls(P2, {"h^0": 1, "h^1": Fraction(1, 3)}), integral=True)
    with pytest.raises(IntegralityViolation):
        chern(corrupt)
    # the same data declared rational is fine
    ok = VirtualBundle(P2, 1, _cls(P2, {"h^0": 1, "h^1": Fraction(1, 3)}),
                       integral=False)
    assert chern(ok).coeffs["h^1"] == Fraction(1, 3)


def test_virtual_bundle_rank_consistency():
    with pytest.raises(ValueError):
        VirtualBundle(P2, 2, _cls(P2, {"h^0": 1}))


def test_virtual_bundle_rank_is_an_int_not_a_bool():
    with pytest.raises(TypeError):
        VirtualBundle(P2, True, P2.unit())
    assert VirtualBundle(P2, 1, P2.unit()).rank == 1


@pytest.mark.parametrize("other", [1, "x", None, P2.unit()])
def test_a_bundle_adds_and_multiplies_only_bundles(other):
    e = VirtualBundle(P2, 1, P2.unit())
    for op in (lambda: e + other, lambda: e - other, lambda: e * other):
        with pytest.raises(TypeError):
            op()


def test_primality_is_enforced():
    for bad in (4, 6, 1, 0, -3):
        with pytest.raises(ValueError):
            theta_p(tangent_bundle(P2), bad)
        with pytest.raises(ValueError):
            w_chp(tangent_bundle(P2), bad)


def test_whitney_sums_fixed_cases():
    for X in (P2, odd_quadric(3)):
        e = tangent_bundle(X)
        f = line_bundle(X, 2) + line_bundle(X, -1)
        assert todd(e + f) == todd(e) * todd(f)
        assert chern(e + f) == chern(e) * chern(f)
        for p in (2, 3):
            assert theta_p(e + f, p) == theta_p(e, p) * theta_p(f, p)
            assert w_chp(e + f, p) == w_chp(e, p) * w_chp(f, p)


def test_theta_inverse_law():
    rng = random.Random(7)
    for X in (P1, P2, odd_quadric(3)):
        for _ in range(25):
            e = random_bundle(X, rng)
            assert theta_p(e, 2) * theta_p(-e, 2) == X.unit()


def test_w2_is_alternating_total_chern():
    rng = random.Random(11)
    for X in (P2, odd_quadric(3)):
        for _ in range(25):
            e = random_bundle(X, rng)
            c = chern(e)
            alt = X.zero()
            for i in range(X.dim + 1):
                alt = alt + c.codim_component(i).scale((-1) ** i)
            assert w_chp(e, 2) == alt


@pytest.mark.parametrize("spec", ["P^2", "Q_3", "P^1xP^1"])
def test_classes_at_every_sign_of_rank_take_no_fraction_power(spec,
                                                             monkeypatch):
    # f_0^rank enters the exponential as integer powers of the numerator
    # and denominator of f_0 (theta^p has f_0 = p): the classes agree with
    # the power-sum oracle at ranks -3..3, and no Fraction is raised to a
    # power on the way
    import oracles
    from chowops import variety_from_spec
    X = variety_from_spec(spec)
    T, O1 = tangent_bundle(X), line_bundle(X, 1)
    cases = [("chern", None), ("todd", None)]
    cases += [(name, p) for name in ("theta", "w") for p in (2, 3, 5)]
    powers, power = [], Fraction.__pow__
    for rank in range(-3, 4):
        # rank r, with every Chern character component in play
        e = O1.scale(rank + 1) + T - trivial_bundle(X, X.dim + 1)
        assert e.rank == rank
        for name, p in cases:
            want = oracles.multiplicative_class_anew(name, e, p)
            series = CC._spec(name, X.dim, p)
            monkeypatch.setattr(Fraction, "__pow__", lambda *a: powers.append(
                a[1:]) or power(*a))
            got = CC.multiplicative_class(series, e)
            monkeypatch.setattr(Fraction, "__pow__", power)
            assert got == want, (name, p, rank)
    assert powers == []


def test_a_negative_constant_term_is_raised_to_any_rank():
    # f = f_0 g with g(0) = 1 gives f_0^rank times the class of g
    g = SeriesSpec([1, Fraction(1, 2), 3])
    f = SeriesSpec([Fraction(-2, 3), Fraction(-1, 3), -2])
    T = tangent_bundle(P2)
    for rank in range(-3, 4):
        e = line_bundle(P2, -1).scale(rank - 2) + T
        assert e.rank == rank
        assert multiplicative_class(f, e) == multiplicative_class(g, e).scale(
            Fraction(-2, 3) ** rank)


@pytest.mark.parametrize("n", [24, 40])
def test_classes_of_large_tangent_bundles_match_the_power_sums(n):
    # the exponential reduces each codimension's block on its own before
    # taking the lcm; the result is the power-sum oracle's, in lowest terms
    from math import lcm

    import oracles
    X = projective_space(n)
    T = tangent_bundle(X)
    for e in (T, -T):
        for got, want in ((todd(e), oracles.multiplicative_class_anew("todd", e)),
                          (theta_p(e, 3),
                           oracles.multiplicative_class_anew("theta", e, 3)),
                          (w_chp(e, 2), oracles.multiplicative_class_anew("w", e, 2))):
            assert got == want
            assert got.den == lcm(*[Fraction(v).denominator
                                    for v in got.coeffs.values()])


def test_bundle_json_round_trip():
    e = tangent_bundle(P2) + trivial_bundle(P2, 1)
    blob = e.to_json()
    assert blob == {"rank": "3", "ch": {"1": "3", "h^1": "3", "h^2": "3/2"}}
    back = VirtualBundle.from_json(P2, blob)
    assert back == e


def test_whitney_takes_each_series_log_once(monkeypatch):
    # one log-weight vector per (series, p, dim): the suite's thousands of
    # classes, Chern classes among them, take the log of each per-root
    # series exactly once
    calls = []
    slog = S.slog

    def counting(a, n):
        calls.append((tuple(a), n))
        return slog(a, n)

    monkeypatch.setattr(S, "slog", counting)
    monkeypatch.setattr(CC, "_SPECS", {})
    assert run_suite("whitney", trials=25)["passed"]
    keys = set()
    for X in default_builders():
        keys |= {("todd", X.dim), ("chern", X.dim)}
        for p in _primes({"p": None}, X):
            keys |= {("theta", p, X.dim), ("w", p, X.dim)}
    assert len(calls) == len(set(calls)) == len(keys)


@pytest.mark.parametrize("obj", [[1], "x", 5, None, {}, {"rank": "1/0"},
                                 {"rank": 2, "ch": [1]}])
def test_bundle_json_rejects_malformed_input(obj):
    with pytest.raises(ValueError):
        VirtualBundle.from_json(P2, obj)


def test_bundle_json_rank_is_not_truncated():
    with pytest.raises(ValueError, match="rank must be an integer"):
        VirtualBundle.from_json(P2, {"rank": "3/2", "ch": {"1": "3/2"}})


def test_bundle_json_declared_integral_is_checked():
    # ch = 1 + h/2 is no bundle's: ch * Todd(T_X) is outside the tau-lattice
    obj = {"rank": "1", "ch": {"1": "1", "h^1": "1/2"}}
    with pytest.raises(NonIntegralInput, match="outside the tau-lattice"):
        VirtualBundle.from_json(P2, obj)
    assert not VirtualBundle.from_json(P2, obj, integral=False).integral


def test_bundle_arithmetic():
    e = line_bundle(P2, 1)
    f = line_bundle(P2, -1)
    assert (e * f).ch == P2.unit()  # O(1) tensor O(-1) = O
    assert (e + f).rank == 2
    assert (-e).rank == -1
    assert e.scale(3).rank == 3


def test_require_prime_matches_trial_division():
    def is_prime(n):
        return n > 1 and all(n % q for q in range(2, isqrt(n) + 1))

    for n in range(-3, 5000):
        if is_prime(n):
            require_prime(n)
        else:
            with pytest.raises(ValueError):
                require_prime(n)


def test_require_prime_on_large_inputs():
    require_prime(1000003)
    require_prime(2 ** 61 - 1)
    # strong pseudoprimes to the first 8, 11 and 12 prime bases, and a
    # multiple of 3
    for n in (341550071728321, 3825123056546413051, 318665857834031151167461,
              2 ** 61 + 1):
        with pytest.raises(ValueError):
            require_prime(n)
    with pytest.raises(ValueError):
        require_prime(PRIME_BOUND)


# -- closed forms on the builders ----------------------------------------------

CLOSED_FORM_SHAPES = [
    "P^0", "P^1", "P^2", "P^3", "P^8", "P^12", "P^24",
    "Q_1", "Q_3", "Q_5", "Q_7", "Q_9", "Q_15",
    "P^1xP^1", "P^2xQ_3", "P^4xP^4", "P^2xP^2xP^2xP^2", "P^0xQ_1",
    "P^1xQ_3", "Q_3xP^2", "P^1xP^2xQ_3"]
CLOSED_FORM_PRIMES = [2, 3, 5, 7, 101, 3317044064679887385961813]


@pytest.mark.parametrize("spec", CLOSED_FORM_SHAPES)
def test_builder_tangent_classes_equal_the_generic_exponential(spec):
    # the Euler-sequence powers on P^n and Q_d and their Kunneth products
    # give the multiplicative class of +-T_X itself, in lowest terms
    from chowops import variety_from_spec
    X = variety_from_spec(spec, max_dim=40)
    T = tangent_bundle(X)
    cases = [("todd", None), ("chern", None)] + [
        (name, p) for name in ("theta", "w") for p in CLOSED_FORM_PRIMES]
    for name, p in cases:
        for sign, e in ((1, T), (-1, -T)):
            got = CC.tangent_class(X, ("closed form", name, p, sign), name,
                                   sign, p)
            want = multiplicative_class(CC._spec(name, X.dim, p), e)
            assert (got.num, got.den) == (want.num, want.den), (name, p, sign)


def _refuse_exponentials(monkeypatch):
    from chowops import core

    def refuse(*args, **kwargs):
        raise AssertionError("a builder's tangent class took the generic route")

    for module, name in ((core, "_exp"), (CC, "_exp"),
                         (CC, "multiplicative_class")):
        monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize("spec", ["P^12", "Q_9", "P^2xQ_3"])
def test_fresh_builder_accessors_take_no_exponential(monkeypatch, spec):
    from chowops import varieties, variety_from_spec
    monkeypatch.setattr(varieties, "_VARIETY_CACHE", {})
    X = variety_from_spec(spec, max_dim=12)
    _refuse_exponentials(monkeypatch)
    CC.todd_class(X)
    CC.todd_inv_class(X)
    for p in (2, 3, 5):
        CC.w_tangent(X, p)
        CC.w_minus_tangent(X, p)
    assert CC.todd_class(X) * CC.todd_inv_class(X) == X.unit()


def test_a_tables_copy_of_a_builder_takes_the_checked_route(monkeypatch):
    # the same data given to CellularVariety has no Euler-sequence record,
    # so its classes come from multiplicative_class, with its checks
    from chowops import CellularVariety
    Y = CellularVariety(P2.name, P2.dim, P2.cells, pair_table(P2),
                        P2.degree_vector, P2.tangent_ch, P2.tau_columns)
    calls = []
    generic = CC.multiplicative_class

    def counting(spec, e):
        calls.append(spec.name)
        return generic(spec, e)

    monkeypatch.setattr(CC, "multiplicative_class", counting)
    for got, want in ((CC.todd_class(Y), CC.todd_class(P2)),
                      (CC.todd_inv_class(Y), CC.todd_inv_class(P2)),
                      (CC.w_tangent(Y, 3), CC.w_tangent(P2, 3)),
                      (CC.w_minus_tangent(Y, 2), CC.w_minus_tangent(P2, 2)),
                      (CC.theta_minus_tangent(Y, 5),
                       CC.theta_minus_tangent(P2, 5))):
        assert (got.num, got.den) == (want.num, want.den)
    assert calls == ["todd", "todd", "w", "w", "theta"]


def test_todd_of_a_large_projective_space_stays_over_a_small_denominator(
        monkeypatch):
    # the power runs over one running denominator, reduced as it goes: on
    # P^127 it stays near 600 bits, where n! f_0^n would be 93 000
    from chowops import varieties
    monkeypatch.setattr(varieties, "_VARIETY_CACHE", {})
    dens = []
    spower = S.spower

    def recording(a, m, n):
        g, d = spower(a, m, n)
        dens.append(d)
        return g, d

    monkeypatch.setattr(S, "spower", recording)
    td = CC.todd_class(projective_space(127))
    assert dens and max(d.bit_length() for d in dens) < 1000
    assert td.den.bit_length() < 1000
