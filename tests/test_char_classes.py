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
        for p in _primes({}, X):
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
