"""Truncated series arithmetic against closed forms."""
from fractions import Fraction
from math import factorial

import pytest

from chowops import projective_space
from chowops import series as S
from oracles import h_powers_on_pn


def test_todd_series_coefficients():
    td = S.todd_series(4)
    assert td == [Fraction(1), Fraction(1, 2), Fraction(1, 12), Fraction(0),
                  Fraction(-1, 720)]


def test_inverse_is_two_sided():
    a = S.series([3, 1, Fraction(1, 2), 7], 5)
    inv = S.sinv(a, 5)
    assert S.smul(a, inv, 5) == S.series([1], 5)
    assert S.smul(inv, a, 5) == S.series([1], 5)


def test_exp_log_round_trip():
    # the one exponential is the ring's: on P^n, t^k <-> h^k is a ring map
    n = 6
    a = S.series([1, 2, Fraction(-1, 3), 5], n)
    Pn = projective_space(n)
    assert h_powers_on_pn(Pn, S.slog(a, n)).exp() == h_powers_on_pn(Pn, a)


def test_exp_t_matches_factorials():
    e = S.exp_t(2, 4)
    assert e == [Fraction(2) ** k / S.factorial(k) for k in range(5)]


def test_theta_series_p2():
    # 1 + e^{-t}
    th = S.theta_series(2, 3)
    assert th == [Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(-1, 6)]
    assert S.theta_series(3, 1) == [Fraction(3), Fraction(-3)]


def test_theta_series_closed_form_matches_the_sum():
    for p in (2, 3, 5, 7):
        for n in range(10):
            direct = [sum(Fraction((-j) ** k, factorial(k)) for j in range(p))
                      for k in range(n + 1)]
            assert S.theta_series(p, n) == direct


def test_exp_and_log_reject_wrong_constant_terms():
    from chowops.errors import SeriesDomainError
    with pytest.raises(SeriesDomainError):
        S.slog(S.series([2, 1], 3), 3)


def test_w_series():
    assert S.w_series(2, 3) == [1, -1, 0, 0]
    assert S.w_series(3, 3) == [1, 0, 1, 0]
    assert S.w_series(5, 3) == [1, 0, 0, 0]


def test_pow_and_scale():
    a = S.series([1, 1], 3)
    assert S.spow(a, 3, 3) == [1, 3, 3, 1]
    assert S.sscale(2, a, 3) == [2, 2, 0, 0]
