"""Truncated series arithmetic against closed forms, and the one module
that may use it: `char_classes`, for its per-root specs.  Every other datum
is built in the Chow ring."""
import ast
import os
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chowops
import oracles
from chowops import projective_space
from chowops import series as S
from chowops.errors import NonInvertibleSeries
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
    e = oracles.exp_t(2, 4)
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
    assert oracles.spow(a, 3, 3) == [1, 3, 3, 1]
    assert S.sscale(2, a, 3) == [2, 2, 0, 0]


def _series_imports(path):
    """The lines of the module at path that import chowops.series, by
    absolute or relative name."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import is from the package, chowops
            base = ".".join(filter(None, ["chowops" if node.level else "",
                                          node.module]))
            names = [base] + [base + "." + a.name for a in node.names]
        else:
            continue
        if any(n == "chowops.series" or n.startswith("chowops.series.")
               for n in names):
            found.append(node.lineno)
    return found


def test_only_char_classes_and_ktheory_import_series():
    # char_classes for its per-root series, ktheory for the P^n Adams matrix
    src = os.path.dirname(chowops.__file__)
    modules = sorted(f for f in os.listdir(src) if f.endswith(".py"))
    assert "varieties.py" in modules
    users = {f for f in modules if _series_imports(os.path.join(src, f))}
    assert users == {"char_classes.py", "ktheory.py"}


def test_static_check_sees_a_series_import(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from . import series as S\n"
                   "from .series import smul\n"
                   "import chowops.series\n"
                   "from chowops import series\n"
                   "from chowops.series import sinv\n"
                   "from . import core\n"
                   "from .core import series\n"
                   "import series\n")
    assert _series_imports(str(src)) == [1, 2, 3, 4, 5]


# -- the integer power ---------------------------------------------------------

def _fractions(power):
    g, d = power
    return [Fraction(v, d) for v in g]


@st.composite
def unit_series(draw):
    """A truncation n and a series of n + 1 Fractions, some of them zero,
    with a nonzero constant term."""
    n = draw(st.integers(0, 10))
    coeff = st.one_of(st.just(Fraction(0)), st.builds(
        Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 4)))
    head = draw(coeff.filter(bool))
    return [head] + draw(st.lists(coeff, min_size=n, max_size=n)), n


@settings(max_examples=150, deadline=None)
@given(unit_series(), st.integers(-6, 6), st.integers(-6, 6))
def test_powers_multiply_by_adding_exponents(case, a, b):
    f, n = case
    assert S.smul(_fractions(S.spower(f, a, n)), _fractions(S.spower(f, b, n)),
                  n) == _fractions(S.spower(f, a + b, n))
    assert S.smul(_fractions(S.spower(f, -1, n)), f, n) == S.series([1], n)


@settings(max_examples=150, deadline=None)
@given(unit_series(), st.integers(0, 6))
def test_power_equals_repeated_products(case, m):
    f, n = case
    assert _fractions(S.spower(f, m, n)) == oracles.spow(f, m, n)


def test_inverse_is_the_convolution_recurrences():
    for n in range(41):
        body = [Fraction((-1) ** k, factorial(k + 1)) for k in range(n + 1)]
        assert S.sinv(body, n) == S.todd_series(n) == \
            oracles.series_inverse_anew(body, n)
        td = S.todd_series(n)
        assert S.sinv(td, n) == oracles.series_inverse_anew(td, n)
    with pytest.raises(NonInvertibleSeries, match="zero constant term"):
        S.sinv(S.series([0, 1], 4), 4)
    with pytest.raises(NonInvertibleSeries):
        S.spower([Fraction(0), Fraction(1, 2)], 3, 1)
