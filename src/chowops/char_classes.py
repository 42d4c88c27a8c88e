"""Splitting-principle engine for characteristic classes of virtual bundles.

A virtual bundle is carried by its Chern character (a rational Chow class);
a multiplicative characteristic class is specified by its value on a single
Chern root, a truncated power series with nonzero constant term.  Evaluation
converts the Chern character to power sums of the roots, feeds them through
the logarithm of the per-root series, and exponentiates back inside the
(nilpotent) positive-codimension part of the Chow ring.  Everything is exact.
"""
from fractions import Fraction
from math import factorial

from . import series as S
from .core import class_from_json, coeff_from_str, coeff_to_str
from .errors import (
    IntegralityViolation,
    NonInvertibleSeries,
    require_prime,
)


class SeriesSpec:
    """Per-Chern-root series defining a multiplicative class.

    The constant term must be nonzero; it need not be 1 (Bott's class has
    constant term p).
    """

    def __init__(self, coeffs, name=""):
        self.coeffs = [Fraction(c) for c in coeffs]
        if not self.coeffs or self.coeffs[0] == 0:
            raise NonInvertibleSeries("multiplicative series needs a nonzero "
                                      "constant term")
        self.name = name

    def truncated(self, n):
        return S.series(self.coeffs, n)


class VirtualBundle:
    """Element of K^0(X) given by integer rank and Chern character."""

    __slots__ = ("variety", "rank", "ch", "integral")

    def __init__(self, variety, rank, ch, integral=True):
        if not isinstance(rank, int):
            raise TypeError("rank must be an integer")
        if ch.variety is not variety:
            raise ValueError("ch lives on the wrong variety")
        r0 = ch.coeffs.get(variety.fundamental, 0)
        if Fraction(r0) != rank:
            raise ValueError("codim-0 component of ch (%s) must equal rank (%d)"
                             % (r0, rank))
        self.variety = variety
        self.rank = rank
        self.ch = ch
        self.integral = integral

    def __add__(self, other):
        self._same(other)
        return VirtualBundle(self.variety, self.rank + other.rank,
                             self.ch + other.ch,
                             integral=self.integral and other.integral)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return VirtualBundle(self.variety, -self.rank, -self.ch,
                             integral=self.integral)

    def __mul__(self, other):
        """Tensor product: Chern characters multiply."""
        self._same(other)
        return VirtualBundle(self.variety, self.rank * other.rank,
                             self.ch * other.ch,
                             integral=self.integral and other.integral)

    def scale(self, k):
        if not isinstance(k, int):
            raise TypeError("virtual bundles only scale by integers")
        return VirtualBundle(self.variety, self.rank * k, self.ch.scale(k),
                             integral=self.integral)

    def _same(self, other):
        if self.variety is not other.variety:
            raise ValueError("bundles live on different varieties")

    def __eq__(self, other):
        if not isinstance(other, VirtualBundle):
            return NotImplemented
        return (self.variety is other.variety and self.rank == other.rank
                and self.ch == other.ch)

    def __repr__(self):
        return "VirtualBundle(%s, rank=%d)" % (self.variety.name, self.rank)

    def to_json(self):
        ch = {}
        for l, v in sorted(self.ch.coeffs.items()):
            key = "1" if l == self.variety.fundamental else l
            ch[key] = coeff_to_str(v)
        return {"rank": str(self.rank), "ch": ch}

    @classmethod
    def from_json(cls, variety, obj, integral=True):
        if not isinstance(obj, dict):
            raise ValueError("a bundle must be a JSON object, got %.40r" % (obj,))
        rank = coeff_from_str(obj.get("rank"))
        ch = class_from_json(variety, obj.get("ch", {}))
        return cls(variety, rank, ch, integral=integral)


def trivial_bundle(X, rank):
    return VirtualBundle(X, rank, X.unit().scale(rank))


def tangent_bundle(X):
    return VirtualBundle(X, X.dim, X.tangent_chern_character())


def power_sums(e):
    """p_k = k! ch_k as Chow classes, k = 1..dim."""
    X = e.variety
    return [e.ch.codim_component(k).scale(factorial(k))
            for k in range(1, X.dim + 1)]


def multiplicative_class(spec, e):
    """Unique multiplicative extension of a per-root series to virtual bundles."""
    X = e.variety
    n = X.dim
    f = spec.truncated(n)
    a0 = f[0]
    if a0 == 0:
        raise NonInvertibleSeries("series has zero constant term")
    logs = S.slog(S.sscale(1 / a0, f, n), n)
    u = X.zero()
    for k, pk in enumerate(power_sums(e), start=1):
        if logs[k] and not pk.is_zero():
            u = u + pk.scale(logs[k])
    return u.exp().scale(Fraction(a0) ** e.rank)


def chern(e):
    """Total Chern class via Newton's identities; integral input, integral output."""
    X = e.variety
    ps = power_sums(e)
    cs = [X.unit()]  # cs[k] = c_k
    for k in range(1, X.dim + 1):
        acc = X.zero()
        for i in range(1, k + 1):
            term = cs[k - i] * ps[i - 1]
            acc = acc + (term if i % 2 == 1 else -term)
        cs.append(acc.scale(Fraction(1, k)))
    cs = cs[1:]
    total = X.unit()
    for c in cs:
        total = total + c
    if e.integral and not total.is_integral():
        raise IntegralityViolation(
            "total Chern class of an integral bundle came out fractional "
            "(corrupted ch data?): %r" % total)
    return total.as_integral() if e.integral else total


def todd(e):
    """Todd class, per-root series t/(1 - e^{-t})."""
    return multiplicative_class(
        SeriesSpec(S.todd_series(e.variety.dim), name="todd"), e)


def theta_p(e, p):
    """Bott's class: per-root series 1 + e^{-t} + ... + e^{-(p-1)t}."""
    require_prime(p)
    return multiplicative_class(
        SeriesSpec(S.theta_series(p, e.variety.dim), name="theta^%d" % p), e)


def w_chp(e, p):
    """The class with w[L] = 1 + (-c_1 L)^{p-1}; integral on integral bundles."""
    require_prime(p)
    out = multiplicative_class(
        SeriesSpec(S.w_series(p, e.variety.dim), name="w^{CH,%d}" % p), e)
    if e.integral:
        if not out.is_integral():
            raise IntegralityViolation("w^{CH,%d} of an integral bundle came "
                                       "out fractional" % p)
        return out.as_integral()
    return out


# -- per-variety caches -------------------------------------------------------

def _cached(X, key, fn):
    if key not in X._cache:
        X._cache[key] = fn()
    return X._cache[key]


def todd_class(X):
    return _cached(X, "todd", lambda: todd(tangent_bundle(X)))


def todd_inv_class(X):
    # todd(-T) is the exact multiplicative inverse of todd(T)
    return _cached(X, "todd_inv", lambda: todd(-tangent_bundle(X)))


def theta_minus_tangent(X, p):
    return _cached(X, ("theta_minus_T", p), lambda: theta_p(-tangent_bundle(X), p))


def w_tangent(X, p):
    return _cached(X, ("w_T", p), lambda: w_chp(tangent_bundle(X), p))


def w_minus_tangent(X, p):
    return _cached(X, ("w_minus_T", p), lambda: w_chp(-tangent_bundle(X), p))
