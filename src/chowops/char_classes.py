"""Splitting-principle engine for characteristic classes of virtual bundles.

A virtual bundle is carried by its Chern character (a rational Chow class);
a multiplicative characteristic class is specified by its value on a single
Chern root, a truncated power series f with nonzero constant term f_0.
Writing f = f_0 exp(sum_k w_k t^k / k!), the class of a bundle e is
f_0^rank(e) exp(sum_k w_k ch_k(e)), the exponential taken inside the
(nilpotent) positive-codimension part of the Chow ring.  Everything is exact.

The log-weight vector (f_0, w_0..w_n) depends only on the series and the
truncation n, so `SeriesSpec.weights(n)` computes it once per spec and n, and
one spec per (name, n) serves the total Chern class (f = 1 + t), todd,
theta^p and w^{CH,p}.  The log class is then one pass over the Chern
character: u[l] = w_{codim l} ch[l].
"""
from fractions import Fraction
from math import factorial

from . import series as S
from .core import (
    _exp,
    _integer_form,
    class_from_json,
    class_to_json,
    coeff_from_str,
)
from .errors import (
    IntegralityFailure,
    NonIntegralInput,
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
        self._weights = {}

    def weights(self, n):
        """(f_0, {k: W_k}, d) for k = 0..n: the log weights
        w_k = k! [t^k] log(f / f_0) as integers W_k = d w_k over one
        denominator d.

        Computed on the first call for each n and kept on the spec."""
        if n not in self._weights:
            f = S.series(self.coeffs, n)
            logs = S.slog(S.sscale(1 / f[0], f, n), n)
            self._weights[n] = (f[0], *_integer_form(
                {k: factorial(k) * c for k, c in enumerate(logs)}))
        return self._weights[n]


class VirtualBundle:
    """Element of K^0(X) given by integer rank and Chern character."""

    __slots__ = ("variety", "rank", "ch", "integral")

    def __init__(self, variety, rank, ch, integral=True):
        if not isinstance(rank, int):
            raise TypeError("rank must be an integer")
        if ch.variety is not variety:
            raise ValueError("ch lives on the wrong variety")
        if ch.num.get(variety.fundamental, 0) != rank * ch.den:
            raise ValueError("codim-0 component of ch (%s) must equal rank (%d)"
                             % (ch.coeffs.get(variety.fundamental, 0), rank))
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
        one = self.variety.fundamental
        return {"rank": str(self.rank),
                "ch": {"1" if l == one else l: v
                       for l, v in class_to_json(self.ch).items()}}

    @classmethod
    def from_json(cls, variety, obj, integral=True):
        if not isinstance(obj, dict):
            raise ValueError("a bundle must be a JSON object, got %.40r" % (obj,))
        rank = coeff_from_str(obj.get("rank"))
        if not isinstance(rank, int):
            raise ValueError("a bundle's rank must be an integer, got %s"
                             % rank)
        bundle = cls(variety, rank, class_from_json(variety, obj.get("ch", {})),
                     integral=integral)
        from .ktheory import tau_lattice
        if integral and not tau_lattice(variety).membership(
                bundle.ch * todd_class(variety)):
            raise NonIntegralInput("bundle declared integral has ch * Todd(T_X) "
                                   "outside the tau-lattice")
        return bundle


def trivial_bundle(X, rank):
    return VirtualBundle(X, rank, X.unit().scale(rank))


def tangent_bundle(X):
    return VirtualBundle(X, X.dim, X.tangent_chern_character())


def multiplicative_class(spec, e):
    """Unique multiplicative extension of a per-root series to virtual bundles.

    The log class u[l] = w_{codim l} ch[l] is formed in integers, over the
    weights' denominator times ch's, and a0^rank rides along into the
    exponential's one denominator (`core._exp`); w_0 = 0, so u has no
    codim-0 part."""
    X = e.variety
    n, dims = X.dim, X._dims
    a0, w, d = spec.weights(n)
    u = {l: c for l, v in e.ch.num.items() if (c := w[n - dims[l]] * v)}
    return _exp(X, u, d * e.ch.den, a0 ** e.rank)


_SPECS = {}  # (name, n) -> SeriesSpec of a built-in per-root series


def _spec(name, build, n):
    """The one spec of a built-in series truncated at n, built on first use."""
    key = (name, n)
    if key not in _SPECS:
        _SPECS[key] = SeriesSpec(build(n), name=name)
    return _SPECS[key]


def chern(e):
    """Total Chern class, per-root series 1 + t; integral input, integral output."""
    total = multiplicative_class(_spec("chern", lambda n: [1, 1],
                                       e.variety.dim), e)
    if e.integral and not total.is_integral():
        raise IntegralityFailure(
            "total Chern class of an integral bundle came out fractional "
            "(corrupted ch data?)", variety=e.variety, bundle=e, total=total)
    return total


def todd(e):
    """Todd class, per-root series t/(1 - e^{-t})."""
    return multiplicative_class(_spec("todd", S.todd_series, e.variety.dim), e)


def theta_p(e, p):
    """Bott's class: per-root series 1 + e^{-t} + ... + e^{-(p-1)t}."""
    require_prime(p)
    spec = _spec("theta^%d" % p, lambda n: S.theta_series(p, n),
                 e.variety.dim)
    return multiplicative_class(spec, e)


def w_chp(e, p):
    """The class with w[L] = 1 + (-c_1 L)^{p-1}; integral on integral bundles."""
    require_prime(p)
    spec = _spec("w^{CH,%d}" % p, lambda n: S.w_series(p, n), e.variety.dim)
    out = multiplicative_class(spec, e)
    if e.integral and not out.is_integral():
        raise IntegralityFailure("w^{CH,%d} of an integral bundle came out "
                                 "fractional" % p, variety=e.variety, p=p,
                                 bundle=e, total=out)
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
