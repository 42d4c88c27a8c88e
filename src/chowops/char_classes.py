"""Splitting-principle engine for characteristic classes of virtual bundles.

A virtual bundle is carried by its Chern character (a rational Chow class);
a multiplicative characteristic class is specified by its value on a single
Chern root, a truncated power series f with nonzero constant term f_0.
Writing f = f_0 exp(sum_k w_k t^k / k!), the class of a bundle e is
f_0^rank(e) exp(sum_k w_k ch_k(e)), the exponential taken inside the
(nilpotent) positive-codimension part of the Chow ring.  Everything is exact.

The log-weight vector (f_0, w_0..w_n) depends only on the series and the
truncation n, so `SeriesSpec.weights(n)` computes it once per spec and n, and
one spec per (name, p, n) serves the total Chern class (f = 1 + t), todd,
theta^p and w^{CH,p}.  The log class is then one pass over the Chern
character: u[l] = w_{codim l} ch[l].  The builders' classes of +-T_X
(`tangent_class`) take no exponential: by the Euler sequence
T_{P^n} = (n+1) O(1) - O and T_{Q_d} = (d+2) O(1) - O - O(2)
(`X.tangent_lines`), so a class is prod_a f(a h)^{m_a}, one integer power per
line (`series.spower`), and on X x Y the Kunneth product of the factors'.
On a cell Z, from the Euler sequence of its closure, the same closed form
is the builders' tau column tau[O_Z] = [Z] Todd(T_Z) (`line_sum_class`).
"""
from fractions import Fraction
from math import factorial

from . import series as S
from .core import (
    _built,
    _exp,
    _integer_form,
    class_from_json,
    class_to_json,
    coeff_from_str,
    kron,
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


_SPECS = {}  # (name, p, n) -> SeriesSpec of a built-in per-root series
# the built-in per-root series truncated at n: name -> series(p, n)
_SERIES = {"chern": lambda p, n: [1, 1], "todd": lambda p, n: S.todd_series(n),
           "theta": S.theta_series, "w": S.w_series}


def _spec(name, n, p=None):
    """The one spec of the built-in series name at p, truncated at n."""
    if p is not None:
        require_prime(p)
    key = (name, p, n)
    if key not in _SPECS:
        _SPECS[key] = SeriesSpec(_SERIES[name](p, n), name=name)
    return _SPECS[key]


def chern(e):
    """Total Chern class, per-root series 1 + t; integral input, integral output."""
    total = multiplicative_class(_spec("chern", e.variety.dim), e)
    if e.integral and not total.is_integral():
        raise IntegralityFailure(
            "total Chern class of an integral bundle came out fractional "
            "(corrupted ch data?)", variety=e.variety, bundle=e, total=total)
    return total


def todd(e):
    """Todd class, per-root series t/(1 - e^{-t})."""
    return multiplicative_class(_spec("todd", e.variety.dim), e)


def theta_p(e, p):
    """Bott's class: per-root series 1 + e^{-t} + ... + e^{-(p-1)t}."""
    return multiplicative_class(_spec("theta", e.variety.dim, p), e)


def w_chp(e, p):
    """The class with w[L] = 1 + (-c_1 L)^{p-1}; integral on integral bundles."""
    out = multiplicative_class(_spec("w", e.variety.dim, p), e)
    if e.integral and not out.is_integral():
        raise IntegralityFailure("w^{CH,%d} of an integral bundle came out "
                                 "fractional" % p, variety=e.variety, p=p,
                                 bundle=e, total=out)
    return out


_CHECKED = {"chern": chern, "todd": todd, "theta": theta_p, "w": w_chp}


def line_sum_class(X, name, lines, p=None, cell=None):
    """The class name of the line sum sum_a m_a O(a) (lines: the pairs
    (a, m_a)) on a builder with hyperplane class h, prod_a f(a h)^{m_a} up
    to the dimension n of cell (by default the fundamental one): one integer
    polynomial over one denominator (`series.spower` per line, f_0^m for
    a = 0), put on cell times the running powers of h and reduced once."""
    cell = cell or X.fundamental
    n, f = X._dims[cell], _spec(name, X.dim, p).coeffs
    poly, den = [1] + [0] * n, 1
    for a, m in lines:
        if a == 0:
            c = f[0] ** m
            poly, den = [v * c.numerator for v in poly], den * c.denominator
            continue
        g, d = S.spower(f, m, n)  # f(a h)^m is f^m with h^k scaled by a^k
        g = [v * a ** k for k, v in enumerate(g)]
        poly = [sum(v * g[k - j] for j, v in enumerate(poly[: k + 1]) if v)
                for k in range(n + 1)]
        den *= d
    out, power = {}, {cell: 1}
    for c in poly:
        for l, v in power.items():
            out[l] = out.get(l, 0) + c * v
        power = X._mul_into({}, power, X.hyperplane)
    return _built(X, out, den)


# -- per-variety caches -------------------------------------------------------

def _cached(X, key, fn):
    if key not in X._cache:
        X._cache[key] = fn()
    return X._cache[key]


def tangent_class(X, key, name, sign, p=None):
    """The class name of sign T_X (sign = +-1), cached on X under key: the
    `line_sum_class` of the Euler sequence `X.tangent_lines`, the Kunneth
    product of the factors' on X x Y, else the checked class of the bundle."""
    def build():
        if getattr(X, "builder", None) == "product":
            A, B = (tangent_class(F, key, name, sign, p) for F in X._factors)
            return _built(X, kron(A.num, B.num), A.den * B.den)
        if hasattr(X, "tangent_lines"):
            return line_sum_class(X, name, [(a, sign * m) for a, m
                                            in X.tangent_lines], p)
        e = tangent_bundle(X).scale(sign)
        return _CHECKED[name](e) if p is None else _CHECKED[name](e, p)
    return _cached(X, key, build)


def todd_class(X):
    return tangent_class(X, "todd", "todd", 1)


def todd_inv_class(X):
    # todd(-T) is the exact multiplicative inverse of todd(T)
    return tangent_class(X, "todd_inv", "todd", -1)


def theta_minus_tangent(X, p):
    return tangent_class(X, ("theta_minus_T", p), "theta", -1, p)


def w_tangent(X, p):
    return tangent_class(X, ("w_T", p), "w", 1, p)


def w_minus_tangent(X, p):
    return tangent_class(X, ("w_minus_T", p), "w", -1, p)
