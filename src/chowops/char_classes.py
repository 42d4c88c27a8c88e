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
character: u[l] = w_{codim l} ch[l].  f_0 is kept as the integers a / b, so
f_0^rank is a^r / b^r (b^r / a^r for rank -r < 0), two int powers handed to
the exponential: a class raises no `Fraction` to a power.  The builders' classes of +-T_X
(`tangent_class`) take no exponential: by the Euler sequence
T_{P^n} = (n+1) O(1) - O and T_{Q_d} = (d+2) O(1) - O - O(2)
(`X.tangent_lines`), so a class is prod_a f(a h)^{m_a}, one integer power per
line (`series.spower`), and on X x Y the Kunneth product of the factors'.
On a cell Z, from the Euler sequence of its closure, the same closed form
is the builders' tau column tau[O_Z] = [Z] Todd(T_Z) (`line_sum_class`).

The bundles themselves and their checked classes (`VirtualBundle`, `chern`,
`todd`, `theta_p`, `w_chp`) are in `bundles`, which only `verify` and
library callers load; `tangent_class` imports it only for a variety with no
Euler-sequence data.
"""
from fractions import Fraction
from math import factorial

from . import series as S
from .core import _built, _exp, _integer_form, kron
from .errors import NonInvertibleSeries, require_prime


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
        """(a, b, {k: W_k}, d) for k = 0..n: f_0 = a / b as integers in
        lowest terms, b > 0, and the log weights w_k = k! [t^k] log(f / f_0)
        as integers W_k = d w_k over one denominator d.

        Computed on the first call for each n and kept on the spec."""
        if n not in self._weights:
            f = S.series(self.coeffs, n)
            logs = S.slog(S.sscale(1 / f[0], f, n), n)
            self._weights[n] = (*f[0].as_integer_ratio(), *_integer_form(
                {k: factorial(k) * c for k, c in enumerate(logs)}))
        return self._weights[n]


def multiplicative_class(spec, e):
    """Unique multiplicative extension of a per-root series to virtual bundles.

    The log class u[l] = w_{codim l} ch[l] is formed in integers, over the
    weights' denominator times ch's, and f_0^rank = (a / b)^rank, as integer
    powers of a and b, rides along into the exponential's one denominator
    (`core._exp`); w_0 = 0, so u has no codim-0 part."""
    X = e.variety
    n, dims = X.dim, X._dims
    a, b, w, d = spec.weights(n)
    u = {l: c for l, v in e.ch.num.items() if (c := w[n - dims[l]] * v)}
    r = e.rank
    if r < 0:
        a, b, r = (b, a, -r) if a > 0 else (-b, -a, -r)
    return _exp(X, u, d * e.ch.den, a ** r, b ** r)


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
    product of the factors' on X x Y, else the checked class of the bundle
    (`bundles._CHECKED`)."""
    def build():
        if getattr(X, "builder", None) == "product":
            A, B = (tangent_class(F, key, name, sign, p) for F in X._factors)
            return _built(X, kron(A.num, B.num), A.den * B.den)
        if hasattr(X, "tangent_lines"):
            return line_sum_class(X, name, [(a, sign * m) for a, m
                                            in X.tangent_lines], p)
        from .bundles import _CHECKED, tangent_bundle
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
