"""Truncated one-variable power series over exact rationals.

A series truncated at degree n is a list of n+1 Fractions [a_0, ..., a_n].
It is the per-Chern-root side of `char_classes`: the Todd, Bott and
w^{CH,p} series of one root, and the log that turns each into the weights
of a multiplicative class.  No other module of the package uses it; every
builder datum is a class in the Chow ring (`varieties`).  `sadd`, `spow`
and `exp_t` are references the tests use.

log is read off the derivative t d/dt, which multiplies a_k by k: g = log(a)
satisfies t a' = t g' a, so k g_k = k a_k - sum_{i<k} i g_i a_{k-i}, O(n^2)
coefficient products against O(n^3) for the power sum.  `exp_t` is only the
closed form e^{ct}; the one exponential of a class is the ring's,
`core.ChowClass.exp`.
"""
from fractions import Fraction
from math import factorial

from .errors import NonInvertibleSeries, SeriesDomainError


def series(coeffs, n):
    """Pad or truncate coeffs to length n+1, coercing to Fraction."""
    out = [Fraction(c) for c in coeffs[: n + 1]]
    out += [Fraction(0)] * (n + 1 - len(out))
    return out


def smul(a, b, n):
    out = [Fraction(0)] * (n + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > n:
            continue
        for j, bj in enumerate(b):
            if i + j > n:
                break
            if bj:
                out[i + j] += ai * bj
    return out


def sadd(a, b, n):
    return [a[i] + b[i] for i in range(n + 1)]


def sscale(c, a, n):
    c = Fraction(c)
    return [c * a[i] for i in range(n + 1)]


def spow(a, k, n):
    out = series([1], n)
    for _ in range(k):
        out = smul(out, a, n)
    return out


def sinv(a, n):
    """Multiplicative inverse; needs a nonzero constant term."""
    if a[0] == 0:
        raise NonInvertibleSeries("series has zero constant term")
    inv0 = Fraction(1, 1) / a[0]
    out = [inv0] + [Fraction(0)] * n
    for k in range(1, n + 1):
        acc = Fraction(0)
        for i in range(1, k + 1):
            acc += a[i] * out[k - i]
        out[k] = -inv0 * acc
    return out


def slog(a, n):
    """log of a series with constant term 1."""
    if a[0] != 1:
        raise SeriesDomainError("log needs constant term 1, got %s" % a[0])
    a = series(a, n)
    out = [Fraction(0)] * (n + 1)
    for k in range(1, n + 1):
        out[k] = a[k] - sum((i * out[i] * a[k - i] for i in range(1, k)),
                            Fraction(0)) / k
    return out


def exp_t(c, n):
    """e^{c t} truncated at degree n."""
    c = Fraction(c)
    return [c ** k / factorial(k) for k in range(n + 1)]


def todd_series(n):
    """t / (1 - e^{-t}): the Todd genus of a single Chern root."""
    # 1 - e^{-t} = t - t^2/2 + t^3/6 - ... ; divide out one factor of t first.
    body = [Fraction((-1) ** k, factorial(k + 1)) for k in range(n + 1)]
    return sinv(body, n)


def theta_series(p, n):
    """1 + e^{-t} + ... + e^{-(p-1)t}: Bott's class of a single root.

    Summed in closed form as ((1 - e^{-pt})/t) / ((1 - e^{-t})/t), so the
    work is O(n^2) whatever the size of p.
    """
    # (1 - e^{-ct})/t = sum_k (-1)^k c^{k+1} t^k / (k+1)!, and at c = 1 its
    # inverse is the Todd series
    num = [Fraction((-1) ** k * p ** (k + 1), factorial(k + 1))
           for k in range(n + 1)]
    return smul(num, todd_series(n), n)


def w_series(p, n):
    """1 + (-t)^{p-1}: the mod-p analogue of the total Chern class."""
    out = series([1], n)
    if p - 1 <= n:
        out[p - 1] += Fraction((-1) ** (p - 1))
    return out
