"""Truncated one-variable power series over exact rationals.

A series truncated at degree n is a list of n+1 Fractions [a_0, ..., a_n].
It is the per-Chern-root side of `char_classes`: the Todd, Bott and
w^{CH,p} series of one root, the log that turns each into the weights
of a multiplicative class, and the powers f^m that `char_classes` puts on
a builder's cells (its classes of T_X, its tau columns [Z] Todd(T_Z)).  The
one other user is `ktheory`, whose Adams matrix of P^n is one power per
column.  `spower` is a^m for any integer m, in integers, and `sinv` its
m = -1.

log is read off the derivative t d/dt, which multiplies a_k by k: g = log(a)
satisfies t a' = t g' a, so k g_k = k a_k - sum_{i<k} i g_i a_{k-i}, O(n^2)
coefficient products against O(n^3) for the power sum.  There is no series
exponential: the one exponential of a class is the ring's,
`core.ChowClass.exp`.
"""
from fractions import Fraction
from math import factorial, gcd, lcm

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


def sscale(c, a, n):
    c = Fraction(c)
    return [c * a[i] for i in range(n + 1)]


def spower(a, m, n):
    """(g, d): a^m truncated at n, a[0] != 0, as integers g over d.

    Miller's recurrence k a_0 g_k = sum_i ((m+1) i - k) a_i g_{k-i} runs on
    a times the lcm of its denominators, skipping zero a_i (a sparse series
    costs O(n)), over one running denominator: each g_k is reduced by a gcd,
    and the earlier terms are rescaled only to a new lcm; a_0^m goes to d,
    taken as a Fraction only when a_0 != 1."""
    a = a[: n + 1]
    if a[0] == 0:
        raise NonInvertibleSeries("series has zero constant term")
    D = lcm(*(c.denominator for c in a)) * (1 if a[0] > 0 else -1)
    A0, *A = (c.numerator * (D // c.denominator) for c in a)
    terms = [(i, c) for i, c in enumerate(A, 1) if c]
    g, E = [1], 1
    for k in range(1, n + 1):
        s = sum(((m + 1) * i - k) * c * g[k - i] for i, c in terms if i <= k)
        r = gcd(s, k * A0 * E)  # A0 > 0
        s, q = s // r, k * A0 * E // r
        L = lcm(E, q)
        if L != E:
            g, E = [v * (L // E) for v in g], L
        g.append(s * (E // q))
    a0 = Fraction(a[0]) ** m if a[0] != 1 else 1
    return [v * a0.numerator for v in g], E * a0.denominator


def sinv(a, n):
    """Multiplicative inverse, `spower` at -1; needs a nonzero constant term."""
    g, d = spower(a, -1, n)
    return [Fraction(v, d) for v in g]


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
