"""Independent oracles.

Most of what is here expands closed-form generating functions with sympy's
series machinery, with no code shared with the package's own convolution
arithmetic, so agreement is a real cross-check.  `multiplicative_class_anew`
instead replays the uncached route through the package's series functions
(which `tests/test_series.py` checks against sympy): it cross-checks the
cached log-weight vectors and the one-pass log class, not the series.
`p_adic_split` is the p-adic split by Fraction scales, the reference for the
package's split on integers over one denominator, and `pn_tau_running` and
`quadric_tau_running` are the tau columns by running series products over
Fractions, the reference for the builders' columns [Z] Todd(T_Z), each from
the Euler sequence of the cell's closure Z.
`projective_adams_products` is the Adams matrix of P^n by one full series
product per column, the reference for the package's `series.spower` per
column.
`catalogue_relative_tangent` writes out T_f of each morphism kind by hand,
the reference for the derived T_X - f^*T_Y.  `adams_lower_by_twist` is the
homological Adams operation by the Todd and theta^p(-T_X) twist, the
reference for the package's dimension scaling.  `series_inverse_anew` is the
inverse of a series by the Fraction convolution recurrence, the reference for
the package's inverse as an integer power.  `pair_table` writes a variety's
ring table in the pair-keyed form a caller gives `CellularVariety`, for
copies of a builder's table and for the pair-keyed product oracle.
`sadd`, `spow` and `exp_t` are series arithmetic only the tests use: a sum,
a power by repeated products, and the closed form e^{ct}.  `check_trace`
records what a verification suite checks, check by check, so that a change
to how a suite computes its inputs can be shown to leave its checks alone.
"""
from fractions import Fraction
from math import factorial

import sympy as sp

t = sp.symbols("t")


# -- series references --------------------------------------------------------

def sadd(a, b, n):
    """a + b truncated at degree n."""
    return [a[i] + b[i] for i in range(n + 1)]


def spow(a, k, n):
    """a^k for k >= 0 by k series products (`series.smul`), the reference
    for the package's integer power `series.spower`."""
    from chowops import series as S
    out = S.series([1], n)
    for _ in range(k):
        out = S.smul(out, a, n)
    return out


def exp_t(c, n):
    """e^{c t} truncated at degree n."""
    c = Fraction(c)
    return [c ** k / factorial(k) for k in range(n + 1)]


def pair_table(X):
    """X's ring table as a caller gives it, {(a, b): {c: n}}: every nonzero
    product of two cells, in both orders."""
    return {(a, b): dict(prods) for a, row in X._table.items()
            for b, prods in row.items()}


def coeffs(expr, n):
    """Taylor coefficients [c_0..c_n] of expr at t=0, as Fractions."""
    s = sp.series(expr, t, 0, n + 1).removeO()
    poly = sp.Poly(sp.expand(s), t)
    return [Fraction(str(sp.nsimplify(poly.coeff_monomial(t ** k))))
            for k in range(n + 1)]


TODD = t / (1 - sp.exp(-t))


def pn_tau_column(n, j):
    """tau[O_{P^{n-j}}] in P^n: coefficients of t^j * todd^{n-j+1}."""
    return coeffs(t ** j * TODD ** (n - j + 1), n)


def pn_tangent(n):
    return coeffs((n + 1) * sp.exp(t) - 1, n)


def quadric_todd(d):
    """Todd(T_{Q_d}) as a polynomial in the hyperplane class."""
    return coeffs(TODD ** (d + 2) / (2 * t / (1 - sp.exp(-2 * t))), d)


def quadric_tau_column_h(d, i):
    """tau of an i-fold hyperplane section of Q_d, as h-powers."""
    expr = (TODD ** (d + 2) / (2 * t / (1 - sp.exp(-2 * t)))) \
        * (1 - sp.exp(-t)) ** i
    return coeffs(expr, d)


def quadric_tangent(d):
    return coeffs((d + 2) * sp.exp(t) - 1 - sp.exp(2 * t), d)


def h_powers_on_quadric(X, poly_coeffs):
    """Map t-power coefficients onto the cell basis of an odd quadric."""
    from chowops.core import ChowClass
    d = X.dim
    m = (d - 1) // 2
    out = {}
    for k, c in enumerate(poly_coeffs):
        if not c:
            continue
        if k <= m:
            out["h^%d" % k] = out.get("h^%d" % k, Fraction(0)) + c
        elif k <= d:
            lbl = "l_%d" % (d - k)
            out[lbl] = out.get(lbl, Fraction(0)) + 2 * c
    return ChowClass(X, out)


def h_powers_on_pn(X, poly_coeffs):
    from chowops.core import ChowClass
    return ChowClass(X, {"h^%d" % k: c for k, c in enumerate(poly_coeffs)
                         if c and k <= X.dim})


def theta_root_sum(p, c=1):
    """1 + e^{-ct} + ... + e^{-(p-1)ct}."""
    return sum(sp.exp(-j * c * t) for j in range(p))


def psi_p_structure_sheaf_pn(n, p):
    """tau(psi_p[O_{P^n}]) in closed form: Todd^{n+1} * p / theta(t)^{n+1}."""
    return coeffs(TODD ** (n + 1) * p / theta_root_sum(p) ** (n + 1), n)


def psi_p_structure_sheaf_quadric(d, p):
    """tau(psi_p[O_{Q_d}]): the tangent bundle is (d+2)[O(1)] - 1 - [O(2)]."""
    todd_q = TODD ** (d + 2) / (2 * t / (1 - sp.exp(-2 * t)))
    theta_inv = p * theta_root_sum(p, 2) / theta_root_sum(p) ** (d + 2)
    return coeffs(todd_q * theta_inv, d)


def multiplicative_class_anew(name, e, p=None):
    """chern, todd, theta^p or w^{CH,p} of the bundle e, rebuilt from nothing.

    The per-root series is expanded afresh, its log taken after dividing by
    the constant term f_0, and u = sum_k log_k p_k(e) summed from the power
    sums p_k = k! ch_k; the class is f_0^rank sum_k u^k / k!.
    """
    from chowops import series as S
    X = e.variety
    n = X.dim
    f = {"chern": lambda: S.series([1, 1], n),
         "todd": lambda: S.todd_series(n),
         "theta": lambda: S.theta_series(p, n),
         "w": lambda: S.w_series(p, n)}[name]()
    logs = S.slog(S.sscale(1 / f[0], f, n), n)
    u = X.zero()
    for k in range(1, n + 1):
        u = u + e.ch.codim_component(k).scale(factorial(k) * logs[k])
    out, term = X.zero(), X.unit()
    for k in range(n + 1):
        out = out + term.scale(Fraction(1, factorial(k)))
        term = term * u
    return out.scale(f[0] ** e.rank)


def tau_coordinates(X, cls):
    """The coefficients of cls in the tau column basis of X, by
    back-substitution over Fractions: the cells in order of decreasing
    dimension, each column subtracted once.  The columns are unitriangular,
    so nothing may be left over."""
    work = {l: Fraction(v) for l, v in cls.coeffs.items()}
    coords = {}
    for label in sorted(X.labels(), key=lambda l: -X.cell_dim(l)):
        v = work.pop(label, Fraction(0))
        if not v:
            continue
        coords[label] = v
        for r, c in X.tau_columns[label].items():
            if r == label:
                continue
            nv = work.get(r, Fraction(0)) - v * c
            if nv:
                work[r] = nv
            else:
                work.pop(r, None)
    assert not work, "triangular solve left a residue: %r" % work
    return coords


def p_adic_split(coords, p, top, shift):
    """The p-adic split of a class of tau-coordinates by Fraction scales:
    the coordinate on a cell of dimension j <= top goes to piece
    k = [(top - j)/(p - 1)] and is multiplied by p^(shift + k), a Fraction
    when the exponent is negative.  Returns the pieces, as classes, and the
    largest dimension whose scaled coordinate is not integral (None when
    every one is)."""
    from chowops.core import ChowClass
    dims = coords.variety._dims
    n = top // (p - 1) + 1
    scales = [p ** e if e >= 0 else Fraction(1, p ** -e)
              for e in range(shift, shift + n)]
    pieces = [{} for _ in range(n)]
    bad = None
    for l, v in coords.coeffs.items():
        j = dims[l]
        k = (top - j) // (p - 1)
        v *= scales[k]
        if type(v) is Fraction and v.denominator != 1:
            bad = j if bad is None else max(bad, j)
        pieces[k][l] = v
    return [ChowClass(coords.variety, piece) for piece in pieces], bad


def pn_tau_running(n):
    """The tau columns of P^n by the Fraction running product: the column
    of h^j is td^{n-j+1}, one product per column from j = n down."""
    from chowops import series as S
    td = S.todd_series(n)
    columns = {}
    col_series = td
    for j in range(n, -1, -1):
        if j < n:
            col_series = S.smul(col_series, td, n)
        columns["h^%d" % j] = {"h^%d" % (j + k): col_series[k]
                               for k in range(n - j + 1) if col_series[k]}
    return columns


def quadric_tau_running(d):
    """The tau columns of Q_d by the Fraction running products: h^i has
    todd_q (1 - e^{-t})^i, mapped onto the cells (h^k is 2 l_{d-k} above
    the middle), and l_i has td^{i+1} truncated at degree i."""
    from chowops import series as S
    m = (d - 1) // 2

    def map_series(coeffs):
        out = {}
        for k, c in enumerate(coeffs):
            label, mult = ("h^%d" % k, 1) if k <= m else ("l_%d" % (d - k), 2)
            if c:
                out[label] = out.get(label, 0) + c * mult
        return out

    td = S.todd_series(d)
    td2 = [td[k] * 2 ** k for k in range(d + 1)]  # td(2t)
    todd_q = S.smul(spow(td, d + 2, d), S.sinv(td2, d), d)
    one_minus = [Fraction(0)] + [-Fraction((-1) ** k, factorial(k))
                                 for k in range(1, d + 1)]  # 1 - e^{-t}
    columns = {}
    col, tdj = todd_q, td
    for i in range(m + 1):
        if i:
            col = S.smul(col, one_minus, d)
            tdj = S.smul(tdj, td, m)
        columns["h^%d" % i] = map_series(col)
        columns["l_%d" % i] = {"l_%d" % (i - k): tdj[k]
                               for k in range(i + 1) if tdj[k]}
    return columns


def projective_adams_products(n, p):
    """The Adams matrix of P^n as (ints, den), by running products: column
    j is p x^j u^{n+1-j}, u = 1/theta with theta_m = (-1)^m C(p, m+1); in
    integers u_m = U_m / p^{m+1}, u^e has coefficients V_m / p^{m+e}, one
    full series product per column, and the entry V_m / p^{m+e-1} is
    V_m p^{n+j-m} over p^{2n}."""
    theta = []
    c = 1
    for m in range(n + 1):
        c = c * (p - m) // (m + 1)  # C(p, m+1), zero once m + 1 > p
        theta.append(-c if m % 2 else c)
    U = [1]
    for m in range(1, n + 1):
        U.append(-sum(theta[i] * U[m - i] * p ** (i - 1)
                      for i in range(1, m + 1)))
    cols = {}
    V = U
    for j in range(n, -1, -1):
        if n + 1 - j > 1:
            V = [sum(V[i] * U[m - i] for i in range(m + 1))
                 for m in range(n + 1)]
        cols["h^%d" % j] = {"h^%d" % (j + m): V[m] * p ** (n + j - m)
                            for m in range(n - j + 1) if V[m]}
    return cols, p ** (2 * n)


def catalogue_relative_tangent(f, kind, args):
    """T_f of the catalogue morphism f of this kind and arguments, by the
    hand formula of each kind: the reference for the derived T_X - f^*T_Y."""
    from chowops import series as S
    from chowops.bundles import VirtualBundle, line_bundle, tangent_bundle
    from chowops.core import ChowClass, kunneth
    X = f.source
    if kind == "linear_embedding":  # -(n - m) O(1), the normal bundle
        m, n = args
        return line_bundle(X, 1).scale(-(n - m)) if n > m else \
            VirtualBundle(X, 0, X.zero())
    if kind == "veronese":  # T_{P^n} - (N + 1) O(deg) + 1
        n, deg = args
        N = f.target.dim
        ch = tangent_bundle(X).ch - (
            line_bundle(X, deg).ch.scale(N + 1) - X.unit())
        return VirtualBundle(X, n - N, ch)
    if kind == "quadric_in_projective":  # -O(2), the normal bundle
        return line_bundle(X, 2).scale(-1)
    if kind == "linear_in_quadric":  # (j + 1) O(1) - 1 - ((d + 2) O(1) - 1 - O(2))
        j, d = args
        t = sadd(S.sscale(j - d - 1, exp_t(1, j), j), exp_t(2, j), j)
        return VirtualBundle(X, j - d, ChowClass(
            X, {"h^%d" % k: t[k] for k in range(j + 1) if t[k]}))
    if kind == "product_projection":  # the other factor's tangent bundle
        factors, onto = args
        tgt, other = factors[onto], factors[1 - onto]
        cell = (lambda t, q: kunneth(t, q)) if onto == 0 else \
            (lambda t, q: kunneth(q, t))
        return VirtualBundle(X, other.dim, ChowClass(
            X, {cell(tgt.fundamental, q): v
                for q, v in other.tangent_ch.items()}))
    if kind == "pn_self_map":  # [O(2)] - [O(2 deg)]
        (degree,) = args
        return VirtualBundle(X, 0, ChowClass(X, {"h^1": 2 - 2 * degree}))
    raise ValueError("no hand formula for %r" % kind)


def adams_lower_by_twist(x, p):
    """psi_p(x) in tau-coordinates by the twist route: ch = tau(x) /
    Todd(T_X), psi^p on it (codim-i part times p^i), then times
    Todd(T_X) theta^p(-T_X); the classes are computed afresh, so the
    variety's cache is left as it was."""
    from chowops.bundles import tangent_bundle, theta_p, todd
    from chowops.ktheory import KClass, _psi_ch
    X = x.variety
    T = tangent_bundle(X)
    scaled = _psi_ch(x.tau * todd(-T), p)
    return KClass(X, todd(T) * theta_p(-T, p) * scaled, integral=False)


def series_inverse_anew(a, n):
    """a^{-1} truncated at degree n by out_k = -(sum_{i=1..k} a_i out_{k-i})
    / a_0, over Fractions."""
    inv0 = 1 / Fraction(a[0])
    out = [inv0] + [Fraction(0)] * n
    for k in range(1, n + 1):
        out[k] = -inv0 * sum((a[i] * out[k - i] for i in range(1, k + 1)),
                             Fraction(0))
    return out


def check_trace(suite, **params):
    """Every `Runner.check` of `run_suite(suite, **params)`, in order: the
    pair [cond, payload], cond as a bool and the payload as `to_json` writes
    a failure down."""
    from chowops import verify
    from chowops.errors import to_json
    trace, check = [], verify.Runner.check

    def recording(runner, cond, **info):
        trace.append([bool(cond), to_json(info)])
        return check(runner, cond, **info)

    verify.Runner.check = recording
    try:
        verify.run_suite(suite, **params)
    finally:
        verify.Runner.check = check
    return trace
