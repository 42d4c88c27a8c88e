"""K_0 in tau-coordinates: lattices, the topological filtration, Adams operations.

A K-class is stored as its Riemann-Roch image tau(x) in CH(X) tensor Q.  The
integral lattice is spanned by the tau_matrix columns (structure sheaves of
cell closures).  The matrix is unitriangular, so its inverse is built once
per variety, in integers (`tau_lattice`), and the coordinates of a
class in the lattice basis, which decide membership, are one `apply_matrix`
of it.  Both p-adic decompositions, Atiyah's of psi_p(x) and Bott's of
theta^p(e), group these coordinates by a filtration index k and scale them
by p^(shift + k) through one split (`_p_adic_split`) of the integers over
one denominator that `core.Matrix.apply` leaves undivided.  On the smooth
builders K_0 and K^0 are identified by multiplying or dividing by Todd(T_X).

The homological Adams operation psi_p(x) = psi^p(x) theta^p(-T_X) scales the
dimension-j part of tau(x) by p^{-j} (`adams_lower`), by Bott's identity
theta^p(E) = p^rank(E) Todd(E) / psi^p(Todd(E)), root by root
1 + ... + e^{-(p-1)t} = p todd(t) / todd(pt).  It is linear, so in the basis
[O_Z] it is one matrix per (X, p), `adams_matrix`, built once and cached:
one `series.spower` per column on P^n, the Kronecker product of the factors'
matrices on a product (`Matrix.kron`), and T^{-1} D T otherwise.
"""
from fractions import Fraction
from math import comb, lcm

from .char_classes import (
    VirtualBundle,
    _cached,
    theta_p,
    todd_class,
    todd_inv_class,
    w_chp,
)
from .core import (
    ChowClass,
    Matrix,
    _as_coeff,
    _built,
    _lowest,
    apply_matrix,
    class_from_json,
    class_to_json,
    degree,
)
from .errors import (
    DecompositionFailure,
    FlagViolation,
    IntegralityViolation,
    NonIntegralInput,
    ZeroClass,
    require_prime,
)
from .series import spower


class KClass:
    """Element of K_0(X) (or its p-localization) in tau-coordinates."""

    __slots__ = ("variety", "tau", "integral")

    def __init__(self, variety, tau, integral):
        if tau.variety is not variety:
            raise ValueError("tau lives on the wrong variety")
        self.variety = variety
        self.tau = tau
        self.integral = integral

    def is_zero(self):
        return self.tau.is_zero()

    def __add__(self, other):
        if self.variety is not other.variety:
            raise ValueError("K-classes on different varieties")
        return KClass(self.variety, self.tau + other.tau,
                      self.integral and other.integral)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = _as_coeff(c)
        return KClass(self.variety, self.tau.scale(c),
                      self.integral and isinstance(c, int))

    def __eq__(self, other):
        if not isinstance(other, KClass):
            return NotImplemented
        return self.variety is other.variety and self.tau == other.tau

    def __repr__(self):
        return "KClass(%s: tau=%r, integral=%s)" % (
            self.variety.name, self.tau.coeffs, self.integral)

    def to_json(self):
        return {"tau": class_to_json(self.tau), "integral": self.integral}


def kclass_from_json(X, obj):
    if not isinstance(obj, dict):
        raise ValueError("a K-class must be a JSON object, got %.40r" % (obj,))
    tau = class_from_json(X, obj.get("tau", {}))
    integral = obj.get("integral", False)
    if not isinstance(integral, bool):
        raise ValueError("'integral' must be true or false, got %.40r"
                         % (integral,))
    if integral and not tau_lattice(X).membership(tau):
        raise NonIntegralInput("tau vector declared integral is not in the "
                               "tau-lattice")
    return KClass(X, tau, integral)


class TauLattice:
    """The lattice spanned by the tau_matrix columns, and the inverse of the
    matrix: coordinates in the column basis are one `apply_matrix` of it."""

    def __init__(self, variety):
        self.variety = variety
        self.inverse = _unitriangular_inverse(variety)

    def coordinates(self, cls):
        """The coefficients of cls in the column basis, as a dict."""
        return apply_matrix(self.inverse, cls, self.variety).coeffs

    def membership(self, cls):
        return apply_matrix(self.inverse, cls, self.variety).is_integral()


def _unitriangular_inverse(X):
    """T^{-1} for the checked tau matrix T = A / D of X, as a `Matrix`:
    column c of A is D e_c plus cells of lower dimension, so T^{-1} e_c =
    e_c - sum_{r != c} A[r, c] T^{-1} e_r / D, by increasing dimension, each
    column integers over its own denominator in lowest terms."""
    tau, cols = X.tau_columns, {}
    D = tau.den
    for c in sorted(tau.ints, key=X._dims.__getitem__):
        below = [(s, *cols[r]) for r, s in tau.ints[c].items() if r != c]
        L = lcm(*[e for _, _, e in below])
        out = {c: D * L}
        for s, num, e in below:
            s *= L // e
            for l, v in num.items():
                out[l] = out.get(l, 0) - s * v
        cols[c] = _lowest(out, D * L)
    return Matrix.over(cols)


def tau_lattice(X):
    return _cached(X, "tau_lattice", lambda: TauLattice(X))


def k0_from_chow_lift(x):
    """Canonical lift through phi: sum of x_beta * tau[O_{Z_beta}]."""
    if not x.is_integral():
        raise NonIntegralInput("canonical lift needs an integral Chow class")
    X = x.variety
    return KClass(X, apply_matrix(X.tau_columns, x, X), integral=True)


def structure_sheaf(X):
    """[O_X], the lift of the fundamental class."""
    return k0_from_chow_lift(X.unit())


def k0_generators(X):
    """Lattice generators [O_{Z_beta}] indexed by cell label."""
    return [(label, k0_from_chow_lift(X.basis_class(label)))
            for label in X.labels()]


def filtration_level(x):
    """Largest homological degree with a nonzero tau-component."""
    if x.is_zero():
        raise ZeroClass("the zero class has no filtration level")
    return x.tau.top_dim()


def phi_top(x):
    """Top graded piece of an integral K-class, as an integral Chow class."""
    if not x.integral:
        raise NonIntegralInput("phi_top needs an integral K-class")
    if x.is_zero():
        return x.variety.zero()
    d = filtration_level(x)
    return x.tau.dim_component(d).as_integral()


def euler_char(x):
    """deg of the dimension-0 part of tau: chi of the pushforward to a point."""
    return Fraction(degree(x.tau.dim_component(0)))


# ---------------------------------------------------------------------------
# Adams operations
# ---------------------------------------------------------------------------

def _psi_ch(ch, p, den=1):
    """psi^p on a Chern character, over den: the codim-i part times p^i."""
    return ch._like({l: v * p ** ch.variety.cell_codim(l)
                     for l, v in ch.num.items()}, den=ch.den * den)


def adams_upper(y, p):
    """psi^p on K^0: scales the codim-i Chern character component by p^i."""
    require_prime(p)
    return VirtualBundle(y.variety, y.rank, _psi_ch(y.ch, p),
                         integral=y.integral)


def adams_lower(x, p):
    """Homological Adams operation on a smooth variety, in tau-coordinates:
    the dimension-j part of tau(x) times p^{-j}, by Bott's identity (see the
    module docstring), whatever tangent data of rank dim X the variety has.
    On K_0(point) this is the identity."""
    require_prime(p)
    return KClass(x.variety, _psi_ch(x.tau, p, p ** x.variety.dim),
                  integral=False)


def adams_matrix(X, p):
    """psi_p in the basis [O_Z] of K_0, built once per (X, p).

    Column l holds the tau-coordinates of psi_p([O_{Z_l}]); the entries have
    only powers of p as denominators, and it is a `core.Matrix`, stored in
    integer form.  On P^n it is a closed form, on a product the
    Kronecker product of the factors' matrices (K_0(X x Y) = K_0(X) (x)
    K_0(Y), and psi^p and theta^p are multiplicative), and otherwise (Q_d,
    a table given to CellularVariety directly) T^{-1} D T: adams_lower, the
    scaling D, on the tau columns T, taken to the tau basis by the inverse.
    The result is cached and shared: treat it as read-only.
    """
    require_prime(p)
    return _cached(X, ("adams_matrix", p), lambda: _adams_columns(X, p))


def _adams_columns(X, p):
    builder = getattr(X, "builder", None)
    if builder == "projective_space":
        return _projective_adams(X.dim, p)
    if builder == "product":
        return Matrix.kron(*(adams_matrix(F, p) for F in X._factors))
    T, inverse = X.tau_columns, tau_lattice(X).inverse
    return Matrix.over({l: inverse.apply(  # adams_lower of the tau column l
        {r: v * p ** X.cell_codim(r) for r, v in T.ints[l].items()},
        T.den * p ** X.dim) for l in X.labels()})


def _projective_adams(n, p):
    """The Adams matrix of P^n, in K_0 = Z[x]/x^{n+1}, x = [O_H] = h^1: column
    h^j is psi_p(x^j) = p x^j theta^{j-n-1}, theta = psi^p(x)/x.  At x = p y,
    theta = p a(y), a_i = (-1)^i C(p, i+1) p^(i-1) integers, a_0 = 1, so
    a^{j-n-1} is integers V (`spower`): V_m p^(n+j-m) / p^(2n) at h^(j+m)."""
    a = [1] + [(-1) ** i * comb(p, i + 1) * p ** (i - 1)
               for i in range(1, min(p, n + 1))]
    cols = {}
    for j in range(n + 1):
        V, _ = spower(a, j - n - 1, n - j)
        cols["h^%d" % j] = {"h^%d" % (j + m): v * p ** (n + j - m)
                            for m, v in enumerate(V) if v}
    return Matrix(cols, p ** (2 * n))


def _p_adic_split(dims, num, den, p, top, shift):
    """Split tau-coordinates num / den by powers of p: the step the Atiyah
    decomposition of psi_p and the Bott decomposition of theta^p share.

    The coordinate v / den on a cell of dimension j = dims[l] <= top goes to
    piece k = [(top - j)/(p - 1)] times p^e, e = shift + k: one divmod of
    v p^max(e, 0) by den p^max(-e, 0).  Returns the pieces, {cell: int}
    (a value that does not divide is kept as its Fraction), and the largest
    dimension of such a value (None when there is none).
    """
    n = top // (p - 1) + 1
    scales = [(p ** e, den) if e >= 0 else (1, den * p ** -e)
              for e in range(shift, shift + n)]
    pieces = [{} for _ in range(n)]
    bad = None
    for l, v in num.items():
        if v:
            j = dims[l]
            k = (top - j) // (p - 1)
            mul, div = scales[k]
            q, r = divmod(v * mul, div)
            if r:
                bad = j if bad is None else max(bad, j)
                q = Fraction(v * mul, div)
            pieces[k][l] = q
    return pieces, bad


def kclass_to_bundle(x):
    """Identify K_0 with K^0 on a regular variety: divide tau by Todd."""
    ch = x.tau * todd_inv_class(x.variety)
    rank = ch.coeffs.get(x.variety.fundamental, 0)
    if not isinstance(rank, int):
        raise IntegralityViolation("K-class has fractional rank %s" % rank)
    return VirtualBundle(x.variety, rank, ch, integral=x.integral)


def k0_generator_bundles(X):
    """The K^0 images of the lattice generators (ch = tau column / Todd)."""
    return [(label, kclass_to_bundle(k))
            for label, k in k0_generators(X)]


# ---------------------------------------------------------------------------
# morphism action in tau-coordinates
# ---------------------------------------------------------------------------

def kclass_pushforward(f, x):
    """tau commutes with proper pushforward."""
    if not f.proper:
        raise FlagViolation("K-theory pushforward needs a proper morphism")
    return KClass(f.target, f.push_class(x.tau), x.integral)


def kclass_pullback(f, y):
    """K^0 pullback written in tau-coordinates: Todd_X * f^*(tau / Todd_Y)."""
    if not (f.lci or f.flat):
        raise FlagViolation("K-theory pullback needs an lci or flat morphism")
    ch = f.pull_class(y.tau * todd_inv_class(f.target))
    return KClass(f.source, todd_class(f.source) * ch, y.integral)


# ---------------------------------------------------------------------------
# Bott decomposition
# ---------------------------------------------------------------------------

def bott_decompose(e, p):
    """theta^p(e) = sum_k p^{rank(e)-k} e_k with e_k in codimension >= k(p-1).

    The classes tau[O_Z] / Todd(T_X) of the cell closures are unitriangular in
    codimension, so the coordinates of theta^p(e) in them are the
    tau-coordinates of theta^p(e) * Todd(T_X).  Each codim-j coordinate,
    multiplied by p^{k - rank(e)} with k = [j/(p - 1)], must be integral and
    belongs to e_k (`_p_adic_split` with top = dim X, shift = -rank(e)).  The
    top-codimension part of each e_k is checked against w^{CH,p}_k(e) mod p.
    """
    require_prime(p)
    if not e.integral:
        raise NonIntegralInput("Bott decomposition needs an integral bundle")
    X = e.variety
    w = w_chp(e, p)
    theta = theta_p(e, p) * todd_class(X)
    coords, den = tau_lattice(X).inverse.apply(theta.num, theta.den)
    pieces, bad = _p_adic_split(X._dims, coords, den, p, X.dim, -e.rank)
    if bad is not None:
        j = X.dim - bad
        k = j // (p - 1)
        # at exponent rank - k <= 0 every integer would do
        what = ("not divisible by %d^%d" % (p, e.rank - k)
                if e.rank > k else "not integral")
        raise DecompositionFailure(
            "codim-%d piece of theta^%d is %s" % (j, p, what), variety=X, p=p,
            bundle=e, codim=j, piece=ChowClass(X, pieces[k]).dim_component(bad))
    pieces = [_built(X, piece) for piece in pieces]
    tdinv = todd_inv_class(X)
    parts = [k0_from_chow_lift(piece).tau * tdinv for piece in pieces]
    for k, (piece, part) in enumerate(zip(pieces, parts)):
        top = part.top_dim()
        if top is not None and X.dim - top < k * (p - 1):
            raise DecompositionFailure(
                "e_%d is supported below codimension %d" % (k, k * (p - 1)),
                variety=X, p=p, bundle=e, k=k, part=part)
        diff = (piece.codim_component(k * (p - 1))
                - w.codim_component(k * (p - 1)))
        if any(v % p for v in diff.num.values()):
            raise DecompositionFailure(
                "top part of e_%d differs from w^{CH,%d}_%d mod %d" % (k, p, k, p),
                variety=X, p=p, k=k, diff=diff)
    return parts
