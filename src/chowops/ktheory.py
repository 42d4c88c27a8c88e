"""K_0 in the lattice basis: the topological filtration, Adams operations.

The integral lattice of K_0(X) is spanned by the classes [O_Z] of the cell
closures, and a K-class is stored by its coordinates in that basis, a
rational Chow class over the cells (`KClass.coords`).  Its Riemann-Roch
image tau(x) in CH(X) tensor Q is read from them through the tau columns,
tau[O_Z], which are unitriangular: the public `KClass(X, tau, integral)`
solves a tau vector once, by one `apply_matrix` of the inverse built per
variety in integers (`tau_lattice`), and every other K-class (a lift, a
sum, a scale, psi_p of a class, a piece of a decomposition) is made from
coordinates its maker already has (`_of`).  Since the basis is
unitriangular, the top dimension and the top part of x are those of its
coordinates (`filtration_level`, `phi_top`).  Both p-adic decompositions,
Atiyah's of psi_p(x) (`steenrod`) and Bott's of theta^p(e) (`bundles`),
group these coordinates by a filtration index k and scale them by
p^(shift + k) through one split (`_p_adic_split`) of the integers over one
denominator that `core.Matrix.apply` leaves undivided.  K^0 (psi^p, K_0 =
K^0 and Bott's decomposition, by matrices cached per variety) is in
`bundles`, and morphisms on K_0 (a matrix cached per morphism) in
`morphisms`: only `verify` and library callers load them.

The homological Adams operation psi_p(x) = psi^p(x) theta^p(-T_X) scales the
dimension-j part of tau(x) by p^{-j} (`_psi_ch` over p^{dim X}), by Bott's
identity theta^p(E) = p^rank(E) Todd(E) / psi^p(Todd(E)), root by root
1 + ... + e^{-(p-1)t} = p todd(t) / todd(pt).  It is linear, so in the basis
[O_Z] it is one matrix per (X, p), `adams_matrix`, built once and cached:
one `series.spower` per column on P^n, the Kronecker product of the factors'
matrices on a product (`Matrix.kron`), and T^{-1} D T otherwise.  psi_p of
a K-class (`adams_lower`) is that matrix applied to its coordinates.
"""
from fractions import Fraction
from math import comb, lcm

from .char_classes import _cached
from .core import (
    Matrix,
    _as_coeff,
    _lowest,
    apply_matrix,
    class_from_json,
    class_to_json,
)
from .errors import NonIntegralInput, ZeroClass, require_prime
from .series import spower


class KClass:
    """Element of K_0(X) (or its p-localization) by its coordinates in the
    lattice basis [O_Z]: `coords` is a Chow class over the cells, whose
    coefficient on the cell Z is the coordinate on [O_Z]."""

    __slots__ = ("variety", "coords", "integral")

    def __init__(self, variety, tau, integral):
        """The K-class with Riemann-Roch image tau: its coordinates are
        solved once, by one apply of the inverse tau matrix."""
        if tau.variety is not variety:
            raise ValueError("tau lives on the wrong variety")
        self.variety = variety
        self.coords = apply_matrix(tau_lattice(variety).inverse, tau, variety)
        self.integral = integral

    @property
    def tau(self):
        """tau(x) in CH(X) tensor Q: the tau columns on the coordinates."""
        return apply_matrix(self.variety.tau_columns, self.coords, self.variety)

    def is_zero(self):
        return self.coords.is_zero()

    def __add__(self, other):
        if not isinstance(other, KClass):
            return NotImplemented
        if self.variety is not other.variety:
            raise ValueError("K-classes on different varieties")
        return _of(self.variety, self.coords + other.coords,
                   self.integral and other.integral)

    def __sub__(self, other):
        if not isinstance(other, KClass):
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, c):
        c = _as_coeff(c)
        return _of(self.variety, self.coords.scale(c),
                   self.integral and isinstance(c, int))

    def __eq__(self, other):
        if not isinstance(other, KClass):
            return NotImplemented
        return self.variety is other.variety and self.coords == other.coords

    def __repr__(self):
        return "KClass(%s: tau=%r, integral=%s)" % (
            self.variety.name, self.tau.coeffs, self.integral)

    def to_json(self):
        return {"tau": class_to_json(self.tau), "integral": self.integral}


def _of(X, coords, integral):
    """The K-class on X with lattice coordinates coords, a Chow class on X
    computed from checked data, taken as it is: nothing is applied."""
    new = object.__new__(KClass)
    new.variety, new.coords, new.integral = X, coords, integral
    return new


def kclass_from_json(X, obj):
    if not isinstance(obj, dict):
        raise ValueError("a K-class must be a JSON object, got %.40r" % (obj,))
    tau = class_from_json(X, obj.get("tau", {}))
    integral = obj.get("integral", False)
    if not isinstance(integral, bool):
        raise ValueError("'integral' must be true or false, got %.40r"
                         % (integral,))
    x = KClass(X, tau, integral)
    if integral and not x.coords.is_integral():
        raise NonIntegralInput("tau vector declared integral is not in the "
                               "tau-lattice")
    return x


class TauLattice:
    """The lattice spanned by the tau_matrix columns, and the inverse of the
    matrix: coordinates in the column basis are one `apply_matrix` of it."""

    def __init__(self, variety):
        self.variety = variety
        self.inverse = _unitriangular_inverse(variety)

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
    """Canonical lift through phi: sum of x_beta * [O_{Z_beta}], the K-class
    whose coordinates are the coefficients of x."""
    if not x.is_integral():
        raise NonIntegralInput("canonical lift needs an integral Chow class")
    return _of(x.variety, x, True)


def structure_sheaf(X):
    """[O_X], the lift of the fundamental class."""
    return k0_from_chow_lift(X.unit())


def k0_generators(X):
    """Lattice generators [O_{Z_beta}] indexed by cell label."""
    return [(label, k0_from_chow_lift(X.basis_class(label)))
            for label in X.labels()]


def filtration_level(x):
    """Largest homological degree with a nonzero tau-component: that of the
    coordinates, as the tau basis is unitriangular."""
    if x.is_zero():
        raise ZeroClass("the zero class has no filtration level")
    return x.coords.top_dim()


def phi_top(x):
    """Top graded piece of an integral K-class, as an integral Chow class."""
    if not x.integral:
        raise NonIntegralInput("phi_top needs an integral K-class")
    if x.is_zero():
        return x.variety.zero()
    d = filtration_level(x)
    return x.coords.dim_component(d).as_integral()


def euler_char(x):
    """deg of the dimension-0 part of tau: chi of the pushforward to a
    point, one dot product of the coordinates with chi(O_Z) (`_chi_row`)."""
    row, den = _chi_row(x.variety)
    coords = x.coords
    return Fraction(sum(v * row[l] for l, v in coords.num.items()),
                    coords.den * den)


def _chi_row(X):
    """({Z: integer}, D): chi(O_Z) for each cell Z, the degree of the
    dimension-0 part of its tau column, as integers over the tau matrix's
    denominator D; built once per variety and cached."""
    def build():
        tau, degrees = X.tau_columns, X.degree_vector.items()
        return {c: sum(col.get(pt, 0) * v for pt, v in degrees)
                for c, col in tau.ints.items()}, tau.den
    return _cached(X, "chi_row", build)


# ---------------------------------------------------------------------------
# Adams operations
# ---------------------------------------------------------------------------

def _psi_ch(ch, p, den=1):
    """psi^p on a Chern character, over den: the codim-i part times p^i."""
    return ch._like({l: v * p ** ch.variety.cell_codim(l)
                     for l, v in ch.num.items()}, den=ch.den * den)


def adams_lower(x, p):
    """Homological Adams operation on a smooth variety: the cached Adams
    matrix applied to the coordinates of x.  In tau it is the dimension-j
    part of tau(x) times p^{-j}, by Bott's identity (see the module
    docstring), whatever tangent data of rank dim X the variety has.  On
    K_0(point) this is the identity.  The result is marked non-integral."""
    require_prime(p)
    X = x.variety
    return _of(X, apply_matrix(adams_matrix(X, p), x.coords, X), False)


def adams_matrix(X, p):
    """psi_p in the basis [O_Z] of K_0, built once per (X, p).

    Column l holds the tau-coordinates of psi_p([O_{Z_l}]); the entries have
    only powers of p as denominators, and it is a `core.Matrix`, stored in
    integer form.  On P^n it is a closed form, on a product the
    Kronecker product of the factors' matrices (K_0(X x Y) = K_0(X) (x)
    K_0(Y), and psi^p and theta^p are multiplicative), and otherwise (Q_d,
    a table given to CellularVariety directly) T^{-1} D T: the dimension
    scaling D of `_psi_ch` on the tau columns T, taken to the tau basis by
    the inverse.  `adams_lower` is this matrix on a K-class.  The result is
    cached and shared: treat it as read-only.
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
    return Matrix.over({l: inverse.apply(  # D of the tau column l
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
