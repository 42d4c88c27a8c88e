"""Virtual bundles and their checked characteristic classes.

A virtual bundle is carried by its integer rank and its Chern character, a
rational Chow class.  Its total Chern class, Todd class, Bott class theta^p
and w^{CH,p} are each `char_classes.multiplicative_class` of one built-in
per-root series (`char_classes._spec`); the Chern class and w^{CH,p} of an
integral bundle are checked to be integral.  `char_classes.tangent_class`
reads `_CHECKED` for a variety given without Euler-sequence data.

The K-theory of bundles sits here too: Adams operations psi^p on K^0
(`adams_upper`), the identification of K_0 with K^0 on a smooth variety by
Riemann-Roch, and Bott's decomposition of theta^p(e), which shares the
p-adic split of `ktheory._p_adic_split` with the Atiyah decomposition of
psi_p.  K_0 = K^0 is one pair of `core.Matrix`es per variety, cached on it:
`ch_matrix` takes lattice coordinates to the Chern character (column Z is
ch(O_Z) = tau[O_Z] Todd(T_X)^{-1}), and `ch_inverse` takes a Chern
character back (T^{-1} after the product by Todd(T_X)).  Each is built from
its own Todd class, never by inverting the other, so a round trip through
both still checks Todd Todd^{-1} = 1.  A bundle, a Bott part or a lattice
check then costs one `Matrix.apply`.

Only `verify` and library callers load this module; the engine behind the
CLI's `describe`, `table` and `operate` never does.  The engine function
that the benchmark wraps, `char_classes.multiplicative_class`, is called
through its module, so a wrapper put on it later sees these calls too.
"""
from . import char_classes
from .char_classes import _cached, _spec, todd_class, todd_inv_class
from .core import (
    ChowClass,
    Matrix,
    _as_coeff,
    _built,
    apply_matrix,
    class_from_json,
    class_to_json,
    coeff_from_str,
)
from .errors import (
    DecompositionFailure,
    IntegralityFailure,
    IntegralityViolation,
    NonIntegralInput,
    require_prime,
)
from .ktheory import _p_adic_split, _psi_ch, k0_generators, tau_lattice
from .varieties import hyperplane_class


class VirtualBundle:
    """Element of K^0(X) given by integer rank and Chern character."""

    __slots__ = ("variety", "rank", "ch", "integral")

    def __init__(self, variety, rank, ch, integral=True):
        if type(rank) is not int:
            raise TypeError("rank must be an integer, got %s"
                            % type(rank).__name__)
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
        if not isinstance(other, VirtualBundle):
            return NotImplemented
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
        if not isinstance(other, VirtualBundle):
            return NotImplemented
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
        if integral and not apply_matrix(ch_inverse(variety), bundle.ch,
                                         variety).is_integral():
            raise NonIntegralInput("bundle declared integral has ch * Todd(T_X) "
                                   "outside the tau-lattice")
        return bundle


def trivial_bundle(X, rank):
    return VirtualBundle(X, rank, X.unit().scale(rank))


def tangent_bundle(X):
    """T_X, of rank dim X and Chern character `tangent_ch`: built once per
    X and cached on X, like `line_bundle`."""
    return _cached(X, "tangent_bundle", lambda: VirtualBundle(
        X, X.dim, X.tangent_chern_character()))


def line_bundle(X, i):
    """O(i) for an integer i: rank one, c_1 = i times the hyperplane class.
    Built once per (X, i) and cached on X; a bundle is never changed."""
    if type(i := _as_coeff(i)) is not int:
        raise TypeError("a line bundle's twist must be an integer, got %s" % i)
    return _cached(X, ("line_bundle", i), lambda: VirtualBundle(
        X, 1, hyperplane_class(X).scale(i).exp()))


# -- checked multiplicative classes -------------------------------------------

def chern(e):
    """Total Chern class, per-root series 1 + t; integral input, integral output."""
    total = char_classes.multiplicative_class(_spec("chern", e.variety.dim), e)
    if e.integral and not total.is_integral():
        raise IntegralityFailure(
            "total Chern class of an integral bundle came out fractional "
            "(corrupted ch data?)", variety=e.variety, bundle=e, total=total)
    return total


def todd(e):
    """Todd class, per-root series t/(1 - e^{-t})."""
    return char_classes.multiplicative_class(_spec("todd", e.variety.dim), e)


def theta_p(e, p):
    """Bott's class: per-root series 1 + e^{-t} + ... + e^{-(p-1)t}."""
    return char_classes.multiplicative_class(
        _spec("theta", e.variety.dim, p), e)


def w_chp(e, p):
    """The class with w[L] = 1 + (-c_1 L)^{p-1}; integral on integral bundles."""
    out = char_classes.multiplicative_class(_spec("w", e.variety.dim, p), e)
    if e.integral and not out.is_integral():
        raise IntegralityFailure("w^{CH,%d} of an integral bundle came out "
                                 "fractional" % p, variety=e.variety, p=p,
                                 bundle=e, total=out)
    return out


_CHECKED = {"chern": chern, "todd": todd, "theta": theta_p, "w": w_chp}


# -- K-theory of bundles ------------------------------------------------------

def adams_upper(y, p):
    """psi^p on K^0: scales the codim-i Chern character component by p^i."""
    require_prime(p)
    return VirtualBundle(y.variety, y.rank, _psi_ch(y.ch, p),
                         integral=y.integral)


def ch_matrix(X):
    """C: lattice coordinates to the Chern character, built once per X.
    Column Z is ch(O_Z) = tau[O_Z] Todd(T_X)^{-1}, the tau column times
    `todd_inv_class` in integers."""
    def build():
        tau, td = X.tau_columns, todd_inv_class(X)
        return Matrix.over({c: (X._mul_into({}, col, td.num), tau.den * td.den)
                            for c, col in tau.ints.items()})
    return _cached(X, "ch_matrix", build)


def ch_inverse(X):
    """C^{-1}: a Chern character to lattice coordinates, built once per X.
    Column l is T^{-1}([l] Todd(T_X)), by `todd_class` and the inverse tau
    matrix, not by inverting `ch_matrix`."""
    def build():
        td, inverse = todd_class(X), tau_lattice(X).inverse
        return Matrix.over({l: inverse.apply(X._mul_into({}, {l: 1}, td.num),
                                             td.den) for l in X.labels()})
    return _cached(X, "ch_inverse", build)


def kclass_to_bundle(x):
    """Identify K_0 with K^0 on a regular variety: `ch_matrix` on the
    lattice coordinates."""
    ch = apply_matrix(ch_matrix(x.variety), x.coords, x.variety)
    rank = ch.coeffs.get(x.variety.fundamental, 0)
    if not isinstance(rank, int):
        raise IntegralityViolation("K-class has fractional rank %s" % rank)
    return VirtualBundle(x.variety, rank, ch, integral=x.integral)


def k0_generator_bundles(X):
    """The K^0 images of the lattice generators: the columns of
    `ch_matrix`."""
    return [(label, kclass_to_bundle(k))
            for label, k in k0_generators(X)]


def bott_decompose(e, p):
    """theta^p(e) = sum_k p^{rank(e)-k} e_k with e_k in codimension >= k(p-1).

    The classes ch(O_Z) of the cell closures are unitriangular in
    codimension, so the coordinates of theta^p(e) in them are one apply of
    `ch_inverse`, and each part is one apply of `ch_matrix` to its piece.
    Each codim-j coordinate, multiplied by p^{k - rank(e)} with
    k = [j/(p - 1)], must be integral and belongs to e_k (`_p_adic_split`
    with top = dim X, shift = -rank(e)).  The top-codimension part of each
    e_k is checked against w^{CH,p}_k(e) mod p.
    """
    require_prime(p)
    if not e.integral:
        raise NonIntegralInput("Bott decomposition needs an integral bundle")
    X = e.variety
    w = w_chp(e, p)
    theta = theta_p(e, p)
    coords, den = ch_inverse(X).apply(theta.num, theta.den)
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
    C = ch_matrix(X)
    parts = [apply_matrix(C, piece, X) for piece in pieces]
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
