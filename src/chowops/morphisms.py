"""The morphism catalogue: finite integer matrices between the builders.

A `Morphism` is a pair of integer matrices on the cells, pushforward and
pullback, with its flags (proper, lci, flat); it is not a symbolic map.
Multiplicativity of the pullback and the projection formula are checked
exhaustively on basis pairs when the morphism is built, on the integer
matrices and the ring table themselves.  The relative
tangent bundle T_f = T_X - f^*T_Y is derived from the two varieties'
tangent data.

The catalogue is one table, `_KINDS`: kind -> (builder, parameter names).
`varieties.build_morphism` reads it and interns what it builds in
`_MORPHISM_CACHE`; it loads this module on its first call, so only `verify`
and library callers compile it.  Every variety a kind builds meets the caps
of `varieties.variety_from_spec` first.  K-classes move along a morphism by
one apply to their lattice coordinates (`kclass_pushforward`,
`kclass_pullback`) of a matrix cached on the morphism (`k_push`, `k_pull`).
"""
from functools import cached_property
from math import comb

from .bundles import VirtualBundle, ch_inverse, ch_matrix, tangent_bundle
from .core import Matrix, apply_matrix, kunneth
from .errors import (
    FlagViolation,
    IncompatibleDimensions,
    InvalidVariety,
    VarietyMismatch,
)
from .ktheory import _of, tau_lattice
from .varieties import (
    _builder_spec,
    _capped,
    _quadric_h_power,
    build_morphism,
    odd_quadric,
    projective_space,
    variety_from_spec,
)

_MORPHISM_CACHE = {}  # (kind, arguments) -> Morphism, in build order


class Morphism:
    """A registered map: pushforward/pullback matrices plus flags.

    push preserves dimension, pull preserves codimension and is a ring map;
    both facts and the projection formula are verified on all basis pairs at
    construction.  Source and target are smooth, as every builder is, so
    T_f = T_X - f^*T_Y is derived from their tangent data.  On K_0, in the
    lattice bases [O_Z], push is `k_push` = T_Y^{-1} f_* T_X (tau commutes
    with proper pushforward) and pull is `k_pull` = T_X^{-1} (Todd_X
    f^*(Todd_Y^{-1} .)) T_Y, each built on first use and cached.
    """

    def __init__(self, name, source, target, push, pull, proper, lci, flat):
        self.name = name
        self.source = source
        self.target = target
        if any(type(v) is not int for m in (push, pull)
               for row in m.values() for v in row.values()):
            raise InvalidVariety("%s: push and pull entries must be integers"
                                 % name)
        self.push, self.pull = (
            Matrix({a: {b: v for b, v in row.items() if v}
                    for a, row in m.items()}, 1)
            for m in (push, pull))
        self.proper = proper
        self.lci = lci
        self.flat = flat
        self._validate()

    def _validate(self):
        src, tgt = self.source, self.target
        for a in src.labels():
            row = self.push.get(a, {})
            for b in row:
                if tgt.cell_dim(b) != src.cell_dim(a):
                    raise InvalidVariety(
                        "%s: push of %r is not dimension-preserving" % (self.name, a))
        for y in tgt.labels():
            row = self.pull.get(y, {})
            for a in row:
                if src.cell_codim(a) != tgt.cell_codim(y):
                    raise InvalidVariety(
                        "%s: pull of %r is not codimension-preserving" % (self.name, y))
        # on the integer matrices: a cell's image is its column, a product
        # of two cells its row of the table, read as {cell: int} dicts
        push, pull = self.push.ints, self.pull.ints
        image = {y: pull.get(y, {}) for y in tgt.labels()}

        def nonzero(vec):
            return {l: v for l, v in vec.items() if v}

        if image[tgt.fundamental] != {src.fundamental: 1}:
            raise InvalidVariety("%s: pull does not preserve the unit" % self.name)
        for y1 in tgt.labels():
            row = tgt._table[y1]
            for y2 in tgt.labels():
                lhs = self.pull.apply(dict(row.get(y2, ())))[0]
                rhs = src._mul_into({}, image[y1], image[y2])
                if nonzero(lhs) != nonzero(rhs):
                    raise InvalidVariety(
                        "%s: pull is not multiplicative on (%r, %r)"
                        % (self.name, y1, y2))
        for y in tgt.labels():
            for x in src.labels():
                lhs = self.push.apply(src._mul_into({}, image[y], {x: 1}))[0]
                rhs = tgt._mul_into({}, {y: 1}, push.get(x, {}))
                if nonzero(lhs) != nonzero(rhs):
                    raise InvalidVariety(
                        "%s: projection formula fails on (%r, %r)"
                        % (self.name, y, x))

    @cached_property
    def T_f(self):
        """The relative tangent bundle T_X - f^*T_Y, of rank dim X - dim Y."""
        tgt = self.target
        return tangent_bundle(self.source) - VirtualBundle(
            self.source, tgt.dim, self.pull_class(tgt.tangent_chern_character()))

    @cached_property
    def k_push(self):
        """K_0 pushforward on lattice coordinates, T_Y^{-1} f_* T_X: column
        Z is the target coordinates of f_* tau[O_Z]."""
        tau, inverse = self.source.tau_columns, tau_lattice(self.target).inverse
        return Matrix.over({c: inverse.apply(*self.push.apply(col, tau.den))
                            for c, col in tau.ints.items()})

    @cached_property
    def k_pull(self):
        """K_0 pullback on lattice coordinates, T_X^{-1} (Todd_X
        f^*(Todd_Y^{-1} .)) T_Y: `ch_inverse` of X after f^* of the columns
        of `ch_matrix` of Y, as K^0 pullback commutes with ch."""
        C, back = ch_matrix(self.target), ch_inverse(self.source)
        return Matrix.over({c: back.apply(*self.pull.apply(col, C.den))
                            for c, col in C.ints.items()})

    def push_class(self, x):
        if x.variety is not self.source:
            raise VarietyMismatch("pushforward input lives on %s, not %s"
                                  % (x.variety.name, self.source.name))
        return apply_matrix(self.push, x, self.target)

    def pull_class(self, y):
        if y.variety is not self.target:
            raise VarietyMismatch("pullback input lives on %s, not %s"
                                  % (y.variety.name, self.target.name))
        return apply_matrix(self.pull, y, self.source)

    def map_degree(self):
        """Coefficient of the target fundamental class in push(fundamental)."""
        return self.push.get(self.source.fundamental, {}).get(
            self.target.fundamental, 0)

    def __repr__(self):
        return "Morphism(%s)" % self.name


def pushforward(f, x):
    if not f.proper:
        raise FlagViolation("pushforward needs a proper morphism")
    return f.push_class(x)


def pullback(f, y):
    if not (f.lci or f.flat):
        raise FlagViolation("pullback needs an lci or flat morphism")
    return f.pull_class(y)


def registered_morphisms():
    """Every morphism built so far, in the order of its first build."""
    return tuple(_MORPHISM_CACHE.values())


def _pn(n):
    # a size a builder computes is an int: it skips the parameter rule, and
    # the caps are checked before it is ever formatted
    return _capped(*_builder_spec(projective_space, n))


def _qd(d):
    return _capped(*_builder_spec(odd_quadric, d))


def _linear_embedding(m, n):
    if not 0 <= m <= n:
        raise IncompatibleDimensions("linear embedding needs 0 <= m <= n")
    Pm, Pn = _pn(m), _pn(n)
    push = {"h^%d" % (m - j): {"h^%d" % (n - j): 1} for j in range(m + 1)}
    pull = {"h^%d" % i: {"h^%d" % i: 1} for i in range(m + 1)}
    return Morphism("P^%d->P^%d:linear" % (m, n), Pm, Pn, push, pull,
                    proper=True, lci=True, flat=(m == n))


def _veronese(n, deg):
    if n < 0 or deg < 1:
        raise IncompatibleDimensions("veronese needs n >= 0, deg >= 1")
    Pn = _pn(n)
    N = comb(n + deg, n) - 1
    PN = _pn(N)
    push = {"h^%d" % (n - j): {"h^%d" % (N - j): deg ** j} for j in range(n + 1)}
    pull = {"h^%d" % i: {"h^%d" % i: deg ** i} for i in range(n + 1)}
    return Morphism("P^%d->P^%d:veronese%d" % (n, N, deg), Pn, PN, push, pull,
                    proper=True, lci=True, flat=(N == n))


def _quadric_in_projective(d):
    Q = _qd(d)
    P = _pn(d + 1)
    m = (d - 1) // 2
    push = {}
    for i in range(m + 1):
        push["h^%d" % i] = {"h^%d" % (i + 1): 2}
    for j in range(m + 1):
        push["l_%d" % j] = {"h^%d" % (d + 1 - j): 1}
    pull = {"h^%d" % i: dict(_quadric_h_power(d, i)) for i in range(d + 2)}
    return Morphism("Q_%d->P^%d" % (d, d + 1), Q, P, push, pull,
                    proper=True, lci=True, flat=False)


def _linear_in_quadric(j, d):
    Q = _qd(d)
    m = (d - 1) // 2
    if not 0 <= j <= m:
        raise IncompatibleDimensions(
            "Q_%d contains linear subspaces only up to dimension %d" % (d, m))
    Pj = _pn(j)
    push = {"h^%d" % (j - a): {"l_%d" % a: 1} for a in range(j + 1)}
    # h^i for i > j and every l_a (codim d - a > j) pull back to zero
    pull = {"h^%d" % i: {"h^%d" % i: 1} for i in range(j + 1)}
    return Morphism("P^%d->Q_%d" % (j, d), Pj, Q, push, pull,
                    proper=True, lci=True, flat=False)


def _product_projection(factors, onto):
    if len(factors) != 2 or onto not in (0, 1):
        raise IncompatibleDimensions("product_projection needs two factors "
                                     "and onto in {0, 1}")
    XY = variety_from_spec({"type": "product", "factors": list(factors)})
    tgt, other = factors[onto], factors[1 - onto]

    def cell(t, q):
        # the product cell of t on the target and q on the other factor
        return kunneth(t, q) if onto == 0 else kunneth(q, t)

    push = {cell(t, q): {t: deg} for t in tgt.labels()
            for q, deg in other.degree_vector.items()}
    pull = {t: {cell(t, other.fundamental): 1} for t in tgt.labels()}
    return Morphism("%s->%s:projection" % (XY.name, tgt.name), XY, tgt,
                    push, pull, proper=True, lci=True, flat=True)


def _pn_self_map(degree):
    if degree < 1:
        raise IncompatibleDimensions("self map degree must be >= 1")
    P1 = _pn(1)
    push = {"h^0": {"h^0": degree}, "h^1": {"h^1": 1}}
    pull = {"h^0": {"h^0": 1}, "h^1": {"h^1": degree}}
    return Morphism("P^1->P^1:deg%d" % degree, P1, P1, push, pull,
                    proper=True, lci=True, flat=True)


# the catalogue: kind -> (builder, its parameter names in order)
_KINDS = {
    "linear_embedding": (_linear_embedding, ("m", "n")),
    "veronese": (_veronese, ("n", "deg")),
    "quadric_in_projective": (_quadric_in_projective, ("d",)),
    "linear_in_quadric": (_linear_in_quadric, ("j", "d")),
    "product_projection": (_product_projection, ("factors", "onto")),
    "pn_self_map": (_pn_self_map, ("degree",)),
}


def morphism_from_spec(spec):
    """{"kind": ..., parameter: value, ...}: build_morphism's arguments as
    JSON."""
    if not isinstance(spec, dict):
        raise ValueError("a morphism spec must be a JSON object, got %.40r"
                         % (spec,))
    params = dict(spec)
    return build_morphism(params.pop("kind", None), **params)


# -- K-classes along a morphism ----------------------------------------------

def kclass_pushforward(f, x):
    """tau commutes with proper pushforward: `f.k_push` on the coordinates."""
    if not f.proper:
        raise FlagViolation("K-theory pushforward needs a proper morphism")
    return _of(f.target, apply_matrix(f.k_push, x.coords, f.target),
               x.integral)


def kclass_pullback(f, y):
    """K^0 pullback through ch, Todd_X f^*(tau / Todd_Y): `f.k_pull` on the
    coordinates."""
    if not (f.lci or f.flat):
        raise FlagViolation("K-theory pullback needs an lci or flat morphism")
    return _of(f.source, apply_matrix(f.k_pull, y.coords, f.source),
               y.integral)
