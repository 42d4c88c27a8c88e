"""Builders for split cellular varieties, and the entry to the morphism
catalogue.

On P^n and Q_d the closure Z of every cell is again a P^k or a Q_k, whose
Euler sequence T_Z = sum_a m_a O(a) is known (the fundamental cell's is
`tangent_lines`).  So every tau column is one rule, Riemann-Roch
tau[O_Z] = [Z] Todd(T_Z), with Todd(T_Z) the closed form of that line sum
put on the cell (`_riemann_roch`, `char_classes.line_sum_class`), and no
ring product.  A product takes every datum from its factors by the Kunneth
rule of `core.kron`, and so do external products and the product
projections.  Each builder hands its tau columns to `CellularVariety` as a
callable, so they are built, from the factors' columns on a product, and
checked on the first read of `tau_columns`, never by an operation on P^n or
a product of them.  `variety_from_spec` checks the dimension and cell caps
(`MAX_CELLS`) on the parsed spec, before any build.

The morphism catalogue, its table `_KINDS` and the `Morphism` class, is in
`morphisms`; `build_morphism` stays here and loads it on its first call, so
a CLI call that builds no morphism never compiles it.  Morphism kinds and
`{"type": ...}` variety specs take their parameters by one rule
(`_arguments`), which refuses a size too long to print by name; a morphism
is interned under (kind, arguments), a product on its factor objects, and
every variety a kind builds meets the caps of `variety_from_spec` first.
Line bundles O(i) are in `bundles`.
"""
import re
import sys
from fractions import Fraction
from functools import reduce
from math import factorial, prod

from .char_classes import line_sum_class
from .core import (
    CellularVariety,
    Matrix,
    ModPClass,
    kron,
    kunneth,
    make_class,
)
from .errors import EvenDimensionUnsupported, UnknownKind, VarietyMismatch

_VARIETY_CACHE = {}


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

class BuiltVariety(CellularVariety):
    """A variety made by a builder here: P^n, Q_d, or X x Y of checked ones.

    Its table is associative by construction (h^i h^j = h^{i+j} on P^n, the
    monomial presentation h^{m+1} = 2 l_m, h^i l_j = l_{j-i} on Q_d, a tensor
    product of associative tables on X x Y), so it skips the associativity
    check that a table given to CellularVariety gets; the other axioms are
    checked entry by entry.
    """

    def _check_associativity(self):
        pass


def projective_space(n):
    """P^n with cells h^0..h^n (codimension i); `tangent_lines` is the Euler
    sequence T = (n + 1) O(1) - O, whence `tangent_ch` and the classes of T."""
    if n < 0:
        raise ValueError("projective space needs n >= 0")
    key = ("P", n)
    if key in _VARIETY_CACHE:
        return _VARIETY_CACHE[key]

    cells = [("h^%d" % i, n - i) for i in range(n + 1)]
    table = {}
    for i in range(n + 1):
        for j in range(i, n - i + 1):
            table[("h^%d" % i, "h^%d" % j)] = {"h^%d" % (i + j): 1}

    # the Euler sequence of the closure P^{n-i} of h^i, as pairs (a, m_a)
    closures = {"h^%d" % i: ((1, n - i + 1), (0, -1)) for i in range(n + 1)}
    lines = closures["h^0"]
    tangent = _euler_ch(lines, [{"h^%d" % k: 1} for k in range(n + 1)])
    X = BuiltVariety("P^%d" % n, n, cells, table, {"h^%d" % n: 1}, tangent,
                     lambda: _riemann_roch(X, closures))
    X.hyperplane = {"h^1": 1} if n >= 1 else {}
    X.tangent_lines = lines
    X.builder = "projective_space"
    _VARIETY_CACHE[key] = X
    return X


def _riemann_roch(X, closures):
    """The tau columns [Z] Todd(T_Z) of a builder, closures[Z] the Euler
    sequence of the closure of the cell Z."""
    columns = {Z: line_sum_class(X, "todd", lines, cell=Z)
               for Z, lines in closures.items()}
    return Matrix.over({Z: (c.num, c.den) for Z, c in columns.items()})


def _euler_ch(lines, powers):
    """ch of the line sum sum_a m_a O(a), sum_a m_a e^{a h}, on the cells:
    powers[k] is h^k, a multiple of one cell on P^n and on Q_d."""
    return {l: v * Fraction(sum(m * a ** k for a, m in lines), factorial(k))
            for k, h_k in enumerate(powers) for l, v in h_k.items()}


def _quadric_h_power(d, k):
    """The class h^k on Q_d as a sparse cell vector."""
    m = (d - 1) // 2
    if k <= m:
        return {"h^%d" % k: 1}
    if k <= d:
        return {"l_%d" % (d - k): 2}
    return {}


def odd_quadric(d):
    """Split quadric of odd dimension d inside P^{d+1}.

    Cells h^0..h^m (linear-section subquadrics, m = (d-1)/2) and l_m..l_0
    (linear subspaces).  The middle relation is h^{m+1} = 2 l_m.
    `tangent_lines` is the Euler sequence T = (d + 2) O(1) - O - O(2).
    """
    if d < 1:
        raise ValueError("quadric dimension must be >= 1")
    if d % 2 == 0:
        raise EvenDimensionUnsupported(
            "even-dimensional quadrics need d mod 4 middle-class data")
    key = ("Q", d)
    if key in _VARIETY_CACHE:
        return _VARIETY_CACHE[key]

    m = (d - 1) // 2
    cells = [("h^%d" % i, d - i) for i in range(m + 1)]
    cells += [("l_%d" % j, j) for j in range(m, -1, -1)]

    # unit products are filled in, and a missing pair multiplies to zero
    table = {}
    for i in range(1, m + 1):
        for j in range(i, m + 1):
            table[("h^%d" % i, "h^%d" % j)] = _quadric_h_power(d, i + j)
            table[("h^%d" % i, "l_%d" % j)] = {"l_%d" % (j - i): 1}

    # the Euler sequences of the closures: Q_{d-i} of h^i, P^i of l_i
    closures = {"h^%d" % i: ((1, d - i + 2), (0, -1), (2, -1))
                for i in range(m + 1)}
    closures.update(("l_%d" % i, ((1, i + 1), (0, -1))) for i in range(m + 1))
    lines = closures["h^0"]
    tangent = _euler_ch(lines, [_quadric_h_power(d, k) for k in range(d + 1)])
    X = BuiltVariety("Q_%d" % d, d, cells, table, {"l_0": 1}, tangent,
                     lambda: _riemann_roch(X, closures))
    X.hyperplane = {"h^1": 1} if d >= 3 else {"l_0": 2}
    X.tangent_lines = lines
    X.builder = "odd_quadric"
    _VARIETY_CACHE[key] = X
    return X


def product(X, Y):
    """X x Y with the Kunneth basis: cell a x b, and every datum u (x) v of
    the factors' data u, v (`core.kron`).  Interned on the factor objects."""
    key = ("prod", X, Y)
    if key in _VARIETY_CACHE:
        return _VARIETY_CACHE[key]

    def boxsum(u, v):
        # u x 1 + 1 x v, for the additive data: tangent and hyperplane class
        out = kron(u, {Y.fundamental: 1})
        for l, s in kron({X.fundamental: 1}, v).items():
            out[l] = out.get(l, 0) + s
        return out

    cells = [(kunneth(a, b), da + db) for (a, da) in X.cells for (b, db) in Y.cells]
    # the nonzero products (a x b)(a2 x b2) = ab x a2b2 with a x b not after
    # a2 x b2 in the cell order; a missing pair multiplies to zero
    iX, iY, table = X._index, Y._index, {}
    for a, row in X._table.items():
        for a2, u in row.items():
            if iX[a2] < iX[a]:
                continue
            for b, row_b in Y._table.items():
                for b2, v in row_b.items():
                    if a2 != a or iY[b2] >= iY[b]:
                        table[(kunneth(a, b), kunneth(a2, b2))] = {
                            kunneth(c, e): s * t for c, s in u for e, t in v}

    XY = BuiltVariety("%sx%s" % (X.name, Y.name), X.dim + Y.dim, cells,
                      table, kron(X.degree_vector, Y.degree_vector),
                      boxsum(X.tangent_ch, Y.tangent_ch),
                      lambda: Matrix.kron(X.tau_columns, Y.tau_columns))
    XY.hyperplane = boxsum(getattr(X, "hyperplane", {}),
                           getattr(Y, "hyperplane", {}))
    XY.builder = "product"
    XY._factors = (X, Y)
    _VARIETY_CACHE[key] = XY
    return XY


def external_product(x, y):
    """x boxtimes y on the product of the two carrying varieties, mod p when
    a factor is.  Two rational or two mod-p factors are checked data, so
    their product is built as one (`kron` of the integers, reduced once); a
    rational factor paired with a mod-p one goes through the check, which
    refuses a fraction."""
    if None not in (x.p, y.p) and x.p != y.p:
        raise VarietyMismatch("mod-p classes with different p")
    XY = product(x.variety, y.variety)
    if x.p == y.p:
        return x._like(kron(x.num, y.num), XY, x.den * y.den)
    return ModPClass(XY, x.p or y.p, kron(x.coeffs, y.coeffs))


def hyperplane_class(X):
    return make_class(X, dict(getattr(X, "hyperplane", {})))


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

def build_morphism(kind, **params):
    """The catalogue morphism of this kind (`morphisms._KINDS`) and
    parameters, built on first use and interned under (kind, arguments).

    The parameters follow the one rule of `_arguments`.  product_projection's
    onto defaults to 0, and its factors are resolved by variety_from_spec
    first, so it is interned on the factor objects.  The catalogue module is
    loaded on the first call, so a call that builds no morphism never
    compiles it.
    """
    from .morphisms import _KINDS, _MORPHISM_CACHE
    if not (isinstance(kind, str) and kind in _KINDS):
        raise UnknownKind("no morphism kind %r; the kinds are %s"
                          % (kind, ", ".join(_KINDS)))
    builder, names = _KINDS[kind]
    if kind == "product_projection":
        params.setdefault("onto", 0)
    args = _arguments(kind, names, params)
    if kind == "product_projection":
        args = (tuple(variety_from_spec(f) for f in args[0]), args[1])
    f = _MORPHISM_CACHE.get((kind, args))
    if f is None:
        f = _MORPHISM_CACHE[(kind, args)] = builder(*args)
    return f


# ---------------------------------------------------------------------------
# JSON specs
# ---------------------------------------------------------------------------

# the dimension cap when none is set, and the cap on a product's factors;
# the cell cap is the cell count of (P^1)^8, the widest variety within it
DEFAULT_MAX_DIM = 8
MAX_CELLS = 2 ** DEFAULT_MAX_DIM


def variety_from_spec(spec, max_dim=None):
    """Builder dispatch for {"type": ...} dicts and P^n / Q_d / AxB shorthand.

    The dimension cap max_dim, the cell cap MAX_CELLS and the factor cap
    DEFAULT_MAX_DIM are checked on the parsed spec, before anything is built.
    """
    return _capped(*_parse_spec(spec), max_dim)


def _capped(dim, cells, build, factors=1, max_dim=None):
    # the messages leave the size out: it may be too long to print
    if max_dim is not None and dim > max_dim:
        raise ValueError("variety exceeds the dimension cap %d" % max_dim)
    if cells > MAX_CELLS:
        raise ValueError("variety exceeds the cell cap %d" % MAX_CELLS)
    if factors > DEFAULT_MAX_DIM:
        raise ValueError("variety exceeds the factor cap %d" % DEFAULT_MAX_DIM)
    return build()


def _parse_spec(spec, room=DEFAULT_MAX_DIM):
    """(dimension, cell count, build, factor count) for a spec; nothing is
    built until build() runs, and a nested product is refused as soon as
    the whole spec must have more than room factors."""
    if isinstance(spec, CellularVariety):
        return spec.dim, len(spec.cells), lambda: spec, 1
    if isinstance(spec, str):
        parts = spec.split("x")
        if len(parts) > 1:
            return _product_spec(parts, room)
        text = spec.strip()
        for prefix, builder in (("P^", projective_space), ("Q_", odd_quadric)):
            if text.startswith(prefix):
                size = text[len(prefix):]
                if not re.fullmatch("[0-9]+", size):
                    raise ValueError("variety shorthand %.40r needs a "
                                     "non-negative integer after %s"
                                     % (text, prefix))
                return (*_builder_spec(builder, int(size)), 1)
        raise ValueError("cannot parse variety shorthand %.40r" % text)
    if isinstance(spec, dict):
        kind = spec.get("type")
        if not (isinstance(kind, str) and kind in _TYPES):
            raise ValueError("unknown variety type %r; the types are %s"
                             % (kind, ", ".join(_TYPES)))
        (arg,) = _arguments(kind, _TYPES[kind],
                            {k: v for k, v in spec.items() if k != "type"})
        if kind == "product":
            if len(arg) < 2:
                raise ValueError("product needs at least two factors")
            return _product_spec(arg, room)
        return (*_builder_spec(projective_space if kind == "projective_space"
                               else odd_quadric, arg), 1)
    raise ValueError("variety spec must be a dict or shorthand string")


# the {"type": ...} variety specs: type -> its parameter names
_TYPES = {"projective_space": ("n",), "odd_quadric": ("dim",),
          "product": ("factors",)}


def _arguments(kind, names, params):
    """The values of params in the order of names, by the one parameter rule
    of variety types and morphism kinds: each name is given exactly once and
    nothing else is, factors is a list or tuple of variety specs, and every
    other parameter is a size, an int and not a bool, short enough to print
    (checked first).  A refusal prints parameter names and types, no value."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    for name, v in params.items():
        if type(v) is int and limit and not -10 ** limit < v < 10 ** limit:
            raise ValueError("%s parameter %s is too long to print"
                             % (kind, name))
    if set(params) == set(names) and all(
            isinstance(v, (list, tuple)) if name == "factors"
            else type(v) is int for name, v in params.items()):
        return tuple(params[name] for name in names)
    raise ValueError("%s takes exactly %s; got %s" % (kind, ", ".join(
        name + (" (a list)" if name == "factors" else " (an integer)")
        for name in names), ", ".join("%s (%s)" % (name, type(v).__name__)
                                      for name, v in params.items())
        or "nothing"))


def _builder_spec(builder, n):
    # P^n and Q_d have dimension n and d and n + 1 and d + 1 cells; a
    # negative size fails in its builder
    return max(n, 0), max(n, 0) + 1, lambda: builder(n)


def _product_spec(factors, room):
    # each factor takes one of the room at least, so nesting ends within it;
    # more than MAX_CELLS factors fail some cap whatever they are
    if room < 2 or len(factors) > MAX_CELLS:
        raise ValueError("variety exceeds the factor cap %d" % DEFAULT_MAX_DIM)
    dims, cells, builds, counts = zip(*[
        _parse_spec(factor, room - len(factors) + 1) for factor in factors])
    return (sum(dims), prod(cells),
            lambda: reduce(product, [build() for build in builds]), sum(counts))
