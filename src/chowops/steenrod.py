"""Reduced Steenrod operations via the p-adic decomposition of psi_p.

The central routine extracts, from the homological Adams operation of an
integral lift, integral classes x_k of filtration level at most d - k(p-1)
such that psi_p(x) = sum_k p^{-d-k} x_k exactly.  The coordinates of psi_p(x)
in the unitriangular tau basis are the cached Adams matrix
(`ktheory.adams_matrix`) applied to the coordinates of x, its own
coefficients for the canonical lift of a mod-p class.  A dimension-j
coordinate belongs to x_k with k = [(d - j)/(p - 1)] and is multiplied by
p^{d+k}, which must leave it integral: the split the Bott decomposition
shares (`ktheory._p_adic_split`), run on the integers over one denominator
of a class and an apply, so only a failing extraction builds a Fraction.
S_k mod p is read straight off these coordinates in dimension d - k(p-1),
reduced mod p with zeros dropped (`_read_off`), for a basis column and for
an explicit lift alike; the x_k are lifted through the tau matrix only when
asked for.  An explicit lift, a K-class, costs one extraction: its
tau-coordinates are one integer apply of the inverse tau matrix, and its
S_k are wrapped as they are read.

S-bar is linear on CH/p, so on the canonical lift each S_k is a matrix over
F_p.  Its columns are cached per (X, p, convention) and built on first use:
the column of a basis cell l is the extraction above applied to [l], with
the w^{CH,p}(T_X) twist folded in for the cohomological convention, and an
operation is the sparse sum S_k(x) = sum_l c_l S_k(l) mod p.  A warm one-cell
operation c [l], a table row, pays only for its output: c v mod p for each
entry v of the column, never 0 as c and v are units mod p, wrapped as it is.

The paper's applications of the decomposition (divisibility of Segre-type
numbers, the degree formula, the chi defect of a morphism) are in `numbers`,
which only `verify` and library callers load.
"""
from fractions import Fraction
from functools import cached_property

from .char_classes import _cached, w_tangent
from .core import ChowClass, ModPClass, _built, _modp, apply_matrix
from .errors import (
    CONVENTIONS,
    ExtractionFailure,
    LevelViolation,
    NonIntegralInput,
    VarietyMismatch,
    require_prime,
)
from .ktheory import (
    KClass,
    _p_adic_split,
    adams_lower,
    adams_matrix,
    filtration_level,
    k0_from_chow_lift,
    tau_lattice,
)


class AtiyahDecomposition:
    """psi_p(x) = sum_k p^{-d-k} x_k with level(x_k) <= d - k(p-1).

    pieces[k] holds the integral tau-coordinates of x_k; parts lifts them to
    the K-classes x_k on first use.
    """

    def __init__(self, x, p, level, pieces):
        self.x = x
        self.p = p
        self.level = level
        self.pieces = pieces

    @cached_property
    def parts(self):
        return [k0_from_chow_lift(piece) for piece in self.pieces]

    def reconstruction(self):
        """The right-hand side sum, for the exactness check."""
        return sum((part.tau.scale(Fraction(1, self.p ** (self.level + k)))
                    for k, part in enumerate(self.parts)), self.x.variety.zero())

    def verify(self):
        """Check the decomposition identities; a failure raises ExtractionFailure."""
        psi = adams_lower(self.x, self.p).tau
        if self.reconstruction() != psi:
            self._fail("reconstruction identity failed", psi=psi)
        top = (self.parts[0].tau - self.x.tau).dim_component(self.level)
        if not top.is_zero():
            self._fail("x_0 differs from x at the top level", difference=top)
        for k, part in enumerate(self.parts):
            bound = self.level - k * (self.p - 1)
            if not part.is_zero() and filtration_level(part) > bound:
                self._fail("x_%d has level above %d" % (k, bound))
        return True

    def _fail(self, message, **evidence):
        raise ExtractionFailure(message, variety=self.x.variety, p=self.p,
                                level=self.level, input=self.x,
                                parts=self.parts, **evidence)


def atiyah_decompose(x, p, level=None):
    """p-adic decomposition of psi_p(x): the Adams matrix, then a p-power scale.

    The tau-coordinates of x, one integer apply of the inverse, are sent
    through adams_matrix(X, p); the resulting coordinates of psi_p(x) on the
    dimension-j cells, multiplied by p^{d+k} with k = [(d - j)/(p - 1)], must
    be integral (ExtractionFailure otherwise) and are the tau-coordinates of
    x_k on those cells.

    level defaults to the filtration level of x and may be passed explicitly
    (it must be at least the actual level; steenrod operations use the degree
    of the mod-p input so that perturbed lifts of lower level still decompose
    against the same schedule).
    """
    require_prime(p)
    if not x.integral:
        raise NonIntegralInput("Atiyah decomposition needs an integral class")
    X = x.variety
    d = filtration_level(x) if level is None else level
    if not x.is_zero() and filtration_level(x) > d:
        raise LevelViolation("class has level %d > %d"
                             % (filtration_level(x), d))
    coords, den = tau_lattice(X).inverse.apply(x.tau.num, x.tau.den)
    return AtiyahDecomposition(x, p, d, [
        _built(X, piece) for piece in _psi_pieces(X, p, d, coords, den)])


def _psi_pieces(X, p, d, coords, den=1):
    """The scaled coordinates p^{d+k} psi_p(x), split by k into int dicts,
    from the tau-coordinates coords / den of an x of level at most d, all
    in integers (coords may hold zeros, and need not be in lowest terms);
    the classes of psi_p(x), x and the pieces are built only for a failure's
    evidence."""
    dims = X._dims
    psi, psi_den = adams_matrix(X, p).apply(coords, den)
    # the tau basis is unitriangular: psi_p(x) and its coordinates have the
    # same top dimension, and x and its coordinates the same dimension-d part
    if any(v and dims[l] > d for l, v in psi.items()):
        raise ExtractionFailure(
            "psi_%d output has support above the filtration level" % p,
            variety=X, p=p,
            tau=apply_matrix(X.tau_columns, _built(X, psi, psi_den), X))
    pieces, bad = _p_adic_split(dims, psi, psi_den, p, d, d)
    if bad is not None:
        k = (d - bad) // (p - 1)
        raise ExtractionFailure(
            "dimension-%d component of p^%d psi_%d is not integral"
            % (bad, d + k, p), variety=X, p=p, dimension=bad, exponent=d + k,
            component=ChowClass(X, pieces[k]).dim_component(bad),
            input=apply_matrix(X.tau_columns, _built(X, coords, den), X))
    top = {l: v for l, v in coords.items() if v and dims[l] == d}
    if {l: v * den for l, v in pieces[0].items() if dims[l] == d} != top:
        raise ExtractionFailure(
            "x_0 does not agree with x at the top level", variety=X, p=p,
            input=apply_matrix(X.tau_columns, _built(X, coords, den), X),
            pieces=[_built(X, piece) for piece in pieces])
    return pieces


def steenrod_homological(x, p=None, lift=None):
    """S-bar^X_k on mod-p Chow groups; k-th entry lowers dimension by k(p-1).

    Mixed-dimension inputs are processed componentwise.  `lift` replaces the
    canonical integral lift (homogeneous inputs only); it must be an integral
    K-class of level at most the input dimension that reduces to x mod p.
    """
    return _steenrod(x, p, lift=lift)


def steenrod_cohomological(x, p=None):
    """S-bar_X = w^{CH,p}(T_X) composed with the homological operation."""
    return _steenrod(x, p, cohomological=True)


def _steenrod(x, p, lift=None, cohomological=False):
    """Both conventions: check the input once, then a sparse apply over F_p.

    S-bar is linear on CH/p, so S_k(x) = sum_l c_l S_k(l) over the cells l
    of x, read off the cached columns (`_column`).  On one cell, x = c [l],
    S_k gets c v mod p for each entry v of the column, wrapped as it is
    (`core._modp`): c and v lie in [1, p), units mod the prime p, so c v is
    never 0 and needs no zero filter.  Several cells reduce their summed
    columns through `_like`, where terms can cancel.

    An explicit lift must be a KClass on the variety of x, and x must be
    homogeneous.  It goes through atiyah_decompose, which checks its
    integrality and level; its pieces are read off by the rule of the
    columns (`_read_off`) and split by k as a one-cell column is, with
    c = 1, and S_0 = x checks that the lift reduces to x.
    """
    if lift is not None and not isinstance(lift, KClass):
        raise TypeError("a lift must be a KClass, got %s; lift a Chow class "
                        "with k0_from_chow_lift" % type(lift).__name__)
    if isinstance(x, ModPClass):
        if p is not None and p != x.p:
            raise ValueError("class is mod %d, not mod %s" % (x.p, p))
        p = x.p
    elif p is None:
        raise ValueError("p is required for an integral input")
    else:
        x = ModPClass.from_integral(x, p)
    # p is prime: a mod-p class checks its modulus when it is made
    if x.is_zero():
        return [x]
    X, q = x.variety, p - 1
    cell_dim = X._dims
    if lift is not None:
        if lift.variety is not X:
            raise VarietyMismatch("the lift is not on %s" % X.name)
        dims = x.support_dims()
        if len(dims) > 1:
            raise ValueError("an explicit lift needs a homogeneous input")
        d, c = dims[0], 1
        pieces = atiyah_decompose(lift, p, level=d).pieces
        # the split checked that the pieces are integral
        column = _read_off(cell_dim, p, d, [piece.num for piece in pieces])
    elif len(x.num) == 1:
        ((l, c),) = x.num.items()
        d = cell_dim[l]
        column = _column(X, p, l, cohomological)
    else:
        out = [{} for _ in range(x.top_dim() // q + 1)]
        for l, c in x.num.items():
            d = cell_dim[l]
            for m, v in _column(X, p, l, cohomological).items():
                acc = out[(d - cell_dim[m]) // q]
                acc[m] = acc.get(m, 0) + c * v
        return [x._like(acc) for acc in out]
    # the unit invariant of the docstring: no product is 0 mod p
    out = [{} for _ in range(d // q + 1)]
    for m, v in column.items():
        out[(d - cell_dim[m]) // q][m] = c * v % p
    out = [_modp(X, p, acc) for acc in out]
    if lift is not None and out[0] != x:
        raise ValueError("the lift does not reduce to x mod %d" % p)
    return out


def _column(X, p, label, cohomological):
    """The total operation S_0(l) + ... + S_K(l) of the basis cell l, as a
    {cell: int mod p} dict; S_k(l) is its part in dimension dim l - k(p-1).

    Columns are cached per (X, p, convention) and built on first use by the
    one extraction, `_psi_pieces` of the canonical lift [l], so a failing
    column raises its ExtractionFailure for that basis cell.  The
    cohomological column is w^{CH,p}(T_X) times the homological one; the
    per-root series 1 + (-t)^{p-1} puts w^{CH,p} in codimensions divisible
    by p - 1, so the product stays in the dimensions d - k(p-1).
    """
    columns = _cached(X, ("sbar", p, cohomological), dict)
    column = columns.get(label)
    if column is not None:
        return column
    if cohomological:
        # w^{CH,p}(T_X) is integral, and reducing after the product is the
        # same as before
        twisted = X._mul_into({}, w_tangent(X, p).num,
                              _column(X, p, label, False))
        column = {m: r for m, v in twisted.items() if (r := v % p)}
    else:
        d = X._dims[label]
        column = _read_off(X._dims, p, d, _psi_pieces(X, p, d, {label: 1}))
    columns[label] = column
    return column


def _read_off(dims, p, d, pieces):
    """S_0 + ... + S_K mod p of an input of dimension d, as one {cell: int}
    dict, from the integer pieces of its split: piece k on the cells of
    dimension d - k(p-1), reduced mod p, zeros dropped."""
    return {m: r for k, piece in enumerate(pieces) for m, v in piece.items()
            if dims[m] == d - k * (p - 1) and (r := v % p)}


def steenrod_total(ops):
    """Sum of all graded components of an operation table."""
    return sum(ops[1:], ops[0])


def op_component(ops, k):
    """k-th entry of an operation list, zero outside the computed range:
    S_k = 0 for k < 0."""
    if 0 <= k < len(ops):
        return ops[k]
    return ops[0]._like({})


def steenrod_operation(x, p=None, convention="cohomological", lift=None):
    if not (isinstance(convention, str) and convention in CONVENTIONS):
        raise ValueError("convention must be cohomological or homological")
    cohomological = CONVENTIONS[convention] == "cohomological"
    if cohomological and lift is not None:
        raise ValueError("explicit lifts apply to the homological operation")
    return _steenrod(x, p, lift, cohomological)
