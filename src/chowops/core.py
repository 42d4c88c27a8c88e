"""Exact graded commutative algebra over the cell basis of a cellular variety.

Chow classes are sparse coefficient vectors over the cells.  A stored
coefficient is an arbitrary-precision integer, or a reduced Fraction where
Riemann-Roch brings in denominators; a Fraction with denominator 1 is stored
as an integer, so whether a class is integral is read off its coefficients.
Rationals are computed as integers over one denominator, divided once: the
ring product, the exponential (`_exp`) and a matrix apply scale each operand
to integers over the lcm of its denominators (`_integer_form`), run their
loops in integers, and divide each cell of the result once (`_quotient`).
A linear map (`Matrix`) is stored in that form, columns over one
denominator, and has one integer apply (`Matrix.apply`), whose image stays
undivided: `apply_matrix` is that apply and one divide, and the p-adic
split of psi_p and theta^p reads the undivided image.  The ring structure
comes from a finite table of structure constants, each entry checked for
grading, commutativity and unitality as it is read; a table given directly
is also checked for associativity, which the builders' tables have by
construction (`varieties.BuiltVariety`).  The tau columns are checked to be
unitriangular, in integer form, where they enter: a caller's mapping in the
constructor, a builder's callable when `tau_columns` is first read, which
is when it is built.  On a product X x Y everything comes from the factors
by one Kunneth rule: the cell a x b is labelled `kunneth(a, b)` and gets
u[a] v[b] in `kron(u, v)`, and a product's matrices are the Kronecker
products of the factors' integer forms (`Matrix.kron`).  In JSON a
coefficient is an integer or a string "n" or "n/d" (`coeff_from_str`).

Chow classes (`ChowClass`) and their reductions mod p (`ModPClass`) share
one sparse-vector arithmetic: components by dimension, `+`, `==` and hash.
Caller input is checked once and built data is trusted.  The public
`ChowClass(...)`, `ModPClass(...)`, `make_class` and `class_from_json` check
every label and coefficient, and a scalar follows the coefficient rule: an
int or a Fraction, and an integer mod p.  A result the ring computes from
checked classes (`+`, `-`, `*`, `scale`, `dim_component`, `exp`) goes
through the subclass's `_like`, which only drops zeros and stores a
Fraction with denominator 1 as an integer, or divides integers over their
denominator once per cell, or reduces mod p.  So does `apply_matrix`, on
its target: every matrix it is given was checked where it entered (the tau
columns, a `Morphism`'s integer matrices) or was built by the library.
"""
import re
from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property
from math import lcm

from .errors import (
    InvalidVariety,
    IntegralityViolation,
    SeriesDomainError,
    UnknownLabel,
    VarietyMismatch,
)

FUNDAMENTAL_ALIAS = "1"  # accepted in JSON input for the codim-0 cell


def _as_coeff(v):
    # a bool, float, str or Decimal is refused on purpose: the engine is exact
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else v
    raise TypeError("coefficient must be int or Fraction, got %r" % (v,))


def _entry(v, where, *cells):
    """A caller's entry in a variety's data, by `_as_coeff`'s rule; a bad
    one is an InvalidVariety that says where (`where % cells`)."""
    try:
        return _as_coeff(v)
    except TypeError as exc:
        raise InvalidVariety("%s: %s" % (where % cells, exc)) from None


class CellularVariety:
    """Finite presentation of a split cellular variety.

    cells: ordered list of (label, dimension) pairs; exactly one cell has
    dimension == dim (the fundamental class, which is the ring unit) and at
    least one has dimension 0.  mult_table maps unordered label pairs to
    sparse integer vectors; missing pairs multiply to zero.  tau_columns maps
    each cell label to the rational vector tau[O_Z] of its closure.  It is
    given either as that mapping, normalized and checked here, or as a
    zero-argument callable returning it or its `Matrix`, which is called and
    checked on the first read of `tau_columns` (the builders pass one, as
    the operations on P^n and its products never read tau); after that read
    it is a plain attribute.
    """

    def __init__(self, name, dim, cells, mult_table, degree_vector,
                 tangent_ch, tau_columns):
        self.name = name
        self.dim = dim
        self.cells = [(str(l), int(d)) for (l, d) in cells]
        self._dims = {}
        self._index = {}
        for i, (label, d) in enumerate(self.cells):
            if label in self._dims:
                raise InvalidVariety("duplicate cell label %r" % label)
            if not 0 <= d <= dim:
                raise InvalidVariety("cell %r has dimension %d outside [0, %d]"
                                     % (label, d, dim))
            self._dims[label] = d
            self._index[label] = i
        tops = [l for (l, d) in self.cells if d == dim]
        if len(tops) != 1:
            raise InvalidVariety("need exactly one %d-dimensional cell, got %r"
                                 % (dim, tops))
        self.fundamental = tops[0]
        self.fundamental_index = self._index[self.fundamental]
        self.points = [l for (l, d) in self.cells if d == 0]
        if not self.points:
            raise InvalidVariety("need at least one 0-dimensional cell")

        self._table = self._build_table(mult_table)
        self.degree_vector = {str(l): int(v) for l, v in degree_vector.items()}
        if set(self.degree_vector) != set(self.points):
            raise InvalidVariety("degree_vector must cover exactly the "
                                 "0-dimensional cells")

        self.tangent_ch = {l: c for l, v in tangent_ch.items()
                           if (c := _entry(v, "tangent_ch at cell %r", l))}
        if not self.tangent_ch.keys() <= self._dims.keys():
            raise InvalidVariety("tangent_ch has entries on unknown cells")
        if self.tangent_ch.get(self.fundamental, 0) != dim:
            raise InvalidVariety("tangent_ch rank component must equal dim")

        if callable(tau_columns):
            self._tau_source = tau_columns
        else:
            self.tau_columns = self._checked_tau(tau_columns)
        self._check_associativity()
        self._cache = {}

    # -- construction checks ------------------------------------------------

    def _build_table(self, mult_table):
        table = {}
        for (a, b), vec in mult_table.items():
            if a not in self._dims or b not in self._dims:
                raise InvalidVariety("mult_table entry (%r, %r) uses unknown "
                                     "labels" % (a, b))
            clean = {}
            for c, v in vec.items():
                if c not in self._dims:
                    raise InvalidVariety("mult_table value label %r unknown" % c)
                if not isinstance(v, int):
                    raise InvalidVariety("structure constants must be integers")
                if v:
                    clean[c] = v
                    if self._dims[c] != self._dims[a] + self._dims[b] - self.dim:
                        raise InvalidVariety(
                            "product %r * %r hits %r, violating the grading"
                            % (a, b, c))
            if (a, b) in table and table[(a, b)] != clean:
                raise InvalidVariety("conflicting entries for (%r, %r)" % (a, b))
            table[(a, b)] = clean
            if (b, a) in mult_table:
                other = {c: v for c, v in mult_table[(b, a)].items() if v}
                if other != clean:
                    raise InvalidVariety("product of %r and %r is not "
                                         "commutative" % (a, b))
            table[(b, a)] = clean
        one = self.fundamental
        for l in self._dims:
            expected = {l: 1}
            if (one, l) in table:
                if table[(one, l)] != expected:
                    raise InvalidVariety("fundamental class is not a unit on %r" % l)
            table[(one, l)] = expected
            table[(l, one)] = expected
        return table

    def _raw_mul(self, va, vb):
        """Multiply sparse label->integer dicts through the table."""
        table = self._table
        out = {}
        for a, ca in va.items():
            for b, cb in vb.items():
                row = table.get((a, b))
                if row:
                    c = ca * cb
                    for r, s in row.items():
                        out[r] = out.get(r, 0) + c * s
        return {r: v for r, v in out.items() if v}

    def _check_associativity(self):
        labels = self.labels()
        for a in labels:
            for b in labels:
                ab = self._table.get((a, b), {})
                for c in labels:
                    left = self._raw_mul(ab, {c: 1})
                    right = self._raw_mul({a: 1}, self._table.get((b, c), {}))
                    if left != right:
                        raise InvalidVariety(
                            "associativity fails on (%r, %r, %r)" % (a, b, c))

    @cached_property
    def tau_columns(self):
        """The columns a builder passed as a callable, built and checked on
        first read; a mapping was stored here by the constructor."""
        return self._checked_tau(self._tau_source())

    def _checked_tau(self, columns):
        """A builder's `Matrix` or a caller's mapping of rational columns,
        as a Matrix checked to be unitriangular in integer form: one column
        per cell, `den` on the diagonal, other entries in lower cells."""
        if not isinstance(columns, Matrix):
            columns = Matrix.of({str(c): {
                str(r): e for r, v in col.items()
                if (e := _entry(v, "tau column %r at row %r", c, r))}
                for c, col in columns.items()})
        if set(columns) != set(self._dims):
            raise InvalidVariety("tau_matrix must have one column per cell")
        for col, vec in columns.ints.items():
            d = self._dims[col]
            if vec.get(col) != columns.den:
                raise InvalidVariety("tau column %r has no unit diagonal" % col)
            for row in vec:
                if row not in self._dims:
                    raise InvalidVariety("tau column %r has an unknown row %r"
                                         % (col, row))
                if row != col and self._dims[row] >= d:
                    raise InvalidVariety(
                        "tau column %r is not triangular (entry at %r)"
                        % (col, row))
        return columns

    # -- basic queries --------------------------------------------------------

    def labels(self):
        return [l for (l, _) in self.cells]

    def cell_dim(self, label):
        try:
            return self._dims[label]
        except KeyError:
            raise UnknownLabel("variety %s has no cell %r" % (self.name, label))

    def cell_codim(self, label):
        return self.dim - self.cell_dim(label)

    def resolve_label(self, label):
        """Accept the "1" alias for the fundamental cell."""
        if label == FUNDAMENTAL_ALIAS and label not in self._dims:
            return self.fundamental
        if label not in self._dims:
            raise UnknownLabel("variety %s has no cell %r" % (self.name, label))
        return label

    # -- canonical classes ----------------------------------------------------

    def zero(self):
        return ChowClass(self, {})

    def unit(self):
        return ChowClass(self, {self.fundamental: 1})

    def basis_class(self, label):
        return ChowClass(self, {self.resolve_label(label): 1})

    def tau_class(self, label):
        """tau[O_Z] of the closure of a cell, as a rational Chow class."""
        return ChowClass(self, self.tau_columns[self.resolve_label(label)])

    def tangent_chern_character(self):
        return _built(self, self.tangent_ch)

    def __repr__(self):
        return "CellularVariety(%s, dim=%d, %d cells)" % (
            self.name, self.dim, len(self.cells))


class _CellVector:
    """Sparse coefficient vector over the cells of one variety: the
    arithmetic ChowClass and ModPClass share.

    A subclass says how a result computed from checked classes is normalized
    (`_like`) and how it scales; p is the modulus its coefficients are
    reduced by, None when they are not.
    """

    __slots__ = ("variety", "coeffs")
    p = None

    def is_zero(self):
        return not self.coeffs

    def support_dims(self):
        dims = self.variety._dims
        return sorted({dims[l] for l in self.coeffs})

    def top_dim(self):
        dims = self.variety._dims
        return max(map(dims.__getitem__, self.coeffs), default=None)

    def dim_component(self, d):
        dims = self.variety._dims
        return self._like({l: v for l, v in self.coeffs.items()
                           if dims[l] == d})

    def codim_component(self, c):
        return self.dim_component(self.variety.dim - c)

    def _same(self, other):
        if self.variety is not other.variety or self.p != other.p:
            raise VarietyMismatch("classes live on %s and %s"
                                  % (_where(self), _where(other)))

    def __add__(self, other):
        # the check is repeated inline so that a sum makes one call, to _like
        if self.variety is not other.variety or self.p != other.p:
            self._same(other)
        out = dict(self.coeffs)
        for l, v in other.coeffs.items():
            out[l] = out.get(l, 0) + v
        return self._like(out)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        if not isinstance(other, _CellVector):
            return NotImplemented
        return (self.variety is other.variety and self.p == other.p
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.variety), self.p, frozenset(self.coeffs.items())))


def _where(x):
    return x.variety.name if x.p is None else "%s mod %d" % (x.variety.name, x.p)


def _checked(variety, coeffs, coeff):
    """Caller input: every label must be a cell of variety, and each value
    goes through coeff; zeros are dropped."""
    clean = {}
    for label, v in coeffs.items():
        if label not in variety._dims:
            raise UnknownLabel("variety %s has no cell %r"
                               % (variety.name, label))
        v = coeff(v)
        if v:
            clean[label] = v
    return clean


class ChowClass(_CellVector):
    """Sparse exact coefficient vector over the cells of one variety."""

    __slots__ = ()

    def __init__(self, variety, coeffs):
        self.variety = variety
        self.coeffs = _checked(variety, coeffs, _as_coeff)

    def _like(self, coeffs, variety=None, den=1):
        """`_built` on self's variety, or on variety."""
        return _built(self.variety if variety is None else variety, coeffs,
                      den)

    def is_integral(self):
        return all(not isinstance(v, Fraction) or v.denominator == 1
                   for v in self.coeffs.values())

    def as_integral(self):
        """The class itself, whose coefficients are then ints; raises if any
        coefficient is fractional."""
        if not self.is_integral():
            raise IntegralityViolation("class has fractional coefficients: %s"
                                       % format_class(self))
        return self

    # -- arithmetic -------------------------------------------------------------

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({l: -v for l, v in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, ChowClass):
            self._same(other)
            a, da = _integer_form(self.coeffs)
            b, db = _integer_form(other.coeffs)
            return self._like(self.variety._raw_mul(a, b), den=da * db)
        return self.scale(other)

    def scale(self, c):
        c = _as_coeff(c)
        return self._like({l: v * c for l, v in self.coeffs.items()})

    def power(self, k):
        out = self.variety.unit()
        for _ in range(k):
            out = out * self
        return out

    def exp(self):
        """e^x for x supported in positive codimension, where the series
        stops; computed in integers by `_exp`."""
        if self.variety.fundamental in self.coeffs:
            raise SeriesDomainError("exp needs x in positive codimension, "
                                    "got %s" % format_class(self))
        return _exp(self.variety, *_integer_form(self.coeffs))

    def __repr__(self):
        return "ChowClass(%s: %s)" % (self.variety.name, format_class(self))


def _built(variety, coeffs, den=1):
    """A class on variety computed from checked data: its labels are cells.
    With den 1 its coefficients are ints or Fractions, so only zeros are
    dropped and a Fraction with denominator 1 is stored as an int; otherwise
    they are integers over den, divided once per cell (`_quotient`)."""
    new = object.__new__(ChowClass)
    new.variety = variety
    if den == 1:
        new.coeffs = {l: v.numerator if type(v) is Fraction
                      and v.denominator == 1 else v
                      for l, v in coeffs.items() if v}
    else:
        new.coeffs = {l: _quotient(v, den) for l, v in coeffs.items() if v}
    return new


def _integer_form(coeffs):
    """(integers, d): coeffs, ints and Fractions, as integers over d, the
    lcm of their denominators; a dict of ints comes back as it is."""
    dens = [v.denominator for v in coeffs.values() if type(v) is not int]
    if not dens:
        return coeffs, 1
    d = lcm(*dens)
    return {l: v * d if type(v) is int else v.numerator * (d // v.denominator)
            for l, v in coeffs.items()}, d


def _quotient(v, d):
    """v / d for integers, as a class stores it: an int when d divides v,
    else a reduced Fraction."""
    q, r = divmod(v, d)
    return Fraction(v, d) if r else q


def _exp(V, num, d, f=1):
    """f e^x on V for x = num / d, with num integers supported in positive
    codimension and f an int or Fraction: the one ring exponential.

    The grading derivation D (multiplication by i in codimension i)
    satisfies D e^x = Dx . e^x, so e^x is built codimension by codimension:
    k E_k = sum_{i=1..k} (i x_i) E_{k-i}, with x_i the codim-i part of x.
    It runs in integers: with y_i = i num_i and G_k = k! d^k E_k, which is
    integral, G_k = sum_{i=1..k} (k-1)!/(k-i)! d^(i-1) y_i G_{k-i}, one
    cell product per pair (i, k - i), and f E_k is G_k f divided by k! d^k,
    once per cell.  The E_k sit in distinct codimensions, so f e^x is their
    union.
    """
    n, dims = V.dim, V._dims
    y = [{} for _ in range(n + 1)]
    for l, v in num.items():
        i = n - dims[l]
        y[i][l] = i * v
    fn, den = f.numerator, f.denominator  # den runs through k! d^k f_den
    G = [{V.fundamental: 1}]
    total = {V.fundamental: _quotient(fn, den)}
    for k in range(1, n + 1):
        G_k = {}
        c = 1  # (k-1)!/(k-i)! d^(i-1)
        for i in range(1, k + 1):
            if y[i] and G[k - i]:
                for l, v in V._raw_mul(y[i], G[k - i]).items():
                    G_k[l] = G_k.get(l, 0) + c * v
            c *= (k - i) * d
        G.append(G_k)
        den *= k * d
        for l, v in G_k.items():
            total[l] = _quotient(v * fn, den)
    return _built(V, total)


def _as_int(v):
    """A mod-p coefficient: _as_coeff's rule, and integral."""
    v = _as_coeff(v)
    if isinstance(v, Fraction):
        raise TypeError("a mod-p coefficient must be an integer, got %s" % v)
    return v


class ModPClass(_CellVector):
    """Chow class with coefficients reduced to [0, p)."""

    __slots__ = ("p",)

    def __init__(self, variety, p, coeffs):
        self.variety = variety
        self.p = p
        self.coeffs = _checked(variety, coeffs, lambda v: _as_int(v) % p)

    def _like(self, coeffs, variety=None, den=1):
        """A mod-p class on self's variety, or on variety, computed from
        checked ones: only reduced mod p."""
        p = self.p
        if den != 1:
            raise TypeError("a mod-%d class cannot be divided by %d" % (p, den))
        new = object.__new__(ModPClass)
        new.variety = self.variety if variety is None else variety
        new.p = p
        new.coeffs = {l: r for l, v in coeffs.items() if (r := v % p)}
        return new

    @classmethod
    def from_integral(cls, x, p):
        if not x.is_integral():
            raise IntegralityViolation("cannot reduce a fractional class mod %d" % p)
        return cls(x.variety, p, x.coeffs)

    def lift(self):
        """Integral representative with coefficients in [0, p)."""
        return ChowClass(self.variety, self.coeffs)

    def __mul__(self, other):
        if isinstance(other, ModPClass):
            self._same(other)
            return self._like(self.variety._raw_mul(self.coeffs, other.coeffs))
        return self.scale(other)

    def scale(self, c):
        c = _as_int(c)
        return self._like({l: v * c for l, v in self.coeffs.items()})

    def __repr__(self):
        return "ModPClass(%s mod %d: %s)" % (
            self.variety.name, self.p,
            " + ".join("%d.%s" % (v, l) for l, v in sorted(self.coeffs.items()))
            or "0")


# -- module-level operations ---------------------------------------------------

def make_class(variety, coeffs):
    """Normalized Chow class from a label -> coefficient mapping."""
    return ChowClass(variety, {variety.resolve_label(l): v
                               for l, v in coeffs.items()})


class Matrix(Mapping):
    """A sparse linear map over cells, stored in its integer form: `ints`,
    {column cell: {row cell: integer}}, is the columns times `den`, one
    common denominator of every entry, and is what `apply` reads.

    Read as a mapping it is {column cell: {row cell: entry}}, the entries
    ints and reduced Fractions without zeros: each column is divided out on
    its first read and kept, so a matrix only ever applied (an Adams
    matrix) holds no Fraction.  Built once, from the integer form, or from
    the entries by `of`; treat it as read-only.
    """

    __slots__ = ("ints", "den", "_columns")

    def __init__(self, ints, den):
        self.ints = ints
        self.den = den
        self._columns = ints if den == 1 else {}

    @classmethod
    def of(cls, columns):
        """The Matrix of columns of ints and Fractions, over their lcm."""
        den = lcm(*[v.denominator for col in columns.values()
                    for v in col.values()])
        return cls({c: {r: v.numerator * (den // v.denominator)
                        for r, v in col.items()}
                    for c, col in columns.items()}, den)

    @classmethod
    def kron(cls, A, B):
        """A (x) B over the cells of X x Y: column a x b is A[a] (x) B[b],
        the Kronecker product of the integer forms over A.den * B.den."""
        return cls({kunneth(a, b): kron(u, v) for a, u in A.ints.items()
                    for b, v in B.ints.items()}, A.den * B.den)

    def apply(self, coeffs):
        """(integers, d): the image of coeffs, ints and Fractions, as
        integers over one denominator d, undivided; a cancelled cell is 0."""
        num, d = _integer_form(coeffs)
        columns = self.ints
        out = {}
        for l, v in num.items():
            for r, s in columns.get(l, {}).items():
                out[r] = out.get(r, 0) + v * s
        return out, d * self.den

    def __getitem__(self, c):
        column = self._columns.get(c)
        if column is None:
            column = self._columns[c] = {r: _quotient(v, self.den)
                                         for r, v in self.ints[c].items()}
        return column

    def __iter__(self):
        return iter(self.ints)

    def __len__(self):
        return len(self.ints)


def apply_matrix(matrix, x, target):
    """Image of x under the linear map sending cell l to the vector matrix[l]
    over the cells of target; a mod-p class maps to a mod-p class: the
    integer `Matrix.apply`, then one divide per image cell.  The matrix is
    trusted: checked where it entered, or built by the library."""
    image, d = matrix.apply(x.coeffs)
    return x._like(image, target, d)


def kunneth(a, b):
    """Label of the product cell a x b of X x Y."""
    return "%s*%s" % (a, b)


def kron(u, v):
    """u (x) v over the cells of X x Y: the cell a x b gets u[a] v[b]."""
    return {kunneth(a, b): s * t for a, s in u.items() for b, t in v.items()}


def degree(a):
    """Pair the dimension-0 component with the degree vector."""
    return _as_coeff(sum(a.coeffs.get(l, 0) * v
                         for l, v in a.variety.degree_vector.items()))


# -- exact serialization -------------------------------------------------------

def coeff_to_str(v):
    return str(Fraction(v))  # "n" or "n/d"


def coeff_from_str(s):
    """Read what coeff_to_str writes: an int, or a string "n" or "n/d" with
    d != 0.  Anything else ("0.5", "1e6000000", a float) is a ValueError,
    raised before any number is built."""
    if isinstance(s, int) and not isinstance(s, bool):
        return s
    if not (isinstance(s, str)
            and re.fullmatch(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?", s)):
        raise ValueError("a coefficient must be an integer or a string 'n' or "
                         "'n/d' with d != 0, got %.40r" % (s,))
    return _as_coeff(Fraction(s))


def class_to_json(a):
    """Labels mapped to exact decimal strings, e.g. {"h^2": "1", "l_1": "-3"}."""
    return {l: coeff_to_str(v) for l, v in sorted(a.coeffs.items())}


def class_from_json(variety, obj):
    if not isinstance(obj, dict):
        raise ValueError("a class must be a JSON object of label: coefficient, "
                         "got %r" % (obj,))
    return make_class(variety, {l: coeff_from_str(v) for l, v in obj.items()})


def modp_to_json(a):
    return {l: str(v) for l, v in sorted(a.coeffs.items())}


def format_class(a):
    return " + ".join("%s.%s" % (coeff_to_str(a.coeffs[l]), l)
                      for l in sorted(a.coeffs, key=a.variety._index.get)) or "0"
