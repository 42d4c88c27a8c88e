"""Exact graded commutative algebra over the cell basis of a cellular variety.

A Chow class is a sparse vector over the cells, stored as integers over one
denominator: `num`, {cell: int} without zeros, over `den` >= 1, in lowest
terms, so equal classes are stored alike; `coeffs`, ints and reduced
Fractions, is a view of it.  A linear map (`Matrix`) is stored the same way,
its columns over one denominator.  The ring product, the exponential
(`_exp`) and a matrix apply (`Matrix.apply`, `apply_matrix`) run on the
integers and reduce their result once (`_built`); the p-adic split of psi_p
and theta^p reads an apply's image undivided.

The ring structure comes from a finite table of structure constants, given
keyed by pairs of cells and stored as rows keyed by the left cell,
{a: {b: ((c, n), ...)}}, nonzero products only; every product of two
classes is added into a dict by one kernel on those rows
(`CellularVariety._mul_into`), and `_exp` reads the same table as dense
lists over the cells, graded by codimension (`CellularVariety._graded`,
derived on the first exponential).  Each entry is checked for grading,
commutativity and unitality as it is read; a table given directly is also
checked for associativity, which the builders' tables have by construction
(`varieties.BuiltVariety`).  The tau columns
are checked to be unitriangular, in integer form, where they enter: a
caller's mapping in the constructor, a builder's callable on the first read
of `tau_columns`.  On a product X x Y the cell a x b is labelled
`kunneth(a, b)` and gets u[a] v[b] in `kron(u, v)`, and a product's
matrices are the Kronecker products of the factors' (`Matrix.kron`).  In
JSON a coefficient is an integer or a string "n" or "n/d" (`coeff_from_str`).

Chow classes (`ChowClass`) and their reductions mod p (`ModPClass`, over
den 1) share one sparse-vector arithmetic.  Caller input is checked once and
built data is trusted: `ChowClass(...)`, `ModPClass(...)`, `make_class` and
`class_from_json` check every label and coefficient (an int or a Fraction;
an integer mod a prime p), while a result the ring computes from checked
classes, or `apply_matrix` with a matrix checked where it entered or built
by the library, is trusted.  Over the rationals it is built by `_built`,
which takes the fresh dict it is given as the class's `num`, filtering it
only when it holds a zero and dividing by a gcd only over a den != 1:
directly in `ChowClass`'s product, negation and `scale`, and through the
subclass's `_like` in the arithmetic shared with `ModPClass` (sums,
`dim_component`, `apply_matrix`).  Mod p, `_like` reduces mod p and drops
zeros, and `_modp` wraps mod-p data that is already reduced and free of
zeros as it is.  The variety's `unit`, `zero` and `basis_class` (after
`resolve_label`) are built the same way, as trusted data.
"""
import re
from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import (
    InvalidVariety,
    IntegralityViolation,
    SeriesDomainError,
    UnknownLabel,
    VarietyMismatch,
    require_prime,
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


def _integer(v, where, *cells):
    """A caller's dimension, structure constant or degree: an int, no bool."""
    if type(v) is not int:
        raise InvalidVariety("%s: must be an integer, got %.40r"
                             % (where % cells, v))
    return v


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
    it is a plain attribute.  A mapping's fundamental column must be
    tau[O_X] = Todd(T_X) of `tangent_ch` (`_check_todd_column`); a
    builder's columns are trusted.
    """

    def __init__(self, name, dim, cells, mult_table, degree_vector,
                 tangent_ch, tau_columns):
        self.name = name
        self.dim = dim = _integer(dim, "dim")
        self.cells = [(str(l), _integer(d, "dimension of cell %r", l))
                      for (l, d) in cells]
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
        self.points = [l for (l, d) in self.cells if d == 0]
        if not self.points:
            raise InvalidVariety("need at least one 0-dimensional cell")

        self._table = self._build_table(mult_table)
        self.degree_vector = {str(l): _integer(v, "degree at cell %r", l)
                              for l, v in degree_vector.items()}
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
        if not callable(tau_columns):
            self._check_todd_column()

    # -- construction checks ------------------------------------------------

    def _build_table(self, mult_table):
        """The caller's pair-keyed table {(a, b): {c: n}} as rows keyed by
        the left cell, {a: {b: ((c, n), ...)}}, with both orders and the unit
        products filled in and only the nonzero products kept."""
        rows, one = {l: {} for l in self._dims}, self.fundamental
        for (a, b), vec in mult_table.items():
            if a not in self._dims or b not in self._dims:
                raise InvalidVariety("mult_table entry (%r, %r) uses unknown "
                                     "labels" % (a, b))
            clean = {}
            for c, v in vec.items():
                if c not in self._dims:
                    raise InvalidVariety("mult_table value label %r unknown" % c)
                if _integer(v, "structure constant of %r * %r at %r", a, b, c):
                    clean[c] = v
                    if self._dims[c] != self._dims[a] + self._dims[b] - self.dim:
                        raise InvalidVariety(
                            "product %r * %r hits %r, violating the grading"
                            % (a, b, c))
            if (b, a) in mult_table:
                other = {c: v for c, v in mult_table[(b, a)].items() if v}
                if other != clean:
                    raise InvalidVariety("product of %r and %r is not "
                                         "commutative" % (a, b))
            if clean or one in (a, b):  # the unit check refuses an empty one
                rows[a][b] = rows[b][a] = tuple(clean.items())
        for l in self._dims:
            unit = ((l, 1),)
            if rows[one].get(l, unit) != unit:
                raise InvalidVariety("fundamental class is not a unit on %r" % l)
            rows[one][l] = rows[l][one] = unit
        return rows

    def _mul_into(self, out, va, vb, c=1):
        """Add c va vb into out and return it: the one ring-product kernel,
        sparse label -> integer dicts multiplied through the rows of the
        table.  A cancelled cell is left in out as 0."""
        rows = self._table
        for a, ca in va.items():
            row = rows[a]
            ca *= c
            for b, cb in vb.items():
                prods = row.get(b)
                if prods:
                    s = ca * cb
                    for r, n in prods:
                        out[r] = out.get(r, 0) + s * n
        return out

    @cached_property
    def _graded(self):
        """(codims, graded): each cell's codimension, in `cells` order, and
        the table as `_exp` reads it: graded[k] holds (i, a, b, r, m), over
        cell indices, for each product [a][b] = m [r] with codim a = i >= 1
        and codim a + codim b = k."""
        n, dims, index = self.dim, self._dims, self._index
        graded = [[] for _ in range(n + 1)]
        for a, row in self._table.items():
            if dims[a] < n:
                for b, prods in row.items():
                    graded[n - dims[a] + n - dims[b]] += [
                        (n - dims[a], index[a], index[b], index[r], m)
                        for r, m in prods]
        return [n - d for _, d in self.cells], graded

    def _check_associativity(self):
        """(ab)c = a(bc) for ab != 0 and every c with a nonzero side,
        walking the rows.  The table is commutative, so that covers ab = 0
        too: the checks on (b, c, a) and (c, a, b), or bc = 0 or ca = 0,
        give (bc)a = (ca)b = 0.  A failure names the first failing triple in
        label order."""
        rows = self._table

        def mul(u, v):
            return {r: x for r, x in self._mul_into({}, u, v).items() if x}

        for a, row in rows.items():
            for b, ab in row.items():
                ab, row_b = dict(ab), rows[b]
                for c in set(row_b).union(*map(rows.get, ab)):
                    if mul(ab, {c: 1}) != mul({a: 1}, dict(row_b.get(c, ()))):
                        labels = self.labels()
                        raise InvalidVariety(
                            "associativity fails on (%r, %r, %r)" % next(
                                (a, b, c) for a in labels for b in labels
                                for c in labels
                                if mul(mul({a: 1}, {b: 1}), {c: 1})
                                != mul({a: 1}, mul({b: 1}, {c: 1}))))

    def _check_todd_column(self):
        """A caller's tau[O_X] must be Todd(T_X) of `tangent_ch` (Riemann-Roch
        for the smooth X).  It is computed, not cached, so the variety's own
        Todd class is built later as for any variety."""
        from .bundles import tangent_bundle, todd  # bundles imports core
        columns, one = self.tau_columns, self.fundamental
        if _built(self, dict(columns.ints[one]), columns.den) != todd(
                tangent_bundle(self)):
            raise InvalidVariety("tau column %r of the fundamental cell is not "
                                 "Todd(T_X) of tangent_ch" % one)

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
        return _built(self, {})

    def unit(self):
        return _built(self, {self.fundamental: 1})

    def basis_class(self, label):
        return _built(self, {self.resolve_label(label): 1})

    def tau_class(self, label):
        """tau[O_Z] of the closure of a cell, as a rational Chow class."""
        return ChowClass(self, self.tau_columns[self.resolve_label(label)])

    def tangent_chern_character(self):
        return _built(self, *_integer_form(dict(self.tangent_ch)))

    def __repr__(self):
        return "CellularVariety(%s, dim=%d, %d cells)" % (
            self.name, self.dim, len(self.cells))


class _CellVector:
    """Sparse vector over the cells of one variety, stored as integers
    `num` over `den`: the arithmetic ChowClass and ModPClass share.

    A subclass says how a result computed from checked classes is normalized
    (`_like`) and how it scales; p is the modulus its coefficients are
    reduced by, None when they are not.
    """

    __slots__ = ("variety", "num")
    p = None

    @property
    def coeffs(self):
        """The coefficients, ints and reduced Fractions, as a read-only view:
        `num` itself over den 1, else each cell divided once."""
        if self.den == 1:
            return self.num
        return {l: _quotient(v, self.den) for l, v in self.num.items()}

    def is_zero(self):
        return not self.num

    def support_dims(self):
        dims = self.variety._dims
        return sorted({dims[l] for l in self.num})

    def top_dim(self):
        dims = self.variety._dims
        return max(map(dims.__getitem__, self.num), default=None)

    def dim_component(self, d):
        dims = self.variety._dims
        return self._like({l: v for l, v in self.num.items()
                           if dims[l] == d}, den=self.den)

    def codim_component(self, c):
        return self.dim_component(self.variety.dim - c)

    def _same(self, other):
        if self.variety is not other.variety or self.p != other.p:
            raise VarietyMismatch("classes live on %s and %s"
                                  % (_where(self), _where(other)))

    def __add__(self, other):
        try:
            variety, p = other.variety, other.p
        except AttributeError:  # not a class: Python raises the TypeError
            return NotImplemented
        # the check is repeated inline so that a sum makes one call, to _like
        if self.variety is not variety or self.p != p:
            self._same(other)
        a, b, den = self.num, other.num, self.den
        if den != other.den:
            den = lcm(den, other.den)
            a = {l: v * (den // self.den) for l, v in a.items()}
            b = {l: v * (den // other.den) for l, v in b.items()}
        out = dict(a)
        for l, v in b.items():
            out[l] = out.get(l, 0) + v
        return self._like(out, den=den)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        if not isinstance(other, _CellVector):
            return NotImplemented
        return (self.variety is other.variety and self.p == other.p
                and self.den == other.den and self.num == other.num)

    def __hash__(self):
        return hash((id(self.variety), self.p, self.den,
                     frozenset(self.num.items())))

    def __repr__(self):
        return "%s(%s: %s)" % (type(self).__name__, _where(self),
                               format_class(self))


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
    """Sparse exact vector over the cells of one variety, integers `num`
    over `den` in lowest terms."""

    __slots__ = ("den",)

    def __init__(self, variety, coeffs):
        self.variety = variety
        self.num, self.den = _integer_form(_checked(variety, coeffs,
                                                    _as_coeff))

    def _like(self, num, variety=None, den=1):
        """`_built` on self's variety, or on variety."""
        return _built(self.variety if variety is None else variety, num, den)

    def is_integral(self):
        return self.den == 1

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
        return _built(self.variety, {l: -v for l, v in self.num.items()},
                      self.den)

    def __mul__(self, other):
        if isinstance(other, ChowClass):
            self._same(other)
            return _built(self.variety,
                          self.variety._mul_into({}, self.num, other.num),
                          self.den * other.den)
        return self.scale(other)

    def scale(self, c):
        n, d = _as_coeff(c).as_integer_ratio()
        return _built(self.variety, {l: v * n for l, v in self.num.items()},
                      self.den * d)

    def power(self, k):
        if type(k) is not int or k < 0:
            raise ValueError("power needs a non-negative int exponent")
        out = self.variety.unit()
        for _ in range(k):
            out = out * self
        return out

    def exp(self):
        """e^x for x supported in positive codimension, where the series
        stops; computed in integers by `_exp`."""
        if self.variety.fundamental in self.num:
            raise SeriesDomainError("exp needs x in positive codimension, "
                                    "got %s" % format_class(self))
        V, num = self.variety, self.num
        return _exp(V, [c * num.get(l, 0) for (l, _), c
                        in zip(V.cells, V._graded[0])], self.den)


def _built(variety, num, den=1):
    """A class on variety computed from checked data: its labels are cells,
    its values integers over den >= 1.  It takes ownership of num: zeros
    are dropped when there are any, and num and den divided by their gcd
    when den != 1, so a zero-free num over 1 is stored as it is."""
    new = object.__new__(ChowClass)
    new.variety = variety
    if 0 in num.values():
        num = {l: v for l, v in num.items() if v}
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {l: v // g for l, v in num.items()}
            den //= g
    new.num, new.den = num, den
    return new


def _lowest(num, den):
    """Integers num ({key: int}) over den in lowest terms and without zeros:
    divided by their gcd when den != 1, as `_built` does inline."""
    num = {l: v for l, v in num.items() if v}
    if den == 1:
        return num, den
    g = gcd(den, *num.values())
    if g == 1:
        return num, den
    return {l: v // g for l, v in num.items()}, den // g


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
    """v / d for integers, as a class shows it: an int when d divides v,
    else a reduced Fraction."""
    q, r = divmod(v, d)
    return Fraction(v, d) if r else q


def _exp(V, y, d, fn=1, fd=1):
    """f e^x on V for x = num / d, num integers supported in positive
    codimension, and f = fn / fd, integers with fd >= 1: the one ring
    exponential.  y is i num on each codim-i cell, a list in `V.cells` order.

    The grading derivation D (multiplication by i in codimension i)
    satisfies D e^x = Dx . e^x, so e^x is built codimension by codimension:
    k E_k = sum_{i=1..k} (i x_i) E_{k-i}, with x_i the codim-i part of x.
    It runs in integers: with y_i = i num_i and G_k = k! d^k E_k, which is
    integral, G_k = sum_{i=1..k} c_i y_i G_{k-i}, c_i = (k-1)!/(k-i)! d^(i-1).
    The G_k sit in distinct codimensions, so they share one list G over the
    cells, and each product of cells is one entry (i, a, b, r, m) of
    `V._graded`: G[r] += c_i m y[a] G[b].  f E_k is G_k fn over k! d^k fd,
    so f e^x is the union of the blocks, over n! d^n fd or, on large
    integers, over the lcm of the blocks' denominators in lowest terms.
    """
    codims, graded = V._graded
    G = [0] * len(y)
    G[V._index[V.fundamental]] = 1
    dens = [fd]  # k! d^k fd
    for k in range(1, V.dim + 1):
        c = [0, 1]  # c[i] = c_i
        for i in range(1, k):
            c.append(c[i] * (k - i) * d)
        for i, a, b, r, m in graded[k]:
            G[r] += c[i] * m * y[a] * G[b]
        dens.append(dens[-1] * k * d)
    L = dens[-1]
    if L.bit_length() > 128:
        # reduce each block on its own first: past about 128 bits (measured)
        # the gcds on the blocks cost less than scaling every block to
        # n! d^n f_den and reducing the lot, below it they cost more
        L = lcm(*[e // gcd(e, fn * gcd(*[v for v, j in zip(G, codims)
                                         if j == k]))
                  for k, e in enumerate(dens)])
    s = fn * L
    out = [v * s // dens[j] for j, v in zip(codims, G)]
    g = gcd(L, *out)  # reduced as a list, so that one dict is built
    return _built(V, {l: v // g for (l, _), v in zip(V.cells, out) if v},
                  L // g)


def _as_int(v):
    """A mod-p coefficient: _as_coeff's rule, and integral."""
    if type(v) is int:
        return v
    v = _as_coeff(v)
    if isinstance(v, Fraction):
        raise TypeError("a mod-p coefficient must be an integer, got %s" % v)
    return v


class ModPClass(_CellVector):
    """Chow class with coefficients reduced to [0, p), over den 1."""

    __slots__ = ("p",)
    den = 1

    def __init__(self, variety, p, coeffs):
        require_prime(p)
        self.variety = variety
        self.p = p
        self.num = {l: r for l, v in _checked(variety, coeffs, _as_int).items()
                    if (r := v % p)}

    def _like(self, num, variety=None, den=1):
        """A mod-p class on self's variety, or on variety, computed from
        checked ones: only reduced mod p."""
        p = self.p
        if den != 1:
            raise TypeError("a mod-%d class cannot be divided by %d" % (p, den))
        return _modp(self.variety if variety is None else variety, p,
                     {l: r for l, v in num.items() if (r := v % p)})

    @classmethod
    def from_integral(cls, x, p):
        """x mod p; the ChowClass x is checked data, so it is only reduced."""
        require_prime(p)
        if not x.is_integral():
            raise IntegralityViolation("cannot reduce a fractional class mod %d" % p)
        return _modp(x.variety, p, {l: r for l, v in x.num.items()
                                    if (r := v % p)})

    def lift(self):
        """Integral representative with coefficients in [0, p)."""
        return _built(self.variety, dict(self.num))

    def __mul__(self, other):
        if isinstance(other, ModPClass):
            self._same(other)
            return self._like(self.variety._mul_into({}, self.num, other.num))
        return self.scale(other)

    def scale(self, c):
        c = _as_int(c)
        return self._like({l: v * c for l, v in self.num.items()})


def _modp(variety, p, num):
    """The mod-p class num on variety, taken as it is: num is computed from
    checked data, its labels cells and its values already in [1, p)."""
    new = object.__new__(ModPClass)
    new.variety, new.p, new.num = variety, p, num
    return new


# -- module-level operations ---------------------------------------------------

def make_class(variety, coeffs):
    """Normalized Chow class from a label -> coefficient mapping.  The "1"
    alias and the fundamental label name one cell: giving both is refused."""
    num = {variety.resolve_label(l): v for l, v in coeffs.items()}
    if len(num) < len(coeffs):
        raise ValueError("cell %r given twice" % variety.fundamental)
    return ChowClass(variety, num)


class Matrix(Mapping):
    """A sparse linear map over cells, stored as a class is: `ints`,
    {column cell: {row cell: integer}}, is the columns times `den`, one
    common denominator of every entry, and is what `apply` reads.

    Read as a mapping it is {column cell: {row cell: entry}}, the entries
    ints and reduced Fractions without zeros, a view built on each read,
    like a class's `coeffs`.  Built once, from the integer form, or from
    the entries by `of`; treat it as read-only.
    """

    __slots__ = ("ints", "den")

    def __init__(self, ints, den):
        self.ints = ints
        self.den = den

    @classmethod
    def of(cls, columns):
        """The Matrix of columns of ints and Fractions, over their lcm."""
        return cls.over({c: _integer_form(col) for c, col in columns.items()})

    @classmethod
    def over(cls, columns):
        """The Matrix of columns {cell: ({row: int}, den)}, each integers
        over its own denominator, put over the lcm of their lowest terms."""
        columns = {c: _lowest(num, d) for c, (num, d) in columns.items()}
        den = lcm(*[d for _, d in columns.values()])
        return cls({c: {r: v * (den // d) for r, v in num.items()}
                    for c, (num, d) in columns.items()}, den)

    @classmethod
    def kron(cls, A, B):
        """A (x) B over the cells of X x Y: column a x b is A[a] (x) B[b],
        the Kronecker product of the integer forms over A.den * B.den."""
        return cls({kunneth(a, b): kron(u, v) for a, u in A.ints.items()
                    for b, v in B.ints.items()}, A.den * B.den)

    def apply(self, num, d=1):
        """(integers, e): the image of num / d, num integers, as integers
        over e = d * den, undivided; a cancelled cell is 0."""
        columns = self.ints
        out = {}
        for l, v in num.items():
            for r, s in columns.get(l, {}).items():
                out[r] = out.get(r, 0) + v * s
        return out, d * self.den

    def __getitem__(self, c):
        column, den = self.ints[c], self.den
        if den == 1:
            return column
        return {r: _quotient(v, den) for r, v in column.items()}

    def __iter__(self):
        return iter(self.ints)

    def __len__(self):
        return len(self.ints)


def apply_matrix(matrix, x, target):
    """Image of x under the linear map sending cell l to the vector matrix[l]
    over the cells of target, mod p for a mod-p class: `Matrix.apply` of
    x.num over x.den, reduced once.  The matrix is trusted: checked where it
    entered, or built by the library."""
    image, d = matrix.apply(x.num, x.den)
    return x._like(image, target, d)


def kunneth(a, b):
    """Label of the product cell a x b of X x Y."""
    return "%s*%s" % (a, b)


def kron(u, v):
    """u (x) v over the cells of X x Y: the cell a x b gets u[a] v[b]."""
    return {kunneth(a, b): s * t for a, s in u.items() for b, t in v.items()}


def degree(a):
    """Pair the dimension-0 component with the degree vector."""
    return _quotient(sum(a.num.get(l, 0) * v
                         for l, v in a.variety.degree_vector.items()), a.den)


# -- exact serialization -------------------------------------------------------

def coeff_to_str(v):
    return str(v)  # "n" or "n/d": v is an int or a reduced Fraction


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


def format_class(a):
    coeffs = a.coeffs
    return " + ".join("%s.%s" % (coeff_to_str(coeffs[l]), l)
                      for l in sorted(coeffs, key=a.variety._index.get)) or "0"
