"""Named verification suites: the theory's identities as executable checks.

Each suite quantifies a proposition over the desk-scale builder registry and
returns a report with the first counterexample serialized.  Randomized suites
take a seed and are fully deterministic for a fixed seed.

The suites build their own inputs as trusted data: the mod-p cells, the
random lattice classes (`core._modp`, `core._built`) and the random bundles,
summed in integers from the cached line and tangent bundles, are made from
the variety's own cells, so they skip the caller-input check `core._checked`.
Work that does not depend on p (K_0 generators and their images under a
morphism, products of basis classes) is done once, outside the loop over
primes, and powers of p are ints unless the exponent is negative.
"""
import random
from fractions import Fraction
from math import comb, lcm

from .bundles import (
    VirtualBundle,
    adams_upper,
    bott_decompose,
    chern,
    k0_generator_bundles,
    line_bundle,
    tangent_bundle,
    theta_p,
    todd,
    w_chp,
)
from .char_classes import todd_class
from .core import ModPClass, _built, _modp, apply_matrix, degree, make_class
from .errors import SUITE_NAMES, ChowopsError, require_prime, to_json
from .ktheory import (
    adams_lower,
    euler_char,
    filtration_level,
    k0_from_chow_lift,
    k0_generators,
    tau_lattice,
)
from .morphisms import kclass_pullback, kclass_pushforward
from .numbers import _p_power, chi_defect, degree_formula_witness, segre_number
from .steenrod import (
    op_component,
    steenrod_cohomological,
    steenrod_homological,
    steenrod_total,
)
from .varieties import (
    DEFAULT_MAX_DIM,
    build_morphism,
    external_product,
    odd_quadric,
    product,
    projective_space,
    variety_from_spec,
)

DEFAULT_PRIMES = (2, 3, 5)

_BUILDER_SHORTHANDS = ("P^1", "P^2", "P^3", "P^4", "Q_3", "Q_5", "Q_7",
                       "P^1xP^1", "P^1xP^2", "P^2xP^2")

# the suite parameters and what a suite reads for one not given or None; a
# None here is the suite's own primes, varieties, segre cases or lucas P^n
_DEFAULTS = {"seed": 0, "p": None, "variety": None, "n": None, "k": None,
             "trials": 100, "max_dim": DEFAULT_MAX_DIM}
_SIZES = ("n", "k", "trials", "max_dim")
# the parameters each suite reads besides seed and max_dim, which every suite
# takes; a suite is given only these, so a body that reads another one fails
_READS = {
    "algebra": ("variety",), "lucas-oracle": ("n",), "segre": ("p", "k"),
    "whitney": ("p", "variety", "trials"),
    "lift-independence": ("p", "variety", "trials"),
    **dict.fromkeys(("rr-naturality", "cartan", "wu", "chi-defect"), ("p",)),
    **dict.fromkeys(("bott", "psipower", "integrality", "xp", "s0",
                     "degree-formula"), ("p", "variety")),
}


class _Fail(Exception):
    pass


class Runner:
    """Counts checks; the first failed check stops the suite."""

    def __init__(self, suite, params):
        self.suite = suite
        self.params = params
        self.checks = 0
        self.failures = []

    def check(self, cond, **info):
        self.checks += 1
        if not cond:
            self.failures.append(to_json(info))  # written down on failure only
            raise _Fail()

    def report(self):
        return {
            "suite": self.suite,
            "passed": not self.failures,
            "checks": self.checks,
            "failures": self.failures,
            "params": self.params,
        }


def default_builders(max_dim=DEFAULT_MAX_DIM):
    out = []
    for text in _BUILDER_SHORTHANDS:
        X = variety_from_spec(text)
        if X.dim <= max_dim:
            out.append(X)
    return out


def _builders(params, own=default_builders):
    """The caller's variety, or the suite's own ones within max_dim."""
    if params["variety"] is not None:
        return [variety_from_spec(params["variety"],
                                  max_dim=params["max_dim"])]
    return own(params["max_dim"])


def _primes(params, X=None, allowed=DEFAULT_PRIMES):
    if params["p"] is not None:
        ps = (params["p"],)
    else:
        ps = allowed
    if X is None:
        return list(ps)
    return [p for p in ps if p - 1 <= X.dim]


def _modp_basis(X, p):
    # p is prime: a caller's p was checked by run_suite
    return [(label, _modp(X, p, {label: 1})) for label in X.labels()]


def random_bundle(X, rng):
    """Random integral virtual bundle: a trivial summand, line-bundle powers
    and tangent summands, drawn in that order.  Its rank and Chern character
    are summed in one pass over the integers of the cached bundles
    (`line_bundle`, `tangent_bundle`)."""
    rank = rng.randint(-2, 2)
    parts = []
    for i in range(-2, 3):
        a = rng.randint(-2, 2)
        if a:
            parts.append((a, line_bundle(X, i)))
    b = rng.randint(-1, 1)
    if b:
        parts.append((b, tangent_bundle(X)))
    den = lcm(*(e.ch.den for _, e in parts))
    ch = {X.fundamental: rank * den}
    for a, e in parts:
        rank += a * e.rank
        s = a * (den // e.ch.den)
        for l, v in e.ch.num.items():
            ch[l] = ch.get(l, 0) + s * v
    return VirtualBundle(X, rank, _built(X, ch, den))


def _lattice_coeffs(X, rng, max_level, bound=3):
    """Random integer coordinates in the tau-column basis, one draw per cell
    of dim <= max_level, in cell order, zeros dropped."""
    coeffs = {}
    for label, d in X.cells:
        if d <= max_level:
            c = rng.randint(-bound, bound)
            if c:
                coeffs[label] = c
    return coeffs


def random_lattice_kclass(X, rng, max_level, bound=3):
    """Random integer combination of tau-columns of cells of dim <= max_level."""
    return k0_from_chow_lift(_built(X, _lattice_coeffs(X, rng, max_level,
                                                       bound)))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_algebra(r, params):
    rng = random.Random(params["seed"])
    for X in _builders(params):
        labels = X.labels()
        basis = {l: X.basis_class(l) for l in labels}
        one = X.unit()
        for l in labels:
            r.check(one * basis[l] == basis[l], variety=X.name,
                    law="unit", cell=l)
        if len(labels) <= 10:
            triples = [(a, b, c) for a in labels for b in labels for c in labels]
        else:
            triples = [tuple(rng.choice(labels) for _ in range(3))
                       for _ in range(2000)]
        for a, b, c in triples:
            r.check((basis[a] * basis[b]) * basis[c]
                    == basis[a] * (basis[b] * basis[c]),
                    variety=X.name, law="associativity", cells=[a, b, c])
        for a in labels:
            for b in labels:
                r.check(basis[a] * basis[b] == basis[b] * basis[a],
                        variety=X.name, law="commutativity", cells=[a, b])
        # grading decomposition reassembles
        x = make_class(X, {l: rng.randint(-4, 4) for l in labels})
        total = X.zero()
        for d in range(X.dim + 1):
            total = total + x.dim_component(d)
        r.check(total == x, variety=X.name, law="grading")
    # degree is multiplicative on external products of point classes
    for a, b in ((1, 1), (1, 2), (2, 2)):
        Xa, Xb = projective_space(a), projective_space(b)
        for la in Xa.points:
            for lb in Xb.points:
                x, y = Xa.basis_class(la).scale(2), Xb.basis_class(lb).scale(3)
                r.check(degree(external_product(x, y)) == degree(x) * degree(y),
                        law="degree Kunneth", factors=[Xa.name, Xb.name])


def suite_whitney(r, params):
    rng = random.Random(params["seed"])
    trials = params["trials"]
    for X in _builders(params):
        ps = _primes(params, X)
        for _ in range(trials):
            # each class of e is computed once and read by every check on it
            e, f = random_bundle(X, rng), random_bundle(X, rng)
            r.check(todd(e + f) == todd(e) * todd(f),
                    variety=X.name, cls="todd")
            c = chern(e)
            r.check(chern(e + f) == c * chern(f),
                    variety=X.name, cls="chern")
            w = {}
            for p in ps:
                theta = theta_p(e, p)
                r.check(theta_p(e + f, p) == theta * theta_p(f, p),
                        variety=X.name, cls="theta", p=p)
                w[p] = w_chp(e, p)
                r.check(w_chp(e + f, p) == w[p] * w_chp(f, p),
                        variety=X.name, cls="w", p=p)
                r.check(theta * theta_p(-e, p) == X.unit(),
                        variety=X.name, cls="theta inverse", p=p)
            # w^{CH,2} is the total Chern class with alternating signs
            alt = X.zero()
            for i in range(X.dim + 1):
                alt = alt + c.codim_component(i).scale((-1) ** i)
            w2 = w[2] if 2 in w else w_chp(e, 2)
            r.check(w2 == alt, variety=X.name, cls="w vs chern")


def suite_bott(r, params):
    for X in _builders(params):
        bundles = [tangent_bundle(X), -tangent_bundle(X)]
        bundles += [line_bundle(X, i) for i in range(-3, 4)]
        for p in _primes(params):
            for e in bundles:
                total = X.zero()
                for k, ek in enumerate(bott_decompose(e, p)):
                    total = total + ek.scale(_p_power(p, e.rank - k))
                r.check(total == theta_p(e, p),
                        variety=X.name, p=p, rank=e.rank, law="bott sum")


def suite_psipower(r, params):
    for X in _builders(params):
        L = tau_lattice(X)
        td = todd_class(X)
        for p in _primes(params):
            for label, g in k0_generator_bundles(X):
                diff = (adams_upper(g, p).ch - g.ch.power(p)) * td
                coords = apply_matrix(L.inverse, diff, X)
                ok = coords.is_integral() and all(
                    v % p == 0 for v in coords.coeffs.values())
                r.check(ok, variety=X, p=p, generator=label, coords=coords)


def suite_integrality(r, params):
    for X in _builders(params):
        for p in _primes(params):
            for label, x in k0_generators(X):
                d = filtration_level(x)
                diff = adams_lower(x, p).tau - x.tau.scale(Fraction(1, p ** d))
                top = diff.top_dim()
                r.check(top is None or top <= d - 1,
                        variety=X.name, p=p, generator=label,
                        law="psi_p = p^-d mod lower")
    # the euler characteristic of a 0-cycle's canonical lift is its degree
    for X in _builders(params):
        for label in X.points:
            x = X.basis_class(label).scale(3)
            r.check(euler_char(k0_from_chow_lift(x)) == degree(x),
                    variety=X.name, law="deg after phi", cell=label)


def standard_morphisms(max_dim=DEFAULT_MAX_DIM):
    fs = []
    for m in range(0, 5):
        for n in range(m + 1, 6):
            fs.append(build_morphism("linear_embedding", m=m, n=n))
    fs.append(build_morphism("veronese", n=1, deg=2))
    fs.append(build_morphism("veronese", n=2, deg=2))
    fs.append(build_morphism("quadric_in_projective", d=3))
    if max_dim >= 7:
        fs.append(build_morphism("quadric_in_projective", d=5))
    fs.append(build_morphism("linear_in_quadric", j=1, d=3))
    fs.append(build_morphism("linear_in_quadric", j=2, d=5))
    fs.append(build_morphism("product_projection",
                             factors=(projective_space(1), projective_space(1)),
                             onto=0))
    fs.append(build_morphism("product_projection",
                             factors=(projective_space(1), projective_space(2)),
                             onto=1))
    fs.append(build_morphism("product_projection",
                             factors=(projective_space(2), projective_space(2)),
                             onto=0))
    for m in (2, 3, 5):
        fs.append(build_morphism("pn_self_map", degree=m))
    return [f for f in fs
            if f.source.dim <= max_dim and f.target.dim <= max_dim]


def suite_rr_naturality(r, params):
    max_dim = params["max_dim"]
    for f in standard_morphisms(max_dim):
        # the generators and their images do not depend on p
        pushed = [(label, x, kclass_pushforward(f, x))
                  for label, x in k0_generators(f.source)]
        pulled = [(label, x, kclass_pullback(f, x))
                  for label, x in k0_generators(f.target)]
        for p in _primes(params):
            if f.lci:
                tw = theta_p(-f.T_f, p)
                for label, x, y in pulled:
                    lhs = adams_lower(y, p).tau
                    rhs = tw * kclass_pullback(f, adams_lower(x, p)).tau
                    r.check(lhs == rhs, morphism=f.name, p=p, generator=label,
                            law="theta-twisted pullback")
            if f.proper:
                for label, x, y in pushed:
                    lhs = adams_lower(y, p).tau
                    rhs = f.push_class(adams_lower(x, p).tau)
                    r.check(lhs == rhs, morphism=f.name, p=p, generator=label,
                            law="psi_p proper pushforward")
        # phi-compatibility: push/pull respect filtration levels
        for label, x, y in pushed:
            r.check(y.is_zero() or filtration_level(y) <= filtration_level(x),
                    morphism=f.name, generator=label, law="push level")
        shift = f.source.dim - f.target.dim
        for label, x, y in pulled:
            r.check(y.is_zero()
                    or filtration_level(y) <= filtration_level(x) + shift,
                    morphism=f.name, generator=label, law="pull level")


def suite_lift_independence(r, params):
    """Each trial's lift [l] + p r1 + r2, r1 of level <= dim l and r2 of
    level <= dim l - 1, is summed in tau-column coordinates and lifted once:
    the canonical lift is linear, so it is the same K-class as the sum of
    the three lifts."""
    rng = random.Random(params["seed"])
    trials = params["trials"]
    for X in _builders(params):
        for p in _primes(params, X):
            base = {}
            for label, xbar in _modp_basis(X, p):
                base[label] = steenrod_homological(xbar, p)
            labels = X.labels()
            for _ in range(trials):
                label = rng.choice(labels)
                d = X.cell_dim(label)
                xbar = _modp(X, p, {label: 1})
                coeffs = {label: 1}
                for c, level in ((p, d), (1, d - 1)):
                    for m, v in _lattice_coeffs(X, rng, level).items():
                        coeffs[m] = coeffs.get(m, 0) + c * v
                lift = k0_from_chow_lift(_built(X, coeffs))
                ops = steenrod_homological(xbar, p, lift=lift)
                r.check(ops == base[label], variety=X.name, p=p, cell=label,
                        law="lift independence")


def _cartan_pairs(max_dim):
    return [(a, b) for a in range(1, 6) for b in range(a, 6)
            if a + b <= min(6, max_dim)]


def suite_cartan(r, params):
    """Total operation of x boxtimes y against the product of the totals.

    On products psi_p is the Kronecker product of the factors' Adams
    matrices, so this law is partly true by construction: what it still
    checks independently is the per-degree extraction, the mod-p read-off
    and the w^{CH,p}(T) twist.  The Kronecker matrices are compared with the
    tau route (adams_lower, then the inverse tau matrix) on products in
    tests/test_ktheory.py.
    """
    max_dim = params["max_dim"]
    for a, b in _cartan_pairs(max_dim):
        Xa, Xb = projective_space(a), projective_space(b)
        XY = product(Xa, Xb)
        for p in _primes(params, XY, allowed=(2, 3)):
            basis_a, basis_b = dict(_modp_basis(Xa, p)), dict(_modp_basis(Xb, p))
            totals_a = {l: steenrod_total(steenrod_cohomological(x, p))
                        for l, x in basis_a.items()}
            totals_b = {l: steenrod_total(steenrod_cohomological(x, p))
                        for l, x in basis_b.items()}
            for la, xa in basis_a.items():
                for lb, xb in basis_b.items():
                    xy = external_product(xa, xb)
                    lhs = steenrod_total(steenrod_cohomological(xy, p))
                    rhs = external_product(totals_a[la], totals_b[lb])
                    r.check(lhs == rhs, product=XY.name, p=p,
                            cells=[la, lb], law="Cartan")


def suite_wu(r, params):
    max_dim = params["max_dim"]
    for f in standard_morphisms(max_dim):
        X, Y = f.source, f.target
        for p in _primes(params, None, allowed=(2, 3)):
            if p - 1 > max(X.dim, Y.dim):
                continue
            if f.lci:
                for label, ybar in _modp_basis(Y, p):
                    lhs = steenrod_total(
                        steenrod_cohomological(f.pull_class(ybar), p))
                    rhs = f.pull_class(
                        steenrod_total(steenrod_cohomological(ybar, p)))
                    r.check(lhs == rhs, morphism=f.name, p=p, cell=label,
                            law="stc(ii) pullback naturality")
            if f.proper:
                w_tf = ModPClass.from_integral(w_chp(-f.T_f, p), p)
                for label, xbar in _modp_basis(X, p):
                    lhs = steenrod_total(
                        steenrod_cohomological(f.push_class(xbar), p))
                    rhs = f.push_class(
                        w_tf * steenrod_total(steenrod_cohomological(xbar, p)))
                    r.check(lhs == rhs, morphism=f.name, p=p, cell=label,
                            law="stc(iii) Wu pushforward")
                    hom_lhs = f.push_class(
                        steenrod_total(steenrod_homological(xbar, p)))
                    hom_rhs = steenrod_total(
                        steenrod_homological(f.push_class(xbar), p))
                    r.check(hom_lhs == hom_rhs, morphism=f.name, p=p,
                            cell=label, law="st(a) homological pushforward")


def _xp_varieties(max_dim):
    out = [projective_space(n) for n in range(1, 7)]
    out += [product(projective_space(a), projective_space(b))
            for a in range(1, 6) for b in range(a, 6) if a + b <= 6]
    out += [odd_quadric(d) for d in (3, 5, 7)]
    return [X for X in out if X.dim <= max_dim]


def suite_xp(r, params):
    for X in _builders(params, _xp_varieties):
        products = {(la, lb): X.basis_class(la) * X.basis_class(lb)
                    for la in X.labels() for lb in X.labels()}
        for p in _primes(params, X):
            totals = {}
            for label, xbar in _modp_basis(X, p):
                q = X.cell_codim(label)
                ops = steenrod_cohomological(xbar, p)
                totals[label] = steenrod_total(ops)
                power = X.basis_class(label).power(p)
                r.check(op_component(ops, q) == ModPClass.from_integral(power, p),
                        variety=X.name, p=p, cell=label, law="S^q(x) = x^p")
                for k in range(q + 1, len(ops)):
                    r.check(ops[k].is_zero(), variety=X.name, p=p,
                            cell=label, k=k, law="S^k(x) = 0 for k > q")
            # the total operation is a ring homomorphism on smooth builders
            for (la, lb), prod in products.items():
                prod_bar = ModPClass.from_integral(prod, p)
                lhs = steenrod_total(steenrod_cohomological(prod_bar, p))
                r.check(lhs == totals[la] * totals[lb],
                        variety=X.name, p=p, cells=[la, lb],
                        law="stc(i) ring property")


def suite_s0(r, params):
    for X in _builders(params):
        for p in _primes(params, X):
            for label, xbar in _modp_basis(X, p):
                hom = steenrod_homological(xbar, p)
                coh = steenrod_cohomological(xbar, p)
                r.check(hom[0] == xbar, variety=X.name, p=p, cell=label,
                        law="S^X_0 = id")
                r.check(coh[0] == xbar, variety=X.name, p=p, cell=label,
                        law="S_X^0 = id")


def suite_segre(r, params):
    """Divisibility of deg w^{CH,p}(-T_X) by p, on the caller's P^{k(p-1)}
    or on the default cases and spot values of dimension <= max_dim."""
    max_dim = params["max_dim"]
    given = params["p"] is not None and params["k"] is not None
    if given:
        p, k = params["p"], params["k"]
        cases = [(variety_from_spec("P^%d" % (k * (p - 1)), max_dim=max_dim),
                  p)]
    else:
        cases = [(projective_space(k * (p - 1)), p)
                 for p, ks in ((2, (1, 2, 3, 4)), (3, (1, 2)), (5, (1,)))
                 for k in ks if k * (p - 1) <= max_dim]
        cases += [(odd_quadric(d), 2) for d in (3, 5, 7) if d <= max_dim]
    for X, p in cases:
        val = segre_number(X, p)
        r.check(val % p == 0, variety=X.name, p=p, value=val,
                law="deg w_k(-T) divisible by p")
    if not given:
        for n, p, want, law in ((2, 2, 6, "spot deg w_2(-T_P2) at p=2"),
                                (2, 3, -3, "spot deg w_1(-T_P2) at p=3"),
                                (1, 2, 2, "spot deg c_1(T_P1)")):
            if n <= max_dim:
                r.check(segre_number(projective_space(n), p) == want, law=law)


def suite_degree_formula(r, params):
    for X in _builders(params):
        for p in _primes(params):
            for label, x in k0_generators(X):
                c, lam = degree_formula_witness(x, p)
                d = filtration_level(x)
                want = lam * p ** (d // (p - 1)) * euler_char(x)
                r.check(Fraction(degree(c)) == want, variety=X.name, p=p,
                        generator=label, law="degree identity",
                        witness=c, lam=lam)


def suite_chi_defect(r, params):
    """The chi defect of the degree-m self-maps of P^1 and of the identity
    of P^2, each where its variety is within max_dim."""
    max_dim = params["max_dim"]
    for m in (2, 3, 5):
        f = build_morphism("pn_self_map", degree=m)
        if f.source.dim > max_dim:
            break
        for p in _primes(params, f.source, allowed=(2, 3)):
            rep = chi_defect(f, p)
            r.check(rep["defect"] == 1 - m, morphism=f.name, p=p,
                    defect=rep["defect"], law="chi defect value")
            want = rep["lambda"] * p ** rep["exponent"] * rep["defect"]
            r.check(rep["witness_degree"] == want, morphism=f.name, p=p,
                    law="witness degree")
    ident = build_morphism("linear_embedding", m=2, n=2)
    if ident.source.dim <= max_dim:
        rep = chi_defect(ident, _primes(params)[0])
        r.check(rep["defect"] == 0 and rep["witness"].is_zero(),
                morphism=ident.name, law="identity has no defect")


def lucas_binom(n, k, p):
    """Binomial coefficient mod p from base-p digits (Lucas' theorem)."""
    out = 1
    while n or k:
        out = (out * comb(n % p, k % p)) % p
        n //= p
        k //= p
    return out


def suite_lucas_oracle(r, params):
    """Sq(h^i) on the caller's P^n, or on the default P^8 where it is within
    max_dim; a caller's n above max_dim is refused."""
    n = params["n"]
    if n is None:
        n = 8
        if n > params["max_dim"]:
            return
    X = variety_from_spec("P^%d" % n, max_dim=params["max_dim"])
    for i in range(n + 1):
        xbar = ModPClass(X, 2, {"h^%d" % i: 1})
        total = steenrod_total(steenrod_cohomological(xbar, 2))
        expected = {}
        for j in range(i + 1):
            if i + j <= n:
                c = lucas_binom(i, j, 2)
                if c:
                    expected["h^%d" % (i + j)] = c
        r.check(total == ModPClass(X, 2, expected), variety=X, i=i, got=total,
                expected=expected, law="Sq(h^i) = h^i (1+h)^i by Lucas")


# the suite of each name in SUITE_NAMES is the function suite_<name>, with
# "-" read as "_"
SUITES = {name: globals()["suite_" + name.replace("-", "_")]
          for name in SUITE_NAMES}


def run_suite(name, **params):
    """Run one suite; its parameters are checked before anything is built,
    and the report echoes the ones given (not None).  Every suite takes seed
    and max_dim; any other parameter given to a suite that does not read it
    (see _READS), or a p or k given to segre without the other, is refused,
    so a report never echoes a parameter its checks did not use."""
    if name not in SUITES:
        raise ValueError("unknown suite %r; choose from %s"
                         % (name, ", ".join(sorted(SUITES))))
    given = {}
    for key, value in params.items():
        if key not in _DEFAULTS:
            raise ValueError("unknown suite parameter %.40r; choose from %s"
                             % (key, ", ".join(_DEFAULTS)))
        if value is None:
            continue
        if key == "p":
            require_prime(value)
        elif key in _SIZES and (type(value) is not int or value < 0):
            raise ValueError("suite parameter %s must be a non-negative int"
                             % key)
        given[key] = value
    reads = ("seed", "max_dim") + _READS[name]
    for key in given:
        if key not in reads:
            raise ValueError("suite %s does not read %s" % (name, key))
    if name == "segre" and len({"p", "k"} & set(given)) == 1:
        raise ValueError("suite segre reads p and k only together")
    r = Runner(name, given)
    try:
        SUITES[name](r, {key: given.get(key, _DEFAULTS[key]) for key in reads})
    except _Fail:
        pass
    except ChowopsError as exc:
        r.failures.append({"error": str(exc),
                           "details": getattr(exc, "details", {})})
    if not r.checks and not r.failures:
        # a suite that checked nothing has shown nothing
        r.failures.append({"error": "no checks ran"})
    return r.report()
