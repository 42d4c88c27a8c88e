"""The paper's applications of the p-adic decomposition of psi_p:
divisibility of characteristic numbers and degree formulas.

`segre_number` is the degree of w^{CH,p}(-T_X) on a variety of dimension
k(p-1), divisible by p.  `degree_formula_witness` runs the degree-formula
recursion on the pieces of `steenrod.atiyah_decompose`, and `chi_defect`
applies it to f_*[O_X] - (deg f)[O_Y] for a proper morphism f of equal
dimensions.  Each checks the identity it promises exactly before returning
(TheoryViolation otherwise).

Only `verify` and library callers load this module; the CLI's `table` and
`operate` never do.  `atiyah_decompose`, which the benchmark wraps, is
called through `steenrod`, so a wrapper put on it later sees these calls too.
"""
from fractions import Fraction

from . import steenrod
from .char_classes import w_minus_tangent
from .core import degree
from .errors import (
    DimensionMismatch,
    FlagViolation,
    LevelViolation,
    NonIntegralInput,
    TheoryViolation,
    require_prime,
)
from .ktheory import euler_char, filtration_level, structure_sheaf
from .morphisms import kclass_pushforward


def _p_power(p, m):
    """p^m as an int, a Fraction only for m < 0."""
    return p ** m if m >= 0 else Fraction(1, p ** -m)


def segre_number(X, p):
    """deg of the dim-0 part of w^{CH,p}(-T_X) when dim X = k(p-1); divisible by p."""
    require_prime(p)
    if X.dim <= 0 or X.dim % (p - 1) != 0:
        raise DimensionMismatch(
            "dim %s = %d is not a positive multiple of %d"
            % (X.name, X.dim, p - 1))
    val = degree(w_minus_tangent(X, p))
    if val % p:
        raise TheoryViolation(
            "Segre-type number %d of %s is not divisible by %d"
            % (val, X.name, p), variety=X, p=p, value=str(val))
    return val


def degree_formula_witness(x, p):
    """Zero-cycle in Z_(p) x CH_0 of degree lambda * p^[d/(p-1)] * deg(x).

    Runs the degree-formula recursion; lambda is returned explicitly
    as the accumulated product of the (p^e - 1) units, and the degree
    identity is checked exactly before returning (TheoryViolation).
    """
    require_prime(p)
    if not x.integral:
        raise NonIntegralInput("degree formula needs an integral class")
    X = x.variety
    if x.is_zero():
        return X.zero(), Fraction(1)
    d = filtration_level(x)
    degx = euler_char(x)
    if d == 0:
        return x.tau.dim_component(0), Fraction(1)

    E = d // (p - 1)
    dec = steenrod.atiyah_decompose(x, p)
    pieces = [(dec.parts[0] - x, 0)]
    pieces += [(part, k) for k, part in enumerate(dec.parts) if k >= 1]

    witnesses = []
    lam = Fraction(1)
    for piece, k in pieces:
        if piece.is_zero():
            continue
        c, sub_lam = degree_formula_witness(piece, p)
        witnesses.append((c, sub_lam, k, filtration_level(piece) // (p - 1)))
        lam *= sub_lam
    total = X.zero()
    for c, sub_lam, k, sub_E in witnesses:
        total = total + c.scale(lam / sub_lam * _p_power(p, E - k - sub_E))
    lam_final = lam * (p ** d - 1)

    got = Fraction(degree(total))
    if got != lam_final * p ** E * degx:
        problem = "degree identity failed"
    elif not (lam_final.numerator % p and lam_final.denominator % p):
        problem = "lambda is not a p-adic unit"
    elif total.den % p == 0:
        problem = "witness left Z_(p)"
    else:
        return total, lam_final
    raise TheoryViolation("%s on %s" % (problem, X.name), variety=X, p=p,
                          input=x, witness=total, witness_degree=got,
                          **{"lambda": lam_final})


def chi_defect(f, p):
    """chi(O_X) - (deg f) chi(O_Y) as the degree of a level <= d-1 class.

    Returns the defect together with the witness zero-cycle exhibiting
    lambda * p^[(d-1)/(p-1)] * defect as a degree on the target.
    """
    require_prime(p)
    if not f.proper:
        raise FlagViolation("chi defect needs a proper morphism")
    X, Y = f.source, f.target
    if X.dim != Y.dim:
        raise DimensionMismatch("chi defect compares equal dimensions")
    d = X.dim
    deg_f = f.map_degree()
    delta = kclass_pushforward(f, structure_sheaf(X)) - \
        structure_sheaf(Y).scale(deg_f)
    if not delta.is_zero() and filtration_level(delta) > d - 1:
        raise LevelViolation("f_*[O_X] - (deg f)[O_Y] has full level")
    defect = euler_char(structure_sheaf(X)) - deg_f * euler_char(structure_sheaf(Y))
    if defect != euler_char(delta):
        raise TheoryViolation("chi bookkeeping failed", morphism=f,
                              delta=delta)

    exponent = (d - 1) // (p - 1) if d >= 1 else 0
    witness, lam = degree_formula_witness(delta, p)
    if not delta.is_zero():
        sub_E = filtration_level(delta) // (p - 1)
        witness = witness.scale(_p_power(p, exponent - sub_E))
    wdeg = Fraction(degree(witness))
    if wdeg != lam * p ** exponent * defect:
        raise TheoryViolation("witness degree mismatch", morphism=f, p=p,
                              witness=witness)
    return {
        "defect": int(defect),
        "degree_of_map": deg_f,
        "delta_level": None if delta.is_zero() else filtration_level(delta),
        "exponent": exponent,
        "witness": witness,
        "lambda": lam,
        "witness_degree": wdeg,
    }
