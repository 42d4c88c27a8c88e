"""Exception types and the input rules shared across the package: the prime
test, and the names of the operation conventions and the verification suites,
kept here so that the CLI parses them without loading the modules that use
them."""


class ChowopsError(Exception):
    """Base class for all errors raised by chowops."""


class UnknownLabel(ChowopsError):
    """A coefficient refers to a cell label the variety does not have."""


class VarietyMismatch(ChowopsError):
    """Operands live on different varieties."""


class InvalidVariety(ChowopsError):
    """Cell data violates a construction invariant (grading, associativity, ...)."""


class EvenDimensionUnsupported(ChowopsError):
    """Only odd-dimensional split quadrics are supported."""


class UnknownKind(ChowopsError):
    """Morphism kind not in the builder catalog."""


class IncompatibleDimensions(ChowopsError):
    """Morphism parameters do not fit together."""


class FlagViolation(ChowopsError):
    """Pushforward needs a proper morphism, pullback an lci or flat one."""


class NonInvertibleSeries(ChowopsError):
    """Multiplicative series with vanishing constant term."""


class SeriesDomainError(ChowopsError):
    """exp needs a series with constant term 0, log one with constant term 1."""


class IntegralityViolation(ChowopsError):
    """A class that must be integral has a fractional coefficient."""


class NonIntegralInput(ChowopsError):
    """Operation requires an integral class."""


class ZeroClass(ChowopsError):
    """Filtration level of the zero class is undefined."""


class TheoryViolation(ChowopsError):
    """An identity or divisibility the theory guarantees failed.

    This signals an implementation bug or corrupted data, never bad luck.
    A raise site passes its evidence as keyword objects; `details` holds
    them, and any `details` dict given, written down by `to_json`.
    """

    def __init__(self, message, details=None, **evidence):
        super().__init__(message)
        self.details = to_json({**(details or {}), **evidence})


class IntegralityFailure(TheoryViolation, IntegralityViolation):
    """Corrupted ch data: a class of an integral bundle came out fractional."""


class ExtractionFailure(TheoryViolation):
    """p-adic extraction hit a piece the theory rules out, or its result
    fails the decomposition identity."""


class DecompositionFailure(TheoryViolation):
    """Bott decomposition postcondition failed."""


class DimensionMismatch(ChowopsError):
    """dim X is not of the required k*(p-1) shape, or dimensions disagree."""


class LevelViolation(ChowopsError):
    """A class sits in a higher filtration level than allowed."""


def to_json(value):
    """Evidence as JSON: a Chow or mod-p class is its `class_to_json`, a
    K-class its tau, a bundle its `to_json()`, a variety or morphism its name,
    a list or dict goes item by item, an int or str stays, the rest is str."""
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, dict):
        return {k: to_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_json(v) for v in value]
    from .core import _CellVector, class_to_json  # core imports errors
    value = getattr(value, "tau", value)  # a K-class is its tau
    if isinstance(value, _CellVector):
        return class_to_json(value)
    if hasattr(value, "to_json"):  # a bundle
        return value.to_json()
    return getattr(value, "name", None) or str(value)


# Miller-Rabin with the first thirteen primes as bases decides primality of
# every integer below PRIME_BOUND, the least strong pseudoprime to all of
# them (Sorenson and Webster, 2015; OEIS A014233).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981
_accepted = None  # the last prime require_prime accepted


def require_prime(p):
    """Every public entry point taking p insists on a prime below PRIME_BOUND.

    The test is deterministic Miller-Rabin, so its cost grows with the number
    of digits of p, not with p.
    """
    global _accepted
    if type(p) is int and p == _accepted:  # never a bool, float or Fraction
        return
    if not isinstance(p, int) or p < 2:
        raise ValueError("p must be a prime integer, got %r" % (p,))
    if p >= PRIME_BOUND:
        raise ValueError("p must be below %d, got %d" % (PRIME_BOUND, p))
    if p in _MR_BASES:
        return
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            raise ValueError("p must be prime, got %d" % p)
    _accepted = p


# convention name -> the grading it names, for steenrod_operation and the CLI
CONVENTIONS = {"coh": "cohomological", "hom": "homological",
               "cohomological": "cohomological", "homological": "homological"}

# the verification suites; verify.SUITES is keyed from this tuple
SUITE_NAMES = ("algebra", "whitney", "bott", "psipower", "integrality",
               "rr-naturality", "lift-independence", "cartan", "wu", "xp",
               "s0", "segre", "degree-formula", "chi-defect", "lucas-oracle")
