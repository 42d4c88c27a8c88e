"""Workload definitions shared by the benchmark runner and its workers.

Nothing here imports chowops: the grids, the seeded inputs and the output
checks are plain data, so the runner can build inputs and check outputs
without loading the package it measures.
"""
import hashlib
import json
import random
import statistics
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs" / "seed_outputs.json"

PRIMES = (2, 3, 5)
CONVENTIONS = ("hom", "coh")

# The 15 suites of chowops.verify, named here so that a suite removed by a
# later change shows up as a failed op instead of silently leaving the sweep.
SUITES = ("algebra", "whitney", "bott", "psipower", "integrality",
          "rr-naturality", "lift-independence", "cartan", "wu", "xp", "s0",
          "segre", "degree-formula", "chi-defect", "lucas-oracle")


class Grid:
    """One size of every workload: the full benchmark or the smoke test."""

    def __init__(self, name, cli_fixed, cli_operate, cli_max_dim, warm,
                 random_classes, suites, whitney_trials):
        self.name = name
        # cli-cold: (kind, argv) calls whose stdout digest is fixed
        self.cli_fixed = cli_fixed
        # cli-cold: (variety, p, convention) operate calls on a seeded class
        self.cli_operate = cli_operate
        self.cli_max_dim = cli_max_dim
        # table-warm: varieties whose full tables the pass computes
        self.warm = warm
        self.random_classes = random_classes
        # verify-sweep: suite names and the reduced whitney trial count
        self.suites = suites
        self.whitney_trials = whitney_trials

    def tables(self):
        return [(X, p, conv) for X in self.warm for p in PRIMES
                for conv in CONVENTIONS]


def _table(variety, p, convention="coh", fmt="json"):
    argv = ["table", "--variety", variety, "--p", str(p)]
    if convention != "coh":
        argv += ["--convention", convention]
    if fmt != "json":
        argv += ["--format", fmt]
    return ("table", argv)


FULL = Grid(
    "full",
    cli_fixed=[
        _table("P^8", 2),
        _table("P^24", 3),
        _table("P^40", 2),
        _table("Q_15", 5),
        _table("P^4xP^4", 3, "hom"),
        _table("P^2xP^2xP^2xP^2", 2, fmt="csv"),
        ("describe", ["describe", "--variety", "P^24"]),
        ("describe", ["describe", "--variety", "Q_15"]),
        ("verify", ["verify", "--suite", "xp", "--variety", "Q_7", "--p", "3"]),
    ],
    cli_operate=[("P^40", 5, "coh"), ("P^2xP^2xP^2xP^2", 3, "hom"),
                 ("Q_15", 2, "coh")],
    cli_max_dim=40,
    warm=["P^24", "P^40", "Q_15", "P^4xP^4", "P^2xP^2xP^2xP^2"],
    random_classes=160,
    suites=SUITES,
    whitney_trials=25,
)

SMOKE = Grid(
    "smoke",
    cli_fixed=[
        _table("P^2", 2),
        _table("Q_3", 3, "hom"),
        _table("P^1xP^1", 2, fmt="csv"),
        ("describe", ["describe", "--variety", "P^2"]),
        ("verify", ["verify", "--suite", "s0", "--variety", "P^2"]),
    ],
    cli_operate=[("P^1xP^1", 2, "coh"), ("Q_3", 3, "hom")],
    cli_max_dim=8,
    warm=["P^2", "Q_3", "P^1xP^1"],
    random_classes=12,
    suites=("s0",),
    whitney_trials=2,
)

GRIDS = {"full": FULL, "smoke": SMOKE}


# -- inputs -------------------------------------------------------------------

def table_key(variety, p, convention):
    return "%s|%d|%s" % (variety, p, convention)


def cli_key(argv):
    return " ".join(argv)


def random_class(rng, cells, p):
    """A mod-p class supported in two or three dimensions, one or two cells each."""
    by_dim = {}
    for label, d in cells:
        by_dim.setdefault(d, []).append(label)
    dims = rng.sample(sorted(by_dim), min(len(by_dim), rng.randint(2, 3)))
    coeffs = {}
    for d in dims:
        labels = by_dim[d]
        for label in rng.sample(labels, min(len(labels), rng.randint(1, 2))):
            coeffs[label] = rng.randint(1, p - 1)
    return coeffs


def warm_classes(grid, seed, refs):
    """Seeded (variety, p, convention, coeffs) inputs of the table-warm pass.

    The classes go round-robin over the tables of the grid, so every seed
    spreads the same amount of work over the same varieties and primes; the
    seed picks the supports and coefficients.
    """
    rng = random.Random("table-warm/%d" % seed)
    tables = grid.tables()
    out = []
    for i in range(grid.random_classes):
        X, p, conv = tables[i % len(tables)]
        out.append((X, p, conv, random_class(rng, refs["cells"][X], p)))
    return out


def cli_operate_calls(grid, seed, refs):
    """Seeded operate calls of the cli-cold pass, as (argv, X, p, conv, coeffs)."""
    rng = random.Random("cli-cold/%d" % seed)
    out = []
    for X, p, conv in grid.cli_operate:
        coeffs = random_class(rng, refs["cells"][X], p)
        cls = json.dumps({l: str(v) for l, v in sorted(coeffs.items())},
                         sort_keys=True)
        argv = ["operate", "--variety", X, "--p", str(p),
                "--convention", conv, "--class", cls]
        out.append((argv, X, p, conv, coeffs))
    return out


# -- output checks ------------------------------------------------------------

def load_refs():
    with open(REFS) as fh:
        return json.load(fh)


def table_digest(rows):
    """sha256 of a basis table given as {label: [S_0 dict, S_1 dict, ...]}."""
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def expected_ops(ref_rows, coeffs, p):
    """S_k of a class as the mod-p combination of the reference basis rows."""
    n = max(len(ref_rows[l]) for l in coeffs)
    out = [{} for _ in range(n)]
    for label, c in coeffs.items():
        for k, row in enumerate(ref_rows[label]):
            for cell, v in row.items():
                out[k][cell] = (out[k].get(cell, 0) + c * int(v)) % p
    return [{cell: v for cell, v in comp.items() if v} for comp in out]


def ops_match(got, want):
    """Compare S_k lists of {cell: int}, treating missing tail entries as 0."""
    n = max(len(got), len(want))
    pad = lambda xs: list(xs) + [{}] * (n - len(xs))
    return pad(got) == pad(want)


# -- host speed ---------------------------------------------------------------

# One interleaved calibration sample: the fixed Fraction loop below at this
# many iterations, and its time on an idle core of the baseline machine.
CALIB_ITERS = 150
CALIB_REF_S = 0.00062
# After each op, calibrate for about this share of the op's own time.
CALIB_SHARE = 0.15


def _fraction_loop(iters):
    """Seconds taken by a fixed pure-Python Fraction loop."""
    t = perf_counter()
    acc = 0
    for i in range(1, iters):
        x = Fraction(i % 13, i % 17 + 1) * Fraction(3, 7) + Fraction(1, i % 11 + 2)
        acc += x.numerator
    return perf_counter() - t


def calib_ms(reps=5):
    """Median time of the Fraction loop at 2500 iterations, in ms.

    A run diagnostic only: it shows whether the machine moved between runs,
    and is never compared between commits.
    """
    return statistics.median(_fraction_loop(2500) for _ in range(reps)) * 1e3


class Calibrator:
    """Host speed sampled between the ops of a pass.

    The host is shared: from one moment to the next the same loop runs at
    1x to 2x its idle time, and the mix drifts between runs.  After each op
    the calibrator times the fixed Fraction loop for about CALIB_SHARE of the
    op's time, so that its samples meet the same host states as the ops, in
    the same proportion.  `ref_s` scales a pass's wall time by the ratio of
    the idle sample time to the mean sample time seen in that pass.
    """

    def __init__(self):
        self.samples = 0
        self.seconds = 0.0

    def after(self, op_s):
        n = max(1, round(op_s * CALIB_SHARE / CALIB_REF_S))
        self.seconds += sum(_fraction_loop(CALIB_ITERS) for _ in range(n))
        self.samples += n

    def slowdown(self):
        """Mean sample time over the idle sample time."""
        return self.seconds / self.samples / CALIB_REF_S

    def ref_s(self, wall_s):
        """wall_s in seconds at the reference host speed."""
        return wall_s / self.slowdown()
