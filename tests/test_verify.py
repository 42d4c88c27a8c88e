"""The verification suites themselves: registry, determinism, reports."""
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import chowops
from chowops import adams_upper, odd_quadric, projective_space
from chowops import char_classes as CC
from chowops.bundles import k0_generator_bundles
from chowops.errors import PRIME_BOUND, SUITE_NAMES, require_prime
from chowops.verify import (
    _DEFAULTS,
    _READS,
    SUITES,
    default_builders,
    run_suite,
)

LIGHT_PARAMS = {
    "whitney": {"trials": 5},
    "lift-independence": {"trials": 5},
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_passes(name):
    report = run_suite(name, seed=1, **LIGHT_PARAMS.get(name, {}))
    assert report["passed"], report["failures"][:2]
    assert report["checks"] > 0
    assert report["suite"] == name


def test_whitney_full_trial_count():
    # the stated quantifier: at least 100 random sums per builder variety
    report = run_suite("whitney", seed=0, trials=100)
    assert report["passed"]
    assert report["checks"] >= 100 * len(default_builders())


# (suite, checks) of the benchmark's verify-sweep at seed 5, whitney at 25
# trials, recorded before char classes were cached: a change that makes the
# sweep faster by checking less fails here
SWEEP_CHECKS = {
    "algebra": 2392, "whitney": 2475, "bott": 270, "psipower": 153,
    "integrality": 163, "rr-naturality": 780, "lift-independence": 2300,
    "cartan": 184, "wu": 528, "xp": 4480, "s0": 256, "segre": 13,
    "degree-formula": 153, "chi-defect": 7, "lucas-oracle": 9,
}


def test_sweep_keeps_its_check_counts(monkeypatch):
    # and checks only caller input: the library's unit, zero and basis
    # classes, its mod-p basis and its external products are trusted data,
    # so the sweep makes at most 7,366 calls to core._checked, where it made
    # 24,108 when they went through ChowClass and ModPClass
    from chowops import core

    calls = []
    checked = core._checked

    def counting(variety, coeffs, coeff):
        calls.append(variety.name)
        return checked(variety, coeffs, coeff)

    monkeypatch.setattr(core, "_checked", counting)
    assert set(SWEEP_CHECKS) == set(SUITES)
    for name, checks in SWEEP_CHECKS.items():
        params = {"trials": 25} if name == "whitney" else {}
        report = run_suite(name, seed=5, **params)
        assert report["passed"], (name, report["failures"][:2])
        assert report["checks"] == checks, name
    assert len(calls) <= 7366


def test_whitney_computes_each_class_of_a_trial_once(monkeypatch):
    # theta^p(e), c(e) and w^{CH,2}(e) are built once per trial and read by
    # every check on them: the sweep's 2475 checks build 5525 classes, where
    # they built 6600 when each check built its own
    calls = []
    generic = CC.multiplicative_class

    def counting(spec, e):
        calls.append(spec.name)
        return generic(spec, e)

    monkeypatch.setattr(CC, "multiplicative_class", counting)
    report = run_suite("whitney", seed=5, trials=25)
    assert report["passed"] and report["checks"] == SWEEP_CHECKS["whitney"]
    assert len(calls) <= 5525


def test_zero_parameters_are_taken_as_given():
    assert run_suite("lucas-oracle", n=0)["checks"] == 1
    vacuous = run_suite("whitney", trials=0)
    assert vacuous["checks"] == 0
    assert not vacuous["passed"]
    assert vacuous["failures"] == [{"error": "no checks ran"}]


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("no-such-suite")


@pytest.mark.parametrize("suite", SUITE_NAMES)
@pytest.mark.parametrize("p, message", [
    (0, "p must be a prime integer, got 0"),
    (1, "p must be a prime integer, got 1"),
    (4, "p must be prime, got 4"),
    (9, "p must be prime, got 9")])
def test_a_callers_p_is_checked_before_the_mod_p_basis(suite, p, message):
    # the suites build their mod-p basis cells as trusted data, and the
    # identities they check hold only at a prime, so run_suite refuses p
    # whether or not the suite reads it
    with pytest.raises(ValueError, match=message):
        run_suite(suite, seed=1, p=p)


def never_entered(monkeypatch, suite):
    """Stand in for the suite: the parameters must be refused before it."""
    def entered(r, params):
        raise AssertionError("the suite ran on refused parameters")

    monkeypatch.setitem(SUITES, suite, entered)


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_unknown_parameter_names_are_refused(monkeypatch, suite):
    # a misspelt trials must not run the default 100 trials
    never_entered(monkeypatch, suite)
    with pytest.raises(ValueError, match="unknown suite parameter 'trails'"):
        run_suite(suite, seed=1, variety="P^1", trails=1)


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_sizes_must_be_non_negative_ints(monkeypatch, suite):
    never_entered(monkeypatch, suite)
    for key in ("n", "k", "trials", "max_dim"):
        for value in (-1, -10 ** 5000, 2.0, "3", True, Fraction(3)):
            with pytest.raises(ValueError, match="suite parameter %s must be "
                               "a non-negative int" % key):
                run_suite(suite, **{key: value})


@pytest.mark.parametrize("suite, params, message", [
    ("algebra", {"p": 3}, "suite algebra does not read p"),
    ("lucas-oracle", {"p": 2}, "suite lucas-oracle does not read p"),
    ("segre", {"p": 7}, "suite segre reads p and k only together"),
    ("segre", {"k": 2}, "suite segre reads p and k only together"),
])
def test_a_parameter_the_suite_would_not_read_is_refused(monkeypatch, suite,
                                                         params, message):
    # the report would echo it as if its checks had used it
    never_entered(monkeypatch, suite)
    with pytest.raises(ValueError, match="^%s$" % message):
        run_suite(suite, seed=1, **params)


# a valid value of each parameter that only some suites read
READ_BY_SOME = {"p": 3, "variety": "P^1", "n": 2, "k": 1, "trials": 2}


@pytest.mark.parametrize("suite, key", [
    (suite, key) for suite in SUITE_NAMES for key in READ_BY_SOME
    if key not in _READS[suite]])
def test_a_parameter_outside_the_suites_reads_is_refused(monkeypatch, suite,
                                                         key):
    never_entered(monkeypatch, suite)
    with pytest.raises(ValueError, match="^suite %s does not read %s$"
                       % (re.escape(suite), key)):
        run_suite(suite, seed=1, **{key: READ_BY_SOME[key]})


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_a_suite_is_given_only_what_it_reads(monkeypatch, suite):
    # so a suite body that reads a parameter _READS does not name fails
    given = []
    monkeypatch.setitem(SUITES, suite, lambda r, params: given.append(params))
    run_suite(suite, seed=3, max_dim=4)
    assert given == [{"seed": 3, "max_dim": 4,
                      **{key: _DEFAULTS[key] for key in _READS[suite]}}]


def test_readme_names_the_suites_that_read_each_parameter():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path) as fh:
        rows = [line.split("|") for line in fh if line.startswith("| `")]
    for key in READ_BY_SOME:
        read_by = [cells[3] for cells in rows
                   if cells[1].strip() == "`%s`" % key]
        assert len(read_by) == 1, key
        assert set(re.findall("`([^`]+)`", read_by[0])) == {
            suite for suite in SUITE_NAMES if key in _READS[suite]}, key


@pytest.mark.parametrize("sign, message", [
    (1, "p must be below %d, got an integer of 16610 bits" % PRIME_BOUND),
    (-1, "p must be a prime integer, got a negative integer of 16610 bits")])
def test_a_p_too_long_to_print_is_named_by_its_size(sign, message):
    # its decimal digits are past the interpreter's limit on printing one
    p = sign * 10 ** 5000
    with pytest.raises(ValueError, match="^%s$" % message):
        require_prime(p)
    with pytest.raises(ValueError, match="^%s$" % message):
        run_suite("s0", p=p)


def test_a_non_prime_p_is_refused_under_optimize():
    script = ("from chowops.verify import run_suite\n"
              "try:\n"
              "    run_suite('algebra', p=4)\n"
              "except ValueError as exc:\n"
              "    print(exc)\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(chowops.__file__)))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "p must be prime, got 4\n"


def test_reports_are_seed_deterministic():
    a = run_suite("lift-independence", seed=9, trials=10, variety="P^2")
    b = run_suite("lift-independence", seed=9, trials=10, variety="P^2")
    assert a == b


def test_failures_are_serialized(monkeypatch):
    import chowops.verify as V

    monkeypatch.setitem(V.SUITES, "lucas-oracle",
                        lambda r, params: r.check(False, reason="forced"))
    report = run_suite("lucas-oracle")
    assert not report["passed"]
    assert report["failures"] == [{"reason": "forced"}]


def test_suite_params_narrow_the_quantifier():
    wide = run_suite("s0")
    narrow = run_suite("s0", variety="P^1", p=2)
    assert narrow["passed"] and narrow["checks"] < wide["checks"]


def test_adams_upper_ring_map_on_all_basis_pairs():
    for X in (projective_space(2), odd_quadric(3)):
        gens = k0_generator_bundles(X)
        for p in (2, 3):
            for _, a in gens:
                for _, b in gens:
                    assert adams_upper(a * b, p).ch == \
                        (adams_upper(a, p) * adams_upper(b, p)).ch


@pytest.mark.parametrize("suite, name", [
    ("segre", "segre_number"),
    ("bott", "bott_decompose"),
    ("degree-formula", "degree_formula_witness"),
])
def test_theory_failure_inside_a_suite_is_its_one_record(monkeypatch, suite,
                                                          name):
    # a theory check that fails inside a suite ends it with run_suite's
    # record: the error and its details, not a counted failed check
    from chowops import verify
    from chowops.errors import TheoryViolation

    def broke(x, p):
        raise TheoryViolation("broke", p=p)

    monkeypatch.setattr(verify, name, broke)
    report = run_suite(suite)
    assert not report["passed"]
    assert report["checks"] == 0
    assert report["failures"] == [{"error": "broke", "details": {"p": 2}}]
