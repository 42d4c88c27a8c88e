"""The verification suites themselves: registry, determinism, reports."""
import hashlib
import json
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
from oracles import check_trace

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
    # and so are the random classes and mod-p cells the suites build from
    # their seed, so the sweep makes at most 98 calls to core._checked,
    # where it made 24,108 when they all went through ChowClass and
    # ModPClass, and 7,366 when the suites' own inputs did
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
    assert len(calls) <= 98


# sha256 of the check trace of each suite of the sweep (`check_trace` at
# seed 5, whitney at 25 trials, as the compact sorted-key JSON below),
# recorded before the suites' inputs were built as trusted data and their
# p-independent work was taken out of the loops over primes: a change to how
# a suite computes what it checks must leave every check, its order and its
# payload as they were
SWEEP_TRACES = {
    "algebra":
        "a580214810f9a5ebaaaabad629dfde403e7d2b6b2a1a4e302364ef7a7d919c7d",
    "whitney":
        "67d833dc7924932b0b894247c47bfbfa5b20812402339977bc4d61440c7c1ffc",
    "bott":
        "1f8fa5555e62c03eb90fc31f231d805104bef5d813017fcd74d8816215a5a587",
    "psipower":
        "d5e736a4b444a1c4cdf0889e709ec9d3922ea580856dd4fcfdbb6d19e2b40d01",
    "integrality":
        "b46a7d6cab63333e42b53e8c7e96ded5ddcde891c3c2d06bc6fe6698fc274abd",
    "rr-naturality":
        "fe91ea8e94f2b3aff1ee3a699ba79be8c1c2dc8364b42569e4decf78bcf7f94c",
    "lift-independence":
        "5e8294fddcf834fca4e4ef9d7097011101b82e28e3ea6f95bbee5e6722b5ac48",
    "cartan":
        "c93cbb642c80c9c1b797f4b1fdb8ec9e6d2d39c196ba563f44021c6ba26e7bcb",
    "wu":
        "0a89f46e96a2cc427c641da8d2449ebfc5c6c811fd539558155ff9da7c63100a",
    "xp":
        "8c0e221c3be3727c825a732b514e35a140f37a2367afadde818e0d7ebfd50ad8",
    "s0":
        "b338b32512a02fce3119995f4b4e85d73e43a27ceb346a43cc8843163f31dc3a",
    "segre":
        "85e2288dabfc2f4c3cdc2be7215782b55d17c169173b06f9f3ea05d0a8ffab49",
    "degree-formula":
        "443518417aa58e3029624580eac4d07c8eaa4eb1bf40391ff712089c5aa13515",
    "chi-defect":
        "ae117384c615103ebf48704bac59d75c8db99a1dfbb4b136ca28fe5a7f6b75ff",
    "lucas-oracle":
        "40763ddb6e17fb0bfa50058cd04665d427bb373fdbb71b8bb7f87e8f172f5b97",
}


@pytest.mark.parametrize("name", sorted(SWEEP_TRACES))
def test_sweep_makes_the_same_checks_in_the_same_order(name):
    params = {"trials": 25} if name == "whitney" else {}
    trace = check_trace(name, seed=5, **params)
    assert len(trace) == SWEEP_CHECKS[name]
    blob = json.dumps(trace, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == SWEEP_TRACES[name]


@pytest.mark.parametrize("cap", range(9))
def test_segre_and_chi_defect_keep_to_max_dim(cap):
    # segre's default cases live on P^1..P^4 and Q_3, Q_5, Q_7, its spot
    # values on P^2, P^2 and P^1; chi-defect's self-maps on P^1 (p = 2,
    # two checks each) and its identity on P^2
    segre = [1, 2, 3, 4, 2, 4, 4, 3, 5, 7, 2, 2, 1]
    want = {"segre": sum(d <= cap for d in segre),
            "chi-defect": 6 * (cap >= 1) + (cap >= 2)}
    for name, checks in want.items():
        report = run_suite(name, max_dim=cap)
        assert report["checks"] == checks, name
        assert report["passed"] == (checks > 0), name
        if not checks:
            assert report["failures"] == [{"error": "no checks ran"}]
        for _, payload in check_trace(name, max_dim=cap):
            if "variety" in payload:
                assert chowops.variety_from_spec(payload["variety"]).dim <= cap


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


def test_lift_independence_lifts_each_trial_once(monkeypatch):
    # a trial sums [l] + p r1 + r2 in tau-column coordinates and lifts the
    # sum: the sweep's 2300 trials make 2300 lifts, where three lifts, a
    # scale and two K-class sums per trial made 6900
    from chowops import ktheory

    calls = []
    lift = ktheory.k0_from_chow_lift

    def counting(x):
        calls.append(x.variety.name)
        return lift(x)

    def refuse(self, *args):
        raise AssertionError("a K-class sum or scale in the sweep")

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("chowops")
                and getattr(module, "k0_from_chow_lift", None) is lift):
            monkeypatch.setattr(module, "k0_from_chow_lift", counting)
    monkeypatch.setattr(ktheory.KClass, "__add__", refuse)
    monkeypatch.setattr(ktheory.KClass, "scale", refuse)
    report = run_suite("lift-independence", seed=5)
    assert report["passed"], report["failures"][:2]
    assert report["checks"] == SWEEP_CHECKS["lift-independence"]
    assert len(calls) == report["checks"]


@pytest.mark.parametrize("cap", range(6))
def test_every_suite_keeps_to_max_dim(cap):
    # within the cap a suite runs what it can; with nothing left it reports
    # that no checks ran, and it never raises
    for name in SUITE_NAMES:
        params = {"trials": 2} if name in LIGHT_PARAMS else {}
        report = run_suite(name, seed=1, max_dim=cap, **params)
        assert report["passed"] or report["failures"] == [
            {"error": "no checks ran"}], (name, report["failures"][:2])
        for _, payload in check_trace(name, seed=1, max_dim=cap, **params):
            if "variety" in payload:
                assert chowops.variety_from_spec(payload["variety"]).dim \
                    <= cap, name


def test_lucas_oracle_checks_its_default_p8_only_within_the_cap():
    assert run_suite("lucas-oracle", max_dim=8)["checks"] == 9
    for cap in (0, 7):
        assert run_suite("lucas-oracle", max_dim=cap)["failures"] == [
            {"error": "no checks ran"}]
    assert run_suite("lucas-oracle", n=2, max_dim=2)["checks"] == 3
    with pytest.raises(ValueError, match="^variety exceeds the dimension "
                       "cap 7$"):
        run_suite("lucas-oracle", n=8, max_dim=7)


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
