"""Acceptance criteria: every check exact, time budgets enforced.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.
"""
import json
import time

from chowops import (
    atiyah_decompose,
    filtration_level,
    k0_generators,
)
from chowops.verify import default_builders, run_suite
from oracles import adams_lower_by_twist


def _criterion(number, description, report, elapsed=None, budget=None):
    ok = report["passed"] if isinstance(report, dict) else bool(report)
    line = "PASS" if ok else "FAIL"
    extra = ""
    if isinstance(report, dict):
        extra = " (%d checks)" % report["checks"]
    if elapsed is not None:
        extra += " [%.2fs]" % elapsed
    print("%s criterion %d: %s%s" % (line, number, description, extra))
    if isinstance(report, dict) and not ok:
        print(json.dumps(report["failures"][:3], indent=2, default=str))
    assert ok, "criterion %d failed" % number
    if budget is not None:
        assert elapsed < budget, \
            "criterion %d exceeded its %.0fs budget (%.2fs)" % (
                number, budget, elapsed)


def test_criterion_1_classical_oracle():
    start = time.time()
    report = run_suite("lucas-oracle", n=8)
    _criterion(1, "Sq(h^i) = h^i (1+h)^i on P^n, n <= 8, by Lucas",
               report, time.time() - start, budget=5.0)


def test_criterion_2_top_power_rule():
    start = time.time()
    report = run_suite("xp")
    _criterion(2, "S^q(x) = x^p and S^k(x) = 0 above q, all builders, "
                  "p in {2,3,5}", report, time.time() - start, budget=30.0)


def test_criterion_3_s0_identity():
    report = run_suite("s0")
    _criterion(3, "S^X_0 = id and S_X^0 = id on every basis class", report)


def test_criterion_4_cartan():
    report = run_suite("cartan")
    _criterion(4, "Cartan formula on P^a x P^b (a+b <= 6), p in {2,3}", report)


def test_criterion_5_wu_naturality():
    report = run_suite("wu")
    _criterion(5, "pullback naturality and Wu/Riemann-Roch pushforward",
               report)


def test_criterion_6_segre_divisibility():
    report = run_suite("segre")
    _criterion(6, "deg w_k(-T_X) divisible by p, with exact spot values",
               report)


def test_criterion_7_psipower():
    report = run_suite("psipower")
    _criterion(7, "psi^p(g) = g^p mod p on every lattice generator", report)


def test_criterion_8_integrality_and_rr():
    rep_a = run_suite("integrality")
    rep_b = run_suite("rr-naturality")
    merged = {"passed": rep_a["passed"] and rep_b["passed"],
              "checks": rep_a["checks"] + rep_b["checks"],
              "failures": rep_a["failures"] + rep_b["failures"]}
    _criterion(8, "psi_p congruence mod lower filtration and the "
                  "theta^p(-T_f)-twisted pullback identity", merged)


def test_criterion_9_decomposition_internals():
    checks = 0
    for X in default_builders():
        for p in (2, 3, 5):
            for label, x in k0_generators(X):
                dec = atiyah_decompose(x, p)
                assert dec.verify()
                assert dec.reconstruction() == \
                    adams_lower_by_twist(x, p).tau
                d = filtration_level(x)
                for k, part in enumerate(dec.parts):
                    if not part.is_zero():
                        assert filtration_level(part) <= d - k * (p - 1)
                checks += 1
    _criterion(9, "p-adic extraction exact on every lattice generator",
               {"passed": True, "checks": checks, "failures": []})


def test_criterion_10_lift_independence():
    start = time.time()
    report = run_suite("lift-independence", seed=2024, trials=100)
    _criterion(10, ">=100 seeded lift perturbations per (builder, p) leave "
                   "S^X_k unchanged", report, time.time() - start, budget=60.0)


def test_criterion_11_degree_formulas():
    rep_a = run_suite("degree-formula")
    rep_b = run_suite("chi-defect")
    merged = {"passed": rep_a["passed"] and rep_b["passed"],
              "checks": rep_a["checks"] + rep_b["checks"],
              "failures": rep_a["failures"] + rep_b["failures"]}
    _criterion(11, "degree-formula witnesses and chi defects of P^1 self-maps",
               merged)


def test_criterion_12_bott_decomposition():
    report = run_suite("bott")
    _criterion(12, "Bott decomposition of T_X, -T_X, O(i) with the mod-p "
                   "congruence", report)
