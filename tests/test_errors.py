"""The one failure path: how a failed check writes down its evidence, and
the prime test every entry point shares."""
import ast
import os
from fractions import Fraction

import pytest

import chowops
from chowops import errors
from chowops.errors import (
    ExtractionFailure,
    TheoryViolation,
    require_prime,
    to_json,
)

SRC = os.path.dirname(chowops.__file__)


def _p2():
    return chowops.projective_space(2)


# (id, a value built on first use, what to_json writes for it)
EVIDENCE = [
    ("chow class", lambda: chowops.make_class(
        _p2(), {"h^2": -1, "h^1": Fraction(3, 2)}),
     {"h^1": "3/2", "h^2": "-1"}),
    ("mod-p class", lambda: chowops.ModPClass(_p2(), 3, {"h^1": 5}),
     {"h^1": "2"}),
    ("k-class", lambda: chowops.structure_sheaf(_p2()),
     {"h^0": "1", "h^1": "3/2", "h^2": "1"}),
    ("bundle", lambda: chowops.tangent_bundle(_p2()),
     {"rank": "2", "ch": {"1": "2", "h^1": "3", "h^2": "3/2"}}),
    ("variety", _p2, "P^2"),
    ("morphism", lambda: chowops.build_morphism("pn_self_map", degree=2),
     "P^1->P^1:deg2"),
    ("list", lambda: [_p2(), 3, "x"], ["P^2", 3, "x"]),
    ("tuple", lambda: (Fraction(1, 3), _p2()), ["1/3", "P^2"]),
    ("dict", lambda: {"on": _p2(), "at": [2, Fraction(-1, 2)]},
     {"on": "P^2", "at": [2, "-1/2"]}),
    ("int", lambda: 7, 7),
    ("bool", lambda: True, True),
    ("string", lambda: "7", "7"),
    ("fraction", lambda: Fraction(5, 4), "5/4"),
    ("none", lambda: None, "None"),
]


@pytest.mark.parametrize("build, written", [e[1:] for e in EVIDENCE],
                         ids=[e[0] for e in EVIDENCE])
def test_evidence_is_written_down_by_one_rule(build, written):
    value = build()
    assert to_json(value) == written
    # a theory failure and a failed suite check write it down alike
    assert TheoryViolation("broke", value=value).details == {"value": written}
    runner = chowops.verify.Runner("s", {})
    with pytest.raises(chowops.verify._Fail):
        runner.check(False, value=value)
    assert runner.failures == [{"value": written}]


def test_theory_violation_keeps_its_details_argument():
    assert TheoryViolation("broke").details == {}
    assert TheoryViolation("broke", details={"p": 2}).details == {"p": 2}
    exc = ExtractionFailure("broke", details={"p": 2}, variety=_p2())
    assert exc.details == {"p": 2, "variety": "P^2"}


def test_passing_checks_write_nothing_down(monkeypatch):
    # the evidence of a check is written down only when the check fails
    from chowops import verify

    def refuse(value):
        raise AssertionError("evidence written for a passing check")

    monkeypatch.setattr(verify, "to_json", refuse)
    for suite, params in (("psipower", {"variety": "P^2"}),
                          ("degree-formula", {"variety": "P^2"}),
                          ("lucas-oracle", {"n": 2})):
        assert verify.run_suite(suite, **params)["passed"], suite


def _raises_that_serialise(path):
    """(line, what) of each raise in the module at path that passes
    details= or calls class_to_json / modp_to_json itself."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        for sub in ast.walk(node.exc):
            if not isinstance(sub, ast.Call):
                continue
            if any(kw.arg == "details" for kw in sub.keywords):
                found.append((node.lineno, "details="))
            func = sub.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None)
            if name in ("class_to_json", "modp_to_json"):
                found.append((node.lineno, name))
    return found


def test_only_errors_writes_down_evidence():
    # a raise site passes objects; errors.to_json is the one place that
    # turns them into JSON
    modules = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
    assert "steenrod.py" in modules
    bad = {f: found for f in modules if f != "errors.py"
           for found in [_raises_that_serialise(os.path.join(SRC, f))]
           if found}
    assert bad == {}


def test_static_check_sees_a_serialising_raise(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("def f(x):\n"
                   "    raise E('m', details={'x': class_to_json(x)})\n"
                   "def g(x):\n"
                   "    raise E('m', x=core.modp_to_json(x))\n"
                   "def h(x):\n"
                   "    raise E('m', x=x)\n")
    assert _raises_that_serialise(str(src)) == [
        (2, "details="), (2, "class_to_json"), (4, "modp_to_json")]


def test_require_prime_runs_miller_rabin_once_per_new_prime(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args[1:])
        return pow(*args)

    monkeypatch.setattr(errors, "pow", counting, raising=False)
    monkeypatch.setattr(errors, "_accepted", None)
    big = 3317044064679887385961813
    one_run = len(errors._MR_BASES)  # a prime: one pow per base
    for _ in range(5):
        require_prime(big)
    assert len(calls) == one_run
    require_prime(1000003)
    require_prime(1000003)
    assert len(calls) == 2 * one_run
    require_prime(big)
    assert len(calls) == 3 * one_run
    # the small bases are decided before any pow
    require_prime(41)
    assert len(calls) == 3 * one_run


def test_remembered_prime_still_refuses_other_types(monkeypatch):
    monkeypatch.setattr(errors, "_accepted", None)
    require_prime(43)
    assert errors._accepted == 43
    for bad, shown in ((43.0, "43.0"), (Fraction(43), "Fraction(43, 1)"),
                       (True, "True")):
        for _ in range(2):
            with pytest.raises(ValueError) as err:
                require_prime(bad)
            assert str(err.value) == "p must be a prime integer, got " + shown
    with pytest.raises(ValueError, match="p must be prime, got 45"):
        require_prime(45)
    require_prime(43)


def test_default_dimension_cap_is_defined_once(monkeypatch):
    # the CLI and the suites read the one default next to the cell cap
    from chowops import cli, varieties, verify

    monkeypatch.delenv("STEENROD_MAX_DIM", raising=False)
    assert cli._max_dim() == verify.DEFAULT_MAX_DIM == 8
    assert verify.DEFAULT_MAX_DIM is varieties.DEFAULT_MAX_DIM
    assert varieties.MAX_CELLS == 2 ** varieties.DEFAULT_MAX_DIM == 256
