"""CLI surface: verbs, exit codes, exact JSON/CSV output, determinism."""
import json
import os
import subprocess
import sys
import time

import pytest

import chowops
from chowops.cli import main
from chowops.errors import (
    SUITE_NAMES,
    DecompositionFailure,
    ExtractionFailure,
    TheoryViolation,
)
from oracles import pair_table

# the package and the test helpers, for the scripts a fresh interpreter runs
SCRIPT_PATH = os.pathsep.join([
    os.path.dirname(os.path.dirname(chowops.__file__)),
    os.path.dirname(os.path.abspath(__file__))])


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_describe_projective_plane(capsys):
    code, out, _ = run(capsys, "describe", "--variety",
                       '{"type":"projective_space","n":2}')
    assert code == 0
    report = json.loads(out)
    assert report["cells"] == [["h^0", 2], ["h^1", 1], ["h^2", 0]]
    assert report["tau_matrix"]["h^1"] == {"h^1": "1", "h^2": "1"}
    assert report["tangent_ch"]["h^2"] == "3/2"


def test_describe_quadric_basis(capsys):
    code, out, _ = run(capsys, "describe", "--variety",
                       '{"type":"odd_quadric","dim":3}')
    assert code == 0
    report = json.loads(out)
    assert [c[0] for c in report["cells"]] == ["h^0", "h^1", "l_1", "l_0"]


def test_describe_malformed_spec_exits_2(capsys):
    code, _, err = run(capsys, "describe", "--variety", '{"type":"nope"}')
    assert code == 2
    assert "error" in err
    code, _, _ = run(capsys, "describe", "--variety", '{broken json')
    assert code == 2


@pytest.mark.parametrize("spec", ["P^1.5", "Q_1.0", "P^", "P^ 3", "P^+3",
                                  "P^\u0663"])
def test_malformed_shorthand_sizes_exit_2(capsys, spec):
    # a size is ASCII digits: no fraction, sign, space or other script's digit
    code, out, err = run(capsys, "describe", "--variety", spec)
    assert code == 2 and out == ""
    assert err == ("error: variety shorthand %r needs a non-negative integer "
                   "after %s\n" % (spec, spec[:2]))


def test_operate_line_class_mod_2(capsys):
    code, out, _ = run(capsys, "operate", "--variety", "P^2", "--p", "2",
                       "--class", '{"h^1":"1"}')
    assert code == 0
    result = json.loads(out)
    assert result["ops"] == {"S_0": {"h^1": "1"}, "S_1": {"h^2": "1"}}
    assert result["convention"] == "cohomological"
    assert result["variety"] == "P^2"


def test_operate_top_power_mod_3(capsys):
    code, out, _ = run(capsys, "operate", "--variety", "P^3", "--p", "3",
                       "--class", '{"h^1":"1"}')
    assert code == 0
    assert json.loads(out)["ops"] == {"S_0": {"h^1": "1"}, "S_1": {"h^3": "1"}}


def test_operate_zero_class(capsys):
    code, out, _ = run(capsys, "operate", "--variety", "Q_3", "--p", "2",
                       "--class", "{}")
    assert code == 0
    assert json.loads(out)["ops"] == {"S_0": {}}


def test_operate_homological_convention(capsys):
    code, out, _ = run(capsys, "operate", "--variety", "P^2", "--p", "2",
                       "--class", '{"h^1":"1"}', "--convention", "hom")
    assert code == 0
    result = json.loads(out)
    assert result["convention"] == "homological"
    assert result["ops"] == {"S_0": {"h^1": "1"}, "S_1": {}}


def test_operate_rejects_composite_p(capsys):
    code, _, err = run(capsys, "operate", "--variety", "P^2", "--p", "4",
                       "--class", '{"h^1":"1"}')
    assert code == 2


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "--variety", "P^1", "--p", "2",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "cell,k,output"
    assert len(lines) == 1 + 2 * 2  # two cells, uniform grid k = 0..1


def test_operate_has_no_format_option(capsys):
    code, _, err = run(capsys, "operate", "--variety", "P^2", "--p", "2",
                       "--class", '{"h^1":"1"}', "--format", "csv")
    assert code == 2
    assert "--format" in err


def test_table_json_satisfies_cartan_shape(capsys):
    code, out, _ = run(capsys, "table", "--variety", "P^1xP^1", "--p", "2")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 4 * 3  # four cells, uniform grid k = 0..2


def test_table_q3(capsys):
    code, out, _ = run(capsys, "table", "--variety", "Q_3", "--p", "2")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 4 * 4  # four cells, uniform grid k = 0..3
    by_key = {(r["cell"], r["k"]): r["output"] for r in rows}
    assert by_key[("l_1", 1)] == {"l_0": "1"}  # Wu-twisted square of a line


def test_output_is_byte_stable(capsys):
    args = ("table", "--variety", "P^2", "--p", "2", "--format", "csv")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_verify_lucas(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lucas-oracle", "--n", "8")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_lucas_keeps_to_the_cap(capsys, monkeypatch):
    # the default P^8 is the suite's own case, left out under a smaller cap;
    # an --n above the cap is the caller's, an input error
    monkeypatch.setenv("STEENROD_MAX_DIM", "2")
    code, out, _ = run(capsys, "verify", "--suite", "lucas-oracle")
    assert code == 1
    assert json.loads(out)["failures"] == [{"error": "no checks ran"}]
    code, out, _ = run(capsys, "verify", "--suite", "lucas-oracle", "--n", "2")
    assert code == 0 and json.loads(out)["checks"] == 3
    assert run(capsys, "verify", "--suite", "lucas-oracle", "--n", "3") == (
        2, "", "error: variety exceeds the dimension cap 2\n")


def test_verify_segre_with_params(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "segre", "--p", "2",
                       "--k", "4")
    assert code == 0


def test_verify_xp_p5_p6(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "xp", "--p", "5",
                       "--variety", "P^6")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] and report["checks"] > 0


def test_verify_seeded_determinism(capsys):
    args = ("verify", "--suite", "lift-independence", "--trials", "5",
            "--seed", "42", "--variety", "P^2")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_verify_unknown_suite_exits_2(capsys):
    assert main(["verify", "--suite", "nonsense"]) == 2


def test_verify_refuses_bad_parameters_of_every_suite(capsys):
    for suite in SUITE_NAMES:
        code, out, err = run(capsys, "verify", "--suite", suite, "--p", "9")
        assert (code, out, err) == (2, "", "error: p must be prime, got 9\n")
        # a negative n is refused by name, not read as the shorthand P^-1
        code, out, err = run(capsys, "verify", "--suite", suite, "--n", "-1")
        assert (code, out) == (2, ""), suite
        assert err == "error: suite parameter n must be a non-negative int\n"
    code, _, err = run(capsys, "verify", "--suite", "xp", "--p", "4")
    assert (code, err) == (2, "error: p must be prime, got 4\n")


def test_verify_refuses_a_parameter_the_suite_does_not_read(capsys):
    code, out, err = run(capsys, "verify", "--suite", "cartan",
                         "--variety", "P^2")
    assert (code, out, err) == (2, "", "error: suite cartan does not read "
                                       "variety\n")


def test_operate_refuses_a_cell_given_twice(capsys):
    # "1" is the fundamental cell h^0 of P^2: one of the two would be lost
    code, out, err = run(capsys, "operate", "--variety", "P^2", "--p", "3",
                         "--class", '{"1":"1","h^0":"2"}')
    assert (code, out, err) == (2, "", "error: cell 'h^0' given twice\n")


def test_dimension_cap_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("STEENROD_MAX_DIM", "3")
    code, _, err = run(capsys, "describe", "--variety", "P^5")
    assert code == 2
    monkeypatch.setenv("STEENROD_MAX_DIM", "8")
    code, _, _ = run(capsys, "describe", "--variety", "P^5")
    assert code == 0


def test_malformed_dimension_cap_is_an_input_error(capsys, monkeypatch):
    for text in ("", "abc", "-1"):
        monkeypatch.setenv("STEENROD_MAX_DIM", text)
        for argv in (("describe", "--variety", "P^2"),
                     ("verify", "--suite", "s0")):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert err == ("error: STEENROD_MAX_DIM must be a non-negative "
                           "integer, got %r\n" % text)


def test_extraction_failure_exits_3(capsys, monkeypatch):
    # every failed theory check exits 3 with its details dump, not only
    # ExtractionFailure
    from chowops import cli

    for error in (ExtractionFailure, DecompositionFailure, TheoryViolation):
        def boom(*a, **k):
            raise error("divisibility broke", details={"p": 2})

        monkeypatch.setattr(cli, "steenrod_operation", boom)
        code, _, err = run(capsys, "operate", "--variety", "P^2", "--p", "2",
                           "--class", '{"h^1":"1"}')
        assert code == 3, error
        assert error.__name__ in err and "divisibility broke" in err
        assert '"p": 2' in err


def test_corrupted_tau_matrix_fails_extraction(capsys, monkeypatch):
    # P^2's data with one off-diagonal tau entry changed (1/2 -> 1/3): the
    # Adams matrix of a raw table comes from the tau route, and extracting
    # S_1(h^1) mod 2 meets a non-integral coordinate.  An operation reads one
    # cached column per basis cell of its input, so a mixed class fails on
    # the column of h^1 with that cell's dump (its "input" is the tau-vector
    # of h^1), in either convention; h^0 and h^2 extract cleanly
    from fractions import Fraction

    from chowops import CellularVariety, ModPClass, cli, projective_space
    from chowops import steenrod_cohomological, steenrod_homological

    P2 = projective_space(2)
    tau = {c: dict(col) for c, col in P2.tau_columns.items()}
    tau["h^1"]["h^2"] = Fraction(1, 3)
    X = CellularVariety("P^2-corrupt", 2, P2.cells, pair_table(P2),
                        P2.degree_vector, P2.tangent_ch, tau)
    message = "dimension-0 component of p^2 psi_2 is not integral"
    details = {"variety": "P^2-corrupt", "p": 2, "dimension": 0,
               "exponent": 2, "component": {"h^2": "2/3"},
               "input": {"h^1": "1", "h^2": "1/3"}}
    for coeffs in ({"h^1": 1}, {"h^0": 1, "h^1": 1}, {"h^2": 1, "h^1": 1},
                   {"h^0": 1, "h^1": 1, "h^2": 1}):
        for operation in (steenrod_homological, steenrod_cohomological):
            try:
                operation(ModPClass(X, 2, coeffs))
            except ExtractionFailure as exc:
                assert str(exc) == message
                assert exc.details == details
            else:
                raise AssertionError("extraction passed on %s" % coeffs)
    for label in ("h^0", "h^2"):
        xbar = ModPClass(X, 2, {label: 1})
        assert steenrod_homological(xbar)[0] == xbar

    monkeypatch.setattr(cli, "_load_variety", lambda text: X)
    code, _, err = run(capsys, "operate", "--variety", "P^2", "--p", "2",
                       "--class", '{"h^1":"1"}')
    assert code == 3
    first, dump = err.split("\n", 1)
    assert first == "theory check failed (ExtractionFailure): " + message
    assert json.loads(dump) == details


_CORRUPT_TABLE = """
import sys
from fractions import Fraction
from chowops import CellularVariety, cli, projective_space
from oracles import pair_table
P2 = projective_space(2)
tau = {c: dict(col) for c, col in P2.tau_columns.items()}
tau["h^1"]["h^2"] = Fraction(1, 3)
X = CellularVariety("P^2-corrupt", 2, P2.cells, pair_table(P2),
                    P2.degree_vector, P2.tangent_ch, tau)
cli._load_variety = lambda text: X
sys.exit(cli.main(["table", "--variety", "P^2", "--p", "2"]))
"""


def test_corrupted_tau_table_fails_under_optimize():
    # the integer checks of the extraction are not assert statements, which
    # -O strips: the corrupted P^2 above still fails on the column of h^1
    env = dict(os.environ, PYTHONPATH=SCRIPT_PATH)
    out = subprocess.run([sys.executable, "-O", "-c", _CORRUPT_TABLE],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 3, out.stderr
    assert out.stdout == ""
    first, dump = out.stderr.split("\n", 1)
    assert first == ("theory check failed (ExtractionFailure): dimension-0 "
                     "component of p^2 psi_2 is not integral")
    assert json.loads(dump) == {
        "variety": "P^2-corrupt", "p": 2, "dimension": 0, "exponent": 2,
        "component": {"h^2": "2/3"}, "input": {"h^1": "1", "h^2": "1/3"}}


def test_corrupted_tangent_data_fails_bott_and_segre(capsys, monkeypatch):
    # P^2's data with ch_2(T) = 5/2, a consistent but wrong c_2 = 2 (it is
    # 3), and tau[O_X] = Todd(T_X) of that data, 1 + c_1/2 + (c_1^2 + c_2)/12
    # = 1 + 3/2 h + 11/12 h^2, as the constructor insists: deg w_2(-T) at
    # p = 2 becomes 7.  The line's column [Z] Todd(T_Z) is taken with
    # c_1(T_Z) = 3/2 (it is 2), h + 3/4 h^2, so the codim-2 coordinate of
    # theta^2(T) Todd(T) in the tau basis is no longer integral
    from fractions import Fraction

    from chowops import CellularVariety, bott_decompose, cli
    from chowops import projective_space, segre_number, tangent_bundle

    P2 = projective_space(2)
    tangent = dict(P2.tangent_ch, **{"h^2": Fraction(5, 2)})
    tau = dict(P2.tau_columns, **{
        "h^0": {"h^0": 1, "h^1": Fraction(3, 2), "h^2": Fraction(11, 12)},
        "h^1": {"h^1": 1, "h^2": Fraction(3, 4)}})
    X = CellularVariety("P^2-corrupt", 2, P2.cells, pair_table(P2),
                        P2.degree_vector, tangent, tau)
    cases = [
        (lambda: segre_number(X, 2), TheoryViolation,
         "Segre-type number 7 of P^2-corrupt is not divisible by 2",
         {"variety": "P^2-corrupt", "p": 2, "value": "7"}),
        (lambda: bott_decompose(tangent_bundle(X), 2), DecompositionFailure,
         "codim-2 piece of theta^2 is not integral",
         {"variety": "P^2-corrupt", "p": 2,
          "bundle": {"rank": "2", "ch": {"1": "2", "h^1": "3", "h^2": "5/2"}},
          "codim": 2, "piece": {"h^2": "5/2"}}),
    ]
    monkeypatch.setattr(cli, "_load_variety", lambda text: X)
    for check, error, message, details in cases:
        try:
            check()
        except TheoryViolation as exc:
            assert type(exc) is error
            assert str(exc) == message
            assert exc.details == details
        else:
            raise AssertionError("%s passed on corrupted tangent data" % error)
        # no verb runs these checks outside a suite, so operate stands in
        # for one: the error from the data must exit 3 with its dump
        monkeypatch.setattr(cli, "steenrod_operation",
                            lambda *a, check=check, **k: check())
        code, _, err = run(capsys, "operate", "--variety", "P^2", "--p", "2",
                           "--class", '{"h^1":"1"}')
        assert code == 3
        first, dump = err.split("\n", 1)
        assert first == "theory check failed (%s): %s" % (error.__name__,
                                                          message)
        assert json.loads(dump) == details


def test_tangent_data_off_the_fundamental_tau_column_exits_2(capsys,
                                                             monkeypatch):
    # P^2's tau columns with ch_2(T) = 5/2 are refused where the variety is
    # built, before any verb runs
    from fractions import Fraction

    from chowops import CellularVariety, cli, projective_space

    P2 = projective_space(2)
    tangent = dict(P2.tangent_ch, **{"h^2": Fraction(5, 2)})
    monkeypatch.setattr(cli, "_load_variety", lambda text: CellularVariety(
        "P^2-corrupt", 2, P2.cells, pair_table(P2), P2.degree_vector,
        tangent, P2.tau_columns))
    code, out, err = run(capsys, "table", "--variety", "P^2", "--p", "2")
    assert (code, out) == (2, "")
    assert err == ("error: tau column 'h^0' of the fundamental cell is not "
                   "Todd(T_X) of tangent_ch\n")


def test_vacuous_suite_exits_1(capsys, monkeypatch):
    # no default builder fits a cap of 0, so whitney checks nothing
    monkeypatch.setenv("STEENROD_MAX_DIM", "0")
    code, out, _ = run(capsys, "verify", "--suite", "whitney")
    assert code == 1
    report = json.loads(out)
    assert report["checks"] == 0 and not report["passed"]


def test_variety_file_input(capsys, tmp_path):
    spec = tmp_path / "v.json"
    spec.write_text('{"type":"projective_space","n":1}')
    code, out, _ = run(capsys, "describe", "--variety", str(spec))
    assert code == 0
    assert json.loads(out)["name"] == "P^1"


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "operate", "--variety", "P^2", "--p", "2",
                       "--class", '{"h^1":"1"}', "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())["ops"]["S_1"] == {"h^2": "1"}


def run_process(*argv, flags=()):
    """The CLI in a fresh interpreter started with `flags`; returns the
    completed process and its wall time in seconds."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(chowops.__file__)))
    env.pop("STEENROD_MAX_DIM", None)
    start = time.perf_counter()
    out = subprocess.run([sys.executable, *flags, "-m", "chowops", *argv],
                         env=env, capture_output=True, text=True, timeout=60)
    return out, time.perf_counter() - start


def run_timed(*argv):
    """The CLI in a fresh process; returns (exit code, stdout, seconds)."""
    out, seconds = run_process(*argv)
    return out.returncode, out.stdout, seconds


def test_over_cap_specs_are_rejected_before_building():
    # building P^80 takes about 45 s and (P^1)^9 several minutes, so the
    # default cap of 8 must be checked on the spec
    for spec in ("P^40", "P^80", "x".join(["P^1"] * 9),
                 '{"type":"product","factors":["P^4",{"type":"odd_quadric","dim":5}]}'):
        code, _, seconds = run_timed("describe", "--variety", spec)
        assert code == 2, spec
        assert seconds < 5, (spec, seconds)
    # so must the P^n a verify size parameter names: the suite's cost grows
    # without bound in n (seconds at n = 48)
    for argv in (("lucas-oracle", "--n", "30"), ("lucas-oracle", "--n", "48"),
                 ("segre", "--p", "3", "--k", "24")):
        code, _, seconds = run_timed("verify", "--suite", *argv)
        assert code == 2, argv
        assert seconds < 5, (argv, seconds)


def test_wide_product_within_the_cap_is_quick():
    # (P^1)^8 is within the cap but has 256 cells: a cubic associativity
    # check while building it would take about 40 s
    code, out, seconds = run_timed("describe", "--variety",
                                   "x".join(["P^1"] * 8))
    assert code == 0
    assert len(json.loads(out)["cells"]) == 256
    assert seconds < 5, seconds


def test_wide_product_table_is_quick():
    # psi_p on (P^1)^8 is the Kronecker power of the 2x2 matrix of P^1, so
    # the table costs no per-cell ring product (it took 2.5 s)
    code, out, seconds = run_timed("table", "--variety",
                                   "x".join(["P^1"] * 8), "--p", "2")
    assert code == 0
    assert len(json.loads(out)["rows"]) == 256 * 9
    assert seconds < 5, seconds


def test_table_cost_does_not_grow_with_p():
    # the closed form on P^n uses C(p, m+1) for m <= n, never a loop over p
    code, out, seconds = run_timed("table", "--variety", "P^8",
                                   "--p", "2305843009213693951")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["output"] for row in rows] == [
        {"h^%d" % j: "1"} for j in range(9)]
    assert seconds < 5, seconds


def test_malformed_json_input_exits_2():
    # a class must be a JSON object, a size an integer (not a bool or a
    # float) and product factors a list; none of them may reach a traceback
    cases = [("operate", "--variety", "P^2", "--class", cls)
             for cls in ("[1]", '"h^1"', "5", "null")]
    cases += [("describe", "--variety", spec) for spec in (
        '{"type":"product","factors":5}',
        '{"type":"projective_space","n":[1]}',
        '{"type":"odd_quadric","dim":null}',
        '{"type":"projective_space","n":2.7}',
        '{"type":"projective_space","n":true}')]
    for argv in cases:
        out, _ = run_process(*argv)
        assert out.returncode == 2, (argv, out.stderr)
        assert out.stderr.startswith("error: "), (argv, out.stderr)
        assert "Traceback" not in out.stderr, argv


def test_deep_or_wide_input_exits_2_at_once(capsys, tmp_path):
    # a product padded with P^0 passes the dimension and cell caps; 3000
    # factors overflowed the stack, 30000 ran past 60 s, and so did a
    # product nested 400 deep; JSON nested 3000 deep overflowed in json
    nested = '"P^1"'
    for _ in range(400):
        nested = '{"type":"product","factors":[%s,"P^0"]}' % nested
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 3000 + "]" * 3000)
    cap = "variety exceeds the factor cap 8"
    cases = [
        (("table", "--variety", "P^0x" * 3000 + "P^1"), cap),
        (("table", "--variety", "P^0x" * 30000 + "P^1"), cap),
        (("describe", "--variety", nested), cap),
        (("operate", "--variety", "P^2", "--class", "[" * 3000 + "]" * 3000),
         "--class is nested too deeply"),
        (("describe", "--variety", str(deep)),
         "--variety is nested too deeply")]
    for argv, message in cases:
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        seconds = time.perf_counter() - start
        assert (code, out) == (2, ""), (argv[:2], err)
        assert err == "error: %s\n" % message
        assert seconds < 1, (argv[:2], seconds)


def test_wide_products_exit_2_before_their_factors_are_parsed(capsys,
                                                              tmp_path):
    # 30000 leaf factors, as shorthand and as a product spec, inline and
    # from a --variety file: refused by the factor cap before any leaf is
    # parsed, so the time does not grow with the length of the input
    leaves = ["P^0"] * 30000 + ["P^1"]
    specs = ["x".join(leaves),
             json.dumps({"type": "product", "factors": leaves})]
    for i, spec in enumerate(specs):
        path = tmp_path / ("wide%d.json" % i)
        path.write_text(json.dumps(spec) if i == 0 else spec)
        for text in (spec, str(path)):
            start = time.perf_counter()
            code, out, err = run(capsys, "describe", "--variety", text)
            seconds = time.perf_counter() - start
            assert (code, out) == (2, ""), err
            assert err == "error: variety exceeds the factor cap 8\n"
            assert seconds < 1, seconds


def test_malformed_coefficients_exit_2_at_once():
    # a coefficient is an integer or a string "n" or "n/d" with d != 0: a
    # zero denominator ended in a traceback, an exponent built a huge
    # integer first (5.4 s for 1e6000000), and a float was read as 1/2
    for coeff in ('"1/0"', '"1e6000000"', "0.5", '"0.5"'):
        out, seconds = run_process("operate", "--variety", "P^2", "--p", "2",
                                   "--class", '{"h^1":%s}' % coeff)
        assert out.returncode == 2, (coeff, out.stderr)
        assert out.stderr.startswith("error: "), (coeff, out.stderr)
        assert seconds < 2, (coeff, seconds)


def test_operate_cost_does_not_grow_with_p():
    for p in ("1000003", "2305843009213693951"):  # the second is 2^61 - 1
        code, out, seconds = run_timed("operate", "--variety", "P^2", "--p", p,
                                       "--class", '{"h^1":"1"}')
        assert code == 0, p
        assert json.loads(out)["ops"] == {"S_0": {"h^1": "1"}}
        assert seconds < 5, (p, seconds)


def test_p_below_two_is_rejected_before_any_arithmetic():
    # p must be rejected before any reduction mod p or division by p - 1,
    # and a suite must neither fall back to its default primes for p = 0
    # nor pass vacuously mod 1
    for argv in (("operate", "--variety", "P^2", "--p", "0",
                  "--class", '{"h^1":"1"}'),
                 ("table", "--variety", "P^2", "--p", "0"),
                 ("table", "--variety", "P^2", "--p", "1"),
                 ("verify", "--suite", "xp", "--p", "0"),
                 ("verify", "--suite", "xp", "--p", "1")):
        out, _ = run_process(*argv)
        assert out.returncode == 2, (argv, out.stderr)
        assert out.stderr.startswith("error: p must be"), (argv, out.stderr)
        assert "Traceback" not in out.stderr, argv


def test_suites_pass_under_optimize():
    # the theory checks of both p-adic decompositions are not asserts,
    # so they stay in force when -O strips assert statements
    for suite in ("bott", "degree-formula"):
        out, _ = run_process("verify", "--suite", suite, flags=("-O",))
        assert out.returncode == 0, (suite, out.stderr)
        assert json.loads(out.stdout)["passed"] is True, suite


def test_zero_is_a_size_not_a_missing_parameter():
    # --n 0 runs P^0 (one check), not the default P^8 (nine)
    out, _ = run_process("verify", "--suite", "lucas-oracle", "--n", "0")
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["checks"] == 1 and report["params"]["n"] == 0
    # a trial count or a k below 1 is an input error, not the default
    for argv in (("whitney", "--trials", "0"),
                 ("lift-independence", "--trials", "-1"),
                 ("segre", "--p", "3", "--k", "0")):
        out, _ = run_process("verify", "--suite", *argv)
        assert out.returncode == 2, (argv, out.stdout)
        assert out.stderr.startswith("error: --"), (argv, out.stderr)


# P^2's data with ch_1(T) = 7/2 in place of 3: the tau columns are still
# P^2's but for tau[O_X], which the constructor insists is Todd(T_X) of the
# corrupted data, 1 + c_1/2 + (c_1^2 + c_2)/12 with c_1 = 7/2, c_2 = 37/8,
# so the one check that sees the corruption is the integrality of
# w^{CH,2}(T) (and of c(T)), which the cohomological columns read first
_CORRUPT_CH1 = """
from fractions import Fraction
from chowops import CellularVariety, projective_space
from oracles import pair_table
P2 = projective_space(2)
tau = dict(P2.tau_columns, **{"h^0": {"h^0": 1, "h^1": Fraction(7, 4),
                                      "h^2": Fraction(45, 32)}})
X = CellularVariety("P^2-corrupt", 2, P2.cells, pair_table(P2),
                    P2.degree_vector,
                    dict(P2.tangent_ch, **{"h^1": Fraction(7, 2)}), tau)
"""
_CH1_MESSAGE = ("theory check failed (IntegralityFailure): w^{CH,2} of an "
                "integral bundle came out fractional")
_CH1_DUMP = {
    "variety": "P^2-corrupt", "p": 2,
    "bundle": {"rank": "2", "ch": {"1": "2", "h^1": "7/2", "h^2": "3/2"}},
    "total": {"h^0": "1", "h^1": "-7/2", "h^2": "37/8"}}


def _corrupt_first_chern():
    scope = {}
    exec(_CORRUPT_CH1, scope)
    return scope["X"]


def test_fractional_w_chp_exits_3_with_its_dump(capsys, monkeypatch):
    # a fractional w^{CH,p} or Chern class of a bundle declared integral is
    # corrupted data: a theory failure with the bundle and the class, which
    # still matches `except IntegralityViolation`
    from chowops import chern, cli, tangent_bundle, w_chp
    from chowops.errors import IntegralityFailure, IntegralityViolation

    X = _corrupt_first_chern()
    T = tangent_bundle(X)
    with pytest.raises(IntegralityViolation) as err:
        w_chp(T, 2)
    assert type(err.value) is IntegralityFailure
    assert err.value.details == _CH1_DUMP
    with pytest.raises(IntegralityFailure) as err:
        chern(T)
    assert err.value.details == {
        "variety": "P^2-corrupt", "bundle": _CH1_DUMP["bundle"],
        "total": {"h^0": "1", "h^1": "7/2", "h^2": "37/8"}}

    monkeypatch.setattr(cli, "_load_variety", lambda text: X)
    code, out, err = run(capsys, "table", "--variety", "P^2", "--p", "2")
    assert code == 3 and out == ""
    first, dump = err.split("\n", 1)
    assert first == _CH1_MESSAGE
    assert json.loads(dump) == _CH1_DUMP


def test_fractional_w_chp_exits_3_under_optimize():
    # the integrality check is an if, not an assert that -O strips
    script = _CORRUPT_CH1 + """
import sys
from chowops import cli
cli._load_variety = lambda text: X
sys.exit(cli.main(["table", "--variety", "P^2", "--p", "2"]))
"""
    out = subprocess.run([sys.executable, "-O", "-c", script],
                         env=dict(os.environ, PYTHONPATH=SCRIPT_PATH),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 3, out.stderr
    assert out.stdout == ""
    first, dump = out.stderr.split("\n", 1)
    assert first == _CH1_MESSAGE
    assert json.loads(dump) == _CH1_DUMP


def test_bott_support_failure_exits_3_with_its_dump(capsys, monkeypatch):
    # a split that copies e_0 into e_1 puts e_1 in codimension 0; no verb
    # runs bott_decompose outside a suite, so operate stands in for one
    from chowops import bott_decompose, bundles, cli, projective_space
    from chowops import tangent_bundle

    split = bundles._p_adic_split

    def copied(*args):
        pieces, bad = split(*args)
        return [pieces[0], dict(pieces[0])] + pieces[2:], bad

    monkeypatch.setattr(bundles, "_p_adic_split", copied)
    T = tangent_bundle(projective_space(2))
    monkeypatch.setattr(cli, "steenrod_operation",
                        lambda *a, **k: bott_decompose(T, 2))
    code, _, err = run(capsys, "operate", "--variety", "P^2", "--p", "2",
                       "--class", '{"h^1":"1"}')
    assert code == 3
    first, dump = err.split("\n", 1)
    assert first == ("theory check failed (DecompositionFailure): e_1 is "
                     "supported below codimension 1")
    assert json.loads(dump) == {
        "variety": "P^2", "p": 2, "k": 1, "part": {"h^0": "1"},
        "bundle": {"rank": "2", "ch": {"1": "2", "h^1": "3", "h^2": "3/2"}}}


def test_top_level_extraction_failure_exits_3_with_its_dump(capsys,
                                                            monkeypatch):
    # the identity in place of the Adams matrix of P^2 leaves out the
    # p^-d scale, so x_0 = p^d x on the column of h^0: the dump carries the
    # input [O_P2] and the pieces, the tau-coordinates of the x_k.  A copy
    # of P^2 has no cached columns, so its table reads the matrix
    from chowops import CellularVariety, cli, projective_space, steenrod
    from chowops.core import Matrix

    P2 = projective_space(2)
    X = CellularVariety("P^2-copy", 2, P2.cells, pair_table(P2),
                        P2.degree_vector, P2.tangent_ch, P2.tau_columns)
    monkeypatch.setattr(cli, "_load_variety", lambda text: X)
    monkeypatch.setattr(steenrod, "adams_matrix", lambda X, p: Matrix(
        {l: {l: 1} for l in X.labels()}, 1))
    code, out, err = run(capsys, "table", "--variety", "P^2", "--p", "2")
    assert code == 3 and out == ""
    first, dump = err.split("\n", 1)
    assert first == ("theory check failed (ExtractionFailure): x_0 does not "
                     "agree with x at the top level")
    assert json.loads(dump) == {
        "variety": "P^2-copy", "p": 2,
        "input": {"h^0": "1", "h^1": "3/2", "h^2": "1"},
        "pieces": [{"h^0": "4"}, {}, {}]}
