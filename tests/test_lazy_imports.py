"""What a call loads: the lazy package namespace and each CLI verb's modules.

Without a bytecode cache, compiling the package is a large part of a cold
CLI call, so `import chowops` loads no module and a verb loads only the
modules it runs; the parser reads the suite and convention names from
`errors`.
"""
import json
import os
import subprocess
import sys

import pytest

import chowops
from chowops import cli, errors

SRC = os.path.dirname(os.path.dirname(chowops.__file__))

# every name `from chowops import *` bound when the package imported its
# modules eagerly
PUBLIC = (
    "AtiyahDecomposition", "CellularVariety", "ChowClass", "KClass",
    "ModPClass", "Morphism", "SeriesSpec", "TauLattice", "VirtualBundle",
    "adams_lower", "adams_matrix", "adams_upper", "atiyah_decompose",
    "bott_decompose", "build_morphism", "char_classes", "chern", "chi_defect",
    "class_from_json", "class_to_json", "core", "degree",
    "degree_formula_witness", "errors", "euler_char", "external_product",
    "filtration_level", "hyperplane_class", "k0_from_chow_lift",
    "k0_generators", "kclass_from_json", "kclass_pullback",
    "kclass_pushforward", "ktheory", "line_bundle", "make_class",
    "morphism_from_spec", "multiplicative_class", "odd_quadric",
    "op_component", "phi_top", "product", "projective_space", "pullback",
    "pushforward", "registered_morphisms", "run_suite", "segre_number",
    "series", "steenrod", "steenrod_cohomological", "steenrod_homological",
    "steenrod_operation", "steenrod_total", "structure_sheaf",
    "tangent_bundle", "tau_lattice", "theta_p", "todd", "trivial_bundle",
    "varieties", "variety_from_spec", "verify", "w_chp",
)

_LOADED = """
import contextlib, io, json, sys
from chowops.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


def loaded(*argv):
    """The chowops modules a fresh interpreter holds after one CLI call."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("STEENROD_MAX_DIM", None)
    out = subprocess.run([sys.executable, "-c", _LOADED, *argv], env=env,
                         capture_output=True, text=True, timeout=120)
    code, modules = json.loads(out.stdout)
    assert code == 0, out.stderr
    return {m.split(".", 1)[1] for m in modules if m.startswith("chowops.")}


@pytest.mark.parametrize("argv, absent", [
    (("describe", "--variety", "Q_5"), {"steenrod", "ktheory", "verify"}),
    (("describe", "--variety", "P^2xP^1"), {"steenrod", "ktheory", "verify"}),
    (("table", "--variety", "P^2xP^1", "--p", "3"), {"verify"}),
    (("table", "--variety", "Q_5", "--format", "csv"), {"verify"}),
    (("operate", "--variety", "Q_5", "--p", "2", "--class", '{"h^1": "1"}'),
     {"verify"}),
])
def test_a_verb_loads_only_the_modules_it_runs(argv, absent):
    modules = loaded(*argv)
    assert {"cli", "core", "errors", "varieties"} <= modules
    assert not modules & absent, modules & absent


def test_the_verify_verb_loads_the_suites():
    modules = loaded("verify", "--suite", "xp", "--variety", "Q_3", "--p", "3")
    assert {"verify", "steenrod", "ktheory"} <= modules


def test_import_chowops_loads_no_module():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, chowops; print(sorted("
         "m for m in sys.modules if m.startswith('chowops.')))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]", out.stderr


# -- the lazy namespace -------------------------------------------------------

def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from chowops import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(PUBLIC)
    for name, value in namespace.items():
        assert value is getattr(chowops, name)
    assert namespace["steenrod_operation"] is \
        chowops.steenrod.steenrod_operation
    assert namespace["core"] is sys.modules["chowops.core"]


def test_dir_lists_every_public_name():
    assert set(PUBLIC) <= set(dir(chowops))
    assert set(chowops.__all__) == set(PUBLIC)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        chowops.no_such_name
    assert not hasattr(chowops, "cli_main")
    with pytest.raises(ImportError):
        exec("from chowops import no_such_name", {})


def test_a_lazy_name_is_read_from_its_module_on_first_access(monkeypatch):
    # a tracer that rebinds a module's function before the first read must
    # see it through the package; after that read it is a plain attribute
    from chowops import steenrod

    def sentinel(ops):
        return ops

    monkeypatch.setitem(vars(chowops), "steenrod_total", None)
    del vars(chowops)["steenrod_total"]
    monkeypatch.setattr(steenrod, "steenrod_total", sentinel)
    assert chowops.steenrod_total is sentinel
    assert vars(chowops)["steenrod_total"] is sentinel


# -- the names the parser reads -----------------------------------------------

VERIFY_USAGE = """\
usage: chowops verify [-h] --suite
                      {algebra,bott,cartan,chi-defect,degree-formula,integrality,lift-independence,lucas-oracle,psipower,rr-naturality,s0,segre,whitney,wu,xp}
                      [--seed SEED] [--p P] [--variety VARIETY] [--n N]
                      [--k K] [--trials TRIALS] [--out OUT]
"""

VERIFY_HELP = VERIFY_USAGE + """
options:
  -h, --help            show this help message and exit
  --suite {algebra,bott,cartan,chi-defect,degree-formula,integrality,lift-independence,lucas-oracle,psipower,rr-naturality,s0,segre,whitney,wu,xp}
  --seed SEED
  --p P
  --variety VARIETY
  --n N
  --k K
  --trials TRIALS
  --out OUT
"""


def test_the_suites_are_keyed_from_the_one_name_list():
    from chowops import steenrod, verify
    assert tuple(verify.SUITES) == errors.SUITE_NAMES
    assert steenrod.CONVENTIONS is errors.CONVENTIONS is cli.CONVENTIONS


def test_verify_help_lists_the_suites(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.main(["verify", "--help"]) == 0
    assert capsys.readouterr().out == VERIFY_HELP


def test_an_unknown_suite_exits_2_with_the_choices(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.main(["verify", "--suite", "bogus"]) == 2
    assert capsys.readouterr().err == VERIFY_USAGE + (
        "chowops verify: error: argument --suite: invalid choice: 'bogus' "
        "(choose from 'algebra', 'bott', 'cartan', 'chi-defect', "
        "'degree-formula', 'integrality', 'lift-independence', "
        "'lucas-oracle', 'psipower', 'rr-naturality', 's0', 'segre', "
        "'whitney', 'wu', 'xp')\n")
