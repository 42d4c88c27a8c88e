"""Exact Steenrod operations mod p on Chow groups of split cellular varieties.

The engine follows the Adams-operation route: Bott's class theta^p, the
homological Adams operation psi_p in Riemann-Roch coordinates, the
topological filtration on K_0, and the p-adic decomposition that produces
the reduced operations.  All arithmetic is exact (integers and Fractions).

The names below are loaded on first access (PEP 562), each from its module,
so that `import chowops` loads no submodule and a CLI call loads only those
its verb runs.  A name once read is stored here, a plain attribute after.
"""
from importlib import import_module as _import

_EXPORTS = {
    "core": ("CellularVariety", "ChowClass", "ModPClass", "class_from_json",
             "class_to_json", "degree", "make_class"),
    "char_classes": ("SeriesSpec", "VirtualBundle", "chern",
                     "multiplicative_class", "tangent_bundle", "theta_p",
                     "todd", "trivial_bundle", "w_chp"),
    "ktheory": ("KClass", "TauLattice", "adams_lower", "adams_matrix",
                "adams_upper", "bott_decompose", "euler_char",
                "filtration_level", "k0_from_chow_lift", "k0_generators",
                "kclass_from_json", "kclass_pullback", "kclass_pushforward",
                "phi_top", "structure_sheaf", "tau_lattice"),
    "steenrod": ("AtiyahDecomposition", "atiyah_decompose", "chi_defect",
                 "degree_formula_witness", "op_component", "segre_number",
                 "steenrod_cohomological", "steenrod_homological",
                 "steenrod_operation", "steenrod_total"),
    "varieties": ("Morphism", "build_morphism", "external_product",
                  "hyperplane_class", "line_bundle", "morphism_from_spec",
                  "odd_quadric", "product", "projective_space", "pullback",
                  "pushforward", "registered_morphisms", "variety_from_spec"),
    "verify": ("run_suite",),
}
_SUBMODULES = ("char_classes", "core", "errors", "ktheory", "series",
               "steenrod", "varieties", "verify")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULES + tuple(_HOME))
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        value = getattr(_import("." + _HOME[name], __name__), name)
    elif name in _SUBMODULES:
        value = _import("." + name, __name__)
    else:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
