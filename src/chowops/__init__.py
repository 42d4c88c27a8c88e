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
    "bundles": ("VirtualBundle", "adams_upper", "bott_decompose", "chern",
                "line_bundle", "tangent_bundle", "theta_p", "todd",
                "trivial_bundle", "w_chp"),
    "core": ("CellularVariety", "ChowClass", "ModPClass", "class_from_json",
             "class_to_json", "degree", "make_class"),
    "char_classes": ("SeriesSpec", "multiplicative_class"),
    "ktheory": ("KClass", "TauLattice", "adams_lower", "adams_matrix",
                "euler_char", "filtration_level", "k0_from_chow_lift",
                "k0_generators", "kclass_from_json", "phi_top",
                "structure_sheaf", "tau_lattice"),
    "morphisms": ("Morphism", "kclass_pullback", "kclass_pushforward",
                  "morphism_from_spec", "pullback", "pushforward",
                  "registered_morphisms"),
    "numbers": ("chi_defect", "degree_formula_witness", "segre_number"),
    "steenrod": ("AtiyahDecomposition", "atiyah_decompose", "op_component",
                 "steenrod_cohomological", "steenrod_homological",
                 "steenrod_operation", "steenrod_total"),
    "varieties": ("build_morphism", "external_product", "hyperplane_class",
                  "odd_quadric", "product", "projective_space",
                  "variety_from_spec"),
    "verify": ("run_suite",),
}
_SUBMODULES = ("bundles", "char_classes", "core", "errors", "ktheory",
               "morphisms", "numbers", "series", "steenrod", "varieties",
               "verify")
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
