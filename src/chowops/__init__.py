"""Exact Steenrod operations mod p on Chow groups of split cellular varieties.

The engine follows the Adams-operation route: Bott's class theta^p, the
homological Adams operation psi_p in Riemann-Roch coordinates, the
topological filtration on K_0, and the p-adic decomposition that produces
the reduced operations.  All arithmetic is exact (integers and Fractions).
"""
from .core import (
    CellularVariety,
    ChowClass,
    ModPClass,
    class_from_json,
    class_to_json,
    degree,
    make_class,
)
from .char_classes import (
    SeriesSpec,
    VirtualBundle,
    chern,
    multiplicative_class,
    tangent_bundle,
    theta_p,
    todd,
    trivial_bundle,
    w_chp,
)
from .ktheory import (
    KClass,
    TauLattice,
    adams_lower,
    adams_matrix,
    adams_upper,
    bott_decompose,
    euler_char,
    filtration_level,
    k0_from_chow_lift,
    k0_generators,
    kclass_from_json,
    kclass_pullback,
    kclass_pushforward,
    phi_top,
    structure_sheaf,
    tau_lattice,
)
from .steenrod import (
    AtiyahDecomposition,
    atiyah_decompose,
    chi_defect,
    degree_formula_witness,
    op_component,
    segre_number,
    steenrod_cohomological,
    steenrod_homological,
    steenrod_operation,
    steenrod_total,
)
from .varieties import (
    Morphism,
    build_morphism,
    external_product,
    hyperplane_class,
    line_bundle,
    morphism_from_spec,
    odd_quadric,
    product,
    projective_space,
    pullback,
    pushforward,
    registered_morphisms,
    variety_from_spec,
)
from .verify import run_suite

__version__ = "0.1.0"
