"""Exact combinatorics of triangular Weyl group elements and their polytopes.

The package computes, entirely in integer arithmetic:

  * positive roots of sl(n+1), the staircase order, dominant weights;
  * permutations, inversion sets, triangular and Kempf elements;
  * monotone lattice paths through the root grid and their restrictions;
  * face polytopes cut out by path inequalities, their lattice points,
    Minkowski sums, and dilations;
  * marked posets with their chain and order polytopes;
  * characters via lattice points and via the string-recursion operators;
  * explicit integer models of the modules the polytopes enumerate.
"""

from types import ModuleType as _ModuleType

from .characters import (
    Character,
    character_from_lattice_points,
    demazure_character_oracle,
    demazure_dimension_oracle,
    demazure_operator,
    demazure_operator_division,
    face_character,
    to_partition,
    weyl_dimension,
)
from .linalg import IntSpan
from .marked_poset import (
    count_chain_points,
    count_order_points,
    is_marked_chain_face,
    marked_chain_points,
    marked_order_points,
)
from .paths import (
    base_root,
    connected_blocks,
    enumerate_dyck_paths,
    enumerate_dyck_paths_for,
    is_dyck_path_for,
)
from .polytope import (
    Inequality,
    PointSet,
    UnboundedFaceError,
    build_inequalities,
    count_integer_points,
    count_points_by_weight,
    degree_histogram,
    dilate,
    embed_face,
    enumerate_integer_points,
    enumerate_lattice_points,
    in_polytope,
    minkowski_sum,
    points_to_csv,
    support_inequalities,
    weight_columns,
)
from .rep import (
    DimensionCapError,
    ExplicitModule,
    MonomialBasisReport,
    TensorSpace,
    build_highest_weight_module,
    cartan_component_dimension,
    demazure_submodule,
    essential_monomials,
    extremal_vector,
    pbw_filtration_profile,
    subset_submodule,
    verify_monomial_basis,
)
from .roots import (
    DominantWeight,
    Root,
    all_positive_roots,
    dominates,
    fundamental_weight,
    make_root,
    pairing,
    parse_root,
    rho,
)
from .weyl import (
    Permutation,
    RootSubset,
    all_permutations,
    inversion_roots,
    is_kempf,
    is_triangular_element,
    is_triangular_subset,
    kempf_complement,
    kempf_factorization,
    parse_permutation,
    permutation_from_segments,
    reduced_word,
)

__version__ = "1.0.0"

# The imported names, not the submodules that importing them binds.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
