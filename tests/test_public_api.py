"""The public surface of the package, pinned name by name."""

from types import ModuleType

import fflv

# Every public name of `fflv`, in sorted order.  Adding or removing one is a
# deliberate change to this list, and it shows in the diff.  The submodules
# are not public names: `__all__` lists what the package imports from them.
PUBLIC = [
    "Character", "DimensionCapError", "DominantWeight", "ExplicitModule",
    "Inequality", "IntSpan", "MonomialBasisReport",
    "Permutation", "PointSet", "Root", "RootSubset", "TensorSpace",
    "UnboundedFaceError", "all_permutations", "all_positive_roots", "base_root",
    "build_highest_weight_module", "build_inequalities",
    "cartan_component_dimension", "character_from_lattice_points",
    "connected_blocks", "count_chain_points", "count_integer_points",
    "count_order_points", "count_points_by_weight", "degree_histogram", "demazure_character_oracle",
    "demazure_dimension_oracle", "demazure_operator", "demazure_operator_division",
    "demazure_submodule", "dilate", "dominates", "embed_face", "enumerate_dyck_paths",
    "enumerate_dyck_paths_for", "enumerate_integer_points", "enumerate_lattice_points",
    "essential_monomials", "extremal_vector", "face_character", "fundamental_weight", "in_polytope",
    "inversion_roots", "is_dyck_path_for", "is_kempf", "is_marked_chain_face",
    "is_triangular_element", "is_triangular_subset", "kempf_complement",
    "kempf_factorization", "make_root", "marked_chain_points", "marked_order_points",
    "minkowski_sum", "pairing", "parse_permutation", "parse_root",
    "pbw_filtration_profile", "permutation_from_segments", "points_to_csv",
    "reduced_word", "rho",
    "subset_submodule", "support_inequalities", "to_partition", "verify_monomial_basis",
    "weight_columns", "weyl_dimension",
]


def test_public_names_are_pinned():
    assert sorted(fflv.__all__) == PUBLIC


def test_star_import_binds_no_submodule():
    namespace: dict = {}
    exec("from fflv import *", namespace)
    assert not [name for name, value in namespace.items() if isinstance(value, ModuleType)]
