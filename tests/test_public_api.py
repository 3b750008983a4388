"""The public surface of the package, pinned name by name."""

import fflv

# Every public name of `fflv`, in sorted order.  Adding or removing one is a
# deliberate change to this list, and it shows in the diff.  The submodules
# are listed too: `__all__` is every package name without a leading
# underscore.
PUBLIC = [
    "Character", "DimensionCapError", "DominantWeight", "DyckPath", "ExplicitModule",
    "Inequality", "IntSpan", "MarkedPoset", "Marker", "MonomialBasisReport",
    "PartitionWeight", "Permutation", "PointSet", "Root", "RootSubset", "TensorSpace",
    "UnboundedFaceError", "all_permutations", "all_positive_roots", "base_root",
    "build_highest_weight_module", "build_inequalities", "build_marked_poset",
    "cartan_component_dimension", "character_from_lattice_points", "characters",
    "connected_blocks", "degree_histogram", "demazure_character_oracle",
    "demazure_dimension_oracle", "demazure_operator", "demazure_operator_division",
    "demazure_submodule", "dilate", "dominates", "embed_face", "enumerate_dyck_paths",
    "enumerate_dyck_paths_for", "enumerate_integer_points", "enumerate_lattice_points",
    "essential_monomials", "extremal_vector", "fundamental_weight", "in_polytope",
    "inversion_roots", "is_dyck_path_for", "is_kempf", "is_triangular_element",
    "is_triangular_subset", "join_root", "kempf_complement", "kempf_factorization",
    "linalg", "make_root", "marked_chain_points", "marked_order_points", "marked_poset",
    "meet_root", "minkowski_sum", "pairing", "parse_permutation", "parse_root", "paths",
    "pbw_filtration_profile", "permutation_from_segments", "points_to_csv", "polytope",
    "reduced_word", "rep", "restrict_path", "rho", "roots", "span_rank",
    "subset_submodule", "support_inequalities", "to_partition", "verify_monomial_basis",
    "weight_columns", "weyl", "weyl_dimension",
]


def test_public_names_are_pinned():
    assert sorted(fflv.__all__) == PUBLIC
