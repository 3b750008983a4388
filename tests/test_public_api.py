"""The public surface of the package, pinned name by name."""

import ast
import json
from pathlib import Path
from types import ModuleType

import fflv

SRC = Path(fflv.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]

# Every public name of `fflv`, in sorted order.  Adding or removing one is a
# deliberate change to this list, and it shows in the diff.  The submodules
# are not public names: `__all__` lists what the package imports from them.
PUBLIC = [
    "Character", "DimensionCapError", "DominantWeight", "ExplicitModule",
    "Inequality", "IntSpan", "IrreducibleModule", "MonomialBasisReport",
    "Permutation", "PointSet", "Root", "RootSubset", "TensorSpace",
    "UnboundedFaceError", "all_permutations", "all_positive_roots", "base_root",
    "build_highest_weight_module", "build_inequalities",
    "cartan_component_dimension", "character_from_lattice_points", "classify_permutations",
    "compose_points",
    "connected_blocks", "count_chain_points", "count_integer_points",
    "count_lattice_points", "count_order_points", "count_points_by_weight",
    "count_sum_points", "degree_histogram", "demazure_character_oracle",
    "demazure_operator", "demazure_operator_division",
    "demazure_submodule", "dominates", "embed_face",
    "enumerate_dyck_paths_for", "enumerate_integer_points", "enumerate_lattice_points",
    "essential_monomials", "extremal_vector", "face_character", "fundamental_weight",
    "in_polytope",
    "inversion_roots", "is_dyck_path_for", "is_kempf", "is_marked_chain_face",
    "is_triangular_element", "is_triangular_subset",
    "kempf_factorization", "lattice_point_graph", "lowering_weights", "make_root",
    "marked_chain_points",
    "marked_order_points",
    "minkowski_sum", "packed_fields", "pairing", "parse_permutation", "parse_root",
    "pbw_filtration_profile", "permutation_from_segments", "reduced_word", "rho",
    "subset_submodule", "support_inequalities", "to_partition", "verify_monomial_basis",
    "weight_columns", "weyl_dimension",
]


def test_public_names_are_pinned():
    assert sorted(fflv.__all__) == PUBLIC


def test_star_import_binds_no_submodule():
    namespace: dict = {}
    exec("from fflv import *", namespace)
    assert not [name for name, value in namespace.items() if isinstance(value, ModuleType)]


TRACED = "traced by name in BENCHMARK.json"
BENCH = "imported by bench/checks.py"
REFERENCE = "a reference, kept until ROADMAP.md settles whether verify reports it or a test owns it"

# Every public module-level function of `src/fflv` that no other code in
# `src/fflv` names, with why it stays.  A new function that nothing in
# `src/fflv` reaches fails the test below until it is listed here.
UNREACHED = {
    "all_permutations": REFERENCE,
    "cartan_component_dimension": REFERENCE,
    "demazure_operator_division": BENCH,
    "demazure_submodule": TRACED,
    "dominates": REFERENCE,
    "embed_face": REFERENCE,
    "fundamental_weight": REFERENCE,
    "in_polytope": REFERENCE,
    "is_kempf": TRACED,
    "kempf_factorization": REFERENCE,
    "marked_chain_points": TRACED,
    "marked_order_points": TRACED,
    "minkowski_sum": TRACED,
    "permutation_from_segments": REFERENCE,
    "rho": REFERENCE,
}


def _unreached() -> list[str]:
    """The public module-level functions of `src/fflv` that no other code
    there names.  A name counts where it is loaded (`ast.Name`) outside its
    own definition, or imported by `from .x import`; an attribute such as
    `args.dilate` does not.  `__init__.py` only re-exports, so it is not
    read."""
    defined, named = set(), set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            own = getattr(node, "name", None)
            if isinstance(node, ast.FunctionDef) and not own.startswith("_"):
                defined.add(own)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) and sub.id != own:
                    named.add(sub.id)
                elif isinstance(sub, ast.ImportFrom):
                    named.update([alias.name for alias in sub.names])
    return sorted(defined - named)


def test_functions_that_src_does_not_reach_are_pinned():
    assert _unreached() == sorted(UNREACHED)
    layers = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    traced = {metric["name"].split(".")[1] for metric in layers}
    checks = (ROOT / "bench" / "checks.py").read_text()
    for name, why in UNREACHED.items():
        assert why != TRACED or name in traced, name
        assert why != BENCH or f" {name}" in checks, name
