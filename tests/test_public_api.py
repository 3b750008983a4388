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
    "character_from_lattice_points", "classify_permutations", "compose_points",
    "connected_blocks", "count_chain_points", "count_integer_points",
    "count_lattice_points", "count_order_points", "count_points_by_weight",
    "count_sum_points", "degree_histogram", "demazure_character_oracle",
    "demazure_operator", "demazure_operator_division",
    "demazure_submodule", "dominates",
    "enumerate_dyck_paths_for", "enumerate_integer_points", "enumerate_lattice_points",
    "essential_monomials", "extremal_vector", "face_character", "fundamental_weight",
    "inversion_roots", "is_dyck_path_for", "is_kempf", "is_marked_chain_face",
    "is_triangular_element", "is_triangular_subset",
    "lattice_point_graph", "make_root",
    "marked_chain_points", "marked_order_points",
    "minkowski_sum", "packed_fields", "pairing", "parse_permutation", "parse_root",
    "pbw_filtration_profile", "reduced_word", "rho",
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
VOCABULARY = "package vocabulary: the roots, weights and group elements the API speaks in"


def called_only_by(caller: str) -> str:
    return f"called only by {caller}, which is traced"


# Every public module-level function of `src/fflv` that `cli.main` does not
# reach, with why it stays.  A new function that the CLI does not reach
# fails the test below until it is listed here.
UNREACHED = {
    "all_permutations": VOCABULARY,
    "demazure_operator_division": BENCH,
    "demazure_submodule": TRACED,
    "dominates": VOCABULARY,
    "extremal_vector": called_only_by("demazure_submodule"),
    "fundamental_weight": VOCABULARY,
    "is_kempf": TRACED,
    "marked_chain_points": TRACED,
    "marked_order_points": TRACED,
    "minkowski_sum": TRACED,
    "pbw_filtration_profile": TRACED,
    "rho": VOCABULARY,
}


def _call_graph() -> tuple[dict[tuple[str, str], set], set[tuple[str, str]]]:
    """Per module-level definition of `src/fflv`, keyed by (module, name),
    the definitions its code names; and the public module-level functions.

    A name counts where it is loaded (`ast.Name`) and resolves in its
    module, to a definition there or to a `from .x import`; an attribute
    such as `args.dilate` does not.  `__init__.py` only re-exports, so it
    is not read."""
    scopes: dict[str, dict[str, tuple[str, str]]] = {}
    bodies: dict[tuple[str, str], ast.AST] = {}
    public = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = path.stem
        scope = scopes[module] = {}
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                scope.update({alias.asname or alias.name: (node.module, alias.name)
                              for alias in node.names})
                continue
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                scope[name] = (module, name)
                bodies[(module, name)] = node
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                public.add((module, node.name))
    graph = {(module, name): {scopes[module][sub.id] for sub in ast.walk(node)
                              if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
                              and sub.id in scopes[module]}
             for (module, name), node in bodies.items()}
    return graph, public


def _reached(graph: dict[tuple[str, str], set], start: tuple[str, str]) -> set:
    """The definitions that `start` names, directly or through ones it reaches."""
    seen, todo = {start}, [start]
    while todo:
        for key in graph.get(todo.pop(), ()):
            if key not in seen:
                seen.add(key)
                todo.append(key)
    return seen


def test_functions_that_src_does_not_reach_are_pinned():
    """A function counts as reached when `cli.main` names it, or a function
    that `cli.main` reaches does."""
    graph, public = _call_graph()
    reached = _reached(graph, ("cli", "main"))
    assert sorted(name for _, name in public - reached) == sorted(UNREACHED)
    layers = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    traced = {metric["name"].split(".")[1] for metric in layers}
    checks = (ROOT / "bench" / "checks.py").read_text()
    for name, why in UNREACHED.items():
        assert why != TRACED or name in traced, name
        assert why != BENCH or f" {name}" in checks, name
        if why not in (TRACED, BENCH, VOCABULARY):
            callers = [caller for (_, caller), named in graph.items()
                       if caller != name and name in [n for _, n in named]]
            assert len(callers) == 1 and why == called_only_by(callers[0]), (name, callers)
            assert UNREACHED[callers[0]] == TRACED, name
