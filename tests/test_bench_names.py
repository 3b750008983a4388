"""The per-layer metrics of BENCHMARK.json name objects the program has.

The traced benchmark wraps the plain public functions of each `fflv.<layer>`
module, and the `TensorSpace` and `IntSpan` methods it lists, and a traced
run fails when a named span is missing.  A rename, a decorator or a move
that hides one of them would break it; this test says which.
"""

import importlib
import inspect
import json
from pathlib import Path

from fflv.linalg import IntSpan
from fflv.rep import TensorSpace

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
CLASSES = {"TensorSpace": TensorSpace, "IntSpan": IntSpan}


def test_traced_metric_names_are_plain_functions_or_listed_methods():
    metrics = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    spans = [m.split(".") for m in metrics if m.split(".")[-1] in ("calls", "s")]
    assert spans, "no per-layer call or time metric to check"
    missing = []
    for layer, *path, _ in spans:
        module = importlib.import_module(f"fflv.{layer}")
        if len(path) == 1:
            fn = getattr(module, path[0], None)
            ok = inspect.isfunction(fn) and fn.__module__ == module.__name__
        else:
            cls_name, meth = path
            cls = CLASSES.get(cls_name)
            ok = (cls is not None and getattr(module, cls_name, None) is cls
                  and inspect.isfunction(vars(cls).get(meth)))
        if not ok:
            missing.append(".".join([layer, *path]))
    assert not missing, f"traced names with no plain function or method: {missing}"
