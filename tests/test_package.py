"""The package's public names, and the names perfbench traces."""

import ast
import importlib
from pathlib import Path

import qszego


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from qszego import *", namespace)
    missing = [name for name in qszego.__all__ if name not in namespace]
    assert not missing
    assert len(set(qszego.__all__)) == len(qszego.__all__)


# names perfbench traces that are known to be gone (its own open item); a
# span of any other name that no longer resolves would silently read 0
_TRACED_GONE = {("polyfrac", "RatPoly.eval_array"), ("polyfrac", "try_divide_radius_sq")}


def test_perfbench_traced_names_resolve():
    # read as text: importing the benchmark's module would write into its directory
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "layers.py").read_text()
    (traced,) = [
        node.value
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]
    ]
    missing = []
    for _, module, attr in ast.literal_eval(traced):
        if (module, attr) in _TRACED_GONE:
            continue
        obj = importlib.import_module(f"qszego.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"{module}.{attr}")
    assert not missing
