"""The package's public names, its runtime dependencies, and the names perfbench traces."""

import ast
import importlib
import json
import os
import subprocess
import sys
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


# installed next to numpy here, but not dependencies of the package
_UNDECLARED = ("scipy", "sympy", "mpmath")

_GUARD = """
import json, sys
from qszego.cli import main
codes = [
    main(["verify", "all", "--seed", "0", "-o", sys.argv[1]]),
    main(["eval", "s", "--n", "24", "--nu", "0.3,0.5,0.2,0.7", "-o", sys.argv[1]]),
]
print(json.dumps({"codes": codes, "modules": sorted(m for m in sys.modules if m.split(".")[0] in %r)}))
""" % (_UNDECLARED,)


def test_runtime_imports_only_numpy(tmp_path):
    # every suite and the largest evaluation run in a fresh interpreter,
    # which must import none of the undeclared packages
    src = str(Path(qszego.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run(
        [sys.executable, "-c", _GUARD, str(tmp_path / "out")], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 0], "modules": []}
