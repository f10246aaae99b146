"""Every name the benchmark's tracer patches resolves on the package.

perfbench/spans.py wraps the layers listed in its LAYERS by name and reads
certify.worker_count; a name dropped from the package would otherwise show
up only as a failed traced benchmark run.  The file is parsed, not imported.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layers():
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no LAYERS")


def test_traced_names_resolve():
    # certify.objective names the function handed to certify.minimize,
    # which the tracer wraps at each call rather than looking it up
    names = [name for name in _layers() if name != ("certify", "objective")]
    names.append(("certify", "worker_count"))
    assert len(names) > 20
    missing = []
    for module, path in names:
        obj = importlib.import_module(f"sobolev_lab.{module}")
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(f"{module}.{path}")
    assert missing == []
