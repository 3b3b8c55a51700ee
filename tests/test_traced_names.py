"""The benchmark's traced run wraps every name in perfbench/run.py's TRACED
tuple with getattr, so each one must still resolve in the package."""

import ast
import importlib
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _traced_names():
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no TRACED tuple in perfbench/run.py")


def test_every_traced_name_resolves():
    names = _traced_names()
    assert len(names) > 10
    missing = []
    for name in names:
        module, *attrs = name.split(".")
        owner = importlib.import_module(f"labelrnn.{module}")
        for attr in attrs:
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(name)
    assert not missing, f"traced names that no longer resolve: {missing}"
