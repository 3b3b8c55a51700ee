"""The benchmark's traced run wraps every name in perfbench/run.py's TRACED
tuple with getattr, so each one must still resolve in the package, as must
every library name its workloads call, and its byte counters read the
gradients each traced call is given."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from labelrnn.mathcore import new_rng
from labelrnn.models import VARIANTS, Grads, sentence_pass
from labelrnn.pretrain import build_nnlm, nnlm_sequence_pass
from labelrnn.training import SgdMomentum

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


def _library_calls():
    """Each L.<module>.<name>[.<attr>...] chain in perfbench/run.py, whose L
    holds the labelrnn modules, as the dotted names after L."""
    chains = set()
    for node in ast.walk(ast.parse(RUN_PY.read_text(encoding="utf-8"))):
        names, root = [], node
        while isinstance(root, ast.Attribute):
            names.append(root.attr)
            root = root.value
        if isinstance(root, ast.Name) and root.id == "L" and len(names) >= 2:
            chains.add(".".join(reversed(names)))
    return chains


def test_every_library_call_of_the_benchmark_resolves():
    """A call of a renamed or removed entry point would only show as a
    failed benchmark run."""
    chains = _library_calls()
    assert {"models.tag_greedy", "training.train_bidirectional", "cli.main"} <= chains
    missing = []
    for chain in sorted(chains):
        module, *attrs = chain.split(".")
        owner = importlib.import_module(f"labelrnn.{module}")
        for attr in attrs:
            owner = getattr(owner, attr, None)
        if owner is None:
            missing.append(chain)
    assert not missing, f"perfbench/run.py calls names that do not resolve: {missing}"


def _load_run_py(monkeypatch):
    """perfbench/run.py as a module; it imports its tracer from its own directory."""
    monkeypatch.syspath_prepend(str(RUN_PY.parent))
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("variant", VARIANTS)
def test_step_bytes_reads_a_sentence_gradient(monkeypatch, small_model_factory, tiny_seqs,
                                              variant):
    run = _load_run_py(monkeypatch)
    model = small_model_factory(variant, use_classes=True, use_chars=True)
    grads = Grads()
    sentence_pass((model,), tiny_seqs[0], (grads,))
    got = run._step_bytes((SgdMomentum(model, 0.5, 0.0), grads))
    assert isinstance(got, int) and got > 0


def test_step_bytes_reads_an_nnlm_gradient(monkeypatch):
    run = _load_run_py(monkeypatch)
    p = build_nnlm(9, pad_id=0, context=2, embed_size=4, hidden_size=5, rng=new_rng(3))
    grads = Grads()
    nnlm_sequence_pass(p, [3, 1, 4, 1, 5], grads)
    got = run._step_bytes((SgdMomentum(p, 0.5, 0.0), grads))
    assert isinstance(got, int) and got > 0
