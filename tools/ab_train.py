#!/usr/bin/env python3
"""Time the benchmark's training calls of two labelrnn trees in one process.

    python3 tools/ab_train.py PARENT CHANGE --workload desk-train --rounds 40

PARENT and CHANGE are source checkouts. Each tree's src/labelrnn is copied
under its own package name and both are imported into this process. Every
round runs each operation once per tree, the two trees in turns, and swaps
which tree goes first each round. The operations and their inputs are those
of perfbench/run.py (read from this script's checkout, never written):
training.train_tagger for irnn fwd, irnn-gru fwd and irnn-deep fwd and bwd,
then training.train_bidirectional on the irnn-deep pair, one epoch each.

The host changes speed in phases that last longer than one benchmark run, so
two separate runs cannot resolve a 10% change; interleaved calls in one
process see the same phases. For each operation it prints the median and
quartiles of each tree's tok/s, the ratio of the medians, and in how many
rounds CHANGE was faster. One warm-up round comes first and is not counted.
"""

import argparse
import dataclasses
import importlib
import importlib.util
import shutil
import statistics
import sys
import tempfile
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def _load_run_py():
    sys.path.insert(0, str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def _import_tree(tree: Path, name: str, into: Path):
    """The modules of tree's src/labelrnn, imported as the package name."""
    src = tree / "src" / "labelrnn"
    if not (src / "__init__.py").is_file():
        sys.exit(f"error: no labelrnn sources under {tree / 'src'}")
    shutil.copytree(src, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    modules = {m: importlib.import_module(f"{name}.{m}")
               for m in ("cli", "corpus", "models", "synthetic", "training")}
    return types.SimpleNamespace(**modules)


class Side:
    """One tree's package and its copy of the workload's inputs."""

    def __init__(self, run, L, w, seed, work):
        self.L = L
        # Set-up without perfbench's CLI-trained tagging models: training
        # reads only the generated corpus and the subsets cut from it.
        self.prep = run.setup(L, dataclasses.replace(w, setup_train_sents=0), seed,
                              run.Ledger(), work)
        self.configs = {v: run._config(L, w, v) for v in ("irnn", "irnn-gru", "irnn-deep")}

    def train(self, variant, direction):
        p = self.prep
        t0 = time.perf_counter()
        model, _ = self.L.training.train_tagger(p.train, p.dev, p.vocab, self.configs[variant],
                                                variant, direction)
        return model, time.perf_counter() - t0

    def bidir(self, fwd, bwd):
        p = self.prep
        t0 = time.perf_counter()
        self.L.training.train_bidirectional(fwd, bwd, p.train, p.dev, p.vocab,
                                            self.configs["irnn-deep"])
        return time.perf_counter() - t0


def _round(sides, order):
    """Each operation once per side in the given order; returns
    {metric: {side: tok/s}}."""
    got, deep = {}, {}
    tokens = sides[order[0]].prep.train_tokens
    for variant in ("irnn", "irnn-gru"):
        got[f"train_tok_s.{variant}"] = {
            s: tokens / sides[s].train(variant, "fwd")[1] for s in order}
    for s in order:
        deep[s] = (sides[s].train("irnn-deep", "fwd"), sides[s].train("irnn-deep", "bwd"))
    got["train_tok_s.irnn-deep"] = {s: 2 * tokens / (deep[s][0][1] + deep[s][1][1])
                                    for s in order}
    got["bidir_train_tok_s"] = {s: tokens / sides[s].bidir(deep[s][0][0], deep[s][1][0])
                                for s in order}
    return got


def _quartiles(values):
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", default="desk-train", choices=("desk-train", "paper-train"))
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1, help="perfbench's input seed")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    run = _load_run_py()
    run.limit_blas_threads()  # before numpy is imported
    w = run.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix="ab_train_") as tmp:
        tmp = Path(tmp)
        sys.path.insert(0, str(tmp))
        sides = {}
        for side, tree in zip(SIDES, (args.parent, args.change)):
            (tmp / side).mkdir()
            sides[side] = Side(run, _import_tree(tree, f"ab_{side}", tmp), w, args.seed,
                               tmp / side)
        if sides["parent"].prep.train_tokens != sides["change"].prep.train_tokens:
            sys.exit("error: the two trees cut different training subsets")
        rounds = []
        for r in range(args.rounds + 1):
            rounds.append(_round(sides, SIDES if r % 2 else SIDES[::-1]))
    rounds = rounds[1:]
    print(f"{args.workload}: {args.rounds} rounds, "
          f"{sides['parent'].prep.train_tokens} training tokens per call")
    print("tok/s: median [first quartile, third quartile] per tree; ratio of the medians, "
          "change over parent; wins: rounds in which change was faster")
    for metric in rounds[0]:
        line, medians = f"{metric:<22}", {}
        for s in SIDES:
            lo, medians[s], hi = _quartiles([r[metric][s] for r in rounds])
            line += f"{s} {medians[s]:.0f} [{lo:.0f}, {hi:.0f}]  "
        wins = sum(r[metric]["change"] > r[metric]["parent"] for r in rounds)
        print(f"{line}ratio {medians['change'] / medians['parent']:.3f}  "
              f"wins {wins}/{len(rounds)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
