#!/usr/bin/env python3
"""Time the benchmark's training and CLI calls of two labelrnn trees in one process.

    python3 tools/ab_train.py PARENT CHANGE --workload desk-train --rounds 40

PARENT and CHANGE are source checkouts. Each tree's src/labelrnn is copied
under its own package name and both are imported into this process. Every
round runs each operation once per tree, the two trees in turns, and swaps
which tree goes first each round. The operations and their inputs are those
of perfbench/run.py (read from this script's checkout, never written):
training.train_tagger for irnn fwd, irnn-gru fwd and irnn-deep fwd and bwd,
then training.train_bidirectional on the irnn-deep pair, one epoch each;
then the CLI calls on the workload's tag file: tag --model with the forward
tagging model, tag --fwd-model/--bwd-model with the pair, and eval of the
tag --model output against the file; last, per-sentence models.tag_greedy
calls with the forward tagging model on perfbench's latency sentences, one
pass over them per tree, in turns, read as the pass's median and the tail
percentile that perfbench reports. The tagging models are those that
perfbench's set-up trains through the CLI, or, for a workload without them,
the round's irnn-deep pair. eval runs as many times per round as in
perfbench, the trees in turns, and a round keeps each tree's median call.

The host changes speed in phases that last longer than one benchmark run, so
two separate runs cannot resolve a 10% change; interleaved calls in one
process see the same phases. For each operation it prints the median and
quartiles of each tree's tok/s (ms for the latencies), the ratio of the
medians, and in how many rounds CHANGE was faster. Next to each tree's
value it prints the median count of minor page faults (ru_minflt) of one
call: paper-size speed follows how often a call maps fresh pages, which
depends on the allocator's history in the process as much as on the code.
One warm-up round comes first and is not counted.
"""

import argparse
import importlib
import importlib.util
import resource
import shutil
import statistics
import sys
import tempfile
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
LATENCY = ("tag_ms.p50", "tag_ms.tail")  # lower is better; every other metric is tok/s


def _load_run_py():
    sys.path.insert(0, str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def _measured(call):
    """(call's result, its seconds, the minor page faults during it)."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    result = call()
    seconds = time.perf_counter() - t0
    return result, seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


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
        self.L, self.work, self.ledger, self.tr = L, work, run.Ledger(), run.tr
        self.latency_sents = w.latency_sents
        self.prep = run.setup(L, w, seed, self.ledger, work)
        if self.ledger.failed:
            sys.exit(f"error: perfbench's set-up failed with the tree under {work.name}")
        self.configs = {v: run._config(L, w, v) for v in ("irnn", "irnn-gru", "irnn-deep")}

    def train(self, variant, direction):
        """(model, seconds, page faults) of one train_tagger call."""
        p = self.prep
        (model, _), seconds, faults = _measured(lambda: self.L.training.train_tagger(
            p.train, p.dev, p.vocab, self.configs[variant], variant, direction))
        return model, seconds, faults

    def bidir(self, fwd, bwd):
        """(seconds, page faults) of one train_bidirectional call."""
        p = self.prep
        return _measured(lambda: self.L.training.train_bidirectional(
            fwd, bwd, p.train, p.dev, p.vocab, self.configs["irnn-deep"]))[1:]

    def tag_models(self, fwd, bwd):
        """Paths of the set-up's tagging models, or of fwd and bwd saved."""
        if self.prep.tag_models:
            return self.prep.tag_models
        paths = (str(self.work / "deep.fwd"), str(self.work / "deep.bwd"))
        for model, path in zip((fwd, bwd), paths):
            self.L.models.save_model(model, path)
            self.prep.vocab.save(path + ".vocab")
        return paths

    def latency(self, path):
        """{metric: (ms, page faults per call)} of one models.tag_greedy call
        per latency sentence with the model at path, timed as perfbench
        times them."""
        model = self.L.models.load_model(path)
        vocab = self.L.corpus.Vocabulary.load(path + ".vocab")
        seqs = [self.L.corpus.encode(s, vocab, with_labels=False)
                for s in self.prep.latency_sents[:self.latency_sents]]
        lat, clock = [], time.perf_counter
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for seq in seqs:
            t0 = clock()
            self.L.models.tag_greedy(model, seq)
            lat.append(1000.0 * (clock() - t0))
        faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults) / len(seqs)
        p, _ = self.tr.tail_percentile(len(lat))
        return {"tag_ms.p50": (self.tr.percentile(lat, 50.0), faults),
                "tag_ms.tail": (self.tr.percentile(lat, p), faults)}

    def cli(self, *argv):
        """(seconds, page faults) of one CLI call, timed as perfbench times it."""
        (err, seconds), _, faults = _measured(lambda: self.ledger.cli(self.L, list(argv)))
        if err is None:
            sys.exit(f"error: labelrnn {argv[0]} failed with the tree under {self.work.name}")
        return seconds, faults


def _round(sides, order, eval_repeats):
    """Each operation once per side in the given order, eval eval_repeats
    times; returns {metric: {side: (tok/s, page faults)}}."""
    got, deep = {}, {}
    tokens = sides[order[0]].prep.train_tokens
    for variant in ("irnn", "irnn-gru"):
        got[f"train_tok_s.{variant}"] = {}
        for s in order:
            _, seconds, faults = sides[s].train(variant, "fwd")
            got[f"train_tok_s.{variant}"][s] = (tokens / seconds, faults)
    for s in order:
        deep[s] = (sides[s].train("irnn-deep", "fwd"), sides[s].train("irnn-deep", "bwd"))
    got["train_tok_s.irnn-deep"] = {s: (2 * tokens / (deep[s][0][1] + deep[s][1][1]),
                                        (deep[s][0][2] + deep[s][1][2]) / 2) for s in order}
    got["bidir_train_tok_s"] = {}
    for s in order:
        seconds, faults = sides[s].bidir(deep[s][0][0], deep[s][1][0])
        got["bidir_train_tok_s"][s] = (tokens / seconds, faults)

    models = {s: sides[s].tag_models(deep[s][0][0], deep[s][1][0]) for s in order}
    tag_tokens = sides[order[0]].prep.tag_tokens
    tag_file = {s: sides[s].prep.tag_file for s in order}
    greedy = {s: str(sides[s].work / "greedy.txt") for s in order}
    got["tag_tok_s.greedy"], got["tag_tok_s.bidir"] = {}, {}
    for s in order:
        seconds, faults = sides[s].cli("tag", "--model", models[s][0], "--input", tag_file[s],
                                       "--output", greedy[s])
        got["tag_tok_s.greedy"][s] = (tag_tokens / seconds, faults)
    for s in order:
        seconds, faults = sides[s].cli(
            "tag", "--fwd-model", models[s][0], "--bwd-model", models[s][1], "--input",
            tag_file[s], "--output", str(sides[s].work / "bidir.txt"))
        got["tag_tok_s.bidir"][s] = (tag_tokens / seconds, faults)
    evals = {s: [] for s in order}
    for _ in range(eval_repeats):
        for s in order:
            seconds, faults = sides[s].cli("eval", "--gold", tag_file[s], "--pred", greedy[s],
                                           "--out", str(sides[s].work / "eval.kv"))
            evals[s].append((tag_tokens / seconds, faults))
    got["eval_tok_s"] = {s: tuple(statistics.median(v) for v in zip(*evals[s])) for s in order}
    latency = {s: sides[s].latency(models[s][0]) for s in order}
    for metric in LATENCY:
        got[metric] = {s: latency[s][metric] for s in order}
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
        if any(getattr(sides["parent"].prep, n) != getattr(sides["change"].prep, n)
               for n in ("train_tokens", "tag_tokens")):
            sys.exit("error: the two trees cut different inputs")
        rounds = []
        for r in range(args.rounds + 1):
            rounds.append(_round(sides, SIDES if r % 2 else SIDES[::-1], w.eval_repeats))
    rounds = rounds[1:]
    prep = sides["parent"].prep
    print(f"{args.workload}: {args.rounds} rounds, {prep.train_tokens} training tokens per "
          f"training call, {prep.tag_tokens} tokens per CLI call")
    print("tok/s or ms: median [first quartile, third quartile] per tree, then its median "
          "minor page faults per call; ratio of the medians, change over parent; wins: rounds "
          "in which change was faster")
    for metric in rounds[0]:
        line, medians, f = f"{metric:<22}", {}, ".3f" if metric in LATENCY else ".0f"
        for s in SIDES:
            lo, medians[s], hi = _quartiles([r[metric][s][0] for r in rounds])
            faults = statistics.median(r[metric][s][1] for r in rounds)
            line += f"{s} {medians[s]:{f}} [{lo:{f}}, {hi:{f}}] {faults:.0f} flt  "
        sign = -1 if metric in LATENCY else 1
        wins = sum(sign * r[metric]["change"][0] > sign * r[metric]["parent"][0]
                   for r in rounds)
        print(f"{line}ratio {medians['change'] / medians['parent']:.3f}  "
              f"wins {wins}/{len(rounds)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
