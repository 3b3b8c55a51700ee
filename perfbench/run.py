#!/usr/bin/env python3
"""labelrnn benchmark: one command, two workloads, a traced per-layer run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 55 --trace 0

The workload's inputs come only from labelrnn's synthetic corpus generator,
seeded by --seed. Each run is a single-process closed loop: one caller, one
sentence or file at a time. The timed part repeats a fixed round of
operations until --seconds is spent and reports, per metric, the sample at
p85 counted from the best end: the host's speed changes in phases, and its
slow phase is the one nearly every run sees.
With --trace 1 it alternates untraced and traced rounds and reports per-layer
self time and call counts instead. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import tracer as tr

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7  # set-ups per untraced run, spread over the run
CORPUS_SIZE = 2000  # training sentences generated per set-up
# Model initialisation and dropout use this fixed seed, so --seed varies only
# the generated inputs.
TRAIN_SEED = 5

# The acceptance configuration (embed 24, hidden 48, first level 32, 7-word
# window), one epoch per training call.
DESK = dict(embed_size=24, hidden_size=48, first_level_size=32, d_w=3, d_l=5,
            lr0=0.2, dropout_embed=0.1, dropout_hidden=0.2, lambda_l2=1e-4,
            lambda_l2_bidir=1e-4, epochs_fwd_bwd=1, epochs_bidir=1, seed=TRAIN_SEED)
# The paper's sizes: embed and hidden 200, first level 200, 11-word window.
PAPER = dict(embed_size=200, hidden_size=200, first_level_size=200, d_w=5, d_l=5,
             epochs_fwd_bwd=1, epochs_bidir=1, seed=TRAIN_SEED)
DESK_NNLM = ("--embed-size", "24", "--hidden-size", "48")


@dataclass(frozen=True)
class Workload:
    config: dict            # TrainConfig fields for every variant
    deep: dict              # extra TrainConfig fields for irnn-deep
    pretrain_flags: tuple   # CLI pretrain flags beyond its defaults
    # Inputs are sized in tokens: each is the shortest run of whole sentences,
    # in corpus order, with at least that many.
    train_tok: int          # training tokens per training call
    dev_tok: int            # dev tokens scored after each epoch
    pretrain_tok: int
    tag_tok: int            # tokens in the file CLI tag labels
    latency_sents: int      # per-sentence tag_greedy calls per round
    eval_repeats: int       # CLI eval calls per round
    bidir_check_sents: int  # sentences compared against library tag_bidirectional
    tag_f1_floor: float     # minimum chunk F1 (%) of CLI tag --model output
    setup_train_sents: int = 0  # > 0: CLI trains the tagging models in set-up


# Why each workload exists is in README.md; the short form is in BENCHMARK.json.
WORKLOADS = {
    "desk-train": Workload(
        config=DESK, deep={}, pretrain_flags=DESK_NNLM, train_tok=680, dev_tok=165,
        pretrain_tok=1700, tag_tok=3400, latency_sents=300, eval_repeats=4,
        bidir_check_sents=100, tag_f1_floor=60.0, setup_train_sents=200),
    "paper-train": Workload(
        config=PAPER, deep=dict(use_classes=True, use_chars=True, d_c=1), pretrain_flags=(),
        train_tok=45, dev_tok=22, pretrain_tok=220, tag_tok=170, latency_sents=100,
        eval_repeats=30, bidir_check_sents=2, tag_f1_floor=None),
}

# name: (unit, better)
END_TO_END = {
    "train_tok_s.irnn": ("tok/s", "higher"), "train_tok_s.irnn-gru": ("tok/s", "higher"),
    "train_tok_s.irnn-deep": ("tok/s", "higher"), "bidir_train_tok_s": ("tok/s", "higher"),
    "pretrain_tok_s": ("tok/s", "higher"), "tag_tok_s.greedy": ("tok/s", "higher"),
    "tag_tok_s.bidir": ("tok/s", "higher"), "tag_ms.p50": ("ms", "lower"),
    "tag_ms.tail": ("ms", "lower"), "eval_tok_s": ("tok/s", "higher"),
    "setup_s": ("s", "lower"), "peak_rss_mb": ("MB", "lower"),
}

TRACED = (
    "layers.embed_concat", "layers.embed_concat_backward", "layers.relu_hidden_forward",
    "layers.relu_hidden_backward", "layers.gru_forward", "layers.gru_backward",
    "layers.char_conv_forward", "layers.char_conv_backward", "layers.output_forward",
    "layers.output_backward",
    "mathcore.dropout_mask", "mathcore.softmax",
    "models.position_forward", "models.position_backward", "models.make_position_masks",
    "models.Grads.add", "models.Grads.add_rows", "models.Grads.scale", "models.tag_greedy",
    "models.tag_bidirectional", "models.combine_bidirectional",
    "training.train_tagger", "training.train_bidirectional", "training.SgdMomentum.step",
    "pretrain.train_nnlm", "pretrain.nnlm_forward", "pretrain.nnlm_backward",
    "corpus.load_column_file", "corpus.encode", "corpus.decode_labels",
    "corpus.write_column_file",
    "metrics.evaluate",
    "cli.cmd_tag", "cli.cmd_eval",
    "synthetic.generate_corpus",
)


def _step_bytes(args):
    grads = args[1]
    dense = sum(g.nbytes for g in grads.dense.values())
    return dense + sum(v.nbytes for bucket in grads.rows.values() for v in bucket.values())


# Bytes computed from the sizes of the arrays passed in, not measured traffic.
BYTE_COUNTS = {
    "models.Grads.add": lambda args: args[2].nbytes,
    "training.SgdMomentum.step": _step_bytes,
}
DEV_PASS_OUTER = ("training.train_tagger", "training.train_bidirectional")
DEV_PASS_INNER = ("models.tag_greedy", "models.tag_bidirectional")


def per_layer_units():
    units = {}
    for name in TRACED:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    for name in BYTE_COUNTS:
        units[f"{name}.bytes"] = "bytes_computed"
    units["training.dev_pass_share"] = "ratio"
    units["trace.overhead"] = "s"
    return units


# -- environment ------------------------------------------------------------

def limit_blas_threads():
    """One BLAS/OpenMP thread unless the environment sets it: the workloads
    are single-caller loops of small products, and a second thread only adds
    contention with whatever else shares the machine."""
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")


def git_commit():
    """HEAD of the checkout read from .git, or None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "labelrnn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


# -- bookkeeping ---------------------------------------------------------------

class Ledger:
    """Counts operations and checks; every failure is explained on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.lowest_f1 = {}

    def check(self, what, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def op(self, what, fn):
        """Run one operation; returns (result, seconds) or (None, None)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn()
        except Exception:  # a failed operation is counted, and the run goes on
            self.failed += 1
            print(f"operation failed: {what}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None, None
        return result, time.perf_counter() - start

    def cli(self, L, argv):
        """One CLI call; it fails unless it exits 0. Returns (stderr, seconds)."""
        out, err = io.StringIO(), io.StringIO()

        def call():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = L.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            if code != 0:
                raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
            return err.getvalue()

        return self.op(f"labelrnn {argv[0]}", call)


class Labelrnn:
    """The package's modules, looked up by attribute at every call so that
    traced bindings take effect."""

    def __init__(self):
        from labelrnn import cli, corpus, models, synthetic, training

        self.cli, self.corpus, self.models = cli, corpus, models
        self.synthetic, self.training = synthetic, training


# -- set-up --------------------------------------------------------------------

@dataclass
class Prepared:
    dir: Path
    vocab: object
    train: list
    dev: list
    train_tokens: int
    pretrain_file: str
    pretrain_tokens: int
    tag_file: str
    tag_tokens: int
    latency_sents: list       # starts with the sentences of tag_file
    tag_models: tuple = None  # (fwd path, bwd path) when trained in set-up


def _first_tokens(sentences, budget):
    """The shortest prefix of sentences with at least budget tokens."""
    total = 0
    for n, sentence in enumerate(sentences, 1):
        total += len(sentence)
        if total >= budget:
            return sentences[:n]
    raise ValueError(f"corpus has fewer than {budget} tokens")


def _write_subset(L, sentences, path):
    L.corpus.write_column_file(sentences, path)
    return str(path), sum(len(s) for s in sentences)


def setup(L, w, seed, ledger, parent):
    """Generate the corpus and the files each operation reads; train the
    tagging models when the workload says so."""
    d = Path(tempfile.mkdtemp(prefix="setup-", dir=parent))
    paths = L.synthetic.generate_corpus_files(str(d / "corpus"), CORPUS_SIZE, seed)
    train = L.corpus.load_column_file(paths["train"])
    dev = L.corpus.load_column_file(paths["dev"])
    vocab = L.corpus.build_vocabulary(train)
    train_part = _first_tokens(train, w.train_tok)
    train_seqs = [L.corpus.encode(s, vocab) for s in train_part]
    dev_seqs = [L.corpus.encode(s, vocab) for s in _first_tokens(dev, w.dev_tok)]
    pre_part = _first_tokens(train, w.pretrain_tok)
    pre_file, pre_tokens = _write_subset(L, pre_part, d / "pretrain.txt")
    # Tag and latency input: sentences that no operation trains on.
    held_out = train[max(len(train_part), len(pre_part), w.setup_train_sents):]
    tag_part = _first_tokens(held_out, w.tag_tok)
    tag_file, tag_tokens = _write_subset(L, tag_part, d / "tag.txt")
    prep = Prepared(d, vocab, train_seqs, dev_seqs, sum(len(s) for s in train_seqs),
                    pre_file, pre_tokens, tag_file, tag_tokens,
                    held_out[:max(len(tag_part), w.latency_sents)])
    if w.setup_train_sents:
        model_train, _ = _write_subset(L, train[:w.setup_train_sents], d / "model_train.txt")
        flags = [x for k, v in {**w.config, **w.deep}.items() for x in ("--set", f"{k}={v}")]
        for direction in ("fwd", "bwd"):
            ledger.cli(L, ["train", "--variant", "irnn-deep", "--direction", direction,
                           "--train", model_train, "--dev", paths["dev"],
                           "--out", str(d / f"deep.{direction}")] + flags)
        prep.tag_models = (str(d / "deep.fwd"), str(d / "deep.bwd"))
    return prep


# -- one round -------------------------------------------------------------

def _config(L, w, variant):
    fields = dict(w.config, **(w.deep if variant == "irnn-deep" else {}))
    return L.training.TrainConfig(**fields)


def _note_f1(ledger, what, f1):
    ledger.lowest_f1[what] = min(f1, ledger.lowest_f1.get(what, f1))


def _check_log(ledger, what, log):
    """Training calls are throughput units of one epoch on a small subset, so
    their dev F1 is recorded, not held to a floor; a diverged run is caught
    by its loss."""
    ledger.check(f"{what}: finite training loss",
                 all(math.isfinite(e.train_loss) for e in log))
    _note_f1(ledger, f"{what} best dev", max(e.dev_f1 for e in log))


def _train(L, w, prep, ledger, variant, direction):
    result, dt = ledger.op(f"train {variant} {direction}", lambda: L.training.train_tagger(
        prep.train, prep.dev, prep.vocab, _config(L, w, variant), variant, direction))
    if result is None:
        return None, None
    _check_log(ledger, f"train {variant} {direction}", result[1])
    return result[0], dt


def _labels_of(L, path):
    return [s.labels for s in L.corpus.load_column_file(path)]


def run_round(L, w, prep, ledger, rd):
    """One rep of every operation; returns {metric: value or list of values}
    for this round."""
    got = {}
    for variant in ("irnn", "irnn-gru"):
        _, dt = _train(L, w, prep, ledger, variant, "fwd")
        if dt:
            got[f"train_tok_s.{variant}"] = prep.train_tokens / dt
    fwd, dt_f = _train(L, w, prep, ledger, "irnn-deep", "fwd")
    bwd, dt_b = _train(L, w, prep, ledger, "irnn-deep", "bwd")
    if fwd is None or bwd is None:
        return got
    got["train_tok_s.irnn-deep"] = 2 * prep.train_tokens / (dt_f + dt_b)

    cfg = _config(L, w, "irnn-deep")
    result, dt = ledger.op("train bidir", lambda: L.training.train_bidirectional(
        fwd, bwd, prep.train, prep.dev, prep.vocab, cfg))
    if result is not None:
        got["bidir_train_tok_s"] = prep.train_tokens / dt
        _check_log(ledger, "train bidir", result[2])

    err, dt = ledger.cli(L, ["pretrain", "--train", prep.pretrain_file, "--target", "words",
                             "--epochs", "1", "--seed", "1", "--out", str(rd / "words.emb"),
                             *w.pretrain_flags])
    if err is not None:
        got["pretrain_tok_s"] = prep.pretrain_tokens / dt
        losses = [line for line in err.splitlines() if " loss " in line]
        ledger.check("pretrain: finite loss", len(losses) == 1 and all(
            math.isfinite(float(x)) for x in losses[0].split(" loss ")[1].split(" -> ")))

    if prep.tag_models:
        fpath, bpath = prep.tag_models
    else:
        fpath, bpath = str(rd / "deep.fwd"), str(rd / "deep.bwd")
        for model, path in ((fwd, fpath), (bwd, bpath)):
            L.models.save_model(model, path)
            prep.vocab.save(path + ".vocab")
    greedy_out, bidir_out = str(rd / "greedy.txt"), str(rd / "bidir.txt")
    err, dt = ledger.cli(L, ["tag", "--model", fpath, "--input", prep.tag_file,
                             "--output", greedy_out])
    if err is None:
        return got
    got["tag_tok_s.greedy"] = prep.tag_tokens / dt
    err, dt = ledger.cli(L, ["tag", "--fwd-model", fpath, "--bwd-model", bpath,
                             "--input", prep.tag_file, "--output", bidir_out])
    if err is None:
        return got
    got["tag_tok_s.bidir"] = prep.tag_tokens / dt

    # Per-sentence latency through the library, on the models CLI tag loaded;
    # the same calls check that CLI labels are bit-identical to the library's.
    fm, bm = L.models.load_model(fpath), L.models.load_model(bpath)
    vocab = L.corpus.Vocabulary.load(fpath + ".vocab")
    seqs = [L.corpus.encode(s, vocab, with_labels=False) for s in prep.latency_sents]
    cli_greedy, cli_bidir = _labels_of(L, greedy_out), _labels_of(L, bidir_out)
    lat, same = [], True
    clock = time.perf_counter
    for i, seq in enumerate(seqs[:w.latency_sents]):
        t0 = clock()
        out = L.models.tag_greedy(fm, seq)
        lat.append(1000.0 * (clock() - t0))
        if i < len(cli_greedy):
            same = same and L.corpus.decode_labels(out.labels, vocab) == cli_greedy[i]
    ledger.check("CLI tag --model labels equal library tag_greedy", same)
    same = all(L.corpus.decode_labels(L.models.tag_bidirectional(fm, bm, seq).labels, vocab)
               == cli_bidir[i] for i, seq in enumerate(seqs[:w.bidir_check_sents]))
    ledger.check("CLI tag --fwd-model/--bwd-model labels equal library tag_bidirectional", same)
    p, _ = tr.tail_percentile(len(lat))
    got["tag_ms.p50"] = tr.percentile(lat, 50.0)
    got["tag_ms.tail"] = tr.percentile(lat, p)

    # One sample per call: a call is short, and a round holds several.
    got["eval_tok_s"] = []
    for _ in range(w.eval_repeats):
        err, dt = ledger.cli(L, ["eval", "--gold", prep.tag_file, "--pred", greedy_out,
                                 "--out", str(rd / "eval.kv")])
        if err is None:
            return got
        got["eval_tok_s"].append(prep.tag_tokens / dt)
    kv = dict(line.split("=", 1) for line in (rd / "eval.kv").read_text().split())
    f1 = float(kv["f1"])
    _note_f1(ledger, "CLI eval of CLI tag --model output", f1)
    # No floor on paper-train: one epoch on four sentences does not teach a
    # paper-size model to label chunks.
    if w.tag_f1_floor is not None:
        ledger.check(f"CLI tag --model output: F1 {f1:.2f} above floor {w.tag_f1_floor}",
                     f1 > w.tag_f1_floor)
    return got


# -- the two modes -----------------------------------------------------------------

def _round(L, w, prep, ledger, work):
    rd = Path(tempfile.mkdtemp(prefix="round-", dir=work))
    try:
        return run_round(L, w, prep, ledger, rd)
    finally:
        shutil.rmtree(rd)


def _round_with_setup(L, w, seed, ledger, work):
    prep = setup(L, w, seed, ledger, work)
    _round(L, w, prep, ledger, work)
    shutil.rmtree(prep.dir)


def measure(L, w, args, ledger, work):
    """Untraced run: each round-timed metric is the slow-side round
    (tracer.slow_side), and setup_s the slow-side set-up of SETUP_REPEATS
    spread evenly over the run."""
    times = []

    def timed_setup():
        t0 = time.perf_counter()
        prep = setup(L, w, args.seed, ledger, work)
        times.append(time.perf_counter() - t0)
        return prep

    # The first round is a warm-up inside the measured window; its samples are
    # dropped so that first-call costs (allocator growth, lazy imports, page
    # faults on new arrays) stay out of the results.
    rounds = []
    start = time.perf_counter()
    prep = timed_setup()
    while True:
        t0 = time.perf_counter()
        rounds.append(_round(L, w, prep, ledger, work))
        if len(times) < SETUP_REPEATS * (time.perf_counter() - start) / args.seconds:
            shutil.rmtree(timed_setup().dir)
        now = time.perf_counter()
        if now - start + (now - t0) > args.seconds:
            break
    while len(times) < SETUP_REPEATS:
        shutil.rmtree(timed_setup().dir)
    rounds = rounds[1:] or rounds
    values = {"setup_s": tr.slow_side(times, "lower")}
    for name, (_, better) in END_TO_END.items():
        samples = [x for r in rounds if name in r
                   for x in (r[name] if isinstance(r[name], list) else [r[name]])]
        if samples:
            values[name] = tr.slow_side(samples, better)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    p, beyond = tr.tail_percentile(w.latency_sents)
    details = {
        "rounds": len(rounds),
        "round_samples": rounds,
        "setup_samples_s": times,
        "tag_ms.tail": f"p{p:g} of {w.latency_sents} per-sentence tag_greedy calls "
                       f"per round ({beyond} beyond it), p85 of {len(rounds)} rounds from the best",
        "tokens": {"train": prep.train_tokens, "pretrain": prep.pretrain_tokens,
                   "tag": prep.tag_tokens},
    }
    return {n: (values[n], END_TO_END[n][0]) for n in END_TO_END if n in values}, details


def trace(L, w, args, ledger, work):
    """Traced run: after a warm-up round, alternate untraced and traced
    rounds (set-up included) and report per-layer self time and calls per
    traced round."""
    tracer = tr.Tracer(time.perf_counter)
    spans, overheads, bytes_per_round = [], [], []
    start = time.perf_counter()
    _round_with_setup(L, w, args.seed, ledger, work)
    while True:
        t0 = time.perf_counter()
        _round_with_setup(L, w, args.seed, ledger, work)
        untraced = time.perf_counter() - t0
        before = dict(tracer.counters)
        tracer.install("labelrnn", TRACED, BYTE_COUNTS)
        lo = len(tracer)
        t1 = time.perf_counter()
        try:
            _round_with_setup(L, w, args.seed, ledger, work)
        finally:
            traced = time.perf_counter() - t1
            tracer.uninstall()
        spans.append((lo, len(tracer)))
        overheads.append(traced - untraced)
        bytes_per_round.append({k: v - before.get(k, 0) for k, v in tracer.counters.items()})
        now = time.perf_counter()
        if now - start + (now - t0) > args.seconds:
            break

    per_round = []
    for lo, hi in spans:
        parent = [p - lo if p >= 0 else -1 for p in tracer.parent[lo:hi]]
        selfs = tr.self_times(tracer.start[lo:hi], tracer.end[lo:hi], parent)
        per_round.append((tr.aggregate(tracer, lo, hi, selfs),
                          tr.nested_share(tracer, lo, hi, DEV_PASS_OUTER, DEV_PASS_INNER)))
    units = per_layer_units()
    values = {}
    for name in TRACED:
        totals = [a.get(name, (0.0, 0)) for a, _ in per_round]
        values[f"{name}.self_s"] = statistics.median(t[0] for t in totals)
        values[f"{name}.calls"] = statistics.median(t[1] for t in totals)
    for name in BYTE_COUNTS:
        values[f"{name}.bytes"] = statistics.median([b.get(name, 0) for b in bytes_per_round])
    values["training.dev_pass_share"] = statistics.median([share for _, share in per_round])
    values["trace.overhead"] = statistics.median(overheads)
    save_spans(tracer, spans, OUT_DIR / f"{args.workload}-seed{args.seed}.spans.npz")
    details = {"traced_rounds": len(spans), "spans": len(tracer),
               "overhead_s_per_round": overheads}
    return {n: (values[n], units[n]) for n in units}, details


def save_spans(tracer, rounds, path):
    import numpy as np

    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path, names=np.array(tracer.names), name_id=np.frombuffer(tracer.name_id, np.int32),
        parent=np.frombuffer(tracer.parent, np.int32),
        start=np.frombuffer(tracer.start, np.float64), end=np.frombuffer(tracer.end, np.float64),
        rounds=np.array(rounds, dtype=np.int64))


# -- entry point ------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "labelrnn" / "__init__.py").is_file():
        print(f"error: no labelrnn sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    limit_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    L = Labelrnn()
    w = WORKLOADS[args.workload]
    ledger = Ledger()
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        mode = trace if args.trace else measure
        metrics, details = mode(L, w, args, ledger, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORK_DIR.rmdir()
    expected = per_layer_units() if args.trace else END_TO_END
    missing = [n for n in expected if n not in metrics]
    ledger.check(f"every metric measured (missing: {missing})", not missing)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    env = environment()
    OUT_DIR.mkdir(exist_ok=True)
    details["lowest_f1"] = ledger.lowest_f1
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "details": details, "result": result}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")
    print("# environment " + json.dumps(env))
    print("# details " + json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
