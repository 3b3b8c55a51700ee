#!/usr/bin/env python3
"""Train a fixed matrix of labelrnn models and print one SHA-256 per written file.

Run from the root of a source checkout:

    PYTHONPATH=src python3 tools/train_digest.py

PYTHONPATH picks the labelrnn under test, so this one script can check any
checkout. Two checkouts that train, tag and differentiate bit for bit alike
print the same lines, so a diff of two outputs shows whether a change moved
any trained number.

Everything runs on generate_corpus(40, seed=11), with one BLAS thread:
- desk sizes (embed 24, hidden 48, 7-word window) and paper sizes (embed and
  hidden 200, 11-word window);
- words only, and words with classes and chars; at desk sizes also words
  with classes and chars under scheduled sampling, clipping, L2 on every
  tensor and embeddings frozen in fine-tuning, words with classes and an
  ablated (all-BOL) label context, and words alone and words with classes
  and chars under gru_words_only, which the irnn and irnn-deep variants
  ignore;
- irnn, irnn-gru and irnn-deep, each trained fwd and bwd for two epochs, then
  fine-tuned as a bidirectional pair for one;
- greedy tag of the test and the train split with every fwd and bwd model,
  and bidirectional tag of both with every fine-tuned pair, each scored by
  eval against its split: its --out report and its stdout. The 4-sentence
  test split is one decode group and the 40-sentence train split two, so a
  change in how tag groups sentences shows;
- the gradient-check reports of every fine-tuned pair, on the first test
  sentence;
- a word NNLM and a label NNLM, each pretrained for two epochs at desk
  sizes.
Run manifests hold a timestamp, so they are left out.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from labelrnn import cli  # noqa: E402  (after the BLAS thread settings)
from labelrnn.corpus import Vocabulary, encode, load_column_file  # noqa: E402
from labelrnn.models import VARIANTS, load_model  # noqa: E402
from labelrnn.synthetic import generate_corpus_files  # noqa: E402
from labelrnn.training import bidirectional_gradient_check, gradient_check  # noqa: E402

CORPUS_SIZE, CORPUS_SEED = 40, 11
COMMON = ("epochs_fwd_bwd=2", "epochs_bidir=1", "seed=5")
SCALES = {
    "desk": ("embed_size=24", "hidden_size=48", "hidden_size_all_inputs=48",
             "first_level_size=32", "d_w=3", "lr0=0.2", "dropout_embed=0.1",
             "dropout_hidden=0.2", "lambda_l2=1e-4", "lambda_l2_bidir=1e-4"),
    "paper": ("embed_size=200", "hidden_size=200", "first_level_size=200", "d_w=5"),
}
INPUTS = {"words": (), "classes-chars": ("--use-classes", "--use-chars", "--set", "d_c=1")}
# Input sets trained at desk sizes only.
DESK_INPUTS = {
    "sampled-clipped": INPUTS["classes-chars"] + tuple(
        arg for field in ("predicted_label_prob=0.5", "max_grad_norm=1", "l2_include_all=1",
                          "freeze_embeddings_bidir=1") for arg in ("--set", field)),
    "ablated": ("--use-classes", "--set", "ablate_label_context=1"),
    "gru-words-only": ("--set", "gru_words_only=1"),
    "gru-words-only-cc": INPUTS["classes-chars"] + ("--set", "gru_words_only=1"),
}
GRADIENT_SAMPLES = 5  # coordinates per tensor


def _run(*argv):
    """One CLI command in this process; returns its stdout. Its stderr is
    shown only on failure."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        sys.exit(f"labelrnn {' '.join(map(str, argv))} failed:\n{err.getvalue()}")
    return out.getvalue()


def _tag_and_eval(data, output, *models):
    """Tags the test split with models into output and the train split into
    output.train, then writes eval's --out report of each to <file>.eval.kv
    and its stdout to <file>.eval.txt."""
    for gold, tagged in ((data["test"], output), (data["train"], f"{output}.train")):
        _run("tag", *models, "--input", gold, "--output", tagged)
        printed = _run("eval", "--gold", gold, "--pred", tagged, "--out", f"{tagged}.eval.kv")
        Path(f"{tagged}.eval.txt").write_text(printed, encoding="utf-8")


def _write_gradient_checks(pair, seq, path):
    fwd, bwd = (load_model(p) for p in pair)
    reports = {"fwd": gradient_check(fwd, seq, samples_per_tensor=GRADIENT_SAMPLES),
               "bwd": gradient_check(bwd, seq, samples_per_tensor=GRADIENT_SAMPLES),
               "bidir": bidirectional_gradient_check(fwd, bwd, seq,
                                                     samples_per_tensor=GRADIENT_SAMPLES)}
    with open(path, "w", encoding="utf-8") as fh:
        for kind, report in reports.items():
            fh.writelines(f"{kind} {name} {value!r}\n" for name, value in report.items())


def build(out: Path):
    data = generate_corpus_files(out / "corpus", CORPUS_SIZE, CORPUS_SEED)
    test_sentence = load_column_file(data["test"])[0]
    for target in ("words", "labels"):
        _run("pretrain", "--train", data["train"], "--target", target, "--epochs", 2,
             "--embed-size", 24, "--hidden-size", 48, "--out", out / f"nnlm.{target}.emb")
    for scale, fields in SCALES.items():
        sets = [arg for field in COMMON + fields for arg in ("--set", field)]
        for inputs, flags in (INPUTS | DESK_INPUTS if scale == "desk" else INPUTS).items():
            for variant in VARIANTS:
                base = out / f"{scale}.{inputs}.{variant}"
                common = ("--variant", variant, "--train", data["train"], "--dev", data["dev"],
                          *sets, *flags)
                for direction in ("fwd", "bwd"):
                    model = f"{base}.{direction}"
                    _run("train", *common, "--direction", direction, "--out", model)
                    _tag_and_eval(data, f"{model}.tagged", "--model", model)
                _run("train", *common, "--direction", "bidir", "--fwd-model", f"{base}.fwd",
                     "--bwd-model", f"{base}.bwd", "--out", f"{base}.bidir")
                pair = (f"{base}.bidir.fwd", f"{base}.bidir.bwd")
                _tag_and_eval(data, f"{base}.bidir.tagged", "--fwd-model", pair[0],
                              "--bwd-model", pair[1], "--vocab", f"{base}.bidir.vocab")
                seq = encode(test_sentence, Vocabulary.load(f"{base}.bidir.vocab"))
                _write_gradient_checks(pair, seq, f"{base}.bidir.gradcheck")


def main():
    with tempfile.TemporaryDirectory(prefix="train_digest_") as tmp:
        out = Path(tmp)
        build(out)
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            if path.name.endswith(".manifest.json"):
                continue
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  "
                  f"{path.relative_to(out).as_posix()}")


if __name__ == "__main__":
    main()
