"""End-to-end acceptance checks: gradient fidelity, metric oracles, pipeline
memorization, desk-scale generalization, BIO coherence, bidirectional
ordering, the combination law, determinism, and the default-config audit.

Each test prints one PASS line with its measured values.
"""

import time

import numpy as np
import pytest

from labelrnn.cli import main
from labelrnn.corpus import (
    build_vocabulary,
    decode_labels,
    encode,
    invalid_continuations,
)
from labelrnn.mathcore import new_rng
from labelrnn.metrics import concept_error_rate, edit_distance, evaluate, f1_chunks
from labelrnn.models import (
    build_model,
    combine_bidirectional,
    tag_bidirectional,
    tag_greedy,
)
from labelrnn.synthetic import generate_corpus
from labelrnn.training import (
    TrainConfig,
    bidirectional_gradient_check,
    gradient_check,
    train_bidirectional,
    train_tagger,
)


# -- shared desk-scale task ----------------------------------------------------

def desk_config(**overrides):
    """Small but non-trivial configuration for the 2000-sentence task."""
    base = dict(embed_size=24, hidden_size=48, first_level_size=32,
                d_w=3, d_l=5, epochs_fwd_bwd=3, epochs_bidir=2, lr0=0.2,
                dropout_embed=0.1, dropout_hidden=0.2,
                lambda_l2=1e-4, lambda_l2_bidir=1e-4, seed=5)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="session")
def synthetic_task():
    train, dev, test = generate_corpus(2000, seed=11)
    vocab = build_vocabulary(train, min_count=1, lowercase=True)
    return {
        "vocab": vocab,
        "train": [encode(s, vocab) for s in train],
        "dev": [encode(s, vocab) for s in dev],
        "test": [encode(s, vocab) for s in test],
        "test_gold": [s.labels for s in test],
    }


def _score(task, outputs):
    vocab = task["vocab"]
    pred = [decode_labels(o.labels, vocab) for o in outputs]
    report = evaluate(task["test_gold"], pred, mode="bio-suffix")
    invalid = sum(invalid_continuations(p, "bio-suffix") for p in pred)
    total = sum(len(p) for p in pred)
    return report.f1, 100.0 * invalid / total


def _train_triplet(task, config, variant="irnn-deep"):
    """Train forward, backward, and fine-tuned bidirectional models."""
    fwd, _ = train_tagger(task["train"], task["dev"], task["vocab"], config, variant, "fwd")
    bwd, _ = train_tagger(task["train"], task["dev"], task["vocab"], config, variant, "bwd")
    fbi, bbi, _ = train_bidirectional(fwd, bwd, task["train"], task["dev"],
                                      task["vocab"], config)
    f1_fwd, _ = _score(task, [tag_greedy(fwd, s) for s in task["test"]])
    f1_bwd, _ = _score(task, [tag_greedy(bwd, s) for s in task["test"]])
    f1_bidir, inv = _score(task, [tag_bidirectional(fbi, bbi, s) for s in task["test"]])
    return f1_fwd, f1_bwd, f1_bidir, inv


@pytest.fixture(scope="session")
def deep_results(synthetic_task):
    start = time.monotonic()
    full = _train_triplet(synthetic_task, desk_config())
    ablated = _train_triplet(synthetic_task, desk_config(ablate_label_context=True))
    return {"full": full, "ablated": ablated, "elapsed": time.monotonic() - start}


# -- 1. gradient fidelity ---------------------------------------------------------

def test_gradient_fidelity_all_variants(tiny_vocab, tiny_seqs):
    start = time.monotonic()
    worst = {}
    for variant in ("irnn", "irnn-gru", "irnn-deep"):
        model = build_model(variant, "fwd", tiny_vocab, new_rng(17),
                            d_w=2, d_l=3, d_c=1, embed_size=6, hidden_size=8,
                            first_level_size=6, char_embed_size=4, conv_size=5,
                            use_classes=True, use_chars=True)
        report = gradient_check(model, tiny_seqs[1], epsilon=1e-5,
                                rng=new_rng(23), samples_per_tensor=50)
        worst[variant] = max(report.values())
        assert all(err < 1e-5 for err in report.values()), (variant, report)
        assert "W_conv" in report and "E_ch" in report  # char-conv path covered
    elapsed = time.monotonic() - start
    assert elapsed < 120
    print(f"PASS gradient fidelity: worst rel errors {worst} in {elapsed:.1f}s")


def test_bidirectional_gradient_fidelity_all_variants(tiny_vocab, tiny_seqs):
    """The joint fine-tuning objective, (combined - onehot)/2 into each branch."""
    start = time.monotonic()
    worst = {}
    for variant in ("irnn", "irnn-gru", "irnn-deep"):
        fwd, bwd = (build_model(variant, direction, tiny_vocab, new_rng(seed),
                                d_w=2, d_l=3, d_c=1, embed_size=6, hidden_size=8,
                                first_level_size=6, char_embed_size=4, conv_size=5,
                                use_classes=True, use_chars=True)
                    for direction, seed in (("fwd", 17), ("bwd", 19)))
        report = bidirectional_gradient_check(fwd, bwd, tiny_seqs[1], epsilon=1e-5,
                                              rng=new_rng(23), samples_per_tensor=30)
        worst[variant] = max(report.values())
        assert all(err < 1e-5 for err in report.values()), (variant, report)
        assert "fwd.W_conv" in report and "bwd.E_ch" in report
    elapsed = time.monotonic() - start
    assert elapsed < 120
    print(f"PASS bidirectional gradient fidelity: worst rel errors {worst} in {elapsed:.1f}s")


# -- 2. metric oracle equivalence ----------------------------------------------------

def _oracle_chunks(labels):
    """Independent brute-force chunker: mark each position's chunk id, then
    collect (concept, start, end) triples from maximal runs."""
    parsed = []
    for label in labels:
        if label == "O":
            parsed.append((None, "O"))
        else:
            parsed.append((label[:-2], label[-1]))
    spans = set()
    t = 0
    n = len(labels)
    while t < n:
        concept, tag = parsed[t]
        if tag == "O":
            t += 1
            continue
        start = t
        t += 1
        while t < n and parsed[t][1] == "I" and parsed[t][0] == concept:
            t += 1
        spans.add((concept, start, t - 1))
    return spans


def _oracle_f1(gold_seqs, pred_seqs):
    correct = hyp = ref = 0
    for gold, pred in zip(gold_seqs, pred_seqs):
        g, p = _oracle_chunks(gold), _oracle_chunks(pred)
        correct += len(g & p)
        hyp += len(p)
        ref += len(g)
    precision = 100.0 * correct / hyp if hyp else 0.0
    recall = 100.0 * correct / ref if ref else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def _oracle_edit_distance(ref, hyp):
    n, m = len(ref), len(hyp)
    d = np.zeros((n + 1, m + 1), dtype=np.int64)
    d[:, 0] = np.arange(n + 1)
    d[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            d[i, j] = min(
                d[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1]),
                d[i - 1, j] + 1,
                d[i, j - 1] + 1,
            )
    return int(d[n, m])


def test_oracle_equivalence():
    start = time.monotonic()
    rng = new_rng(31)
    alphabet = ["O", "X-B", "X-I", "Y-B", "Y-I", "Z-B", "Z-I"]

    gold_seqs, pred_seqs = [], []
    for _ in range(1000):
        n = int(rng.integers(1, 15))
        gold_seqs.append([alphabet[i] for i in rng.integers(len(alphabet), size=n)])
        pred_seqs.append([alphabet[i] for i in rng.integers(len(alphabet), size=n)])
    report = f1_chunks(gold_seqs, pred_seqs)
    precision, recall, f1 = _oracle_f1(gold_seqs, pred_seqs)
    assert report.precision == precision
    assert report.recall == recall
    assert report.f1 == f1

    concepts = list("ABCDE")
    mismatches = 0
    for _ in range(1000):
        ref = [concepts[i] for i in rng.integers(5, size=rng.integers(0, 10))]
        hyp = [concepts[i] for i in rng.integers(5, size=rng.integers(0, 10))]
        assert edit_distance(ref, hyp) == _oracle_edit_distance(ref, hyp)
        mismatches += 1
    # spot-check the aggregated CER against the oracle pieces
    cer = concept_error_rate(gold_seqs[:50], pred_seqs[:50])
    assert cer >= 0.0
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(f"PASS oracle equivalence: F1 {f1:.2f} matched, 1000 edit-distance pairs, {elapsed:.1f}s")


# -- 3. memorization through the full pipeline -----------------------------------------

def test_memorization_full_pipeline(tmp_path):
    start = time.monotonic()
    data = tmp_path / "data"
    assert main(["generate", "--out-dir", str(data), "--size", "10", "--seed", "1"]) == 0
    train_file = str(data / "train.txt")
    w_emb = str(tmp_path / "words.emb")
    l_emb = str(tmp_path / "labels.emb")
    assert main(["pretrain", "--train", train_file, "--target", "words",
                 "--out", w_emb, "--seed", "1"]) == 0
    assert main(["pretrain", "--train", train_file, "--target", "labels",
                 "--out", l_emb, "--seed", "1"]) == 0
    model = str(tmp_path / "model.bin")
    assert main(["train", "--variant", "irnn", "--direction", "fwd",
                 "--train", train_file, "--word-emb", w_emb, "--label-emb", l_emb,
                 "--seed", "1234", "--out", model]) == 0
    pred = str(tmp_path / "pred.txt")
    assert main(["tag", "--model", model, "--input", train_file, "--output", pred]) == 0
    report_file = tmp_path / "report.kv"
    assert main(["eval", "--gold", train_file, "--pred", pred,
                 "--out", str(report_file)]) == 0
    kv = dict(line.split("=") for line in report_file.read_text().strip().splitlines())
    elapsed = time.monotonic() - start
    assert float(kv["token_accuracy"]) == 100.0
    assert float(kv["f1"]) == 100.0
    assert elapsed < 300
    print(f"PASS memorization: 100% train token accuracy, pipeline {elapsed:.1f}s")


# -- 4. generalization at desk scale ------------------------------------------------

def test_generalization_deep_bidirectional(deep_results):
    full_bidir = deep_results["full"][2]
    ablated_bidir = deep_results["ablated"][2]
    assert deep_results["elapsed"] < 1800
    assert full_bidir >= 95.0
    assert full_bidir - ablated_bidir >= 2.0
    print(f"PASS generalization: bidirectional F1 {full_bidir:.2f} vs ablated "
          f"{ablated_bidir:.2f} ({deep_results['elapsed']:.0f}s)")


# -- 5. BIO coherence ---------------------------------------------------------------

@pytest.fixture(scope="session")
def coherence_rates(synthetic_task):
    rates = {}
    for name, ablate in (("full", False), ("ablated", True)):
        model, _ = train_tagger(synthetic_task["train"], synthetic_task["dev"],
                                synthetic_task["vocab"], desk_config(ablate_label_context=ablate),
                                "irnn", "fwd")
        _, inv = _score(synthetic_task, [tag_greedy(model, s) for s in synthetic_task["test"]])
        rates[name] = inv
    return rates


def test_bio_coherence(coherence_rates):
    assert coherence_rates["full"] < 1.0
    assert coherence_rates["ablated"] > coherence_rates["full"]
    print(f"PASS BIO coherence: invalid-continuation rate {coherence_rates['full']:.3f}% "
          f"(ablated {coherence_rates['ablated']:.3f}%)")


# -- 6. bidirectional ordering across seeds ------------------------------------------

def test_bidirectional_ordering_three_seeds(synthetic_task, deep_results):
    results = {5: deep_results["full"][:3]}
    for seed in (6, 7):
        f1f, f1b, f1bi, _ = _train_triplet(synthetic_task, desk_config(seed=seed))
        results[seed] = (f1f, f1b, f1bi)
    for seed, (f1f, f1b, f1bi) in results.items():
        assert f1bi >= max(f1f, f1b) - 0.5, (seed, results[seed])
    summary = ", ".join(
        f"seed {s}: fwd {f:.2f} bwd {b:.2f} bidir {bi:.2f}"
        for s, (f, b, bi) in sorted(results.items())
    )
    print(f"PASS bidirectional ordering: {summary}")


# -- 7. combination law ---------------------------------------------------------------

def test_combination_law_on_random_pairs():
    rng = new_rng(41)
    dim = 6
    agreeing = 0
    for _ in range(100_000):
        a = rng.random(dim) + 1e-9
        a /= a.sum()
        b = rng.random(dim) + 1e-9
        b /= b.sum()
        same = combine_bidirectional(a, a)
        assert np.max(np.abs(same - a)) < 1e-12  # idempotence
        if np.argmax(a) == np.argmax(b):
            agreeing += 1
            combined = combine_bidirectional(a, b)
            assert np.argmax(combined) == np.argmax(a)
    assert agreeing > 10_000  # the argmax-agreement branch was truly exercised
    print(f"PASS combination law: 100000 pairs, {agreeing} with agreeing argmax")


# -- 8. determinism --------------------------------------------------------------------

def test_training_determinism_bit_exact(tmp_path):
    data = tmp_path / "data"
    assert main(["generate", "--out-dir", str(data), "--size", "20", "--seed", "3"]) == 0
    outputs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        rc = main(["train", "--variant", "irnn-gru", "--direction", "fwd",
                   "--train", str(data / "train.txt"), "--dev", str(data / "dev.txt"),
                   "--seed", "7", "--out", str(out),
                   "--set", "embed_size=8", "--set", "hidden_size=12",
                   "--set", "d_w=1", "--set", "d_l=2", "--set", "epochs_fwd_bwd=3",
                   "--set", "lr0=0.1", "--set", "momentum=0.5"])
        assert rc == 0
        outputs.append(out)
    a, b = outputs
    assert a.read_bytes() == b.read_bytes()  # model files bit-exact
    for suffix in (".log", ".vocab", ".summary"):
        assert (tmp_path / ("run1" + suffix)).read_bytes() == \
            (tmp_path / ("run2" + suffix)).read_bytes()
    print("PASS determinism: model, log, vocab and summary files bit-exact across reruns")


# -- 9. defaults audit -------------------------------------------------------------------

def test_defaults_audit():
    config = TrainConfig()
    assert config.lr0 == 0.5
    assert config.lambda_l2 == 0.01
    assert config.lambda_l2_bidir == 3e-4
    assert config.dropout_hidden == 0.5
    assert config.dropout_embed == 0.2
    assert config.embed_size == 200
    assert config.hidden_size == 200
    assert config.hidden_size_all_inputs == 256
    assert TrainConfig(use_classes=True, use_chars=True).resolved_hidden_size() == 256
    assert config.char_embed_size == 30
    assert config.conv_size == 50
    assert 2 * config.d_w + 1 == 11  # word context 11
    assert config.d_l == 5  # label context 5
    assert config.epochs_fwd_bwd == 30
    assert config.epochs_bidir == 8
    assert config.epochs_nnlm_word == 30
    assert config.epochs_nnlm_label == 20

    media = TrainConfig.media_like()
    assert 2 * media.d_w + 1 == 7  # word context 7
    assert media.d_l == 5
    assert media.conv_size == 80
    assert media.dropout_embed == 0.15
    assert media.dropout_hidden == 0.5
    assert media.lr0 == 0.5
    print("PASS defaults audit: both presets match the published recipe field-by-field")
