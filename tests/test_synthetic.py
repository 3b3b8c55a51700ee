import json

import pytest

from labelrnn.corpus import (
    build_vocabulary,
    chunk_spans,
    load_column_file,
)
from labelrnn.errors import ConfigError
from labelrnn.mathcore import new_rng
from labelrnn.metrics import evaluate
from labelrnn.synthetic import (
    Grammar,
    SlotSpec,
    default_grammar,
    generate_corpus,
    generate_corpus_files,
    generate_sentence,
)


def test_size_zero_rejected():
    with pytest.raises(ConfigError):
        generate_corpus(0, seed=1)


def test_fixed_seed_gives_identical_files(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate_corpus_files(a, size=50, seed=3)
    generate_corpus_files(b, size=50, seed=3)
    for name in ("train.txt", "dev.txt", "test.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_split_sizes():
    train, dev, test = generate_corpus(100, seed=1)
    assert (len(train), len(dev), len(test)) == (100, 10, 10)


def test_labels_never_trigger_repair_rule():
    train, dev, test = generate_corpus(200, seed=2)
    labels = [sent.labels for sent in train + dev + test]
    assert evaluate(labels, labels).invalid_rate == 0.0


def test_some_slot_spans_at_least_three_words():
    train, _, _ = generate_corpus(200, seed=4)
    longest = max(
        end - start + 1
        for sent in train
        for _, start, end in chunk_spans(sent.labels, "bio-suffix")
    )
    assert longest >= 3


def test_oov_rate_below_two_percent():
    train, dev, test = generate_corpus(2000, seed=11)
    vocab = build_vocabulary(train)
    for split in (dev, test):
        total = sum(len(s) for s in split)
        oov = sum(
            1 for s in split for w in s.words if w.lower() not in vocab.words
        )
        assert 100.0 * oov / total < 2.0


def test_class_column_present_and_aligned():
    train, _, _ = generate_corpus(20, seed=5)
    for sent in train:
        assert len(sent.classes) == len(sent.words) == len(sent.labels)


def test_generated_files_parse_back(tmp_path):
    paths = generate_corpus_files(tmp_path, size=30, seed=6)
    for path in paths.values():
        assert len(load_column_file(path)) > 0


def test_phrase_slots_emit_b_then_i():
    grammar = default_grammar()
    rng = new_rng(7)
    for _ in range(50):
        sent = generate_sentence(grammar, rng)
        for _, start, _ in chunk_spans(sent.labels, "bio-suffix"):
            assert sent.labels[start].endswith("-B")


def test_grammar_from_json(tmp_path):
    raw = {
        "slots": {
            "color": {"class_name": "color", "phrases": ["red", "dark blue"]},
        },
        "templates": ["paint it {color} please"],
    }
    path = tmp_path / "g.json"
    path.write_text(json.dumps(raw))
    grammar = Grammar.from_json(path)
    sent = generate_sentence(grammar, new_rng(1))
    assert sent.words[0] == "paint"
    assert any(l.startswith("color-") for l in sent.labels)


def test_pool_slot_length_bounds():
    spec = SlotSpec(pool=["x", "y"], min_len=2, max_len=4)
    rng = new_rng(8)
    for _ in range(100):
        assert 2 <= len(spec.sample(rng)) <= 4
