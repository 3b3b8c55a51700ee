"""The lockstep greedy decoder against the position-by-position greedy pass
(reference.reference_forward) on the synthetic test set."""

from dataclasses import replace

import numpy as np
import pytest

from labelrnn import models
from labelrnn.corpus import Sentence, build_vocabulary, encode
from labelrnn.errors import DataError
from labelrnn.mathcore import new_rng
from labelrnn.models import (
    DIRECTIONS,
    VARIANT_GRU,
    VARIANTS,
    build_model,
    combine_bidirectional,
    orient,
    predict_label,
    tag_bidirectional_batch,
    tag_greedy,
    tag_greedy_batch,
)
from labelrnn.synthetic import generate_corpus
from reference import reference_forward

RTOL, ATOL = 1e-10, 1e-12  # float64: only the summation order differs

CONFIGS = {
    "words": {},
    "classes-chars": dict(use_classes=True, use_chars=True, d_c=1),
    "ablated": dict(use_classes=True, ablate_label_context=True),
    "gru-words-only": dict(use_classes=True, use_chars=True, gru_words_only=True),
}
CASES = [(v, d, c) for v in VARIANTS for d in DIRECTIONS for c in CONFIGS
         if c != "gru-words-only" or v == VARIANT_GRU]


@pytest.fixture(scope="module")
def task():
    train, _, test = generate_corpus(400, seed=11)
    vocab = build_vocabulary(train)
    return vocab, [encode(s, vocab) for s in test]


def _model(vocab, variant, direction, seed, **kwargs):
    rng = new_rng(seed)
    model = build_model(variant, direction, vocab, rng, d_w=2, d_l=3, embed_size=6,
                        hidden_size=10, first_level_size=7, char_embed_size=4, conv_size=5,
                        **kwargs)
    for value in model.params.values():  # biases start at zero; make them count
        if not value.any():
            value += rng.normal(scale=0.3, size=value.shape)
    return model


def _reference(model, seq):
    """(labels, dists) of the position-by-position greedy pass."""
    labels, dists, _ = reference_forward(model, orient(seq, model.direction))
    if model.direction == "bwd":
        return labels[::-1], dists[::-1]
    return labels, dists


def _decode(model, seqs, group, monkeypatch):
    monkeypatch.setattr(models, "DECODE_GROUP", group)
    return tag_greedy_batch(model, seqs)


def _assert_matches(outs, references):
    assert len(outs) == len(references)
    for out, (labels, dists) in zip(outs, references):
        assert np.array_equal(out.labels, labels)
        np.testing.assert_allclose(out.dists, dists, rtol=RTOL, atol=ATOL)


@pytest.mark.parametrize("variant,direction,config", CASES)
def test_batch_decoder_matches_position_reference(task, monkeypatch, variant, direction, config):
    vocab, seqs = task
    model = _model(vocab, variant, direction, seed=21, **CONFIGS[config])
    references = [_reference(model, seq) for seq in seqs]
    for group in (1, 2, len(seqs)):
        _assert_matches(_decode(model, seqs, group, monkeypatch), references)
    _assert_matches([tag_greedy(model, seq) for seq in seqs], references)


@pytest.mark.parametrize("variant", VARIANTS)
def test_batch_decoder_with_a_single_label(variant):
    sentences = [Sentence(words=w.split()) for w in ("show flights", "a b c d", "x")]
    vocab = build_vocabulary(sentences)
    assert vocab.n_labels == 1
    seqs = [encode(s, vocab, with_labels=False) for s in sentences]
    for direction in DIRECTIONS:
        model = _model(vocab, variant, direction, seed=22)
        _assert_matches(tag_greedy_batch(model, seqs), [_reference(model, s) for s in seqs])


@pytest.mark.parametrize("variant,config", [(v, c) for v, d, c in CASES if d == "fwd"])
def test_bidirectional_batch_matches_position_reference(task, monkeypatch, variant, config):
    vocab, seqs = task
    fwd = _model(vocab, variant, "fwd", seed=23, **CONFIGS[config])
    bwd = _model(vocab, variant, "bwd", seed=24, **CONFIGS[config])
    references = []
    for seq in seqs:
        dists = combine_bidirectional(_reference(fwd, seq)[1], _reference(bwd, seq)[1])
        references.append((predict_label(dists), dists))
    for group in (1, 2, len(seqs)):
        monkeypatch.setattr(models, "DECODE_GROUP", group)
        _assert_matches(tag_bidirectional_batch(fwd, bwd, seqs), references)


def test_batch_decoder_is_deterministic(task):
    vocab, seqs = task
    model = _model(vocab, "irnn-deep", "bwd", seed=25, **CONFIGS["classes-chars"])
    first, second = tag_greedy_batch(model, seqs), tag_greedy_batch(model, seqs)
    for a, b in zip(first, second):
        assert a.labels.tobytes() == b.labels.tobytes()
        assert a.dists.tobytes() == b.dists.tobytes()


def test_batch_decoder_keeps_input_order_and_empty_sequences(task):
    vocab, seqs = task
    model = _model(vocab, "irnn", "fwd", seed=26)
    empty = encode(Sentence(words=[]), vocab, with_labels=False)
    outs = tag_greedy_batch(model, [seqs[0], empty, seqs[1]])
    assert [len(o.labels) for o in outs] == [len(seqs[0]), 0, len(seqs[1])]
    assert outs[1].dists.shape == (0, model.n_labels)
    assert np.array_equal(outs[2].labels, tag_greedy(model, seqs[1]).labels)


def test_a_classes_model_rejects_sentences_without_the_class_column(small_model_factory,
                                                                    tiny_seqs):
    model = small_model_factory("irnn", use_classes=True)
    seqs = [replace(seq, classes=None) if i == 1 else seq for i, seq in enumerate(tiny_seqs)]
    with pytest.raises(DataError, match="reads word classes, but a sentence has no class"):
        tag_greedy_batch(model, seqs)
    with pytest.raises(DataError, match="reads word classes, but a sentence has no class"):
        tag_bidirectional_batch(model, small_model_factory("irnn", "bwd", use_classes=True),
                                seqs)
