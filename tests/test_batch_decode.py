"""The lockstep greedy decoder against the position-by-position greedy pass
(reference.reference_forward) on the synthetic test set, and against the
lockstep decoder with a softmax at every step (reference.reference_decode_group)
bit for bit."""

from dataclasses import replace

import numpy as np
import pytest

from labelrnn import models
from labelrnn.corpus import (CLASS_BOS_ID, CLASS_EOS_ID, LABEL_BOL_ID, WORD_BOS_ID, WORD_EOS_ID,
                             Sentence, build_vocabulary, encode)
from labelrnn.errors import DataError
from labelrnn.layers import embed_concat
from labelrnn.mathcore import new_rng
from labelrnn.models import (
    DIRECTIONS,
    VARIANT_GRU,
    VARIANTS,
    build_model,
    combine_bidirectional,
    orient,
    predict_label,
    tag_batch,
    tag_greedy,
    tag_greedy_batch,
)
from labelrnn.pretrain import build_nnlm, nnlm_forward
from labelrnn.synthetic import generate_corpus
from labelrnn.training import TrainConfig
from reference import (label_context_indices, reference_decode_group, reference_forward,
                       window_indices)

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
    config = TrainConfig(**{**dict(d_w=2, d_l=3, embed_size=6, hidden_size=10,
                                   hidden_size_all_inputs=10, first_level_size=7,
                                   char_embed_size=4, conv_size=5), **kwargs})
    model = build_model(variant, direction, vocab, rng, config)
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


def _assert_equals_softmax_loop(model, oseqs):
    got, want = models._decode_group(model, oseqs), reference_decode_group(model, oseqs)
    assert len(got) == len(want) == len(oseqs)
    for (labels, dists), (ref_labels, ref_dists) in zip(got, want):
        assert labels.dtype == ref_labels.dtype == np.int64
        assert np.array_equal(labels, ref_labels)
        assert np.array_equal(dists, ref_dists)


@pytest.mark.parametrize("variant,direction,config", CASES)
def test_decode_group_equals_the_softmax_loop_bit_for_bit(task, monkeypatch, variant,
                                                          direction, config):
    vocab, seqs = task
    model = _model(vocab, variant, direction, seed=28, **CONFIGS[config])
    oriented = [orient(seq, direction) for seq in seqs]
    for group in (1, 3, models.DECODE_GROUP):
        monkeypatch.setattr(models, "DECODE_GROUP", group)
        for members in models.decode_groups(oriented):
            _assert_equals_softmax_loop(model, [oriented[i] for i in members])
    by_length = sorted(oriented, key=len, reverse=True)
    mixed = [by_length[0], by_length[len(by_length) // 2], by_length[-1]]
    assert len(mixed[0]) > len(mixed[1]) > len(mixed[2])
    _assert_equals_softmax_loop(model, mixed)


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
        oriented = sorted((orient(s, direction) for s in seqs), key=len, reverse=True)
        _assert_equals_softmax_loop(model, oriented)
        _assert_equals_softmax_loop(model, oriented[-1:])


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
        _assert_matches(tag_batch((fwd, bwd), seqs), references)


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
        tag_batch((model, small_model_factory("irnn", "bwd", use_classes=True)), seqs)


def test_a_chars_model_rejects_sentences_encoded_without_chars(small_model_factory,
                                                               tiny_vocab):
    sentences = [Sentence(words=["show", "flights"]), Sentence(words=["to", "boston"])]
    seqs = [encode(s, tiny_vocab, with_labels=False) for s in sentences]
    seqs[1] = encode(sentences[1], tiny_vocab, small_model_factory("irnn"), with_labels=False)
    model = small_model_factory("irnn-gru", use_chars=True)
    with pytest.raises(DataError, match="reads characters, but a sentence was encoded without"):
        tag_greedy_batch(model, seqs)
    with pytest.raises(DataError, match="reads characters, but a sentence was encoded without"):
        tag_batch((model, small_model_factory("irnn-gru", "bwd", use_chars=True)), seqs)


_WINDOW_FIELDS = {"w": ("words", WORD_BOS_ID, WORD_EOS_ID, "E_w"),
                  "c": ("classes", CLASS_BOS_ID, CLASS_EOS_ID, "E_c")}


def _window_ids(model, seq, t):
    """(table, window_indices of seq at the positions t) of the word window
    and, with classes, of the class window, by input piece."""
    pieces = "wc" if model.use_classes else "w"
    return {name: (table, window_indices(getattr(seq, field), t, model.d_w, bos, eos))
            for name, (field, bos, eos, table) in _WINDOW_FIELDS.items() if name in pieces}


@pytest.mark.parametrize("count", [1, 3])
def test_window_gather_equals_window_indices(task, count):
    vocab, seqs = task
    group = sorted(seqs[:count], key=len, reverse=True)
    lens = tuple(len(s) for s in group)
    order = np.random.default_rng(3).permutation(sum(lens))
    last = group[-1]
    one_token = replace(last, words=last.words[:1], classes=last.classes[:1],
                        chars=last.chars[:1], labels=last.labels[:1])
    for config in ({}, dict(use_classes=True), dict(use_classes=True, ablate_label_context=True),
                   dict(d_w=0)):
        model = _model(vocab, "irnn", "fwd", seed=27, **config)
        rows = model.store.table_rows
        # Decoding gathers the word and class windows in one, in the given
        # row order.
        inverse, windows = models._group_layout(lens, -model.d_w, model.d_w + 1)[2:4]
        x = models._inputs(model, group, order, windows[inverse][order])[0]
        ids = [_window_ids(model, s, np.arange(len(s))) for s in group]
        assert x.keys() == ids[0].keys()
        for name, (table, _) in ids[0].items():
            idx = np.concatenate([sentence[name][1] for sentence in ids])
            assert np.array_equal(x[name], embed_concat(model.params[table], idx[order]))
        # Training gathers the windows and then the label context in one, as
        # rows of the stacked table; one row of t is how scheduled sampling
        # calls it, with the labels before it, a list that is empty at its
        # first call.
        for seq in (*group, one_token):
            for t in (np.arange(len(seq)), np.array([len(seq) // 2]), np.array([0])):
                history = list(seq.labels[: t[-1]])
                if model.ablate_label_context:
                    context = np.full((len(t), model.d_l), LABEL_BOL_ID)
                else:
                    context = label_context_indices(history, t, model.d_l, LABEL_BOL_ID)
                stacked = [idx + rows[table] for table, idx in _window_ids(model, seq, t).values()]
                expected = np.concatenate([*stacked, context + rows["E_l"]], axis=1)
                _, cache = models.position_forward(model, seq, t, history)
                assert np.array_equal(cache["idx"], expected)
    # The NNLM's context is a label context over the tokens of one sequence.
    for context in (1, 3):
        nnlm = build_nnlm(vocab.n_words, WORD_BOS_ID, context, embed_size=4, hidden_size=5)
        for seq in (*group, one_token):
            tokens = seq.words.tolist()
            for t in (np.arange(len(seq)), np.array([len(seq) // 2])):
                _, cache = nnlm_forward(nnlm, tokens, t)
                expected = label_context_indices(tokens, t, context, WORD_BOS_ID)
                assert np.array_equal(cache["idxs"], expected)


@pytest.mark.parametrize("variant", VARIANTS)
def test_decoder_inputs_equal_the_teacher_forced_pieces(task, variant):
    """One builder makes the inputs of both passes: the pieces the decoder
    reads for a group are the teacher-forced pass's pieces of each sentence,
    row for row through order, bit for bit, the label piece aside; and the
    gradient on the whole input goes back by one route."""
    vocab, seqs = task
    group = sorted(seqs[:3], key=len, reverse=True)
    lens = tuple(len(s) for s in group)
    for config in ({}, dict(use_classes=True, use_chars=True, d_c=1),
                   dict(use_classes=True, use_chars=True, gru_words_only=True), dict(d_w=0)):
        model = _model(vocab, variant, "fwd", seed=29, **config)
        rows = model.store.table_rows
        order, _, windows = models._group_layout(lens, -model.d_w, model.d_w + 1)[1:4]
        x = models._inputs(model, group, order, windows)[0]
        caches = [models.position_forward(model, s, np.arange(len(s)), s.labels)[1]
                  for s in group]
        assert x.keys() == {name for name, _ in model.input_pieces()} - {"l"}
        for name in x:
            trained = np.concatenate([cache["x_pieces"][name] for cache in caches])
            assert np.array_equal(x[name], trained[order]), name
        for name, (table, idx) in _window_ids(model, group[0], np.arange(lens[0])).items():
            if name in x:
                assert np.array_equal(caches[0]["x_pieces"][name],
                                      embed_concat(model.params[table], idx)), name
        # The last conv_size columns, with chars, go through the char
        # convolution, and the rest to the stacked table rows they came from.
        cache = caches[0]
        dx = np.random.default_rng(5).normal(size=(lens[0], model.input_dim))
        width = cache["idx"].shape[1] * model.embed_size
        assert dx.shape[1] - width == (model.conv_size if "ch" in x else 0)
        grads = models.Grads()
        models._scatter_input_grad(model, cache, dx, grads)
        dense = grads.to_dense(model)
        expected = np.zeros_like(model.store.table)
        np.add.at(expected, cache["idx"].ravel(), dx[:, :width].reshape(-1, model.embed_size))
        assert np.allclose(np.concatenate([dense[name] for name in rows]), expected,
                           rtol=RTOL, atol=ATOL)
        if "ch" in x:
            assert np.allclose(dense["b_conv"], dx[:, width:].sum(axis=0), rtol=RTOL, atol=ATOL)
