"""Parameter storage and the arena step: every parameter is a view into its
model's arena or stacked table wherever a model is made or copied; the step
over the arena equals the per-tensor step of tests/reference.py bit for
bit; and dropout masks drawn for several sentences at once equal the
per-sentence draws."""

import copy
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from labelrnn import training
from labelrnn.errors import ConfigError
from labelrnn.mathcore import dropout_mask, new_rng
from labelrnn.models import (STACKED, STACKED_TABLE, Grads, ParamStore, load_model,
                             make_position_masks, save_model, stream_position_masks)
from labelrnn.pretrain import build_nnlm
from labelrnn.training import (SgdMomentum, TrainConfig, gradient_check, train_bidirectional,
                               train_tagger)
from reference import ReferenceSgdMomentum, l2_names


def _assert_views(model):
    """Each tensor that is not a table is a view of the arena, at its slot;
    E_w, E_c and E_l are views of the stacked table, at their rows."""
    store = model.store
    for name, value in model.params.items():
        if name in store.slots:
            offset, shape = store.slots[name]
            assert value.base is store.arena and value.shape == shape, name
            assert np.shares_memory(value, store.arena[offset : offset + math.prod(shape)]), name
        elif name in STACKED:
            row = store.table_rows[name]
            assert value.base is store.table, name
            assert np.shares_memory(value, store.table[row : row + len(value)]), name
        else:  # a table of its own
            assert name in ("E_ch", "E_tok") and value.base is None, name


# -- where models are made and copied ----------------------------------------------

@pytest.mark.parametrize("variant", ["irnn", "irnn-gru", "irnn-deep"])
def test_built_loaded_and_copied_models_hold_views(small_model_factory, tmp_path, variant):
    model = small_model_factory(variant, use_classes=True, use_chars=True, seed=3)
    _assert_views(model)
    assert model.store.n_weights == sum(value.size for name, value in model.params.items()
                                        if value.ndim == 2 and not name.startswith("E_"))
    save_model(model, tmp_path / "m.bin")
    loaded = load_model(tmp_path / "m.bin")
    _assert_views(loaded)
    twin = copy.deepcopy(loaded)
    _assert_views(twin)
    assert twin.store.arena is not loaded.store.arena
    for name, value in model.params.items():
        assert np.array_equal(loaded.params[name], value), name
        assert np.array_equal(twin.params[name], value), name
    twin.params["O"] += 1.0  # a copy shares no memory with its source
    assert np.array_equal(loaded.params["O"], model.params["O"])


def test_nnlm_parameters_are_views():
    p = build_nnlm(9, pad_id=0, context=2, embed_size=4, hidden_size=5, rng=new_rng(3))
    _assert_views(p)
    assert p.store.table is None and p.store.n_weights == 5 * 8 + 9 * 5


@pytest.mark.parametrize("schedule,best", [([1, 2, 1, 0], 1), ([0, 1, 2, 3], 3)])
def test_dev_selection_copies_into_buffers_made_once(small_model_factory, tiny_vocab,
                                                     tiny_seqs, monkeypatch, schedule, best):
    """schedule[k]: the sentences decoded right after epoch k. A best epoch
    before the last is copied into one buffer model, made at the first
    snapshot; the last epoch's model is kept as it is."""
    model = small_model_factory("irnn", use_classes=True)
    made = []
    real = type(model).__deepcopy__
    monkeypatch.setattr(type(model), "__deepcopy__",
                        lambda self, memo: made.append(self) or real(self, memo))
    epoch = [0]

    def epochs():
        for k in range(len(schedule)):
            epoch[0] = k
            model.store.arena[:] = k  # each epoch leaves its own values
            model.store.table[:] = k
            yield k, 0.1, 1.0

    outside = tiny_vocab.label_id("O")

    def decode(models, seqs):  # a sentence decoded wrong is all O
        return [mock.Mock(labels=seq.labels if i < schedule[epoch[0]]
                          else np.full_like(seq.labels, outside), dists=np.zeros((len(seq), 1)))
                for i, seq in enumerate(seqs)]

    monkeypatch.setattr(training, "tag_batch", decode)
    (kept,), log = training._select_on_dev(epochs(), len(schedule) - 1, (model,), tiny_seqs,
                                           tiny_vocab, TrainConfig())
    assert [e.epoch for e in log] == list(range(len(schedule)))
    assert len(made) == 1
    assert (kept is model) == (best == len(schedule) - 1)
    _assert_views(kept)
    assert np.all(kept.store.arena == best) and np.all(kept.store.table == best)


def test_bidirectional_copies_hold_views_and_epoch_minus_1_is_the_given_pair(
        tiny_vocab, tiny_seqs, small_model_factory, monkeypatch):
    made = []

    class Recording(SgdMomentum):
        def __init__(self, model, *args, **kwargs):
            super().__init__(model, *args, **kwargs)
            made.append(model)

    monkeypatch.setattr(training, "SgdMomentum", Recording)
    fwd = small_model_factory("irnn", "fwd", seed=1, use_chars=True)
    bwd = small_model_factory("irnn-gru", "bwd", seed=2, use_classes=True)
    config = TrainConfig(epochs_bidir=0)
    fwd2, bwd2, log = train_bidirectional(fwd, bwd, tiny_seqs, tiny_seqs, tiny_vocab, config)
    assert (fwd2, bwd2, log) == (fwd, bwd, [])
    assert len(made) == 2 and not {id(m) for m in made} & {id(fwd), id(bwd)}
    for model in made:
        _assert_views(model)
        assert not np.shares_memory(model.store.arena, fwd.store.arena)


def test_pretrained_tables_are_copied_into_the_views(tiny_vocab, tiny_seqs):
    config = TrainConfig(embed_size=6, hidden_size=10, d_w=1, d_l=2, epochs_fwd_bwd=1, seed=2)
    rng = new_rng(8)
    init_w = rng.normal(size=(tiny_vocab.n_words, 6))
    init_l = rng.normal(size=(tiny_vocab.n_labels, 6))
    seen = []

    class Recording(SgdMomentum):
        def __init__(self, model, *args, **kwargs):
            _assert_views(model)
            seen.append((model.params["E_w"].copy(), model.params["E_l"].copy()))
            super().__init__(model, *args, **kwargs)

    with mock.patch.object(training, "SgdMomentum", Recording):
        model, _ = train_tagger(tiny_seqs, tiny_seqs, tiny_vocab, config, "irnn", "fwd",
                                init_word_emb=init_w, init_label_emb=init_l)
    _assert_views(model)
    assert np.array_equal(seen[0][0], init_w) and np.array_equal(seen[0][1], init_l)


def test_a_replaced_parameter_is_refused(small_model_factory, tiny_seqs):
    model = small_model_factory("irnn")
    model.params["H"] = model.params["H"].copy()
    with pytest.raises(ConfigError, match="H"):
        SgdMomentum(model, 0.5, 0.0)
    model = small_model_factory("irnn")
    opt = SgdMomentum(model, 0.5, 0.0)
    model.params["E_w"] = model.params["E_w"].copy()  # after the optimizer was made
    grads = Grads()
    grads.add("b_o", np.zeros(model.n_labels))
    with pytest.raises(ConfigError, match="E_w"):
        opt.step(grads, 0.1)


def test_gradient_check_writes_through_the_views(small_model_factory, tiny_seqs, monkeypatch):
    """Each perturbed coordinate shows in the arrays the pass reads, the
    arena and the stacked table, and every one is restored afterwards."""
    model = small_model_factory("irnn-deep", use_classes=True, seed=6)
    before = model.store.arena.copy(), model.store.table.copy()
    moved = {"arena": 0, "table": 0}
    real_pass = training.sentence_pass

    def sentence_pass(models, seq, grads=None, **kwargs):
        if models[0] is model and grads is None:
            moved["arena"] += not np.array_equal(model.store.arena, before[0])
            moved["table"] += not np.array_equal(model.store.table, before[1])
        return real_pass(models, seq, grads, **kwargs)

    monkeypatch.setattr(training, "sentence_pass", sentence_pass)
    report = gradient_check(model, tiny_seqs[0], samples_per_tensor=3)
    assert max(report.values()) < 1e-5
    assert moved["arena"] == 2 * 3 * len(model.store.slots)
    assert moved["table"] == 2 * 3 * len(model.store.table_rows)
    assert np.array_equal(model.store.arena, before[0])
    assert np.array_equal(model.store.table, before[1])


# -- the arena step against the per-tensor step -------------------------------------

class _Holder:
    """A model of drawn shapes: weights W*, biases b*, the stacked tables
    and a table of its own."""

    def __init__(self, shapes, rng):
        self.store = ParamStore(shapes)
        for value in self.store.params.values():
            value[...] = rng.normal(size=value.shape)

    @property
    def params(self):
        return self.store.params


# 64-element blocks: a weight of one row, of one block and of several blocks
_BLOCK = 8 * 64
_weight_rows = st.sampled_from([1, 2, 3, 5, 9, 17])
_weight_cols = st.sampled_from([1, 3, 7, 16, 40])


@settings(max_examples=60, deadline=None)
@given(weights=st.lists(st.tuples(_weight_rows, _weight_cols), min_size=1, max_size=4),
       biases=st.lists(st.integers(1, 70), min_size=0, max_size=3),
       n=st.integers(1, 4), lam=st.sampled_from([0.0, 0.05]), l2_include_all=st.booleans(),
       max_grad_norm=st.sampled_from([0.0, 0.5]), freeze=st.booleans(),
       stacked_twice=st.booleans(), skipped=st.integers(0, 8), seed=st.integers(0, 2 ** 16))
def test_arena_step_equals_the_per_tensor_step(weights, biases, n, lam, l2_include_all,
                                               max_grad_norm, freeze, stacked_twice, skipped,
                                               seed):
    rng = new_rng(seed)
    e = 3
    shapes = ([("E_w", (6, e)), ("E_l", (4, e)), ("E_ch", (5, 2))]
              + [(f"W{k}", shape) for k, shape in enumerate(weights)]
              + [(f"b{k}", (size,)) for k, size in enumerate(biases)])
    model = _Holder(shapes, rng)
    ref_store = model.store.copy()
    tables = {name: ref_store.params[name] for name in ("E_w", "E_l", "E_ch")}
    tables[STACKED_TABLE] = ref_store.table
    kwargs = dict(l2_include_all=l2_include_all, max_grad_norm=max_grad_norm,
                  freeze_embeddings=freeze)
    opt = SgdMomentum(model, 0.7, lam, **kwargs)
    ref = ReferenceSgdMomentum(ref_store.params, tables, 0.7, lam,
                               l2_names(model.store, l2_include_all),
                               block_bytes=_BLOCK, **kwargs)
    flat = [name for name, _ in shapes if not name.startswith("E_")]
    with mock.patch.object(training, "_BLOCK_BYTES", _BLOCK):
        for step in range(3):
            grads, ref_grads = Grads(), Grads()
            for k, name in enumerate(flat):
                if k == skipped:  # a tensor with no gradient is not stepped
                    continue
                w = model.params[name]
                size = rng.choice([1e-3, 1.0])
                if w.ndim == 1:
                    g = rng.normal(size=w.shape) * size
                    grads.add(name, g.copy())
                    ref_grads.add(name, g.copy())
                    continue
                for _ in range(2 if stacked_twice else 1):
                    d, x = rng.normal(size=(n, w.shape[0])) * size, rng.normal(size=(n, w.shape[1]))
                    grads.add_factors(name, d, x)
                    ref_grads.add_factors(name, d, x)
            for table, rows in ((STACKED_TABLE, 10), ("E_w", 6), ("E_ch", 5)):
                ids = rng.integers(0, rows, size=7)
                block = rng.normal(size=(7, 2 if table == "E_ch" else e)) * 3.0
                grads.add_rows(table, ids, block)
                ref_grads.add_rows(table, ids, block)
            lr = 0.3 - 0.05 * step
            opt.step(grads, lr)
            ref.step(ref_grads, lr)
            for name, value in model.params.items():
                assert np.array_equal(value, ref_store.params[name]), name
                if name in ref.velocity:
                    assert np.array_equal(opt.velocity[name], ref.velocity[name]), name


# -- dropout masks drawn in chunks ------------------------------------------------

def _per_sentence_draws(models, p_embed, p_hidden, rng, lens):
    """Reference: one make_position_masks call per sentence and model."""
    return [tuple(make_position_masks(m, p_embed, p_hidden, rng, n) for m in models)
            for n in lens]


def _same_masks(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert len(a) == len(b)
        for ma, mb in zip(a, b):
            assert ma.keys() == mb.keys()
            assert all(np.array_equal(ma[key], mb[key]) for key in mb)


@pytest.mark.parametrize("chunk", [1, 3, "epoch"])
@pytest.mark.parametrize("pair", [False, True])
def test_chunked_masks_equal_the_per_sentence_draws(small_model_factory, chunk, pair):
    """A tagger, and a bidirectional pair whose second model also reads
    classes, so that its mask rows are wider than the first's."""
    models = [small_model_factory("irnn", seed=1)]
    if pair:
        models.append(small_model_factory("irnn-deep", "bwd", seed=2, use_classes=True))
        assert models[0].window_dim != models[1].window_dim
    lens = [4] * 7
    row_bytes = 8 * sum(m.window_dim + m.hidden_size for m in models)
    chunk_bytes = {1: 1, 3: 3 * 4 * row_bytes, "epoch": 10 ** 9}[chunk]
    rng_a, rng_b = new_rng(41), new_rng(41)
    got, starts = [], []
    real = dropout_mask

    def counting(*args):  # a chunk's draws come before its first sentence is given
        starts.append(len(got))
        return real(*args)

    with mock.patch("labelrnn.models.dropout_mask", counting):
        for masks in stream_position_masks(models, 0.3, 0.4, rng_a, chunk_bytes, lens):
            got.append(masks)
    draws = np.diff([*sorted(set(starts)), len(lens)]).tolist()
    assert draws == {1: [1] * 7, 3: [3, 3, 1], "epoch": [7]}[chunk]
    _same_masks(got, _per_sentence_draws(models, 0.3, 0.4, rng_b, lens))
    assert rng_a.random() == rng_b.random()


def test_a_chunk_is_drawn_when_its_first_sentence_is_reached(small_model_factory):
    """Draws the caller makes between sentences come after the masks of the
    chunks it has been given, as with one draw per sentence."""
    model = small_model_factory("irnn", seed=1)
    lens = [3, 5, 2, 4]
    row_bytes = 8 * (model.window_dim + model.hidden_size)
    rng = new_rng(5)
    stream = stream_position_masks([model], 0.3, 0.4, rng, 8 * row_bytes, lens)
    first = [next(stream), next(stream)]  # one chunk of 3 + 5 rows
    between = rng.random()
    rest = list(stream)
    ref = new_rng(5)
    expected = _per_sentence_draws([model], 0.3, 0.4, ref, lens[:2])
    assert ref.random() == between
    _same_masks(first + rest, expected + _per_sentence_draws([model], 0.3, 0.4, ref, lens[2:]))


def _train_pair(tiny_vocab, tiny_seqs, small_model_factory, config):
    fwd, log = train_tagger(tiny_seqs, tiny_seqs, tiny_vocab, config, "irnn", "fwd")
    bwd = small_model_factory("irnn-deep", "bwd", seed=2, use_classes=True)
    fwd2, bwd2, bilog = train_bidirectional(fwd, bwd, tiny_seqs, tiny_seqs, tiny_vocab, config)
    return [e.line() for e in log + bilog], {**fwd2.params, **{f"bwd.{k}": v
                                                                for k, v in bwd2.params.items()}}


@pytest.mark.parametrize("chunk_bytes", [1, 2000, 10 ** 9])
def test_training_with_chunked_masks_equals_per_sentence_masks(tiny_vocab, tiny_seqs,
                                                               small_model_factory, monkeypatch,
                                                               chunk_bytes):
    config = TrainConfig(embed_size=6, hidden_size=10, first_level_size=7, d_w=2, d_l=3,
                         epochs_fwd_bwd=2, epochs_bidir=2, lr0=0.2, dropout_embed=0.3,
                         dropout_hidden=0.4, seed=9)
    monkeypatch.setattr(training, "_MASK_CHUNK_BYTES", chunk_bytes)
    log, params = _train_pair(tiny_vocab, tiny_seqs, small_model_factory, config)
    monkeypatch.setattr(training, "stream_position_masks",
                        lambda models, pe, ph, rng, _, lens: iter(
                            _per_sentence_draws(models, pe, ph, rng, lens)))
    reference_log, reference_params = _train_pair(tiny_vocab, tiny_seqs, small_model_factory,
                                                  config)
    assert log == reference_log
    for name, value in reference_params.items():
        assert np.array_equal(params[name], value), name


def test_scheduled_sampling_draws_masks_position_by_position(tiny_vocab, tiny_seqs,
                                                            monkeypatch):
    config = TrainConfig(embed_size=6, hidden_size=10, d_w=2, d_l=3, epochs_fwd_bwd=2,
                         dropout_embed=0.3, dropout_hidden=0.4, predicted_label_prob=0.5, seed=9)
    calls = []
    real = training.make_position_masks

    def per_position(model, p_embed, p_hidden, rng, n):
        calls.append(n)
        return real(model, p_embed, p_hidden, rng, n)

    def no_chunks(*args):
        raise AssertionError("scheduled sampling drew masks in chunks")

    monkeypatch.setattr(training, "make_position_masks", per_position)
    monkeypatch.setattr(training, "stream_position_masks", no_chunks)
    train_tagger(tiny_seqs, tiny_seqs, tiny_vocab, config, "irnn", "fwd")
    assert calls and set(calls) == {1}
    assert len(calls) == 2 * sum(len(s) for s in tiny_seqs)
