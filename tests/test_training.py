import copy
import re
from dataclasses import replace

import numpy as np
import pytest

import labelrnn.training as training
from labelrnn.corpus import CHUNK_MODES, build_vocabulary, decode_labels, encode
from labelrnn.errors import (ConfigError, DataError, LabelRnnError, ShapeError,
                             TrainingDivergedError)
from labelrnn.mathcore import dropout_mask, new_rng
from labelrnn.models import (
    STACKED_TABLE,
    VARIANTS,
    Grads,
    build_model,
    combine_bidirectional,
    make_position_masks,
    sentence_pass,
    tag_batch,
    tag_bidirectional,
    tag_greedy,
)
from labelrnn.synthetic import generate_corpus
from labelrnn.training import (
    SgdMomentum,
    TrainConfig,
    TrainLogEntry,
    best_entry,
    bidirectional_gradient_check,
    gradient_check,
    lr_at,
    train_bidirectional,
    train_tagger,
    write_log,
)
from reference import reference_token_accuracy


def small_config(**overrides):
    base = dict(embed_size=8, hidden_size=12, first_level_size=8, d_w=1, d_l=2,
                epochs_fwd_bwd=4, epochs_bidir=2, lr0=0.1, momentum=0.5,
                lambda_l2=1e-4, lambda_l2_bidir=1e-4,
                dropout_embed=0.1, dropout_hidden=0.1, seed=3)
    base.update(overrides)
    return TrainConfig(**base)


# -- config ------------------------------------------------------------------

def test_config_validation_errors():
    with pytest.raises(ConfigError):
        TrainConfig(lr0=0.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(momentum=1.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(dropout_hidden=1.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(d_l=0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(dev_metric="bleu").validate()


def test_config_rejects_an_unknown_chunk_mode():
    with pytest.raises(ConfigError, match="unknown chunk mode 'bogus'"):
        TrainConfig(chunk_mode="bogus").validate()
    for mode in CHUNK_MODES:
        TrainConfig(chunk_mode=mode).validate()


@pytest.mark.parametrize("raw,value", [("1", True), ("true", True), ("True", True),
                                       ("YES", True), ("0", False), ("false", False),
                                       ("False", False), ("No", False)])
def test_config_boolean_spellings(raw, value):
    assert TrainConfig.from_kv(f"use_chars={raw}\n").use_chars is value


@pytest.mark.parametrize("raw", ["ture", "", "2", "on", "y"])
def test_config_rejects_any_other_boolean_value(raw):
    with pytest.raises(ConfigError, match=re.escape(f"config line 1: bad value for "
                                                    f"use_chars: {raw!r}")):
        TrainConfig.from_kv(f"use_chars={raw}\n")


def test_config_rejects_zero_tagger_epochs():
    with pytest.raises(ConfigError, match="epochs_fwd_bwd"):
        TrainConfig(epochs_fwd_bwd=0).validate()
    with pytest.raises(ConfigError, match="epochs_bidir"):
        TrainConfig(epochs_bidir=-1).validate()
    TrainConfig(epochs_bidir=0).validate()


@pytest.mark.parametrize("setting,problem", [
    (dict(epochs_nnlm_word=0), "NNLM training needs at least one epoch, got 0"),
    (dict(epochs_nnlm_label=-1), "NNLM training needs at least one epoch, got -1"),
    (dict(nnlm_context=0), "NNLM context length must be >= 1, got 0"),
    (dict(lr0=float("nan")), "lr0 must be positive and finite, got nan"),
    (dict(lr0=float("inf")), "lr0 must be positive and finite, got inf"),
])
def test_config_rejects_bad_nnlm_settings_and_learning_rates(setting, problem):
    with pytest.raises(ConfigError, match=re.escape(problem)):
        TrainConfig(**setting).validate()


def test_config_kv_round_trip():
    config = small_config(use_chars=True, chunk_mode="bio-prefix")
    again = TrainConfig.from_kv(config.to_kv())
    assert again == config


def test_config_unknown_key_rejected():
    with pytest.raises(ConfigError):
        TrainConfig.from_kv("no_such_field=1\n")


def test_config_bad_value_rejected():
    with pytest.raises(ConfigError, match="config line 2: bad value for d_w"):
        TrainConfig.from_kv("d_l=3\nd_w=abc\n")


def test_resolved_hidden_size():
    assert TrainConfig().resolved_hidden_size() == 200
    assert TrainConfig(use_classes=True, use_chars=True).resolved_hidden_size() == 256


# -- learning-rate schedule ----------------------------------------------------

def test_lr_schedule():
    assert lr_at(0, 30, 0.5) == 0.5
    assert lr_at(15, 30, 0.5) == 0.25
    assert abs(lr_at(29, 30, 0.5) - 0.5 / 30) < 1e-15
    with pytest.raises(ConfigError):
        lr_at(30, 30, 0.5)
    with pytest.raises(ConfigError):
        lr_at(-1, 30, 0.5)


# -- optimizer ----------------------------------------------------------------

def test_momentum_zero_is_plain_sgd(small_model_factory):
    model = small_model_factory("irnn")
    opt = SgdMomentum(model, momentum=0.0, lam=0.0)
    w0 = model.params["O"].copy()
    grads = Grads()
    grads.add("O", np.ones_like(w0))
    opt.step(grads, lr=0.1)
    assert np.allclose(model.params["O"], w0 - 0.1)


def test_momentum_hand_arithmetic(small_model_factory):
    model = small_model_factory("irnn")
    opt = SgdMomentum(model, momentum=0.9, lam=0.0)
    w0 = model.params["O"].copy()
    for _ in range(2):
        grads = Grads()
        grads.add("O", np.ones_like(w0))
        opt.step(grads, lr=0.1)
    # v1 = -0.1, w1 = w0 - 0.1 ; v2 = -0.19, w2 = w0 - 0.29
    assert np.allclose(model.params["O"], w0 - 0.29)


def test_l2_decays_weight_toward_zero(small_model_factory):
    model = small_model_factory("irnn")
    opt = SgdMomentum(model, momentum=0.0, lam=0.1)
    w0 = model.params["H"].copy()
    grads = Grads()
    grads.add("H", np.zeros_like(w0))
    opt.step(grads, lr=0.5)
    assert np.allclose(model.params["H"], w0 * (1 - 0.5 * 0.1))
    assert np.all(np.abs(model.params["H"]) <= np.abs(w0))


def test_embedding_rows_updated_sparsely(small_model_factory):
    model = small_model_factory("irnn")
    opt = SgdMomentum(model, momentum=0.9, lam=0.1)
    table0 = model.params["E_w"].copy()
    vec = np.ones(model.embed_size)
    for _ in range(2):
        grads = Grads()
        grads.add_rows("E_w", np.array([2]), vec[None])
        opt.step(grads, lr=0.1)
    # no momentum, no L2 on embeddings: two plain steps on row 2 only
    assert np.allclose(model.params["E_w"][2], table0[2] - 0.2)
    untouched = np.delete(model.params["E_w"], 2, axis=0)
    assert np.array_equal(untouched, np.delete(table0, 2, axis=0))


def test_frozen_embeddings_do_not_move(small_model_factory, tiny_seqs):
    model = small_model_factory("irnn")
    opt = SgdMomentum(model, momentum=0.0, lam=0.0, freeze_embeddings=True)
    table0 = model.params["E_w"].copy()
    grads = Grads()
    grads.add_rows("E_w", np.array([1]), np.ones((1, model.embed_size)))
    opt.step(grads, lr=0.1)
    assert np.array_equal(model.params["E_w"], table0)
    # A whole sentence's gradient, with L2 on every tensor and clipping on:
    # every table stays bit for bit while every other tensor moves.
    for variant in VARIANTS:
        model = small_model_factory(variant, use_classes=True, use_chars=True)
        before = copy.deepcopy(model.params)
        grads = Grads()
        sentence_pass((model,), tiny_seqs[1], (grads,))
        # E_w, E_c and E_l are row ranges of the stacked table
        assert set(grads.rows) == {STACKED_TABLE, "E_ch"}
        SgdMomentum(model, momentum=0.5, lam=0.1, l2_include_all=True, max_grad_norm=1.0,
                    freeze_embeddings=True).step(grads, lr=0.1)
        for name, value in before.items():
            assert np.array_equal(model.params[name], value) == name.startswith("E_"), name


def test_bidirectional_fine_tuning_freezes_the_embeddings_of_both_models(
        tiny_vocab, tiny_seqs, small_model_factory, monkeypatch):
    optimizers = []

    class Recording(SgdMomentum):
        def __init__(self, model, *args, **kwargs):
            super().__init__(model, *args, **kwargs)
            optimizers.append(self)

    monkeypatch.setattr(training, "SgdMomentum", Recording)
    fwd, bwd = small_model_factory("irnn", "fwd", seed=1), small_model_factory("irnn", "bwd", seed=2)
    config = small_config(epochs_bidir=1, freeze_embeddings_bidir=True)
    train_bidirectional(fwd, bwd, tiny_seqs, tiny_seqs, tiny_vocab, config)
    assert [opt.freeze_embeddings for opt in optimizers] == [True, True]
    # Dev selection may return the untouched pair, so the optimizers' own
    # models, the fine-tuned copies, are the ones checked.
    for opt, model in zip(optimizers, (fwd, bwd)):
        assert opt.model.direction == model.direction and opt.model is not model
        for name, value in model.params.items():
            assert np.array_equal(opt.model.params[name], value) == name.startswith("E_"), name


def test_bad_gradient_shape_rejected(small_model_factory):
    model = small_model_factory("irnn")
    opt = SgdMomentum(model, momentum=0.0, lam=0.0)
    grads = Grads()
    grads.add("O", np.zeros((1, 1)))
    with pytest.raises(ShapeError):
        opt.step(grads, lr=0.1)
    rows, cols = model.params["O"].shape
    for d, x in ((np.zeros((2, rows + 1)), np.zeros((2, cols))),  # d.T @ x has a wrong shape
                 (np.zeros((2, rows)), np.zeros((3, cols))),  # the factors' rows differ
                 (np.zeros(rows), np.zeros(cols))):  # not stacks of rows
        grads = Grads()
        grads.add_factors("O", d, x)
        with pytest.raises(ShapeError, match="O"):
            opt.step(grads, lr=0.1)


# -- directional training --------------------------------------------------------

def test_train_tagger_reduces_loss_and_is_deterministic(tiny_vocab, tiny_seqs):
    config = small_config()
    model1, log1 = train_tagger(tiny_seqs, tiny_seqs, tiny_vocab, config, "irnn", "fwd")
    model2, log2 = train_tagger(tiny_seqs, tiny_seqs, tiny_vocab, config, "irnn", "fwd")
    assert len(log1) == config.epochs_fwd_bwd
    assert log1[-1].train_loss < log1[0].train_loss
    assert [e.line() for e in log1] == [e.line() for e in log2]
    for name in model1.params:
        assert np.array_equal(model1.params[name], model2.params[name])


def test_train_tagger_empty_corpus_rejected(tiny_vocab):
    with pytest.raises(ConfigError):
        train_tagger([], [], tiny_vocab, small_config(), "irnn", "fwd")


def _empty_seq(like):
    return replace(like, words=like.words[:0], classes=like.classes[:0], chars=[],
                   labels=like.labels[:0])


def test_train_tagger_rejects_an_empty_training_sequence(tiny_vocab, tiny_seqs):
    seqs = [tiny_seqs[0], _empty_seq(tiny_seqs[0]), tiny_seqs[1]]
    with pytest.raises(DataError, match="training sequence 1 is empty"):
        train_tagger(seqs, tiny_seqs, tiny_vocab, small_config(), "irnn", "fwd")


def test_train_bidirectional_rejects_an_empty_training_sequence(tiny_vocab, tiny_seqs,
                                                                small_model_factory):
    fwd, bwd = small_model_factory("irnn", "fwd"), small_model_factory("irnn", "bwd")
    seqs = [*tiny_seqs, _empty_seq(tiny_seqs[0])]
    with pytest.raises(DataError, match=f"training sequence {len(tiny_seqs)} is empty"):
        train_bidirectional(fwd, bwd, seqs, tiny_seqs, tiny_vocab, small_config())


def test_training_rejects_an_empty_dev_set(tiny_vocab, tiny_seqs, small_model_factory):
    with pytest.raises(DataError, match="dev set is empty"):
        train_tagger(tiny_seqs, [], tiny_vocab, small_config(), "irnn", "fwd")
    fwd, bwd = small_model_factory("irnn", "fwd"), small_model_factory("irnn", "bwd")
    with pytest.raises(DataError, match="dev set is empty"):
        train_bidirectional(fwd, bwd, tiny_seqs, [], tiny_vocab, small_config())


def test_run_epochs_rejects_sequences_without_positions():
    with pytest.raises(LabelRnnError, match="no positions"):
        next(training.run_epochs([[], []], 1, 0.1, new_rng(0), lambda seq, lr: 0.0))


def test_dev_selection_returns_best_snapshot(tiny_vocab, tiny_seqs):
    config = small_config(epochs_fwd_bwd=5)
    model, log = train_tagger(tiny_seqs, tiny_seqs, tiny_vocab, config, "irnn", "fwd")
    golds = [decode_labels(s.labels, tiny_vocab) for s in tiny_seqs]
    preds = [decode_labels(tag_greedy(model, s).labels, tiny_vocab) for s in tiny_seqs]
    best_logged = max(e.dev_acc for e in log)
    assert abs(reference_token_accuracy(golds, preds) - best_logged) < 1e-9


def test_best_entry_is_the_first_with_the_highest_score_under_the_metric():
    log = [TrainLogEntry(0, 0.5, 2.0, 80.0, 40.0), TrainLogEntry(1, 0.4, 1.5, 90.0, 60.0),
           TrainLogEntry(2, 0.3, 1.2, 95.0, 50.0), TrainLogEntry(3, 0.2, 1.0, 95.0, 60.0)]
    assert best_entry(log, "accuracy").epoch == 2
    assert best_entry(log, "f1").epoch == 1


def _without_classes(seqs):
    return [replace(seq, classes=None) for seq in seqs]


def test_training_with_classes_rejects_sentences_without_the_class_column(tiny_vocab,
                                                                          tiny_seqs):
    config = small_config(use_classes=True, epochs_fwd_bwd=1)
    for train, dev in ((_without_classes(tiny_seqs), tiny_seqs),
                       (tiny_seqs, _without_classes(tiny_seqs))):
        with pytest.raises(DataError, match="reads word classes, but a sentence has no class"):
            train_tagger(train, dev, tiny_vocab, config, "irnn", "fwd")
    fwd, _ = train_tagger(tiny_seqs, tiny_seqs, tiny_vocab, config, "irnn", "fwd")
    bwd, _ = train_tagger(tiny_seqs, tiny_seqs, tiny_vocab, config, "irnn", "bwd")
    for train, dev in ((_without_classes(tiny_seqs), tiny_seqs),
                       (tiny_seqs, _without_classes(tiny_seqs))):
        with pytest.raises(DataError, match="reads word classes, but a sentence has no class"):
            train_bidirectional(fwd, bwd, train, dev, tiny_vocab, config)


def test_pretrained_embeddings_must_match_shape(tiny_vocab, tiny_seqs):
    config = small_config()
    bad = np.zeros((2, 2))
    with pytest.raises(ShapeError):
        train_tagger(tiny_seqs, tiny_seqs, tiny_vocab, config, "irnn", "fwd",
                     init_word_emb=bad)


def test_scheduled_sampling_smoke(tiny_vocab, tiny_seqs):
    config = small_config(epochs_fwd_bwd=2, predicted_label_prob=0.5)
    model, log = train_tagger(tiny_seqs, tiny_seqs, tiny_vocab, config, "irnn", "fwd")
    assert len(log) == 2


@pytest.mark.parametrize("variant,directions", [
    pytest.param(variant, directions,
                 id=variant if directions == ("fwd",) else "-".join((variant, *directions)))
    for directions in (("fwd",), ("bwd",), ("fwd", "bwd"))
    for variant in ("irnn", "irnn-gru", "irnn-deep")])
def test_training_step_applies_the_checked_gradient(small_model_factory, tiny_seqs, monkeypatch,
                                                    variant, directions):
    # Without dropout, momentum, L2 and clipping one step moves each model by
    # w <- w - lr * g / n, g being the analytic gradient that gradient_check,
    # or bidirectional_gradient_check for the pair, verifies (through time
    # for the GRU): the gradient its pass hands back.
    models = tuple(small_model_factory(variant, direction, use_classes=True, use_chars=True,
                                       seed=4 + k) for k, direction in enumerate(directions))
    config = small_config(dropout_embed=0.0, dropout_hidden=0.0, momentum=0.0,
                          lambda_l2=0.0, max_grad_norm=0.0)
    seq, lr = tiny_seqs[1], 0.3
    checked, real = [], training.sentence_pass

    def recording(passed, seq, grads=None, *args, **kwargs):
        if grads is not None:
            checked.append(grads)
        return real(passed, seq, grads, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(training, "sentence_pass", recording)
        check = gradient_check if len(models) == 1 else bidirectional_gradient_check
        check(*models, seq, samples_per_tensor=1)
    (grads,) = checked
    expected = [g.to_dense(m) for g, m in zip(grads, models)]
    before = [{name: value.copy() for name, value in m.params.items()} for m in models]
    opts = tuple(SgdMomentum(m, config.momentum, config.lambda_l2) for m in models)
    training._train_sentence(models, opts, seq, lr)
    for model, start, g in zip(models, before, expected):
        for name, value in model.params.items():
            np.testing.assert_allclose(value - start[name], -lr * g[name] / len(seq),
                                       rtol=1e-10, atol=1e-15, err_msg=name)


def _per_position_masks(model, config, rng, n):
    """Reference: one dropout_mask draw per mask window per position,
    stacked; the word, class and label windows side by side as 'e'."""
    rows = []
    for _ in range(n):
        masks = {}
        if config.dropout_embed > 0.0:
            keep = 1.0 - config.dropout_embed
            windows = [dropout_mask(model.word_input_dim, keep, rng)]
            if model.use_classes:
                windows.append(dropout_mask(model.word_input_dim, keep, rng))
            windows.append(dropout_mask(model.label_input_dim, keep, rng))
            masks["e"] = np.concatenate(windows)
        if config.dropout_hidden > 0.0:
            masks["h"] = dropout_mask(model.hidden_size, 1.0 - config.dropout_hidden, rng)
        rows.append(masks)
    return {key: np.stack([m[key] for m in rows]) for key in rows[0]}


@pytest.mark.parametrize("p_embed,p_hidden", [(0.3, 0.4), (0.0, 0.4), (0.3, 0.0), (0.0, 0.0)])
def test_sentence_masks_are_the_per_position_draws(small_model_factory, p_embed, p_hidden):
    model = small_model_factory("irnn", use_classes=True)
    config = small_config(dropout_embed=p_embed, dropout_hidden=p_hidden)
    rng_a, rng_b = new_rng(31), new_rng(31)
    got = make_position_masks(model, p_embed, p_hidden, rng_a, 5)
    expected = _per_position_masks(model, config, rng_b, 5)
    assert got.keys() == expected.keys()
    for key in expected:
        assert np.array_equal(got[key], expected[key])
    assert rng_a.random() == rng_b.random()


@pytest.mark.parametrize("p_embed,p_hidden", [(1.0, 0.4), (0.3, 1.0), (0.3, 1.5)])
def test_sentence_masks_reject_a_keep_probability_outside_0_1(small_model_factory, p_embed,
                                                               p_hidden):
    """The keep vector is built once per model shape and dropout rates; a
    bad rate raises every time, also right after a valid call on the same
    model, whose masks are still the per-position draws."""
    model = small_model_factory("irnn", use_classes=True)
    config = small_config(dropout_embed=0.3, dropout_hidden=0.4)
    for _ in range(2):
        got = make_position_masks(model, 0.3, 0.4, new_rng(32), 4)
        expected = _per_position_masks(model, config, new_rng(32), 4)
        assert got.keys() == expected.keys()
        assert all(np.array_equal(got[key], expected[key]) for key in expected)
        with pytest.raises(ConfigError):
            make_position_masks(model, p_embed, p_hidden, new_rng(0), 4)


@pytest.mark.parametrize("variant", ["irnn", "irnn-deep"])
def test_sentence_mask_draws_keep_the_training_log(tiny_vocab, tiny_seqs, tmp_path, monkeypatch,
                                                   variant):
    config = small_config(epochs_fwd_bwd=2, epochs_bidir=2, use_classes=True)

    def run(name):
        fwd, log = train_tagger(tiny_seqs, tiny_seqs, tiny_vocab, config, variant, "fwd")
        bwd, _ = train_tagger(tiny_seqs, tiny_seqs, tiny_vocab, config, variant, "bwd")
        fwd2, _, bilog = train_bidirectional(fwd, bwd, tiny_seqs, tiny_seqs, tiny_vocab, config)
        write_log(log + bilog, tmp_path / name)
        return (tmp_path / name).read_bytes(), fwd2.params

    log, params = run("sentence.log")
    # The epoch's masks, drawn in chunks of sentences, against one draw per
    # mask window per position of each sentence and model in turn.
    monkeypatch.setattr(training, "stream_position_masks",
                        lambda models, p_embed, p_hidden, rng, chunk_bytes, lens: iter(
                            [tuple(_per_position_masks(m, config, rng, n) for m in models)
                             for n in lens]))
    reference_log, reference_params = run("position.log")
    assert log == reference_log
    for name, value in reference_params.items():
        assert np.array_equal(params[name], value)


def test_loss_non_increasing_over_five_epoch_windows():
    train, dev, _ = generate_corpus(50, seed=9)
    vocab = build_vocabulary(train)
    tr = [encode(s, vocab) for s in train]
    dv = [encode(s, vocab) for s in dev]
    config = small_config(epochs_fwd_bwd=8)
    _, log = train_tagger(tr, dv, vocab, config, "irnn", "fwd")
    losses = [e.train_loss for e in log]
    windows = [np.mean(losses[i : i + 5]) for i in range(len(losses) - 4)]
    assert all(b <= a for a, b in zip(windows, windows[1:]))


def test_non_finite_loss_stops_training_and_names_the_epoch(tiny_vocab, tiny_seqs):
    config = small_config()
    word_emb = np.zeros((tiny_vocab.n_words, config.embed_size))
    word_emb[tiny_vocab.words["flights"]] = np.nan
    with pytest.raises(TrainingDivergedError, match="epoch 0"):
        train_tagger(tiny_seqs, tiny_seqs, tiny_vocab, config, "irnn", "fwd",
                     init_word_emb=word_emb)
    assert issubclass(TrainingDivergedError, LabelRnnError)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_loss_stops_bidirectional_fine_tuning(tiny_vocab, tiny_seqs):
    config = small_config(epochs_fwd_bwd=1)
    fwd, _ = train_tagger(tiny_seqs, tiny_seqs, tiny_vocab, config, "irnn", "fwd")
    bwd, _ = train_tagger(tiny_seqs, tiny_seqs, tiny_vocab, config, "irnn", "bwd")
    bwd.params["H"][0, 0] = np.inf
    with pytest.raises(TrainingDivergedError, match="epoch 0"):
        train_bidirectional(fwd, bwd, tiny_seqs, tiny_seqs, tiny_vocab, config)


# -- bidirectional fine-tuning ------------------------------------------------------

def test_bidirectional_requires_forward_first(tiny_vocab, tiny_seqs, small_model_factory):
    bwd = small_model_factory("irnn", "bwd")
    with pytest.raises(ConfigError):
        train_bidirectional(bwd, bwd, tiny_seqs, tiny_seqs, tiny_vocab, small_config())


@pytest.mark.parametrize("bad", ["two forward models", "two vocabularies"])
def test_a_bad_pair_is_refused_before_anything_is_copied_or_built(
        tiny_vocab, tiny_seqs, small_model_factory, monkeypatch, bad):
    fwd = small_model_factory("irnn", "fwd", seed=1)
    if bad == "two forward models":
        other = small_model_factory("irnn", "fwd", seed=2)
        problem = "the pair's second place holds a fwd model, not a bwd one"
    else:
        vocab = build_vocabulary(generate_corpus(20, seed=3)[0])
        other = build_model("irnn", "bwd", vocab, new_rng(2), small_config())
        problem = "forward and backward models use different vocabularies"

    def refused(*args, **kwargs):
        raise AssertionError("a bad pair got past its check")

    monkeypatch.setattr(training, "SgdMomentum", refused)
    monkeypatch.setattr(type(fwd), "__deepcopy__", refused)
    with pytest.raises(ConfigError, match=re.escape(problem)):
        train_bidirectional(fwd, other, tiny_seqs, tiny_seqs, tiny_vocab, small_config())
    with pytest.raises(ConfigError, match=re.escape(problem)):
        tag_batch((fwd, other), tiny_seqs)


def test_bidirectional_never_worse_than_pure_combination(tiny_vocab, tiny_seqs):
    config = small_config(epochs_fwd_bwd=3, epochs_bidir=2)
    fwd, _ = train_tagger(tiny_seqs, tiny_seqs, tiny_vocab, config, "irnn", "fwd")
    bwd, _ = train_tagger(tiny_seqs, tiny_seqs, tiny_vocab, config, "irnn", "bwd")
    golds = [decode_labels(s.labels, tiny_vocab) for s in tiny_seqs]

    def acc(f, b):
        preds = [decode_labels(tag_bidirectional(f, b, s).labels, tiny_vocab)
                 for s in tiny_seqs]
        return reference_token_accuracy(golds, preds)

    base = acc(fwd, bwd)
    fwd2, bwd2, log = train_bidirectional(fwd, bwd, tiny_seqs, tiny_seqs, tiny_vocab, config)
    assert len(log) == config.epochs_bidir
    assert acc(fwd2, bwd2) >= base - 1e-9
    # inputs must be left untouched (fine-tuning works on copies)
    base_again = acc(fwd, bwd)
    assert base_again == base


def test_bidirectional_determinism(tiny_vocab, tiny_seqs):
    config = small_config(epochs_fwd_bwd=2, epochs_bidir=2)
    fwd, _ = train_tagger(tiny_seqs, tiny_seqs, tiny_vocab, config, "irnn", "fwd")
    bwd, _ = train_tagger(tiny_seqs, tiny_seqs, tiny_vocab, config, "irnn", "bwd")
    f1, b1, log1 = train_bidirectional(fwd, bwd, tiny_seqs, tiny_seqs, tiny_vocab, config)
    f2, b2, log2 = train_bidirectional(fwd, bwd, tiny_seqs, tiny_seqs, tiny_vocab, config)
    assert [e.line() for e in log1] == [e.line() for e in log2]
    for name in f1.params:
        assert np.array_equal(f1.params[name], f2.params[name])
        assert np.array_equal(b1.params[name], b2.params[name])


# -- gradient-check harness ---------------------------------------------------------

def test_gradient_check_detects_sign_flip(small_model_factory, tiny_seqs, monkeypatch):
    model = small_model_factory("irnn", d_c=0, use_chars=False)
    real = training.sentence_pass

    def corrupted(models, seq, grads=None, *args, scale=1.0, **kwargs):
        return real(models, seq, grads, *args, scale=-scale, **kwargs)

    monkeypatch.setattr(training, "sentence_pass", corrupted)
    report = gradient_check(model, tiny_seqs[0], rng=new_rng(0), samples_per_tensor=10)
    assert max(report.values()) > 1e-1


def test_gradient_check_epsilon_stability(small_model_factory, tiny_seqs):
    model = small_model_factory("irnn", embed_size=4, hidden_size=6)
    a = gradient_check(model, tiny_seqs[2], epsilon=1e-5, rng=new_rng(1),
                       samples_per_tensor=15)
    b = gradient_check(model, tiny_seqs[2], epsilon=1e-6, rng=new_rng(1),
                       samples_per_tensor=15)
    worst_a, worst_b = max(a.values()), max(b.values())
    assert worst_a < 1e-5 and worst_b < 1e-4
    ratio = max(worst_a, worst_b) / max(min(worst_a, worst_b), 1e-12)
    assert ratio < 100.0  # same order of magnitude, allowing FD noise
