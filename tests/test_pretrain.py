import math

import numpy as np
import pytest

from labelrnn.errors import ConfigError, LabelRnnError, TrainingDivergedError
from labelrnn.mathcore import new_rng
from labelrnn.models import Grads
from labelrnn.pretrain import (
    build_nnlm,
    load_external_embeddings,
    nnlm_backward,
    nnlm_forward,
    nnlm_sequence_pass,
    save_embeddings,
    train_nnlm,
)
from labelrnn.training import _finite_difference_report


def _grads(p, tokens):
    """Dense gradient of one sequence's summed loss, from the training pass."""
    grads = Grads()
    nnlm_sequence_pass(p, tokens, grads)
    return grads.to_dense(p)


def test_context_must_be_positive():
    with pytest.raises(ConfigError):
        build_nnlm(5, 0, context=0)


def test_empty_corpus_rejected():
    with pytest.raises(ConfigError):
        train_nnlm([], 5, 0)


def test_corpus_of_empty_sequences_rejected():
    with pytest.raises(LabelRnnError, match="no positions"):
        train_nnlm([[]], 5, 0)


def test_zero_epochs_rejected():
    with pytest.raises(ConfigError, match="at least one epoch"):
        train_nnlm([[1, 2]], 3, 0, epochs=0)


def test_initial_loss_near_log_vocab_size():
    vocab_size = 7
    p = build_nnlm(vocab_size, 0, context=2, embed_size=8, hidden_size=8, rng=new_rng(0))
    seqs = [list(new_rng(1).integers(1, vocab_size, size=30))]
    avg = nnlm_sequence_pass(p, seqs[0]) / 30
    assert abs(avg - math.log(vocab_size)) < 0.3


def test_gradient_check_on_toy_vocab():
    p = build_nnlm(5, 0, context=2, embed_size=4, hidden_size=6, rng=new_rng(2))
    tokens = [1, 2, 3, 4, 1, 2]
    report = _finite_difference_report(p.params, _grads(p, tokens),
                                       lambda: nnlm_sequence_pass(p, tokens), 1e-5, new_rng(3), 40)
    assert set(report) == {"E_tok", "H", "b_h", "O", "b_o"}
    assert all(err < 1e-5 for err in report.values()), report


@pytest.mark.parametrize("length", [1, 3, 4, 9])  # context 4: shorter, equal, longer
def test_sequence_pass_matches_per_position_reference(length):
    p = build_nnlm(6, 0, context=4, embed_size=5, hidden_size=7, rng=new_rng(5))
    p.params["b_h"] += new_rng(6).normal(scale=0.1, size=7)  # non-zero biases
    p.params["b_o"] += new_rng(7).normal(scale=0.1, size=6)
    tokens = [int(x) for x in new_rng(8).integers(1, 6, size=length)]
    tokens[-1] = tokens[0]  # a repeated token: its embedding rows are summed
    ref, ref_loss = Grads(), 0.0
    for t in range(length):
        y, cache = nnlm_forward(p, tokens, np.array([t]))
        ref_loss -= float(np.log(y[0, tokens[t]]))
        delta = y.copy()
        delta[0, tokens[t]] -= 1.0
        nnlm_backward(p, cache, delta, ref)
    ref = ref.to_dense(p)
    for scale in (1.0, 1.0 / length):
        grads = Grads()
        loss = nnlm_sequence_pass(p, tokens, grads, scale=scale)
        assert loss == pytest.approx(ref_loss, rel=1e-10)
        # the loss-only call, which the gradient check differentiates
        assert nnlm_sequence_pass(p, tokens) == loss
        dense = grads.to_dense(p)
        assert set(dense) == set(ref)
        for name in ref:
            np.testing.assert_allclose(dense[name], scale * ref[name], rtol=1e-10, atol=1e-14,
                                       err_msg=name)


def test_sequence_pass_multiplies_out_no_weight_gradient():
    p = build_nnlm(6, 0, context=2, embed_size=5, hidden_size=7, rng=new_rng(5))
    grads = Grads()
    nnlm_sequence_pass(p, [1, 2, 3, 4], grads)
    assert set(grads.dense) == {"b_h", "b_o"}
    assert all(g.ndim == 1 for g in grads.dense.values())
    assert set(grads.factors) == {"H", "O"}


def test_training_equals_textbook_momentum_updates():
    # Weights and biases: v <- mu*v - lr*g/n, w <- w + v; embedding rows: plain
    # steps. lr decays linearly; rng draws: init, then one permutation per epoch.
    seqs = [[1, 2, 3, 1, 2, 4], [], [3, 3], [2, 4, 1]]
    E, _ = train_nnlm(seqs, 5, 0, context=2, embed_size=3, hidden_size=4, epochs=3,
                      lr0=0.4, momentum=0.6, rng=new_rng(9))
    rng = new_rng(9)
    p = build_nnlm(5, 0, context=2, embed_size=3, hidden_size=4, rng=rng)
    velocity = {name: np.zeros_like(w) for name, w in p.params.items() if name != "E_tok"}
    for epoch in range(3):
        lr = 0.4 * (1 - epoch / 3)
        for si in rng.permutation(len(seqs)):
            if not seqs[si]:
                continue
            g = _grads(p, seqs[si])
            for name, v in velocity.items():
                v[:] = 0.6 * v - lr * g[name] / len(seqs[si])
                p.params[name] += v
            p.params["E_tok"] -= lr * g["E_tok"] / len(seqs[si])
    np.testing.assert_allclose(E, p.params["E_tok"], rtol=1e-10, atol=1e-14)


def test_divergence_raises_naming_the_epoch():
    seqs = [[1, 2, 3, 1, 2] for _ in range(4)]
    with pytest.raises(TrainingDivergedError, match="loss is nan in epoch 1;"):
        train_nnlm(seqs, 4, 0, context=2, embed_size=4, hidden_size=4, epochs=2,
                   lr0=1e6, rng=new_rng(1))


def test_alternating_corpus_learned_to_high_confidence():
    # "a b a b ..." with context 1: the optimal model is the deterministic
    # bigram. Final average cross-entropy below -log(0.99) means the model
    # assigns > 0.99 probability to the alternation on (geometric) average.
    a, b = 1, 2
    seqs = [[a, b] * 10 for _ in range(5)]
    E, losses = train_nnlm(seqs, 3, 0, context=1, embed_size=8, hidden_size=8,
                           epochs=40, lr0=0.5, rng=new_rng(4))
    assert losses[-1] < losses[0]
    assert losses[-1] < -math.log(0.99)
    E2, _ = train_nnlm(seqs, 3, 0, context=1, embed_size=8, hidden_size=8,
                       epochs=40, lr0=0.5, rng=new_rng(4))
    assert np.array_equal(E, E2)  # determinism of the whole procedure


def test_interchangeable_labels_end_close_in_cosine():
    # X and Y occur in identical contexts; Z has its own distinct context
    O, X, Y, Z, Q = 1, 2, 3, 4, 5
    seqs = []
    rng = new_rng(6)
    for _ in range(60):
        which = X if rng.random() < 0.5 else Y
        seqs.append([O, which, which, O])
        seqs.append([Q, Z, Z, Q])
    E, _ = train_nnlm(seqs, 6, 0, context=2, embed_size=10, hidden_size=12,
                      epochs=15, lr0=0.3, rng=new_rng(7))

    def cos(u, v):
        return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

    assert cos(E[X], E[Y]) > cos(E[X], E[Z])
    assert cos(E[X], E[Y]) > cos(E[Y], E[Z])


# -- external embedding files ------------------------------------------------------

def test_full_coverage_load(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("aa 1.0 2.0\nbb 3.0 4.0\n")
    table = np.zeros((2, 2))
    n = load_external_embeddings(path, {"aa": 0, "bb": 1}, table)
    assert n == 2
    assert np.array_equal(table, [[1.0, 2.0], [3.0, 4.0]])


def test_empty_file_leaves_table_unchanged(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("")
    table = new_rng(8).normal(size=(3, 2))
    before = table.copy()
    assert load_external_embeddings(path, {"aa": 0}, table) == 0
    assert np.array_equal(table, before)


def test_partial_coverage_and_unknown_tokens(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("bb 5.0 6.0\nzz 7.0 8.0\n")
    table = np.zeros((2, 2))
    n = load_external_embeddings(path, {"aa": 0, "bb": 1}, table)
    assert n == 1
    assert np.array_equal(table[0], [0.0, 0.0])
    assert np.array_equal(table[1], [5.0, 6.0])


def test_dimension_mismatch_rejected(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("aa 1.0 2.0 3.0\n")
    with pytest.raises(ConfigError):
        load_external_embeddings(path, {"aa": 0}, np.zeros((1, 2)))


def test_save_then_load_round_trip_exact(tmp_path):
    table = new_rng(9).normal(size=(4, 3))
    id_to_token = {0: "a", 1: "b", 2: "c", 3: "d"}
    path = tmp_path / "emb.txt"
    save_embeddings(table, id_to_token, path)
    loaded = np.zeros_like(table)
    n = load_external_embeddings(path, {t: i for i, t in id_to_token.items()}, loaded)
    assert n == 4
    assert np.array_equal(loaded, table)  # repr round-trips float64 exactly
