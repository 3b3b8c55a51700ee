"""The batched sentence passes against the position-by-position reference,
their loss-only calls (the losses the gradient checks differentiate) against
their gradient calls, and the in-place optimizer step against the textbook
update."""

import copy
import itertools

import numpy as np
import pytest

import labelrnn.training as training
from labelrnn.layers import _weight_grad
from labelrnn.mathcore import new_rng
from labelrnn.models import (
    DIRECTIONS,
    VARIANT_GRU,
    VARIANTS,
    Grads,
    combine_bidirectional,
    make_position_masks,
    orient,
    position_backward,
    sentence_pass,
)
from labelrnn.training import SgdMomentum
from reference import l2_names, reference_forward

RTOL, ATOL = 1e-10, 1e-12  # float64: only the summation order differs


def _masks(model, n, seed):
    return make_position_masks(model, 0.3, 0.4, new_rng(seed), n)


def _reference_backward(model, caches, deltas, grads, chain):
    """Position-by-position backward, last position first; with chain the
    gradient on each hidden state is passed to the position before it."""
    dh_next = None
    for t in reversed(range(len(caches))):
        dh_prev = position_backward(model, caches[t], deltas[t][None], grads, dh_next=dh_next)
        dh_next = dh_prev if chain else None


def _reference_sentence(model, oseq, history, masks, chain):
    _, ys, caches = reference_forward(model, oseq, history, masks)
    gold = oseq.labels
    loss = -sum(np.log(y[g]) for y, g in zip(ys, gold))
    deltas = [y.copy() for y in ys]
    for delta, g in zip(deltas, gold):
        delta[g] -= 1.0
    grads = Grads()
    _reference_backward(model, caches, deltas, grads, chain)
    return loss, grads.to_dense(model)


def _assert_same(dense, reference):
    assert dense.keys() == reference.keys()
    for name in reference:
        np.testing.assert_allclose(dense[name], reference[name], rtol=RTOL, atol=ATOL,
                                   err_msg=name)


# recurrent: the reference chains the hidden-state gradient through time
CASES = [(v, d, v == VARIANT_GRU) for v, d in itertools.product(VARIANTS, DIRECTIONS)]


@pytest.mark.parametrize("variant,direction,recurrent", CASES)
@pytest.mark.parametrize("dropout", [False, True])
def test_sentence_pass_matches_position_reference(small_model_factory, tiny_seqs,
                                                  variant, direction, recurrent, dropout):
    model = small_model_factory(variant, direction, seed=11, d_c=1,
                                use_classes=True, use_chars=True)
    for i, seq in enumerate(tiny_seqs):
        oseq = orient(seq, direction)
        masks = _masks(model, len(oseq), seed=i) if dropout else None
        # a history that is not the gold labels, as under scheduled sampling
        for history in (oseq.labels, (oseq.labels * 3 + 1) % model.n_labels):
            ref_loss, reference = _reference_sentence(model, oseq, history, masks, recurrent)
            # the reference's loss is against the gold labels whatever the history
            grads, pass_masks = Grads(), None if masks is None else (masks,)
            loss = sentence_pass((model,), seq, (grads,), pass_masks, history)
            assert abs(loss - ref_loss) <= RTOL * abs(ref_loss) + ATOL
            # the loss-only call, which the gradient check differentiates
            assert sentence_pass((model,), seq, masks=pass_masks, history=history) == loss
            dense = grads.to_dense(model)
            _assert_same(dense, reference)
            if recurrent:  # the pass is not the one-step truncation of the chain
                _, truncated = _reference_sentence(model, oseq, history, masks, False)
                assert not np.allclose(dense["W_z"], truncated["W_z"], rtol=1e-3)


def test_sentence_pass_scale_is_the_sentence_average(small_model_factory, tiny_seqs):
    model = small_model_factory("irnn-deep", seed=12)
    oseq = tiny_seqs[0]
    full, scaled = Grads(), Grads()
    sentence_pass((model,), oseq, (full,))
    sentence_pass((model,), oseq, (scaled,), scale=1.0 / len(oseq))
    full_dense, scaled_dense = full.to_dense(model), scaled.to_dense(model)
    for name in full_dense:
        np.testing.assert_allclose(scaled_dense[name], full_dense[name] / len(oseq),
                                   rtol=RTOL, atol=ATOL, err_msg=name)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("dropout", [False, True])
def test_bidirectional_pass_matches_position_reference(small_model_factory, tiny_seqs,
                                                       variant, dropout):
    fwd = small_model_factory(variant, "fwd", seed=13, use_classes=True, use_chars=True)
    bwd = small_model_factory(variant, "bwd", seed=14, use_classes=True, use_chars=True)
    for i, seq in enumerate(tiny_seqs):
        n = len(seq)
        masks = (_masks(fwd, n, seed=i), _masks(bwd, n, seed=10 + i)) if dropout else (None, None)
        of, ob = orient(seq, "fwd"), orient(seq, "bwd")
        _, yf, cf = reference_forward(fwd, of, of.labels, masks[0])
        _, yb, cb = reference_forward(bwd, ob, ob.labels, masks[1])
        loss, deltas_f = 0.0, []
        for t in range(n):
            combined = combine_bidirectional(yf[t], yb[n - 1 - t])
            loss -= np.log(combined[seq.labels[t]])
            delta = 0.5 * combined
            delta[seq.labels[t]] -= 0.5
            deltas_f.append(delta)
        ref_f, ref_b = Grads(), Grads()
        _reference_backward(fwd, cf, deltas_f, ref_f, chain=True)
        _reference_backward(bwd, cb, deltas_f[::-1], ref_b, chain=True)

        gf, gb = Grads(), Grads()
        got = sentence_pass((fwd, bwd), seq, (gf, gb), masks=masks)
        assert abs(got - loss) <= RTOL * abs(loss) + ATOL
        assert sentence_pass((fwd, bwd), seq, masks=masks) == got
        _assert_same(gf.to_dense(fwd), ref_f.to_dense(fwd))
        _assert_same(gb.to_dense(bwd), ref_b.to_dense(bwd))


# -- the in-place optimizer step -------------------------------------------------

def _textbook_step(params, velocity, grads, lr, mu, lam, l2_names, l2_include_all,
                   max_grad_norm, freeze):
    def clip(g):
        norm = np.linalg.norm(g)
        if max_grad_norm > 0.0 and norm > max_grad_norm:
            return g * (max_grad_norm / norm)
        return g

    for name, g in grads["dense"].items():
        total = clip(g)
        if lam > 0.0 and name in l2_names:
            total = total + lam * params[name]
        velocity[name] = mu * velocity[name] - lr * total
        params[name] = params[name] + velocity[name]
    if freeze:
        return
    for table, pairs in grads["rows"].items():
        summed = {}
        for row, vec in pairs:
            summed[row] = summed.get(row, 0.0) + vec
        for row, vec in summed.items():
            g = clip(vec)
            if l2_include_all and lam > 0.0:
                g = g + lam * params[table][row]
            params[table][row] = params[table][row] - lr * g


def _step_factors_whole_and_textbook(model, n, lam, l2_include_all, max_grad_norm, freeze):
    """Three steps of random gradients, the weight gradients as factor pairs
    of n rows, against the same steps with each pair multiplied out and
    against _textbook_step."""
    whole = copy.deepcopy(model)  # stepped with each factor pair multiplied out
    opt, opt_whole = (SgdMomentum(m, 0.7, lam, l2_include_all=l2_include_all,
                                  max_grad_norm=max_grad_norm, freeze_embeddings=freeze)
                      for m in (model, whole))
    params = {name: value.copy() for name, value in model.params.items()}
    velocity = {name: np.zeros_like(value) for name, value in params.items()}
    decayed = l2_names(model.store, l2_include_all)
    rng = new_rng(16)
    dim = model.embed_size
    for step in range(3):
        # gradient norms on both sides of max_grad_norm
        factors = {name: (rng.normal(size=(n, value.shape[0])) * rng.choice([1e-3, 1.0]),
                          rng.normal(size=(n, value.shape[1])))
                   for name, value in model.params.items()
                   if value.ndim == 2 and not name.startswith("E_")}
        dense = {name: rng.normal(size=value.shape) * rng.choice([1e-3, 1.0])
                 for name, value in model.params.items() if value.ndim == 1}
        rows = {
            # row 4 twice in one sentence: its two vectors are summed, then clipped
            "E_w": [(4, rng.normal(size=dim) * 0.3), (7, rng.normal(size=dim) * 1e-3),
                    (4, rng.normal(size=dim) * 0.3)],
            "E_l": [(1, rng.normal(size=dim))],
        }
        grads, grads_whole = Grads(), Grads()
        for name, g in dense.items():
            grads.add(name, g.copy())
            grads_whole.add(name, g.copy())
        for name, (d, x) in factors.items():
            grads.add_factors(name, d, x)
            grads_whole.add(name, _weight_grad(d, x))
        slots = {table: (np.array([row for row, _ in pairs]), np.array([vec for _, vec in pairs]))
                 for table, pairs in rows.items()}
        given = {table: (ids.copy(), block.copy()) for table, (ids, block) in slots.items()}
        for table, (ids, block) in slots.items():
            grads.add_rows(table, ids, block)
            grads_whole.add_rows(table, ids, block)
        # add_rows keeps the arrays it is given
        assert grads.rows["E_w"]["ids"] is slots["E_w"][0]
        assert grads.rows["E_w"]["grad"] is slots["E_w"][1]
        lr = 0.3 - 0.05 * step
        opt.step(grads, lr)
        opt_whole.step(grads_whole, lr)
        for table, (ids, block) in slots.items():  # neither step wrote to an array it was given
            assert np.array_equal(ids, given[table][0]), table
            assert np.array_equal(block, given[table][1]), table
        full = {**dense, **{name: _weight_grad(d, x) for name, (d, x) in factors.items()}}
        _textbook_step(params, velocity, {"dense": full, "rows": rows}, lr,
                       0.7, lam, decayed, l2_include_all, max_grad_norm, freeze)
        for name, value in params.items():
            np.testing.assert_allclose(model.params[name], value, rtol=1e-12, atol=1e-14,
                                       err_msg=name)
            if max_grad_norm == 0.0:
                assert np.array_equal(model.params[name], whole.params[name]), name
            else:  # the clipping norm of a pair comes from its factors
                np.testing.assert_allclose(model.params[name], whole.params[name],
                                           rtol=1e-12, atol=1e-14, err_msg=name)


@pytest.mark.parametrize("lam,l2_include_all,max_grad_norm,freeze", [
    (0.0, False, 0.0, False),
    (0.05, False, 0.0, False),
    (0.05, True, 0.0, False),
    (0.0, False, 0.5, False),
    (0.05, True, 0.5, False),
    (0.05, False, 0.5, True),
])
def test_in_place_step_matches_textbook(small_model_factory, monkeypatch, lam, l2_include_all,
                                        max_grad_norm, freeze):
    # 64-element blocks: most factored tensors here span several blocks, and
    # their row counts are not multiples of the block's
    monkeypatch.setattr(training, "_BLOCK_BYTES", 8 * 64)
    for n in (1, 3):  # rows per factor pair: np.outer, then a GEMM
        model = small_model_factory("irnn-deep", seed=15, use_chars=True)
        _step_factors_whole_and_textbook(model, n, lam, l2_include_all, max_grad_norm, freeze)
    # H2, W_conv and each F_* of one row: a block of one row
    model = small_model_factory("irnn-deep", seed=15, use_chars=True, hidden_size=1,
                                first_level_size=1, conv_size=1)
    _step_factors_whole_and_textbook(model, 3, lam, l2_include_all, max_grad_norm, freeze)


def _spread_block(rng, n, dim):
    """Slot gradients whose magnitudes span many orders, so that the order
    in which a row's slots are added shows in the rounding."""
    return rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-6, 7, size=(n, dim))


def test_two_add_rows_calls_sum_each_row_in_call_then_slot_order(small_model_factory):
    """Two add_rows calls for one table with overlapping ids: to_dense and
    the step merge them into the sum of each row's slots added one by one
    from zero, the first call's slots first, bit for bit."""
    model = small_model_factory("irnn", seed=19)
    rng, dim = new_rng(20), model.embed_size
    calls = [(np.array([4, 7, 4, 1, 4]), _spread_block(rng, 5, dim)),
             (np.array([7, 4, 4, 2]), _spread_block(rng, 4, dim))]
    expected = np.zeros_like(model.params["E_w"])
    for ids, block in calls:
        for row, vec in zip(ids.tolist(), block):
            expected[row] += vec
    grads = Grads()
    for ids, block in calls:
        grads.add_rows("E_w", ids, block)
    assert np.array_equal(grads.to_dense(model)["E_w"], expected)
    before = model.params["E_w"].copy()
    SgdMomentum(model, momentum=0.9, lam=0.0).step(grads, lr=0.5)
    assert np.array_equal(model.params["E_w"], before - 0.5 * expected)


def test_step_with_clipping_and_l2_writes_into_no_given_block(small_model_factory):
    """With clipping and L2 on the tables, the step clips and decays a merged
    copy: every ids array and block it was given stays as it was, whether its
    rows repeat or not, while the tables move."""
    model = small_model_factory("irnn", seed=21, use_classes=True)
    rng, dim = new_rng(22), model.embed_size
    given = {"E_w": (np.array([3, 5, 3]), rng.normal(size=(3, dim)) * 10.0),
             "E_c": (np.array([1, 2]), rng.normal(size=(2, dim)) * 10.0),  # no repeated row
             "E_l": (np.array([1]), rng.normal(size=(1, dim)) * 1e-3)}  # below the clip norm
    grads = Grads()
    for table, (ids, block) in given.items():
        grads.add_rows(table, ids, block)
    copies = copy.deepcopy(given)
    before = copy.deepcopy(model.params)
    SgdMomentum(model, momentum=0.5, lam=0.1, l2_include_all=True,
                max_grad_norm=1.0).step(grads, lr=0.3)
    for table, (ids, block) in given.items():
        assert np.array_equal(ids, copies[table][0]), table
        assert np.array_equal(block, copies[table][1]), table
        assert not np.array_equal(model.params[table], before[table]), table


@pytest.mark.parametrize("variant,direction", itertools.product(VARIANTS, DIRECTIONS))
def test_training_passes_multiply_out_no_weight_gradient(small_model_factory, tiny_seqs,
                                                          variant, direction):
    """Weight gradients reach the step as factor pairs: a pass puts only
    bias gradients, never a weight-sized array, in grads.dense."""
    model = small_model_factory(variant, direction, seed=17, use_classes=True, use_chars=True)
    other = small_model_factory(variant, "bwd" if direction == "fwd" else "fwd", seed=18,
                                use_classes=True, use_chars=True)
    seq = tiny_seqs[0]
    grads = Grads()
    sentence_pass((model,), seq, (grads,), masks=(_masks(model, len(seq), seed=0),))
    fwd, bwd = (model, other) if direction == "fwd" else (other, model)
    grads_f, grads_b = Grads(), Grads()
    sentence_pass((fwd, bwd), seq, (grads_f, grads_b))
    for g in (grads, grads_f, grads_b):
        assert g.dense and all(value.ndim == 1 for value in g.dense.values())
        assert set(g.factors) == l2_names(model.store)
