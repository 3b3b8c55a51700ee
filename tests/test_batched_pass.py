"""The batched sentence passes against the position-by-position reference,
their loss-only calls (the losses the gradient checks differentiate) against
their gradient calls, and the in-place optimizer step against the textbook
update."""

import itertools

import numpy as np
import pytest

from labelrnn.mathcore import new_rng
from labelrnn.models import (
    DIRECTIONS,
    VARIANT_GRU,
    VARIANTS,
    Grads,
    bidirectional_pass,
    combine_bidirectional,
    make_position_masks,
    orient,
    position_backward,
    sentence_pass,
)
from labelrnn.training import SgdMomentum
from reference import reference_forward

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
            grads = Grads()
            loss = sentence_pass(model, oseq, history, grads, masks=masks)
            assert abs(loss - ref_loss) <= RTOL * abs(ref_loss) + ATOL
            # the loss-only call, which the gradient check differentiates
            assert sentence_pass(model, oseq, history, masks=masks) == loss
            dense = grads.to_dense(model)
            _assert_same(dense, reference)
            if recurrent:  # the pass is not the one-step truncation of the chain
                _, truncated = _reference_sentence(model, oseq, history, masks, False)
                assert not np.allclose(dense["W_z"], truncated["W_z"], rtol=1e-3)


def test_sentence_pass_scale_is_the_sentence_average(small_model_factory, tiny_seqs):
    model = small_model_factory("irnn-deep", seed=12)
    oseq = tiny_seqs[0]
    full, scaled = Grads(), Grads()
    sentence_pass(model, oseq, oseq.labels, full)
    sentence_pass(model, oseq, oseq.labels, scaled, scale=1.0 / len(oseq))
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
        got = bidirectional_pass(fwd, bwd, seq, gf, gb, masks=masks)
        assert abs(got - loss) <= RTOL * abs(loss) + ATOL
        assert bidirectional_pass(fwd, bwd, seq, masks=masks) == got
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


@pytest.mark.parametrize("lam,l2_include_all,max_grad_norm,freeze", [
    (0.0, False, 0.0, False),
    (0.05, False, 0.0, False),
    (0.05, True, 0.0, False),
    (0.0, False, 0.5, False),
    (0.05, True, 0.5, False),
    (0.05, False, 0.5, True),
])
def test_in_place_step_matches_textbook(small_model_factory, lam, l2_include_all,
                                        max_grad_norm, freeze):
    model = small_model_factory("irnn-deep", seed=15, use_chars=True)
    opt = SgdMomentum(model, 0.7, lam, l2_include_all=l2_include_all,
                      max_grad_norm=max_grad_norm, freeze_embeddings=freeze)
    params = {name: value.copy() for name, value in model.params.items()}
    velocity = {name: np.zeros_like(value) for name, value in params.items()}
    l2_names = set(opt.l2_names)
    rng = new_rng(16)
    dim = model.embed_size
    for step in range(3):
        # gradient norms on both sides of max_grad_norm
        dense = {name: rng.normal(size=value.shape) * rng.choice([1e-3, 1.0])
                 for name, value in model.params.items() if not name.startswith("E_")}
        rows = {
            # row 4 twice in one sentence: its two vectors are summed, then clipped
            "E_w": [(4, rng.normal(size=dim) * 0.3), (7, rng.normal(size=dim) * 1e-3),
                    (4, rng.normal(size=dim) * 0.3)],
            "E_l": [(1, rng.normal(size=dim))],
        }
        grads = Grads()
        for name, g in dense.items():
            grads.add(name, g.copy())
        for table, pairs in rows.items():
            grads.add_rows(table, pairs)
        opt.step(grads, lr=0.3 - 0.05 * step)
        _textbook_step(params, velocity, {"dense": dense, "rows": rows}, 0.3 - 0.05 * step,
                       0.7, lam, l2_names, l2_include_all, max_grad_norm, freeze)
        for name, value in params.items():
            np.testing.assert_allclose(model.params[name], value, rtol=1e-12, atol=1e-14,
                                       err_msg=name)
