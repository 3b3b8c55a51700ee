import math

import numpy as np
import pytest

from labelrnn.errors import DataError
from labelrnn.layers import (
    _weight_grad,
    char_conv_backward,
    char_conv_forward,
    embed_concat,
    embed_concat_backward,
    gru_backward,
    gru_forward,
    gru_step,
    merge_rows,
    output_backward,
    output_forward,
    relu_hidden_backward,
    relu_hidden_forward,
)
from labelrnn.mathcore import new_rng
from reference import (
    label_context_indices,
    reference_gru_backward,
    reference_gru_forward,
    reference_gru_step,
    window_indices,
)

BOS, EOS, BOL, CPAD = 90, 91, 92, 0


# -- windows ----------------------------------------------------------------

def _at(t):
    return np.array([t])


def test_word_window_padding_one_word_sentence():
    tokens = np.array([7])
    assert window_indices(tokens, _at(0), 2, BOS, EOS).tolist() == [[BOS, BOS, 7, EOS, EOS]]


def test_word_window_degenerate():
    tokens = np.array([3, 4, 5])
    assert window_indices(tokens, _at(1), 0, BOS, EOS).tolist() == [[4]]


def test_word_window_left_to_right_order():
    tokens = np.array([3, 4, 5, 6, 7])
    assert window_indices(tokens, _at(2), 2, BOS, EOS).tolist() == [[3, 4, 5, 6, 7]]


def test_label_context_layout():
    history = [11, 12]
    # five slots at t=3: three pre-sentence BOL pads, then y1, y2
    assert label_context_indices(history, _at(2), 5, BOL).tolist() == [[BOL, BOL, BOL, 11, 12]]


def test_label_context_empty_history():
    assert label_context_indices([], _at(0), 3, BOL).tolist() == [[BOL, BOL, BOL]]


def test_label_context_single_slot():
    assert label_context_indices([4, 5, 6], _at(3), 1, BOL).tolist() == [[6]]


def test_embed_concat_position_stability():
    rng = new_rng(0)
    table = rng.normal(size=(8, 4))
    idxs = np.array([[1, 3, 5]])
    base = embed_concat(table, idxs)
    table2 = table.copy()
    table2[3] += 1.0  # slot k=1 only
    moved = embed_concat(table2, idxs)
    diff = np.nonzero(moved[0] - base[0])[0]
    assert diff.min() >= 4 and diff.max() < 8


def test_embed_concat_backward_splits_by_slot():
    dvec = np.arange(6.0)[None]
    ids, block = embed_concat_backward(dvec, np.array([[2, 2, 9]]), 2)
    assert ids.tolist() == [2, 2, 9]
    assert np.array_equal(block, np.arange(6.0).reshape(3, 2))
    rows, summed = merge_rows(ids, block)
    # row 2 gets slots 0 and 1, [0, 1] + [2, 3]; row 9 gets slot 2
    assert rows.tolist() == [2, 9]
    assert np.array_equal(summed[0], np.array([2.0, 4.0]))
    assert np.array_equal(summed[1], np.array([4.0, 5.0]))


def test_merge_rows_of_no_slots_is_empty():
    rows, summed = merge_rows(np.zeros(0, dtype=np.intp), np.zeros((0, 3)))
    assert rows.shape == (0,) and summed.shape == (0, 3)


@pytest.mark.parametrize("dim", [24, 200])
def test_embed_concat_backward_sums_each_row_in_slot_order(dim):
    """Each merged row equals, bit for bit, the sum of its slot gradients
    added one by one in slot order from zero. The windows put a row in three
    or more slots: BOS/EOS padding around a short sentence, and one label
    filling the label context. A pairwise or otherwise reordered sum, such
    as np.add.reduceat over the sorted slots, rounds differently and fails
    this."""
    rng = new_rng(7)
    words = window_indices(np.array([5, 6, 5]), np.arange(3), 5, BOS, EOS)  # 11-word windows
    labels = label_context_indices(np.array([4, 4, 4, 4]), np.arange(4), 5, BOL)
    for indices in (words, labels):
        shape = (len(indices), indices.shape[1] * dim)
        # magnitudes over many orders, so that the order of the additions shows;
        # a column slice of a wider array, as a layer's input gradient is
        wide = rng.normal(size=(shape[0], shape[1] + 3))
        wide[:, 1:-2] *= 10.0 ** rng.integers(-6, 7, size=shape)
        dvec = wide[:, 1:-2]
        expected = {}
        for row, vec in zip(np.ravel(indices).tolist(), dvec.reshape(-1, dim)):
            acc = expected.setdefault(row, np.zeros(dim))
            acc += vec
        assert max(np.unique(indices, return_counts=True)[1]) >= 3
        rows, summed = merge_rows(*embed_concat_backward(dvec, indices, dim))
        assert rows.tolist() == sorted(expected)
        for row, vec in zip(rows.tolist(), summed):
            assert np.array_equal(vec, expected[row]), row


# -- relu hidden layer ---------------------------------------------------------

def test_relu_hidden_zero_weights():
    h, _ = relu_hidden_forward(np.zeros((4, 3)), np.zeros(4), np.ones((1, 3)))
    assert np.all(h == 0.0)


def test_relu_hidden_hand_case():
    W = np.array([[1.0, -2.0, 0.5], [0.0, 1.0, -1.0]])
    b = np.array([0.1, -0.2])
    x = np.array([[1.0, 0.5, 2.0]])
    h, pre = relu_hidden_forward(W, b, x)
    # unit 0: 1 - 1 + 1 + 0.1 = 1.1 ; unit 1: 0.5 - 2 - 0.2 = -1.7 -> 0
    assert np.allclose(pre, [[1.1, -1.7]])
    assert np.allclose(h, [[1.1, 0.0]])


def test_relu_hidden_gradient_finite_differences():
    rng = new_rng(1)
    W = rng.normal(size=(5, 7))
    b = rng.normal(size=5)
    x = rng.normal(size=(1, 7))
    v = rng.normal(size=(1, 5))  # loss = v . h

    h, pre = relu_hidden_forward(W, b, x)
    dW, db, dx = relu_hidden_backward(W, x, pre, v)
    dW = _weight_grad(*dW)
    eps = 1e-6

    def loss(W_, b_, x_):
        return float(np.sum(v * relu_hidden_forward(W_, b_, x_)[0]))

    for grad, get, shape in ((dW, lambda p: loss(p, b, x), W),
                             (db, lambda p: loss(W, p, x), b),
                             (dx, lambda p: loss(W, b, p), x)):
        flat_g = grad.reshape(-1)
        flat_w = shape.reshape(-1)
        for c in range(flat_w.size):
            orig = flat_w[c]
            flat_w[c] = orig + eps
            plus = get(shape)
            flat_w[c] = orig - eps
            minus = get(shape)
            flat_w[c] = orig
            fd = (plus - minus) / (2 * eps)
            assert abs(flat_g[c] - fd) / max(abs(fd), 1e-8) < 1e-6


# -- GRU ----------------------------------------------------------------------

def _unit_gru(val=1.0):
    names = ("W_z", "U_z", "W_r", "U_r", "W_h", "U_h")
    params = {n: np.full((1, 1), val) for n in names}
    params.update(b_z=np.zeros(1), b_r=np.zeros(1), b_c=np.zeros(1))
    return params


def test_gru_zero_fixed_point():
    params = {n: np.zeros((1, 1)) for n in ("W_z", "U_z", "W_r", "U_r", "W_h", "U_h")}
    params.update(b_z=np.zeros(1), b_r=np.zeros(1), b_c=np.zeros(1))
    h, cache = gru_forward(params, np.zeros((1, 1)), np.zeros(1))
    assert cache["zr"][0, 0] == 0.5 and cache["zr"][0, 1] == 0.5  # z, then r
    assert cache["hc"][0, 0] == 0.0 and h[0, 0] == 0.0


def test_gru_single_unit_hand_arithmetic():
    params = _unit_gru()
    x, h_prev = np.array([[1.0]]), np.array([0.5])
    h, cache = gru_forward(params, x, h_prev)
    sig = lambda a: 1.0 / (1.0 + math.exp(-a))
    z = sig(0.5 + 1.0)
    r = sig(0.5 + 1.0)
    hc = math.tanh(r * 0.5 + 1.0)
    expected = (1 - z) * 0.5 + z * hc
    assert abs(cache["zr"][0, 0] - z) < 1e-12
    assert abs(cache["hc"][0, 0] - hc) < 1e-12
    assert abs(h[0, 0] - expected) < 1e-12


def test_gru_backward_finite_differences():
    """One step, then steps of one sequence: backpropagation through time,
    down to the gradient on the initial state."""
    rng = new_rng(2)
    dim, xdim = 4, 6
    params = {}
    for gate in ("z", "r", "h"):
        params[f"W_{gate}"] = rng.normal(size=(dim, dim)) * 0.5
        params[f"U_{gate}"] = rng.normal(size=(dim, xdim)) * 0.5
    params["b_z"] = rng.normal(size=dim) * 0.1
    params["b_r"] = rng.normal(size=dim) * 0.1
    params["b_c"] = rng.normal(size=dim) * 0.1
    for steps in (1, 4):
        x = rng.normal(size=(steps, xdim))
        h_prev = rng.normal(size=dim) * 0.5
        v = rng.normal(size=(steps, dim))

        h, cache = gru_forward(params, x, h_prev)
        grads, dx, dh_prev = gru_backward(params, cache, v)
        eps = 1e-6

        def loss():
            return float(np.sum(v * gru_forward(params, x, h_prev)[0]))

        targets = [(name, params[name], _weight_grad(*g) if isinstance(g, tuple) else g)
                   for name, g in grads.items()]
        targets += [("x", x, dx), ("h_prev", h_prev, dh_prev)]
        for name, tensor, grad in targets:
            flat = tensor.reshape(-1)
            flat_g = np.asarray(grad).reshape(-1)
            for c in range(flat.size):
                orig = flat[c]
                flat[c] = orig + eps
                plus = loss()
                flat[c] = orig - eps
                minus = loss()
                flat[c] = orig
                fd = (plus - minus) / (2 * eps)
                assert abs(flat_g[c] - fd) / max(abs(fd), abs(flat_g[c]), 1e-8) < 1e-5, \
                    (steps, name)


@pytest.mark.parametrize("hid,xdim", [(48, 288), (200, 3200)])  # desk and paper widths
def test_gru_rounds_as_the_plain_reference(hid, xdim):
    """gru_forward's states and cache, gru_backward's factor pairs, bias
    gradients, dx and dh_prev, and gru_step on a stack of states (as the
    lockstep decoder runs it) equal reference.py's plain GRU bit for bit."""
    rng = new_rng(31)
    params = {}
    for gate in ("z", "r", "h"):
        params[f"W_{gate}"] = rng.normal(size=(hid, hid)) * 2.0 / np.sqrt(hid)
        params[f"U_{gate}"] = rng.normal(size=(hid, xdim)) * 2.0 / np.sqrt(xdim)
    for name in ("b_z", "b_r", "b_c"):
        params[name] = rng.normal(size=hid) * 0.5
    n = 13
    x, h_prev, dh = rng.normal(size=(n, xdim)), rng.normal(size=hid), rng.normal(size=(n, hid))

    h, cache = gru_forward(params, x, h_prev)
    ref_h, ref = reference_gru_forward(params, x, h_prev)
    assert np.array_equal(h, ref_h)
    assert np.array_equal(cache["h_prev"], ref["h_prev"])
    assert np.array_equal(cache["zr"], np.concatenate([ref["z"], ref["r"]], axis=1))
    assert np.array_equal(cache["hc"], ref["hc"])

    grads, dx, dh_prev = gru_backward(params, cache, dh)
    ref_grads, ref_dx, ref_dh_prev = reference_gru_backward(params, ref, dh)
    assert set(grads) == set(ref_grads)
    for name, want in ref_grads.items():
        got = grads[name]
        for a, b in zip(got, want) if isinstance(want, tuple) else [(got, want)]:
            assert np.array_equal(a, b), name
    assert np.array_equal(dx, ref_dx)
    assert np.array_equal(dh_prev, ref_dh_prev)

    W_zr = np.concatenate([params["W_z"], params["W_r"]]).T
    states, pre = rng.normal(size=(5, hid)), rng.normal(size=(5, 3 * hid)) * 3.0
    got_h, got_zr, got_hc = gru_step(W_zr, params["W_h"].T, states, pre)
    want_h, z, r, want_hc = reference_gru_step(W_zr, params["W_h"].T, states,
                                               pre[:, : 2 * hid], pre[:, 2 * hid :])
    assert np.array_equal(got_h, want_h) and np.array_equal(got_hc, want_hc)
    assert np.array_equal(got_zr, np.concatenate([z, r], axis=1))


# -- character convolution -------------------------------------------------------

def test_char_conv_single_char_word():
    rng = new_rng(3)
    E = rng.normal(size=(6, 3))
    W = rng.normal(size=(4, 3))
    b = rng.normal(size=4)
    out, _ = char_conv_forward([np.array([2])], E, W, b, d_c=0, pad_id=CPAD)
    assert np.allclose(out, [W @ E[2] + b])


def test_char_conv_two_chars_elementwise_max():
    rng = new_rng(4)
    E = rng.normal(size=(6, 3))
    W = rng.normal(size=(4, 3))
    b = np.zeros(4)
    out, _ = char_conv_forward([np.array([1, 5])], E, W, b, d_c=0, pad_id=CPAD)
    assert np.allclose(out, [np.maximum(W @ E[1], W @ E[5])])


def test_char_conv_output_size_independent_of_word_length():
    rng = new_rng(5)
    E = rng.normal(size=(6, 3))
    W = rng.normal(size=(4, 9))
    b = np.zeros(4)
    for length in (1, 3, 8):
        out, _ = char_conv_forward(
            [np.array([1] * length)], E, W, b, d_c=1, pad_id=CPAD
        )
        assert out.shape == (1, 4)


def test_char_conv_empty_word_rejected():
    with pytest.raises(DataError):
        char_conv_forward([np.array([], dtype=np.int64)], np.zeros((2, 2)),
                          np.zeros((2, 2)), np.zeros(2), 0, CPAD)


def test_char_conv_tie_breaks_to_first_column():
    rng = new_rng(6)
    E = rng.normal(size=(6, 3))
    W = rng.normal(size=(4, 3))
    b = np.zeros(4)
    # two identical characters give identical columns: leftmost must win
    _, cache = char_conv_forward([np.array([2, 2])], E, W, b, d_c=0, pad_id=CPAD)
    assert np.all(cache["best"] == 0)


def _per_word_char_conv(words, E, W, b, d_c):
    """char_conv_forward's (out, cache), each word's windows from
    window_indices and its argmax from np.argmax, one word at a time."""
    idx = np.concatenate([window_indices(w, np.arange(len(w)), d_c, CPAD, CPAD) for w in words])
    x = embed_concat(E, idx)
    cols = x @ W.T + b
    starts = np.cumsum([len(w) for w in words]) - [len(w) for w in words]
    best = np.array([start + np.argmax(cols[start : start + len(w)], axis=0)
                     for start, w in zip(starts, words)])
    return cols[best, np.arange(W.shape[0])], {"idx": idx, "x": x, "best": best,
                                              "dim": E.shape[1]}


@pytest.mark.parametrize("d_c", [0, 1, 2])
def test_char_conv_equals_the_per_word_reference_bit_for_bit(d_c):
    """Words of lengths 1-9 in one call. Chars 2 and 3 embed alike and W's
    first row is zero, so windows tie; b's last entry is NaN, a NaN column in
    every word, and char 5 embeds as NaN, so the windows that hold it, in the
    middle of one word and at the end of another, are NaN rows. np.argmax
    takes the first NaN as the maximum."""
    rng = new_rng(11 + d_c)
    E = rng.normal(size=(6, 3))
    E[3] = E[2]
    E[5] = np.nan
    W = rng.normal(size=(5, 3 * (2 * d_c + 1)))
    W[0] = 0.0
    b = rng.normal(size=5)
    b[-1] = np.nan
    lengths = [1, 9, 3, 1, 5, 2, 8, 4, 7, 6, 2, 1]
    words = [rng.integers(1, 5, size=n) for n in lengths]
    words[1][4] = words[6][7] = 5
    words.append(np.array([2, 3, 2, 3, 3]))
    out, cache = char_conv_forward(words, E, W, b, d_c=d_c, pad_id=CPAD)
    want_out, want = _per_word_char_conv(words, E, W, b, d_c)
    assert np.isnan(want_out[:, -1]).all() and not np.isnan(want_out[:, :-1]).all()
    assert np.array_equal(out, want_out, equal_nan=True)
    for key in ("idx", "best"):
        assert cache[key].dtype == want[key].dtype
        assert np.array_equal(cache[key], want[key]), key
    dout = rng.normal(size=out.shape)
    got_back, want_back = char_conv_backward(cache, W, dout), char_conv_backward(want, W, dout)
    for got, expected in zip(
            (*got_back[0], got_back[1], *got_back[2]), (*want_back[0], want_back[1], *want_back[2])):
        assert np.array_equal(got, expected, equal_nan=True)


def test_char_conv_gradient_finite_differences():
    rng = new_rng(7)
    E = rng.normal(size=(6, 3))
    W = rng.normal(size=(4, 9))
    b = rng.normal(size=4)
    chars = [np.array([1, 4, 2])]
    v = rng.normal(size=(1, 4))

    out, cache = char_conv_forward(chars, E, W, b, d_c=1, pad_id=CPAD)
    dW, db, (ids, block) = char_conv_backward(cache, W, v)
    dW = _weight_grad(*dW)
    dE = np.zeros_like(E)
    rows, summed = merge_rows(ids, block)
    dE[rows] += summed
    eps = 1e-6

    def loss():
        return float(np.sum(v * char_conv_forward(chars, E, W, b, d_c=1, pad_id=CPAD)[0]))

    for tensor, grad in ((W, dW), (b, db), (E, dE)):
        flat = tensor.reshape(-1)
        flat_g = grad.reshape(-1)
        for c in range(flat.size):
            orig = flat[c]
            flat[c] = orig + eps
            plus = loss()
            flat[c] = orig - eps
            minus = loss()
            flat[c] = orig
            fd = (plus - minus) / (2 * eps)
            assert abs(flat_g[c] - fd) / max(abs(fd), abs(flat_g[c]), 1e-8) < 1e-5


# -- output layer ------------------------------------------------------------

def test_output_zero_weights_uniform():
    y = output_forward(np.zeros((5, 3)), np.zeros(5), np.ones((1, 3)))
    assert np.allclose(y, 0.2)


def test_output_argmax_shift_invariance():
    rng = new_rng(8)
    O = rng.normal(size=(4, 3))
    h = rng.normal(size=(1, 3))
    y1 = output_forward(O, np.zeros(4), h)
    y2 = output_forward(O, np.full(4, 7.0), h)
    assert np.argmax(y1) == np.argmax(y2)


def test_output_backward_matches_cross_entropy_fd():
    rng = new_rng(9)
    O = rng.normal(size=(4, 3))
    b = rng.normal(size=4)
    h = rng.normal(size=(1, 3))
    gold = 2
    y = output_forward(O, b, h)
    delta = y.copy()
    delta[0, gold] -= 1.0
    dO, db, dh = output_backward(O, h, delta)
    dO = _weight_grad(*dO)
    eps = 1e-6

    def loss():
        return -math.log(output_forward(O, b, h)[0, gold])

    for tensor, grad in ((O, dO), (b, db), (h, dh)):
        flat = tensor.reshape(-1)
        flat_g = grad.reshape(-1)
        for c in range(flat.size):
            orig = flat[c]
            flat[c] = orig + eps
            plus = loss()
            flat[c] = orig - eps
            minus = loss()
            flat[c] = orig
            fd = (plus - minus) / (2 * eps)
            assert abs(flat_g[c] - fd) < 1e-8
