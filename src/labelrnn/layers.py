"""Differentiable building blocks with hand-derived backward passes.

Each forward returns whatever the matching backward needs as a cache.
Gradients w.r.t. an embedding table are reported per window slot, as the
arrays (ids, block); merge_rows sums them into the touched rows.

Every layer takes a stack of rows, one per position, and positions are an
index array. A weight gradient summed over the rows is the product
dPre.T @ X of rank at most the number of rows, and each backward returns it
as the factor pair (dPre, X). _weight_grad is the one place that multiplies
a pair out; the optimizer does so one row block at a time.
"""

import numpy as np

from .errors import DataError
from .mathcore import (
    matmul,
    relu,
    relu_grad,
    sigmoid,
    sigmoid_grad_from_output,
    softmax,
    tanh,
    tanh_grad_from_output,
)


# -- embedding windows --------------------------------------------------

def window_places(lens, lo: int, hi: int) -> np.ndarray:
    """The windows at offsets lo..hi-1 around every position of sequences of
    the given lengths, one row per position in the order of their
    concatenated tokens, as places in that concatenation; total and
    total + 1 stand for the pads before and after a sequence."""
    lens = np.asarray(lens)
    ends = np.cumsum(lens)
    at = np.arange(ends[-1])[:, None] + np.arange(lo, hi)
    first, end = np.repeat(ends - lens, lens)[:, None], np.repeat(ends, lens)[:, None]
    return np.where(at < first, ends[-1], np.where(at < end, at, ends[-1] + 1))


def embed_concat(table: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Concatenate the table rows of each row of indices, in order; row k has
    length indices.shape[1] * table.shape[1]."""
    return table[indices].reshape(len(indices), -1)


def embed_concat_backward(dvec: np.ndarray, indices: np.ndarray, dim: int):
    """Split the gradients over the concatenations back into slots: (ids,
    block), block row k the gradient on the table row ids[k], in slot order."""
    return np.ravel(indices), dvec.reshape(-1, dim)


def merge_rows(ids: np.ndarray, block: np.ndarray):
    """(rows, summed): the distinct ids, ascending, and a new array whose row
    k sums the block rows of id rows[k]. One flat np.bincount over (row,
    coordinate) bins adds them one by one in slot order from zero, so each
    sum is the sequential one, bit for bit; a pairwise sum such as
    np.add.reduceat's rounds differently where a row fills three or more slots."""
    inverse = np.bincount(ids)  # the counts, then each row's place in rows
    rows = inverse.nonzero()[0]
    inverse[rows] = np.arange(len(rows))
    dim = block.shape[1]
    bins = (inverse[ids] * dim)[:, None] + np.arange(dim)
    return rows, np.bincount(bins.ravel(), weights=block.ravel()).reshape(len(rows), dim)


def _weight_grad(d, x, out=None):
    """The weight gradient of the factor pair (d, x), the sum over rows of
    outer(d_row, x_row), into out if given: one GEMM, or np.outer for a
    single row (a GEMM with k=1 is several times slower)."""
    if len(d) == 1:
        return np.outer(d, x, out=out)
    return np.matmul(d.T, x, out=out)


# -- relu hidden layer ---------------------------------------------------

def relu_hidden_forward(W: np.ndarray, b: np.ndarray, x: np.ndarray):
    pre = matmul(x, W.T) + b
    return relu(pre), pre


def relu_hidden_backward(W: np.ndarray, x: np.ndarray, pre: np.ndarray, dh: np.ndarray):
    """Returns (dW, db, dx) for h = relu(W x + b); dW is the factor pair
    (dpre, x), and dW and db sum over rows."""
    dpre = dh * relu_grad(pre)
    return (dpre, x), dpre.sum(axis=0), dpre @ W


# -- GRU hidden layer -----------------------------------------------------

def gru_step(W_zr, W_h, h_prev, pre):
    """One GRU step from h_prev, one state or one row per sequence.

    W_zr is [W_z; W_r].T and W_h is W_h.T; pre holds the input terms
    U x + b of the update gate, the reset gate and the candidate side by
    side, pre_zr then pre_h:

    z|r = sig(h_prev [W_z; W_r].T + pre_zr)
    hc = tanh((r * h_prev) W_h.T + pre_h)
    h = (1 - z) * h_prev + z * hc

    Returns (h, zr, hc), zr holding z and r side by side. Every sum and
    product is the one the formulas name, in their order; the in-place steps
    write only over arrays this call made, so they round as the formulas do.
    """
    hid = W_h.shape[0]
    zr = h_prev @ W_zr
    zr += pre[..., : 2 * hid]
    zr = sigmoid(zr)
    hc = (zr[..., hid:] * h_prev) @ W_h
    hc += pre[..., 2 * hid :]
    hc = tanh(hc)
    z = zr[..., :hid]
    h = 1.0 - z
    h *= h_prev
    h += z * hc
    return h, zr, hc


def gru_forward(params: dict, x: np.ndarray, h_prev: np.ndarray):
    """GRU steps (gru_step) over the rows of x, consecutive steps of one
    sequence, from the state h_prev.

    U x comes from one GEMM per gate over all steps, so only the W h
    products run step by step. h and every cached array hold one row per
    step; the cache's h_prev row t is the state step t started from, and
    its zr row t holds z and r side by side.
    """
    n, hid = len(x), len(h_prev)
    pre = np.empty((n, 3 * hid))
    for k, (U, b) in enumerate((("U_z", "b_z"), ("U_r", "b_r"), ("U_h", "b_c"))):
        np.add(matmul(x, params[U].T), params[b], out=pre[:, k * hid : (k + 1) * hid])
    W_zr, W_h = np.concatenate([params["W_z"], params["W_r"]]).T, params["W_h"].T
    hs = np.empty((n + 1, hid))
    hs[0] = h_prev
    zr, hc = np.empty((n, 2 * hid)), np.empty((n, hid))
    for t in range(n):
        hs[t + 1], zr[t], hc[t] = gru_step(W_zr, W_h, hs[t], pre[t])
    return hs[1:], {"x": x, "h_prev": hs[:-1], "zr": zr, "hc": hc}


def gru_backward(params: dict, cache: dict, dh: np.ndarray):
    """Backpropagation through time over the steps of gru_forward; row t of
    dh is the gradient on step t's h.

    The factors each step multiplies by are computed for all steps first, so
    the loop, last step first, does only the work that needs the gradient
    flowing back from the step after it: two W products and the
    element-wise products around them, each written into an array made
    before the loop. Returns (grads, dx, dh_prev); grads keys mirror the
    parameter dict, each weight gradient a factor pair over all steps, and
    dh_prev is the gradient on the initial state.
    """
    x, h_prev, zr, hc = (cache[k] for k in ("x", "h_prev", "zr", "hc"))
    n, hid = hc.shape
    z, r = zr[:, :hid], zr[:, hid:]
    # per step: da_z = g * f_z, da_c = g * f_c, da_r = (da_c W_h) * f_r
    s = sigmoid_grad_from_output(zr)
    f_z = (hc - h_prev) * s[:, :hid]
    f_c = z * tanh_grad_from_output(hc)
    f_r = h_prev * s[:, hid:]
    keep = 1.0 - z
    W_zr, W_h = np.concatenate([params["W_z"], params["W_r"]]), params["W_h"]
    da_zr, da_c = np.empty((n, 2 * hid)), np.empty((n, hid))
    g, drh, term, dh_prev = np.empty(hid), np.empty(hid), np.empty(hid), np.zeros(hid)
    for t in reversed(range(n)):
        np.add(dh[t], dh_prev, out=g)
        np.multiply(g, f_z[t], out=da_zr[t, :hid])
        np.multiply(g, f_c[t], out=da_c[t])
        np.matmul(da_c[t], W_h, out=drh)
        np.multiply(drh, f_r[t], out=da_zr[t, hid:])
        # dh_prev = g * keep + drh * r + da_zr W_zr, summed in that order
        np.multiply(g, keep[t], out=dh_prev)
        dh_prev += np.multiply(drh, r[t], out=term)
        dh_prev += np.matmul(da_zr[t], W_zr, out=term)
    da_z, da_r = da_zr[:, :hid], da_zr[:, hid:]

    grads = {
        "W_z": (da_z, h_prev),
        "U_z": (da_z, x),
        "b_z": da_z.sum(axis=0),
        "W_r": (da_r, h_prev),
        "U_r": (da_r, x),
        "b_r": da_r.sum(axis=0),
        "W_h": (da_c, r * h_prev),
        "U_h": (da_c, x),
        "b_c": da_c.sum(axis=0),
    }
    dx = da_z @ params["U_z"]
    dx += da_r @ params["U_r"]
    dx += da_c @ params["U_h"]
    return grads, dx, dh_prev


# -- character convolution + max-pooling ----------------------------------

def char_conv_forward(words, E_ch: np.ndarray, W: np.ndarray,
                      b: np.ndarray, d_c: int, pad_id: int):
    """Sliding linear map over character embeddings, then element-wise max.

    words is a list of words, each an array of character ids. The windows of
    all words (window_places, the words as the sequences) go through one
    GEMM, then each word takes its own max. Output is one row of size
    W.shape[0] per word regardless of word length. The cache records
    per-word, per-output argmax rows for routing the gradient back: the
    first row of the word that equals its maximum or is NaN, as np.argmax's.
    """
    lens = [len(word) for word in words]
    if min(lens) < 1:
        raise DataError("char convolution requires a non-empty word")
    idx = np.concatenate([*words, (pad_id, pad_id)])[window_places(lens, -d_c, d_c + 1)]
    x = embed_concat(E_ch, idx)
    cols = matmul(x, W.T) + b
    starts = np.cumsum(lens) - lens
    hit = (cols == np.repeat(np.maximum.reduceat(cols, starts), lens, axis=0)) | np.isnan(cols)
    best = np.minimum.reduceat(np.where(hit, np.arange(len(cols))[:, None], len(cols)), starts)
    out = cols[best, np.arange(W.shape[0])]
    cache = {"idx": idx, "x": x, "best": best, "dim": E_ch.shape[1]}
    return out, cache


def char_conv_backward(cache: dict, W: np.ndarray, dout: np.ndarray):
    """Returns (dW, db, (ids, block)), dW a factor pair and (ids, block) as
    embed_concat_backward's; gradient flows only through each argmax column."""
    dcols = np.zeros((len(cache["x"]), W.shape[0]))
    dcols[cache["best"], np.arange(W.shape[0])] = dout
    slots = embed_concat_backward(dcols @ W, cache["idx"], cache["dim"])
    return (dcols, cache["x"]), dout.sum(axis=0), slots


# -- softmax output layer ---------------------------------------------------

def output_forward(O: np.ndarray, b: np.ndarray, h: np.ndarray) -> np.ndarray:
    return softmax(matmul(h, O.T) + b)


def output_backward(O: np.ndarray, h: np.ndarray, delta: np.ndarray):
    """Backward for softmax + cross-entropy given delta = y - c at the
    pre-softmax layer. Returns (dO, db, dh); dO is the factor pair
    (delta, h), and dO and db sum over rows."""
    return (delta, h), delta.sum(axis=0), delta @ O
