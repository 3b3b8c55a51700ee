"""Differentiable building blocks with hand-derived backward passes.

Each forward returns whatever the matching backward needs as a cache.
Gradients w.r.t. embedding tables are reported as (row, vector) pairs so
callers can update touched rows sparsely.

Every layer takes a stack of rows, one per position, and a 1-D input is one
row. With a stack each weight gradient is one GEMM over all rows
(dPre.T @ X), summed over the rows.
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

def window_indices(tokens: np.ndarray, t, half: int, pad_left: int, pad_right: int):
    """Token indices for the symmetric window t-half..t+half, padded at edges.

    t is one position (a list is returned) or an array of positions (one
    row of indices per position).
    """
    padded = np.concatenate(([pad_left] * half, tokens, [pad_right] * half)).astype(np.intp)
    return _rows(padded, t, 2 * half + 1)


def label_context_indices(history, t, d_l: int, bol: int):
    """Indices of the d_l previous labels; slots before the sentence hold BOL.

    history[k] is the label at position k < t in processing order. The
    rightmost slot holds the most recent label y_{t-1}. t is one position
    (a list is returned) or an array of positions (one row per position).
    """
    return _rows(np.concatenate(([bol] * d_l, history)).astype(np.intp), t, d_l)


def _rows(padded, t, width):
    """padded[t : t + width] for one position (as a list) or for each of an
    array of positions (as rows of an array)."""
    rows = padded[np.add.outer(t, np.arange(width))]
    return rows if isinstance(t, np.ndarray) else rows.tolist()


def embed_concat(table: np.ndarray, indices) -> np.ndarray:
    """Concatenate table rows in order; length len(indices) * table.shape[1].

    A 2-D indices array gives one concatenation per row.
    """
    rows = table[indices]
    return rows.reshape(len(rows), -1) if rows.ndim == 3 else rows.ravel()


def embed_concat_backward(dvec: np.ndarray, indices, dim: int):
    """Split a gradient over a concatenation back into (row, vector) pairs.

    For a stack of rows (2-D dvec and indices) the slot gradients are summed
    per table row with one np.add.at, so each row appears once.
    """
    if dvec.ndim == 1:
        return [(idx, dvec[k * dim : (k + 1) * dim]) for k, idx in enumerate(indices)]
    rows, inverse = np.unique(np.ravel(indices), return_inverse=True)
    summed = np.zeros((len(rows), dim))
    np.add.at(summed, inverse, dvec.reshape(-1, dim))
    return list(zip(rows.tolist(), summed))


def _weight_grad(d, x):
    """Sum over rows of outer(d_row, x_row): one GEMM for a stack of rows,
    np.outer for a single row (a GEMM with k=1 is several times slower)."""
    if d.ndim == 1 or len(d) == 1:
        return np.outer(d, x)
    return d.T @ x


# -- relu hidden layer ---------------------------------------------------

def relu_hidden_forward(W: np.ndarray, b: np.ndarray, x: np.ndarray):
    pre = matmul(x, W.T) + b
    return relu(pre), pre


def relu_hidden_backward(W: np.ndarray, x: np.ndarray, pre: np.ndarray, dh: np.ndarray):
    """Returns (dW, db, dx) for h = relu(W x + b); dW and db sum over rows."""
    dpre = dh * relu_grad(pre)
    return _weight_grad(dpre, x), np.atleast_2d(dpre).sum(axis=0), dpre @ W


# -- GRU hidden layer -----------------------------------------------------

def _gru_step(params, h_prev, ux_z, ux_r, ux_h):
    z = sigmoid(matmul(params["W_z"], h_prev) + ux_z + params["b_z"])
    r = sigmoid(matmul(params["W_r"], h_prev) + ux_r + params["b_r"])
    hc = tanh(matmul(params["W_h"], r * h_prev) + ux_h + params["b_c"])
    return (1.0 - z) * h_prev + z * hc, z, r, hc


def gru_forward(params: dict, x: np.ndarray, h_prev: np.ndarray):
    """GRU steps over the rows of x from the state h_prev; update/reset gates
    are sigmoid, candidate is tanh.

    z = sig(W_z h_prev + U_z x + b_z)
    r = sig(W_r h_prev + U_r x + b_r)
    hc = tanh(W_h (r * h_prev) + U_h x + b_c)
    h = (1 - z) * h_prev + z * hc

    A 1-D x is one step. For a stack, U x comes from one GEMM per gate over
    all steps and only the W h products run step by step; h and the cache
    then hold one row per step.
    """
    ux = (matmul(x, params["U_z"].T), matmul(x, params["U_r"].T), matmul(x, params["U_h"].T))
    if x.ndim == 1:
        h, z, r, hc = _gru_step(params, h_prev, *ux)
        return h, {"x": x, "h_prev": h_prev, "z": z, "r": r, "hc": hc}
    hs, zs, rs, hcs = [h_prev], [], [], []
    for t in range(len(x)):
        h, z, r, hc = _gru_step(params, hs[-1], ux[0][t], ux[1][t], ux[2][t])
        hs.append(h)
        zs.append(z)
        rs.append(r)
        hcs.append(hc)
    hs = np.array(hs)
    cache = {"x": x, "h_prev": hs[:-1], "z": np.array(zs), "r": np.array(rs), "hc": np.array(hcs)}
    return hs[1:], cache


def _gru_gate_grads(params, z, r, hc, h_prev, dh):
    """Pre-activation gradients of the three gates and dh_prev, per row."""
    dz = dh * (hc - h_prev)
    dhc = dh * z
    dh_prev = dh * (1.0 - z)

    da_c = dhc * tanh_grad_from_output(hc)
    drh = da_c @ params["W_h"]
    dr = drh * h_prev
    dh_prev = dh_prev + drh * r

    da_z = dz * sigmoid_grad_from_output(z)
    da_r = dr * sigmoid_grad_from_output(r)
    dh_prev = dh_prev + da_z @ params["W_z"] + da_r @ params["W_r"]
    return da_z, da_r, da_c, dh_prev


def gru_backward(params: dict, cache: dict, dh: np.ndarray, bptt: bool = False):
    """Backward through GRU steps; row t of dh is the gradient on step t's h.

    Without bptt each step's h_prev is a constant input (one-step
    truncation), so all steps are done at once and dh_prev has one row per
    step. With bptt the rows are consecutive steps of one sequence: each
    step's dh_prev is added to the step before it, and dh_prev is the
    gradient on the initial state. Either way each weight gradient is one
    GEMM over all steps. Returns (grads, dx, dh_prev); grads keys mirror
    the parameter dict.
    """
    x, h_prev, z, r, hc = (np.atleast_2d(cache[k]) for k in ("x", "h_prev", "z", "r", "hc"))
    rows = np.atleast_2d(dh)
    if bptt:
        da_z, da_r, da_c = np.empty_like(z), np.empty_like(z), np.empty_like(z)
        dh_prev = np.zeros(z.shape[1])
        for t in reversed(range(len(rows))):
            da_z[t], da_r[t], da_c[t], dh_prev = _gru_gate_grads(
                params, z[t], r[t], hc[t], h_prev[t], rows[t] + dh_prev
            )
    else:
        da_z, da_r, da_c, dh_prev = _gru_gate_grads(params, z, r, hc, h_prev, rows)

    grads = {
        "W_z": _weight_grad(da_z, h_prev),
        "U_z": _weight_grad(da_z, x),
        "b_z": da_z.sum(axis=0),
        "W_r": _weight_grad(da_r, h_prev),
        "U_r": _weight_grad(da_r, x),
        "b_r": da_r.sum(axis=0),
        "W_h": _weight_grad(da_c, r * h_prev),
        "U_h": _weight_grad(da_c, x),
        "b_c": da_c.sum(axis=0),
    }
    dx = da_z @ params["U_z"] + da_r @ params["U_r"] + da_c @ params["U_h"]
    if dh.ndim == 1:
        return grads, dx[0], dh_prev.reshape(-1)
    return grads, dx, dh_prev


# -- character convolution + max-pooling ----------------------------------

def char_conv_forward(char_ids, E_ch: np.ndarray, W: np.ndarray,
                      b: np.ndarray, d_c: int, pad_id: int):
    """Sliding linear map over character embeddings, then element-wise max.

    char_ids is one word (a 1-D array) or a list of words. The windows of
    all words go through one GEMM, then each word takes its own max. Output
    size is W.shape[0] per word regardless of word length. The cache records
    per-word, per-output argmax columns (first maximum wins on ties) for
    routing the gradient back.
    """
    single = isinstance(char_ids, np.ndarray)
    words = [char_ids] if single else char_ids
    if min(len(word) for word in words) < 1:
        raise DataError("char convolution requires a non-empty word")
    idx = np.concatenate([
        window_indices(word, np.arange(len(word)), d_c, pad_id, pad_id) for word in words
    ])
    x = embed_concat(E_ch, idx)
    cols = matmul(x, W.T) + b
    best, start = [], 0
    for word in words:  # argmax: the first maximum wins on ties
        best.append(start + np.argmax(cols[start : start + len(word)], axis=0))
        start += len(word)
    best = np.array(best)
    out = cols[best, np.arange(W.shape[0])]
    cache = {"idx": idx, "x": x, "best": best, "dim": E_ch.shape[1]}
    return (out[0] if single else out), cache


def char_conv_backward(cache: dict, W: np.ndarray, dout: np.ndarray):
    """Returns (dW, db, embedding row grads); gradient flows only through
    the argmax column of each output coordinate."""
    rows = np.atleast_2d(dout)
    dcols = np.zeros((len(cache["x"]), W.shape[0]))
    dcols[cache["best"], np.arange(W.shape[0])] = rows
    row_grads = embed_concat_backward(dcols @ W, cache["idx"], cache["dim"])
    return _weight_grad(dcols, cache["x"]), rows.sum(axis=0), row_grads


# -- softmax output layer ---------------------------------------------------

def output_forward(O: np.ndarray, b: np.ndarray, h: np.ndarray) -> np.ndarray:
    return softmax(matmul(h, O.T) + b)


def output_backward(O: np.ndarray, h: np.ndarray, delta: np.ndarray):
    """Backward for softmax + cross-entropy given delta = y - c at the
    pre-softmax layer. Returns (dO, db, dh); dO and db sum over rows."""
    return _weight_grad(delta, h), np.atleast_2d(delta).sum(axis=0), delta @ O
