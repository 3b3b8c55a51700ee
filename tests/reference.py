"""References that the library is tested against.

- The window builders the cached layouts are tested against: the window of
  each position from one padded copy of its sequence, a symmetric token
  window (window_indices) or the previous labels (label_context_indices).
- The position-by-position tagger forward that the batched passes and the
  lockstep decoder are tested against: one one-row stack per position, with
  the GRU's hidden state carried from each position to the next.
- The lockstep decoder with a softmax and an argmax of the distributions at
  every step, which the logits-only step loop must equal bit for bit.
- A plain GRU cell, forward and backpropagation through time, written with
  the formulas as first stated, one numpy expression each, so that the
  library's leaner cell can be held to its rounding bit for bit.
- The three-pass scorer: chunk F1, CER and token accuracy each in a pass of
  their own, chunking every sentence once per pass into (concept, start,
  end) tuples, as the library's one-pass evaluate must score bit for bit.
  The invalid-continuation rate comes from a count of its own, position by
  position, that never chunks.
- The line-by-line column-file reader that the whole-text load_column_file
  must agree with: the same sentences, or a ParseError with the same message.
- The per-tensor optimizer step that the arena step must equal bit for bit:
  one update per bias, one per row block of each weight, each with its own
  rate, and one row update per embedding table.
"""

import math
from collections import defaultdict

import numpy as np

from labelrnn.corpus import LABEL_BOL_ID, Sentence, _split_bio, read_lines
from labelrnn.errors import ParseError, ShapeError
from labelrnn.layers import _weight_grad, gru_step, merge_rows, relu_hidden_forward
from labelrnn.mathcore import relu, softmax
from labelrnn.metrics import EvalReport, _check_lengths, edit_distance
from labelrnn.models import (
    VARIANT_DEEP,
    VARIANT_GRU,
    VARIANT_IRNN,
    _group_layout,
    _inputs,
    _label_table,
    _split_input_layer,
    position_forward,
    predict_label,
)


# -- windows -----------------------------------------------------------------

def window_indices(tokens: np.ndarray, t: np.ndarray, half: int, pad_left: int, pad_right: int):
    """Token indices for the symmetric window t-half..t+half, padded at edges;
    one row of indices per position in the array t."""
    padded = np.concatenate(([pad_left] * half, tokens, [pad_right] * half)).astype(np.intp)
    return padded[np.add.outer(t, np.arange(2 * half + 1))]


def label_context_indices(history, t: np.ndarray, d_l: int, bol: int):
    """Indices of the d_l previous labels, one row per position in the array
    t; slots before the sentence hold BOL.

    history[k] is the label at position k < t in processing order. The
    rightmost slot holds the most recent label y_{t-1}.
    """
    padded = np.concatenate(([bol] * d_l, history)).astype(np.intp)
    return padded[np.add.outer(t, np.arange(d_l))]


def reference_forward(model, oseq, history=None, masks=None):
    """Forward over an oriented sequence, one position at a time.

    The label context comes from history, or, when it is None, from the
    model's own greedy predictions, which makes the pass the reference for
    greedy decoding. masks is None (dropout off) or a make_position_masks
    dict with one row per position. Returns (predicted labels, dists with
    one row per position, per-position caches).
    """
    predicted, dists, caches, h_prev = [], [], [], None
    context = predicted if history is None else history
    for t in range(len(oseq)):
        row = None if masks is None else {key: rows[t : t + 1] for key, rows in masks.items()}
        y, cache = position_forward(model, oseq, np.array([t]), context, masks=row, h_prev=h_prev)
        if model.variant == VARIANT_GRU:
            h_prev = cache["h"][0]
        predicted.append(predict_label(y)[0])
        dists.append(y[0])
        caches.append(cache)
    return np.array(predicted, dtype=np.int64), np.array(dists), caches


# -- the lockstep decoder with a softmax at every step ----------------------------

def reference_decode_group(model, oseqs):
    """Greedy decode of oriented sentences, longest first, in lockstep, each
    step ending in the softmax of its rows and predict_label of it. Returns
    (labels, dists) per sentence in processing order."""
    p = model.params
    lens = np.array([len(s) for s in oseqs])
    starts = np.cumsum(lens) - lens
    order = np.argsort(np.arange(lens.sum()) - np.repeat(starts, lens), kind="stable")
    active = (lens > np.arange(lens[0])[:, None]).sum(axis=1)
    bounds = np.concatenate(([0], np.cumsum(active)))
    windows = _group_layout(tuple(lens.tolist()), -model.d_w, model.d_w + 1)[3]
    x = _inputs(model, oseqs, order, windows)[0]

    if model.variant == VARIANT_IRNN:
        term, table = _split_input_layer(model, x, p["H"], p["b_h"])
    elif model.variant == VARIANT_GRU:
        gates = [_split_input_layer(model, x, p[U], p[b])
                 for U, b in (("U_z", "b_z"), ("U_r", "b_r"), ("U_h", "b_c"))]
        term = np.concatenate([g[0] for g in gates], axis=1)
        table = None if model.gru_words_only else np.concatenate([g[1] for g in gates], axis=1)
        W_zr, W_h = np.concatenate([p["W_z"], p["W_r"]]).T, p["W_h"].T
        h = np.zeros((len(oseqs), model.hidden_size))
    else:
        f = model.first_level_size
        blocks = {n: slice(k * f, (k + 1) * f) for k, (n, _) in enumerate(model.input_pieces())}
        term = p["b_2"] + sum(
            relu_hidden_forward(p[f"F_{n}"], p[f"Fb_{n}"], x[n])[0] @ p["H2"][:, blocks[n]].T
            for n in x
        )
        table = _label_table(model, p["F_l"])
        Fb_l, H2_l = p["Fb_l"], p["H2"][:, blocks["l"]].T

    d_l = model.d_l
    slots = np.arange(d_l) * model.n_labels
    O, b_o = p["O"].T, p["b_o"]
    history = np.full((len(oseqs), d_l + lens[0]), LABEL_BOL_ID, dtype=np.intp)
    dists = np.empty((bounds[-1], model.n_labels))
    for t, a in enumerate(active):
        rows = slice(bounds[t], bounds[t + 1])
        pre = term[rows]
        if table is not None:
            s = 0 if model.ablate_label_context else t
            labels = table[history[:a, s : s + d_l] + slots].sum(axis=1)
            if model.variant == VARIANT_DEEP:
                labels = relu(labels + Fb_l) @ H2_l
            pre = pre + labels
        if model.variant == VARIANT_GRU:
            h[:a] = hid = gru_step(W_zr, W_h, h[:a], pre)[0]
        else:
            hid = relu(pre)
        y = dists[rows] = softmax(hid @ O + b_o)
        history[:a, d_l + t] = predict_label(y)
    in_order = np.empty_like(dists)
    in_order[order] = dists
    return [(history[i, d_l : d_l + n].astype(np.int64), in_order[starts[i] : starts[i] + n])
            for i, n in enumerate(lens)]


# -- a plain GRU ---------------------------------------------------------------

def reference_sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def reference_gru_step(W_zr, W_h, h_prev, pre_zr, pre_h):
    """One step; W_zr is [W_z; W_r].T and W_h is W_h.T. Returns (h, z, r, hc)."""
    z, r = np.split(reference_sigmoid(h_prev @ W_zr + pre_zr), 2, axis=-1)
    hc = np.tanh((r * h_prev) @ W_h + pre_h)
    return (1.0 - z) * h_prev + z * hc, z, r, hc


def reference_gru_forward(params, x, h_prev):
    """Steps over the rows of x from h_prev. Returns (h, cache), the cache
    holding one row per step of x, h_prev (the state each step started
    from), z, r and hc."""
    n, hid = len(x), len(h_prev)
    pre_zr = np.concatenate([x @ params["U_z"].T + params["b_z"],
                             x @ params["U_r"].T + params["b_r"]], axis=1)
    pre_h = x @ params["U_h"].T + params["b_c"]
    W_zr, W_h = np.concatenate([params["W_z"], params["W_r"]]).T, params["W_h"].T
    hs = np.empty((n + 1, hid))
    hs[0] = h_prev
    z, r, hc = np.empty((n, hid)), np.empty((n, hid)), np.empty((n, hid))
    for t in range(n):
        hs[t + 1], z[t], r[t], hc[t] = reference_gru_step(W_zr, W_h, hs[t], pre_zr[t], pre_h[t])
    return hs[1:], {"x": x, "h_prev": hs[:-1], "z": z, "r": r, "hc": hc}


def reference_gru_backward(params, cache, dh):
    """Backpropagation through time, last step first. Returns (grads, dx,
    dh_prev): each weight gradient a factor pair (dPre, X) over all steps,
    each bias gradient summed over them."""
    x, h_prev, z, r, hc = (cache[k] for k in ("x", "h_prev", "z", "r", "hc"))
    n, hid = z.shape
    f_z = (hc - h_prev) * (z * (1.0 - z))
    f_c = z * (1.0 - hc * hc)
    f_r = h_prev * (r * (1.0 - r))
    keep = 1.0 - z
    W_zr, W_h = np.concatenate([params["W_z"], params["W_r"]]), params["W_h"]
    da_zr, da_c = np.empty((n, 2 * hid)), np.empty((n, hid))
    dh_prev = np.zeros(hid)
    for t in reversed(range(n)):
        g = dh[t] + dh_prev
        da_zr[t, :hid] = g * f_z[t]
        da_c[t] = g * f_c[t]
        drh = da_c[t] @ W_h
        da_zr[t, hid:] = drh * f_r[t]
        dh_prev = g * keep[t] + drh * r[t] + da_zr[t] @ W_zr
    da_z, da_r = da_zr[:, :hid], da_zr[:, hid:]
    grads = {
        "W_z": (da_z, h_prev), "U_z": (da_z, x), "b_z": da_z.sum(axis=0),
        "W_r": (da_r, h_prev), "U_r": (da_r, x), "b_r": da_r.sum(axis=0),
        "W_h": (da_c, r * h_prev), "U_h": (da_c, x), "b_c": da_c.sum(axis=0),
    }
    dx = da_z @ params["U_z"] + da_r @ params["U_r"] + da_c @ params["U_h"]
    return grads, dx, dh_prev


# -- the three-pass scorer -------------------------------------------------------

def reference_chunks(labels, mode="bio-suffix"):
    """Maximal concept spans as (concept, start, end) tuples, with the
    repair rule: a continuation without a matching begin starts a new
    chunk."""
    chunks = []
    if mode == "plain":
        start = None
        current = None
        for t, label in enumerate(labels):
            if label != current:
                if current is not None and current != "O":
                    chunks.append((current, start, t - 1))
                current, start = label, t
        if current is not None and current != "O":
            chunks.append((current, start, len(labels) - 1))
        return chunks

    open_label = None
    start = None
    for t, label in enumerate(labels):
        concept, tag = _split_bio(label, mode)
        continues = tag == "I" and open_label == concept
        if open_label is not None and not continues:
            chunks.append((open_label, start, t - 1))
            open_label = None
        if tag in ("B", "I") and not continues:
            open_label, start = concept, t
    if open_label is not None:
        chunks.append((open_label, start, len(labels) - 1))
    return chunks


def reference_f1_chunks(gold_seqs, pred_seqs, mode="bio-suffix"):
    _check_lengths(gold_seqs, pred_seqs)
    correct = defaultdict(int)
    hypothesized = defaultdict(int)
    reference = defaultdict(int)
    for gold, pred in zip(gold_seqs, pred_seqs):
        gold_chunks = set(reference_chunks(gold, mode))
        pred_chunks = set(reference_chunks(pred, mode))
        for concept, _, _ in gold_chunks:
            reference[concept] += 1
        for chunk in pred_chunks:
            hypothesized[chunk[0]] += 1
            if chunk in gold_chunks:
                correct[chunk[0]] += 1
    n_correct = sum(correct.values())
    n_hyp = sum(hypothesized.values())
    n_ref = sum(reference.values())
    precision = 100.0 * n_correct / n_hyp if n_hyp else 0.0
    recall = 100.0 * n_correct / n_ref if n_ref else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    per_label = {
        label: (correct[label], hypothesized[label], reference[label])
        for label in set(hypothesized) | set(reference)
    }
    return EvalReport(precision=precision, recall=recall, f1=f1, per_label=per_label)


def reference_concept_error_rate(gold_seqs, pred_seqs, mode="bio-suffix"):
    _check_lengths(gold_seqs, pred_seqs)
    errors = 0
    total_ref = 0
    for gold, pred in zip(gold_seqs, pred_seqs):
        ref = [concept for concept, _, _ in reference_chunks(gold, mode)]
        hyp = [concept for concept, _, _ in reference_chunks(pred, mode)]
        errors += edit_distance(ref, hyp)
        total_ref += len(ref)
    return 100.0 * errors / max(1, total_ref)


def reference_token_accuracy(gold_seqs, pred_seqs):
    _check_lengths(gold_seqs, pred_seqs)
    total = sum(len(g) for g in gold_seqs)
    if total == 0:
        return 0.0
    hits = sum(
        int(g == p) for gold, pred in zip(gold_seqs, pred_seqs) for g, p in zip(gold, pred)
    )
    return 100.0 * hits / total


def reference_invalid_continuations(labels, mode="bio-suffix"):
    """Count 'X-I' positions whose previous label is neither X-B nor X-I;
    plain labels have no continuation tag, so none is invalid there."""
    if mode == "plain":
        return 0
    count = 0
    prev_concept = None
    for label in labels:
        concept, tag = _split_bio(label, mode)
        if tag == "I" and prev_concept != concept:
            count += 1
        prev_concept = concept if tag in ("B", "I") else None
    return count


def reference_evaluate(gold_seqs, pred_seqs, mode="bio-suffix"):
    report = reference_f1_chunks(gold_seqs, pred_seqs, mode)
    report.cer = reference_concept_error_rate(gold_seqs, pred_seqs, mode)
    report.token_accuracy = reference_token_accuracy(gold_seqs, pred_seqs)
    total = sum(len(p) for p in pred_seqs)
    invalid = sum(reference_invalid_continuations(p, mode) for p in pred_seqs)
    report.invalid_rate = 100.0 * invalid / total if total else 0.0
    return report


# -- the line-by-line column-file reader -------------------------------------------

def reference_load_column_file(path, fields=(2, 3)):
    """Sentences of a column file, read one line at a time: a line of
    whitespace only ends a sentence, any other line is split on tabs and
    must have one of the field counts in fields, as many as the first such
    line."""
    sentences, rows, n_fields = [], [], None
    for lineno, line in enumerate(read_lines(path), start=1):
        line = line.rstrip("\n")
        if not line.strip():
            if rows:
                sentences.append(_sentence_from_rows(rows))
                rows = []
            continue
        row = line.split("\t")
        if len(row) not in fields:
            counts = " or ".join(str(n) for n in fields).replace(" or ", ", ", len(fields) - 2)
            raise ParseError(f"{path}:{lineno}: expected {counts} fields, got {len(row)}")
        if n_fields is None:
            n_fields = len(row)
        elif len(row) != n_fields:
            raise ParseError(
                f"{path}:{lineno}: inconsistent field count {len(row)} (file uses {n_fields})"
            )
        rows.append(row)
    if rows:
        sentences.append(_sentence_from_rows(rows))
    return sentences


def _sentence_from_rows(rows):
    if len(rows[0]) == 1:
        return Sentence(words=[r[0] for r in rows])
    if len(rows[0]) == 2:
        return Sentence(words=[r[0] for r in rows], labels=[r[1] for r in rows])
    return Sentence(
        words=[r[0] for r in rows],
        classes=[r[1] for r in rows],
        labels=[r[2] for r in rows],
    )


# -- the per-tensor optimizer step ------------------------------------------------

def _reference_update(w, v, g, mu, rate, decay):
    """v <- mu*v - rate*g - decay*w; w <- w + v, in place, with g as scratch."""
    v *= mu
    v -= np.multiply(g, rate, out=g)
    if decay:
        v -= np.multiply(w, decay, out=g)
    w += v


def l2_names(store, l2_include_all=False) -> set:
    """The tensors that L2 decays: those in the arena's L2 segment, its first
    store.n_weights elements, or with l2_include_all every arena tensor."""
    return {name for name, (offset, _) in store.slots.items()
            if l2_include_all or offset < store.n_weights}


class ReferenceSgdMomentum:
    """SgdMomentum.step one tensor at a time. params maps every name to its
    array and tables every Grads.rows key to its table; velocity holds one
    array per tensor that is not a table. l2_names are the tensors L2 decays.
    A dense gradient is its own scratch; a factor pair is multiplied out
    about block_bytes of rows at a time, where a last single row joins the
    rows before it, and each row block updated on its own."""

    def __init__(self, params, tables, momentum, lam, l2_names, l2_include_all=False,
                 max_grad_norm=0.0, freeze_embeddings=False, block_bytes=256 * 1024):
        self.params, self.tables = params, tables
        self.momentum, self.lam, self.l2_names = momentum, lam, set(l2_names)
        self.l2_include_all, self.max_grad_norm = l2_include_all, max_grad_norm
        self.freeze_embeddings, self.block_bytes = freeze_embeddings, block_bytes
        self.velocity = {name: np.zeros_like(value) for name, value in params.items()
                         if not name.startswith("E_")}

    def _clip_scale(self, norm):
        return self.max_grad_norm / np.maximum(norm, self.max_grad_norm)

    def step(self, grads, lr):
        clip = self.max_grad_norm > 0.0
        decay = lr * self.lam
        for name, g in grads.dense.items():
            w = self.params[name]
            if g.shape != w.shape:
                raise ShapeError(f"gradient shape {g.shape} does not match {name}")
            scale = self._clip_scale(np.linalg.norm(g)) if clip else 1.0
            _reference_update(w, self.velocity[name], g, self.momentum, lr * scale,
                              decay if name in self.l2_names else 0.0)
        for name, (d, x) in grads.factors.items():
            w, v = self.params[name], self.velocity[name]
            if clip:
                norm = math.sqrt(max(float(np.vdot(d @ d.T, x @ x.T)), 0.0))
            rate = lr * (self._clip_scale(norm) if clip else 1.0)
            wd = decay if name in self.l2_names else 0.0
            rows = max(2, self.block_bytes // (8 * w.shape[1]))
            starts = range(0, max(len(w) - 1, 1), rows)
            for lo in starts:
                hi = len(w) if lo == starts[-1] else lo + rows
                g = _weight_grad(d[:, lo:hi], x)
                _reference_update(w[lo:hi], v[lo:hi], g, self.momentum, rate, wd)
        if self.freeze_embeddings:
            return
        for table, slots in grads.rows.items():
            w = self.tables[table]
            rows, g = merge_rows(slots["ids"], slots["grad"])
            if clip:
                g *= self._clip_scale(np.linalg.norm(g, axis=1))[:, None]
            if self.l2_include_all and self.lam > 0.0:
                g += self.lam * w[rows]
            w[rows] -= lr * g
