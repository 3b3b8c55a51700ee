"""Tagger variants assembled from the layer primitives.

Three variants share the same input wiring (word window, optional class
window, label-context window, optional character-convolution feature):

  irnn       relu hidden layer over the full concatenation
  irnn-gru   GRU hidden layer over the same concatenation (a flag restricts
             the GRU input to the word window only)
  irnn-deep  one relu layer per input type, concatenated into a second
             global relu layer

A backward-direction model is the same machinery run on reversed sequences.
"""

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .corpus import (
    CHAR_PAD_ID,
    CLASS_BOS_ID,
    CLASS_EOS_ID,
    LABEL_BOL_ID,
    WORD_BOS_ID,
    WORD_EOS_ID,
    EncodedSequence,
    require_classes,
)
from .errors import ConfigError, ModelIOError, ShapeError
from .layers import (
    char_conv_backward,
    char_conv_forward,
    embed_concat,
    embed_concat_backward,
    gru_backward,
    gru_forward,
    gru_step,
    label_context_indices,
    output_backward,
    output_forward,
    relu_hidden_backward,
    relu_hidden_forward,
    window_indices,
)
from .mathcore import dropout_mask, relu, softmax, xavier_init

VARIANT_IRNN = "irnn"
VARIANT_GRU = "irnn-gru"
VARIANT_DEEP = "irnn-deep"
VARIANTS = (VARIANT_IRNN, VARIANT_GRU, VARIANT_DEEP)

DIR_FWD = "fwd"
DIR_BWD = "bwd"
DIRECTIONS = (DIR_FWD, DIR_BWD)

MODEL_MAGIC = b"LRNN"
MODEL_VERSION = 1


@dataclass
class TaggerOutput:
    """Greedy predictions plus the output distributions, one row per
    position."""

    labels: np.ndarray
    dists: np.ndarray


@dataclass
class TaggerModel:
    variant: str
    direction: str
    d_w: int
    d_l: int
    d_c: int
    embed_size: int
    hidden_size: int
    first_level_size: int
    char_embed_size: int
    conv_size: int
    use_classes: bool
    use_chars: bool
    ablate_label_context: bool
    gru_words_only: bool
    n_words: int
    n_labels: int
    n_classes: int
    n_chars: int
    vocab_hash: int
    params: dict = field(default_factory=dict)

    # -- structural dimensions ----------------------------------------
    @property
    def word_input_dim(self):
        return (2 * self.d_w + 1) * self.embed_size

    @property
    def label_input_dim(self):
        return self.d_l * self.embed_size

    def input_pieces(self):
        """Ordered (name, dim) of the concatenated input at each position."""
        if self.variant == VARIANT_GRU and self.gru_words_only:
            return [("w", self.word_input_dim)]
        pieces = [("w", self.word_input_dim)]
        if self.use_classes:
            pieces.append(("c", self.word_input_dim))
        pieces.append(("l", self.label_input_dim))
        if self.use_chars:
            pieces.append(("ch", self.conv_size))
        return pieces

    @property
    def input_dim(self):
        return sum(dim for _, dim in self.input_pieces())

    def weight_matrix_names(self):
        """Parameters subject to L2: weight matrices, not biases/embeddings."""
        return [
            name
            for name in self.params
            if not name.startswith("E_") and not _is_bias(name)
        ]

    def gru_params(self):
        keys = ("W_z", "U_z", "b_z", "W_r", "U_r", "b_r", "W_h", "U_h", "b_c")
        return {k: self.params[k] for k in keys}


def _is_bias(name: str) -> bool:
    return name.startswith("b_") or name.startswith("Fb_")


def build_model(variant, direction, vocab, rng, *, d_w=5, d_l=5, d_c=0,
                embed_size=200, hidden_size=200, first_level_size=200,
                char_embed_size=30, conv_size=50, use_classes=False,
                use_chars=False, ablate_label_context=False,
                gru_words_only=False) -> TaggerModel:
    """Create a model with Xavier-initialized parameters in a fixed order."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    if direction not in DIRECTIONS:
        raise ConfigError(f"unknown direction {direction!r}")
    model = TaggerModel(
        variant=variant, direction=direction, d_w=d_w, d_l=d_l, d_c=d_c,
        embed_size=embed_size, hidden_size=hidden_size,
        first_level_size=first_level_size, char_embed_size=char_embed_size,
        conv_size=conv_size, use_classes=use_classes, use_chars=use_chars,
        ablate_label_context=ablate_label_context,
        gru_words_only=gru_words_only,
        n_words=vocab.n_words, n_labels=vocab.n_labels,
        n_classes=vocab.n_classes, n_chars=vocab.n_chars,
        vocab_hash=vocab.hash(),
    )
    for name, shape in _param_shapes(model):
        model.params[name] = np.zeros(shape) if len(shape) == 1 else xavier_init(*shape, rng)
    return model


def _param_shapes(model) -> list:
    """(name, shape) of every parameter, in build_model's initialization
    order, from the structural fields alone; 1-D parameters are biases."""
    e, hid, f = model.embed_size, model.hidden_size, model.first_level_size
    shapes = [("E_w", (model.n_words, e)), ("E_l", (model.n_labels, e))]
    if model.use_classes:
        shapes.append(("E_c", (model.n_classes, e)))
    if model.use_chars:
        shapes += [("E_ch", (model.n_chars, model.char_embed_size)),
                   ("W_conv", (model.conv_size, (2 * model.d_c + 1) * model.char_embed_size)),
                   ("b_conv", (model.conv_size,))]
    xdim = model.input_dim
    if model.variant == VARIANT_IRNN:
        shapes += [("H", (hid, xdim)), ("b_h", (hid,))]
    elif model.variant == VARIANT_GRU:
        for gate in ("z", "r", "h"):
            shapes += [(f"W_{gate}", (hid, hid)), (f"U_{gate}", (hid, xdim))]
        shapes += [("b_z", (hid,)), ("b_r", (hid,)), ("b_c", (hid,))]
    else:  # deep: one first-level layer per input piece, then a global layer
        for name, dim in model.input_pieces():
            shapes += [(f"F_{name}", (f, dim)), (f"Fb_{name}", (f,))]
        shapes += [("H2", (hid, f * len(model.input_pieces()))), ("b_2", (hid,))]
    return shapes + [("O", (model.n_labels, hid)), ("b_o", (model.n_labels,))]


# -- gradient accumulation -------------------------------------------------

class Grads:
    """Accumulates dense weight gradients and sparse embedding-row grads."""

    def __init__(self):
        self.dense = {}
        self.rows = {}

    def add(self, name, g):
        """Add g to the gradient of name; the first g is kept, not copied, so
        callers pass arrays they no longer use."""
        if name in self.dense:
            self.dense[name] += g
        else:
            self.dense[name] = g

    def add_rows(self, table, pairs):
        bucket = self.rows.setdefault(table, {})
        for row, vec in pairs:
            if row in bucket:
                bucket[row] = bucket[row] + vec
            else:
                bucket[row] = vec.copy()

    def scale(self, factor: float):
        for g in self.dense.values():
            g *= factor
        for bucket in self.rows.values():
            for row in bucket:
                bucket[row] = bucket[row] * factor

    def to_dense(self, model) -> dict:
        """Full gradient dict with zeros for untouched parameters."""
        out = {}
        for name, value in model.params.items():
            if name in self.dense:
                out[name] = self.dense[name]
            else:
                out[name] = np.zeros_like(value)
        for table, bucket in self.rows.items():
            for row, vec in bucket.items():
                out[table][row] += vec
        return out


# -- forward/backward over a stack of positions -------------------------------

def _masked(vec, mask):
    return vec if mask is None else vec * mask


def position_forward(model, seq, t, history, masks=None, h_prev=None):
    """Forward at the positions in the index array t; history holds previous
    label ids.

    Row k of y, of every cached array and of every mask belongs to position
    t[k]. masks is None at inference, or a dict of inverted-dropout masks
    with keys 'w', 'c', 'l' (embedding concatenations) and 'h' (hidden
    activation). The GRU runs the rows as consecutive steps from h_prev, so
    its positions are consecutive: np.arange(n), or one position.
    """
    p = model.params
    masks = masks or {}
    cache = {"masks": masks}

    widx = window_indices(seq.words, t, model.d_w, WORD_BOS_ID, WORD_EOS_ID)
    cache["widx"] = widx
    cache["x_w"] = _masked(embed_concat(p["E_w"], widx), masks.get("w"))
    if model.use_classes:
        cidx = window_indices(seq.classes, t, model.d_w, CLASS_BOS_ID, CLASS_EOS_ID)
        cache["cidx"] = cidx
        cache["x_c"] = _masked(embed_concat(p["E_c"], cidx), masks.get("c"))
    # An ablated label context is the all-BOL context of the first position.
    lt = 0 * t if model.ablate_label_context else t
    lidx = label_context_indices(history, lt, model.d_l, LABEL_BOL_ID)
    cache["lidx"] = lidx
    cache["x_l"] = _masked(embed_concat(p["E_l"], lidx), masks.get("l"))
    if model.use_chars:
        x_ch, ch_cache = char_conv_forward(
            [seq.chars[i] for i in t], p["E_ch"], p["W_conv"], p["b_conv"], model.d_c, CHAR_PAD_ID
        )
        cache["x_ch"] = x_ch
        cache["ch_cache"] = ch_cache

    pieces = [cache[f"x_{name}"] for name, _ in model.input_pieces()]
    x = np.concatenate(pieces, axis=-1)
    cache["x"] = x

    if model.variant == VARIANT_IRNN:
        h, pre = relu_hidden_forward(p["H"], p["b_h"], x)
        cache["pre"] = pre
    elif model.variant == VARIANT_GRU:
        if h_prev is None:
            h_prev = np.zeros(model.hidden_size)
        h, gcache = gru_forward(model.gru_params(), x, h_prev)
        cache["gcache"] = gcache
    else:
        feats = []
        for name, _ in model.input_pieces():
            f, pre = relu_hidden_forward(p[f"F_{name}"], p[f"Fb_{name}"], cache[f"x_{name}"])
            cache[f"f_{name}"] = f
            cache[f"fpre_{name}"] = pre
            feats.append(f)
        hcat = np.concatenate(feats, axis=-1)
        cache["hcat"] = hcat
        h, pre2 = relu_hidden_forward(p["H2"], p["b_2"], hcat)
        cache["pre2"] = pre2

    cache["h"] = h
    h_drop = _masked(h, masks.get("h"))
    cache["h_drop"] = h_drop
    y = output_forward(p["O"], p["b_o"], h_drop)
    cache["y"] = y
    return y, cache


def _scatter_input_grad(model, cache, dx, grads):
    """Route gradient on the concatenated input back to embedding tables
    (and through the char convolution)."""
    masks = cache["masks"]
    offset = 0
    for name, dim in model.input_pieces():
        piece = dx[..., offset : offset + dim]
        offset += dim
        if name == "ch":
            dW, db, rows = char_conv_backward(cache["ch_cache"], model.params["W_conv"], piece)
            grads.add("W_conv", dW)
            grads.add("b_conv", db)
            grads.add_rows("E_ch", rows)
            continue
        mask = masks.get(name)
        if mask is not None:
            piece = piece * mask
        table = {"w": "E_w", "c": "E_c", "l": "E_l"}[name]
        idxs = cache[{"w": "widx", "c": "cidx", "l": "lidx"}[name]]
        grads.add_rows(table, embed_concat_backward(piece, idxs, model.embed_size))


def position_backward(model, cache, delta, grads, dh_next=None):
    """Backward of position_forward given delta = (y - c) at the pre-softmax
    layer, one row per position; every weight gradient is one GEMM over the
    rows. The GRU backpropagates through time, with dh_next added to the
    gradient on the last step's h; returns the gradient w.r.t. the initial
    hidden state (GRU only).
    """
    p = model.params
    dO, db_o, dh = output_backward(p["O"], cache["h_drop"], delta)
    grads.add("O", dO)
    grads.add("b_o", db_o)
    mask_h = cache["masks"].get("h")
    if mask_h is not None:
        dh = dh * mask_h

    if model.variant == VARIANT_IRNN:
        dH, db_h, dx = relu_hidden_backward(p["H"], cache["x"], cache["pre"], dh)
        grads.add("H", dH)
        grads.add("b_h", db_h)
        _scatter_input_grad(model, cache, dx, grads)
        return None
    if model.variant == VARIANT_GRU:
        if dh_next is not None:
            dh[-1] += dh_next
        ggrads, dx, dh_prev = gru_backward(model.gru_params(), cache["gcache"], dh)
        for name, g in ggrads.items():
            grads.add(name, g)
        _scatter_input_grad(model, cache, dx, grads)
        return dh_prev

    dH2, db_2, dhcat = relu_hidden_backward(p["H2"], cache["hcat"], cache["pre2"], dh)
    grads.add("H2", dH2)
    grads.add("b_2", db_2)
    offset = 0
    dx_pieces = []
    for name, dim in model.input_pieces():
        df = dhcat[..., offset : offset + model.first_level_size]
        offset += model.first_level_size
        dF, dFb, dxp = relu_hidden_backward(
            p[f"F_{name}"], cache[f"x_{name}"], cache[f"fpre_{name}"], df
        )
        grads.add(f"F_{name}", dF)
        grads.add(f"Fb_{name}", dFb)
        dx_pieces.append(dxp)
    _scatter_input_grad(model, cache, np.concatenate(dx_pieces, axis=-1), grads)
    return None


# -- sequence-level passes -----------------------------------------------

def orient(seq: EncodedSequence, direction: str) -> EncodedSequence:
    """Processing-order view: backward models consume reversed sequences."""
    if direction == DIR_FWD:
        return seq
    return EncodedSequence(
        words=seq.words[::-1].copy(),
        classes=None if seq.classes is None else seq.classes[::-1].copy(),
        chars=list(reversed(seq.chars)),
        labels=None if seq.labels is None else seq.labels[::-1].copy(),
    )


def predict_label(y: np.ndarray) -> np.ndarray:
    """Argmax over real labels of each row of y; the reserved BOL context
    label (index 0) is never predicted since it never appears as a training
    target."""
    if y.shape[1] == 1:
        return np.zeros(len(y), dtype=np.int64)
    return np.argmax(y[:, 1:], axis=1) + 1


def make_position_masks(model, p_embed, p_hidden, rng, n):
    """Fresh inverted-dropout masks (training mode) for n positions, row t
    for position t.

    All masks come from one draw: per position the masks w, c, l and h, then
    the next position. PCG64 hands out consecutive doubles, so this is the
    stream of one draw per mask per position. A mask whose keep probability
    rounds to 1 is left out, as multiplying by it would change nothing.
    """
    pieces = []
    keep = 1.0 - p_embed
    if keep < 1.0:
        pieces.append(("w", model.word_input_dim, keep))
        if model.use_classes:
            pieces.append(("c", model.word_input_dim, keep))
        pieces.append(("l", model.label_input_dim, keep))
    keep = 1.0 - p_hidden
    if keep < 1.0:
        pieces.append(("h", model.hidden_size, keep))
    if not pieces:
        return {}
    keeps = np.concatenate([np.full(dim, k) for _, dim, k in pieces])
    drawn = dropout_mask((n, len(keeps)), keeps, rng)
    masks, start = {}, 0
    for key, dim, _ in pieces:
        masks[key] = drawn[:, start : start + dim]
        start += dim
    return masks


# -- greedy decoding ---------------------------------------------------------
# The label context enters one layer (H, F_l, or the GRU's U matrices) as a
# sum over the d_l slots of W_slot @ E_l[y]. Decoding therefore precomputes
# one (n_labels x width) table per slot, computes every input term that does
# not depend on labels for all positions at once, and steps the sentences of a
# group together: a table lookup, the layers above it and an argmax per step.

# Sentences decoded in lockstep at most; bounds the transient arrays of a call.
DECODE_GROUP = 32


def _label_table(model, W):
    """Row k * n_labels + y is E_l[y] @ W_k.T, where W_k holds the columns of
    W that see label slot k and W's label columns come first."""
    rows, e = W.shape[0], model.embed_size
    W_l = W[:, : model.d_l * e].reshape(rows, model.d_l, e).transpose(1, 2, 0)
    return (model.params["E_l"] @ W_l).reshape(-1, rows)


def _split_input_layer(model, x, W, b):
    """(label-free term, label table) of W @ input + b over the concatenated
    input: the term has one row per row of the pieces in x, and the table is
    None without a label piece."""
    term, table, start = b, None, 0
    for name, dim in model.input_pieces():
        if name == "l":
            table = _label_table(model, W[:, start:])
        else:
            term = term + x[name] @ W[:, start : start + dim].T
        start += dim
    return term, table


# Word and class windows: (sequence field, left pad, right pad, table).
_WINDOWS = {"w": ("words", WORD_BOS_ID, WORD_EOS_ID, "E_w"),
            "c": ("classes", CLASS_BOS_ID, CLASS_EOS_ID, "E_c")}


def _unlabeled_inputs(model, oseqs, order):
    """The input pieces other than the label context at every position of
    oseqs, one row per position in the given order of the concatenated
    positions."""
    p = model.params
    x = {}
    for name, _ in model.input_pieces():
        if name in _WINDOWS:
            tokens, bos, eos, table = _WINDOWS[name]
            idx = np.concatenate([
                window_indices(getattr(s, tokens), np.arange(len(s)), model.d_w, bos, eos)
                for s in oseqs
            ])
            x[name] = embed_concat(p[table], idx[order])
        elif name == "ch":
            chars = [c for s in oseqs for c in s.chars]
            x[name], _ = char_conv_forward([chars[i] for i in order], p["E_ch"], p["W_conv"],
                                           p["b_conv"], model.d_c, CHAR_PAD_ID)
    return x


def _decode_group(model, oseqs):
    """Greedy decode of oriented sentences, longest first, in lockstep.

    Positions are laid out step-major, so the rows of step t are one slice
    and its active sentences a prefix. Returns (labels, dists) per sentence
    in processing order.
    """
    p = model.params
    lens = np.array([len(s) for s in oseqs])
    starts = np.cumsum(lens) - lens
    order = np.argsort(np.arange(lens.sum()) - np.repeat(starts, lens), kind="stable")
    active = (lens > np.arange(lens[0])[:, None]).sum(axis=1)
    bounds = np.concatenate(([0], np.cumsum(active)))
    x = _unlabeled_inputs(model, oseqs, order)

    # Each variant: the label-free input term of the layer that sees labels
    # (biases included) and that layer's label table.
    if model.variant == VARIANT_IRNN:
        term, table = _split_input_layer(model, x, p["H"], p["b_h"])
    elif model.variant == VARIANT_GRU:
        gates = [_split_input_layer(model, x, p[U], p[b])
                 for U, b in (("U_z", "b_z"), ("U_r", "b_r"), ("U_h", "b_c"))]
        term = np.concatenate([g[0] for g in gates], axis=1)
        table = None if model.gru_words_only else np.concatenate([g[1] for g in gates], axis=1)
        zr = 2 * model.hidden_size
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
            # An ablated label context is the all-BOL context of position 0.
            s = 0 if model.ablate_label_context else t
            labels = table[history[:a, s : s + d_l] + slots].sum(axis=1)
            if model.variant == VARIANT_DEEP:
                labels = relu(labels + Fb_l) @ H2_l
            pre = pre + labels
        if model.variant == VARIANT_GRU:
            h[:a] = hid = gru_step(W_zr, W_h, h[:a], pre[:, :zr], pre[:, zr:])[0]
        else:
            hid = relu(pre)
        y = dists[rows] = softmax(hid @ O + b_o)
        history[:a, d_l + t] = predict_label(y)
    in_order = np.empty_like(dists)
    in_order[order] = dists
    return [(history[i, d_l : d_l + n].astype(np.int64), in_order[starts[i] : starts[i] + n])
            for i, n in enumerate(lens)]


def tag_greedy_batch(model: TaggerModel, seqs) -> list:
    """Greedy decode of each sequence; the label context holds the model's
    own predictions. Sentences are sorted by length and decoded in lockstep
    groups of at most DECODE_GROUP. Distributions agree with a
    position-by-position greedy pass up to rounding, which can depend on the
    group a sentence falls in, so labels equal its labels unless two labels
    tie within rounding. A model that reads word classes needs every
    sequence's class column."""
    require_classes(seqs, model)
    outs = [None] * len(seqs)
    by_length = sorted(range(len(seqs)), key=lambda i: -len(seqs[i]))
    for g in range(0, len(by_length), DECODE_GROUP):
        members = [i for i in by_length[g : g + DECODE_GROUP] if len(seqs[i])]
        if not members:
            break
        decoded = _decode_group(model, [orient(seqs[i], model.direction) for i in members])
        for i, (labels, dists) in zip(members, decoded):
            if model.direction == DIR_BWD:
                labels, dists = labels[::-1].copy(), dists[::-1]
            outs[i] = TaggerOutput(labels=labels, dists=dists)
    return [out or TaggerOutput(np.zeros(0, dtype=np.int64), np.zeros((0, model.n_labels)))
            for out in outs]


def tag_greedy(model: TaggerModel, seq: EncodedSequence) -> TaggerOutput:
    """Greedy decode of one sequence: tag_greedy_batch of one."""
    return tag_greedy_batch(model, [seq])[0]


def _cross_entropy(y, gold, rows):
    return float(-np.log(np.maximum(y[rows, gold], 1e-300)).sum())


def sentence_pass(model, oseq, history, grads=None, masks=None, scale=1.0) -> float:
    """Summed cross-entropy of one oriented sentence from one batched pass;
    given grads, it adds scale times its gradient to them, chained through
    time for the GRU.

    Row t of every array is position t, and the label context comes from
    history (the gold labels under teacher forcing). masks is None or a
    make_position_masks dict with one row per position.
    """
    rows = np.arange(len(oseq))
    y, cache = position_forward(model, oseq, rows, history, masks=masks)
    loss = _cross_entropy(y, oseq.labels, rows)
    if grads is not None:
        delta = y * scale
        delta[rows, oseq.labels] -= scale
        position_backward(model, cache, delta, grads)
    return loss


def sequence_grads(model, seq) -> dict:
    """Exact dense gradient of the teacher-forced sentence loss (dropout off)
    w.r.t. every parameter tensor, from the batched pass that training runs.

    For the GRU variant the gradient is chained through the hidden state
    across all steps; for the feed-forward variants positions are independent
    under teacher forcing.
    """
    oriented = orient(seq, model.direction)
    grads = Grads()
    sentence_pass(model, oriented, oriented.labels, grads)
    return grads.to_dense(model)


# -- bidirectional combination ----------------------------------------------

def combine_bidirectional(yf: np.ndarray, yb: np.ndarray) -> np.ndarray:
    """Element-wise geometric mean of two distributions, renormalized.

    Renormalization is a positive scalar multiple, so the argmax matches the
    unnormalized combination.
    """
    if yf.shape != yb.shape:
        raise ShapeError(f"cannot combine distributions of shapes {yf.shape} and {yb.shape}")
    unnorm = np.sqrt(yf * yb)
    total = unnorm.sum(axis=-1, keepdims=True)
    return np.divide(unnorm, total, out=unnorm, where=total != 0.0)


def bidirectional_pass(fwd, bwd, seq, grads_f=None, grads_b=None, masks=(None, None),
                       scale=1.0) -> float:
    """Summed cross-entropy of the combined (renormalized) distribution of a
    forward and a backward model over one sentence, from one teacher-forced
    batched pass. Its gradient at each branch's pre-softmax layer is
    (combined - onehot)/2; given grads_f and grads_b, scale times each
    model's gradient is added to its grads, chained through time for the GRU.
    masks holds each model's make_position_masks dict with one row per
    position, or None.
    """
    rows = np.arange(len(seq))
    rev = orient(seq, DIR_BWD)
    yf, cache_f = position_forward(fwd, seq, rows, seq.labels, masks=masks[0])
    yb, cache_b = position_forward(bwd, rev, rows, rev.labels, masks=masks[1])
    combined = combine_bidirectional(yf, yb[::-1])
    loss = _cross_entropy(combined, seq.labels, rows)
    if grads_f is not None:
        delta = combined * (0.5 * scale)
        delta[rows, seq.labels] -= 0.5 * scale
        position_backward(fwd, cache_f, delta, grads_f)
        position_backward(bwd, cache_b, delta[::-1], grads_b)
    return loss


def tag_bidirectional_batch(fwd: TaggerModel, bwd: TaggerModel, seqs) -> list:
    """Bidirectional decode of each sequence: the greedy outputs of both
    models combined per position, then the argmax of the combination."""
    if fwd.direction != DIR_FWD or bwd.direction != DIR_BWD:
        raise ConfigError("tag_bidirectional requires a forward and a backward model")
    if fwd.vocab_hash != bwd.vocab_hash:
        raise ConfigError("forward and backward models use different vocabularies")
    outs = []
    for of, ob in zip(tag_greedy_batch(fwd, seqs), tag_greedy_batch(bwd, seqs)):
        dists = combine_bidirectional(of.dists, ob.dists)
        outs.append(TaggerOutput(labels=predict_label(dists), dists=dists))
    return outs


def tag_bidirectional(fwd: TaggerModel, bwd: TaggerModel, seq) -> TaggerOutput:
    """Bidirectional decode of one sequence: tag_bidirectional_batch of one."""
    return tag_bidirectional_batch(fwd, bwd, [seq])[0]


# -- model file format --------------------------------------------------------
# magic, version u32, variant u8, direction u8, flags u8, vocab hash u64,
# twelve u32 structural fields, shape table, little-endian float64 payloads.

_INT_FIELDS = (
    "d_w", "d_l", "d_c", "embed_size", "hidden_size", "first_level_size",
    "char_embed_size", "conv_size", "n_words", "n_labels", "n_classes", "n_chars",
)
_FLAG_FIELDS = ("use_classes", "use_chars", "ablate_label_context", "gru_words_only")
_HEADER = "BBBQ12I"  # variant, direction, flags, vocab hash, the _INT_FIELDS


def save_model(model: TaggerModel, path):
    flags = sum(1 << i for i, name in enumerate(_FLAG_FIELDS) if getattr(model, name))
    out = bytearray(MODEL_MAGIC + struct.pack(
        "<I" + _HEADER, MODEL_VERSION, VARIANTS.index(model.variant),
        DIRECTIONS.index(model.direction), flags, model.vocab_hash,
        *(getattr(model, name) for name in _INT_FIELDS)))
    names = sorted(model.params)
    out += struct.pack("<I", len(names))
    for name in names:
        encoded, shape = name.encode("utf-8"), model.params[name].shape
        out += struct.pack(f"<H{len(encoded)}sI{len(shape)}I", len(encoded), encoded, len(shape), *shape)
    for name in names:
        out += np.ascontiguousarray(model.params[name], dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(out))


def load_model(path) -> TaggerModel:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return _parse_model(data)
    except ModelIOError as exc:
        raise ModelIOError(f"{path}: {exc}") from None
    except (struct.error, IndexError, ValueError) as exc:
        raise ModelIOError(f"corrupt or truncated model file {path}: {exc}") from None


def _parse_model(data: bytes) -> TaggerModel:
    if data[:4] != MODEL_MAGIC:
        raise ModelIOError("not a model file (bad magic bytes)")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != MODEL_VERSION:
        raise ModelIOError(f"unsupported model format version {version}")
    variant_b, direction_b, flags, vocab_hash, *ints = struct.unpack_from("<" + _HEADER, data, 8)
    offset = 8 + struct.calcsize("<" + _HEADER)
    kwargs = dict(zip(_INT_FIELDS, ints))
    kwargs.update((name, bool(flags >> i & 1)) for i, name in enumerate(_FLAG_FIELDS))
    model = TaggerModel(
        variant=VARIANTS[variant_b], direction=DIRECTIONS[direction_b],
        vocab_hash=vocab_hash, **kwargs,
    )
    (n_tensors,) = struct.unpack_from("<I", data, offset)
    offset += 4
    shapes = []
    for _ in range(n_tensors):
        (name_len,) = struct.unpack_from("<H", data, offset)
        name = data[offset + 2 : offset + 2 + name_len].decode("utf-8")
        offset += 2 + name_len
        (ndim,) = struct.unpack_from("<I", data, offset)
        shapes.append((name, struct.unpack_from(f"<{ndim}I", data, offset + 4)))
        offset += 4 + 4 * ndim
    got, implied = dict(shapes), dict(_param_shapes(model))
    if len(got) != len(shapes):
        raise ModelIOError("a tensor name is repeated")
    for name in sorted(got.keys() | implied.keys()):
        if got.get(name) != implied.get(name):
            raise ModelIOError(f"tensor {name} is {got.get(name, 'missing')}, "
                               f"the header implies {implied.get(name, 'no such tensor')}")
    expected = offset + sum(8 * math.prod(s) for _, s in shapes)
    if len(data) != expected:
        raise ModelIOError(f"payload size mismatch: expected {expected} bytes, file has {len(data)}")
    for name, shape in shapes:
        count = math.prod(shape)
        arr = np.frombuffer(data, dtype="<f8", count=count, offset=offset).reshape(shape)
        if not np.isfinite(arr).all():
            raise ModelIOError(f"tensor {name} holds a non-finite value")
        model.params[name] = arr.astype(np.float64)
        offset += 8 * count
    return model
