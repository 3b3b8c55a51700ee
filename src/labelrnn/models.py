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

import functools
import math
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .corpus import (
    CHAR_PAD_ID,
    CLASS_BOS_ID,
    CLASS_EOS_ID,
    LABEL_BOL_ID,
    WORD_BOS_ID,
    WORD_EOS_ID,
    EncodedSequence,
    open_output,
    require_inputs,
)
from .errors import ConfigError, ModelIOError, ShapeError
from .layers import (
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
    window_places,
)
from .mathcore import dropout_mask, softmax, xavier_init

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


# The embedding tables that share embed_size, stacked into one table in this
# order; E_w comes first, so a word id is its row of the stacked table.
STACKED = ("E_w", "E_c", "E_l")
# The Grads.rows key of the stacked table, whose ids are its rows.
STACKED_TABLE = "E_wcl"


class ParamStore:
    """A model's parameters as views into a few arrays:

    - every tensor that is not an embedding table lies in the flat arena:
      the weight matrices first, the n_weights elements that L2 applies
      to, then the biases (1-D), each in the order given; slots[name] is
      its (offset, shape) there;
    - the tables of STACKED that the model has are row ranges of one
      table, in STACKED's order, from row table_rows[name], so that one
      gather reads a word, a class and a label window side by side;
    - any other table (E_ch, E_tok) is an array of its own.

    params maps each name to its view, in the order given. The values start
    unset: whoever makes a store writes every tensor. copy.deepcopy would
    copy each view apart; copy() copies the arrays and makes new views.
    """

    def __init__(self, shapes):
        self.shapes = tuple(shapes)
        own = {name: shape for name, shape in shapes if name.startswith("E_")}
        stacked = [(name, own.pop(name)) for name in STACKED if name in own]
        flat = sorted((item for item in shapes if not item[0].startswith("E_")),
                      key=lambda item: len(item[1]) == 1)  # weights, then biases
        sizes = [math.prod(shape) for _, shape in flat]
        self.arena = np.empty(sum(sizes))
        self.n_weights = sum(size for (_, shape), size in zip(flat, sizes) if len(shape) == 2)
        self.slots, views, offset = {}, {}, 0
        for (name, shape), size in zip(flat, sizes):
            self.slots[name] = (offset, shape)
            views[name] = self.arena[offset : offset + size].reshape(shape)
            offset += size
        self.table, self.table_rows = None, {}
        if stacked:
            self.table = np.empty((sum(shape[0] for _, shape in stacked), stacked[0][1][1]))
            row = 0
            for name, shape in stacked:
                self.table_rows[name] = row
                views[name] = self.table[row : row + shape[0]]
                row += shape[0]
        views.update((name, np.empty(shape)) for name, shape in own.items())
        self.params = {name: views[name] for name, _ in shapes}
        self._views = dict(self.params)

    def require_views(self):
        """ConfigError unless params holds exactly the views this store made,
        so that a step over the arena and the tables moves every tensor."""
        if self.params.keys() != self._views.keys():
            raise ConfigError(f"parameters {sorted(self.params)} are not the stored "
                              f"{sorted(self._views)}")
        for name, view in self._views.items():
            if self.params[name] is not view:
                raise ConfigError(f"parameter {name} was replaced; write into its view instead")

    def copy(self) -> "ParamStore":
        new = ParamStore(self.shapes)
        new.copy_from(self)
        return new

    def copy_from(self, other):
        """Copy the values of other, a store of the same shapes, into this one."""
        np.copyto(self.arena, other.arena)
        if self.table is not None:
            np.copyto(self.table, other.table)
        for name, _ in self.shapes:
            if name.startswith("E_") and name not in self.table_rows:
                np.copyto(self.params[name], other.params[name])


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
    store: ParamStore = None

    @property
    def params(self) -> dict:
        return self.store.params

    def __deepcopy__(self, memo):
        return replace(self, store=self.store.copy())

    # -- structural dimensions ----------------------------------------
    @property
    def word_input_dim(self):
        return (2 * self.d_w + 1) * self.embed_size

    @property
    def label_input_dim(self):
        return self.d_l * self.embed_size

    @property
    def window_dim(self):
        """Width of the stacked gather: the word, class and label windows."""
        return (2 if self.use_classes else 1) * self.word_input_dim + self.label_input_dim

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

    def gru_params(self):
        keys = ("W_z", "U_z", "b_z", "W_r", "U_r", "b_r", "W_h", "U_h", "b_c")
        return {k: self.params[k] for k in keys}


# The training.TrainConfig fields that a model holds as they are; its hidden
# size is config.resolved_hidden_size().
CONFIG_FIELDS = ("d_w", "d_l", "d_c", "embed_size", "first_level_size", "char_embed_size",
                 "conv_size", "use_classes", "use_chars", "ablate_label_context",
                 "gru_words_only")


def build_model(variant, direction, vocab, rng, config) -> TaggerModel:
    """Create a model with Xavier-initialized parameters in a fixed order.
    Its sizes and input flags come from config, a training.TrainConfig:
    CONFIG_FIELDS and config.resolved_hidden_size(); ConfigError unless
    config.validate() passes."""
    config.validate()
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    if direction not in DIRECTIONS:
        raise ConfigError(f"unknown direction {direction!r}")
    model = TaggerModel(
        variant=variant, direction=direction, hidden_size=config.resolved_hidden_size(),
        n_words=vocab.n_words, n_labels=vocab.n_labels,
        n_classes=vocab.n_classes, n_chars=vocab.n_chars,
        vocab_hash=vocab.hash(), **{name: getattr(config, name) for name in CONFIG_FIELDS},
    )
    shapes = _param_shapes(model)
    model.store = ParamStore(shapes)
    model.store.arena[model.store.n_weights :] = 0.0  # the biases
    for name, shape in shapes:
        if len(shape) == 2:
            xavier_init(*shape, rng, out=model.params[name])
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
    """Accumulates gradients: dense arrays (biases, or a weight gradient given
    whole), weight gradients as factor pairs (d, x) whose product d.T @ x is
    never formed, and embedding slot gradients unmerged, as rows[table]."""

    def __init__(self):
        self.dense = {}
        self.factors = {}
        self.rows = {}

    def add(self, name, g):
        """Add g to the gradient of name; the first g is kept, not copied, so
        callers pass arrays they no longer use."""
        if name in self.dense:
            self.dense[name] += g
        else:
            self.dense[name] = g

    def add_factors(self, name, d, x):
        """Add d.T @ x to the gradient of name as a factor pair, kept as
        given; a second pair for name is stacked under the first, row by
        row."""
        if name in self.factors:
            d0, x0 = self.factors[name]
            d, x = np.concatenate((d0, d)), np.concatenate((x0, x))
        self.factors[name] = (d, x)

    def add_rows(self, table, ids, block):
        """Add block row k to the gradient of table row ids[k], for every k;
        the arrays are kept as given, never written to, and a second pair for
        table is stacked under the first."""
        if table in self.rows:
            old = self.rows[table]
            ids, block = np.concatenate((old["ids"], ids)), np.concatenate((old["grad"], block))
        self.rows[table] = {"ids": ids, "grad": block}

    def scale(self, factor: float):
        for g in self.dense.values():
            g *= factor
        for name, (d, x) in self.factors.items():
            self.factors[name] = (d * factor, x)
        for slots in self.rows.values():
            slots["grad"] = slots["grad"] * factor

    def to_dense(self, model) -> dict:
        """Full gradient dict with zeros for untouched parameters; each
        factor pair is multiplied out and each table's slots merged. The
        stacked tables' gradients are views of one array, as the tables are."""
        out, store = {}, model.store
        if store.table is not None:
            stacked = np.zeros_like(store.table)
            out = {name: stacked[row : row + len(model.params[name])]
                   for name, row in store.table_rows.items()}
            out[STACKED_TABLE] = stacked
        for name, value in model.params.items():
            if name in self.dense:
                out[name] = self.dense[name]
            elif name in self.factors:
                out[name] = _weight_grad(*self.factors[name])
            elif name not in out:
                out[name] = np.zeros_like(value)
        for table, slots in self.rows.items():
            rows, summed = merge_rows(slots["ids"], slots["grad"])
            out[table][rows] += summed
        out.pop(STACKED_TABLE, None)
        return out


# -- forward/backward over a stack of positions -------------------------------

def _inputs(model, oseqs, rows, windows, context=None, mask=None):
    """The model's input pieces at rows, an index array into the concatenated
    positions of the oriented sentences oseqs: (x, x_e, idx, ch_cache).

    x maps each piece to one row per row of rows. The word and class windows
    and, given context (label ids, one row per row of rows), the label window
    are column ranges of x_e, one gather of the stacked table at idx times
    mask when one is given; row k of windows (_group_layout's) is the window
    of row k. The char feature "ch" is char_conv_forward's over the words at
    rows, and ch_cache its cache (None without chars).
    """
    p, pieces = model.params, dict(model.input_pieces())
    words = np.concatenate([s.words for s in oseqs] + [(WORD_BOS_ID, WORD_EOS_ID)])
    ids = [words[windows]]  # E_w comes first, so a word id is its row
    if "c" in pieces:
        classes = np.concatenate([s.classes for s in oseqs] + [(CLASS_BOS_ID, CLASS_EOS_ID)])
        classes += model.store.table_rows["E_c"]
        ids.append(classes[windows])
    if "l" in pieces and context is not None:
        ids.append(context + model.store.table_rows["E_l"])
    idx = ids[0] if len(ids) == 1 else np.concatenate(ids, axis=1)
    x_e = embed_concat(model.store.table, idx)
    if mask is not None:
        x_e *= mask[:, : x_e.shape[1]]
    x, start, ch_cache = {}, 0, None
    for name, dim in pieces.items():
        if name == "ch":
            chars = [c for s in oseqs for c in s.chars]
            x["ch"], ch_cache = char_conv_forward([chars[i] for i in rows], p["E_ch"], p["W_conv"],
                                                  p["b_conv"], model.d_c, CHAR_PAD_ID)
        elif name != "l" or context is not None:
            x[name] = x_e[:, start : start + dim]
            start += dim
    return x, x_e, idx, ch_cache


def _context_ids(history, n, width, pad, t):
    """The ids of the width tokens before each position in the index array t
    of a sequence of n, history[k] the one at k; a slot before it holds pad."""
    padded = np.full(n + 2, pad, dtype=np.intp)
    padded[: len(history)] = history
    return padded[_group_layout((n,), -width, 0)[3][t]]


def position_forward(model, seq, t, history, masks=None, h_prev=None):
    """Forward at the positions in the index array t; history holds previous
    label ids.

    Row k of y, of every cached array and of every mask belongs to position
    t[k]. masks is None at inference, or a dict of inverted-dropout masks
    with keys 'e' (the word, class and label windows side by side, as the
    stacked table is gathered) and 'h' (hidden activation). The GRU runs the
    rows as consecutive steps from h_prev, so its positions are consecutive:
    np.arange(n), or one position.
    """
    p = model.params
    masks = masks or {}
    if model.ablate_label_context:  # every context is the first position's, all BOL
        history = ()
    context = _context_ids(history, len(seq), model.d_l, LABEL_BOL_ID, t)
    windows = _group_layout((len(seq),), -model.d_w, model.d_w + 1)[3][t]
    x, x_e, idx, ch_cache = _inputs(model, (seq,), t, windows, context, masks.get("e"))
    cache = {"masks": masks, "idx": idx, "ch_cache": ch_cache, "x_pieces": x}
    if model.variant != VARIANT_DEEP:  # the deep layers read each piece apart
        cache["x"] = np.concatenate((x_e, x["ch"]), axis=1) if "ch" in x else x_e

    if model.variant == VARIANT_IRNN:
        h, pre = relu_hidden_forward(p["H"], p["b_h"], cache["x"])
        cache["pre"] = pre
    elif model.variant == VARIANT_GRU:
        if h_prev is None:
            h_prev = np.zeros(model.hidden_size)
        h, gcache = gru_forward(model.gru_params(), cache["x"], h_prev)
        cache["gcache"] = gcache
    else:
        feats = []
        for name, _ in model.input_pieces():
            f, pre = relu_hidden_forward(p[f"F_{name}"], p[f"Fb_{name}"], x[name])
            cache[f"fpre_{name}"] = pre
            feats.append(f)
        hcat = np.concatenate(feats, axis=-1)
        cache["hcat"] = hcat
        h, pre2 = relu_hidden_forward(p["H2"], p["b_2"], hcat)
        cache["pre2"] = pre2

    cache["h"] = h
    mask_h = masks.get("h")
    h_drop = h if mask_h is None else h * mask_h
    cache["h_drop"] = h_drop
    return output_forward(p["O"], p["b_o"], h_drop), cache


def _scatter_input_grad(model, cache, dx, grads):
    """Route dx, the gradient on the whole input with the pieces side by side,
    back: its char columns, the last conv_size, through the char convolution,
    and the rest, on the gathered windows, to the stacked table in one
    add_rows."""
    if cache["ch_cache"] is not None:
        dx, dx_ch = dx[:, : -model.conv_size], dx[:, -model.conv_size :]
        dW, db, slots = char_conv_backward(cache["ch_cache"], model.params["W_conv"], dx_ch)
        grads.add_factors("W_conv", *dW)
        grads.add("b_conv", db)
        grads.add_rows("E_ch", *slots)
    mask = cache["masks"].get("e")
    if mask is not None:
        dx = dx * mask[:, : dx.shape[1]]
    grads.add_rows(STACKED_TABLE, *embed_concat_backward(dx, cache["idx"], model.embed_size))


def position_backward(model, cache, delta, grads, dh_next=None):
    """Backward of position_forward given delta = (y - c) at the pre-softmax
    layer, one row per position; every weight gradient goes to grads as one
    factor pair over the rows. The GRU backpropagates through time, with
    dh_next added to the gradient on the last step's h; returns the gradient
    w.r.t. the initial hidden state (GRU only).
    """
    p = model.params
    dO, db_o, dh = output_backward(p["O"], cache["h_drop"], delta)
    grads.add_factors("O", *dO)
    grads.add("b_o", db_o)
    mask_h = cache["masks"].get("h")
    if mask_h is not None:
        dh = dh * mask_h
    dh_prev = None

    if model.variant == VARIANT_IRNN:
        dH, db_h, dx = relu_hidden_backward(p["H"], cache["x"], cache["pre"], dh)
        grads.add_factors("H", *dH)
        grads.add("b_h", db_h)
    elif model.variant == VARIANT_GRU:
        if dh_next is not None:
            dh[-1] += dh_next
        ggrads, dx, dh_prev = gru_backward(model.gru_params(), cache["gcache"], dh)
        for name, g in ggrads.items():
            if isinstance(g, tuple):  # a weight's factor pair
                grads.add_factors(name, *g)
            else:
                grads.add(name, g)
    else:
        dH2, db_2, dhcat = relu_hidden_backward(p["H2"], cache["hcat"], cache["pre2"], dh)
        grads.add_factors("H2", *dH2)
        grads.add("b_2", db_2)
        dx = []
        for k, (name, _) in enumerate(model.input_pieces()):
            df = dhcat[:, k * model.first_level_size : (k + 1) * model.first_level_size]
            dF, dFb, dxp = relu_hidden_backward(
                p[f"F_{name}"], cache["x_pieces"][name], cache[f"fpre_{name}"], df
            )
            grads.add_factors(f"F_{name}", *dF)
            grads.add(f"Fb_{name}", dFb)
            dx.append(dxp)
        dx = np.concatenate(dx, axis=1)
    _scatter_input_grad(model, cache, dx, grads)
    return dh_prev


# -- sequence-level passes -----------------------------------------------

def orient(seq: EncodedSequence, direction: str) -> EncodedSequence:
    """Processing-order view: backward models consume reversed sequences."""
    if direction == DIR_FWD:
        return seq
    return EncodedSequence(
        words=seq.words[::-1].copy(),
        classes=None if seq.classes is None else seq.classes[::-1].copy(),
        chars=None if seq.chars is None else seq.chars[::-1],
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
    for position t: 'e' over the word, class and label windows side by
    side, then 'h' over the hidden activation, all from one draw; the one
    model, one sentence case of stream_position_masks.

    PCG64 hands out consecutive doubles, so this is the stream of one draw
    per mask window per position. A mask whose keep probability rounds to 1
    is left out, as multiplying by it would change nothing.
    """
    return next(stream_position_masks((model,), p_embed, p_hidden, rng, 0, [n]))[0]


def stream_position_masks(models, p_embed, p_hidden, rng, chunk_bytes, lens):
    """For each sentence length n in lens, in turn, the tuple of each
    model's make_position_masks dict for n positions: the stream of one
    draw per sentence and model in that order.

    The masks are drawn a chunk of consecutive sentences at a time: as many
    as keep the chunk's masks within chunk_bytes, at least one. A chunk is
    drawn when its first sentence's masks are asked for, so draws by the
    caller in between come after the masks of the sentences it has been
    given. Models of one mask layout share one dropout_mask call per chunk;
    otherwise each sentence and model of the chunk draws on its own."""
    layouts = [_mask_layout(m.window_dim, m.hidden_size, p_embed, p_hidden) for m in models]
    row_bytes = 8 * sum(len(keeps) for _, keeps in layouts)
    chunks, size = [], 0
    for n in lens:
        if not chunks or size + n * row_bytes > chunk_bytes:
            chunks.append([])
            size = 0
        chunks[-1].append(n)
        size += n * row_bytes
    shared = all(layout is layouts[0] for layout in layouts)
    for chunk in chunks:
        if shared:
            keeps = layouts[0][1]
            drawn = dropout_mask((len(models) * sum(chunk), len(keeps)), keeps, rng)
            blocks = np.split(drawn, np.cumsum([n for n in chunk for _ in models])[:-1])
        else:
            blocks = [dropout_mask((n, len(keeps)), keeps, rng)
                      for n in chunk for _, keeps in layouts]
        for k in range(0, len(blocks), len(models)):
            yield tuple({key: rows[:, lo:hi] for key, lo, hi in spans}
                        for (spans, _), rows in zip(layouts, blocks[k : k + len(models)]))


@functools.lru_cache(maxsize=64)
def _mask_layout(window_dim, hidden, p_embed, p_hidden):
    """The (key, first column, end column) of each make_position_masks mask
    in one drawn row, and the read-only keep probability of each column."""
    pieces = [(key, dim, 1.0 - p) for key, dim, p in (("e", window_dim, p_embed),
                                                      ("h", hidden, p_hidden)) if 1.0 - p < 1.0]
    ends = np.cumsum([dim for _, dim, _ in pieces], dtype=np.intp).tolist()
    keeps = np.repeat([keep for _, _, keep in pieces], [dim for _, dim, _ in pieces])
    keeps.flags.writeable = False
    return tuple((key, end - dim, end) for (key, dim, _), end in zip(pieces, ends)), keeps


# -- greedy decoding ---------------------------------------------------------
# The label context enters one layer (H, F_l, or the GRU's U matrices) as a
# sum over the d_l slots of W_slot @ E_l[y]. Decoding therefore precomputes
# one (n_labels x width) table per slot, computes every input term that does
# not depend on labels for all positions at once, and steps the sentences of a
# group together: a table lookup, the layers above it and an argmax per step.

# Sentences decoded in lockstep at most; bounds the transient arrays of a call.
DECODE_GROUP = 32


def decode_groups(items) -> list:
    """Indices of items longest first, in groups of at most DECODE_GROUP, so
    that each group the decoders step in lockstep holds lengths close together."""
    by_length = sorted(range(len(items)), key=lambda i: -len(items[i]))
    return [by_length[g : g + DECODE_GROUP] for g in range(0, len(by_length), DECODE_GROUP)]


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


def _decode_group(model, oseqs):
    """Greedy decode of oriented sentences, longest first, in lockstep.

    Positions are laid out step-major, so the rows of step t are one slice
    and its active sentences a prefix. A step computes only what the next
    step reads: the label-context lookup, the layers above it, the logits and
    their argmax over the real labels. One softmax over every row gives the
    distributions after the last step; it keeps the order within a row, so
    the labels are its argmax unless two probabilities round to one double.
    Returns (labels, dists) per sentence in processing order.
    """
    p = model.params
    lens = tuple(map(len, oseqs))
    starts, order, inverse, windows, steps = _group_layout(lens, -model.d_w, model.d_w + 1)
    x = _inputs(model, oseqs, order, windows)[0]

    # Each variant: the label-free input term of the layer that sees labels
    # (biases included) and that layer's label table.
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

    # history holds label ids less one, the argmax over the real labels, so
    # that table row k * n_labels + y of label y in context slot k is at
    # history + slots.
    d_l, gru, deep = model.d_l, model.variant == VARIANT_GRU, model.variant == VARIANT_DEEP
    slots = np.arange(d_l) * model.n_labels + 1
    O, b_o = p["O"].T, p["b_o"]
    history = np.full((len(oseqs), d_l + lens[0]), LABEL_BOL_ID - 1, dtype=np.intp)
    logits = np.empty((len(inverse), model.n_labels))
    # With one label, the reserved BOL, there is no real label to pick: every
    # prediction is BOL, as history already holds.
    real = logits[:, 1:] if model.n_labels > 1 else None
    add, maximum, matmul = np.add.reduce, np.maximum, np.matmul
    for t, (a, lo, hi) in enumerate(steps):
        if table is None:  # a GRU over the words alone, which only reads pre
            pre = term[lo:hi]
        else:
            # An ablated label context is the all-BOL context of position 0.
            s = 0 if model.ablate_label_context else t
            pre = add(table.take(history[:a, s : s + d_l] + slots, axis=0), axis=1)
            if deep:
                pre += Fb_l
                pre = matmul(maximum(pre, 0.0, out=pre), H2_l)
            pre += term[lo:hi]
        if gru:
            h[:a] = hid = gru_step(W_zr, W_h, h[:a], pre)[0]
        else:
            hid = maximum(pre, 0.0, out=pre)
        out = matmul(hid, O, out=logits[lo:hi])
        out += b_o
        if real is not None:
            real[lo:hi].argmax(axis=1, out=history[:a, d_l + t])
    dists = softmax(logits[inverse])
    labels = np.add(history[:, d_l:], 1, dtype=np.int64)
    return [(labels[i, :n], dists[starts[i] : starts[i] + n]) for i, n in enumerate(lens)]


# The cache pays when a layout's lengths and offsets repeat: in one-sentence
# calls, whose lengths span a short range (training's word windows and label
# contexts and the NNLM's contexts), in training's dev pass after its first
# epoch, and for the backward model of a bidirectional call, which reuses the
# forward model's layouts. Groups of 32 from a new file rarely repeat. A layout
# costs about 30 us for one sentence and 85 us for 32 (2-core machine,
# timeit). At most 64 are kept: a group of DECODE_GROUP paper-size sentences
# holds about 40 KB of index arrays.
@functools.lru_cache(maxsize=64)
def _group_layout(lens, lo, hi):
    """What _decode_group needs for sentences of the given lengths, longest
    first, and windows at offsets lo..hi-1: (starts, order, inverse, windows,
    steps), the arrays read-only. _context_ids reads the windows of one.

    starts holds the first row of each sentence in their concatenation.
    order holds the concatenated position at each row of the step-major
    layout, and inverse the row of each concatenated position. Row k of
    windows holds the window of row k (layers.window_places). steps lists
    the count of active sentences and the first and end row of each step.
    """
    lens = np.array(lens)
    starts = np.cumsum(lens) - lens
    order = np.argsort(np.arange(lens.sum()) - np.repeat(starts, lens), kind="stable")
    inverse = np.argsort(order)
    windows = window_places(lens, lo, hi)[order]
    active = (lens > np.arange(lens[0])[:, None]).sum(axis=1).tolist()
    bounds = [0, *np.cumsum(active).tolist()]
    steps = tuple(zip(active, bounds, bounds[1:]))
    for a in (order, inverse, windows):
        a.flags.writeable = False
    return tuple(starts.tolist()), order, inverse, windows, steps


def tag_greedy_batch(model: TaggerModel, seqs) -> list:
    """Greedy decode of each sequence; the label context holds the model's
    own predictions. Sentences are decoded in lockstep in the groups of
    decode_groups. A step of a group looks up the label context, runs the
    layers above it and writes the argmax of the logits over the real labels
    into the history; one softmax over the group's logits after the last
    step gives the distributions. Distributions agree with a
    position-by-position greedy pass up to rounding, which can depend on the
    group a sentence falls in, so labels equal its labels unless two labels
    tie within rounding. A model that reads word classes or chars needs them
    in every sequence."""
    require_inputs(seqs, model)
    outs = [None] * len(seqs)
    for group in decode_groups(seqs):
        members = [i for i in group if len(seqs[i])]
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


def sentence_pass(models, seq, grads=None, masks=None, history=None, scale=1.0) -> float:
    """Summed cross-entropy of one sentence from one teacher-forced batched
    pass of models, one tagger or a forward/backward pair: of the tagger's
    distribution, or of the pair's combine_bidirectional, summed in the
    first model's processing order. Given grads, one Grads per model, each
    model's grads get scale times its gradient, whose error at the
    pre-softmax layer is (distribution - onehot) / len(models), chained
    through time for the GRU.

    Each model reads seq in its own processing order, row t of every array
    being its position t. masks is None or holds each model's
    make_position_masks dict with one row per position. history, given with
    one model only, replaces the gold labels as its label context (in its
    processing order), as under scheduled sampling.
    """
    rows, first = np.arange(len(seq)), models[0].direction
    ys, caches = [], []
    for model, mask in zip(models, masks or [None] * len(models)):
        oseq = orient(seq, model.direction)
        y, cache = position_forward(model, oseq, rows, oseq.labels if history is None else history,
                                    masks=mask)
        ys.append(y if model.direction == first else y[::-1])
        caches.append(cache)
    y = ys[0] if len(ys) == 1 else combine_bidirectional(*ys)
    gold = seq.labels if first == DIR_FWD else seq.labels[::-1]
    loss = _cross_entropy(y, gold, rows)
    if grads is not None:
        share = scale / len(models)
        delta = y * share
        delta[rows, gold] -= share
        for model, cache, g in zip(models, caches, grads):
            position_backward(model, cache, delta if model.direction == first else delta[::-1], g)
    return loss


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


def require_pair(fwd, bwd, names=("the pair's first place", "the pair's second place")):
    """ConfigError unless fwd and bwd are a forward and a backward model, in
    that order, over one vocabulary; names name their places in the error."""
    for name, model, direction in zip(names, (fwd, bwd), DIRECTIONS):
        if model.direction != direction:
            raise ConfigError(f"{name} holds a {model.direction} model, not a {direction} one")
    if fwd.vocab_hash != bwd.vocab_hash:
        raise ConfigError("forward and backward models use different vocabularies")


def tag_batch(models, seqs) -> list:
    """Decode of each sequence by models, one tagger or a forward/backward
    pair: the tagger's greedy outputs (tag_greedy_batch), or both models'
    greedy distributions combined per position and the argmax of the
    combination. Both act on each row alone, so for a pair they run once
    over the rows of all sequences."""
    if len(models) == 1:
        return tag_greedy_batch(models[0], seqs)
    require_pair(*models)
    if not seqs:
        return []
    fwd_dists, bwd_dists = (np.concatenate([out.dists for out in tag_greedy_batch(m, seqs)])
                            for m in models)
    dists = combine_bidirectional(fwd_dists, bwd_dists)
    cuts = np.cumsum([len(seq) for seq in seqs[:-1]])
    return [TaggerOutput(labels=labels, dists=rows) for labels, rows
            in zip(np.split(predict_label(dists), cuts), np.split(dists, cuts))]


def tag_bidirectional(fwd: TaggerModel, bwd: TaggerModel, seq) -> TaggerOutput:
    """Bidirectional decode of one sequence: tag_batch of the pair and one."""
    return tag_batch((fwd, bwd), [seq])[0]


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
    with open_output(path, binary=True) as fh:
        fh.write(out)


def load_model(path) -> TaggerModel:
    """The model saved at path. Its header is read and checked first, then
    each tensor's payload is read straight into the tensor's view."""
    with open(path, "rb") as fh:
        try:
            return _read_model(fh, os.fstat(fh.fileno()).st_size)
        except ModelIOError as exc:
            raise ModelIOError(f"{path}: {exc}") from None
        except (struct.error, IndexError, ValueError) as exc:
            raise ModelIOError(f"corrupt or truncated model file {path}: {exc}") from None


def _unpack(fh, fmt, size):
    """struct.unpack of the next bytes of fh, a file of size bytes."""
    n = struct.calcsize(fmt)
    if fh.tell() + n > size:
        raise ModelIOError(f"the file ends within its header ({size} bytes)")
    return struct.unpack(fmt, fh.read(n))


def _read_model(fh, size) -> TaggerModel:
    if fh.read(4) != MODEL_MAGIC:
        raise ModelIOError("not a model file (bad magic bytes)")
    (version,) = _unpack(fh, "<I", size)
    if version != MODEL_VERSION:
        raise ModelIOError(f"unsupported model format version {version}")
    variant_b, direction_b, flags, vocab_hash, *ints = _unpack(fh, "<" + _HEADER, size)
    kwargs = dict(zip(_INT_FIELDS, ints))
    kwargs.update((name, bool(flags >> i & 1)) for i, name in enumerate(_FLAG_FIELDS))
    model = TaggerModel(
        variant=VARIANTS[variant_b], direction=DIRECTIONS[direction_b],
        vocab_hash=vocab_hash, **kwargs,
    )
    from .training import TrainConfig  # which imports this module

    hidden = dict.fromkeys(("hidden_size", "hidden_size_all_inputs"), model.hidden_size)
    try:
        TrainConfig(**hidden, **{name: kwargs[name] for name in CONFIG_FIELDS}).validate()
    except ConfigError as exc:
        raise ModelIOError(f"a structure that training never writes: {exc}") from None
    (n_tensors,) = _unpack(fh, "<I", size)
    shapes = []
    for _ in range(n_tensors):
        (name_len,) = _unpack(fh, "<H", size)
        (name,) = _unpack(fh, f"<{name_len}s", size)
        (ndim,) = _unpack(fh, "<I", size)
        shapes.append((name.decode("utf-8"), _unpack(fh, f"<{ndim}I", size)))
    got, implied = dict(shapes), dict(_param_shapes(model))
    if len(got) != len(shapes):
        raise ModelIOError("a tensor name is repeated")
    for name in sorted(got.keys() | implied.keys()):
        if got.get(name) != implied.get(name):
            raise ModelIOError(f"tensor {name} is {got.get(name, 'missing')}, "
                               f"the header implies {implied.get(name, 'no such tensor')}")
    expected = fh.tell() + sum(8 * math.prod(s) for _, s in shapes)
    if size != expected:
        raise ModelIOError(f"payload size mismatch: expected {expected} bytes, file has {size}")
    model.store = ParamStore(shapes)  # params in the file's order, as they are read
    for name, _ in shapes:
        tensor = model.params[name]
        if fh.readinto(tensor) != tensor.nbytes:
            raise ModelIOError(f"the file ends within tensor {name}")
        if not np.little_endian:  # the payloads are little-endian
            tensor.byteswap(inplace=True)
        if not np.isfinite(tensor).all():
            raise ModelIOError(f"tensor {name} holds a non-finite value")
    return model
