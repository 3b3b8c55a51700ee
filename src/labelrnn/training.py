"""Training recipe: loss, SGD with momentum, linear learning-rate decay,
dropout + L2 regularization, dev-based model selection, bidirectional
fine-tuning, and a finite-difference gradient-check harness.

One epoch loop (run_epochs) trains the taggers, their bidirectional
fine-tuning and the pretraining NNLM: one update per sentence, over shuffled
sentences. A tagger and a forward/backward pair have one trainer (_train)
and take the same step (_train_sentence): one batched forward/backward pass
of the sentence, one row per position (models.sentence_pass),
teacher-forced, or for a tagger with a label history built position by
position under scheduled sampling (_sampled_history). After each epoch the
models are scored on dev by the lockstep decoder (models.tag_batch), and
best_entry picks the ones kept. The gradient checks differentiate the loss
that the same pass returns when it is given no gradients.
"""

import copy
import functools
import itertools
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .corpus import CHUNK_MODES, DEFAULT_CHUNK_MODE, decode_labels, open_output, require_inputs
from .errors import ConfigError, DataError, ShapeError, TrainingDivergedError
from .layers import _weight_grad, merge_rows
from .mathcore import new_rng
from .metrics import evaluate
from .models import (
    STACKED_TABLE,
    Grads,
    VARIANT_GRU,
    build_model,
    make_position_masks,
    orient,
    position_forward,
    predict_label,
    require_pair,
    sentence_pass,
    stream_position_masks,
    tag_batch,
)


_LAYER_SIZES = ("embed_size", "hidden_size", "hidden_size_all_inputs", "first_level_size",
                "char_embed_size", "conv_size")


@dataclass
class TrainConfig:
    """Every training hyperparameter, defaulted to the published recipe
    (ATIS-style contexts and dropout; see media_like() for the other preset)."""

    embed_size: int = 200
    hidden_size: int = 200
    hidden_size_all_inputs: int = 256
    first_level_size: int = 200
    char_embed_size: int = 30
    conv_size: int = 50
    d_w: int = 5
    d_l: int = 5
    d_c: int = 0
    lr0: float = 0.5
    momentum: float = 0.5  # 0.9 overshoots badly at lr0=0.5 with per-sentence steps
    lambda_l2: float = 0.01
    lambda_l2_bidir: float = 3e-4
    dropout_hidden: float = 0.5
    dropout_embed: float = 0.2
    epochs_fwd_bwd: int = 30
    epochs_bidir: int = 8
    epochs_nnlm_word: int = 30
    epochs_nnlm_label: int = 20
    nnlm_context: int = 4
    seed: int = 1234
    min_count: int = 1
    lowercase: bool = True
    use_classes: bool = False
    use_chars: bool = False
    ablate_label_context: bool = False
    gru_words_only: bool = False
    l2_include_all: bool = False
    dev_metric: str = "accuracy"  # or "f1"
    freeze_embeddings_bidir: bool = False
    max_grad_norm: float = 0.0  # 0 disables clipping
    predicted_label_prob: float = 0.0
    chunk_mode: str = DEFAULT_CHUNK_MODE

    def validate(self):
        if not 0.0 < self.lr0 < math.inf:
            raise ConfigError(f"lr0 must be positive and finite, got {self.lr0}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must be in [0, 1)")
        for name in ("dropout_hidden", "dropout_embed", "predicted_label_prob"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1)")
        for name in ("lambda_l2", "lambda_l2_bidir", "max_grad_norm"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        for name in _LAYER_SIZES:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.d_w < 0 or self.d_c < 0 or self.d_l < 1:
            raise ConfigError("window sizes must satisfy d_w >= 0, d_c >= 0, d_l >= 1")
        if self.epochs_fwd_bwd < 1 or self.epochs_bidir < 0:
            raise ConfigError("epochs_fwd_bwd must be >= 1 and epochs_bidir >= 0")
        for epochs in (self.epochs_nnlm_word, self.epochs_nnlm_label):
            if epochs < 1:
                raise ConfigError(f"NNLM training needs at least one epoch, got {epochs}")
        if self.nnlm_context < 1:
            raise ConfigError(f"NNLM context length must be >= 1, got {self.nnlm_context}")
        if self.dev_metric not in ("accuracy", "f1"):
            raise ConfigError(f"unknown dev metric {self.dev_metric!r}")
        if self.chunk_mode not in CHUNK_MODES:
            raise ConfigError(f"unknown chunk mode {self.chunk_mode!r}")

    def resolved_hidden_size(self) -> int:
        """256 when all input types are active, 200 otherwise."""
        if self.use_classes and self.use_chars:
            return self.hidden_size_all_inputs
        return self.hidden_size

    @classmethod
    def media_like(cls, **overrides) -> "TrainConfig":
        base = dict(d_w=3, conv_size=80, dropout_embed=0.15)
        base.update(overrides)
        return cls(**base)

    def to_kv(self) -> str:
        return "".join(f"{f.name}={getattr(self, f.name)}\n" for f in fields(self))

    @classmethod
    def from_kv(cls, text: str, base=None, source=None) -> "TrainConfig":
        """Parse key=value lines; keys they do not set keep base's values, or
        the defaults without a base. An error names source, or the line of
        the config text without one."""
        return replace(base or cls(), **cls.parse_kv(text, source))

    @classmethod
    def parse_kv(cls, text: str, source=None) -> dict:
        """The values of the fields that from_kv's key=value lines set."""
        known = {f.name: f.type for f in fields(cls)}
        values = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            where = source or f"config line {lineno}"
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{where}: expected key=value, got {line!r}")
            key, raw = line.split("=", 1)
            key = key.strip()
            raw = raw.strip()
            if key not in known:
                raise ConfigError(f"{where}: unknown key {key!r}")
            default = getattr(cls(), key)
            try:
                if isinstance(default, bool):
                    values[key] = {"1": True, "true": True, "yes": True, "0": False,
                                   "false": False, "no": False}[raw.lower()]
                elif isinstance(default, int):
                    values[key] = int(raw)
                elif isinstance(default, float):
                    values[key] = float(raw)
                else:
                    values[key] = raw
            except (KeyError, ValueError):
                raise ConfigError(f"{where}: bad value for {key}: {raw!r}") from None
        return values


@dataclass
class TrainLogEntry:
    epoch: int
    lr: float
    train_loss: float
    dev_acc: float
    dev_f1: float

    def line(self) -> str:
        return f"{self.epoch}\t{self.lr:.6f}\t{self.train_loss:.6f}\t{self.dev_acc:.4f}\t{self.dev_f1:.4f}"


def write_log(entries, path):
    with open_output(path) as fh:
        fh.write("epoch\tlr\ttrain_loss\tdev_acc\tdev_f1\n")
        for entry in entries:
            fh.write(entry.line() + "\n")


def lr_at(epoch: int, total_epochs: int, lr0: float) -> float:
    """Linear decay; the final epoch runs at lr0/total_epochs, never 0."""
    if not 0 <= epoch < total_epochs:
        raise ConfigError(f"epoch {epoch} out of range [0, {total_epochs})")
    return lr0 * (1.0 - epoch / total_epochs)


# Bytes of weight gradient the step forms at a time: one block, sized to stay
# in cache together with the weights and velocity it updates.
_BLOCK_BYTES = 256 * 1024

# Bytes of dropout masks drawn at a time: one draw covers the masks of as many
# consecutive sentences of an epoch's permutation as fit, at least one.
_MASK_CHUNK_BYTES = 256 * 1024


def _update(w, v, g, mu, decay, n_decay):
    """v <- mu*v - g - decay*w, the decay term on the first n_decay elements
    only; w <- w + v; in place, with g, the gradient times the rate, as
    scratch."""
    v *= mu
    v -= g
    if decay and n_decay:
        v[:n_decay] -= np.multiply(w[:n_decay], decay, out=g[:n_decay])
    w += v


def _factor_norm(d, x):
    """Frobenius norm of d.T @ x from n x n products:
    |d.T x|^2 = sum((d d.T) * (x x.T)) for n rows."""
    return math.sqrt(max(float(np.vdot(d @ d.T, x @ x.T)), 0.0))


class SgdMomentum:
    """v <- mu*v - lr*(grad + lam*w); w <- w + v for weights and biases.

    Embedding tables are updated plainly on touched rows only (merge_rows);
    a decaying velocity over a mostly-untouched table is ill-defined, so
    embeddings get no momentum (and no L2 unless l2_include_all). With
    max_grad_norm > 0 a weight gradient is clipped to that norm per tensor,
    an embedding gradient per row.

    The step runs in place over the model's arena (models.ParamStore), and
    the velocity is one array of the same layout. The tensors that grads
    covers are walked in blocks of about _BLOCK_BYTES of the arena. Each
    block's gradient is formed in one scratch buffer of the same layout:
    each factor pair (d, x) multiplied out over the rows the block holds,
    each dense gradient copied in. It is then scaled by the rate, per tensor
    when clipping, and one _update applies it to the block's weights and
    velocity while they are in cache. A factor pair's rows are cut as a
    step over that tensor alone would cut them: about _BLOCK_BYTES of rows
    at a time, and never a single row (see _blocks). So every value equals
    the per-tensor step's bit for bit, and a weight larger than one block
    never has its whole gradient formed. The clipping norm of a pair comes
    from its factors.
    """

    def __init__(self, model, momentum: float, lam: float, l2_include_all: bool = False,
                 max_grad_norm: float = 0.0, freeze_embeddings: bool = False):
        store = model.store
        store.require_views()
        self.model = model
        self.momentum = momentum
        self.lam = lam
        self.l2_include_all = l2_include_all
        self.max_grad_norm = max_grad_norm
        self.freeze_embeddings = freeze_embeddings
        self._l2_end = store.arena.size if l2_include_all else store.n_weights
        self._velocity = np.zeros_like(store.arena)
        self.velocity = {name: self._velocity[o : o + math.prod(shape)].reshape(shape)
                         for name, (o, shape) in store.slots.items()}
        self._tables = {name: w for name, w in model.params.items() if name.startswith("E_")}
        if store.table is not None:
            self._tables[STACKED_TABLE] = store.table
        self._ids = list(map(id, model.params.values()))
        self._plans = {}

    def _clip_scale(self, norm):
        """Factor that brings a gradient norm down to max_grad_norm, or 1."""
        return self.max_grad_norm / np.maximum(norm, self.max_grad_norm)

    def _blocks(self, dense, factors):
        """The blocks of a step whose gradients are dense and factors, made
        once per list of their names: (products, copies, pieces, w, v, g,
        n_decay) each.

        Each tensor the gradients cover is cut into row ranges of the arena:
        a dense gradient's whole, a factor pair's about _BLOCK_BYTES each,
        where a last single row joins the range before it (numpy would take
        a one-row GEMM through a matrix-vector product, whose sums round
        differently). Adjacent ranges form a block while it stays within
        _BLOCK_BYTES. Of a block, products holds each factor range's (name,
        rows, scratch), copies each run of adjacent dense gradients' (names,
        scratch) and pieces each range's (name, scratch); w, v and g are its
        weights, velocity and scratch, and their first n_decay elements lie
        in the L2 segment.
        """
        key = (tuple(dense), tuple(factors))
        blocks = self._plans.get(key)
        if blocks is not None:
            return blocks
        store = self.model.store
        unknown = sorted((dense.keys() | factors.keys()) - store.slots.keys())
        if unknown:
            raise ConfigError(f"no parameter {unknown[0]} to step")
        both = sorted(dense.keys() & factors.keys())
        if both:
            raise ConfigError(f"the gradient of {both[0]} is both dense and factored")
        groups = []  # blocks of (name, rows, arena start, arena end)
        for name, (offset, shape) in store.slots.items():
            if name in dense:
                ranges = [(name, None, offset, offset + math.prod(shape))]
            elif name in factors:
                cols, step = shape[1], max(2, _BLOCK_BYTES // (8 * shape[1]))
                starts = range(0, max(shape[0] - 1, 1), step)
                ends = [*starts[1:], shape[0]]
                ranges = [(name, None if len(starts) == 1 else slice(lo, hi), offset + lo * cols,
                           offset + hi * cols) for lo, hi in zip(starts, ends)]
            else:
                continue
            for r in ranges:
                if groups and groups[-1][-1][3] == r[2] and r[3] - groups[-1][0][2] <= _BLOCK_BYTES // 8:
                    groups[-1].append(r)
                else:
                    groups.append([r])
        scratch = np.empty(max((g[-1][3] - g[0][2] for g in groups), default=0))
        blocks = []
        for group in groups:
            start, end = group[0][2], group[-1][3]
            products, copies, pieces = [], [], []
            for name, rows, lo, hi in group:
                piece = scratch[lo - start : hi - start]
                pieces.append((name, piece))
                if name in factors:
                    products.append((name, rows, piece.reshape(-1, store.slots[name][1][1])))
                elif copies and copies[-1][2] == lo:  # one copy for adjacent dense gradients
                    copies[-1] = (copies[-1][0] + (name,), copies[-1][1], hi)
                else:
                    copies.append(((name,), lo, hi))
            copies = [(names, scratch[lo - start : hi - start]) for names, lo, hi in copies]
            n_decay = min(max(self._l2_end - start, 0), end - start)
            blocks.append((products, copies, pieces, store.arena[start:end],
                           self._velocity[start:end], scratch[: end - start], n_decay))
        self._plans[key] = blocks
        return blocks

    def step(self, grads: Grads, lr: float):
        if list(map(id, self.model.params.values())) != self._ids:
            self.model.store.require_views()
            self._ids = list(map(id, self.model.params.values()))
        dense, factors, slots = grads.dense, grads.factors, self.model.store.slots
        blocks = self._blocks(dense, factors)
        for name, g in dense.items():
            if g.shape != slots[name][1]:
                raise ShapeError(f"gradient shape {g.shape} does not match {name}")
        for name, (d, x) in factors.items():
            if d.shape[1:] + x.shape[1:] != slots[name][1] or len(d) != len(x):
                raise ShapeError(f"gradient factors of shapes {d.shape} and {x.shape} "
                                 f"do not match {name}")
        rates = None
        if self.max_grad_norm > 0.0:
            rates = {name: lr * self._clip_scale(np.linalg.norm(g)) for name, g in dense.items()}
            rates.update((name, lr * self._clip_scale(_factor_norm(d, x)))
                         for name, (d, x) in factors.items())
        decay = lr * self.lam
        for products, copies, pieces, w, v, g, n_decay in blocks:
            for name, rows, out in products:
                d, x = factors[name]
                _weight_grad(d if rows is None else d[:, rows], x, out=out)
            for names, out in copies:
                np.concatenate([dense[name] for name in names], axis=None, out=out)
            if rates is None:
                g *= lr
            else:
                for name, piece in pieces:
                    piece *= rates[name]
            _update(w, v, g, self.momentum, decay, n_decay)
        if self.freeze_embeddings:
            return
        clip = self.max_grad_norm > 0.0
        for table, slots in grads.rows.items():
            w = self._tables[table]
            rows, g = merge_rows(slots["ids"], slots["grad"])
            if clip:
                g *= self._clip_scale(np.linalg.norm(g, axis=1))[:, None]
            if self.l2_include_all and self.lam > 0.0:
                g += self.lam * w[rows]
            w[rows] -= lr * g


def run_epochs(seqs, epochs: int, lr0: float, rng, update, draw=None):
    """The epoch loop of every trainer. Each epoch calls update(seq, lr), which
    steps the model on one sequence and returns its summed loss, over seqs in
    a fresh permutation drawn from rng, at lr_at's rate and with numpy's
    overflow and invalid-value warnings off. It then yields (epoch, lr, loss
    per position), or raises TrainingDivergedError naming the epoch if the
    loss is not finite. seqs must hold at least one position.

    draw, if given, is called with the lengths of each epoch's sequences in
    permutation order and returns an iterator of one item per sequence,
    which update gets after lr; it may draw from rng as it goes."""
    n_positions = sum(len(s) for s in seqs)
    if not n_positions:
        raise DataError("the training sequences hold no positions")
    for epoch in range(epochs):
        lr = lr_at(epoch, epochs, lr0)
        total = 0.0
        order = rng.permutation(len(seqs))
        extras = itertools.repeat(()) if draw is None else zip(draw([len(seqs[si]) for si in order]))
        with np.errstate(over="ignore", invalid="ignore"):
            for si, extra in zip(order, extras):
                total += update(seqs[si], lr, *extra)
        if not math.isfinite(total):
            raise TrainingDivergedError(
                f"training loss is {total} in epoch {epoch}; training diverged")
        yield epoch, lr, total / n_positions


def best_entry(entries, metric: str) -> TrainLogEntry:
    """Dev-based model selection: the first entry with the highest dev score
    under metric ("accuracy" or "f1")."""
    return max(entries, key=lambda e: e.dev_acc if metric == "accuracy" else e.dev_f1)


def require_training_data(train_seqs, dev_seqs):
    """A tagger trains on at least one sequence, and on no empty one (its
    gradient is averaged over its positions), and is selected on at least
    one dev sequence: over none every epoch would score 0, and the first
    candidate would be kept."""
    if not train_seqs:
        raise ConfigError("training set is empty")
    if not dev_seqs:
        raise DataError("dev set is empty")
    for i, seq in enumerate(train_seqs):
        if not len(seq):
            raise DataError(f"training sequence {i} is empty")


def _select_on_dev(epochs, last, models, dev_seqs, vocab, config, untouched=None):
    """Scores the models, a tuple of the models being trained, decoded by
    tag_batch on dev_seqs after each of the epochs, run_epochs's (epoch, lr,
    loss) triples, and keeps them whenever the epoch is the best_entry so
    far. An epoch numbered -1 stands for the models before training, kept as
    untouched, and stays out of the log. After epoch last the models are
    kept as they are, as nothing trains them further; after any other,
    copied into buffers made at most once per call. Returns (kept models,
    log). Dev is decoded with run_epochs's numpy warnings off; after a
    trained epoch, a dev distribution that is not finite raises
    TrainingDivergedError naming the epoch."""
    golds = [decode_labels(seq.labels, vocab) for seq in dev_seqs]
    candidates, kept, buffers = [], None, None
    for epoch, lr, loss in epochs:
        with np.errstate(over="ignore", invalid="ignore"):
            outs = tag_batch(models, dev_seqs)
        if epoch >= 0 and not all(np.isfinite(out.dists).all() for out in outs):
            raise TrainingDivergedError(
                f"a dev distribution is not finite after epoch {epoch}; training diverged")
        preds = [decode_labels(out.labels, vocab) for out in outs]
        report = evaluate(golds, preds, config.chunk_mode)
        candidates.append(TrainLogEntry(epoch, lr, loss, report.token_accuracy, report.f1))
        if best_entry(candidates, config.dev_metric) is not candidates[-1]:
            continue
        if epoch < 0:
            kept = untouched
        elif epoch == last:
            kept = models
        elif buffers is None:
            kept = buffers = tuple(copy.deepcopy(m) for m in models)
        else:
            for buffer, model in zip(buffers, models):
                buffer.store.copy_from(model.store)
            kept = buffers
    return kept, [entry for entry in candidates if entry.epoch >= 0]


def _sampled_history(model, oseq, config, rng):
    """Scheduled sampling: the position-by-position forward, one one-row
    stack per position, where each position's label enters the history as
    the model's prediction with probability predicted_label_prob, else as
    the gold label. Each position draws its own masks, as the draws
    interleave with the sampling. Returns (history, masks), masks with one
    row per position."""
    history, masks, h_prev = [], [], None
    for t in range(len(oseq)):
        masks.append(make_position_masks(model, config.dropout_embed, config.dropout_hidden,
                                         rng, 1))
        y, cache = position_forward(model, oseq, np.array([t]), history, masks=masks[-1],
                                    h_prev=h_prev)
        if model.variant == VARIANT_GRU:
            h_prev = cache["h"][0]
        sampled = rng.random() < config.predicted_label_prob
        history.append(predict_label(y)[0] if sampled else int(oseq.labels[t]))
    return history, {key: np.concatenate([m[key] for m in masks]) for key in masks[0]}


def _train_sentence(models, opts, seq, lr, masks=None, history=None) -> float:
    """One stochastic update of models, a tagger or a forward/backward pair,
    from one sentence; returns the summed data loss.

    The whole sentence is one batched pass (models.sentence_pass), with a
    teacher-forced label context unless history is given. The output error
    is divided by the sentence length, so each optimizer in opts applies its
    model's gradient averaged over positions, once: for the GRU the gradient
    backpropagated through time, the gradient that the gradient checks
    check. masks holds each model's dropout masks, None for none.
    """
    grads = [Grads() for _ in models]
    loss = sentence_pass(models, seq, grads, masks, history, 1.0 / len(seq))
    for opt, g in zip(opts, grads):
        opt.step(g, lr)
    return loss


def _train(models, train_seqs, dev_seqs, vocab, config, rng, epochs, lam, untouched=None,
           freeze_embeddings=False, sampling=False):
    """Trains models, one tagger or a forward/backward pair, with L2 weight
    lam, and returns _select_on_dev's (dev-best models, log). The masks come
    from one stream (models.stream_position_masks), or with sampling, for a
    tagger, position by position under scheduled sampling. untouched, the
    models before training, are the first candidate, as epoch -1."""
    opts = tuple(SgdMomentum(m, config.momentum, lam, l2_include_all=config.l2_include_all,
                             max_grad_norm=config.max_grad_norm,
                             freeze_embeddings=freeze_embeddings) for m in models)
    if sampling:
        def update(seq, lr):
            oseq = orient(seq, models[0].direction)
            history, masks = _sampled_history(models[0], oseq, config, rng)
            return _train_sentence(models, opts, seq, lr, (masks,), history)

        draw = None
    else:
        update = functools.partial(_train_sentence, models, opts)
        draw = functools.partial(stream_position_masks, models, config.dropout_embed,
                                 config.dropout_hidden, rng, _MASK_CHUNK_BYTES)
    trained = run_epochs(train_seqs, epochs, config.lr0, rng, update, draw)
    if untouched is not None:
        trained = itertools.chain([(-1, 0.0, 0.0)], trained)
    return _select_on_dev(trained, epochs - 1, models, dev_seqs, vocab, config, untouched)


def train_tagger(train_seqs, dev_seqs, vocab, config: TrainConfig, variant: str,
                 direction: str, init_word_emb=None, init_label_emb=None, rng=None):
    """Full training of one directional tagger; returns (dev-best model, log)."""
    config.validate()
    require_training_data(train_seqs, dev_seqs)
    require_inputs([*train_seqs, *dev_seqs], config)
    if rng is None:
        rng = new_rng(config.seed)
    model = build_model(variant, direction, vocab, rng, config)
    for table, init in (("E_w", init_word_emb), ("E_l", init_label_emb)):
        if init is not None and init.shape != model.params[table].shape:
            raise ShapeError(f"pretrained {table} has shape {init.shape}, "
                             f"model expects {model.params[table].shape}")
        if init is not None:
            model.params[table][...] = init
    (best,), log = _train((model,), train_seqs, dev_seqs, vocab, config, rng,
                          config.epochs_fwd_bwd, config.lambda_l2,
                          sampling=config.predicted_label_prob > 0.0)
    return best, log


def train_bidirectional(fwd, bwd, train_seqs, dev_seqs, vocab, config: TrainConfig, rng=None):
    """Joint fine-tuning through the geometric-mean combination.

    The cross-entropy of the combined (renormalized) distribution has
    gradient (combined - onehot)/2 at each branch's pre-softmax layer, so
    each model receives half of the combined error signal. Updates happen
    once per sentence, after both directional passes, on copies of the
    models. The given pair, untouched, is the first candidate of dev
    selection (as epoch -1), so fine-tuning can only improve the dev score;
    when it stays the best, it is what is returned. Scheduled sampling
    (predicted_label_prob) applies to tagger training only.
    """
    config.validate()
    require_pair(fwd, bwd)
    require_training_data(train_seqs, dev_seqs)
    require_inputs([*train_seqs, *dev_seqs], fwd, bwd)
    if rng is None:
        rng = new_rng(config.seed)
    pair, log = _train((copy.deepcopy(fwd), copy.deepcopy(bwd)), train_seqs, dev_seqs, vocab,
                       config, rng, config.epochs_bidir, config.lambda_l2_bidir,
                       untouched=(fwd, bwd), freeze_embeddings=config.freeze_embeddings_bidir)
    return (*pair, log)


def _finite_difference_report(params, analytic, loss, epsilon, rng, samples_per_tensor):
    """Max relative error per tensor of analytic vs central-difference
    gradients of loss(), sampling coordinates per tensor."""
    report = {}
    for name, w in params.items():
        flat = w.reshape(-1)
        n = flat.size
        count = min(samples_per_tensor, n)
        coords = rng.choice(n, size=count, replace=False)
        worst = 0.0
        for c in coords:
            orig = flat[c]
            flat[c] = orig + epsilon
            plus = loss()
            flat[c] = orig - epsilon
            minus = loss()
            flat[c] = orig
            fd = (plus - minus) / (2.0 * epsilon)
            a = analytic[name].reshape(-1)[c]
            denom = max(abs(a), abs(fd), 1e-8)
            if abs(a) < 1e-10 and abs(fd) < 1e-10:
                continue
            worst = max(worst, abs(a - fd) / denom)
        report[name] = worst
    return report


def _gradient_check(models, prefixes, seq, epsilon, rng, samples_per_tensor):
    """_finite_difference_report of sentence_pass(models, seq) against the
    gradient that the same pass gives; each model's keys are its tensor
    names after its prefix."""
    grads = tuple(Grads() for _ in models)
    sentence_pass(models, seq, grads)
    params, analytic = {}, {}
    for prefix, model, g in zip(prefixes, models, grads):
        dense = g.to_dense(model)
        for name, w in model.params.items():
            params[prefix + name], analytic[prefix + name] = w, dense[name]
    return _finite_difference_report(params, analytic, lambda: sentence_pass(models, seq), epsilon,
                                     new_rng(0) if rng is None else rng, samples_per_tensor)


def gradient_check(model, seq, epsilon: float = 1e-5, rng=None,
                   samples_per_tensor: int = 50) -> dict:
    """Max relative error of analytic vs central-difference gradients.

    Checks the exact gradient of the teacher-forced total sequence loss
    (dropout off, no L2), sampling coordinates per parameter tensor.
    """
    return _gradient_check((model,), ("",), seq, epsilon, rng, samples_per_tensor)


def bidirectional_gradient_check(fwd, bwd, seq, epsilon: float = 1e-5, rng=None,
                                 samples_per_tensor: int = 50) -> dict:
    """gradient_check for the joint loss of a forward/backward pair: the
    cross-entropy of the combined distribution, whose gradient is the one
    bidirectional fine-tuning applies. Report keys are "fwd.<name>" and
    "bwd.<name>"."""
    return _gradient_check((fwd, bwd), ("fwd.", "bwd."), seq, epsilon, rng, samples_per_tensor)
