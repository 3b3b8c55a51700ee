"""Training recipe: loss, SGD with momentum, linear learning-rate decay,
dropout + L2 regularization, dev-based model selection, bidirectional
fine-tuning, and a finite-difference gradient-check harness.

One epoch loop (run_epochs) trains the taggers, their bidirectional
fine-tuning and the pretraining NNLM: one update per sentence, over shuffled
sentences. Each sentence is one batched forward/backward pass, one row per
position (models.sentence_pass), teacher-forced, or with a label history
built position by position under scheduled sampling (_sampled_history).
After each epoch a tagger is scored on dev by the lockstep decoder, and
best_entry picks the model kept. The gradient checks differentiate the loss
that a pass returns when it is given no gradients.
"""

import copy
import itertools
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .corpus import decode_labels, require_classes
from .errors import ConfigError, ShapeError, TrainingDivergedError
from .mathcore import new_rng
from .metrics import f1_chunks, token_accuracy
from .models import (
    DIR_FWD,
    Grads,
    VARIANT_GRU,
    bidirectional_pass,
    build_model,
    make_position_masks,
    orient,
    position_forward,
    predict_label,
    sentence_pass,
    sequence_grads,
    tag_bidirectional_batch,
    tag_greedy_batch,
)


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
    chunk_mode: str = "bio-suffix"

    def validate(self):
        if not 0.0 < self.lr0:
            raise ConfigError("lr0 must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must be in [0, 1)")
        for name in ("dropout_hidden", "dropout_embed", "predicted_label_prob"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1)")
        if self.lambda_l2 < 0 or self.lambda_l2_bidir < 0:
            raise ConfigError("L2 coefficients must be non-negative")
        if self.d_w < 0 or self.d_c < 0 or self.d_l < 1:
            raise ConfigError("window sizes must satisfy d_w >= 0, d_c >= 0, d_l >= 1")
        if self.epochs_fwd_bwd < 1 or self.epochs_bidir < 0:
            raise ConfigError("epochs_fwd_bwd must be >= 1 and epochs_bidir >= 0")
        if self.dev_metric not in ("accuracy", "f1"):
            raise ConfigError(f"unknown dev metric {self.dev_metric!r}")

    def resolved_hidden_size(self) -> int:
        """256 when all input types are active, 200 otherwise."""
        if self.use_classes and self.use_chars:
            return self.hidden_size_all_inputs
        return self.hidden_size

    @classmethod
    def atis_like(cls, **overrides) -> "TrainConfig":
        return cls(**overrides)

    @classmethod
    def media_like(cls, **overrides) -> "TrainConfig":
        base = dict(d_w=3, conv_size=80, dropout_embed=0.15)
        base.update(overrides)
        return cls(**base)

    def to_kv(self) -> str:
        return "".join(f"{f.name}={getattr(self, f.name)}\n" for f in fields(self))

    @classmethod
    def from_kv(cls, text: str, base=None) -> "TrainConfig":
        """Parse key=value lines; keys they do not set keep base's values, or
        the defaults without a base."""
        known = {f.name: f.type for f in fields(cls)}
        values = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"config line {lineno}: expected key=value, got {line!r}")
            key, raw = line.split("=", 1)
            key = key.strip()
            raw = raw.strip()
            if key not in known:
                raise ConfigError(f"config line {lineno}: unknown key {key!r}")
            default = getattr(cls(), key)
            try:
                if isinstance(default, bool):
                    values[key] = raw.lower() in ("1", "true", "yes")
                elif isinstance(default, int):
                    values[key] = int(raw)
                elif isinstance(default, float):
                    values[key] = float(raw)
                else:
                    values[key] = raw
            except ValueError:
                raise ConfigError(f"config line {lineno}: bad value for {key}: {raw!r}") from None
        return cls(**values) if base is None else replace(base, **values)


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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch\tlr\ttrain_loss\tdev_acc\tdev_f1\n")
        for entry in entries:
            fh.write(entry.line() + "\n")


def lr_at(epoch: int, total_epochs: int, lr0: float) -> float:
    """Linear decay; the final epoch runs at lr0/total_epochs, never 0."""
    if not 0 <= epoch < total_epochs:
        raise ConfigError(f"epoch {epoch} out of range [0, {total_epochs})")
    return lr0 * (1.0 - epoch / total_epochs)


class SgdMomentum:
    """v <- mu*v - lr*(grad + lam*w); w <- w + v for weights and biases.

    Embedding tables are updated plainly on touched rows only; a decaying
    velocity over a mostly-untouched table is ill-defined, so embeddings get
    no momentum (and no L2 unless l2_include_all). With max_grad_norm > 0 a
    weight gradient is clipped to that norm per tensor, an embedding
    gradient per row.

    The step runs in place and makes no temporary the size of a tensor: it
    consumes grads, whose dense arrays serve as its scratch buffers.
    """

    def __init__(self, model, momentum: float, lam: float, l2_include_all: bool = False,
                 max_grad_norm: float = 0.0, freeze_embeddings: bool = False):
        self.model = model
        self.momentum = momentum
        self.lam = lam
        self.l2_include_all = l2_include_all
        self.max_grad_norm = max_grad_norm
        self.freeze_embeddings = freeze_embeddings
        self.l2_names = set(model.weight_matrix_names())
        if l2_include_all:
            self.l2_names = {n for n in model.params if not n.startswith("E_")}
        self.velocity = {
            name: np.zeros_like(value)
            for name, value in model.params.items()
            if not name.startswith("E_")
        }

    def _clip_scale(self, norm):
        """Factor that brings a gradient norm down to max_grad_norm, or 1."""
        return self.max_grad_norm / np.maximum(norm, self.max_grad_norm)

    def step(self, grads: Grads, lr: float):
        for name, g in grads.dense.items():
            w = self.model.params[name]
            if g.shape != w.shape:
                raise ShapeError(f"gradient shape {g.shape} does not match {name}")
            v = self.velocity[name]
            v *= self.momentum
            scale = self._clip_scale(np.linalg.norm(g)) if self.max_grad_norm > 0.0 else 1.0
            v -= np.multiply(g, lr * scale, out=g)
            if self.lam > 0.0 and name in self.l2_names:
                v -= np.multiply(w, lr * self.lam, out=g)
            w += v
        if self.freeze_embeddings:
            return
        for table, bucket in grads.rows.items():
            w = self.model.params[table]
            rows = np.fromiter(bucket, dtype=np.intp, count=len(bucket))
            g = np.array(list(bucket.values()))
            if self.max_grad_norm > 0.0:
                g *= self._clip_scale(np.linalg.norm(g, axis=1))[:, None]
            if self.l2_include_all and self.lam > 0.0:
                g += self.lam * w[rows]
            w[rows] -= lr * g


def run_epochs(seqs, epochs: int, lr0: float, rng, update):
    """The epoch loop of every trainer. Each epoch calls update(seq, lr), which
    steps the model on one sequence and returns its summed loss, over seqs in
    a fresh permutation drawn from rng, at lr_at's rate and with numpy's
    overflow and invalid-value warnings off. It then yields (epoch, lr, loss
    per position), or raises TrainingDivergedError naming the epoch if the
    loss is not finite."""
    n_positions = sum(len(s) for s in seqs)
    for epoch in range(epochs):
        lr = lr_at(epoch, epochs, lr0)
        total = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for si in rng.permutation(len(seqs)):
                total += update(seqs[si], lr)
        if not math.isfinite(total):
            raise TrainingDivergedError(
                f"training loss is {total} in epoch {epoch}; training diverged")
        yield epoch, lr, total / n_positions


def best_entry(entries, metric: str) -> TrainLogEntry:
    """Dev-based model selection: the first entry with the highest dev score
    under metric ("accuracy" or "f1")."""
    return max(entries, key=lambda e: e.dev_acc if metric == "accuracy" else e.dev_f1)


def _select_on_dev(epochs, decode_dev, snapshot, dev_seqs, vocab, config):
    """Scores decode_dev() on dev_seqs after each of the epochs, run_epochs's
    (epoch, lr, loss) triples, and takes snapshot() whenever the epoch is the
    best_entry so far. Returns (best snapshot, log); an epoch numbered -1
    stands for the model before training and stays out of the log."""
    golds = [decode_labels(seq.labels, vocab) for seq in dev_seqs]
    candidates, best = [], None
    for epoch, lr, loss in epochs:
        preds = [decode_labels(out.labels, vocab) for out in decode_dev()]
        candidates.append(TrainLogEntry(epoch, lr, loss, token_accuracy(golds, preds),
                                        f1_chunks(golds, preds, config.chunk_mode).f1))
        if best_entry(candidates, config.dev_metric) is candidates[-1]:
            best = snapshot()
    return best, [entry for entry in candidates if entry.epoch >= 0]


def _position_masks(model, config, rng, n):
    """make_position_masks for the config's dropout; empty when it is off."""
    return make_position_masks(model, config.dropout_embed, config.dropout_hidden, rng, n)


def _sampled_history(model, oseq, config, rng):
    """Scheduled sampling: the position-by-position forward, one one-row
    stack per position, where each position's label enters the history as
    the model's prediction with probability predicted_label_prob, else as
    the gold label. Each position draws its own masks, as the draws
    interleave with the sampling. Returns (history, masks), masks with one
    row per position."""
    history, masks, h_prev = [], [], None
    for t in range(len(oseq)):
        masks.append(_position_masks(model, config, rng, 1))
        y, cache = position_forward(model, oseq, np.array([t]), history, masks=masks[-1],
                                    h_prev=h_prev)
        if model.variant == VARIANT_GRU:
            h_prev = cache["h"][0]
        sampled = rng.random() < config.predicted_label_prob
        history.append(predict_label(y)[0] if sampled else int(oseq.labels[t]))
    return history, {key: np.concatenate([m[key] for m in masks]) for key in masks[0]}


def _train_sentence(model, opt, seq, lr, config, rng) -> float:
    """One stochastic update from one sentence; returns the summed data loss.

    The whole sentence is one batched pass (models.sentence_pass), one row
    per position, with a teacher-forced label context and a wide word
    window. The output error is divided by the sentence length, so the step
    applies the gradient averaged over positions, once: the GRU's gradient
    is backpropagated through time, the gradient that gradient_check checks.
    """
    oseq = orient(seq, model.direction)
    n = len(oseq)
    if config.predicted_label_prob > 0.0:
        history, masks = _sampled_history(model, oseq, config, rng)
    else:
        history, masks = oseq.labels, _position_masks(model, config, rng, n)
    grads = Grads()
    total = sentence_pass(model, oseq, history, grads, masks=masks, scale=1.0 / n)
    opt.step(grads, lr)
    return total


def train_tagger(train_seqs, dev_seqs, vocab, config: TrainConfig, variant: str,
                 direction: str, init_word_emb=None, init_label_emb=None, rng=None):
    """Full training of one directional tagger; returns (dev-best model, log)."""
    config.validate()
    if not train_seqs:
        raise ConfigError("training set is empty")
    require_classes([*train_seqs, *dev_seqs], config)
    if rng is None:
        rng = new_rng(config.seed)
    model = build_model(
        variant, direction, vocab, rng,
        d_w=config.d_w, d_l=config.d_l, d_c=config.d_c,
        embed_size=config.embed_size, hidden_size=config.resolved_hidden_size(),
        first_level_size=config.first_level_size,
        char_embed_size=config.char_embed_size, conv_size=config.conv_size,
        use_classes=config.use_classes, use_chars=config.use_chars,
        ablate_label_context=config.ablate_label_context,
        gru_words_only=config.gru_words_only,
    )
    for table, init in (("E_w", init_word_emb), ("E_l", init_label_emb)):
        if init is not None:
            if init.shape != model.params[table].shape:
                raise ShapeError(
                    f"pretrained {table} has shape {init.shape}, model expects {model.params[table].shape}"
                )
            model.params[table] = init.copy()

    opt = SgdMomentum(model, config.momentum, config.lambda_l2,
                      l2_include_all=config.l2_include_all,
                      max_grad_norm=config.max_grad_norm)
    epochs = run_epochs(train_seqs, config.epochs_fwd_bwd, config.lr0, rng,
                        lambda seq, lr: _train_sentence(model, opt, seq, lr, config, rng))
    return _select_on_dev(epochs, lambda: tag_greedy_batch(model, dev_seqs),
                          lambda: copy.deepcopy(model), dev_seqs, vocab, config)


def train_bidirectional(fwd, bwd, train_seqs, dev_seqs, vocab, config: TrainConfig, rng=None):
    """Joint fine-tuning through the geometric-mean combination.

    The cross-entropy of the combined (renormalized) distribution has
    gradient (combined - onehot)/2 at each branch's pre-softmax layer, so
    each model receives half of the combined error signal. Updates happen
    once per sentence, after both directional passes. The untouched pair is
    the first candidate of dev selection (as epoch -1), so fine-tuning can
    only improve the dev score.
    """
    config.validate()
    if fwd.direction != DIR_FWD:
        raise ConfigError("first model must be the forward one")
    if not train_seqs:
        raise ConfigError("training set is empty")
    require_classes([*train_seqs, *dev_seqs], fwd, bwd)
    if rng is None:
        rng = new_rng(config.seed)
    fwd, bwd = copy.deepcopy(fwd), copy.deepcopy(bwd)
    opt_f, opt_b = (SgdMomentum(m, config.momentum, config.lambda_l2_bidir,
                                l2_include_all=config.l2_include_all,
                                max_grad_norm=config.max_grad_norm,
                                freeze_embeddings=config.freeze_embeddings_bidir)
                    for m in (fwd, bwd))

    def update(seq, lr):
        n = len(seq)
        masks = (_position_masks(fwd, config, rng, n), _position_masks(bwd, config, rng, n))
        gf, gb = Grads(), Grads()
        loss = bidirectional_pass(fwd, bwd, seq, gf, gb, masks=masks, scale=1.0 / n)
        opt_f.step(gf, lr)
        opt_b.step(gb, lr)
        return loss

    epochs = run_epochs(train_seqs, config.epochs_bidir, config.lr0, rng, update)
    best, log = _select_on_dev(itertools.chain([(-1, 0.0, 0.0)], epochs),
                               lambda: tag_bidirectional_batch(fwd, bwd, dev_seqs),
                               lambda: (copy.deepcopy(fwd), copy.deepcopy(bwd)),
                               dev_seqs, vocab, config)
    return best[0], best[1], log


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


def gradient_check(model, seq, epsilon: float = 1e-5, rng=None,
                   samples_per_tensor: int = 50) -> dict:
    """Max relative error of analytic vs central-difference gradients.

    Checks the exact gradient of the teacher-forced total sequence loss
    (dropout off, no L2), sampling coordinates per parameter tensor.
    """
    if rng is None:
        rng = new_rng(0)
    oseq = orient(seq, model.direction)
    analytic = sequence_grads(model, seq)
    return _finite_difference_report(model.params, analytic,
                                     lambda: sentence_pass(model, oseq, oseq.labels),
                                     epsilon, rng, samples_per_tensor)


def bidirectional_gradient_check(fwd, bwd, seq, epsilon: float = 1e-5, rng=None,
                                 samples_per_tensor: int = 50) -> dict:
    """gradient_check for the joint loss of a forward/backward pair: the
    cross-entropy of the combined distribution, whose gradient is the one
    bidirectional fine-tuning applies. Report keys are "fwd.<name>" and
    "bwd.<name>"."""
    if rng is None:
        rng = new_rng(0)
    grads_f, grads_b = Grads(), Grads()
    bidirectional_pass(fwd, bwd, seq, grads_f, grads_b)
    params, analytic = {}, {}
    for prefix, model, grads in (("fwd", fwd, grads_f), ("bwd", bwd, grads_b)):
        dense = grads.to_dense(model)
        for name, w in model.params.items():
            params[f"{prefix}.{name}"] = w
            analytic[f"{prefix}.{name}"] = dense[name]
    return _finite_difference_report(params, analytic, lambda: bidirectional_pass(fwd, bwd, seq),
                                     epsilon, rng, samples_per_tensor)
