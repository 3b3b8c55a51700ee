"""Feed-forward neural language model used to pretrain embedding tables.

One NNLM is trained per vocabulary section (words, or labels over reference
label sequences): predict token t from the n previous tokens through an
embedding concatenation, a relu hidden layer and a softmax. Only the learned
embedding table is kept.

It is built from the taggers' layers, its n previous tokens forming a
label-context window. Each sequence is one batched pass (nnlm_sequence_pass,
as models.sentence_pass), stepped by the taggers' SgdMomentum without L2, in
the taggers' epoch loop (training.run_epochs).
"""

from dataclasses import dataclass

import numpy as np

from .corpus import read_lines
from .errors import ConfigError, ParseError
from .layers import (embed_concat, embed_concat_backward, label_context_indices, output_backward,
                     output_forward, relu_hidden_backward, relu_hidden_forward)
from .mathcore import new_rng, xavier_init
from .models import Grads, _cross_entropy
from .training import SgdMomentum, TrainConfig, run_epochs


@dataclass
class NnlmParams:
    """params, named as a tagger's: E_tok (the embedding table that is kept),
    H and b_h (relu layer over the context), O and b_o (softmax output)."""

    params: dict
    context: int
    pad_id: int

    def weight_matrix_names(self):
        return ["H", "O"]


def build_nnlm(vocab_size: int, pad_id: int, context: int = TrainConfig.nnlm_context,
               embed_size: int = TrainConfig.embed_size,
               hidden_size: int = TrainConfig.hidden_size, rng=None) -> NnlmParams:
    if context < 1:
        raise ConfigError(f"NNLM context length must be >= 1, got {context}")
    if rng is None:
        rng = new_rng(0)
    params = {"E_tok": xavier_init(vocab_size, embed_size, rng),
              "H": xavier_init(hidden_size, context * embed_size, rng), "b_h": np.zeros(hidden_size),
              "O": xavier_init(vocab_size, hidden_size, rng), "b_o": np.zeros(vocab_size)}
    return NnlmParams(params=params, context=context, pad_id=pad_id)


def nnlm_forward(p: NnlmParams, tokens, t: np.ndarray):
    """Distribution of the token at each position in the index array t given
    the previous p.context tokens; row k of y and of every cached array
    belongs to position t[k]."""
    w = p.params
    idxs = label_context_indices(tokens, t, p.context, p.pad_id)
    x = embed_concat(w["E_tok"], idxs)
    h, pre = relu_hidden_forward(w["H"], w["b_h"], x)
    return output_forward(w["O"], w["b_o"], h), {"idxs": idxs, "x": x, "h": h, "pre": pre}


def nnlm_backward(p: NnlmParams, cache, delta, grads: Grads):
    """Adds the gradient to grads, given delta = y - onehot(target) at the
    pre-softmax layer (one row per position after a batched forward)."""
    w = p.params
    dO, db_o, dh = output_backward(w["O"], cache["h"], delta)
    dH, db_h, dx = relu_hidden_backward(w["H"], cache["x"], cache["pre"], dh)
    for name, g in (("O", dO), ("b_o", db_o), ("H", dH), ("b_h", db_h)):
        grads.add(name, g)
    grads.add_rows("E_tok", embed_concat_backward(dx, cache["idxs"], w["E_tok"].shape[1]))


def nnlm_sequence_pass(p: NnlmParams, tokens, grads=None, scale: float = 1.0) -> float:
    """Forward and loss of one non-empty sequence in one batched pass, and
    its backward when grads are given. Returns the summed cross-entropy; with
    grads, adds scale times its gradient to them."""
    rows = np.arange(len(tokens))
    gold = np.asarray(tokens, dtype=np.intp)
    y, cache = nnlm_forward(p, tokens, rows)
    loss = _cross_entropy(y, gold, rows)
    if grads is not None:
        delta = y * scale
        delta[rows, gold] -= scale
        nnlm_backward(p, cache, delta, grads)
    return loss


def train_nnlm(sequences, vocab_size: int, pad_id: int, *,
               context: int = TrainConfig.nnlm_context, embed_size: int = TrainConfig.embed_size,
               hidden_size: int = TrainConfig.hidden_size,
               epochs: int = TrainConfig.epochs_nnlm_word, lr0: float = TrainConfig.lr0,
               momentum: float = TrainConfig.momentum, rng=None):
    """SGD-with-momentum training; returns (embedding table, per-epoch losses).

    sequences are index lists over one vocabulary section; empty ones are
    skipped. As for the taggers (training.run_epochs), per-position gradients
    are averaged over each sequence and applied in one step (per-position
    steps diverge at the default learning rate), the learning rate decays
    linearly, and a non-finite epoch loss raises TrainingDivergedError.
    """
    if not sequences:
        raise ConfigError("NNLM training requires a non-empty corpus")
    if epochs < 1:
        raise ConfigError(f"NNLM training needs at least one epoch, got {epochs}")
    if rng is None:
        rng = new_rng(0)
    p = build_nnlm(vocab_size, pad_id, context, embed_size, hidden_size, rng)
    opt = SgdMomentum(p, momentum, lam=0.0)

    def update(tokens, lr):
        if not len(tokens):
            return 0.0
        grads = Grads()
        loss = nnlm_sequence_pass(p, tokens, grads, scale=1.0 / len(tokens))
        opt.step(grads, lr)
        return loss

    losses = [loss for _, _, loss in run_epochs(sequences, epochs, lr0, rng, update)]
    return p.params["E_tok"], losses


def load_external_embeddings(path, token_to_id: dict, table: np.ndarray) -> int:
    """Overwrite table rows for tokens listed in a 'token v1 ... vD' file.

    Tokens absent from the vocabulary are skipped; rows not covered keep
    their current (random) values. Returns the number of rows loaded. A
    value that is not a finite number, on any line, raises ParseError.
    """
    dim = table.shape[1]
    loaded = 0
    for lineno, line in enumerate(read_lines(path), start=1):
        parts = line.split()
        if not parts:
            continue
        token, values = parts[0], parts[1:]
        if len(values) != dim:
            raise ConfigError(
                f"{path}:{lineno}: embedding has {len(values)} dims, table expects {dim}"
            )
        try:
            row = np.array([float(v) for v in values])
        except ValueError:
            raise ParseError(f"{path}:{lineno}: embedding value is not a number") from None
        if not np.isfinite(row).all():
            raise ParseError(f"{path}:{lineno}: embedding value is not finite")
        idx = token_to_id.get(token)
        if idx is not None:
            table[idx] = row
            loaded += 1
    return loaded


def save_embeddings(table: np.ndarray, id_to_token: dict, path):
    with open(path, "w", encoding="utf-8") as fh:
        for idx in range(table.shape[0]):
            values = " ".join(repr(float(v)) for v in table[idx])
            fh.write(f"{id_to_token[idx]} {values}\n")
