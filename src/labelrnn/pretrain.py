"""Feed-forward neural language model used to pretrain embedding tables.

One NNLM is trained per vocabulary section (words, or labels over reference
label sequences): predict token t from the n previous tokens through an
embedding concatenation, a relu hidden layer and a softmax. Only the learned
embedding table is kept.
"""

from dataclasses import dataclass

import numpy as np

from .corpus import read_lines
from .errors import ConfigError, ParseError
from .layers import embed_concat, embed_concat_backward, relu_hidden_backward, relu_hidden_forward
from .mathcore import new_rng, softmax, xavier_init


@dataclass
class NnlmParams:
    E: np.ndarray   # embedding table, shared with the downstream model
    W1: np.ndarray  # hidden weights over the context concatenation
    b1: np.ndarray
    W2: np.ndarray  # output weights, one row per vocabulary entry
    b2: np.ndarray
    context: int
    pad_id: int


def build_nnlm(vocab_size: int, pad_id: int, context: int = 4,
               embed_size: int = 200, hidden_size: int = 200, rng=None) -> NnlmParams:
    if context < 1:
        raise ConfigError(f"NNLM context length must be >= 1, got {context}")
    if rng is None:
        rng = new_rng(0)
    return NnlmParams(
        E=xavier_init(vocab_size, embed_size, rng),
        W1=xavier_init(hidden_size, context * embed_size, rng),
        b1=np.zeros(hidden_size),
        W2=xavier_init(vocab_size, hidden_size, rng),
        b2=np.zeros(vocab_size),
        context=context,
        pad_id=pad_id,
    )


def _context_indices(tokens, t, context, pad_id):
    return [int(tokens[j]) if j >= 0 else pad_id for j in range(t - context, t)]


def nnlm_forward(p: NnlmParams, tokens, t):
    idxs = _context_indices(tokens, t, p.context, p.pad_id)
    x = embed_concat(p.E, idxs)
    h, pre = relu_hidden_forward(p.W1, p.b1, x)
    y = softmax(p.W2 @ h + p.b2)
    return y, {"idxs": idxs, "x": x, "h": h, "pre": pre}


def nnlm_backward(p: NnlmParams, cache, delta):
    """delta = y - onehot(target); returns (dW1, db1, dW2, db2, embedding rows)."""
    dW2 = np.outer(delta, cache["h"])
    dh = p.W2.T @ delta
    dW1, db1, dx = relu_hidden_backward(p.W1, cache["x"], cache["pre"], dh)
    rows = embed_concat_backward(dx, cache["idxs"], p.E.shape[1])
    return dW1, db1, dW2, delta.copy(), rows


def nnlm_corpus_loss(p: NnlmParams, sequences) -> float:
    total = 0.0
    for tokens in sequences:
        for t in range(len(tokens)):
            y, _ = nnlm_forward(p, tokens, t)
            total += -float(np.log(y[int(tokens[t])]))
    return total


def nnlm_corpus_grads(p: NnlmParams, sequences) -> dict:
    """Dense gradients of nnlm_corpus_loss, for the gradient-check harness."""
    grads = {name: np.zeros_like(getattr(p, name)) for name in ("E", "W1", "b1", "W2", "b2")}
    for tokens in sequences:
        for t in range(len(tokens)):
            y, cache = nnlm_forward(p, tokens, t)
            delta = y.copy()
            delta[int(tokens[t])] -= 1.0
            dW1, db1, dW2, db2, rows = nnlm_backward(p, cache, delta)
            grads["W1"] += dW1
            grads["b1"] += db1
            grads["W2"] += dW2
            grads["b2"] += db2
            for row, vec in rows:
                grads["E"][row] += vec
    return grads


def train_nnlm(sequences, vocab_size: int, pad_id: int, *, context: int = 4,
               embed_size: int = 200, hidden_size: int = 200, epochs: int = 30,
               lr0: float = 0.5, momentum: float = 0.5, rng=None):
    """SGD-with-momentum training; returns (embedding table, per-epoch losses).

    sequences are index lists over one vocabulary section. As for the taggers,
    per-position gradients are averaged over each sequence and applied in one
    step (per-position steps diverge at the default learning rate), and the
    learning rate decays linearly.
    """
    if not sequences:
        raise ConfigError("NNLM training requires a non-empty corpus")
    if rng is None:
        rng = new_rng(0)
    p = build_nnlm(vocab_size, pad_id, context, embed_size, hidden_size, rng)
    velocity = {name: np.zeros_like(getattr(p, name)) for name in ("W1", "b1", "W2", "b2")}
    n_positions = sum(len(s) for s in sequences)
    losses = []
    for epoch in range(epochs):
        lr = lr0 * (1.0 - epoch / epochs)
        total = 0.0
        for si in rng.permutation(len(sequences)):
            tokens = sequences[si]
            n = len(tokens)
            if n == 0:
                continue
            grads = {name: np.zeros_like(getattr(p, name))
                     for name in ("W1", "b1", "W2", "b2")}
            row_grads = {}
            for t in range(n):
                y, cache = nnlm_forward(p, tokens, t)
                target = int(tokens[t])
                total += -float(np.log(max(y[target], 1e-300)))
                delta = y.copy()
                delta[target] -= 1.0
                dW1, db1, dW2, db2, rows = nnlm_backward(p, cache, delta)
                for name, g in (("W1", dW1), ("b1", db1), ("W2", dW2), ("b2", db2)):
                    grads[name] += g
                for row, vec in rows:
                    if row in row_grads:
                        row_grads[row] = row_grads[row] + vec
                    else:
                        row_grads[row] = vec.copy()
            for name in grads:
                v = velocity[name]
                v *= momentum
                v -= lr * (grads[name] / n)
                getattr(p, name).__iadd__(v)
            for row, vec in row_grads.items():
                p.E[row] -= lr * (vec / n)
        losses.append(total / n_positions)
    return p.E, losses


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
