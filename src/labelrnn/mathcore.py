"""Dense float64 matrix/vector primitives: products, activations, init, dropout.

All arrays are numpy float64. Matrices are 2-D row-major, vectors 1-D.
Randomness always flows through an explicit PCG64 generator so that a seed
fully determines a run.
"""

import numpy as np

from .errors import ConfigError, ShapeError


def new_rng(seed: int) -> np.random.Generator:
    """Deterministic generator: same seed, bit-identical stream (PCG64)."""
    return np.random.Generator(np.random.PCG64(seed))


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul: cannot multiply {a.shape} by {b.shape}")
    return a @ b


def relu(x):
    return np.maximum(x, 0.0)


def relu_grad(pre):
    """Derivative of relu w.r.t. its pre-activation; defined as 0 at 0."""
    return (pre > 0).astype(np.float64)


def sigmoid(x):
    # split on sign to avoid overflow in exp for large |x|
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_grad_from_output(s):
    return s * (1.0 - s)


def tanh(x):
    return np.tanh(x)


def tanh_grad_from_output(t):
    return 1.0 - t * t


def softmax(v: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis: subtract the max before exponentiating."""
    shifted = v - v.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def xavier_init(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform init in [-sqrt(6/(rows+cols)), +sqrt(6/(rows+cols))]."""
    if rows < 1 or cols < 1:
        raise ShapeError(f"xavier_init: dimensions must be >= 1, got {rows}x{cols}")
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


def dropout_mask(shape, keep_prob, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout mask: entries are 0 or 1/keep_prob, so the masked
    activation keeps its expectation and inference needs no rescaling.

    keep_prob is one probability, or one per column (the last axis), so
    masks of different rates can come from one draw."""
    keep = np.asarray(keep_prob, dtype=np.float64)
    if np.any(keep <= 0.0) or np.any(keep > 1.0):
        raise ConfigError(f"dropout keep probability must be in (0, 1], got {keep_prob}")
    if np.all(keep == 1.0):
        return np.ones(shape)
    return (rng.random(shape) < keep) / keep


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash, used to fingerprint serialized vocabularies."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h
