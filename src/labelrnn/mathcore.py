"""Dense float64 matrix/vector primitives: products, activations, init, dropout.

All arrays are numpy float64. Matrices are 2-D row-major, vectors 1-D.
Randomness always flows through an explicit PCG64 generator so that a seed
fully determines a run.
"""

import numpy as np

from .errors import ConfigError, ShapeError


def new_rng(seed: int) -> np.random.Generator:
    """Deterministic generator: same seed, bit-identical stream (PCG64).
    A negative seed raises ConfigError."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
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
    # e^min(x,0) / (1 + e^-|x|): exps of non-positive values only, which cannot
    # overflow; 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, with e^x = e^-|x| there
    s = np.minimum(x, 0.0)
    np.exp(s, out=s)
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    e += 1.0
    s /= e
    return s


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


def xavier_init(rows: int, cols: int, rng: np.random.Generator, out=None) -> np.ndarray:
    """Uniform init in [-sqrt(6/(rows+cols)), +sqrt(6/(rows+cols))], into out
    if given (a C-contiguous rows x cols float64 array). The values are
    rng.uniform's: low + (high - low) * u from the same doubles u."""
    if rows < 1 or cols < 1:
        raise ShapeError(f"xavier_init: dimensions must be >= 1, got {rows}x{cols}")
    bound = np.sqrt(6.0 / (rows + cols))
    out = rng.random((rows, cols), out=out)
    out *= 2.0 * bound
    out -= bound
    return out


def dropout_mask(shape, keep_prob, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout mask: entries are 0 or 1/keep_prob, so the masked
    activation keeps its expectation and inference needs no rescaling.

    keep_prob is one probability, or one per column (the last axis, which
    may be empty), so masks of different rates can come from one draw."""
    keep = np.asarray(keep_prob, dtype=np.float64)
    lo, hi = keep.min(initial=1.0), keep.max(initial=1.0)
    if not 0.0 < lo <= hi <= 1.0:  # false for NaN too
        raise ConfigError(f"dropout keep probability must be in (0, 1], got {keep_prob}")
    if lo == 1.0:
        return np.ones(shape)
    drawn = rng.random(shape)
    # (drawn < keep) / keep, as a product: a kept entry is 1.0 * (1.0 / keep)
    return np.multiply(drawn < keep, 1.0 / keep, out=drawn)


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash, used to fingerprint serialized vocabularies."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h
