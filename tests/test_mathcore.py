import math

import numpy as np
import pytest

from labelrnn.errors import ConfigError, ShapeError
from labelrnn.mathcore import (
    dropout_mask,
    fnv1a64,
    matmul,
    new_rng,
    relu,
    relu_grad,
    sigmoid,
    sigmoid_grad_from_output,
    softmax,
    tanh,
    tanh_grad_from_output,
    xavier_init,
    dropout_mask as _dm,  # noqa: F401 (re-export check)
)
from reference import reference_sigmoid


# -- matmul -------------------------------------------------------------

def test_matmul_identity():
    m = new_rng(0).normal(size=(3, 4))
    assert np.array_equal(matmul(np.eye(3), m), m)


def test_matmul_scalar_case():
    out = matmul(np.array([[2.0]]), np.array([[3.0]]))
    assert out.shape == (1, 1) and out[0, 0] == 6.0


def test_matmul_matches_triple_loop_oracle():
    rng = new_rng(1)
    a = rng.normal(size=(4, 5))
    b = rng.normal(size=(5, 3))
    oracle = np.zeros((4, 3))
    for i in range(4):
        for j in range(3):
            for k in range(5):
                oracle[i, j] += a[i, k] * b[k, j]
    assert np.max(np.abs(matmul(a, b) - oracle)) < 1e-12


def test_matmul_shape_error_names_shapes():
    with pytest.raises(ShapeError) as err:
        matmul(np.zeros((2, 3)), np.zeros((4, 2)))
    assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)


def test_matmul_distributivity():
    rng = new_rng(2)
    a = rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3))
    c = rng.normal(size=(3, 3))
    assert np.max(np.abs(matmul(a, b + c) - (matmul(a, b) + matmul(a, c)))) < 1e-10


# -- activations ---------------------------------------------------------

def test_relu_values():
    assert relu(np.array(-3.2)) == 0.0
    assert relu(np.array(3.2)) == 3.2


def test_relu_grad_zero_at_kink():
    g = relu_grad(np.array([-1.0, 0.0, 2.0]))
    assert list(g) == [0.0, 0.0, 1.0]


def test_sigmoid_basics():
    assert sigmoid(np.array([0.0]))[0] == 0.5
    big = sigmoid(np.array([700.0, -700.0]))
    assert np.all(np.isfinite(big))
    assert 0.0 < big[1] < big[0] <= 1.0  # sigmoid(700) rounds to 1.0 in float64


def test_sigmoid_rounds_as_the_plain_form():
    """Bit for bit where(x >= 0, 1, e) / (1 + e) with e = e^-|x|, at signed
    zeros, infinities, saturation and values too small to move e^-|x|."""
    x = np.concatenate([[0.0, -0.0, np.inf, -np.inf, 700.0, -700.0, 1e-300, -1e-300, -1e-17],
                        new_rng(5).normal(size=2001) * 10.0 ** new_rng(6).integers(-8, 3, 2001)])
    assert np.array_equal(sigmoid(x), reference_sigmoid(x))
    assert np.array_equal(sigmoid(x.reshape(-1, 3)), reference_sigmoid(x.reshape(-1, 3)))


def test_tanh_one():
    assert abs(tanh(np.array([1.0]))[0] - 0.7615941559557649) < 1e-12


def test_activation_grads_match_finite_differences():
    rng = new_rng(3)
    x = rng.normal(size=20) + 0.05  # stay away from relu's kink
    eps = 1e-6
    for fn, grad_from in (
        (sigmoid, lambda v: sigmoid_grad_from_output(sigmoid(v))),
        (tanh, lambda v: tanh_grad_from_output(tanh(v))),
        (relu, lambda v: relu_grad(v)),
    ):
        fd = (fn(x + eps) - fn(x - eps)) / (2 * eps)
        rel = np.abs(grad_from(x) - fd) / np.maximum(np.abs(fd), 1e-8)
        assert np.max(rel) < 1e-6


# -- softmax ------------------------------------------------------------

def test_softmax_uniform_on_zeros():
    assert np.allclose(softmax(np.zeros(4)), 0.25, atol=1e-15)


def test_softmax_shift_invariance():
    v = new_rng(4).normal(size=7)
    assert np.max(np.abs(softmax(v) - softmax(v + 13.5))) < 1e-12


def test_softmax_matches_independent_oracle():
    v = np.array([1.0, 2.0, 3.0])
    exps = [math.exp(x - 3.0) for x in v]  # independent pure-python compute
    total = sum(exps)
    oracle = np.array([e / total for e in exps])
    assert np.max(np.abs(softmax(v) - oracle)) < 1e-12


def test_softmax_simplex_under_extreme_magnitudes():
    rng = new_rng(5)
    for _ in range(200):
        v = rng.uniform(-700, 700, size=6)
        y = softmax(v)
        assert np.all(y >= 0) and abs(y.sum() - 1.0) < 1e-12


# -- initialization and dropout --------------------------------------------

def test_xavier_support_bound():
    m = xavier_init(20, 30, new_rng(6))
    bound = math.sqrt(6.0 / 50)
    assert np.all(np.abs(m) <= bound)


def test_xavier_variance_monte_carlo():
    rows, cols = 1000, 1000
    m = xavier_init(rows, cols, new_rng(7))
    expected = 2.0 / (rows + cols)
    assert abs(m.var() - expected) / expected < 0.05


def test_xavier_deterministic():
    assert np.array_equal(xavier_init(5, 5, new_rng(8)), xavier_init(5, 5, new_rng(8)))


def test_xavier_rejects_zero_dimension():
    with pytest.raises(ShapeError):
        xavier_init(0, 3, new_rng(0))


def test_dropout_keep_one_is_identity_mask():
    assert np.all(dropout_mask(100, 1.0, new_rng(9)) == 1.0)


def test_dropout_mask_values_and_statistics():
    keep = 0.7
    mask = dropout_mask(1_000_000, keep, new_rng(10))
    values = set(np.unique(mask))
    assert values <= {0.0, 1.0 / keep}
    zero_fraction = float(np.mean(mask == 0.0))
    assert abs(zero_fraction - (1 - keep)) < 0.01
    assert abs(mask.mean() - 1.0) < 0.01


def test_dropout_invalid_keep_prob():
    with pytest.raises(ConfigError):
        dropout_mask(10, 0.0, new_rng(0))
    with pytest.raises(ConfigError):
        dropout_mask(10, 1.5, new_rng(0))
    # one probability per column: any bad column, NaN included, is rejected
    for bad in (0.0, 1.5, np.nan):
        with pytest.raises(ConfigError):
            dropout_mask((2, 3), np.array([0.8, bad, 1.0]), new_rng(0))


# -- hashing -------------------------------------------------------------

def test_fnv1a64_known_vectors():
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
