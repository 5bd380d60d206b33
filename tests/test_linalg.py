import math

import numpy as np
import pytest

from mslg.linalg import softmax, softmax_backward
from mslg.rng import Rng


# -- softmax ------------------------------------------------------------------


def test_softmax_symmetry():
    assert np.allclose(softmax([0.0, 0.0, 0.0]), [1 / 3] * 3, atol=1e-15)


def test_softmax_peaked_value():
    out = softmax([10.0, 0.0, 0.0])
    expect_top = math.exp(10.0) / (math.exp(10.0) + 2.0)
    assert out[0] == pytest.approx(expect_top, rel=1e-12)
    assert out[1] == pytest.approx((1.0 - expect_top) / 2.0, rel=1e-12)
    assert out[0] == pytest.approx(0.99991, abs=1e-5)
    assert out[1] == pytest.approx(4.54e-5, abs=1e-6)


def test_softmax_shift_invariance():
    rng = Rng(3)
    v = rng.normal(size=6)
    base = softmax(v)
    for c in (-50.0, -1.0, 1e-3, 13.7, 50.0):
        assert np.abs(softmax(v + c) - base).max() <= 1e-12


def test_softmax_simplex_and_open_interval():
    rng = Rng(11)
    for _ in range(50):
        out = softmax(rng.normal(size=8) * 10)
        assert abs(out.sum() - 1.0) <= 1e-9
        assert np.all(out > 0.0) and np.all(out < 1.0)


def test_softmax_preserves_argmax():
    rng = Rng(5)
    for _ in range(50):
        v = rng.normal(size=7) * 5
        assert softmax(v).argmax() == v.argmax()


def test_softmax_rowwise_on_matrices():
    m = np.array([[0.0, 0.0], [10.0, 0.0]])
    out = softmax(m)
    assert np.allclose(out[0], [0.5, 0.5])
    assert out[1, 0] > 0.99


# -- softmax_backward -----------------------------------------------------------


def test_softmax_backward_constant_upstream_is_zero():
    s = softmax(np.array([0.3, -1.2, 2.0]))
    out = softmax_backward(s, np.full(3, 4.2))
    assert np.abs(out).max() <= 1e-15


def test_softmax_backward_hand_case():
    out = softmax_backward(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
    assert np.allclose(out, [0.25, -0.25], atol=1e-15)


def _fd_softmax_jacobian(v, h=1e-5):
    c = v.size
    jac = np.zeros((c, c))
    for k in range(c):
        e = np.zeros(c)
        e[k] = h
        jac[:, k] = (softmax(v + e) - softmax(v - e)) / (2 * h)
    return jac


def test_softmax_backward_matches_finite_differences():
    rng = Rng(23)
    for _ in range(20):
        v = rng.normal(size=5) * 2
        upstream = rng.normal(size=5)
        s = softmax(v)
        analytic = softmax_backward(s, upstream)
        fd = _fd_softmax_jacobian(v).T @ upstream
        denom = max(np.abs(fd).max(), 1e-8)
        assert np.abs(analytic - fd).max() / denom <= 1e-5
        assert np.abs(analytic - fd).max() <= 1e-6


def test_softmax_backward_shape_mismatch():
    with pytest.raises(ValueError):
        softmax_backward(np.ones(3) / 3, np.ones(4))


# -- rng ------------------------------------------------------------------------


def test_rng_same_seed_same_stream():
    a = Rng(42)
    b = Rng(42)
    assert np.array_equal(a.uniform(1000), b.uniform(1000))
    assert np.array_equal(a.normal(1000), b.normal(1000))


def test_rng_different_seed_differs():
    assert not np.array_equal(Rng(1).uniform(100), Rng(2).uniform(100))


def test_rng_shuffle_singleton_unchanged():
    arr = np.array([7.0])
    Rng(0).shuffle(arr)
    assert arr[0] == 7.0


def test_rng_uniform_mean_law_of_large_numbers():
    draws = Rng(123).uniform(100_000)
    assert abs(draws.mean() - 0.5) <= 0.01


def test_rng_choice_empty_set_errors():
    with pytest.raises(ValueError, match="empty"):
        Rng(0).choice(0)
    with pytest.raises(ValueError, match="empty"):
        Rng(0).choice([])


def test_rng_choice_without_replacement_unique():
    idx = Rng(9).choice(50, size=20, replace=False)
    assert len(set(idx.tolist())) == 20


def test_rng_child_streams_are_keyed_and_reproducible():
    root = Rng(17)
    a = root.child(1, 4).uniform(32)
    b = Rng(17).child(1, 4).uniform(32)
    c = Rng(17).child(1, 5).uniform(32)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
