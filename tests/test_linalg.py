import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import mslg.rng
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


@settings(max_examples=60, deadline=None)
@given(data=st.data(), b=st.integers(1, 5), c=st.integers(1, 7))
def test_softmax_backward_is_jacobian_product_property(data, b, c):
    z = data.draw(hnp.arrays(np.float64, (b, c), elements=st.floats(-30.0, 30.0)))
    u = data.draw(hnp.arrays(np.float64, (b, c), elements=st.floats(-1e3, 1e3)))
    s = softmax(z)
    out = softmax_backward(s, u)
    tol = 1e-12 * (1.0 + np.abs(u).max())
    for row in range(b):
        jac = np.diag(s[row]) - np.outer(s[row], s[row])
        assert np.allclose(out[row], jac @ u[row], rtol=0, atol=tol)
    assert np.abs(out.sum(axis=1)).max() <= tol


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
    assert np.array_equal(a.random(1000), b.random(1000))
    assert np.array_equal(a.standard_normal(1000), b.standard_normal(1000))


def test_rng_different_seed_differs():
    assert not np.array_equal(Rng(1).random(100), Rng(2).random(100))


def test_rng_uniform_mean_law_of_large_numbers():
    draws = Rng(123).random(100_000)
    assert abs(draws.mean() - 0.5) <= 0.01


def test_rng_choice_empty_set_errors():
    # numpy's own refusals: Rng is numpy's Generator and adds no check of its own
    with pytest.raises(ValueError, match="a must be a positive integer"):
        Rng(0).choice(0)
    with pytest.raises(ValueError, match="a cannot be empty"):
        Rng(0).choice([])


def test_rng_choice_without_replacement_unique():
    idx = Rng(9).choice(50, size=20, replace=False)
    assert len(set(idx.tolist())) == 20


def test_rng_child_streams_are_keyed_and_reproducible():
    # Rng(seed, *key) is the SeedSequence spawn-key stream; artifacts depend
    # on this exact formula
    def spawned(seed, *key):
        ss = np.random.SeedSequence(seed, spawn_key=key)
        return np.random.Generator(np.random.PCG64(ss)).random(32)

    a = Rng(17, 1, 4).random(32)
    assert np.array_equal(a, spawned(17, 1, 4))
    assert np.array_equal(a, Rng(17, 1, 4).random(32))
    assert np.array_equal(Rng(17).random(32), spawned(17))
    assert not np.array_equal(a, Rng(17, 1, 5).random(32))
    assert not np.array_equal(a, Rng(17, 4, 1).random(32))
    assert not np.array_equal(a, Rng(18, 1, 4).random(32))


def test_stream_keys_are_distinct():
    # every first stream key sits in one table: gen and train may share a
    # seed, so two equal keys would draw the same numbers for two uses; the
    # values are pinned, as artifacts depend on them
    keys = {name: value for name, value in vars(mslg.rng).items()
            if name.isupper() and isinstance(value, int)}
    assert keys == {"ROLE_INIT": 0, "ROLE_TRAIN": 1, "ROLE_META": 2, "GEN_DATA": 10,
                    "GEN_SPLIT": 11, "GEN_NOISE": 12, "PROBE_INIT": 101, "PROBE_ORDER": 102}
    assert len(set(keys.values())) == len(keys)
