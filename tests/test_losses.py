import math

import numpy as np
import pytest

from mslg.linalg import softmax, softmax_backward
from mslg.losses import (
    cce_loss,
    classification_objective,
    entropy_loss,
    kl_loss_v1,
    kl_loss_v2,
)
from mslg.rng import Rng

from helpers import assert_grads_close as _assert_grad_matches, fd_grad_presoftmax


def _random_simplex(rng, b, c, scale=2.0):
    return softmax(rng.normal(size=(b, c)) * scale)


# -- kl_loss_v2 ------------------------------------------------------------------


def test_kl_v2_zero_at_equality_and_constant_grad():
    rng = Rng(0)
    f = _random_simplex(rng, 3, 4)
    lv = kl_loss_v2(f, f.copy())
    assert lv.scalar == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(lv.grad_wrt_predictions, 1.0 / 3.0, atol=1e-12)


def test_kl_v2_hand_value():
    lv = kl_loss_v2(np.array([[0.9, 0.1]]), np.array([[0.5, 0.5]]))
    expect = 0.9 * math.log(1.8) + 0.1 * math.log(0.2)
    assert lv.scalar == pytest.approx(expect, rel=1e-12)
    assert lv.scalar == pytest.approx(0.3681, abs=1e-4)


def test_kl_v2_prediction_gradient_matches_fd():
    rng = Rng(1)
    for _ in range(10):
        z = rng.normal(size=(2, 5)) * 2
        yhat = _random_simplex(rng, 2, 5)
        f = softmax(z)
        lv = kl_loss_v2(f, yhat)
        analytic_z = softmax_backward(f, lv.grad_wrt_predictions)
        fd_z = fd_grad_presoftmax(lambda p: kl_loss_v2(p, yhat).scalar, z)
        _assert_grad_matches(analytic_z, fd_z)


def test_kl_v2_rejects_non_simplex():
    with pytest.raises(ValueError, match="simplex"):
        kl_loss_v2(np.array([[0.9, 0.3]]), np.array([[0.5, 0.5]]))


# -- kl_loss_v1 ------------------------------------------------------------------


def test_kl_v1_zero_at_equality():
    rng = Rng(3)
    f = _random_simplex(rng, 4, 3)
    assert kl_loss_v1(f, f.copy()).scalar == pytest.approx(0.0, abs=1e-12)


def test_kl_v1_hand_value_and_asymmetry():
    f = np.array([[0.9, 0.1]])
    yhat = np.array([[0.5, 0.5]])
    v1 = kl_loss_v1(f, yhat).scalar
    v2 = kl_loss_v2(f, yhat).scalar
    expect_v1 = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)
    assert v1 == pytest.approx(expect_v1, rel=1e-12)
    assert v1 == pytest.approx(0.5108, abs=1e-4)
    assert v2 == pytest.approx(0.3681, abs=1e-4)
    assert abs(v1 - v2) > 0.1


def test_kl_v1_prediction_gradient_matches_fd():
    rng = Rng(4)
    for _ in range(10):
        z = rng.normal(size=(3, 4)) * 2
        yhat = _random_simplex(rng, 3, 4)
        f = softmax(z)
        lv = kl_loss_v1(f, yhat)
        analytic_z = softmax_backward(f, lv.grad_wrt_predictions)
        fd_z = fd_grad_presoftmax(lambda p: kl_loss_v1(p, yhat).scalar, z)
        _assert_grad_matches(analytic_z, fd_z)


def test_kl_scalars_nonnegative_zero_iff_equal():
    rng = Rng(5)
    for _ in range(50):
        f = _random_simplex(rng, 2, 6)
        yhat = _random_simplex(rng, 2, 6)
        assert kl_loss_v1(f, yhat).scalar >= 0.0
        assert kl_loss_v2(f, yhat).scalar >= 0.0
        # generic random pairs are strictly apart
        assert kl_loss_v2(f, yhat).scalar > 1e-6
    f = _random_simplex(rng, 2, 6)
    assert kl_loss_v2(f, f.copy()).scalar <= 1e-12
    assert kl_loss_v1(f, f.copy()).scalar <= 1e-12


# -- cce_loss --------------------------------------------------------------------


def test_cce_perfect_one_hot_is_zero():
    f = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert cce_loss(f, [0, 2]).scalar == pytest.approx(0.0, abs=1e-10)


def test_cce_uniform_is_log_c():
    f = np.full((1, 4), 0.25)
    for y in range(4):
        assert cce_loss(f, [y]).scalar == pytest.approx(math.log(4.0), rel=1e-12)


def test_cce_label_out_of_range():
    f = np.full((1, 3), 1 / 3)
    with pytest.raises(ValueError, match="out of range"):
        cce_loss(f, [3])
    with pytest.raises(ValueError, match="out of range"):
        cce_loss(f, [-1])


def test_cce_gradient_matches_fd():
    rng = Rng(6)
    for _ in range(10):
        z = rng.normal(size=(3, 5)) * 2
        y = rng.integers(0, 5, size=3)
        f = softmax(z)
        lv = cce_loss(f, y)
        analytic_z = softmax_backward(f, lv.grad_wrt_predictions)
        fd_z = fd_grad_presoftmax(lambda p: cce_loss(p, y).scalar, z)
        _assert_grad_matches(analytic_z, fd_z)
        # classic closed form through the softmax: (f - onehot)/b
        onehot = np.zeros_like(f)
        onehot[np.arange(3), y] = 1.0
        assert np.allclose(analytic_z, (f - onehot) / 3, atol=1e-9)


# -- entropy_loss ----------------------------------------------------------------


def test_entropy_one_hot_rows_zero():
    f = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert entropy_loss(f).scalar == pytest.approx(0.0, abs=1e-9)


def test_entropy_uniform_is_log_c():
    f = np.full((2, 10), 0.1)
    assert entropy_loss(f).scalar == pytest.approx(math.log(10.0), rel=1e-12)


def test_entropy_range_on_random_rows():
    rng = Rng(7)
    f = _random_simplex(rng, 1000, 6, scale=3.0)
    for i in range(0, 1000, 50):
        s = entropy_loss(f[i:i + 1]).scalar
        assert 0.0 <= s <= math.log(6.0) + 1e-12
    total = entropy_loss(f).scalar
    assert 0.0 <= total <= math.log(6.0) + 1e-12


def test_entropy_gradient_matches_fd():
    rng = Rng(8)
    for _ in range(10):
        z = rng.normal(size=(2, 4)) * 2
        f = softmax(z)
        lv = entropy_loss(f)
        analytic_z = softmax_backward(f, lv.grad_wrt_predictions)
        fd_z = fd_grad_presoftmax(lambda p: entropy_loss(p).scalar, z)
        _assert_grad_matches(analytic_z, fd_z)


# -- classification_objective ------------------------------------------------------


def test_objective_reduces_to_kl_at_zero_weight():
    rng = Rng(9)
    f = _random_simplex(rng, 3, 4)
    yhat = _random_simplex(rng, 3, 4)
    obj = classification_objective(f, yhat, entropy_weight=0.0)
    kl = kl_loss_v2(f, yhat)
    assert obj.scalar == kl.scalar
    assert np.array_equal(obj.grad_wrt_predictions, kl.grad_wrt_predictions)


def test_objective_zero_for_matching_one_hot():
    f = np.array([[1.0, 0.0], [0.0, 1.0]])
    obj = classification_objective(f, f.copy(), entropy_weight=1.0)
    assert obj.scalar == pytest.approx(0.0, abs=1e-9)


def test_objective_linear_in_entropy_weight():
    rng = Rng(10)
    f = _random_simplex(rng, 3, 5)
    yhat = _random_simplex(rng, 3, 5)
    ent = entropy_loss(f).scalar
    base = classification_objective(f, yhat, 0.0).scalar
    for w in (0.25, 1.0, 3.5):
        obj = classification_objective(f, yhat, w).scalar
        assert obj - base == pytest.approx(w * ent, abs=1e-12)


# -- asymmetric gradient growth near a wrong peaked label ---------------------------


def test_peaked_wrong_label_gradient_ratio():
    # soft label peaked at the (wrong) class 5 at init scale K=10;
    # prediction mass moved away from class 5
    c = 10
    logits = np.zeros(c)
    logits[5] = 10.0
    yhat = softmax(logits)[None, :]
    for f5 in (0.05, 0.02, 0.01, 0.001):
        f = np.full(c, (1.0 - f5) / (c - 1))
        f[5] = f5
        f = f[None, :]
        g1 = abs(kl_loss_v1(f, yhat).grad_wrt_predictions[0, 5])
        g2 = abs(kl_loss_v2(f, yhat).grad_wrt_predictions[0, 5])
        assert g1 >= 10.0 * g2


# -- input checks ------------------------------------------------------------------
# The training loop runs the logit-space kernels of mslg.trainer, which skip
# these checks; the reference losses keep them.

_GOOD = np.array([[0.25, 0.75], [0.5, 0.5]])
_PUBLIC_LOSSES = {
    "kl_v1": lambda f, yhat: kl_loss_v1(f, yhat),
    "kl_v2": lambda f, yhat: kl_loss_v2(f, yhat),
    "cce": lambda f, yhat: cce_loss(f, np.array([1, 0])),
    "entropy": lambda f, yhat: entropy_loss(f),
    "objective": lambda f, yhat: classification_objective(f, yhat, 0.5),
}


@pytest.mark.parametrize("bad", [
    np.array([[0.25, 0.75], [0.5, 0.45]]),      # a row off the simplex
    np.array([[0.25, 0.75], [np.nan, 0.5]]),    # a non-finite entry
], ids=["off_sum", "nan"])
@pytest.mark.parametrize("name", sorted(_PUBLIC_LOSSES))
def test_public_losses_reject_off_simplex_input(name, bad):
    loss = _PUBLIC_LOSSES[name]
    loss(_GOOD, _GOOD)  # accepted
    with pytest.raises(ValueError, match="row 1 is not on the simplex"):
        loss(bad, _GOOD)
    if name in ("kl_v1", "kl_v2", "objective"):
        with pytest.raises(ValueError, match="soft labels: row 1"):
            loss(_GOOD, bad)
