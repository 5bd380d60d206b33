import numpy as np
import pytest

from mslg.losses import (
    cce_loss,
    classification_objective,
    entropy_loss,
    kl_loss_v1,
    kl_loss_v2,
)
from mslg.model import CheckpointError, Mlp, NumericalError, SgdState, sgd_step
from mslg.rng import Rng

from helpers import assert_grads_close


def _tiny_net(seed=0, sizes=(2, 4, 2)):
    return Mlp(sizes, Rng(seed).child(0))


# -- forward ---------------------------------------------------------------------


def test_forward_zero_final_layer_uniform_rows():
    model = _tiny_net(1, (3, 5, 4))
    model.weights[-1][...] = 0.0
    model.biases[-1][...] = 0.0
    probs = model.predict(Rng(2).normal(size=(6, 3)))
    assert np.allclose(probs, 0.25, atol=1e-15)


def test_forward_identical_rows_identical_outputs():
    model = _tiny_net(3)
    x = np.tile(Rng(4).normal(size=(1, 2)), (5, 1))
    probs = model.predict(x)
    assert np.all(probs == probs[0])


def test_forward_matches_hand_trace():
    # fixed 2-4-2 net with hand-set weights; the expected value is an
    # independent pure-python trace of relu(x W1 + b1) W2 + b2 -> softmax
    model = Mlp((2, 4, 2))
    w1 = [[0.1, -0.2, 0.3, 0.5], [-0.4, 0.6, -0.1, 0.2]]
    b1 = [0.01, -0.02, 0.03, 0.0]
    w2 = [[0.2, -0.3], [0.1, 0.4], [-0.5, 0.2], [0.3, -0.1]]
    b2 = [0.05, -0.05]
    model.weights[0][...] = w1
    model.biases[0][...] = b1
    model.weights[1][...] = w2
    model.biases[1][...] = b2
    x = [0.7, -1.3]

    import math
    hidden = []
    for j in range(4):
        z = b1[j]
        for i in range(2):
            z += x[i] * w1[i][j]
        hidden.append(max(z, 0.0))
    logits = []
    for k in range(2):
        z = b2[k]
        for j in range(4):
            z += hidden[j] * w2[j][k]
        logits.append(z)
    mx = max(logits)
    exps = [math.exp(z - mx) for z in logits]
    total = sum(exps)
    expected = [e / total for e in exps]

    probs = model.predict(np.array([x]))
    assert np.abs(probs[0] - np.array(expected)).max() <= 1e-12


def test_forward_rows_on_simplex():
    model = _tiny_net(5, (4, 8, 8, 3))
    probs = model.predict(Rng(6).normal(size=(32, 4)) * 3)
    assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-9


def test_forward_shape_mismatch():
    model = _tiny_net(0)
    with pytest.raises(ValueError, match="features"):
        model.predict(np.ones((3, 5)))


def test_param_count():
    model = _tiny_net(0, (3, 7, 5, 2))
    expect = (3 + 1) * 7 + (7 + 1) * 5 + (5 + 1) * 2
    assert model.num_params == expect


def test_init_is_seed_deterministic():
    a = _tiny_net(9, (3, 6, 2)).get_flat()
    b = _tiny_net(9, (3, 6, 2)).get_flat()
    assert np.array_equal(a, b)


# -- backward ---------------------------------------------------------------------


def test_backward_zero_upstream_zero_grads():
    model = _tiny_net(7)
    probs, cache = model.forward(Rng(8).normal(size=(4, 2)))
    grad = model.backward(cache, np.zeros_like(probs))
    assert grad.shape == (model.num_params,)
    assert np.all(grad == 0.0)


def test_backward_linearity():
    model = _tiny_net(9)
    x = Rng(10).normal(size=(4, 2))
    probs, cache = model.forward(x)
    up = Rng(11).normal(size=probs.shape)
    g1 = model.backward(cache, up)
    g2 = model.backward(cache, 2.0 * up)
    assert np.allclose(g2, 2.0 * g1, rtol=1e-13, atol=0)


def test_backward_stale_cache_rejected():
    model = _tiny_net(12)
    probs, cache = model.forward(Rng(13).normal(size=(2, 2)))
    sgd_step(model, model.backward(cache, np.ones_like(probs)), SgdState(lr=0.1))
    with pytest.raises(ValueError, match="stale"):
        model.backward(cache, np.ones_like(probs))


def _inputs_clear_of_relu_kinks(model, rng, trial, d, n=4, margin=1e-3):
    """Draw a batch whose hidden pre-activations all sit away from zero, so
    central differences do not straddle a ReLU kink."""
    for attempt in range(50):
        x = rng.child(100 + trial, attempt).normal(size=(n, d))
        _, cache = model.forward(x)
        if min(np.abs(z).min() for z in cache["pre"][:-1]) > margin:
            return x
    raise AssertionError("could not find a kink-free batch")


def _fd_param_grad(model, x, scalar_of_probs, h=1e-5):
    flat = model.get_flat()
    out = np.zeros_like(flat)
    for k in range(flat.size):
        p = flat.copy()
        p[k] += h
        model.set_flat(p)
        up = scalar_of_probs(model.predict(x))
        p[k] -= 2 * h
        model.set_flat(p)
        down = scalar_of_probs(model.predict(x))
        out[k] = (up - down) / (2 * h)
    model.set_flat(flat)
    return out


_LOSS_SEEDS = {"kl_v2": 31, "kl_v1": 37, "cce": 41, "entropy": 43, "objective": 47}


@pytest.mark.parametrize("loss_name", sorted(_LOSS_SEEDS))
def test_backprop_matches_finite_differences(loss_name):
    rng = Rng(_LOSS_SEEDS[loss_name])
    for trial in range(5):
        sizes = (3, 5, 4) if trial % 2 == 0 else (2, 4, 4, 3)
        model = Mlp(sizes, rng.child(trial))
        c = sizes[-1]
        x = _inputs_clear_of_relu_kinks(model, rng, trial, sizes[0])
        yhat = np.exp(rng.child(200 + trial).normal(size=(4, c)))
        yhat /= yhat.sum(axis=1, keepdims=True)
        y_hard = rng.child(300 + trial).integers(0, c, size=4)

        if loss_name == "kl_v2":
            fn = lambda f: kl_loss_v2(f, yhat)
        elif loss_name == "kl_v1":
            fn = lambda f: kl_loss_v1(f, yhat)
        elif loss_name == "cce":
            fn = lambda f: cce_loss(f, y_hard)
        elif loss_name == "entropy":
            fn = lambda f: entropy_loss(f)
        else:
            fn = lambda f: classification_objective(f, yhat, entropy_weight=0.7)

        probs, cache = model.forward(x)
        analytic = model.backward(cache, fn(probs).grad_wrt_predictions)
        fd = _fd_param_grad(model, x, lambda f: fn(f).scalar)
        assert_grads_close(analytic, fd)


# -- sgd_step ---------------------------------------------------------------------


def _const_grads(model, value):
    return np.full(model.num_params, value)


def test_sgd_zero_lr_leaves_params():
    model = _tiny_net(14)
    before = model.get_flat()
    sgd_step(model, _const_grads(model, 1.0), SgdState(lr=0.0, momentum=0.9))
    assert np.array_equal(model.get_flat(), before)


def test_sgd_plain_reduction():
    model = _tiny_net(15)
    before = model.get_flat()
    sgd_step(model, _const_grads(model, 0.5), SgdState(lr=0.1))
    assert np.allclose(model.get_flat(), before - 0.1 * 0.5, atol=1e-15)


def test_sgd_momentum_two_steps_displacement():
    # v1 = g, v2 = 0.9 g + g = 1.9 g -> total displacement lr*g*(1 + 1.9)
    model = _tiny_net(16)
    before = model.get_flat()
    opt = SgdState(lr=0.2, momentum=0.9, weight_decay=0.0)
    sgd_step(model, _const_grads(model, 1.0), opt)
    sgd_step(model, _const_grads(model, 1.0), opt)
    assert np.allclose(model.get_flat(), before - 0.2 * (1.0 + 1.9), atol=1e-12)


def test_sgd_weight_decay_order():
    # v = g + wd*theta, theta' = theta - lr*v, with theta read before the update
    model = Mlp((1, 1))
    model.weights[0][...] = 2.0
    model.biases[0][...] = 1.0
    sgd_step(model, np.array([1.0, 0.5]),
             SgdState(lr=0.1, momentum=0.0, weight_decay=0.01))
    assert model.weights[0][0, 0] == pytest.approx(2.0 - 0.1 * (1.0 + 0.02), abs=1e-15)
    assert model.biases[0][0] == pytest.approx(1.0 - 0.1 * (0.5 + 0.01), abs=1e-15)


def test_sgd_nonfinite_gradient_aborts():
    model = _tiny_net(17)
    grads = _const_grads(model, 1.0)
    grads[0] = np.nan  # first entry of layer 0's weights
    before = model.get_flat()
    with pytest.raises(NumericalError, match="layer 0"):
        sgd_step(model, grads, SgdState(lr=0.1))
    assert np.array_equal(model.get_flat(), before)


def test_sgd_rejects_gradient_of_wrong_length():
    model = _tiny_net(17)
    before = model.get_flat()
    for bad in (np.ones(1), np.ones(model.num_params + 1)):
        with pytest.raises(ValueError, match="gradient shape"):
            sgd_step(model, bad, SgdState(lr=0.1))
    assert np.array_equal(model.get_flat(), before)


def test_sgd_nonfinite_gradient_names_its_layer():
    # a bad bias of layer 1 sits after every weight in parameter order
    model = _tiny_net(17)
    grads = _const_grads(model, 1.0)
    grads[-1] = np.inf
    with pytest.raises(NumericalError, match="layer 1"):
        sgd_step(model, grads, SgdState(lr=0.1))


def test_sgd_bitwise_reproducible():
    def run():
        model = _tiny_net(18)
        opt = SgdState(lr=0.05, momentum=0.9, weight_decay=1e-4)
        x = Rng(19).normal(size=(8, 2))
        y = Rng(20).integers(0, 2, size=8)
        for _ in range(5):
            probs, cache = model.forward(x)
            lv = cce_loss(probs, y)
            sgd_step(model, model.backward(cache, lv.grad_wrt_predictions), opt)
        return model.get_flat()

    assert np.array_equal(run(), run())


# -- perturb / flatten ---------------------------------------------------------------


def test_perturb_zero_eps_identical_copy():
    model = _tiny_net(21)
    copy = model.perturbed(np.ones(model.num_params), 0.0)
    assert copy is not model
    assert np.array_equal(copy.get_flat(), model.get_flat())


def test_perturb_reads_back_exact_offset():
    model = _tiny_net(22)
    direction = Rng(23).normal(size=model.num_params)
    eps = 3e-3
    pert = model.perturbed(direction, eps)
    assert np.array_equal(pert.get_flat(), model.get_flat() + eps * direction)


def test_perturb_symmetric_average_recovers_original():
    model = _tiny_net(24)
    direction = Rng(25).normal(size=model.num_params)
    up = model.perturbed(direction, 1e-3).get_flat()
    down = model.perturbed(direction, -1e-3).get_flat()
    assert np.abs((up + down) / 2 - model.get_flat()).max() <= 1e-12


def test_perturb_length_mismatch():
    model = _tiny_net(26)
    with pytest.raises(ValueError, match="direction"):
        model.perturbed(np.ones(model.num_params + 1), 1e-3)


def test_flatten_roundtrip_identity():
    model = _tiny_net(27, (3, 6, 4, 2))
    flat = model.get_flat()
    other = Mlp((3, 6, 4, 2))
    other.set_flat(flat)
    assert np.array_equal(other.get_flat(), flat)
    for w1, w2 in zip(model.weights, other.weights):
        assert np.array_equal(w1, w2)


def test_parameters_are_views_in_checkpoint_order(tmp_path):
    model = _tiny_net(30, (3, 5, 2))
    expect = np.concatenate([w.ravel() for w in model.weights]
                            + [b.ravel() for b in model.biases])
    assert np.array_equal(model.params, expect)
    for arr in model.weights + model.biases:
        assert np.shares_memory(arr, model.params)
    model.biases[1][0] = 7.5
    assert model.params[-2] == 7.5
    model.save(tmp_path / "m.ckpt")
    assert tmp_path.joinpath("m.ckpt").read_bytes().endswith(model.params.tobytes())


# -- checkpoint io ---------------------------------------------------------------


def test_checkpoint_roundtrip_bitwise(tmp_path):
    model = _tiny_net(28, (3, 5, 2))
    path = tmp_path / "model.ckpt"
    model.save(path)
    loaded = Mlp.load(path)
    assert loaded.layer_sizes == model.layer_sizes
    assert np.array_equal(loaded.get_flat(), model.get_flat())


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="magic"):
        Mlp.load(path)


def test_checkpoint_truncated(tmp_path):
    model = _tiny_net(29)
    path = tmp_path / "model.ckpt"
    model.save(path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(CheckpointError):
        Mlp.load(path)
