import ast
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import mslg.model
from mslg.linalg import softmax, softmax_backward
from mslg.losses import (
    cce_logit_grad,
    cce_loss,
    classification_objective,
    entropy_loss,
    kl_loss_v1,
    kl_loss_v2,
)
from mslg.model import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION, PREDICT_ROWS, CheckpointError,
                        Mlp, NumericalError, SgdState, sgd_pass, sgd_step)
from mslg.rng import Rng

from helpers import (FailingArray, assert_grads_close, fd_param_grad, kink_free_batch,
                     wide_eval_split)


def _tiny_net(seed=0, sizes=(2, 4, 2)):
    return Mlp(sizes, Rng(seed, 0))


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


@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 1600])
def test_predict_is_forward_over_blocks_of_predict_rows(n, monkeypatch):
    model = _tiny_net(18, (3, 5, 4))
    x = Rng(19).normal(size=(n, 3))
    starts = range(0, n, PREDICT_ROWS) or [0]  # a 0-row input is one empty block
    expect = np.concatenate([model.forward(x[i:i + PREDICT_ROWS])[0] for i in starts])
    rows = []
    forward = Mlp.forward
    monkeypatch.setattr(Mlp, "forward", lambda self, b: rows.append(len(b)) or forward(self, b))
    probs = model.predict(x)
    assert probs.shape == (n, 4) and np.array_equal(probs, expect)
    assert rows == [len(x[i:i + PREDICT_ROWS]) for i in starts]


def test_predict_on_a_wide_split_agrees_with_one_whole_forward():
    # blocks may take another BLAS path than the whole split, so only the
    # last bits may differ
    model, split = wide_eval_split()
    whole = model.forward(split.features)[0]
    probs = model.predict(split.features)
    assert np.array_equal(probs.argmax(axis=1), whole.argmax(axis=1))
    np.testing.assert_allclose(probs, whole, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n", [0, 300])
def test_predict_checks_features_at_any_row_count(n):
    with pytest.raises(ValueError, match="input has 5 features, model expects 2"):
        _tiny_net(0).predict(np.ones((n, 5)))


def test_param_count():
    model = _tiny_net(0, (3, 7, 5, 2))
    expect = (3 + 1) * 7 + (7 + 1) * 5 + (5 + 1) * 2
    assert model.num_params == expect


def test_init_is_seed_deterministic():
    a = _tiny_net(9, (3, 6, 2)).params
    b = _tiny_net(9, (3, 6, 2)).params
    assert np.array_equal(a, b)


def test_forward_cache_holds_only_activations_and_probs():
    probs, cache = _tiny_net(14, (3, 5, 4, 2)).forward(Rng(15).normal(size=(6, 3)))
    assert set(cache) == {"model", "version", "acts", "probs"}
    assert [a.shape for a in cache["acts"]] == [(6, 3), (6, 5), (6, 4)]
    assert cache["probs"] is probs


def test_forward_peak_memory_is_about_two_hidden_activations():
    # the cache keeps each hidden layer's output once; a second copy of its
    # pre-activation would take the peak to about 4 such arrays
    model = Mlp((64, 256, 256, 10), Rng(16, 0))
    x = Rng(17).normal(size=(1600, 64))
    model.forward(x)
    tracemalloc.start()
    try:
        model.forward(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 1600 * 256 * 8, peak


def _pre_activation_reference(model, x, dz, direction):
    """(backward, tangent) with each ReLU mask taken from the hidden layer's
    recomputed pre-activation, as the cache's old `pre` list gave it."""
    acts, pre = [x], []
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        pre.append(acts[-1] @ w + b)
        acts.append(np.maximum(pre[-1], 0.0))
    probs = softmax(acts[-1] @ model.weights[-1] + model.biases[-1])
    grad = np.empty(model.num_params)
    dws, dbs = model.views(grad)
    for i in range(model.num_layers - 1, -1, -1):
        np.matmul(acts[i].T, dz, out=dws[i])
        dz.sum(axis=0, out=dbs[i])
        if i > 0:
            dz = (dz @ model.weights[i].T) * (pre[i - 1] > 0.0)
    tws, tbs = model.views(direction)
    t = acts[0] @ tws[0] + tbs[0]
    for i in range(1, model.num_layers):
        t = (t * (pre[i - 1] > 0.0)) @ model.weights[i] + acts[i] @ tws[i] + tbs[i]
    return grad, softmax_backward(probs, t)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), sizes=st.lists(st.integers(1, 6), min_size=3, max_size=5),
       b=st.integers(1, 6), seed=st.integers(0, 2**16))
def test_backward_and_tangent_masks_equal_pre_activation_masks(data, sizes, b, seed):
    # zero rows of x, dead units (zero weight column and bias) and zero
    # biases give hidden pre-activations of exactly +-0.0
    model = _tiny_net(seed, tuple(sizes))
    for w, bias in zip(model.weights[:-1], model.biases[:-1]):
        bias[...] = Rng(seed, 1).normal(size=bias.shape)
        bias[data.draw(hnp.arrays(bool, bias.shape))] = 0.0
        dead = data.draw(hnp.arrays(bool, bias.shape))
        w[:, dead] = 0.0
        bias[dead] = 0.0
    x = Rng(seed, 2).normal(size=(b, sizes[0]))
    x[data.draw(hnp.arrays(bool, b))] = data.draw(st.sampled_from([0.0, -0.0]))
    dz = Rng(seed, 3).normal(size=(b, sizes[-1]))
    direction = Rng(seed, 4).normal(size=model.num_params)
    _, cache = model.forward(x)
    grad, tangent = _pre_activation_reference(model, x, dz.copy(), direction)
    assert model.backward(cache, dz).tobytes() == grad.tobytes()
    assert model.tangent(cache, direction).tobytes() == tangent.tobytes()


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


_LOSS_SEEDS = {"kl_v2": 31, "kl_v1": 37, "cce": 41, "entropy": 43, "objective": 47}


@pytest.mark.parametrize("loss_name", sorted(_LOSS_SEEDS))
def test_backprop_matches_finite_differences(loss_name):
    seed = _LOSS_SEEDS[loss_name]
    for trial in range(5):
        sizes = (3, 5, 4) if trial % 2 == 0 else (2, 4, 4, 3)
        model = Mlp(sizes, Rng(seed, trial))
        c = sizes[-1]
        x = kink_free_batch(model, (seed, 100 + trial), (4, sizes[0]))
        yhat = np.exp(Rng(seed, 200 + trial).normal(size=(4, c)))
        yhat /= yhat.sum(axis=1, keepdims=True)
        y_hard = Rng(seed, 300 + trial).integers(0, c, size=4)

        fn = {"kl_v2": lambda f: kl_loss_v2(f, yhat),
              "kl_v1": lambda f: kl_loss_v1(f, yhat),
              "cce": lambda f: cce_loss(f, y_hard), "entropy": entropy_loss,
              "objective": lambda f: classification_objective(f, yhat, entropy_weight=0.7),
              }[loss_name]

        probs, cache = model.forward(x)
        dz = softmax_backward(probs, fn(probs).grad_wrt_predictions)
        analytic = model.backward(cache, dz)
        fd = fd_param_grad(model, x, lambda f: fn(f).scalar)
        assert_grads_close(analytic, fd)


# -- sgd_step ---------------------------------------------------------------------


def _const_grads(model, value):
    return np.full(model.num_params, value)


def test_sgd_zero_lr_leaves_params():
    model = _tiny_net(14)
    before = model.params.copy()
    sgd_step(model, _const_grads(model, 1.0), SgdState(lr=0.0, momentum=0.9))
    assert np.array_equal(model.params, before)


def test_sgd_plain_reduction():
    model = _tiny_net(15)
    before = model.params.copy()
    sgd_step(model, _const_grads(model, 0.5), SgdState(lr=0.1))
    assert np.allclose(model.params, before - 0.1 * 0.5, atol=1e-15)


def test_sgd_momentum_two_steps_displacement():
    # v1 = g, v2 = 0.9 g + g = 1.9 g -> total displacement lr*g*(1 + 1.9)
    model = _tiny_net(16)
    before = model.params.copy()
    opt = SgdState(lr=0.2, momentum=0.9, weight_decay=0.0)
    sgd_step(model, _const_grads(model, 1.0), opt)
    sgd_step(model, _const_grads(model, 1.0), opt)
    assert np.allclose(model.params, before - 0.2 * (1.0 + 1.9), atol=1e-12)


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
    before = model.params.copy()
    with pytest.raises(NumericalError, match="layer 0"):
        sgd_step(model, grads, SgdState(lr=0.1))
    assert np.array_equal(model.params, before)


def test_sgd_rejects_gradient_of_wrong_length():
    model = _tiny_net(17)
    before = model.params.copy()
    for bad in (np.ones(1), np.ones(model.num_params + 1)):
        with pytest.raises(ValueError, match="gradient shape"):
            sgd_step(model, bad, SgdState(lr=0.1))
    assert np.array_equal(model.params, before)


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
        return model.params

    assert np.array_equal(run(), run())


# -- sgd_pass ----------------------------------------------------------------------


def test_sgd_pass_steps_each_batch_of_order_in_turn():
    # n=5, batch 2: batches order[0:2], order[2:4], order[4:5]
    x = Rng(21).normal(size=(5, 2))
    y = np.array([0, 1, 1, 0, 1])
    order = np.array([3, 0, 4, 1, 2])
    losses = [0.3, 0.7, 1.1]
    seen = []

    def batch_loss(ids, probs, cache):
        seen.append(ids.tolist())
        return losses[len(seen) - 1], cce_logit_grad(probs, y[ids])

    model = _tiny_net(22)
    opt = SgdState(lr=0.1, momentum=0.9, weight_decay=1e-4)
    mean = sgd_pass(model, opt, x, order, 2, batch_loss)
    assert seen == [[3, 0], [4, 1], [2]]
    assert mean == (2 * losses[0] + 2 * losses[1] + losses[2]) / 5

    reference = _tiny_net(22)
    ref_opt = SgdState(lr=0.1, momentum=0.9, weight_decay=1e-4)
    for ids in seen:
        probs, cache = reference.forward(x[ids])
        sgd_step(reference, reference.backward(cache, cce_logit_grad(probs, y[ids])), ref_opt)
    assert np.array_equal(model.params, reference.params)
    assert np.array_equal(opt.velocity, ref_opt.velocity)


def _sgd_step_uses():
    """(module, innermost enclosing function) of every use of the name
    `sgd_step` in the package's code, its definition and imports aside."""
    uses = []

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            name = getattr(child, "id", None) or getattr(child, "attr", None)
            if isinstance(child, (ast.Name, ast.Attribute)) and name == "sgd_step":
                uses.append((module, where))
            inner = getattr(child, "name", "<lambda>") if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)) else where
            visit(child, module, inner)

    for path in sorted(Path(mslg.model.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    return uses


def test_sgd_step_is_used_only_inside_sgd_pass():
    # every training loop steps through sgd_pass; a method supplies its batch
    # loss and does not copy the loop
    assert _sgd_step_uses() == [("model", "sgd_pass")]


# -- perturb / flatten ---------------------------------------------------------------


def test_perturb_zero_eps_identical_copy():
    model = _tiny_net(21)
    copy = model.perturbed(np.ones(model.num_params), 0.0)
    assert copy is not model
    assert np.array_equal(copy.params, model.params)


def test_perturb_reads_back_exact_offset():
    model = _tiny_net(22)
    direction = Rng(23).normal(size=model.num_params)
    eps = 3e-3
    pert = model.perturbed(direction, eps)
    assert np.array_equal(pert.params, model.params + eps * direction)


def test_perturb_symmetric_average_recovers_original():
    model = _tiny_net(24)
    direction = Rng(25).normal(size=model.num_params)
    up = model.perturbed(direction, 1e-3).params
    down = model.perturbed(direction, -1e-3).params
    assert np.abs((up + down) / 2 - model.params).max() <= 1e-12


def test_perturb_length_mismatch():
    model = _tiny_net(26)
    with pytest.raises(ValueError, match="direction"):
        model.perturbed(np.ones(model.num_params + 1), 1e-3)


def test_flatten_roundtrip_identity():
    model = _tiny_net(27, (3, 6, 4, 2))
    flat = model.params.copy()
    other = Mlp((3, 6, 4, 2))
    other.params[...] = flat
    assert np.array_equal(other.params, flat)
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


# -- tangent (forward-mode directional derivative) ------------------------------------


@pytest.mark.parametrize("sizes", [(2, 32, 32, 4), (64, 256, 256, 10)],
                         ids=["desk", "wide"])
def test_tangent_matches_central_difference(sizes):
    # at eps = 1e-7 the difference quotient of the softmax output is accurate
    # to ~1e-9; the tangent must agree far beyond the old eps = 1e-3 quotient
    eps = 1e-7
    for trial in range(3):
        model = _tiny_net(60 + trial, sizes)
        x = kink_free_batch(model, (61, 100 + trial), (4, sizes[0]), margin=1e-5)
        direction = Rng(62, trial).normal(size=model.num_params)
        direction /= np.linalg.norm(direction)
        _, cache = model.forward(x)
        tangent = model.tangent(cache, direction)
        fd = (model.perturbed(direction, eps).predict(x)
              - model.perturbed(direction, -eps).predict(x)) / (2 * eps)
        assert tangent.shape == fd.shape
        assert np.abs(tangent - fd).max() <= 1e-6 * np.abs(fd).max()


def test_tangent_is_adjoint_of_backward():
    # <u, J d> == <J^T u, d> for any upstream u and direction d; backward
    # starts at the logits, so u is pulled back through softmax first
    model = _tiny_net(63, (3, 7, 5, 4))
    probs, cache = model.forward(Rng(64).normal(size=(6, 3)))
    u = Rng(65).normal(size=probs.shape)
    d = Rng(66).normal(size=model.num_params)
    lhs = float(np.sum(u * model.tangent(cache, d)))
    rhs = float(model.backward(cache, softmax_backward(probs, u)) @ d)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(1, 6), min_size=2, max_size=4),
       seed=st.integers(0, 2**16),
       a=st.floats(-10, 10), b=st.floats(-10, 10))
def test_tangent_is_linear_in_direction(sizes, seed, a, b):
    model = _tiny_net(seed, tuple(sizes))
    _, cache = model.forward(Rng(seed, 0).normal(size=(3, sizes[0])))
    d1 = Rng(seed, 1).normal(size=model.num_params)
    d2 = Rng(seed, 2).normal(size=model.num_params)
    t1 = model.tangent(cache, d1)
    t2 = model.tangent(cache, d2)
    combined = model.tangent(cache, a * d1 + b * d2)
    scale = abs(a) * np.abs(t1).max() + abs(b) * np.abs(t2).max()
    assert np.abs(combined - (a * t1 + b * t2)).max() <= 1e-12 * max(scale, 1.0)
    assert np.all(model.tangent(cache, np.zeros(model.num_params)) == 0.0)


def test_tangent_stale_or_foreign_cache_rejected():
    model = _tiny_net(67)
    probs, cache = model.forward(Rng(68).normal(size=(2, 2)))
    direction = np.ones(model.num_params)
    with pytest.raises(ValueError, match="stale"):
        _tiny_net(67).tangent(cache, direction)
    sgd_step(model, model.backward(cache, np.ones_like(probs)), SgdState(lr=0.1))
    with pytest.raises(ValueError, match="stale"):
        model.tangent(cache, direction)


def test_tangent_direction_length_mismatch():
    model = _tiny_net(69)
    _, cache = model.forward(Rng(70).normal(size=(2, 2)))
    with pytest.raises(ValueError, match="direction"):
        model.tangent(cache, np.ones(model.num_params + 1))


# -- checkpoint io ---------------------------------------------------------------


def test_checkpoint_roundtrip_bitwise(tmp_path):
    model = _tiny_net(28, (3, 5, 2))
    path = tmp_path / "model.ckpt"
    model.save(path)
    loaded = Mlp.load(path)
    assert loaded.layer_sizes == model.layer_sizes
    assert np.array_equal(loaded.params, model.params)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), sizes=st.lists(st.integers(1, 9), min_size=2, max_size=5))
def test_checkpoint_roundtrip_bitwise_property(data, sizes):
    # any float64 bit pattern, NaN payloads and infinities included: a
    # non-finite parameter is refused as it is loaded, naming the file, and
    # every finite pattern comes back bit for bit
    model = Mlp(sizes)
    params = data.draw(hnp.arrays(np.float64, model.num_params,
                                  elements=st.floats(width=64)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        if not np.isfinite(params).all():
            model.params[...] = params
            model.save(path)
            with pytest.raises(CheckpointError) as refused:
                Mlp.load(path)
            assert str(refused.value) == f"{path}: a parameter is not finite"
            params = np.where(np.isfinite(params), params, 0.0)
        model.params[...] = params
        model.save(path)
        loaded = Mlp.load(path)
    assert loaded.layer_sizes == tuple(sizes)
    assert loaded.params.tobytes() == params.tobytes()


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


def _checkpoint_header(*sizes, version=CHECKPOINT_VERSION, n_sizes=None):
    """The u32 fields after the magic; `n_sizes` may claim other than len(sizes)."""
    return (struct.pack("<II", version, len(sizes) if n_sizes is None else n_sizes)
            + struct.pack(f"<{len(sizes)}I", *sizes))


@pytest.mark.parametrize("header,message", [
    (_checkpoint_header(100000, 100000, 100000),
     "expected 160001600000 parameter bytes, found 64"),
    (_checkpoint_header(2, 0), "layer sizes must be >= 2 positive ints, got (2, 0)"),
    (_checkpoint_header(2), "layer sizes must be >= 2 positive ints, got (2,)"),
    (_checkpoint_header(2, 3, version=CHECKPOINT_VERSION + 1),
     f"unsupported checkpoint version {CHECKPOINT_VERSION + 1}"),
    # 17 sizes claimed, 16 in the 64 bytes that follow
    (_checkpoint_header(n_sizes=17), "truncated checkpoint header"),
], ids=["oversized", "zero", "one", "version", "truncated-header"])
def test_checkpoint_header_is_checked_before_the_model_is_built(tmp_path, header, message):
    # 64 parameter bytes; the oversized header would need 149 GiB
    path = tmp_path / "bad.ckpt"
    path.write_bytes(CHECKPOINT_MAGIC + header + bytes(64))
    with pytest.raises(CheckpointError) as exc:
        Mlp.load(path)
    assert str(exc.value) == f"{path}: {message}"


def test_checkpoint_failed_write_keeps_previous_file(tmp_path):
    path = tmp_path / "last_good.ckpt"
    _tiny_net(30).save(path)
    before = path.read_bytes()
    model = _tiny_net(31)
    model.params = model.params.view(FailingArray)
    with pytest.raises(OSError, match="no space"):
        model.save(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
