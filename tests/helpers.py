"""References shared by the unit tests and the acceptance criteria, each
defined once; every caller passes its own inputs, step and tolerance:
- the tolerance rule |a - r| <= max(rel*|r|, abs_floor): `grad_errors`,
  `grads_close` and `assert_grads_close`;
- central differences (`central_difference`), over the logits of a loss of
  softmax(z) (`fd_grad_presoftmax`) and over a model's flat parameters
  (`fd_param_grad`), at a batch clear of ReLU kinks (`kink_free_batch`);
- the tiny bilevel problem (`tiny_bilevel_instance`), its analytic
  label-logit gradient (`label_logit_grad`) and central differences of its
  meta loss after the virtual step (`brute_force_logit_grad`);
- one MSLG batch written out from the paper's three steps with the oracles
  of this module (`reference_mslg_batch`), which `mslg_epoch` equals batch
  by batch;
- soft cross-entropy on the frozen initial labels (`frozen_soft_ce_run`),
  which stage two equals at beta = 0 and entropy weight 0;
- the shared per-batch passes written the plain way, with fresh temporaries,
  per-call views and `np.mean` (`plain_softmax`, `plain_forward`,
  `plain_backward`, `plain_sgd_step`, `plain_cce_logit_loss`), which the
  package's lean passes equal bit for bit;
- IDX fixture files (`idx_images_bytes`, `idx_labels_bytes`);
- a split of the wide benchmark's test shape (`wide_eval_split`), the
  traced peak of a call (`traced_peak`) and the bound on scoring it
  (`WIDE_EVAL_PEAK`);
and failing-write fixtures.
"""

import contextlib
import struct
import tracemalloc

import numpy as np

from mslg.datasets import LabeledDataset
from mslg.linalg import softmax, softmax_backward
from mslg.losses import PROB_FLOOR, cce_loss, classification_objective, kl_loss_v2
from mslg.model import Mlp, sgd_step
from mslg.rng import Rng
from mslg.soft_labels import SoftLabelStore
from mslg.trainer import (ALPHA, MOMENTUM, RunState, accuracy, epoch_order, kl_logit_loss,
                          label_gradient_along, meta_gradient_direction, recovery_rate,
                          training_loss_grad)


def grad_errors(analytic, reference, rel=1e-4, abs_floor=1e-8):
    """Entrywise (|a - r|, max(rel*|r|, abs_floor)): entries with |r| below
    abs_floor are compared absolutely (finite-difference noise floor)."""
    analytic = np.asarray(analytic, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    assert analytic.shape == reference.shape
    return np.abs(analytic - reference), np.maximum(rel * np.abs(reference), abs_floor)


def grads_close(analytic, reference, rel=1e-4, abs_floor=1e-8):
    """Whether every entry is within its `grad_errors` tolerance."""
    err, tol = grad_errors(analytic, reference, rel, abs_floor)
    return bool(np.all(err <= tol))


def assert_grads_close(analytic, reference, rel=1e-4, abs_floor=1e-8):
    err, tol = grad_errors(analytic, reference, rel, abs_floor)
    worst = (err - tol).max()
    assert np.all(err <= tol), (
        f"gradient mismatch: worst excess {worst:.3e}, "
        f"max err {err.max():.3e} at |ref| {np.abs(reference).flat[err.argmax()]:.3e}"
    )


def central_difference(scalar_fn, z, h):
    """Central differences of scalar_fn(z) over every entry of z."""
    out = np.zeros_like(z)
    for idx in np.ndindex(z.shape):
        p = z.copy()
        p[idx] += h
        m = z.copy()
        m[idx] -= h
        out[idx] = (scalar_fn(p) - scalar_fn(m)) / (2 * h)
    return out


def fd_grad_presoftmax(scalar_of_probs, z, h=1e-6):
    """Central differences of scalar(softmax(z)) over the logits z."""
    return central_difference(lambda v: scalar_of_probs(softmax(v)), z, h)


def fd_param_grad(model, x, scalar_of_probs, h=1e-5):
    """Central differences of scalar(model.predict(x)) over the flat
    parameters; the model's parameters are restored."""
    flat = model.params.copy()
    out = np.zeros_like(flat)
    for k in range(flat.size):
        p = flat.copy()
        p[k] += h
        model.params[...] = p
        up = scalar_of_probs(model.predict(x))
        p[k] -= 2 * h
        model.params[...] = p
        down = scalar_of_probs(model.predict(x))
        out[k] = (up - down) / (2 * h)
    model.params[...] = flat
    return out


def kink_free_batch(model, key, shape, margin=1e-3):
    """The first Rng(*key, attempt).normal(size=shape), attempt < 50, whose
    hidden pre-activations all sit more than `margin` from zero, so central
    differences do not straddle a ReLU kink."""
    for attempt in range(50):
        x = Rng(*key, attempt).normal(size=shape)
        acts = model.forward(x)[1]["acts"]
        # each hidden layer's pre-activation, by the forward's own arithmetic
        pre = [a @ w + b for a, w, b in zip(acts[:-1], model.weights, model.biases)]
        if min(np.abs(z).min() for z in pre) > margin:
            return x
    raise AssertionError("could not find a kink-free batch")


def tiny_bilevel_instance(seed, b=4, meta_b=4, c=2, d=2, hidden=4):
    """(model, x, store, meta_x, meta_y), each drawn from Rng(seed, role)."""
    model = Mlp((d, hidden, c), Rng(seed, 0))
    x = Rng(seed, 1).normal(size=(b, d))
    noisy = Rng(seed, 2).integers(0, c, size=b)
    store = SoftLabelStore.init_from_noisy(noisy, c, k=10.0)
    # move the logits off the one-hot ray so the test point is generic
    store.logits += Rng(seed, 3).normal(size=store.logits.shape)
    meta_x = Rng(seed, 4).normal(size=(meta_b, d))
    meta_y = Rng(seed, 5).integers(0, c, size=meta_b)
    return model, x, store, meta_x, meta_y


def label_logit_grad(model, x, yhat, meta_x, meta_y, alpha):
    """Meta-loss gradient w.r.t. the batch's label logits, composed the way
    mslg_epoch composes it."""
    cache = model.forward(x)[1]
    g_meta, _ = meta_gradient_direction(model, cache, yhat, meta_x, meta_y, alpha)
    return label_gradient_along(model, cache, g_meta, alpha)


def meta_loss_after_virtual(model, x, logits, meta_x, meta_y, alpha):
    """Independent evaluation of the meta objective as a function of the
    label logits: softmax them, take the virtual step, read the meta loss."""
    yhat = softmax(logits)
    g = training_loss_grad(model, model.forward(x)[1], yhat)
    theta_hat = model.perturbed(g, -alpha)
    return cce_loss(theta_hat.predict(meta_x), meta_y).scalar


def brute_force_logit_grad(model, x, logits, meta_x, meta_y, alpha, h=1e-4):
    """Central differences of the bilevel meta loss over every label logit."""
    return central_difference(
        lambda v: meta_loss_after_virtual(model, x, v, meta_x, meta_y, alpha), logits, h)


def reference_mslg_batch(model, velocity, logits, x, meta_x, meta_y, cfg, lr):
    """One MSLG batch (arXiv 2007.05836) from the oracles of this module, on
    copies: (params, velocity, label logits, g_meta . g_train) after it.

    Every gradient is a reference loss's gradient in probability space pulled
    back through `softmax_backward` and `plain_backward`:
    1. look-ahead: g_train of KL(f||softmax(logits)) at theta, and
       theta_hat = theta - ALPHA * g_train;
    2. label step: logits - beta * `brute_force_logit_grad`, central
       differences of the meta loss after the look-ahead;
    3. committed step: `plain_sgd_step` at rate `lr` and `MOMENTUM` on the
       gradient of KL(f||softmax(new logits)) + entropy_weight * entropy(f).
    g_meta is the meta batch's cross-entropy gradient at theta_hat.
    """
    def grad_at(net, x_batch, loss):
        probs, acts = plain_forward(net, x_batch)
        return plain_backward(net, acts, softmax_backward(probs, loss(probs)))

    g_train = grad_at(model, x, lambda f: kl_loss_v2(f, plain_softmax(logits))
                      .grad_wrt_predictions)
    ahead = Mlp(model.layer_sizes)
    ahead.params[...] = model.params - ALPHA * g_train
    g_meta = grad_at(ahead, meta_x, lambda f: cce_loss(f, meta_y).grad_wrt_predictions)
    new_logits = logits - cfg.beta * brute_force_logit_grad(model, x, logits, meta_x,
                                                            meta_y, ALPHA)
    grad = grad_at(model, x, lambda f: classification_objective(
        f, plain_softmax(new_logits), cfg.entropy_weight).grad_wrt_predictions)
    params, velocity = model.params.copy(), velocity.copy()
    plain_sgd_step(params, grad, velocity, lr, MOMENTUM, cfg.weight_decay)
    return params, velocity, new_logits, float(g_meta @ g_train)


def frozen_soft_ce_run(train_ds, meta_ds, test_ds, cfg):
    """Soft cross-entropy on the frozen initial labels, from the trainer's
    initial state (`RunState.initial`) and epoch orders: (model, store,
    per-epoch (train loss, meta loss, test accuracy, label recovery))."""
    state = RunState.initial(cfg, train_ds)
    model, store, velocity = state.model, state.store, state.velocity
    frozen = store.soft_labels()
    history = []
    for epoch in range(cfg.total_epochs):
        rates = (cfg.lr_at(epoch), MOMENTUM, cfg.weight_decay)
        order = epoch_order(cfg.seed, epoch, train_ds.n)
        loss_sum = 0.0
        for start in range(0, train_ds.n, cfg.batch_size):
            ids = order[start:start + cfg.batch_size]
            probs, cache = model.forward(train_ds.features[ids])
            loss, dz = kl_logit_loss(probs, frozen[ids])
            sgd_step(model, model.backward(cache, dz), velocity, *rates)
            loss_sum += loss * ids.size
        meta_loss = cce_loss(model.predict(meta_ds.features),
                             meta_ds.noisy_labels).scalar
        history.append((loss_sum / train_ds.n, meta_loss,
                        accuracy(model, test_ds), recovery_rate(store, train_ds)))
    return model, store, history


def plain_softmax(v):
    """Row-wise softmax with max subtraction, each step a fresh array."""
    arr = np.asarray(v, dtype=np.float64)
    shifted = arr - arr.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def plain_forward(model, x):
    """(probs, acts) of `model` on the batch x: each layer's input, then the
    softmax of the last layer's output."""
    acts = [x]
    for i in range(model.num_layers):
        z = acts[-1] @ model.weights[i]
        z += model.biases[i]
        if i < model.num_layers - 1:
            acts.append(np.maximum(z, 0.0, out=z))
    return plain_softmax(z), acts


def plain_backward(model, acts, dz):
    """Flat parameter gradient for dL/dz = dz, written through per-layer views."""
    grad = np.empty(model.num_params)
    dws, dbs = model.views(grad)
    for i in range(model.num_layers - 1, -1, -1):
        np.matmul(acts[i].T, dz, out=dws[i])
        dz.sum(axis=0, out=dbs[i])
        if i > 0:
            da = dz @ model.weights[i].T
            dz = da * (acts[i] > 0.0)
    return grad


def plain_sgd_step(params, grad, velocity, lr, momentum, weight_decay):
    """velocity <- momentum*velocity + (grad + weight_decay*params), then
    params <- params - lr*velocity, both in place."""
    velocity *= momentum
    velocity += grad + weight_decay * params
    params -= lr * velocity


def plain_cce_logit_loss(probs, y):
    """(batch-mean cross entropy, (f - onehot(y)) / b)."""
    b = probs.shape[0]
    picked = probs[np.arange(b), y]
    dz = probs.copy()
    dz[np.arange(b), y] -= 1.0
    dz /= b
    return float(-np.mean(np.log(np.maximum(picked, PROB_FLOOR)))), dz


def idx_images_bytes(images):
    """An IDX images file of `images`, each a list of pixel-byte rows."""
    n = len(images)
    rows = len(images[0])
    cols = len(images[0][0])
    blob = struct.pack(">IIII", 0x00000803, n, rows, cols)
    for img in images:
        for row in img:
            blob += bytes(row)
    return blob


def idx_labels_bytes(labels, magic=0x00000801):
    return struct.pack(">II", magic, len(labels)) + bytes(labels)


class FailingArray(np.ndarray):
    """Array whose serialisation fails, as a full disk would mid-write."""

    def astype(self, *args, **kwargs):
        raise OSError("no space left on device")


class _FillingHandle:
    """File handle that takes `after` writes, then half of the next one, and
    then raises as a full disk would."""

    def __init__(self, fh, after):
        self.fh, self.left = fh, after

    def __getattr__(self, name):  # the rest of the file API, for text wrappers
        return getattr(self.fh, name)

    def write(self, data):
        if not self.left:
            self.fh.write(data[:len(data) // 2])
            raise OSError("no space left on device")
        self.left -= 1
        return self.fh.write(data)


def disk_fills_mid_write(atomic_write, after=0):
    """`atomic_write` whose handle fails part-way through write `after + 1`."""
    @contextlib.contextmanager
    def failing(path):
        with atomic_write(path) as fh:
            yield _FillingHandle(fh, after)
    return failing


# scoring a 1,600-row split through 64-256-256-10 in 256-row blocks: one
# block's two hidden layers (with the slack of test_model's forward bound),
# plus the split's probabilities twice (the blocks and their concatenation).
# One whole-split forward holds 2 x 1600 x 256 floats, 6.6 MB.
WIDE_EVAL_PEAK = 2.5 * 256 * 256 * 8 + 2 * 1600 * 10 * 8


def wide_eval_split():
    """(64-256-256-10 model, 1,600-row split): the wide benchmark's model and
    test split shapes."""
    labels = np.arange(1600) % 10
    split = LabeledDataset(Rng(17).normal(size=(1600, 64)), labels, labels, 10)
    return Mlp((64, 256, 256, 10), Rng(16, 0)), split


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees during `fn()`, after one untraced call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
