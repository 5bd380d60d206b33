import copy
import dataclasses
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mslg
import mslg.trainer

from mslg.datasets import (
    LabeledDataset,
    gen_blobs,
    inject_feature_dependent,
    split,
)
from mslg.linalg import softmax, softmax_backward
from mslg.losses import PROB_FLOOR, cce_loss, classification_objective, kl_loss_v2
from mslg.model import Mlp, NumericalError
from mslg.rng import ROLE_META, Rng
from mslg.soft_labels import SoftLabelStore
from mslg.trainer import (
    ALPHA,
    EpochMetrics,
    RunState,
    TrainConfig,
    accuracy,
    cce_logit_loss,
    epoch_order,
    kl_logit_loss,
    label_gradient_along,
    meta_gradient_direction,
    metrics_csv_header,
    metrics_csv_row,
    mslg_epoch,
    recovery_rate,
    train,
    training_loss_grad,
    _meta_batches,
    warmup_epoch,
)

from helpers import (WIDE_EVAL_PEAK, frozen_soft_ce_run, label_logit_grad,
                     meta_loss_after_virtual, tiny_bilevel_instance, traced_peak,
                     wide_eval_split)


# -- logit-space loss kernels -------------------------------------------------------
# Each kernel must equal its reference probability-space loss pulled back through
# the softmax Jacobian, including on rows near one-hot.


def _logit_batch(seed, b, c, scale, peak):
    """Probabilities of random logits; `peak` adds a one-hot spike per row,
    so large values give rows near one-hot."""
    z = Rng(seed, 0).normal(size=(b, c)) * scale
    z[np.arange(b), Rng(seed, 1).integers(0, c, size=b)] += peak
    return softmax(z)


_KERNEL_CASES = dict(seed=st.integers(0, 2**16), b=st.integers(1, 8),
                     c=st.integers(2, 6), scale=st.floats(0.0, 8.0),
                     peak=st.floats(0.0, 40.0))


@settings(max_examples=150, deadline=None)
@given(**_KERNEL_CASES, label_scale=st.floats(0.0, 8.0),
       label_peak=st.floats(0.0, 40.0), weight=st.sampled_from([0.0, 0.5, 1.0, 2.0]))
def test_kl_logit_kernel_is_the_pulled_back_public_loss(seed, b, c, scale, peak,
                                                        label_scale, label_peak,
                                                        weight):
    f = _logit_batch(seed, b, c, scale, peak)
    yhat = _logit_batch(seed + 1, b, c, label_scale, label_peak)
    scalar, dz = kl_logit_loss(f, yhat, weight)
    ref = (classification_objective(f, yhat, weight) if weight
           else kl_loss_v2(f, yhat))
    assert np.abs(dz - softmax_backward(f, ref.grad_wrt_predictions)).max() <= 1e-12
    assert scalar == pytest.approx(ref.scalar, rel=1e-12, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(**_KERNEL_CASES)
def test_cce_logit_kernel_is_the_pulled_back_public_loss(seed, b, c, scale, peak):
    f = _logit_batch(seed, b, c, scale, peak)
    y = Rng(seed, 2).integers(0, c, size=b)
    scalar, dz = cce_logit_loss(f, y)
    ref = cce_loss(f, y)
    assert scalar == pytest.approx(ref.scalar, rel=1e-12, abs=1e-12)
    onehot = np.eye(c)[y]
    assert np.array_equal(dz, (f - onehot) / b)
    # the reference gradient floors 1/f_y at 1/PROB_FLOOR, so the two agree
    # only on rows where the label's probability is above the floor
    rows = f[np.arange(b), y] >= PROB_FLOOR
    pulled = softmax_backward(f, ref.grad_wrt_predictions)
    assert np.abs(dz[rows] - pulled[rows]).max(initial=0.0) <= 1e-12


# -- virtual step -----------------------------------------------------------------
# The look-ahead theta_hat = theta - alpha * g_train is model.perturbed(g, -alpha).


def test_virtual_step_zero_alpha_identity():
    model, x, store, *_ = tiny_bilevel_instance(30)
    yhat = store.soft_labels(np.arange(store.n))
    g = training_loss_grad(model, model.forward(x)[1], yhat)
    stepped = model.perturbed(g, -0.0)
    assert stepped is not model
    assert np.array_equal(stepped.params, model.params)


def test_virtual_step_exact_gradient_offset():
    model, x, store, *_ = tiny_bilevel_instance(31)
    yhat = store.soft_labels(np.arange(store.n))
    alpha = 0.7
    g = training_loss_grad(model, model.forward(x)[1], yhat)
    stepped = model.perturbed(g, -alpha)
    assert np.array_equal(stepped.params, model.params - alpha * g)
    # original untouched
    g2 = training_loss_grad(model, model.forward(x)[1], yhat)
    assert np.array_equal(g, g2)


def test_virtual_step_descends_training_loss_for_small_alpha():
    model, x, store, *_ = tiny_bilevel_instance(32)
    yhat = store.soft_labels(np.arange(store.n))
    before = kl_loss_v2(model.predict(x), yhat).scalar
    g = training_loss_grad(model, model.forward(x)[1], yhat)
    after = kl_loss_v2(model.perturbed(g, -1e-3).predict(x), yhat).scalar
    assert after <= before


# -- meta label gradient ------------------------------------------------------------


def test_zero_meta_direction_gives_zero_gradient():
    model, x, store, *_ = tiny_bilevel_instance(34)
    yhat = store.soft_labels(np.arange(store.n))
    out = label_gradient_along(model, model.forward(x)[1],
                               np.zeros(model.num_params), alpha=0.5)
    assert np.array_equal(out, np.zeros_like(yhat))


def test_flat_meta_loss_gives_zero_gradient():
    # an all-zero net predicts [.5,.5] everywhere; a meta pair with equal
    # features and both labels has an exactly vanishing mean gradient, and
    # yhat == f makes the virtual step itself a no-op
    model = Mlp((2, 2))
    x = np.array([[0.4, -1.1], [2.0, 0.3]])
    yhat = np.full((2, 2), 0.5)
    meta_x = np.array([[1.0, 2.0], [1.0, 2.0]])
    meta_y = np.array([0, 1])
    cache = model.forward(x)[1]
    g_meta, g_train = meta_gradient_direction(model, cache, yhat, meta_x, meta_y, ALPHA)
    assert np.array_equal(g_train, np.zeros(model.num_params))
    assert np.array_equal(g_meta, np.zeros(model.num_params))
    out = label_gradient_along(model, cache, g_meta, ALPHA)
    assert np.array_equal(out, np.zeros((2, 2)))


def test_doubling_alpha_doubles_gradient_at_fixed_base():
    # hold the meta direction fixed: the returned gradient is then exactly
    # linear in alpha
    model, x, store, meta_x, meta_y = tiny_bilevel_instance(35)
    yhat = store.soft_labels(np.arange(store.n))
    cache = model.forward(x)[1]
    g_meta, _ = meta_gradient_direction(model, cache, yhat, meta_x, meta_y, 0.5)
    one = label_gradient_along(model, cache, g_meta, alpha=0.5)
    two = label_gradient_along(model, cache, g_meta, alpha=1.0)
    assert np.abs(two - 2.0 * one).max() <= 1e-10


def test_logit_label_update_equals_the_probability_space_pull_back():
    # the former update: divide the tangent by b * max(yhat, PROB_FLOOR), then
    # pull it back through softmax at yhat. Rows of a softmax tangent sum to
    # zero, so it reduces to alpha / b * t wherever the floor does not bind.
    alpha, compared = 0.5, 0
    for seed in range(20):
        model, x, store, meta_x, meta_y = tiny_bilevel_instance(seed, b=8, c=4, hidden=6)
        store.logits *= 1.0 + seed  # sharper labels, down to ~1e-30
        yhat = store.soft_labels(np.arange(store.n))
        cache = model.forward(x)[1]
        g_meta, _ = meta_gradient_direction(model, cache, yhat, meta_x, meta_y, alpha)
        t = model.tangent(cache, g_meta)
        old = softmax_backward(yhat, alpha * t / (x.shape[0] * np.maximum(yhat, PROB_FLOOR)))
        new = label_gradient_along(model, cache, g_meta, alpha)
        rows = yhat.min(axis=1) >= 1e-9
        assert np.abs(new[rows] - old[rows]).max(initial=0.0) <= 1e-12
        compared += int(rows.sum())
    assert 0 < compared < 20 * 8


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_label_logit_aborts_mslg_batch_before_parameters_move(bad):
    train_ds, meta_ds, test_ds = _blob_setting(seed=6)
    cfg = _warm_cfg(warmup_epochs=0, total_epochs=1)
    state = RunState.initial(cfg, train_ds)
    first_batch = epoch_order(cfg.seed, 0, train_ds.n)[:cfg.batch_size]
    state.store.logits[first_batch[3], 1] = bad
    before = state.model.params.copy()
    with pytest.raises(NumericalError, match="soft label"), np.errstate(invalid="ignore"):
        mslg_epoch(state, cfg, train_ds, meta_ds, test_ds)
    assert np.array_equal(state.model.params, before)
    assert not state.velocity.any()  # no step was taken


# per MSLG batch, backward runs for g_train, then g_meta, then the committed
# step; each case makes one quantity NaN at its first call
@pytest.mark.parametrize("method,call,message", [
    ("backward", 1, "meta gradient: non-finite training gradient"),
    ("backward", 2, "meta gradient: non-finite meta gradient"),
    ("tangent", 1, "label gradient: non-finite tangent"),
], ids=["training-gradient", "meta-gradient", "tangent"])
def test_nonfinite_gradient_aborts_mslg_batch_before_labels_move(monkeypatch, method,
                                                                   call, message):
    train_ds, meta_ds, test_ds = _blob_setting(seed=6)
    cfg = _warm_cfg(warmup_epochs=0, total_epochs=1)
    state = RunState.initial(cfg, train_ds)
    before = state.store.logits.copy()
    original, calls = getattr(Mlp, method), [0]

    def poisoned(self, *args):
        calls[0] += 1
        out = original(self, *args)
        return np.full_like(out, np.nan) if calls[0] == call else out
    monkeypatch.setattr(Mlp, method, poisoned)
    with pytest.raises(NumericalError) as exc:
        mslg_epoch(state, cfg, train_ds, meta_ds, test_ds)
    assert str(exc.value) == message
    assert np.array_equal(state.store.logits, before)


# -- gradient alignment ---------------------------------------------------------------


def _alignment(model, x_sample, yhat_sample, meta_x, meta_y):
    """g_meta . g_train for one training sample, the per-batch quantity that
    mslg_epoch averages into mean_grad_alignment. alpha = 0 takes both
    gradients at the model itself."""
    g_meta, g_train = meta_gradient_direction(
        model, model.forward(np.atleast_2d(x_sample))[1],
        np.atleast_2d(yhat_sample), meta_x, meta_y, alpha=0.0)
    return float(g_meta @ g_train)


def test_alignment_zero_when_meta_gradient_zero():
    model = Mlp((2, 2))
    x_j = np.array([0.7, -0.2])
    yhat_j = np.array([0.9, 0.1])
    meta_x = np.array([[1.0, 2.0], [1.0, 2.0]])
    meta_y = np.array([0, 1])
    assert _alignment(model, x_j, yhat_j, meta_x, meta_y) == 0.0


def test_alignment_zero_for_disjoint_gradient_support():
    # zero-weight linear net: meta pair (x, 0), (-x, 1) puts its gradient
    # only in the weight row fed by coordinate 0 (bias terms cancel), while
    # the training sample only excites the row fed by coordinate 1
    model = Mlp((2, 2))
    meta_x = np.array([[1.0, 0.0], [-1.0, 0.0]])
    meta_y = np.array([0, 1])
    x_j = np.array([0.0, 1.0])
    yhat_j = np.array([0.8, 0.2])
    out = _alignment(model, x_j, yhat_j, meta_x, meta_y)
    assert out == 0.0


def test_alignment_positive_for_matching_sample():
    # a training sample labelled like the meta set and sharing its features
    # must align positively
    model = Mlp((2, 3), Rng(36, 0))
    x = np.array([1.0, -0.5])
    meta_x = np.tile(x, (3, 1))
    meta_y = np.array([2, 2, 2])
    yhat_j = softmax(np.array([0.0, 0.0, 10.0]))
    assert _alignment(model, x, yhat_j, meta_x, meta_y) > 0.0


def test_label_update_raises_alignment_or_lowers_meta_loss():
    for seed in (0, 1, 2):
        model, x, store, meta_x, meta_y = tiny_bilevel_instance(seed)
        ids = np.arange(store.n)
        logits0 = store.logits.copy()
        lm_before = meta_loss_after_virtual(model, x, logits0, meta_x, meta_y, ALPHA)
        g_meta0, g_train0 = meta_gradient_direction(model, model.forward(x)[1],
                                                    softmax(logits0), meta_x, meta_y, ALPHA)
        align_before = float(g_meta0 @ g_train0)

        beta = 1.0
        ok = False
        for _ in range(10):
            trial = SoftLabelStore(logits0.copy(), k=10.0)
            yhat = trial.soft_labels(ids)
            grad = label_logit_grad(model, x, yhat, meta_x, meta_y, ALPHA)
            trial.apply_label_gradient(ids, grad, beta)
            lm_after = meta_loss_after_virtual(model, x, trial.logits, meta_x, meta_y, ALPHA)
            g_meta1, g_train1 = meta_gradient_direction(
                model, model.forward(x)[1], trial.soft_labels(ids), meta_x, meta_y, ALPHA)
            align_after = float(g_meta1 @ g_train1)
            if lm_after <= lm_before + 1e-15 or align_after >= align_before:
                ok = True
                break
            beta /= 2.0
        assert ok, f"seed {seed}: no beta gave descent or better alignment"


def test_single_label_update_descends_meta_loss_with_halving():
    for seed in (3, 4, 5, 6):
        model, x, store, meta_x, meta_y = tiny_bilevel_instance(seed)
        ids = np.arange(store.n)
        logits0 = store.logits.copy()
        before = meta_loss_after_virtual(model, x, logits0, meta_x, meta_y, ALPHA)
        beta = 4.0
        descended = False
        for _ in range(10):
            trial = SoftLabelStore(logits0.copy(), k=10.0)
            yhat = trial.soft_labels(ids)
            grad = label_logit_grad(model, x, yhat, meta_x, meta_y, ALPHA)
            trial.apply_label_gradient(ids, grad, beta)
            after = meta_loss_after_virtual(model, x, trial.logits, meta_x, meta_y, ALPHA)
            if after <= before + 1e-15:
                descended = True
                break
            beta /= 2.0
        assert descended, f"seed {seed}: meta loss never descended"


# -- warm-up ---------------------------------------------------------------------------


def _blob_setting(seed=0, n=300, noise=0.0, separation=8.0, c=3):
    ds = gen_blobs(n, c, 2, separation, Rng(seed))
    train_ds, meta_ds, test_ds = split(ds, 0.1, 0.2, Rng(seed + 1))
    if noise > 0:
        train_ds = inject_feature_dependent(train_ds, noise, seed + 2)
    return train_ds, meta_ds, test_ds


def _warm_cfg(**kw):
    base = dict(beta=50.0, lambda_schedule=((0, 0.05),),
                batch_size=32, weight_decay=1e-4,
                warmup_epochs=20, total_epochs=20, hidden_sizes=(16,), seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_warmup_zero_lr_leaves_parameters():
    train_ds, meta_ds, test_ds = _blob_setting()
    cfg = _warm_cfg(lambda_schedule=((0, 0.0),))
    state = RunState.initial(cfg, train_ds)
    before = state.model.params.copy()
    metrics = warmup_epoch(state, cfg, train_ds, meta_ds, test_ds)
    assert np.array_equal(state.model.params, before)
    assert state.epoch == 1
    assert isinstance(metrics, EpochMetrics)
    assert metrics.train_loss > 0.0
    assert 0.0 <= metrics.test_accuracy <= 1.0


def test_accuracy_of_a_wide_split_holds_one_block_of_activations():
    # the per-epoch test accuracy scores the split in 256-row blocks
    model, split = wide_eval_split()
    peak = traced_peak(lambda: accuracy(model, split))
    assert peak <= WIDE_EVAL_PEAK, peak


def test_warmup_reaches_train_accuracy_on_clean_blobs():
    train_ds, meta_ds, test_ds = _blob_setting(noise=0.0)
    cfg = _warm_cfg()
    model, store, history = train(train_ds, meta_ds, cfg, test_ds)
    acc = accuracy(model, train_ds)
    assert acc >= 0.95
    assert len(history) == 20


def test_warmup_is_deterministic():
    train_ds, meta_ds, test_ds = _blob_setting()
    cfg = _warm_cfg(warmup_epochs=3, total_epochs=3)
    m1, _, h1 = train(train_ds, meta_ds, cfg, test_ds)
    m2, _, h2 = train(train_ds, meta_ds, cfg, test_ds)
    assert np.array_equal(m1.params, m2.params)
    assert h1 == h2


# -- stage-two reductions -----------------------------------------------------------


def test_beta_zero_entropy_zero_equals_frozen_soft_ce():
    train_ds, meta_ds, test_ds = _blob_setting(seed=5, noise=0.3)
    cfg = _warm_cfg(seed=9, warmup_epochs=0, total_epochs=4, beta=0.0,
                    entropy_weight=0.0)

    model_a, store_a, hist_a = train(train_ds, meta_ds, cfg, test_ds)

    # independent reference: soft cross-entropy on the frozen initial labels
    model_b, store_b, hist_b = frozen_soft_ce_run(train_ds, meta_ds, test_ds, cfg)

    assert np.array_equal(store_a.logits, store_b.logits)  # labels never moved
    assert np.array_equal(model_a.params, model_b.params)
    for m, (tl, ml, ta, rec) in zip(hist_a, hist_b):
        # mean_grad_alignment is a stage-two diagnostic with no counterpart
        # in a plain soft-CE loop; all training-relevant metrics must agree
        assert abs(m.train_loss - tl) <= 1e-12
        assert abs(m.meta_loss - ml) <= 1e-12
        assert abs(m.test_accuracy - ta) <= 1e-12
        assert abs(m.label_recovery_rate - rec) <= 1e-12


def test_mslg_with_total_equal_warmup_is_ce_baseline():
    train_ds, meta_ds, test_ds = _blob_setting(seed=2, noise=0.2)
    cfg = _warm_cfg(warmup_epochs=5, total_epochs=5)
    model_a, store_a, hist_a = train(train_ds, meta_ds, cfg, test_ds)
    model_b, store_b, hist_b = train(train_ds, meta_ds, cfg, test_ds)
    assert np.array_equal(model_a.params, model_b.params)
    assert hist_a == hist_b
    # the label store was created but never updated
    init = SoftLabelStore.init_from_noisy(train_ds.noisy_labels, 3, cfg.k_init)
    assert np.array_equal(store_a.logits, init.logits)


def test_mslg_epoch_deterministic():
    train_ds, meta_ds, test_ds = _blob_setting(seed=3, noise=0.3)
    cfg = _warm_cfg(warmup_epochs=2, total_epochs=6, beta=20.0)
    _, _, h1 = train(train_ds, meta_ds, cfg, test_ds)
    _, _, h2 = train(train_ds, meta_ds, cfg, test_ds)
    assert h1 == h2
    assert any(m.mean_grad_alignment != 0.0 for m in h1[2:])


def test_recovery_is_counted_only_after_the_labels_move(monkeypatch):
    # warm-up epochs leave the labels as initialised, so their rows all read
    # the initial store's recovery, counted once; each MSLG epoch recounts
    train_ds, meta_ds, test_ds = _blob_setting(seed=4, noise=0.3)
    cfg = _warm_cfg(warmup_epochs=3, total_epochs=5, beta=20.0)
    counted = []  # the store version at each count

    def counting(store, ds):
        counted.append(store.version)
        return recovery_rate(store, ds)
    monkeypatch.setattr(mslg.trainer, "recovery_rate", counting)
    _, store, history = train(train_ds, meta_ds, cfg, test_ds)
    initial = recovery_rate(SoftLabelStore.init_from_noisy(train_ds.noisy_labels, 3, cfg.k_init),
                            train_ds)
    assert [m.label_recovery_rate for m in history[:3]] == [initial] * 3
    assert history[-1].label_recovery_rate == recovery_rate(store, train_ds)
    batches = -(-train_ds.n // cfg.batch_size)
    assert counted == [0, batches, 2 * batches]


def test_mslg_batch_runs_two_forwards_three_backwards_one_tangent(monkeypatch):
    # per batch: one forward at theta shared by the training gradient, the
    # label tangent and the committed step, plus the meta forward at
    # theta_hat; backwards for g_train, g_meta and the committed step.
    # The per-epoch evaluation in _epoch_metrics is not counted.
    train_ds, meta_ds, test_ds = _blob_setting(seed=6)
    cfg = _warm_cfg(warmup_epochs=0, total_epochs=1)
    state = RunState.initial(cfg, train_ds)
    counts = {"forward": 0, "backward": 0, "tangent": 0}
    counting = [True]

    def count(name):
        original = getattr(Mlp, name)

        def wrapper(self, *args, **kwargs):
            if counting[0]:
                counts[name] += 1
            return original(self, *args, **kwargs)
        monkeypatch.setattr(Mlp, name, wrapper)

    for name in counts:
        count(name)
    epoch_metrics = mslg.trainer._epoch_metrics

    def uncounted(*args, **kwargs):
        counting[0] = False
        try:
            return epoch_metrics(*args, **kwargs)
        finally:
            counting[0] = True
    monkeypatch.setattr(mslg.trainer, "_epoch_metrics", uncounted)

    mslg_epoch(state, cfg, train_ds, meta_ds, test_ds)
    batches = -(-train_ds.n // cfg.batch_size)
    assert batches > 1
    assert counts == {"forward": 2 * batches, "backward": 3 * batches,
                      "tangent": batches}


# -- meta batches ------------------------------------------------------------------


def test_meta_batches_shape_and_windows_when_meta_set_is_smaller_than_a_batch():
    # m=3 < batch 4: batches repeat samples, but every aligned 3-window of the
    # epoch's stream is one permutation of the meta set
    rows = _meta_batches(3, seed=5, epoch=2, batches=3, batch_size=4)
    assert rows.shape == (3, 4)
    for window in rows.ravel().reshape(-1, 3):
        assert sorted(window) == [0, 1, 2]


@pytest.mark.parametrize("m, batches, batch_size", [(3, 3, 4), (5, 3, 4), (8, 2, 4)])
def test_meta_batches_are_the_keyed_permutation_per_wrap(m, batches, batch_size):
    wraps = [Rng(5, ROLE_META, 2, wrap).permutation(m) for wrap in range(6)]
    expected = np.concatenate(wraps)[:batches * batch_size]
    rows = _meta_batches(m, seed=5, epoch=2, batches=batches, batch_size=batch_size)
    assert np.array_equal(rows.ravel(), expected)


def test_meta_batches_differ_across_epochs():
    assert not np.array_equal(_meta_batches(3, 5, 2, 3, 4), _meta_batches(3, 5, 3, 3, 4))


def test_mslg_epoch_draws_meta_row_k_for_batch_k(monkeypatch):
    train_ds, meta_ds, test_ds = _blob_setting(seed=6)
    cfg = _warm_cfg(warmup_epochs=0, total_epochs=1)
    state = RunState.initial(cfg, train_ds)
    state.epoch = 4
    seen = []
    original = mslg.trainer.meta_gradient_direction

    def recording(model, cache, yhat, meta_x, meta_y, alpha):
        seen.append((meta_x, meta_y))
        return original(model, cache, yhat, meta_x, meta_y, alpha)
    monkeypatch.setattr(mslg.trainer, "meta_gradient_direction", recording)

    mslg_epoch(state, cfg, train_ds, meta_ds, test_ds)
    rows = _meta_batches(meta_ds.n, cfg.seed, 4, len(seen), cfg.batch_size)
    assert len(seen) == -(-train_ds.n // cfg.batch_size)
    for (meta_x, meta_y), row in zip(seen, rows):
        assert np.array_equal(meta_x, meta_ds.features[row])
        assert np.array_equal(meta_y, meta_ds.noisy_labels[row])


def test_simplex_preserved_through_training():
    train_ds, meta_ds, test_ds = _blob_setting(seed=4, noise=0.4)
    cfg = _warm_cfg(warmup_epochs=2, total_epochs=8, beta=100.0)
    _, store, _ = train(train_ds, meta_ds, cfg, test_ds)
    sums = store.soft_labels().sum(axis=1)
    assert np.abs(sums - 1.0).max() <= 1e-9


def test_label_recovery_on_feature_dependent_noise():
    train_ds, meta_ds, test_ds = _blob_setting(seed=6, n=600, noise=0.4,
                                               separation=6.0, c=4)
    cfg = _warm_cfg(warmup_epochs=4, total_epochs=16, beta=100.0,
                    hidden_sizes=(32, 32),
                    lambda_schedule=((0, 0.05), (8, 0.01)))
    _, store, history = train(train_ds, meta_ds, cfg, test_ds)
    assert history[0].label_recovery_rate == 0.0  # argmax == noisy at init
    final = recovery_rate(store, train_ds)
    assert final > 0.0
    corrupted = int(train_ds.corrupted_mask().sum())
    assert corrupted == round(0.4 * train_ds.n)


# -- run state ---------------------------------------------------------------------


def _continue(state, cfg, train_ds, meta_ds, test_ds):
    """Run the epoch functions from `state` to the end, as `train` does."""
    history = []
    while state.epoch < cfg.total_epochs:
        run_epoch = warmup_epoch if state.epoch < cfg.warmup_epochs else mslg_epoch
        history.append(run_epoch(state, cfg, train_ds, meta_ds, test_ds))
    return history


# (warmup, total, the epoch after which the state is copied)
@pytest.mark.parametrize("warmup, total, after", [(3, 6, 2), (3, 6, 3), (3, 6, 4), (4, 4, 1)],
                         ids=["mslg-last-warmup", "mslg-first-mslg", "mslg-inside",
                              "ce-inside-warmup"])
def test_a_copied_run_state_continues_bit_for_bit(warmup, total, after):
    # the state handed to the epoch callback holds everything the rest of the
    # run reads: a deepcopy of it, continued, ends bit-equal to the whole run
    train_ds, meta_ds, test_ds = _blob_setting(seed=3, noise=0.3)
    cfg = _warm_cfg(warmup_epochs=warmup, total_epochs=total, beta=20.0)
    saved = {}

    def save(state, metrics):
        assert metrics.epoch == state.epoch - 1  # the state is the next epoch's
        saved[state.epoch] = copy.deepcopy(state)

    model, store, history = train(train_ds, meta_ds, cfg, test_ds, epoch_callback=save)
    resumed = saved[after + 1]
    rest = _continue(resumed, cfg, train_ds, meta_ds, test_ds)
    assert len(rest) == total - after - 1 and rest == history[after + 1:]
    assert resumed.epoch == total
    assert np.array_equal(resumed.model.params, model.params)
    assert np.array_equal(resumed.velocity, saved[total].velocity)
    assert np.array_equal(resumed.store.logits, store.logits)
    if warmup < total:
        assert not np.array_equal(store.logits, saved[1].store.logits)  # labels moved


# -- config ------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError, match="need beta >= 0, got -1.0"):
        TrainConfig(beta=-1.0)
    TrainConfig(beta=0.0)  # a frozen-label run stays legal
    with pytest.raises(ValueError):
        TrainConfig(warmup_epochs=10, total_epochs=5)
    with pytest.raises(ValueError):
        TrainConfig(lambda_schedule=())
    with pytest.raises(ValueError, match="strictly increase"):
        TrainConfig(lambda_schedule=((0, 0.1), (10, 0.1), (5, 0.01)))
    # no rate holds before the first start, so the schedule begins at epoch 0
    for start in (10, -5):
        with pytest.raises(ValueError, match=f"must start at epoch 0, got {start}"):
            TrainConfig(lambda_schedule=((start, 0.1), (20, 0.01)))
    with pytest.raises(ValueError, match="rates must be >= 0"):
        TrainConfig(lambda_schedule=((0, 0.1), (5, -0.02)))
    TrainConfig(lambda_schedule=((0, 0.0),))  # a zero rate stays legal
    with pytest.raises(ValueError, match="need weight_decay >= 0, got -0.001"):
        TrainConfig(weight_decay=-1e-3)
    TrainConfig(weight_decay=0.0)
    TrainConfig(warmup_epochs=5, total_epochs=5)  # CE baseline
    # exp(-1e-17) rounds to 1, so every initial soft label would tie
    with pytest.raises(ValueError, match="k_init 1e-17 is too small"):
        TrainConfig(k_init=1e-17)
    TrainConfig(k_init=1e-15)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["beta", "k_init", "weight_decay",
                                   "entropy_weight", "lambda_schedule"])
def test_config_rejects_non_finite_floats(field, bad):
    value = ((0, 1e-2), (5, bad)) if field == "lambda_schedule" else bad
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("hidden", [(0,), (16, 0), (8, -2)])
def test_config_rejects_hidden_widths_below_one(hidden):
    with pytest.raises(ValueError, match="hidden_sizes"):
        TrainConfig(hidden_sizes=hidden)
    TrainConfig(hidden_sizes=())  # no hidden layer: a linear model


def test_config_is_frozen():
    # a config that exists was checked when built, so none may change after
    cfg = TrainConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.beta = 1.0
    assert cfg == TrainConfig()


def test_lambda_schedule_lookup():
    cfg = TrainConfig(lambda_schedule=((0, 1e-2), (40, 1e-3), (80, 1e-4)))
    assert cfg.lr_at(0) == 1e-2
    assert cfg.lr_at(39) == 1e-2
    assert cfg.lr_at(40) == 1e-3
    assert cfg.lr_at(79) == 1e-3
    assert cfg.lr_at(80) == 1e-4
    assert cfg.lr_at(119) == 1e-4


def test_train_rejects_shared_meta_set():
    train_ds, meta_ds, test_ds = _blob_setting()
    with pytest.raises(ValueError, match="disjoint"):
        train(train_ds, train_ds, _warm_cfg(), test_ds)


def test_train_rejects_meta_set_of_other_shape():
    train_ds, meta_ds, test_ds = _blob_setting()
    wider = LabeledDataset(np.hstack([meta_ds.features, meta_ds.features]),
                           meta_ds.true_labels, meta_ds.noisy_labels, 3)
    with pytest.raises(ValueError, match="features"):
        train(train_ds, wider, _warm_cfg(), test_ds)
    more_classes = LabeledDataset(meta_ds.features, meta_ds.true_labels,
                                  meta_ds.noisy_labels, 4)
    with pytest.raises(ValueError, match="classes"):
        train(train_ds, more_classes, _warm_cfg(), test_ds)


def test_train_checks_the_test_split_before_building_the_model(monkeypatch):
    # the test split is scored after every epoch, so it is checked with the
    # meta split, before the run state (and its model) is built
    train_ds, meta_ds, test_ds = _blob_setting()

    def no_state(*args, **kwargs):
        raise AssertionError("the run state was built before the test split was checked")
    monkeypatch.setattr(mslg.trainer.RunState, "initial", no_state)
    wider = LabeledDataset(np.hstack([test_ds.features, test_ds.features]),
                           test_ds.true_labels, test_ds.noisy_labels, 3)
    with pytest.raises(ValueError, match="test set has 4 features and 3 classes"):
        train(train_ds, meta_ds, _warm_cfg(), wider)
    more_classes = LabeledDataset(test_ds.features, test_ds.true_labels,
                                  test_ds.noisy_labels, 4)
    with pytest.raises(ValueError, match="test set has 2 features and 4 classes"):
        train(train_ds, meta_ds, _warm_cfg(), more_classes)
    # an empty test split would score every epoch's test accuracy as NaN
    empty = LabeledDataset(np.zeros((0, 2)), np.zeros(0), np.zeros(0), 3)
    with pytest.raises(ValueError, match="test set is empty"):
        train(train_ds, meta_ds, _warm_cfg(), empty)


def test_train_rejects_meta_label_out_of_range_before_training(monkeypatch):
    train_ds, meta_ds, test_ds = _blob_setting()

    def no_epoch(*args, **kwargs):
        raise AssertionError("an epoch ran before the meta labels were checked")
    monkeypatch.setattr(mslg.trainer, "warmup_epoch", no_epoch)
    for bad in (3, -1):
        # the dataset checks its labels when built; this one is changed after
        wrong = LabeledDataset(meta_ds.features, meta_ds.true_labels,
                               meta_ds.noisy_labels.copy(), 3)
        wrong.noisy_labels[1] = bad
        with pytest.raises(ValueError, match=rf"meta label {bad} out of range \[0, 3\)"):
            train(train_ds, wrong, _warm_cfg(), test_ds)


def test_train_rejects_empty_meta_set_without_hanging():
    # an empty meta set once made the meta-batch cycler loop forever, so the
    # call runs in a child process that a timeout can stop
    script = textwrap.dedent("""
        import numpy as np
        from mslg.datasets import LabeledDataset, gen_blobs
        from mslg.presets import PRESETS
        from mslg.rng import ROLE_META, Rng
        from mslg.trainer import train

        train_ds = gen_blobs(60, 3, 2, 6.0, Rng(0))
        test_ds = gen_blobs(30, 3, 2, 6.0, Rng(1))
        empty = LabeledDataset(np.zeros((0, 2)), np.zeros(0), np.zeros(0), 3)
        try:
            train(train_ds, empty, PRESETS["blobs-smoke"], test_ds)
        except ValueError as exc:
            print(exc)
        else:
            raise SystemExit("train() accepted an empty meta set")
    """)
    src = str(Path(mslg.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert "meta set is empty" in proc.stdout


def test_train_rejects_empty_training_set():
    _, meta_ds, test_ds = _blob_setting()
    empty = LabeledDataset(np.zeros((0, 2)), np.zeros(0), np.zeros(0), 3)
    with pytest.raises(ValueError, match="training set is empty"):
        train(empty, meta_ds, _warm_cfg(), test_ds)


def test_metrics_csv_format():
    m = EpochMetrics(3, 0.5, 0.25, 0.875, 0.125, -0.001, 0.01)
    header = metrics_csv_header()
    row = metrics_csv_row(m)
    assert header == ("epoch,train_loss,meta_loss,test_accuracy,"
                      "label_recovery_rate,mean_grad_alignment,lr\n")
    assert row == "3,0.5,0.25,0.875,0.125,-0.001,0.01\n"
