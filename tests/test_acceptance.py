"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line,
and beside criterion 1 two tests that pin the whole MSLG step against
`helpers.reference_mslg_batch`, where `pytest -x` reaches them in seconds.

Run with `pytest tests/test_acceptance.py -s` to watch the lines stream;
without -s they still appear for failing criteria. The desk-scale trend
criteria share their training runs through module-scoped fixtures, so the
whole suite stays within a couple of minutes.
"""

import dataclasses
import time

import numpy as np
import pytest

from mslg.datasets import (
    IdxBadMagicError,
    IdxCountMismatchError,
    IdxTruncatedError,
    LabeledDataset,
    gen_blobs,
    inject_feature_dependent,
    load_idx_images,
    split,
)
from mslg.linalg import softmax, softmax_backward
from mslg.losses import (
    cce_loss,
    classification_objective,
    entropy_loss,
    kl_loss_v1,
    kl_loss_v2,
)
from mslg.model import Mlp
from mslg.presets import PRESETS
from mslg.rng import Rng
from mslg.trainer import (
    ALPHA,
    RunState,
    TrainConfig,
    _meta_batches,
    accuracy,
    epoch_order,
    kl_logit_loss,
    metrics_csv_header,
    metrics_csv_row,
    mslg_epoch,
    recovery_rate,
    train,
)

from helpers import (assert_grads_close, brute_force_logit_grad, fd_grad_presoftmax,
                     fd_param_grad, frozen_soft_ce_run, grad_errors, grads_close,
                     idx_images_bytes, idx_labels_bytes, kink_free_batch,
                     label_logit_grad, reference_mslg_batch, tiny_bilevel_instance)

SEEDS = (0, 1, 2)


def _report(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {status}: {description}" + (f" [{detail}]" if detail else ""))
    assert ok, f"criterion {num} failed: {description} {detail}"


# -- shared desk-scale runs -----------------------------------------------------------


def _desk_data(seed, noise, meta_fraction=0.02):
    ds = gen_blobs(2000, 4, 2, 6.0, Rng(seed))
    tr, me, te = split(ds, meta_fraction, 0.25, Rng(seed * 7919 + 1))
    tr = inject_feature_dependent(tr, noise, seed * 104729 + 2)
    return tr, me, te


def _desk_cfg(seed, method="mslg"):
    cfg = dataclasses.replace(PRESETS["blobs-desk"], seed=seed)
    if method == "ce":
        cfg = dataclasses.replace(cfg, warmup_epochs=cfg.total_epochs)
    return cfg


@pytest.fixture(scope="module")
def desk_runs():
    """{(noise, method, seed): dict} for the 40%/60% feature-dependent runs."""
    out = {}
    for noise in (0.4, 0.6):
        for method in ("ce", "mslg"):
            for seed in SEEDS:
                tr, me, te = _desk_data(seed, noise)
                t0 = time.perf_counter()
                model, store, history = train(tr, me, _desk_cfg(seed, method), te)
                elapsed = time.perf_counter() - t0
                out[(noise, method, seed)] = {
                    "model": model, "store": store, "history": history,
                    "train_ds": tr, "test_ds": te,
                    "accuracy": accuracy(model, te),
                    "recovery": recovery_rate(store, tr),
                    "seconds": elapsed,
                }
    return out


@pytest.fixture(scope="module")
def meta_sweep(desk_runs):
    """Mean test accuracy per meta fraction at 40% noise; the 2% cell reuses
    the desk runs (identical configuration)."""
    means = {0.02: float(np.mean([desk_runs[(0.4, "mslg", s)]["accuracy"]
                                  for s in SEEDS]))}
    for frac in (0.002, 0.005, 0.01, 0.05):
        accs = []
        for seed in SEEDS:
            tr, me, te = _desk_data(seed, 0.4, frac)
            model, _, _ = train(tr, me, _desk_cfg(seed), te)
            accs.append(accuracy(model, te))
        means[frac] = float(np.mean(accs))
    return means


# -- criterion 1: bilevel gradient oracle ------------------------------------------------


def test_criterion_1_bilevel_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        model, x, store, meta_x, meta_y = tiny_bilevel_instance(seed)
        yhat = store.soft_labels(np.arange(4))
        analytic = label_logit_grad(model, x, yhat, meta_x, meta_y, ALPHA)
        oracle = brute_force_logit_grad(model, x, store.logits, meta_x, meta_y, ALPHA)
        err, tol = grad_errors(analytic, oracle, rel=1e-3)
        worst = max(worst, float((err / tol).max()))
        if not np.all(err <= tol):
            _report(1, "bilevel oracle within 1e-3 on 20 tiny instances", False,
                    f"seed {seed}")
    elapsed = time.perf_counter() - t0
    _report(1, "bilevel oracle within 1e-3 on 20 tiny instances, < 5 s",
            worst <= 1.0 and elapsed < 5.0,
            f"worst err/tol {worst:.3f}, {elapsed:.2f}s")


# -- the whole MSLG step: criterion 1's label gradient, composed ----------------------------
# Criterion 1 pins the label gradient and criterion 3b the beta = 0 path; these
# pin how one epoch composes the three steps: the rate of the label step, the
# labels the committed step reads, its entropy term and the alignment metric.


def _tiny_epoch(seed):
    """(state, cfg, train, meta, test) at `tiny_bilevel_instance`'s sizes: batches
    of 4 over 10 training rows (the last batch short), 6 meta rows, so the meta
    stream wraps, and labels and velocity off their initial values."""
    def part(role, rows):
        y = Rng(seed, role, 1).integers(0, 2, size=rows)
        return LabeledDataset(Rng(seed, role, 0).normal(size=(rows, 2)), y, y, 2)

    train_ds, meta_ds, test_ds = part(6, 10), part(7, 6), part(8, 4)
    cfg = TrainConfig(beta=10.0, lambda_schedule=((0, 0.1),), batch_size=4,
                      weight_decay=1e-2, warmup_epochs=0, total_epochs=1, seed=seed,
                      hidden_sizes=(4,))
    state = RunState.initial(cfg, train_ds)
    state.store.logits += Rng(seed, 3).normal(size=state.store.logits.shape)
    state.velocity += 0.1 * Rng(seed, 9).normal(size=state.velocity.shape)
    return state, cfg, train_ds, meta_ds, test_ds


def _reference_epoch(state, cfg, train_ds, meta_ds):
    """(params, velocity, label logits, per-batch g_meta . g_train) after
    `reference_mslg_batch` over the epoch's batch order and meta rows."""
    model = Mlp(state.model.layer_sizes)
    model.params[...] = state.model.params
    velocity, logits = state.velocity.copy(), state.store.logits.copy()
    order = epoch_order(cfg.seed, state.epoch, train_ds.n)
    batches = -(-train_ds.n // cfg.batch_size)
    dots = []
    for k, rows in enumerate(_meta_batches(meta_ds.n, cfg.seed, state.epoch, batches,
                                           cfg.batch_size)):
        ids = order[k * cfg.batch_size:(k + 1) * cfg.batch_size]
        params, velocity, logits[ids], dot = reference_mslg_batch(
            model, velocity, logits[ids], train_ds.features[ids], meta_ds.features[rows],
            meta_ds.noisy_labels[rows], cfg, cfg.lr_at(state.epoch))
        model.params[...] = params
        dots.append(dot)
    return model.params, velocity, logits, dots


@pytest.mark.parametrize("seed", range(5))
def test_mslg_epoch_is_the_reference_step_batch_by_batch(seed):
    state, cfg, train_ds, meta_ds, test_ds = _tiny_epoch(seed)
    params, velocity, logits, _ = _reference_epoch(state, cfg, train_ds, meta_ds)
    mslg_epoch(state, cfg, train_ds, meta_ds, test_ds)
    assert_grads_close(state.store.logits, logits)
    assert_grads_close(state.model.params, params)
    assert_grads_close(state.velocity, velocity)


@pytest.mark.parametrize("seed", range(5))
def test_mean_grad_alignment_is_the_reference_mean_over_batches(seed):
    state, cfg, train_ds, meta_ds, test_ds = _tiny_epoch(seed)
    dots = _reference_epoch(state, cfg, train_ds, meta_ds)[3]
    assert len(dots) == 3
    metrics = mslg_epoch(state, cfg, train_ds, meta_ds, test_ds)
    assert_grads_close(metrics.mean_grad_alignment, np.mean(dots))


# -- criterion 2: analytic-gradient suite -------------------------------------------------


def test_criterion_2_analytic_gradient_suite():
    seed = 2024
    checks = {"kl_v1": 0, "kl_v2": 0, "cce": 0, "entropy": 0, "backprop": 0}

    for case in range(100):
        b, c = 2, 4
        z = Rng(seed, 1, case).normal(size=(b, c)) * 2
        f = softmax(z)
        yhat = softmax(Rng(seed, 2, case).normal(size=(b, c)) * 2)
        y = Rng(seed, 3, case).integers(0, c, size=b)

        losses = {"kl_v1": lambda p: kl_loss_v1(p, yhat),
                  "kl_v2": lambda p: kl_loss_v2(p, yhat),
                  "cce": lambda p: cce_loss(p, y), "entropy": entropy_loss}
        for name, loss in losses.items():
            checks[name] += grads_close(
                softmax_backward(f, loss(f).grad_wrt_predictions),
                fd_grad_presoftmax(lambda p: loss(p).scalar, z))

    for case in range(100):
        model = Mlp((2, 4, 3), Rng(5000 + case, 0))
        x = kink_free_batch(model, (6000 + case,), (3, 2))
        yhat = softmax(Rng(7000 + case).normal(size=(3, 3)))
        # the committed step's gradient: the trainer's logit-space kernel
        # through backprop, against differences of the public objective
        probs, cache = model.forward(x)
        analytic = model.backward(cache, kl_logit_loss(probs, yhat, 0.5)[1])

        fd = fd_param_grad(model, x,
                           lambda p: classification_objective(p, yhat, 0.5).scalar)
        checks["backprop"] += grads_close(analytic, fd)

    ok = all(v == 100 for v in checks.values())
    _report(2, "all loss gradients and backprop match FD (100 cases each)",
            ok, ", ".join(f"{k}:{v}/100" for k, v in checks.items()))


# -- criterion 3: reduction equivalences -----------------------------------------------


def test_criterion_3a_warmup_equals_ce_baseline():
    tr, me, te = _desk_data(0, 0.4)
    # mslg config collapsed onto pure warm-up
    cfg = dataclasses.replace(_desk_cfg(0, "mslg"), total_epochs=12, warmup_epochs=12)
    model_a, _, hist_a = train(tr, me, cfg, te)
    model_b, _, hist_b = train(tr, me, _ce_cfg_12(), te)
    csv_a = metrics_csv_header() + "".join(metrics_csv_row(m) for m in hist_a)
    csv_b = metrics_csv_header() + "".join(metrics_csv_row(m) for m in hist_b)
    ok = (csv_a.encode() == csv_b.encode()
          and np.array_equal(model_a.params, model_b.params))
    _report("3a", "total==warmup is bitwise equal to the CE baseline", ok)


def _ce_cfg_12():
    return dataclasses.replace(_desk_cfg(0, "ce"), total_epochs=12, warmup_epochs=12)


def test_criterion_3b_beta_zero_is_frozen_soft_ce():
    tr, me, te = _desk_data(1, 0.4)
    cfg = dataclasses.replace(_desk_cfg(1), warmup_epochs=0, total_epochs=6, beta=0.0,
                              entropy_weight=0.0)
    model_a, store_a, hist_a = train(tr, me, cfg, te)

    model_b, store_b, hist_b = frozen_soft_ce_run(tr, me, te, cfg)
    worst = max(max(abs(m.train_loss - tl), abs(m.meta_loss - ml),
                    abs(m.test_accuracy - ta), abs(m.label_recovery_rate - rec))
                for m, (tl, ml, ta, rec) in zip(hist_a, hist_b))
    labels_frozen = np.array_equal(store_a.logits, store_b.logits)
    params_equal = np.array_equal(model_a.params, model_b.params)
    _report("3b", "beta=0, entropy=0 stage two equals frozen-soft-CE to 1e-12",
            worst <= 1e-12 and labels_frozen and params_equal,
            f"worst metric delta {worst:.2e}")


# -- criterion 4: simplex + determinism -------------------------------------------------


def test_criterion_4_simplex_and_determinism(desk_runs):
    sums_ok = True
    for noise in (0.4, 0.6):
        for seed in SEEDS:
            store = desk_runs[(noise, "mslg", seed)]["store"]
            sums = store.soft_labels().sum(axis=1)
            sums_ok &= bool(np.abs(sums - 1.0).max() <= 1e-9)

    tr, me, te = _desk_data(0, 0.4)
    cfg = dataclasses.replace(_desk_cfg(0), total_epochs=40, warmup_epochs=15)
    _, _, h1 = train(tr, me, cfg, te)
    _, _, h2 = train(tr, me, cfg, te)
    csv1 = (metrics_csv_header() + "".join(metrics_csv_row(m) for m in h1)).encode()
    csv2 = (metrics_csv_header() + "".join(metrics_csv_row(m) for m in h2)).encode()
    _report(4, "soft labels stay on the simplex; reruns byte-identical",
            sums_ok and csv1 == csv2)


# -- criteria 5-7: desk-scale trends ---------------------------------------------------


def test_criterion_5_trend_vs_ce(desk_runs):
    # the separation used must leave the clean problem essentially solved
    ds = gen_blobs(2000, 4, 2, 6.0, Rng(0))
    tr, me, te = split(ds, 0.02, 0.25, Rng(1))
    cfg = _desk_cfg(0, "ce")
    clean_model, _, _ = train(tr, me, cfg, te)
    clean_acc = accuracy(clean_model, te)

    gaps = {}
    for noise, need in ((0.6, 0.10), (0.4, 0.05)):
        mslg = np.mean([desk_runs[(noise, "mslg", s)]["accuracy"] for s in SEEDS])
        ce = np.mean([desk_runs[(noise, "ce", s)]["accuracy"] for s in SEEDS])
        gaps[noise] = (float(mslg), float(ce), float(mslg - ce), need)
    slowest = max(desk_runs[k]["seconds"] for k in desk_runs)

    ok = (clean_acc >= 0.98
          and gaps[0.6][2] >= gaps[0.6][3]
          and gaps[0.4][2] >= gaps[0.4][3]
          and slowest <= 120.0)
    detail = (f"clean {clean_acc:.3f}; 60%: mslg {gaps[0.6][0]:.3f} vs ce "
              f"{gaps[0.6][1]:.3f} (+{100 * gaps[0.6][2]:.1f}pp, need >=10); "
              f"40%: mslg {gaps[0.4][0]:.3f} vs ce {gaps[0.4][1]:.3f} "
              f"(+{100 * gaps[0.4][2]:.1f}pp, need >=5); slowest run {slowest:.1f}s")
    _report(5, "desk-scale accuracy trend over the CE baseline", ok, detail)


def test_criterion_6_label_recovery(desk_runs):
    recs, pseudo = [], []
    for seed in SEEDS:
        run = desk_runs[(0.4, "mslg", seed)]
        recs.append(run["recovery"])
        ce_run = desk_runs[(0.4, "ce", seed)]
        tr = ce_run["train_ds"]
        mask = tr.corrupted_mask()
        preds = ce_run["model"].predict(tr.features).argmax(axis=1)
        pseudo.append(float(np.mean(preds[mask] == tr.true_labels[mask])))
    mean_rec = float(np.mean(recs))
    mean_pseudo = float(np.mean(pseudo))
    chance = 1.0 / 4.0
    ok = mean_rec > 0.5 and mean_rec > chance and mean_rec > mean_pseudo
    _report(6, "label recovery beats 50%, chance, and CE pseudo-labels", ok,
            f"recovery {mean_rec:.3f} (per seed {[f'{r:.2f}' for r in recs]}), "
            f"chance {chance}, CE-pseudo {mean_pseudo:.3f}")


def test_criterion_7_meta_size_plateau(meta_sweep):
    delta = abs(meta_sweep[0.02] - meta_sweep[0.05])
    accs = [meta_sweep[f] for f in sorted(meta_sweep)]
    # trend: mean accuracy does not fall as the meta set grows (1pt slack)
    monotone = all(b >= a - 0.01 for a, b in zip(accs, accs[1:]))
    ok = delta <= 0.01 and monotone
    detail = ", ".join(f"{100 * f:g}%: {a:.3f}" for f, a in sorted(meta_sweep.items()))
    _report(7, "meta-size sweep plateaus: |acc(2%) - acc(5%)| <= 1 point", ok,
            f"{detail}; delta {100 * delta:.2f}pt; monotone {monotone}")


# -- criterion 8: loss case analysis -----------------------------------------------------


def test_criterion_8_gradient_growth_at_wrong_peak():
    c = 10
    noisy_class = 5
    logits = np.zeros(c)
    logits[noisy_class] = 10.0
    yhat = softmax(logits)[None, :]
    ok = True
    ratios = []
    for f_noisy in (0.05, 0.02, 0.01, 0.005, 0.001):
        f = np.full(c, (1.0 - f_noisy) / (c - 1))
        f[noisy_class] = f_noisy
        f = f[None, :]
        g1 = abs(kl_loss_v1(f, yhat).grad_wrt_predictions[0, noisy_class])
        g2 = abs(kl_loss_v2(f, yhat).grad_wrt_predictions[0, noisy_class])
        ratios.append(g1 / g2)
        ok &= g1 >= 10.0 * g2
    _report(8, "KL(yhat||f) gradient >= 10x KL(f||yhat) at a wrong peak", ok,
            f"ratios {[f'{r:.1f}' for r in ratios]}")


# -- criterion 9: IDX fixtures ------------------------------------------------------------


def test_criterion_9_idx_fixtures(tmp_path):
    imgs = idx_images_bytes([[[0, 51], [102, 153]], [[204, 255], [10, 20]]])
    lbls = idx_labels_bytes([1, 0])
    ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"

    ip.write_bytes(imgs)
    lp.write_bytes(lbls)
    ds = load_idx_images(ip, lp)
    valid_ok = (ds.features.shape == (2, 4)
                and np.array_equal(ds.features * 255.0,
                                   [[0, 51, 102, 153], [204, 255, 10, 20]])
                and ds.true_labels.tolist() == [1, 0])

    lp.write_bytes(idx_labels_bytes([1, 0], magic=0x00000803))
    try:
        load_idx_images(ip, lp)
        magic_ok = False
    except IdxBadMagicError:
        magic_ok = True

    lp.write_bytes(idx_labels_bytes([1, 0, 1]))
    try:
        load_idx_images(ip, lp)
        count_ok = False
    except IdxCountMismatchError:
        count_ok = True

    lp.write_bytes(lbls)
    ip.write_bytes(imgs[:-2])
    try:
        load_idx_images(ip, lp)
        trunc_ok = False
    except IdxTruncatedError:
        trunc_ok = True

    ok = valid_ok and magic_ok and count_ok and trunc_ok
    _report(9, "IDX reader: valid pair, bad magic, count mismatch, truncation", ok,
            f"valid {valid_ok}, magic {magic_ok}, count {count_ok}, trunc {trunc_ok}")
