"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to watch the lines stream;
without -s they still appear for failing criteria. The desk-scale trend
criteria share their training runs through module-scoped fixtures, so the
whole suite stays within a couple of minutes.
"""

import struct
import time

import numpy as np
import pytest

from mslg.datasets import (
    IdxBadMagicError,
    IdxCountMismatchError,
    IdxTruncatedError,
    ProbeConfig,
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
from mslg.model import Mlp, SgdState, sgd_step
from mslg.presets import resolve_preset
from mslg.rng import Rng
from mslg.soft_labels import SoftLabelStore
from mslg.trainer import (
    TrainConfig,
    accuracy,
    epoch_order,
    label_gradient_along,
    meta_gradient_direction,
    metrics_csv_header,
    metrics_csv_row,
    recovery_rate,
    train,
    training_loss_grad,
)

SEEDS = (0, 1, 2)


def _report(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {status}: {description}" + (f" [{detail}]" if detail else ""))
    assert ok, f"criterion {num} failed: {description} {detail}"


# -- shared desk-scale runs -----------------------------------------------------------


def _desk_data(seed, noise):
    ds = gen_blobs(2000, 4, 2, 6.0, Rng(seed))
    tr, me, te = split(ds, 0.02, 0.25, Rng(seed * 7919 + 1))
    tr = inject_feature_dependent(
        tr, noise, ProbeConfig(hidden_sizes=(16,), epochs=30),
        Rng(seed * 104729 + 2))
    return tr, me, te


def _desk_cfg(seed, method="mslg"):
    cfg = resolve_preset("blobs-desk")
    cfg.seed = seed
    if method == "ce":
        cfg.warmup_epochs = cfg.total_epochs
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
            ds = gen_blobs(2000, 4, 2, 6.0, Rng(seed))
            tr, me, te = split(ds, frac, 0.25, Rng(seed * 7919 + 1))
            tr = inject_feature_dependent(
                tr, 0.4, ProbeConfig(hidden_sizes=(16,), epochs=30),
                Rng(seed * 104729 + 2))
            model, _, _ = train(tr, me, _desk_cfg(seed), te)
            accs.append(accuracy(model, te))
        means[frac] = float(np.mean(accs))
    return means


# -- criterion 1: bilevel gradient oracle ------------------------------------------------


def test_criterion_1_bilevel_oracle():
    cfg = TrainConfig(alpha=0.5)
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = Rng(seed)
        model = Mlp((2, 4, 2), rng.child(0))
        x = rng.child(1).normal(size=(4, 2))
        noisy = rng.child(2).integers(0, 2, size=4)
        store = SoftLabelStore.init_from_noisy(noisy, 2, k=10.0)
        store.logits += rng.child(3).normal(size=store.logits.shape)
        meta_x = rng.child(4).normal(size=(4, 2))
        meta_y = rng.child(5).integers(0, 2, size=4)
        yhat = store.soft_labels(np.arange(4))

        g_meta, _, _ = meta_gradient_direction(model, x, yhat, meta_x, meta_y,
                                               cfg.alpha)
        grad_yhat = label_gradient_along(model, x, yhat, g_meta, cfg.alpha)
        analytic = softmax_backward(yhat, grad_yhat)

        def meta_loss_for(logits):
            yh = softmax(logits)
            _, g = training_loss_grad(model, x, yh)
            return cce_loss(model.perturbed(g, -cfg.alpha).predict(meta_x),
                            meta_y).scalar

        oracle = np.zeros_like(store.logits)
        h = 1e-4
        for i in range(4):
            for j in range(2):
                p = store.logits.copy()
                p[i, j] += h
                m = store.logits.copy()
                m[i, j] -= h
                oracle[i, j] = (meta_loss_for(p) - meta_loss_for(m)) / (2 * h)

        err = np.abs(analytic - oracle)
        tol = np.maximum(1e-3 * np.abs(oracle), 1e-8)
        worst = max(worst, float((err / tol).max()))
        if not np.all(err <= tol):
            _report(1, "bilevel oracle within 1e-3 on 20 tiny instances", False,
                    f"seed {seed}")
    elapsed = time.perf_counter() - t0
    _report(1, "bilevel oracle within 1e-3 on 20 tiny instances, < 5 s",
            worst <= 1.0 and elapsed < 5.0,
            f"worst err/tol {worst:.3f}, {elapsed:.2f}s")


# -- criterion 2: analytic-gradient suite -------------------------------------------------


def _fd_presoftmax(scalar_fn, z, h=1e-6):
    out = np.zeros_like(z)
    for i in range(z.shape[0]):
        for j in range(z.shape[1]):
            p = z.copy()
            p[i, j] += h
            m = z.copy()
            m[i, j] -= h
            out[i, j] = (scalar_fn(softmax(p)) - scalar_fn(softmax(m))) / (2 * h)
    return out


def _within(analytic, fd, rel=1e-4, floor=1e-8):
    return bool(np.all(np.abs(analytic - fd) <= np.maximum(rel * np.abs(fd), floor)))


def test_criterion_2_analytic_gradient_suite():
    rng = Rng(2024)
    checks = {"kl_v1": 0, "kl_v2": 0, "kl_v2_labels": 0, "cce": 0, "entropy": 0,
              "backprop": 0}

    for case in range(100):
        b, c = 2, 4
        z = rng.child(1, case).normal(size=(b, c)) * 2
        f = softmax(z)
        yhat = softmax(rng.child(2, case).normal(size=(b, c)) * 2)
        y = rng.child(3, case).integers(0, c, size=b)

        lv = kl_loss_v1(f, yhat)
        ok = _within(softmax_backward(f, lv.grad_wrt_predictions),
                     _fd_presoftmax(lambda p: kl_loss_v1(p, yhat).scalar, z))
        checks["kl_v1"] += ok

        lv = kl_loss_v2(f, yhat, want_label_grad=True)
        ok = _within(softmax_backward(f, lv.grad_wrt_predictions),
                     _fd_presoftmax(lambda p: kl_loss_v2(p, yhat).scalar, z))
        checks["kl_v2"] += ok

        zy = rng.child(4, case).normal(size=(b, c)) * 2
        yh2 = softmax(zy)
        lv = kl_loss_v2(f, yh2, want_label_grad=True)
        ok = _within(softmax_backward(yh2, lv.grad_wrt_labels),
                     _fd_presoftmax(lambda q: kl_loss_v2(f, q).scalar, zy))
        checks["kl_v2_labels"] += ok

        lv = cce_loss(f, y)
        ok = _within(softmax_backward(f, lv.grad_wrt_predictions),
                     _fd_presoftmax(lambda p: cce_loss(p, y).scalar, z))
        checks["cce"] += ok

        lv = entropy_loss(f)
        ok = _within(softmax_backward(f, lv.grad_wrt_predictions),
                     _fd_presoftmax(lambda p: entropy_loss(p).scalar, z))
        checks["entropy"] += ok

    for case in range(100):
        model = Mlp((2, 4, 3), Rng(5000 + case).child(0))
        for attempt in range(50):
            x = Rng(6000 + case).child(attempt).normal(size=(3, 2))
            _, cache = model.forward(x)
            if min(np.abs(zz).min() for zz in cache["pre"][:-1]) > 1e-3:
                break
        yhat = softmax(Rng(7000 + case).normal(size=(3, 3)))
        probs, cache = model.forward(x)
        lv = classification_objective(probs, yhat, entropy_weight=0.5)
        analytic = model.backward(cache, lv.grad_wrt_predictions)

        flat = model.get_flat()
        fd = np.zeros_like(flat)
        h = 1e-5
        for k in range(flat.size):
            p = flat.copy()
            p[k] += h
            model.set_flat(p)
            up = classification_objective(model.predict(x), yhat, 0.5).scalar
            p[k] -= 2 * h
            model.set_flat(p)
            down = classification_objective(model.predict(x), yhat, 0.5).scalar
            fd[k] = (up - down) / (2 * h)
        model.set_flat(flat)
        checks["backprop"] += _within(analytic, fd)

    ok = all(v == 100 for v in checks.values())
    _report(2, "all loss gradients and backprop match FD (100 cases each)",
            ok, ", ".join(f"{k}:{v}/100" for k, v in checks.items()))


# -- criterion 3: reduction equivalences -----------------------------------------------


def test_criterion_3a_warmup_equals_ce_baseline():
    tr, me, te = _desk_data(0, 0.4)
    cfg = _desk_cfg(0, "mslg")
    cfg.total_epochs = 12
    cfg.warmup_epochs = 12  # mslg config collapsed onto pure warm-up
    model_a, _, hist_a = train(tr, me, cfg, te)
    model_b, _, hist_b = train(tr, me, _ce_cfg_12(), te)
    csv_a = metrics_csv_header() + "".join(metrics_csv_row(m) for m in hist_a)
    csv_b = metrics_csv_header() + "".join(metrics_csv_row(m) for m in hist_b)
    ok = (csv_a.encode() == csv_b.encode()
          and np.array_equal(model_a.get_flat(), model_b.get_flat()))
    _report("3a", "total==warmup is bitwise equal to the CE baseline", ok)


def _ce_cfg_12():
    cfg = _desk_cfg(0, "ce")
    cfg.total_epochs = 12
    cfg.warmup_epochs = 12
    return cfg


def test_criterion_3b_beta_zero_is_frozen_soft_ce():
    tr, me, te = _desk_data(1, 0.4)
    cfg = _desk_cfg(1)
    cfg.warmup_epochs = 0
    cfg.total_epochs = 6
    cfg.beta = 0.0
    cfg.entropy_weight = 0.0
    model_a, store_a, hist_a = train(tr, me, cfg, te)

    model_b = Mlp((tr.dim, *cfg.hidden_sizes, tr.num_classes), Rng(cfg.seed).child(0))
    store_b = SoftLabelStore.init_from_noisy(tr.noisy_labels, tr.num_classes,
                                             cfg.k_init)
    frozen = store_b.soft_labels()
    opt = SgdState(lr=cfg.lr_at(0), momentum=cfg.momentum,
                   weight_decay=cfg.weight_decay)
    worst = 0.0
    for epoch in range(cfg.total_epochs):
        opt.lr = cfg.lr_at(epoch)
        order = epoch_order(cfg.seed, epoch, tr.n)
        loss_sum = 0.0
        for start in range(0, tr.n, cfg.batch_size):
            ids = order[start:start + cfg.batch_size]
            probs, cache = model_b.forward(tr.features[ids])
            lv = kl_loss_v2(probs, frozen[ids])
            sgd_step(model_b, model_b.backward(cache, lv.grad_wrt_predictions), opt)
            loss_sum += lv.scalar * ids.size
        m = hist_a[epoch]
        worst = max(
            worst,
            abs(m.train_loss - loss_sum / tr.n),
            abs(m.meta_loss - cce_loss(model_b.predict(me.features),
                                       me.noisy_labels).scalar),
            abs(m.test_accuracy - accuracy(model_b, te)),
            abs(m.label_recovery_rate - recovery_rate(store_b, tr)),
        )
    labels_frozen = np.array_equal(store_a.logits, store_b.logits)
    params_equal = np.array_equal(model_a.get_flat(), model_b.get_flat())
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
    cfg = _desk_cfg(0)
    cfg.total_epochs = 40
    cfg.warmup_epochs = 15
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
    imgs = struct.pack(">IIII", 0x00000803, 2, 2, 2) + bytes(
        [0, 51, 102, 153, 204, 255, 10, 20])
    lbls = struct.pack(">II", 0x00000801, 2) + bytes([1, 0])
    ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"

    ip.write_bytes(imgs)
    lp.write_bytes(lbls)
    ds = load_idx_images(ip, lp)
    valid_ok = (ds.features.shape == (2, 4)
                and np.array_equal(ds.features * 255.0,
                                   [[0, 51, 102, 153], [204, 255, 10, 20]])
                and ds.true_labels.tolist() == [1, 0])

    lp.write_bytes(struct.pack(">II", 0x00000803, 2) + bytes([1, 0]))
    try:
        load_idx_images(ip, lp)
        magic_ok = False
    except IdxBadMagicError:
        magic_ok = True

    lp.write_bytes(struct.pack(">II", 0x00000801, 3) + bytes([1, 0, 1]))
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
