"""Two-stage training loop for joint soft-label and classifier estimation.

Stage one is plain cross-entropy warm-up on the noisy labels. Stage two
alternates, per batch:

  1. a look-ahead step theta_hat = theta - alpha * grad KL(f||yhat) on the
     training batch, a plain gradient step on the flat parameter vector;
  2. a label update: the gradient of the meta cross-entropy (clean meta
     batch, evaluated at theta_hat) with respect to the batch's soft labels,
     applied to the label logits with rate beta;
  3. a committed optimizer step on KL(f||yhat_new) + entropy, with rate
     lambda from the schedule.

The label gradient in step 2 is the mixed second derivative of the training
loss contracted with the meta gradient. It is computed without any second
backward pass: the gradient of the training loss with respect to the labels
is analytic (-f/yhat), so perturbing theta by +/- eps along the meta gradient
and differencing needs two extra forward passes only.

Everything is driven by the run seed: batch orders, meta-batch cycling, and
weight init each use keyed child streams, so identically configured runs are
bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import LabeledDataset
from .losses import cce_loss, classification_objective, kl_loss_v2
from .model import Mlp, NumericalError, SgdState, sgd_step
from .rng import Rng
from .soft_labels import SoftLabelStore

__all__ = [
    "TrainConfig",
    "EpochMetrics",
    "METRICS_COLUMNS",
    "accuracy",
    "recovery_rate",
    "epoch_order",
    "training_loss_grad",
    "meta_gradient_direction",
    "label_gradient_along",
    "warmup_epoch",
    "mslg_epoch",
    "train",
    "metrics_csv_header",
    "metrics_csv_row",
    "save_metrics_csv",
]

ROLE_INIT = 0
ROLE_TRAIN = 1
ROLE_META = 2

# relative parameter-space step of the label-gradient difference quotient
HVP_EPSILON = 1e-3


@dataclass
class TrainConfig:
    alpha: float = 0.5            # look-ahead step learning rate
    beta: float = 4000.0          # label learning rate
    lambda_schedule: tuple[tuple[int, float], ...] = ((0, 1e-2), (40, 1e-3), (80, 1e-4))
    k_init: float = 10.0          # label logit init scale
    batch_size: int = 128
    momentum: float = 0.9
    weight_decay: float = 1e-4
    warmup_epochs: int = 44
    total_epochs: int = 120
    entropy_weight: float = 1.0
    seed: int = 0
    hidden_sizes: tuple[int, ...] = (32, 32)

    def validate(self) -> None:
        if self.alpha <= 0 or self.beta < 0:
            raise ValueError(f"need alpha > 0 and beta >= 0, got {self.alpha}, {self.beta}")
        if self.batch_size < 1 or self.total_epochs < 0:
            raise ValueError("batch_size and total_epochs must be positive")
        # warmup == total is the plain cross-entropy baseline
        if not (0 <= self.warmup_epochs <= self.total_epochs):
            raise ValueError(
                f"need 0 <= warmup ({self.warmup_epochs}) <= total ({self.total_epochs})"
            )
        if not self.lambda_schedule:
            raise ValueError("lambda_schedule must have at least one entry")
        starts = [e for e, _ in self.lambda_schedule]
        if starts != sorted(starts) or len(set(starts)) != len(starts):
            raise ValueError(f"lambda_schedule epochs must strictly increase: {starts}")
        if not (0 <= self.momentum < 1) or self.weight_decay < 0:
            raise ValueError("need momentum in [0,1) and weight_decay >= 0")

    def lr_at(self, epoch: int) -> float:
        lr = self.lambda_schedule[0][1]
        for start, value in self.lambda_schedule:
            if epoch >= start:
                lr = value
        return lr


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    meta_loss: float
    test_accuracy: float
    label_recovery_rate: float
    mean_grad_alignment: float
    lr: float


METRICS_COLUMNS = ("epoch", "train_loss", "meta_loss", "test_accuracy",
                   "label_recovery_rate", "mean_grad_alignment", "lr")


# -- evaluation helpers (these may read true labels) --------------------------


def accuracy(model: Mlp, ds: LabeledDataset) -> float:
    preds = model.predict(ds.features).argmax(axis=1)
    return float(np.mean(preds == ds.true_labels))


def recovery_rate(store: SoftLabelStore, ds: LabeledDataset) -> float:
    """Fraction of corrupted samples whose soft-label argmax equals the hidden
    true label. Zero right after initialization by construction."""
    mask = ds.corrupted_mask()
    if not mask.any():
        return 0.0
    args = store.soft_labels().argmax(axis=1)
    return float(np.mean(args[mask] == ds.true_labels[mask]))


# -- meta-gradient machinery ----------------------------------------------------


def epoch_order(seed: int, epoch: int, n: int) -> np.ndarray:
    """Training-batch permutation for an epoch; a pure function of (seed, epoch)."""
    return Rng(seed).child(ROLE_TRAIN, epoch).permutation(n)


def training_loss_grad(model: Mlp, x, yhat) -> tuple[float, np.ndarray]:
    """Batch KL(f||yhat) and its flat parameter gradient."""
    probs, cache = model.forward(x)
    lv = kl_loss_v2(probs, yhat)
    return lv.scalar, model.backward(cache, lv.grad_wrt_predictions)


def meta_gradient_direction(model: Mlp, x, yhat, meta_x, meta_y, alpha: float
                            ) -> tuple[np.ndarray, np.ndarray, float]:
    """Meta cross-entropy gradient at the looked-ahead parameters.

    Returns (g_meta, g_train, meta_loss): the flat meta gradient taken at
    theta_hat = theta - alpha * g_train, the flat training-batch gradient at
    theta, and the meta loss value.
    """
    _, g_train = training_loss_grad(model, x, yhat)
    if not np.all(np.isfinite(g_train)):
        raise NumericalError("meta gradient: non-finite training gradient")
    theta_hat = model.perturbed(g_train, -alpha)
    probs_m, cache_m = theta_hat.forward(meta_x)
    lv = cce_loss(probs_m, meta_y)
    g_meta = theta_hat.backward(cache_m, lv.grad_wrt_predictions)
    if not np.all(np.isfinite(g_meta)):
        raise NumericalError("meta gradient: non-finite meta gradient")
    return g_meta, g_train, lv.scalar


def label_gradient_along(model: Mlp, x, yhat, direction: np.ndarray,
                         alpha: float) -> np.ndarray:
    """-alpha * d/d(yhat) of (training gradient . direction), by differencing.

    The label gradient of the training loss is analytic (-f/yhat scaled by
    1/b), so its directional derivative along `direction` in parameter space
    needs only two forward passes at theta +/- eps * direction. The step eps
    is HVP_EPSILON * (1 + |theta|) / |direction|; a vanishing direction means
    the meta loss is flat and the gradient is exactly zero.
    """
    yhat = np.asarray(yhat, dtype=np.float64)
    norm = float(np.linalg.norm(direction))
    if norm < 1e-12:
        return np.zeros_like(yhat)
    eps = HVP_EPSILON * (1.0 + float(np.linalg.norm(model.params))) / norm
    gl_plus = kl_loss_v2(model.perturbed(direction, eps).predict(x), yhat,
                         want_label_grad=True).grad_wrt_labels
    gl_minus = kl_loss_v2(model.perturbed(direction, -eps).predict(x), yhat,
                          want_label_grad=True).grad_wrt_labels
    out = -alpha * (gl_plus - gl_minus) / (2.0 * eps)
    if not np.all(np.isfinite(out)):
        raise NumericalError("label gradient: non-finite difference quotient")
    return out


class _MetaCycler:
    """Cyclic meta-batch iterator; reshuffles on each wrap with a seed derived
    from (run seed, epoch, wrap count)."""

    def __init__(self, m: int, seed: int, epoch: int, batch_size: int):
        self._m = m
        self._seed = seed
        self._epoch = epoch
        self._bs = batch_size
        self._wrap = 0
        self._pos = 0
        self._order = self._reshuffle()

    def _reshuffle(self) -> np.ndarray:
        return Rng(self._seed).child(ROLE_META, self._epoch, self._wrap).permutation(self._m)

    def next_batch(self) -> np.ndarray:
        out: list[int] = []
        while len(out) < self._bs:
            take = min(self._bs - len(out), self._m - self._pos)
            out.extend(self._order[self._pos:self._pos + take])
            self._pos += take
            if self._pos == self._m:
                self._wrap += 1
                self._pos = 0
                self._order = self._reshuffle()
        return np.asarray(out, dtype=np.int64)


# -- epochs ---------------------------------------------------------------------


def _epoch_metrics(epoch: int, train_loss: float, align: float, model: Mlp,
                   store: SoftLabelStore | None, train_ds: LabeledDataset,
                   meta_ds: LabeledDataset | None, test_ds: LabeledDataset | None,
                   lr: float) -> EpochMetrics:
    meta_loss = 0.0
    if meta_ds is not None:
        meta_loss = cce_loss(model.predict(meta_ds.features),
                             meta_ds.noisy_labels).scalar
    test_acc = accuracy(model, test_ds) if test_ds is not None else 0.0
    rec = recovery_rate(store, train_ds) if store is not None else 0.0
    return EpochMetrics(epoch, train_loss, meta_loss, test_acc, rec, align, lr)


def warmup_epoch(model: Mlp, train_ds: LabeledDataset, opt: SgdState,
                 cfg: TrainConfig, epoch: int, store: SoftLabelStore | None = None,
                 meta_ds: LabeledDataset | None = None,
                 test_ds: LabeledDataset | None = None) -> EpochMetrics:
    """One pass of plain cross-entropy SGD on the noisy hard labels."""
    opt.lr = cfg.lr_at(epoch)
    order = epoch_order(cfg.seed, epoch, train_ds.n)
    loss_sum = 0.0
    for start in range(0, train_ds.n, cfg.batch_size):
        ids = order[start:start + cfg.batch_size]
        probs, cache = model.forward(train_ds.features[ids])
        lv = cce_loss(probs, train_ds.noisy_labels[ids])
        sgd_step(model, model.backward(cache, lv.grad_wrt_predictions), opt)
        loss_sum += lv.scalar * ids.size
    return _epoch_metrics(epoch, loss_sum / train_ds.n, 0.0, model, store,
                          train_ds, meta_ds, test_ds, opt.lr)


def mslg_epoch(model: Mlp, train_ds: LabeledDataset, store: SoftLabelStore,
               opt: SgdState, cfg: TrainConfig, epoch: int,
               meta_ds: LabeledDataset,
               test_ds: LabeledDataset | None = None) -> EpochMetrics:
    """One label-correction epoch: per batch, update the soft labels from the
    meta gradient, then take a committed step on the corrected labels."""
    opt.lr = cfg.lr_at(epoch)
    order = epoch_order(cfg.seed, epoch, train_ds.n)
    meta_iter = _MetaCycler(meta_ds.n, cfg.seed, epoch, cfg.batch_size)
    loss_sum = 0.0
    align_sum = 0.0
    batches = 0
    for start in range(0, train_ds.n, cfg.batch_size):
        ids = order[start:start + cfg.batch_size]
        x = train_ds.features[ids]
        yhat = store.soft_labels(ids)
        m_idx = meta_iter.next_batch()
        g_meta, g_train, _ = meta_gradient_direction(
            model, x, yhat, meta_ds.features[m_idx], meta_ds.noisy_labels[m_idx],
            cfg.alpha)
        grad_yhat = label_gradient_along(model, x, yhat, g_meta, cfg.alpha)
        store.apply_label_gradient(ids, grad_yhat, cfg.beta)
        probs, cache = model.forward(x)
        obj = classification_objective(probs, store.soft_labels(ids),
                                       cfg.entropy_weight)
        sgd_step(model, model.backward(cache, obj.grad_wrt_predictions), opt)
        loss_sum += obj.scalar * ids.size
        # mean over (meta sample, train sample) gradient dot products collapses
        # to the dot of the two batch-mean gradients by bilinearity
        align_sum += float(g_meta @ g_train)
        batches += 1
    return _epoch_metrics(epoch, loss_sum / train_ds.n,
                          align_sum / max(batches, 1), model, store, train_ds,
                          meta_ds, test_ds, opt.lr)


def train(train_ds: LabeledDataset, meta_ds: LabeledDataset, cfg: TrainConfig,
          test_ds: LabeledDataset | None = None, epoch_callback=None
          ) -> tuple[Mlp, SoftLabelStore, list[EpochMetrics]]:
    """Warm-up epochs of cross-entropy, then label-correction epochs.

    With warmup_epochs == total_epochs this *is* the cross-entropy baseline;
    the label store is created but never updated. test_ds only feeds metrics.
    epoch_callback(epoch, model, store, metrics) runs after every epoch.
    """
    cfg.validate()
    if meta_ds is train_ds:
        raise ValueError("meta set must be disjoint from the training set")
    if meta_ds.n == 0:
        raise ValueError("meta set is empty")
    if (meta_ds.dim, meta_ds.num_classes) != (train_ds.dim, train_ds.num_classes):
        raise ValueError(
            f"meta set has {meta_ds.dim} features and {meta_ds.num_classes} classes, "
            f"training set has {train_ds.dim} and {train_ds.num_classes}")
    root = Rng(cfg.seed)
    model = Mlp((train_ds.dim, *cfg.hidden_sizes, train_ds.num_classes),
                root.child(ROLE_INIT))
    store = SoftLabelStore.init_from_noisy(train_ds.noisy_labels,
                                           train_ds.num_classes, cfg.k_init)
    opt = SgdState(lr=cfg.lr_at(0), momentum=cfg.momentum,
                   weight_decay=cfg.weight_decay)
    history: list[EpochMetrics] = []
    for epoch in range(cfg.total_epochs):
        if epoch < cfg.warmup_epochs:
            m = warmup_epoch(model, train_ds, opt, cfg, epoch, store=store,
                             meta_ds=meta_ds, test_ds=test_ds)
        else:
            m = mslg_epoch(model, train_ds, store, opt, cfg, epoch, meta_ds,
                           test_ds)
        history.append(m)
        if epoch_callback is not None:
            epoch_callback(epoch, model, store, m)
    return model, store, history


# -- metrics CSV ------------------------------------------------------------------


def metrics_csv_header() -> str:
    return ",".join(METRICS_COLUMNS) + "\n"


def metrics_csv_row(m: EpochMetrics) -> str:
    vals = [str(int(m.epoch))] + [
        repr(float(v)) for v in (m.train_loss, m.meta_loss, m.test_accuracy,
                                 m.label_recovery_rate, m.mean_grad_alignment,
                                 m.lr)
    ]
    return ",".join(vals) + "\n"


def save_metrics_csv(path, history) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(metrics_csv_header())
        for m in history:
            fh.write(metrics_csv_row(m))
