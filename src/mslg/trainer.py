"""Two-stage training loop for joint soft-label and classifier estimation.

Stage one is plain cross-entropy warm-up on the noisy labels. Stage two
alternates, per batch:

  1. a look-ahead step theta_hat = theta - ALPHA * grad KL(f||yhat) on the
     training batch, a plain gradient step on the flat parameter vector;
  2. a label update: the gradient of the meta cross-entropy (clean meta
     batch, evaluated at theta_hat) with respect to the batch's label
     logits, applied to the logits with rate beta;
  3. a committed optimizer step on KL(f||yhat_new) + entropy, with rate
     lambda from the schedule.

Each stage's epoch function advances one `RunState` (next epoch, model, SGD
velocity, label store) in place through `model.sgd_pass`, the one SGD loop:
per batch of the epoch's order it runs the forward, asks the stage's batch
loss for the loss and its gradient with respect to the logits, and commits
one `sgd_step` at the epoch's rates. The warm-up's batch loss is
cross-entropy on the noisy labels; stage two's does steps 1 and 2 and
returns the loss of step 3. Only stage two moves the labels, so the epoch
metrics recount label recovery only when the store's version has moved.

The label gradient in step 2 is the mixed second derivative of the training
loss contracted with the meta gradient. It is computed without any second
backward pass: the gradient of the training loss with respect to the label
logits is analytic, (yhat - f)/b, so its derivative along the meta gradient
in parameter space is the forward-mode tangent J_theta f . g_meta scaled by
-1/b. The tangent is exact and reuses the activations of the one forward pass
at theta, which also serves steps 1 and 3.

The hot path works in logit space: its loss kernels (`cce_logit_loss` and
`kl_logit_loss` of `mslg.losses`) return the gradient with respect to the
model's pre-softmax output z, which `Mlp.backward` takes directly. They skip
the simplex checks of the reference losses; the loop checks finiteness instead
(the forward, the soft labels of each batch, and every gradient before it is
applied).

Batch orders, meta batches and weight init each draw from a stream
Rng(seed, ROLE_*, ...) of the run seed, so equal configs give equal bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .datasets import LabeledDataset
from .losses import cce_logit_loss, cce_loss, kl_logit_loss
from .model import Mlp, NumericalError, sgd_pass
from .rng import ROLE_INIT, ROLE_META, ROLE_TRAIN, Rng
from .soft_labels import SoftLabelStore

__all__ = [
    "TrainConfig",
    "EpochMetrics",
    "RunState",
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
]


MOMENTUM = 0.9  # the paper's SGD momentum, in both stages; no preset changes it
ALPHA = 0.5     # the paper's look-ahead rate at every noise level; beta is the label rate


@dataclass(frozen=True)
class TrainConfig:
    """Checked when built, by a call or by `dataclasses.replace`: one that exists is valid."""
    # the defaults are the paper's CIFAR-10 hyperparameters; it lowers beta to
    # 2000 at 60% uniform noise and to 400 at 80%
    beta: float = 4000.0          # label learning rate
    lambda_schedule: tuple[tuple[int, float], ...] = ((0, 1e-2), (40, 1e-3), (80, 1e-4))
    k_init: float = 10.0          # label logit init scale, see SoftLabelStore.check_k
    batch_size: int = 128
    weight_decay: float = 1e-4
    warmup_epochs: int = 44
    total_epochs: int = 120
    entropy_weight: float = 1.0
    seed: int = 0
    hidden_sizes: tuple[int, ...] = (32, 32)

    def __post_init__(self) -> None:
        # NaN fails every comparison below, so finiteness is checked first
        values = [(f.name, getattr(self, f.name)) for f in fields(self)]
        values += [("lambda_schedule", lr) for _, lr in self.lambda_schedule]
        for name, value in values:
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.beta < 0:
            raise ValueError(f"need beta >= 0, got {self.beta}")
        if self.k_init <= 0:  # the initial label's argmax is the noisy label only for k > 0
            raise ValueError(f"need k_init > 0, got {self.k_init}")
        SoftLabelStore.check_k(self.k_init, "k_init")  # and only for a k it accepts
        if self.batch_size < 1 or self.total_epochs < 0:
            raise ValueError(f"need batch_size >= 1 and total_epochs >= 0, "
                             f"got {self.batch_size}, {self.total_epochs}")
        # warmup == total is the plain cross-entropy baseline
        if not (0 <= self.warmup_epochs <= self.total_epochs):
            raise ValueError(
                f"need 0 <= warmup ({self.warmup_epochs}) <= total ({self.total_epochs})"
            )
        if not self.lambda_schedule:
            raise ValueError("lambda_schedule must have at least one entry")
        starts = [e for e, _ in self.lambda_schedule]
        if starts[0] != 0:  # else no rate would hold before the first start
            raise ValueError(f"lambda_schedule must start at epoch 0, got {starts[0]}")
        if starts != sorted(starts) or len(set(starts)) != len(starts):
            raise ValueError(f"lambda_schedule epochs must strictly increase: {starts}")
        if any(lr < 0 for _, lr in self.lambda_schedule):
            raise ValueError(f"lambda_schedule rates must be >= 0: {self.lambda_schedule}")
        if self.weight_decay < 0:
            raise ValueError(f"need weight_decay >= 0, got {self.weight_decay}")
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError(f"hidden_sizes must all be >= 1, got {self.hidden_sizes}")

    def lr_at(self, epoch: int) -> float:
        return [lr for start, lr in self.lambda_schedule if start <= epoch][-1]


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    meta_loss: float
    test_accuracy: float
    label_recovery_rate: float
    mean_grad_alignment: float
    lr: float


METRICS_COLUMNS = tuple(f.name for f in fields(EpochMetrics))


@dataclass
class RunState:
    """What one epoch hands the next; the epoch functions advance it in place."""
    epoch: int                 # the next epoch to run
    model: Mlp
    velocity: np.ndarray       # the SGD momentum buffer, in parameter order
    store: SoftLabelStore
    recovery: tuple[int, float] = (-1, 0.0)  # (store.version, recovery rate) last counted

    @classmethod
    def initial(cls, cfg: TrainConfig, train_ds: LabeledDataset) -> "RunState":
        model = Mlp((train_ds.dim, *cfg.hidden_sizes, train_ds.num_classes),
                    Rng(cfg.seed, ROLE_INIT))
        return cls(0, model, np.zeros(model.num_params), SoftLabelStore.init_from_noisy(
            train_ds.noisy_labels, train_ds.num_classes, cfg.k_init))


# -- evaluation helpers (these may read true labels) --------------------------


def accuracy(model: Mlp, ds: LabeledDataset) -> float:
    preds = model.predict(ds.features).argmax(axis=1)
    return float(np.mean(preds == ds.true_labels))


def recovery_rate(store: SoftLabelStore, ds: LabeledDataset) -> float:
    """Fraction of corrupted samples whose soft-label argmax equals the hidden
    true label; zero after `init_from_noisy`, whose argmax is the noisy label."""
    mask = ds.corrupted_mask()
    if not mask.any():
        return 0.0
    args = store.soft_labels().argmax(axis=1)
    return float(np.mean(args[mask] == ds.true_labels[mask]))


# -- meta-gradient machinery ----------------------------------------------------


def epoch_order(seed: int, epoch: int, n: int) -> np.ndarray:
    """Training-batch permutation for an epoch; a pure function of (seed, epoch)."""
    return Rng(seed, ROLE_TRAIN, epoch).permutation(n)


def training_loss_grad(model: Mlp, cache: dict, yhat) -> np.ndarray:
    """Flat parameter gradient of the batch KL(f||yhat), from a forward cache."""
    return model.backward(cache, kl_logit_loss(cache["probs"], yhat)[1])


def meta_gradient_direction(model: Mlp, cache: dict, yhat, meta_x, meta_y,
                            alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Meta cross-entropy gradient at the looked-ahead parameters.

    `cache` is the forward of the training batch at theta. Returns (g_meta,
    g_train): the flat meta gradient taken at theta_hat = theta - alpha *
    g_train, and the flat training-batch gradient at theta.
    """
    g_train = training_loss_grad(model, cache, yhat)
    if not np.isfinite(g_train).all():
        raise NumericalError("meta gradient: non-finite training gradient")
    theta_hat = model.perturbed(g_train, -alpha)
    probs_m, cache_m = theta_hat.forward(meta_x)
    g_meta = theta_hat.backward(cache_m, cce_logit_loss(probs_m, meta_y)[1])
    if not np.isfinite(g_meta).all():
        raise NumericalError("meta gradient: non-finite meta gradient")
    return g_meta, g_train


def label_gradient_along(model: Mlp, cache: dict, direction: np.ndarray,
                         alpha: float) -> np.ndarray:
    """-alpha * d/du of (training gradient . direction), exactly, for the
    batch's label logits u.

    The label-logit gradient of KL(f||softmax(u)) is (yhat - f)/b, so its
    derivative along `direction` in parameter space is the forward-mode
    tangent of f over `cache` (the forward at theta) scaled by -1/b.
    """
    t = model.tangent(cache, direction)
    out = alpha / t.shape[0] * t
    if not np.isfinite(out).all():
        raise NumericalError("label gradient: non-finite tangent")
    return out


def _meta_batches(m: int, seed: int, epoch: int, batches: int,
                  batch_size: int) -> np.ndarray:
    """Meta-set indices of every batch in an epoch, shape (batches, batch_size).

    The epoch's meta stream is one permutation of 0..m-1 per wrap, keyed by
    (run seed, epoch, wrap), laid end to end; row k is the meta batch of
    training batch k. Every row is full, the last one too. A meta set smaller
    than a batch repeats samples within a batch: each aligned m-window of the
    stream is still one permutation.
    """
    wraps = -(-batches * batch_size // m)
    stream = np.concatenate([Rng(seed, ROLE_META, epoch, wrap).permutation(m)
                             for wrap in range(wraps)])
    return stream[:batches * batch_size].reshape(batches, batch_size)


# -- epochs ---------------------------------------------------------------------


def _epoch_metrics(state: RunState, cfg: TrainConfig, train_loss: float, align: float,
                   train_ds: LabeledDataset, meta_ds: LabeledDataset,
                   test_ds: LabeledDataset) -> EpochMetrics:
    epoch = state.epoch - 1  # the epoch just trained
    meta_loss = cce_loss(state.model.predict(meta_ds.features), meta_ds.noisy_labels).scalar
    if state.recovery[0] != state.store.version:  # else no label moved since the last count
        state.recovery = (state.store.version, recovery_rate(state.store, train_ds))
    return EpochMetrics(epoch, train_loss, meta_loss, accuracy(state.model, test_ds),
                        state.recovery[1], align, cfg.lr_at(epoch))


def warmup_epoch(state: RunState, cfg: TrainConfig, train_ds: LabeledDataset,
                 meta_ds: LabeledDataset, test_ds: LabeledDataset) -> EpochMetrics:
    """One pass of plain cross-entropy SGD on the noisy hard labels."""
    rates = (cfg.lr_at(state.epoch), MOMENTUM, cfg.weight_decay)
    order = epoch_order(cfg.seed, state.epoch, train_ds.n)
    noisy = train_ds.noisy_labels
    train_loss = sgd_pass(state.model, state.velocity, rates, train_ds.features, order,
                          cfg.batch_size, lambda ids, probs, _: cce_logit_loss(probs, noisy[ids]))
    state.epoch += 1
    return _epoch_metrics(state, cfg, train_loss, 0.0, train_ds, meta_ds, test_ds)


def mslg_epoch(state: RunState, cfg: TrainConfig, train_ds: LabeledDataset,
               meta_ds: LabeledDataset, test_ds: LabeledDataset) -> EpochMetrics:
    """One label-correction epoch: per batch, update the soft labels from the
    meta gradient, then take a committed step on the corrected labels."""
    rates = (cfg.lr_at(state.epoch), MOMENTUM, cfg.weight_decay)
    order = epoch_order(cfg.seed, state.epoch, train_ds.n)
    batches = -(-train_ds.n // cfg.batch_size)
    meta_rows = iter(_meta_batches(meta_ds.n, cfg.seed, state.epoch, batches, cfg.batch_size))
    align_sum = 0.0

    # theta only moves at the committed step, so the pass's one forward serves
    # the look-ahead gradient, the label tangent and the committed step
    def batch_loss(ids, probs, cache):
        nonlocal align_sum
        yhat = state.store.soft_labels(ids)
        if not np.isfinite(yhat).all():
            raise NumericalError("non-finite soft label in the training batch")
        m_idx = next(meta_rows)
        g_meta, g_train = meta_gradient_direction(
            state.model, cache, yhat, meta_ds.features[m_idx],
            meta_ds.noisy_labels[m_idx], ALPHA)
        state.store.apply_label_gradient(
            ids, label_gradient_along(state.model, cache, g_meta, ALPHA), cfg.beta)
        # mean over (meta sample, train sample) gradient dot products collapses
        # to the dot of the two batch-mean gradients by bilinearity; einsum
        # sums it without BLAS, whose threads would split it and move its bits
        align_sum += float(np.einsum("i,i->", g_meta, g_train))
        return kl_logit_loss(probs, state.store.soft_labels(ids), cfg.entropy_weight)

    train_loss = sgd_pass(state.model, state.velocity, rates, train_ds.features, order,
                          cfg.batch_size, batch_loss)
    state.epoch += 1
    return _epoch_metrics(state, cfg, train_loss, align_sum / batches,
                          train_ds, meta_ds, test_ds)


def train(train_ds: LabeledDataset, meta_ds: LabeledDataset, cfg: TrainConfig,
          test_ds: LabeledDataset, epoch_callback=None
          ) -> tuple[Mlp, SoftLabelStore, list[EpochMetrics]]:
    """Warm-up epochs of cross-entropy, then label-correction epochs.

    With warmup_epochs == total_epochs this *is* the cross-entropy baseline;
    the label store is created but never updated. test_ds is scored every
    epoch for the metrics' test_accuracy and is never trained on.
    epoch_callback(state, metrics) runs after every epoch, on the advanced state.
    """
    if meta_ds is train_ds:
        raise ValueError("meta set must be disjoint from the training set")
    for name, ds in (("training", train_ds), ("meta", meta_ds), ("test", test_ds)):
        if ds.n == 0:
            raise ValueError(f"{name} set is empty")
        if (ds.dim, ds.num_classes) != (train_ds.dim, train_ds.num_classes):
            raise ValueError(
                f"{name} set has {ds.dim} features and {ds.num_classes} classes, "
                f"training set has {train_ds.dim} and {train_ds.num_classes}")
    meta_y = meta_ds.noisy_labels
    bad = (meta_y < 0) | (meta_y >= meta_ds.num_classes)
    if bad.any():
        raise ValueError(f"meta label {meta_y[bad.argmax()]} out of range "
                         f"[0, {meta_ds.num_classes})")
    state = RunState.initial(cfg, train_ds)
    history: list[EpochMetrics] = []
    while state.epoch < cfg.total_epochs:
        run_epoch = warmup_epoch if state.epoch < cfg.warmup_epochs else mslg_epoch
        history.append(run_epoch(state, cfg, train_ds, meta_ds, test_ds))
        if epoch_callback is not None:
            epoch_callback(state, history[-1])
    return state.model, state.store, history


# -- metrics CSV ------------------------------------------------------------------


def metrics_csv_header() -> str:
    return ",".join(METRICS_COLUMNS) + "\n"


def metrics_csv_row(m: EpochMetrics) -> str:
    epoch, *rest = (getattr(m, name) for name in METRICS_COLUMNS)
    return ",".join([str(int(epoch))] + [repr(float(v)) for v in rest]) + "\n"
