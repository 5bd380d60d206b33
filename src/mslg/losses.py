"""Scalar losses, their analytic gradients, and the logit-space kernels
that every cross-entropy or KL SGD step takes.

Predictions and soft labels are (b, C) row-simplex matrices. Every scalar is
a batch mean and the returned gradients carry the same 1/b factor, so a batch
gradient step with learning rate lr moves by lr * mean-gradient.

The reference losses (`cce_loss`, `kl_loss_v2`, ...) take gradients with
respect to the *probabilities* and check every input lies on the simplex.
They serve the per-epoch meta loss and the checks that the kernels equal
their pull-back through `linalg.softmax_backward`; the package does not
export them, so they are imported from `mslg.losses`.

The kernels `cce_logit_loss` and `kl_logit_loss` return the gradient with
respect to the pre-softmax output z, which `Mlp.backward` takes directly,
and skip the checks; their callers (the training loop and the noise probe of
`mslg.datasets`) check finiteness instead. The CE gradient (f - onehot)/b is
defined once, in `cce_logit_grad`, which the probe calls alone because it
never reads the scalar; it is exact for every f, where the reference
gradient floors 1/f_y.

Probabilities are floored at PROB_FLOOR inside logs and divisions only;
inputs are never modified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix

__all__ = [
    "PROB_FLOOR",
    "LossValue",
    "kl_loss_v1",
    "kl_loss_v2",
    "cce_loss",
    "entropy_loss",
    "classification_objective",
    "cce_logit_grad",
    "cce_logit_loss",
    "kl_logit_loss",
]

PROB_FLOOR = 1e-12

_SIMPLEX_TOL = 1e-6


@dataclass
class LossValue:
    scalar: float
    grad_wrt_predictions: np.ndarray | None = None


def _check_simplex(m: np.ndarray, name: str) -> None:
    sums = m.sum(axis=1)
    off = np.abs(sums - 1.0)
    if np.any(off > _SIMPLEX_TOL) or not np.all(np.isfinite(m)):
        worst = int(np.argmax(off))
        raise ValueError(
            f"{name}: row {worst} is not on the simplex (sum {sums[worst]!r})"
        )


def kl_loss_v2(f, yhat) -> LossValue:
    """KL(predictions || soft labels), batch mean.

    scalar = (1/b) sum_i sum_j f_ij log(f_ij / yhat_ij)
    d/df   = (1 + log(f/yhat)) / b
    """
    f = as_matrix(f, "predictions")
    yhat = as_matrix(yhat, "soft labels")
    if f.shape != yhat.shape:
        raise ValueError(f"kl_loss_v2: shape mismatch {f.shape} vs {yhat.shape}")
    _check_simplex(f, "predictions")
    _check_simplex(yhat, "soft labels")
    b = f.shape[0]
    log_ratio = np.log(np.maximum(f, PROB_FLOOR)) - np.log(np.maximum(yhat, PROB_FLOOR))
    scalar = float(np.sum(f * log_ratio) / b)
    grad_pred = (1.0 + log_ratio) / b
    return LossValue(scalar, grad_pred)


def kl_loss_v1(f, yhat) -> LossValue:
    """KL(soft labels || predictions), batch mean. Acceptance criterion 8
    compares its gradient with `kl_loss_v2`'s.

    scalar = (1/b) sum_i sum_j yhat_ij log(yhat_ij / f_ij)
    d/df   = -(yhat/f) / b
    """
    f = as_matrix(f, "predictions")
    yhat = as_matrix(yhat, "soft labels")
    if f.shape != yhat.shape:
        raise ValueError(f"kl_loss_v1: shape mismatch {f.shape} vs {yhat.shape}")
    _check_simplex(f, "predictions")
    _check_simplex(yhat, "soft labels")
    b = f.shape[0]
    log_ratio = np.log(np.maximum(yhat, PROB_FLOOR)) - np.log(np.maximum(f, PROB_FLOOR))
    scalar = float(np.sum(yhat * log_ratio) / b)
    grad_pred = -(yhat / np.maximum(f, PROB_FLOOR)) / b
    return LossValue(scalar, grad_pred)


def cce_loss(f, y) -> LossValue:
    """Categorical cross entropy against hard integer labels, batch mean."""
    f = as_matrix(f, "predictions")
    _check_simplex(f, "predictions")
    y = np.asarray(y, dtype=np.int64).ravel()
    b, c = f.shape
    if y.shape[0] != b:
        raise ValueError(f"cce_loss: {b} prediction rows but {y.shape[0]} labels")
    if np.any(y < 0) or np.any(y >= c):
        bad = int(y[np.argmax((y < 0) | (y >= c))])
        raise ValueError(f"cce_loss: label {bad} out of range [0, {c})")
    picked = np.maximum(f[np.arange(b), y], PROB_FLOOR)
    scalar = float(-np.mean(np.log(picked)))
    grad = np.zeros_like(f)
    grad[np.arange(b), y] = -1.0 / (b * picked)
    return LossValue(scalar, grad)


def entropy_loss(f) -> LossValue:
    """Entropy of the predictions (0*log0 := 0); pushes rows toward one-hot.

    scalar = -(1/b) sum_i sum_j f_ij log f_ij
    d/df   = -(log f + 1) / b
    """
    f = as_matrix(f, "predictions")
    _check_simplex(f, "predictions")
    b = f.shape[0]
    logf = np.log(np.maximum(f, PROB_FLOOR))
    scalar = float(-np.sum(f * logf) / b)
    grad = -(logf + 1.0) / b
    return LossValue(scalar, grad)


def classification_objective(f, yhat, entropy_weight: float = 1.0) -> LossValue:
    """Training objective for the label-corrected phase: KL(f||yhat) plus a
    weighted entropy term. Gradients are the matching sums."""
    kl = kl_loss_v2(f, yhat)
    if entropy_weight == 0.0:
        return kl
    ent = entropy_loss(f)
    return LossValue(
        kl.scalar + entropy_weight * ent.scalar,
        kl.grad_wrt_predictions + entropy_weight * ent.grad_wrt_predictions,
    )


# -- logit-space kernels --------------------------------------------------------


def cce_logit_grad(probs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """dL/dz = (f - onehot(y)) / b of the batch-mean cross entropy against
    hard labels, for the pre-softmax output z with softmax f. Labels must
    already be in range."""
    b = probs.shape[0]
    dz = probs.copy()
    dz[np.arange(b), y] -= 1.0
    dz /= b
    return dz


def cce_logit_loss(probs: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Cross entropy against hard labels, batch mean: (scalar, dL/dz), the
    gradient of `cce_logit_grad`."""
    b = probs.shape[0]
    picked = probs[np.arange(b), y]
    return float(-(np.log(np.maximum(picked, PROB_FLOOR)).sum() / b)), cce_logit_grad(probs, y)


def kl_logit_loss(probs: np.ndarray, yhat: np.ndarray,
                  entropy_weight: float = 0.0) -> tuple[float, np.ndarray]:
    """KL(f||yhat) plus entropy_weight * entropy(f), batch mean: (scalar, dL/dz).

    With r = log f - log yhat - entropy_weight * log f (logs floored at
    PROB_FLOOR), scalar = sum(f * r) / b and dL/dz = f * (r - <f, r>) / b,
    row-wise: the KL part f * (r_kl - <f, r_kl>) / b and the entropy part
    -f * (log f - <f, log f>) / b in one pass.
    """
    logf = np.log(np.maximum(probs, PROB_FLOOR))
    r = logf - np.log(np.maximum(yhat, PROB_FLOOR))
    if entropy_weight != 0.0:
        r -= entropy_weight * logf
    fr = probs * r
    b = probs.shape[0]
    dz = probs * (r - fr.sum(axis=1, keepdims=True))
    dz /= b
    return float(fr.sum() / b), dz
