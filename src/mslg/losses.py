"""Scalar losses and their analytic gradients.

Predictions and soft labels are (b, C) row-simplex matrices. Every scalar is
a batch mean and the returned gradients carry the same 1/b factor, so a batch
gradient step with learning rate lr moves by lr * mean-gradient.

Gradients are taken with respect to the *probabilities*, and every input is
checked to lie on the simplex. These functions are the reference form of
each loss: they serve the per-epoch meta loss and the noise probe, and a
caller that needs the gradient with respect to the logits pulls it back with
`linalg.softmax_backward`. The training loop instead uses the logit-space
kernels of `mslg.trainer`, which equal that pull-back and skip the checks.
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
