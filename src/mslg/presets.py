"""Named training-configuration presets: desk-scale configurations tuned on
the synthetic generators in this package. `TrainConfig()` itself holds the
published CIFAR-10 hyperparameters, so no preset repeats them. SGD momentum and
the look-ahead rate are the paper's constants, `trainer.MOMENTUM` and `ALPHA`.
"""

from __future__ import annotations

from dataclasses import replace

from .trainer import TrainConfig

__all__ = ["PRESETS"]

# 80 epochs with the paper's ~37% warm-up fraction and the default
# (32, 32) hidden layers. beta, K, weight decay and the entropy weight
# are recalibrated for the small-MLP gradient scale: a warm-up that saturates
# its predictions kills the label-gradient signal, so the full-scale values
# (beta in the thousands, K=10, wd=1e-4) give way to ones that keep
# predictions responsive while labels move. Pinned by seeded runs on blobs
# with 40-60% feature-dependent noise; see the acceptance suite.
_BLOBS_DESK = TrainConfig(
    beta=50.0,
    lambda_schedule=((0, 2e-2), (30, 5e-3), (60, 1e-3)),
    k_init=2.0,
    batch_size=64,
    weight_decay=5e-3,
    warmup_epochs=30,
    total_epochs=80,
    entropy_weight=0.2,
)

PRESETS: dict[str, TrainConfig] = {
    "blobs-desk": _BLOBS_DESK,
    "blobs-smoke": replace(_BLOBS_DESK, total_epochs=10, warmup_epochs=4,
                           lambda_schedule=((0, 2e-2), (4, 5e-3), (8, 1e-3))),
}
