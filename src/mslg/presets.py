"""Named training-configuration presets.

The cifar10-* presets carry the published hyperparameters for that benchmark
(three learning rates, K, momentum, weight decay, schedule, warm-up split).
They assume the full-scale dataset; the blobs-* presets are desk-scale
configurations with the same warm-up fraction, tuned on the synthetic
generators in this package.
"""

from __future__ import annotations

from dataclasses import replace

from .trainer import TrainConfig

__all__ = ["PRESETS", "resolve_preset", "preset_names"]

# TrainConfig's defaults are the published CIFAR-10 hyperparameters
_CIFAR10_BASE = TrainConfig()

# Desk-scale: 80 epochs with the same ~37% warm-up fraction and schedule
# breakpoints. beta, K, weight decay, and the entropy weight are recalibrated
# for the small-MLP gradient scale: a warm-up that saturates its predictions
# kills the label-gradient signal, so this preset trades the full-scale
# values (beta in the thousands, K=10, wd=1e-4) for ones that keep
# predictions responsive while labels move. Pinned by seeded runs on blobs
# with 40-60% feature-dependent noise; see the acceptance suite.
_BLOBS_DESK = TrainConfig(
    alpha=0.5,
    beta=50.0,
    lambda_schedule=((0, 2e-2), (30, 5e-3), (60, 1e-3)),
    k_init=2.0,
    batch_size=64,
    momentum=0.9,
    weight_decay=5e-3,
    warmup_epochs=30,
    total_epochs=80,
    entropy_weight=0.2,
    hidden_sizes=(32, 32),
)

PRESETS: dict[str, TrainConfig] = {
    "cifar10-uniform-20": replace(_CIFAR10_BASE, beta=4000.0),
    "cifar10-uniform-40": replace(_CIFAR10_BASE, beta=4000.0),
    "cifar10-uniform-60": replace(_CIFAR10_BASE, beta=2000.0),
    "cifar10-uniform-80": replace(_CIFAR10_BASE, beta=400.0),
    "cifar10-featdep": replace(_CIFAR10_BASE, beta=4000.0),
    "cifar10-featdep-20": replace(_CIFAR10_BASE, beta=4000.0),
    "cifar10-featdep-40": replace(_CIFAR10_BASE, beta=4000.0),
    "cifar10-featdep-60": replace(_CIFAR10_BASE, beta=4000.0),
    "cifar10-featdep-80": replace(_CIFAR10_BASE, beta=4000.0),
    "blobs-desk": _BLOBS_DESK,
    "blobs-smoke": replace(_BLOBS_DESK, total_epochs=10, warmup_epochs=4,
                           lambda_schedule=((0, 2e-2), (4, 5e-3), (8, 1e-3))),
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def resolve_preset(name: str) -> TrainConfig:
    """A fresh TrainConfig copy for the named preset."""
    try:
        return replace(PRESETS[name])
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; choose from {', '.join(preset_names())}"
        ) from None
