"""Joint soft-label and classifier estimation under label noise.

The package trains a small fully connected classifier together with one soft
label per training sample. Labels are pulled toward whatever distribution
makes a one-step look-ahead of the model fit a small clean meta set better,
which lets badly labeled samples recover their true class during training.
Synthetic noise injectors and a CLI for desk-scale experiments are included.
"""

from .datasets import (
    LabeledDataset,
    gen_blobs,
    inject_feature_dependent,
    inject_uniform,
    load_idx_images,
    split,
)
from .linalg import softmax, softmax_backward
from .model import Mlp, NumericalError, sgd_pass, sgd_step
from .presets import PRESETS
from .rng import Rng
from .soft_labels import SoftLabelStore
from .trainer import (
    EpochMetrics,
    RunState,
    TrainConfig,
    accuracy,
    epochs,
    label_gradient_along,
    meta_gradient_direction,
    mslg_epoch,
    recovery_rate,
    train,
    warmup_epoch,
)

__version__ = "0.1.0"

__all__ = [
    "LabeledDataset", "gen_blobs",
    "inject_feature_dependent", "inject_uniform", "load_idx_images", "split",
    "softmax", "softmax_backward",
    "Mlp", "NumericalError", "sgd_pass", "sgd_step",
    "PRESETS", "Rng", "SoftLabelStore",
    "EpochMetrics", "RunState", "TrainConfig", "accuracy", "epochs",
    "label_gradient_along", "meta_gradient_direction",
    "mslg_epoch", "recovery_rate", "train", "warmup_epoch",
    "__version__",
]
