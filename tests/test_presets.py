import dataclasses
import itertools
import re

import pytest

from mslg.presets import PRESETS
from mslg.trainer import ALPHA, MOMENTUM, TrainConfig


def test_cifar10_shared_hyperparameters():
    # TrainConfig's defaults are the paper's CIFAR-10 values (beta for up to
    # 40% uniform noise and for feature-dependent noise)
    cfg = TrainConfig()
    assert ALPHA == 0.5  # not a setting: every run's look-ahead rate
    assert cfg.beta == 4000.0
    assert cfg.k_init == 10.0
    assert MOMENTUM == 0.9  # not a setting: every run's SGD momentum
    assert cfg.weight_decay == 1e-4
    assert cfg.batch_size == 128
    assert cfg.lambda_schedule == ((0, 1e-2), (40, 1e-3), (80, 1e-4))
    assert cfg.warmup_epochs == 44
    assert cfg.total_epochs == 120


def test_every_preset_differs_from_the_defaults_and_the_others():
    # a preset equal to TrainConfig() or to another preset is a name for nothing
    configs = {"TrainConfig()": TrainConfig(), **PRESETS}
    for (a, cfg_a), (b, cfg_b) in itertools.combinations(configs.items(), 2):
        assert cfg_a != cfg_b, f"{a} equals {b}"


def test_desk_preset_keeps_warmup_fraction():
    cfg = PRESETS["blobs-desk"]
    frac = cfg.warmup_epochs / cfg.total_epochs
    assert abs(frac - 44 / 120) < 0.02


def test_a_preset_cannot_be_assigned_to():
    # the presets are shared by every caller, so none may change one for the rest
    with pytest.raises(dataclasses.FrozenInstanceError):
        PRESETS["blobs-desk"].beta = -999.0
    assert PRESETS["blobs-desk"].beta == 50.0


def test_a_config_derived_from_a_preset_is_checked():
    with pytest.raises(ValueError, match=re.escape("need 0 <= warmup (30) <= total (10)")):
        dataclasses.replace(PRESETS["blobs-desk"], total_epochs=10)
    assert dataclasses.replace(PRESETS["blobs-desk"], total_epochs=30).total_epochs == 30
