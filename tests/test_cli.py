import argparse
import dataclasses
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mslg.cli
from mslg.cli import (EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, build_eval_report,
                      build_parser, main)
from mslg.datasets import LabeledDataset, load_dataset_csv, split
from mslg.model import Mlp
from mslg.rng import Rng
from mslg.soft_labels import SoftLabelStore
from mslg.trainer import TrainConfig, accuracy, epoch_order

from helpers import (WIDE_EVAL_PEAK, disk_fills_mid_write, idx_images_bytes, idx_labels_bytes,
                     traced_peak, wide_eval_split)


def run_cli(*argv):
    return main([str(a) for a in argv])


GEN_SMALL = ("gen", "--blobs", "n=240", "c=3", "d=2", "sep=6",
             "--noise", "uniform:0.3", "--meta", "0.05", "--test", "0.2",
             "--seed", "11")
TRAIN_FAST = ("--preset", "blobs-smoke", "--batch-size", "32",
              "--hidden", "16", "--total-epochs", "6", "--warmup-epochs", "2",
              "--lambda-schedule", "0:0.02,4:0.005")


# -- gen -----------------------------------------------------------------------------


def test_gen_writes_dataset_and_manifest(tmp_path):
    out = tmp_path / "data"
    assert run_cli(*GEN_SMALL, "--out", out) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 11
    assert manifest["source"] == {"generator": "blobs", "n": 240, "c": 3,
                                  "d": 2, "separation": 6.0}
    assert manifest["noise"] == {"kind": "uniform", "ratio": 0.3}
    assert manifest["sizes"] == {"train": 180, "meta": 12, "test": 48}
    assert manifest["corrupted"] == round(0.3 * 180)
    splits = load_dataset_csv(out / "dataset.csv", manifest["num_classes"])
    assert set(splits) == {"train", "meta", "test"}


def test_gen_zero_noise_labels_match(tmp_path):
    out = tmp_path / "data"
    assert run_cli("gen", "--blobs", "n=100", "c=3", "d=2", "sep=5",
                   "--noise", "none", "--meta", "0.1", "--test", "0.1",
                   "--seed", "3", "--out", out) == EXIT_OK
    splits = load_dataset_csv(out / "dataset.csv")
    for ds in splits.values():
        assert np.array_equal(ds.noisy_labels, ds.true_labels)


def test_gen_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli(*GEN_SMALL, "--out", a)
    run_cli(*GEN_SMALL, "--out", b)
    assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()


def test_gen_of_a_size_no_memory_holds_is_config_error(tmp_path, capsys):
    # 10**15 int64 labels are 7.11 PiB, beyond any address space, so the
    # allocation fails at once; never try a size whose allocation might succeed
    out = tmp_path / "D"
    assert run_cli("gen", "--blobs", "n=1000000000000000", "c=4", "d=2",
                   "--out", out) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: Unable to allocate 7.11 PiB")
    assert not out.exists()


def test_gen_requires_source(tmp_path):
    out = tmp_path / "x"
    assert run_cli("gen", "--out", out) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("flag,token,accepted", [
    ("--blobs", "classes=10", "n c d sep"),
    ("--blobs", "separation=5", "n c d sep"),
])
def test_gen_unknown_source_key_is_config_error(tmp_path, capsys, flag, token, accepted):
    out = tmp_path / "data"
    assert run_cli("gen", flag, "n=300", token, "--out", out) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert repr(token.split("=")[0]) in err and accepted in err
    assert not (out / "dataset.csv").exists()


def test_gen_repeated_source_key_is_config_error(tmp_path, capsys):
    out = tmp_path / "data"
    assert run_cli("gen", "--blobs", "n=300", "c=3", "n=200", "--out", out) == EXIT_CONFIG
    assert "key 'n' given more than once" in capsys.readouterr().err
    assert not (out / "dataset.csv").exists()


@pytest.mark.parametrize("n,rows,cols", [(0, 2, 2), (40, 0, 2), (40, 2, 0)])
def test_gen_idx_without_pixels_is_config_error(tmp_path, capsys, n, rows, cols):
    # with no pixel per image there are no features for train and eval to read
    images, labels, out = tmp_path / "i.idx", tmp_path / "l.idx", tmp_path / "data"
    images.write_bytes(struct.pack(">IIII", 0x00000803, n, rows, cols)
                       + bytes(n * rows * cols))
    labels.write_bytes(idx_labels_bytes([c % 2 for c in range(n)]))
    assert run_cli("gen", "--idx-images", images, "--idx-labels", labels,
                   "--out", out) == EXIT_CONFIG
    assert f"{images}: no pixels: {n} images of {rows}x{cols}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sources,message", [
    pytest.param(("--blobs", "n=150", "--idx-labels", "l.idx"),
                 "two sources: --blobs and --idx-images", id="blobs+idx-labels"),
    pytest.param(("--blobs", "n=150", "--idx-images", "i.idx", "--idx-labels", "l.idx"),
                 "two sources: --blobs and --idx-images/--idx-labels; choose one",
                 id="blobs+idx-pair"),
    pytest.param(("--idx-labels", "l.idx"), "--idx-images requires --idx-labels, and vice versa",
                 id="idx-labels-alone"),
])
@pytest.mark.parametrize("command", [
    ("gen",),
    ("sweep", "--axis", "beta", "--values", "50", "--seeds", "0", *TRAIN_FAST),
], ids=["gen", "sweep"])
def test_source_flags_give_one_source(tmp_path, capsys, command, sources, message):
    # a second source is not dropped without a word, leaving a manifest that
    # records only the one used; half an IDX pair names the other half
    out = tmp_path / "out"
    argv = [*command, *(str(tmp_path / a) if a.endswith(".idx") else a for a in sources)]
    assert run_cli(*argv, "--out", out) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


# a value of every gen option but --out, and of every --blobs key,
# other than its default; the IDX files are written beside the run
_GEN_VALUES = {
    "--blobs": {"n": "90", "c": "3", "d": "3", "sep": "4"},
    "--idx-images": "other_images.idx", "--idx-labels": "other_labels.idx",
    "--noise": "feature_dependent:0.2", "--meta": "0.1", "--test": "0.3", "--seed": "4",
}


def _subcommands():
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _gen_options():
    return [a.option_strings[-1] for a in _subcommands()["gen"]._actions
            if a.option_strings and a.dest not in ("help", "out")]


@pytest.mark.parametrize("option", _gen_options())
def test_every_gen_option_changes_the_manifest(tmp_path, option):
    # so a data manifest determines its data: an option that it does not
    # record would give two datasets one manifest
    for prefix in ("", "other_"):
        (tmp_path / f"{prefix}images.idx").write_bytes(
            idx_images_bytes([[[0, 200], [30, 90]]] * 40))
        (tmp_path / f"{prefix}labels.idx").write_bytes(idx_labels_bytes([0, 1] * 20))

    def manifest(*argv):
        assert run_cli("gen", *argv, "--out", tmp_path / "out") == EXIT_OK
        return (tmp_path / "out" / "manifest.json").read_bytes()

    if option == "--blobs":
        assert set(_GEN_VALUES[option]) == set(mslg.cli._BLOBS_KEYS)
        base = manifest(option, "n=120")  # n in every run keeps them small
        for key, value in _GEN_VALUES[option].items():
            tokens = {"n": "120", key: value}
            assert manifest(option, *(f"{k}={v}" for k, v in tokens.items())) != base, key
    elif option.startswith("--idx"):
        base = ["--idx-images", tmp_path / "images.idx", "--idx-labels", tmp_path / "labels.idx"]
        changed = base.copy()
        changed[changed.index(option) + 1] = tmp_path / _GEN_VALUES[option]
        assert manifest(*changed) != manifest(*base)
    else:
        base = manifest("--blobs", "n=120")
        assert manifest("--blobs", "n=120", option, _GEN_VALUES[option]) != base


def test_output_root_env(tmp_path, monkeypatch):
    # an MSLG_OUTPUT_ROOT left in the environment moves nothing: every path
    # is used as given, relative to the working directory
    root, work = tmp_path / "root", tmp_path / "work"
    work.mkdir()
    monkeypatch.setenv("MSLG_OUTPUT_ROOT", str(root))
    monkeypatch.chdir(work)
    assert run_cli(*GEN_SMALL, "--out", "nested/data") == EXIT_OK
    assert run_cli("train", "--data", "nested/data", "--out", "run", *TRAIN_FAST) == EXIT_OK
    assert run_cli("eval", "--data", "nested/data", "--checkpoint", "run/model.ckpt",
                   "--labels", "run/labels.slbl", "--out", "reports/r.json") == EXIT_OK
    assert run_cli("export-labels", "--labels", "run/labels.slbl",
                   "--out", "labels.csv") == EXIT_OK
    for name in ("nested/data/dataset.csv", "run/model.ckpt", "run/labels.slbl",
                 "reports/r.json", "labels.csv"):
        assert (work / name).is_file(), name
    assert not root.exists()
    assert json.loads((work / "run" / "manifest.json").read_text())["data"] == "nested/data"
    assert "label_recovery_rate" in json.loads((work / "reports" / "r.json").read_text())


def test_sweep_under_relative_output_root(tmp_path, monkeypatch):
    # a relative MSLG_OUTPUT_ROOT moves nothing either: the sweep and its
    # cells write under the working directory
    monkeypatch.setenv("MSLG_OUTPUT_ROOT", "outs")
    monkeypatch.chdir(tmp_path)
    assert run_cli("sweep", "--axis", "beta", "--values", "40", "--seeds", "0",
                   "--blobs", "n=150", "c=3", "d=2", "sep=6", "--noise", "uniform:0.2",
                   "--meta", "0.06", "--test", "0.2", *TRAIN_FAST,
                   "--total-epochs", "2", "--out", "sw") == EXIT_OK
    rows = (tmp_path / "sw" / "runs.csv").read_text().splitlines()
    assert rows[1].split(",")[3] == "ok"
    assert not (tmp_path / "outs").exists()


# -- train ----------------------------------------------------------------------------


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "d"
    assert run_cli(*GEN_SMALL, "--out", out) == EXIT_OK
    return out


def _model_and_labels(directory, data):
    """An untrained 2-3 model.ckpt and the initial labels.slbl of `data`'s
    train split, written in `directory`."""
    ckpt, snap = directory / "model.ckpt", directory / "labels.slbl"
    Mlp((2, 3)).save(ckpt)
    train = load_dataset_csv(data / "dataset.csv", 3)["train"]
    SoftLabelStore.init_from_noisy(train.noisy_labels, 3, 10.0).save(snap)
    return ckpt, snap


def _reading(command, data, ckpt, snap):
    """The argv of `eval` or `export-labels` reading these inputs, without --out."""
    return (("eval", "--data", data, "--checkpoint", ckpt, "--labels", snap)
            if command == "eval" else ("export-labels", "--labels", snap))


# every file of a finished `train` run directory
_RUN_DIR = {"manifest.json", "metrics.csv", "model.ckpt", "labels.slbl",
            "last_good.ckpt", "last_good.slbl"}


def test_train_writes_all_artifacts(tmp_path, data_dir):
    out = tmp_path / "run"
    assert run_cli("train", "--data", data_dir, "--out", out,
                   "--method", "mslg", *TRAIN_FAST) == EXIT_OK
    # a snapshot's CSV is `export-labels` output
    assert {p.name for p in out.iterdir()} == _RUN_DIR
    lines = (out / "metrics.csv").read_text().strip().splitlines()
    assert lines[0].startswith("epoch,train_loss,meta_loss")
    assert len(lines) == 7  # header + 6 epochs
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["method"] == "mslg"
    assert manifest["config"]["total_epochs"] == 6


def test_train_ce_equals_mslg_with_warmup_total(tmp_path, data_dir):
    ce = tmp_path / "ce"
    red = tmp_path / "red"
    assert run_cli("train", "--data", data_dir, "--out", ce, "--method", "ce",
                   *TRAIN_FAST) == EXIT_OK
    assert run_cli("train", "--data", data_dir, "--out", red, "--method", "mslg",
                   *TRAIN_FAST, "--warmup-epochs", "6") == EXIT_OK
    assert (ce / "metrics.csv").read_bytes() == (red / "metrics.csv").read_bytes()
    assert (ce / "model.ckpt").read_bytes() == (red / "model.ckpt").read_bytes()


def test_train_same_seed_byte_identical_metrics(tmp_path, data_dir):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("train", "--data", data_dir, "--out", out,
                       "--method", "mslg", *TRAIN_FAST, "--seed", "5") == EXIT_OK
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()


def test_train_preset_resolution_paper_values(tmp_path, data_dir):
    # run almost nothing: the flags win over the defaults and over a preset
    short = ("--total-epochs", "2", "--warmup-epochs", "1", "--batch-size", "64",
             "--lambda-schedule", "0:0.01", "--hidden", "8")
    out = tmp_path / "run"
    assert run_cli("train", "--data", data_dir, "--out", out, "--method", "mslg",
                   *short) == EXIT_OK
    cfg = json.loads((out / "manifest.json").read_text())["config"]
    # with no --preset, the paper's CIFAR-10 values
    assert cfg["beta"] == 4000.0
    assert cfg["k_init"] == 10.0
    assert "momentum" not in cfg and "alpha" not in cfg  # the method's constants
    assert cfg["weight_decay"] == 1e-4
    assert cfg["total_epochs"] == 2 and cfg["warmup_epochs"] == 1
    desk = tmp_path / "desk"
    assert run_cli("train", "--data", data_dir, "--out", desk, "--method", "mslg",
                   "--preset", "blobs-desk", *short) == EXIT_OK
    cfg = json.loads((desk / "manifest.json").read_text())["config"]
    assert cfg["beta"] == 50.0 and cfg["k_init"] == 2.0 and cfg["weight_decay"] == 5e-3
    assert cfg["total_epochs"] == 2 and cfg["warmup_epochs"] == 1
    assert cfg["lambda_schedule"] == [[0, 0.01]] and cfg["hidden_sizes"] == [8]


def test_train_ce_sets_warmup_to_the_total_given(tmp_path, data_dir):
    # the preset's warm-up (30) exceeds --total-epochs; ce replaces both at once
    out = tmp_path / "run"
    assert run_cli("train", "--data", data_dir, "--out", out, "--preset", "blobs-desk",
                   "--method", "ce", "--total-epochs", "3") == EXIT_OK
    cfg = json.loads((out / "manifest.json").read_text())["config"]
    assert cfg["total_epochs"] == 3 and cfg["warmup_epochs"] == 3


def test_train_invalid_config_exit_code(tmp_path, data_dir):
    assert run_cli("train", "--data", data_dir, "--out", tmp_path / "x",
                   "--method", "mslg", "--warmup-epochs", "9",
                   "--total-epochs", "3") == EXIT_CONFIG


def _with_label(data_dir, dst, split, label):
    """A copy of a gen directory whose first `split` row has noisy label `label`."""
    dst.mkdir()
    (dst / "manifest.json").write_bytes((data_dir / "manifest.json").read_bytes())
    lines = (data_dir / "dataset.csv").read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.endswith("," + split))
    cells = lines[row].split(",")
    cells[-2] = str(label)
    lines[row] = ",".join(cells)
    (dst / "dataset.csv").write_text("\n".join(lines) + "\n")
    return dst


def test_train_meta_label_out_of_range_is_config_error(tmp_path, data_dir, capsys):
    # one meta row labelled 3 in a 3-class dataset is rejected when the data
    # is loaded, before any run artifact is written
    bad_data = _with_label(data_dir, tmp_path / "data", "meta", 3)
    out = tmp_path / "run"
    assert run_cli("train", "--data", bad_data, "--out", out, "--method", "mslg",
                   *TRAIN_FAST) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'meta' split: noisy label 3 out of range [0, 3)" in err
    assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize("label", [3, -1])
def test_eval_test_label_out_of_range_is_config_error(tmp_path, data_dir, capsys, label):
    bad_data = _with_label(data_dir, tmp_path / "data", "test", label)
    ckpt = tmp_path / "m.ckpt"
    Mlp((2, 3)).save(ckpt)
    assert run_cli("eval", "--data", bad_data, "--checkpoint", ckpt) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"dataset.csv: 'test' split: noisy label {label} out of range [0, 3)" in err


# each command's required flags, before the bad value under test
_BASE = {
    "gen": lambda data_dir: ("gen",),
    "train": lambda data_dir: ("train", "--data", data_dir, *TRAIN_FAST),
    "sweep": lambda data_dir: ("sweep", "--axis", "beta", "--values", "1", "--seeds", "0",
                               "--blobs", "n=150", *TRAIN_FAST),
}


# feature-dependent noise on overlapping clusters: too few samples have a
# runner-up class other than their own
_UNREACHABLE_FLIPS = (
    ("--blobs", "n=300", "c=4", "sep=0", "--noise", "feature_dependent:0.9"),
    "only 163 of 219 samples can be corrupted toward their runner-up class; "
    "cannot reach 197 flips")

_BAD_VALUES = [
    # gen keys: --blobs tokens, then flags
    *[("gen", ("--blobs", f"{key}=x"), f"--blobs: bad value for '{key}'")
      for key in ("n", "c", "d", "sep")],
    ("gen", ("--blobs", "n300"), "--blobs: expected key=value, got 'n300'"),
    ("gen", ("--noise", "uniform"), "bad value for 'noise': --noise expects kind:ratio"),
    ("gen", ("--noise", "uniform:abc"), "bad value for 'noise'"),
    ("gen", ("--noise", "gaussian:0.2"), "bad value for 'noise'"),
    ("gen", ("--meta", "abc"), "bad value for 'meta'"),
    ("gen", ("--test", "abc"), "bad value for 'test'"),
    ("gen", ("--seed", "abc"), "bad value for 'seed'"),
    ("gen", ("--seed", "-1"), "bad value for 'seed'"),
    # float values must be finite, or a manifest would hold NaN, which is not JSON
    ("gen", ("--blobs", "sep=nan"), "--blobs: bad value for 'sep': expected a finite number"),
    ("gen", ("--noise", "uniform:nan"), "bad value for 'noise'"),
    ("gen", ("--meta", "nan"), "bad value for 'meta': expected a finite number, got nan"),
    ("gen", ("--test", "inf"), "bad value for 'test'"),
    # values that parse but that generation rejects, before --out exists
    ("gen", ("--blobs", "n=100", "c=2", "d=2", "--noise", "uniform:1.5"),
     "noise ratio must be in [0, 1), got 1.5"),
    ("gen", ("--blobs", "n=100", "--meta", "0.5", "--test", "0.5"),
     "invalid fractions meta=0.5, test=0.5"),
    # a split that train and eval would find missing
    ("gen", ("--blobs", "n=200", "c=3", "--meta", "0.001"),
     "the meta split of 200 samples would be empty (meta 0.001, test 0.25)"),
    ("gen", ("--blobs", "n=200", "c=3", "--test", "0"),
     "the test split of 200 samples would be empty"),
    ("gen", ("--blobs", "n=2", "c=2", "--meta", "0.4", "--test", "0.5"),
     "the train split of 2 samples would be empty"),
    ("gen", ("--idx-images", "images.idx"), "--idx-images requires --idx-labels"),
    # a noise ratio that only injecting the noise finds out of reach
    ("gen", _UNREACHABLE_FLIPS[0], _UNREACHABLE_FLIPS[1]),
    # train: every TrainConfig flag, the run's own flags, and values that
    # parse but fail validation
    *[("train", (flag, "abc"), f"bad value for '{key}'")
      for flag, key in [("--beta", "beta"), ("--k", "k_init"),
                        ("--lambda-schedule", "lambda_schedule"),
                        ("--batch-size", "batch_size"), ("--weight-decay", "weight_decay"),
                        ("--warmup-epochs", "warmup_epochs"),
                        ("--total-epochs", "total_epochs"),
                        ("--entropy-weight", "entropy_weight"), ("--seed", "seed"),
                        ("--hidden", "hidden_sizes")]],
    ("train", ("--lambda-schedule", "0"),
     "bad value for 'lambda_schedule': expected epoch:rate, got '0'"),
    ("train", ("--lambda-schedule", "0:0.02,"),
     "bad value for 'lambda_schedule': expected epoch:rate, got ''"),
    ("train", ("--lambda-schedule", "0:0.02:1"),
     "bad value for 'lambda_schedule': expected epoch:rate, got '0:0.02:1'"),
    ("train", ("--beta", "nan"), "beta must be finite"),
    ("train", ("--lambda-schedule", "0:nan"), "lambda_schedule must be finite"),
    ("train", ("--hidden", "0"), "hidden_sizes must all be >= 1"),
    # an empty item is not skipped: "8,,8" is not a 2-layer model, "," not a
    # linear one (that is --hidden "")
    ("train", ("--hidden", "8,,8"), "bad value for 'hidden_sizes'"),
    ("train", ("--hidden", ","), "bad value for 'hidden_sizes'"),
    # the initial soft label's argmax is the noisy label only for k > 0
    ("train", ("--k", "0"), "need k_init > 0, got 0.0"),
    ("train", ("--k", "-5"), "need k_init > 0, got -5.0"),
    # so small a K that softmax ties every initial label, whose argmax falls to 0
    ("train", ("--k", "1e-17"), "k_init 1e-17 is too small"),
    ("train", ("--seed", "-1"), "bad value for 'seed'"),
    ("train", ("--lambda-schedule", "0:-0.02"), "lambda_schedule rates must be >= 0"),
    ("train", ("--lambda-schedule", "10:0.1"), "lambda_schedule must start at epoch 0, got 10"),
    ("train", ("--batch-size", "0"), "need batch_size >= 1 and total_epochs >= 0, got 0, 6"),
    ("train", ("--total-epochs", "-1"),
     "need batch_size >= 1 and total_epochs >= 0, got 32, -1"),
    # sweep: its own keys, and gen and train keys it passes to its cells
    ("sweep", ("--values", "1,x"), "bad value for 'values'"),
    ("sweep", ("--axis", "meta_fraction", "--values", "nan"),
     "bad value for 'values': expected a finite number, got nan"),
    ("sweep", ("--seeds", "0,x"), "bad value for 'seeds'"),
    ("sweep", ("--seeds", "0,-1"), "bad value for 'seeds'"),
    ("sweep", ("--values", ","), "bad value for 'values'"),
    ("sweep", ("--values", "1,,2"), "bad value for 'values'"),
    ("sweep", ("--seeds", "0,"), "bad value for 'seeds'"),
    ("sweep", ("--seeds", ""), "--values and --seeds must be non-empty"),
    ("sweep", ("--blobs", "n=x"), "--blobs: bad value for 'n'"),
    ("sweep", ("--noise", "uniform:x"), "bad value for 'noise'"),
    ("sweep", ("--beta", "x"), "bad value for 'beta'"),
    # every cell's training config is resolved, swept beta included, before
    # --out exists
    ("sweep", ("--lambda-schedule", "0:-0.02"), "lambda_schedule rates must be >= 0"),
    ("sweep", ("--lambda-schedule", "10:0.1"), "lambda_schedule must start at epoch 0, got 10"),
    ("sweep", ("--values", "-1"), "need beta >= 0, got -1.0"),
    ("sweep", ("--axis", "noise_ratio", "--noise", "none"),
     "noise_ratio sweep needs --noise kind:ratio"),
    # every swept value's split sizes, from the source's sample count, as gen
    # checks them
    ("sweep", ("--meta", "0.001"),
     "the meta split of 150 samples would be empty (meta 0.001, test 0.25)"),
    ("sweep", ("--test", "0"), "the test split of 150 samples would be empty"),
    ("sweep", ("--axis", "meta_fraction", "--values", "0.1,0.001"),
     "the meta split of 150 samples would be empty (meta 0.001, test 0.25)"),
    ("sweep", ("--axis", "meta_fraction", "--values", "0.1,0.697", "--test", "0.3"),
     "the train split of 150 samples would be empty (meta 0.697, test 0.3)"),
    # and every swept value's noise ratio, as gen checks it
    ("sweep", ("--blobs", "n=150", "c=3", "--noise", "uniform:1.5"),
     "noise ratio must be in [0, 1), got 1.5"),
    ("sweep", ("--axis", "noise_ratio", "--noise", "uniform:0.2", "--values", "0.2,1.5"),
     "noise ratio must be in [0, 1), got 1.5"),
    ("sweep", ("--values", "1,2", "--seeds", "0,1", *_UNREACHABLE_FLIPS[0]),
     _UNREACHABLE_FLIPS[1]),
    # choices: parsed by key like every other value, not by argparse
    ("train", ("--method", "sgd"), "bad value for 'method'"),
    ("sweep", ("--method", "sgd"), "bad value for 'method'"),
    ("sweep", ("--axis", "lr"), "bad value for 'axis'"),
    ("train", ("--preset", "nope"),
     "bad value for 'preset': expected one of blobs-desk | blobs-smoke, got 'nope'"),
    ("sweep", ("--preset", "nope"),
     "bad value for 'preset': expected one of blobs-desk | blobs-smoke, got 'nope'"),
]


@pytest.mark.parametrize("command,bad,message", [
    pytest.param(*case, id=f"{case[0]} {' '.join(case[1])}") for case in _BAD_VALUES])
def test_bad_flag_value_is_config_error_naming_key(tmp_path, data_dir, capsys,
                                                   command, bad, message):
    # parsed before the command runs, so nothing is written, and a returned
    # code rather than argparse's SystemExit
    out = tmp_path / "out"
    assert run_cli(*_BASE[command](data_dir), *bad, "--out", out) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


# gen's flags that sweep takes too
_SWEEP_GEN_FLAGS = {"--blobs", "--noise", "--meta", "--test", "--idx-images"}


@pytest.mark.parametrize("bad", [
    pytest.param(bad, id=" ".join(bad)) for command, bad, _ in _BAD_VALUES
    if command == "gen" and {a for a in bad if a.startswith("--")} <= _SWEEP_GEN_FLAGS])
def test_sweep_refuses_what_gen_refuses(tmp_path, capsys, bad):
    # sweep generates each value's data as gen does, so it fails the same way
    # before its --out exists
    gen_out, sweep_out = tmp_path / "gen", tmp_path / "sweep"
    assert run_cli("gen", *bad, "--out", gen_out) == EXIT_CONFIG
    gen_err = capsys.readouterr().err
    assert run_cli("sweep", "--axis", "beta", "--values", "1", "--seeds", "0", *bad,
                   *TRAIN_FAST, "--out", sweep_out) == EXIT_CONFIG
    assert capsys.readouterr().err == gen_err
    assert not gen_out.exists() and not sweep_out.exists()


def test_key_error_in_a_command_is_not_a_config_error(tmp_path, monkeypatch):
    # no input makes a command raise KeyError, so one that does is a bug and
    # keeps its traceback
    def broken(args):
        raise KeyError("bug")
    monkeypatch.setattr(mslg.cli, "cmd_export_labels", broken)
    with pytest.raises(KeyError, match="bug"):
        run_cli("export-labels", "--labels", tmp_path / "l.slbl", "--out", tmp_path / "l.csv")


def test_lambda_schedule_parses_to_epoch_rate_pairs():
    assert mslg.cli._PARSERS["lambda_schedule"]("0:0.02,30:5e-3") == ((0, 0.02), (30, 0.005))


@pytest.mark.parametrize("argv", [
    ("sweep", "--axis", "beta", "--values", "1", "--seeds", "0", "--blobs", "n=150",
     "--seed", "1"),
    ("train", "--data", "d", "--warmup", "1"),
    # the noise probe is fixed; its old flags are gone
    pytest.param(("gen", "--blobs", "n=300", "--noise", "feature_dependent:0.3",
                  "--probe-hidden", "4"), id="gen --probe-hidden"),
    pytest.param(("gen", "--blobs", "n=300", "--noise", "feature_dependent:0.3",
                  "--probe-epochs", "2"), id="gen --probe-epochs"),
    # training values come from a preset and flags only
    pytest.param(("train", "--data", "d", "--config", "x.cfg"), id="train --config"),
    pytest.param(("sweep", "--axis", "beta", "--values", "1", "--seeds", "0",
                  "--blobs", "n=150", "--config", "x.cfg"), id="sweep --config"),
    # a run directory holds one fixed set of files; there are no epoch snapshots
    pytest.param(("train", "--data", "d", "--snapshot-every", "2"),
                 id="train --snapshot-every"),
])
def test_removed_or_abbreviated_flag_is_rejected(tmp_path, capsys, argv):
    # without allow_abbrev=False, sweep's --seed would mean --seeds
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--out", out)
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


# dests that stay strings: paths
_STRING_DESTS = {"out", "data", "checkpoint", "labels",
                 "idx_images", "idx_labels"}


def test_every_cli_option_is_routed():
    # each value is parsed by its key, is a source's key=value tokens or
    # stays a string; and each parser serves a flag or a source key
    dests = set()
    for name, sub in _subcommands().items():
        for action in sub._actions:
            if action.dest != "help":
                assert (action.dest in mslg.cli._PARSERS or action.dest == "blobs"
                        or action.dest in _STRING_DESTS), f"{name} {action.option_strings}"
                dests.add(action.dest)
    unreachable = set(mslg.cli._PARSERS) - dests - set(mslg.cli._BLOBS_KEYS)
    assert not unreachable


# a value of every TrainConfig field, other than its default
_FIELD_VALUES = {
    "beta": "12.5", "lambda_schedule": "0:0.5,7:0.25",
    "k_init": "3.5", "batch_size": "16", "weight_decay": "0.001",
    "warmup_epochs": "3", "total_epochs": "50", "entropy_weight": "0.25",
    "seed": "9", "hidden_sizes": "8,4",
}


def _resolved(*argv):
    args = build_parser().parse_args(["train", "--data", "d", "--out", "o", *map(str, argv)])
    mslg.cli._parse_values(args)
    return mslg.cli._resolve_train_config(args)


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(TrainConfig)])
def test_train_flag_sets_its_field(field):
    flag = {"k_init": "--k", "hidden_sizes": "--hidden"}.get(
        field, "--" + field.replace("_", "-"))
    value = mslg.cli._PARSERS[field](_FIELD_VALUES[field])
    by_flag = _resolved(flag, _FIELD_VALUES[field])
    assert getattr(by_flag, field) == value != getattr(TrainConfig(), field)
    # and no other field
    assert dataclasses.replace(by_flag, **{field: getattr(TrainConfig(), field)}) == TrainConfig()


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_momentum_is_not_a_setting(tmp_path, data_dir, capsys, command):
    # SGD momentum and the look-ahead rate alpha are the method's constants:
    # no config field, so no flag either
    out = tmp_path / "out"
    for key, value in [("momentum", "0.5"), ("alpha", "0.3")]:
        with pytest.raises(TypeError, match=key):
            TrainConfig(**{key: float(value)})
        with pytest.raises(SystemExit) as exc:
            run_cli(*_BASE[command](data_dir), f"--{key}", value, "--out", out)
        assert exc.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: --{key} {value}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("fault,message", [
    ("empty", "dataset.csv: empty file"),
    ("missing feature", "dataset.csv:4: 5 fields, header has 6"),
    ("non-numeric", "dataset.csv:6: 'f1': could not convert string to float: 'x'"),
    ("nan feature", "dataset.csv:4: 'f0': not a finite number: 'nan'"),
    ("inf feature", "dataset.csv:6: 'f1': not a finite number: '-inf'"),
    ("401-digit id", "dataset.csv:4: 'id': out of the int64 range"),
    ("id 2**63", "dataset.csv:6: 'id': out of the int64 range"),
    ("noisy label 2**63+1", "dataset.csv:4: 'noisy_label': out of the int64 range"),
    ("oversized field", "dataset.csv:6: field larger than field limit"),
    ("non-UTF-8 byte", "dataset.csv:6: byte 0xff is not UTF-8"),
    ("no test split", "dataset.csv has no 'test' split"),
    ("no feature column", "dataset.csv: 'meta' split: features must be (N, D) with D >= 1, "
                          "got shape (12, 0)"),
])
def test_train_malformed_dataset_is_config_error(tmp_path, data_dir, capsys, fault, message):
    # file lines 4 and 6 are meta rows; a row short of one feature must not
    # load with its true label read as feature f1
    lines = (data_dir / "dataset.csv").read_text().splitlines()
    if fault == "empty":
        lines = []
    elif fault == "no test split":
        lines = [line for line in lines if not line.endswith(",test")]
    elif fault == "no feature column":
        lines = [",".join(cells[:1] + cells[-3:]) for cells in
                 (line.split(",") for line in lines)]
    elif fault == "missing feature":
        cells = lines[3].split(",")
        del cells[2]
        lines[3] = ",".join(cells)
    else:
        row, col, value = {"non-numeric": (5, 2, "x"), "nan feature": (3, 1, "nan"),
                           "inf feature": (5, 2, "-inf"),
                           "401-digit id": (3, 0, str(10**400)),
                           "id 2**63": (5, 0, str(2**63)),
                           "noisy label 2**63+1": (3, -2, str(2**63 + 1)),
                           "oversized field": (5, 1, "1" * 200_000),
                           # written below as the raw byte 0xff
                           "non-UTF-8 byte": (5, 1, "0.5\udcff")}[fault]
        cells = lines[row].split(",")
        cells[col] = value
        lines[row] = ",".join(cells)
    bad = tmp_path / "data"
    bad.mkdir()
    (bad / "manifest.json").write_bytes((data_dir / "manifest.json").read_bytes())
    (bad / "dataset.csv").write_bytes(
        "".join(line + "\n" for line in lines).encode("utf-8", "surrogateescape"))
    out = tmp_path / "run"
    assert run_cli("train", "--data", bad, "--out", out, *TRAIN_FAST) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,manifest,text,message", [
    *[pytest.param("train", "data", f'{{"num_classes": {value}}}',
                   f"num_classes must be an integer >= 1, got {shown}",
                   id=f"num_classes {value}")
      for value, shown in [('"3"', "'3'"), ("[3]", "[3]"), ("1e400", "inf"),
                           ("3.5", "3.5"), ("true", "True"), ("0", "0")]],
    *[pytest.param(command, manifest, text, message, id=f"{command} {manifest} {text}")
      for command, manifest, text, message in [
          ("train", "data", "[]", "expected a JSON object, got list"),
          ("eval", "data", "[]", "expected a JSON object, got list"),
          ("eval", "run", "[]", "expected a JSON object, got list"),
          ("train", "data", '{"num_classes": 3', "not a JSON manifest"),
          ("eval", "run", '{"train_sha256": ', "not a JSON manifest")]],
])
def test_bad_manifest_is_config_error_naming_it(tmp_path, data_dir, capsys,
                                                command, manifest, text, message):
    data, run, out = tmp_path / "data", tmp_path / "run", tmp_path / "out"
    data.mkdir()
    run.mkdir()
    for name in ("dataset.csv", "manifest.json"):
        (data / name).write_bytes((data_dir / name).read_bytes())
    Mlp((2, 3)).save(run / "model.ckpt")
    bad = (data if manifest == "data" else run) / "manifest.json"
    bad.write_text(text)
    argv = (("train", "--data", data, "--out", out, *TRAIN_FAST) if command == "train"
            else ("eval", "--data", data, "--checkpoint", run / "model.ckpt",
                  "--out", out / "report.json"))
    assert run_cli(*argv) == EXIT_CONFIG
    assert f"{bad}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "train", "eval", "export-labels"])
def test_out_dir_with_a_bad_manifest_is_config_error_naming_it(tmp_path, data_dir, capsys,
                                                               command):
    out, (ckpt, snap) = tmp_path / "out", _model_and_labels(tmp_path, data_dir)
    out.mkdir()
    (out / "manifest.json").write_text("[]")
    argv = {"gen": (*GEN_SMALL, "--out", out),
            "train": ("train", "--data", data_dir, "--out", out, *TRAIN_FAST),
            "eval": ("eval", "--data", data_dir, "--checkpoint", ckpt,
                     "--out", out / "report.json"),
            "export-labels": ("export-labels", "--labels", snap, "--out", out / "labels.csv")}
    assert run_cli(*argv[command]) == EXIT_CONFIG
    assert (f"{out / 'manifest.json'}: expected a JSON object, got list"
            in capsys.readouterr().err)
    assert [p.name for p in out.iterdir()] == ["manifest.json"]


def test_train_missing_data_is_io_error(tmp_path):
    assert run_cli("train", "--data", tmp_path / "nope", "--out", tmp_path / "x",
                   "--method", "ce", *TRAIN_FAST) == EXIT_IO


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_numerical_abort_keeps_last_good(tmp_path, data_dir):
    out = tmp_path / "run"
    code = run_cli("train", "--data", data_dir, "--out", out, "--method", "ce",
                   "--preset", "blobs-smoke", "--hidden", "16",
                   "--total-epochs", "6", "--warmup-epochs", "6",
                   "--lambda-schedule", "0:1e12")
    assert code == EXIT_NUMERIC
    assert (out / "last_good.ckpt").exists()
    assert not (out / "model.ckpt").exists()
    Mlp.load(out / "last_good.ckpt")  # still a readable checkpoint


def _recording_label_saves(monkeypatch):
    """The file names that SoftLabelStore.save writes, in order."""
    saved = []
    save = SoftLabelStore.save

    def recording(store, path):
        saved.append(Path(path).name)
        save(store, path)
    monkeypatch.setattr(SoftLabelStore, "save", recording)
    return saved


def test_ce_train_writes_each_label_snapshot_once(tmp_path, data_dir, monkeypatch):
    # no CE epoch moves the labels, so last_good.slbl is written after the
    # first epoch only, and it holds what labels.slbl holds
    saved = _recording_label_saves(monkeypatch)
    out = tmp_path / "run"
    assert run_cli("train", "--data", data_dir, "--out", out, "--method", "ce",
                   *TRAIN_FAST) == EXIT_OK
    assert saved == ["last_good.slbl", "labels.slbl"]
    assert (out / "last_good.slbl").read_bytes() == (out / "labels.slbl").read_bytes()


@pytest.mark.parametrize("warmup", [1, 2, 5])
def test_mslg_train_rewrites_last_good_labels_after_each_mslg_epoch(tmp_path, data_dir,
                                                                   monkeypatch, warmup):
    # once after the first warm-up epoch, once after each of the 6 - warmup
    # label-correction epochs, and labels.slbl at the end
    saved = _recording_label_saves(monkeypatch)
    out = tmp_path / "run"
    assert run_cli("train", "--data", data_dir, "--out", out, "--method", "mslg",
                   *TRAIN_FAST, "--warmup-epochs", warmup) == EXIT_OK
    assert saved == ["last_good.slbl"] * (1 + 6 - warmup) + ["labels.slbl"]
    assert (out / "last_good.slbl").read_bytes() == (out / "labels.slbl").read_bytes()


@pytest.mark.parametrize("warmup", [4, 2], ids=["warm-up", "mslg"])
def test_numerical_abort_keeps_the_labels_of_the_last_completed_epoch(tmp_path, data_dir,
                                                                      monkeypatch, warmup):
    # after epoch 4 of a 2-epoch warm-up (or epoch 2 of a 4-epoch one) a NaN
    # goes where the next epoch reads it: into the label row of that epoch's
    # last sample, so MSLG moves the other batches' labels before it aborts,
    # or into the model, so the warm-up aborts on its first forward
    completes = 6 - warmup
    completed, states = [], []  # each completed epoch's label logits; the run state
    run = mslg.cli.train

    def recording(train_ds, meta_ds, cfg, test_ds, epoch_callback):
        def callback(state, metrics):
            epoch_callback(state, metrics)
            completed.append(state.store.logits.copy())
            states[:] = [state]
            if state.epoch == completes and state.epoch < warmup:
                state.model.params[0] = np.nan
            elif state.epoch == completes:
                state.store.logits[epoch_order(cfg.seed, state.epoch, train_ds.n)[-1]] = np.nan
        return run(train_ds, meta_ds, cfg, test_ds, epoch_callback=callback)
    monkeypatch.setattr(mslg.cli, "train", recording)
    out = tmp_path / "run"
    assert run_cli("train", "--data", data_dir, "--out", out, "--method", "mslg",
                   *TRAIN_FAST, "--warmup-epochs", warmup) == EXIT_NUMERIC
    assert len(completed) == completes
    kept = SoftLabelStore.load(out / "last_good.slbl").logits
    assert np.array_equal(kept, completed[-1])
    if warmup > completes:
        assert np.array_equal(kept, completed[0])  # the initial labels
    else:
        assert not np.array_equal(kept, completed[0])
        finite = np.isfinite(states[0].store.logits).all(axis=1)
        assert (states[0].store.logits[finite] != kept[finite]).any()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_rerun_leaves_nothing_of_the_previous_run(tmp_path, data_dir):
    out = tmp_path / "run"
    assert run_cli("train", "--data", data_dir, "--out", out, "--method", "ce",
                   "--preset", "blobs-smoke") == EXIT_OK
    assert {p.name for p in out.iterdir()} == _RUN_DIR
    # what a run killed mid-write leaves: atomic_write's temp files
    for name in ("model.ckpt.tmp", "labels.slbl.tmp", "last_good.slbl.tmp"):
        (out / name).write_bytes(b"partial")
    assert run_cli("train", "--data", data_dir, "--out", out, "--method", "ce",
                   "--preset", "blobs-smoke", "--hidden", "16",
                   "--total-epochs", "6", "--warmup-epochs", "6",
                   "--lambda-schedule", "0:1e12") == EXIT_NUMERIC
    assert {p.name for p in out.iterdir()} == _RUN_DIR - {"model.ckpt", "labels.slbl"}
    assert json.loads((out / "manifest.json").read_text())["config"]["hidden_sizes"] == [16]
    assert Mlp.load(out / "last_good.ckpt").layer_sizes == (2, 16, 3)


def test_train_smoke_run_under_ten_seconds(tmp_path):
    import time

    data = tmp_path / "data"
    out = tmp_path / "run"
    assert run_cli("gen", "--blobs", "n=300", "c=4", "d=2", "sep=6",
                   "--noise", "feature_dependent:0.4", "--meta", "0.05",
                   "--test", "0.2", "--seed", "1", "--out", data) == EXIT_OK
    t0 = time.perf_counter()
    assert run_cli("train", "--data", data, "--out", out, "--method", "mslg",
                   "--preset", "blobs-smoke") == EXIT_OK
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    for name in ("metrics.csv", "model.ckpt", "labels.slbl"):
        assert (out / name).exists(), name


@pytest.mark.parametrize("spelling", ["same", "through a sibling"])
def test_train_out_that_is_the_data_dir_is_config_error(tmp_path, data_dir, capsys,
                                                        spelling):
    data = tmp_path / "data"
    data.mkdir()
    for name in ("dataset.csv", "manifest.json"):
        (data / name).write_bytes((data_dir / name).read_bytes())
    before = {p.name: p.read_bytes() for p in data.iterdir()}
    out = data if spelling == "same" else tmp_path / "other" / ".." / "data"
    assert run_cli("train", "--data", data, "--out", out, "--method", "ce",
                   *TRAIN_FAST) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"--out: {data} holds the output of `gen`; only `gen` writes there" in err
    assert {p.name: p.read_bytes() for p in data.iterdir()} == before


def test_train_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    # 18,180 parameters: enough for OpenBLAS to split a 1-D dot across threads
    data = tmp_path / "data"
    assert run_cli("gen", "--blobs", "n=600", "c=4", "d=8", "sep=6", "--noise", "uniform:0.3",
                   "--meta", "0.1", "--test", "0.2", "--seed", "3", "--out", data) == EXIT_OK
    src = str(Path(mslg.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        run = tmp_path / f"threads{threads}"
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-m", "mslg.cli", "train", "--data", str(data),
                               "--out", str(run), "--preset", "blobs-smoke",
                               "--hidden", "128,128", "--seed", "3"],
                              capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        runs.append(run)
    for name in ("metrics.csv", "model.ckpt", "labels.slbl"):
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


def _files(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir() if p.is_file()}


@pytest.fixture
def run_dir(tmp_path, data_dir):
    run = tmp_path / "run"
    assert run_cli("train", "--data", data_dir, "--out", run, *TRAIN_FAST) == EXIT_OK
    return run


def test_train_scores_the_test_split_that_eval_scores(run_dir, data_dir, capsys):
    # the last epoch's test_accuracy is eval's for the final model.ckpt; the
    # meta split reads otherwise, so scoring it in place of the test split fails
    capsys.readouterr()
    assert run_cli("eval", "--data", data_dir, "--checkpoint", run_dir / "model.ckpt") == EXIT_OK
    reported = json.loads(capsys.readouterr().out)["test_accuracy"]
    header, *_, last = (run_dir / "metrics.csv").read_text().splitlines()
    assert float(last.split(",")[header.split(",").index("test_accuracy")]) == reported
    meta = load_dataset_csv(data_dir / "dataset.csv", 3)["meta"]
    assert accuracy(Mlp.load(run_dir / "model.ckpt"), meta) != reported


def test_train_out_that_is_another_data_dir_is_config_error(tmp_path, data_dir, capsys):
    other = tmp_path / "other"
    assert run_cli(*GEN_SMALL, "--seed", "2", "--out", other) == EXIT_OK
    before = _files(other)
    assert run_cli("train", "--data", data_dir, "--out", other, *TRAIN_FAST) == EXIT_CONFIG
    assert (f"--out: {other} holds the output of `gen`; only `gen` writes there"
            in capsys.readouterr().err)
    assert _files(other) == before


def test_gen_out_that_is_a_run_dir_is_config_error(run_dir, data_dir, capsys):
    before = _files(run_dir)
    assert run_cli(*GEN_SMALL, "--out", run_dir) == EXIT_CONFIG
    assert (f"--out: {run_dir} holds the output of `train`; only `train` writes there"
            in capsys.readouterr().err)
    assert _files(run_dir) == before
    # each command may still write over its own directory
    assert run_cli("train", "--data", data_dir, "--out", run_dir, *TRAIN_FAST) == EXIT_OK
    assert _files(run_dir) == before


def _refused_in_run_dir(run_dir, data_dir, capsys, command, target):
    before = _files(run_dir)
    reads = (("eval", "--data", data_dir, "--checkpoint", run_dir / "model.ckpt")
             if command == "eval" else ("export-labels",))
    assert run_cli(*reads, "--labels", run_dir / "labels.slbl",
                   "--out", run_dir / target) == EXIT_CONFIG
    assert (f"--out: {run_dir} holds the output of `train`; only `train` writes there"
            in capsys.readouterr().err)
    assert _files(run_dir) == before


@pytest.mark.parametrize("command", ["eval", "export-labels"])
def test_out_may_not_replace_the_manifest_of_a_run_dir(run_dir, data_dir, capsys, command):
    _refused_in_run_dir(run_dir, data_dir, capsys, command, "manifest.json")


@pytest.mark.parametrize("command,target", [("eval", "model.ckpt"),
                                            ("export-labels", "last_good.slbl")])
def test_out_may_not_write_into_a_run_dir(run_dir, data_dir, capsys, command, target):
    _refused_in_run_dir(run_dir, data_dir, capsys, command, target)


def test_sweep_out_that_is_a_run_dir_is_config_error(run_dir, capsys):
    before = sorted(run_dir.rglob("*"))
    files = _files(run_dir)
    assert run_cli("sweep", "--axis", "beta", "--values", "40", "--seeds", "0",
                   "--blobs", "n=150", "c=3", "--noise", "uniform:0.2", "--meta", "0.06",
                   *TRAIN_FAST, "--out", run_dir) == EXIT_CONFIG
    assert (f"--out: {run_dir} holds the output of `train`; only `train` writes there"
            in capsys.readouterr().err)
    assert sorted(run_dir.rglob("*")) == before and _files(run_dir) == files


@pytest.mark.parametrize("command,flag", [("eval", "--checkpoint"), ("eval", "--labels"),
                                          ("export-labels", "--labels")])
def test_out_that_is_an_input_is_config_error(tmp_path, data_dir, capsys, command, flag):
    ckpt, snap = _model_and_labels(tmp_path, data_dir)
    before = _files(tmp_path)
    reads = _reading(command, data_dir, ckpt, snap)
    out = ckpt if flag == "--checkpoint" else snap
    assert run_cli(*reads, "--out", out) == EXIT_CONFIG
    assert f"--out {out} is also an input of this command" in capsys.readouterr().err
    assert _files(tmp_path) == before


@pytest.mark.parametrize("target", ["run dir", "data dir", "input"])
def test_eval_refused_out_prints_no_report(tmp_path, run_dir, data_dir, capsys, target):
    # --out is checked before anything is read, so no report reaches stdout
    ckpt, snap = _model_and_labels(tmp_path, data_dir)
    out = {"run dir": run_dir / "report.json", "data dir": data_dir / "report.json",
           "input": snap}[target]
    capsys.readouterr()
    assert run_cli("eval", "--data", data_dir, "--checkpoint", ckpt, "--labels", snap,
                   "--out", out) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "config error: --out" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["eval", "export-labels"])
def test_out_that_is_a_directory_is_config_error(tmp_path, data_dir, capsys, command):
    # refused before anything is read, so nothing reaches stdout
    ckpt, snap = _model_and_labels(tmp_path, data_dir)
    out = tmp_path / "report"
    out.mkdir()
    reads = _reading(command, data_dir, ckpt, snap)
    capsys.readouterr()
    assert run_cli(*reads, "--out", out) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"config error: --out {out} is a directory" in captured.err
    assert captured.out == ""
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command,target", [("eval", "afile/rep.json"),
                                            ("export-labels", "afile/sub/l.csv")])
def test_out_under_a_file_is_config_error(tmp_path, data_dir, capsys, command, target):
    # refused before anything is read: nothing reaches stdout, nothing is made
    ckpt, snap = _model_and_labels(tmp_path, data_dir)
    (tmp_path / "afile").write_text("a file")
    before = sorted(tmp_path.rglob("*"))
    reads = _reading(command, data_dir, ckpt, snap)
    capsys.readouterr()
    out = tmp_path / target
    assert run_cli(*reads, "--out", out) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert (f"config error: --out {out}: {tmp_path / 'afile'} is not a directory"
            in captured.err)
    assert captured.out == ""
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("command,artifact,message", [
    ("eval", "model.ckpt", "a parameter is not finite"),
    ("eval", "labels.slbl", "a logit is not finite"),
    ("export-labels", "labels.slbl", "a logit is not finite"),
    # the header's K: refused by `SoftLabelStore.check_k`, with the file named
    pytest.param("eval", "labels.slbl", "K must be finite and >= 0, got",
                 id="eval-labels.slbl-K is not finite"),
    pytest.param("export-labels", "labels.slbl", "K must be finite and >= 0, got",
                 id="export-labels-labels.slbl-K is not finite"),
])
def test_non_finite_artifact_is_config_error(tmp_path, data_dir, capsys, value,
                                             command, artifact, message):
    # refused as it is loaded, so eval reports nothing computed from it
    ckpt, snap = _model_and_labels(tmp_path, data_dir)
    if artifact == "model.ckpt":
        model = Mlp.load(ckpt)
        model.params[0] = value
        model.save(ckpt)
    else:
        store = SoftLabelStore.load(snap)
        if message.startswith("K "):  # the header's K, else one logit
            store.k = value
        else:
            store.logits[0, 0] = value
        store.save(snap)
    out = tmp_path / "out" / "o"
    reads = _reading(command, data_dir, ckpt, snap)
    capsys.readouterr()
    assert run_cli(*reads, "--out", out) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"config error: {tmp_path / artifact}: {message}" in captured.err
    assert captured.out == ""
    assert not out.parent.exists()


@pytest.mark.parametrize("k,message", [
    (-3.0, "K must be finite and >= 0, got -3.0"),
    (1e-17, "K 1e-17 is too small: softmax ties the initial labels"),
])
@pytest.mark.parametrize("command", ["eval", "export-labels"])
def test_label_snapshot_with_a_refused_finite_k_is_config_error(tmp_path, data_dir, capsys,
                                                                command, k, message):
    # a header K that no label store could start from, as `init_from_noisy` refuses it
    ckpt, snap = _model_and_labels(tmp_path, data_dir)
    store = SoftLabelStore.load(snap)
    store.k = k
    store.save(snap)
    out = tmp_path / "out" / "o"
    reads = _reading(command, data_dir, ckpt, snap)
    capsys.readouterr()
    assert run_cli(*reads, "--out", out) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"config error: {snap}: {message}" in captured.err
    assert captured.out == ""
    assert not out.parent.exists()


@pytest.mark.parametrize("command", ["eval", "export-labels"])
def test_label_snapshot_without_classes_is_config_error(tmp_path, data_dir, capsys,
                                                         command):
    ckpt, snap = _model_and_labels(tmp_path, data_dir)
    n = SoftLabelStore.load(snap).n
    SoftLabelStore(np.zeros((n, 0)), 10.0).save(snap)
    out = tmp_path / "out" / "o"
    reads = _reading(command, data_dir, ckpt, snap)
    capsys.readouterr()
    assert run_cli(*reads, "--out", out) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"config error: {snap}: need at least one class, got 0" in captured.err
    assert captured.out == ""
    assert not out.parent.exists()


def test_eval_that_fails_makes_no_out_directory(tmp_path, data_dir, capsys):
    ckpt = tmp_path / "m.ckpt"
    Mlp((2, 7)).save(ckpt)
    out = tmp_path / "new" / "r.json"
    assert run_cli("eval", "--data", data_dir, "--checkpoint", ckpt, "--out", out) == EXIT_CONFIG
    assert "checkpoint has 7 classes, dataset has 3" in capsys.readouterr().err
    assert not out.parent.exists()


# -- eval ----------------------------------------------------------------------------


def _bayes_checkpoint(tmp_path, ds_dir):
    """Hand-built linear classifier that is Bayes-optimal for the blob
    geometry: score_c = x . mu_c - |mu_c|^2 / 2."""
    manifest = json.loads((ds_dir / "manifest.json").read_text())
    c = manifest["num_classes"]
    sep = manifest["source"]["separation"]
    radius = sep / (2.0 * np.sin(np.pi / c))
    angles = 2.0 * np.pi * np.arange(c) / c
    centers = np.stack([radius * np.cos(angles), radius * np.sin(angles)], axis=1)
    model = Mlp((2, c))
    model.weights[0][...] = centers.T
    model.biases[0][...] = -0.5 * (centers ** 2).sum(axis=1)
    path = tmp_path / "bayes.ckpt"
    model.save(path)
    return path


@pytest.mark.parametrize("command,target", [("eval", "manifest.json"),
                                            ("export-labels", "dataset.csv"),
                                            ("eval", "dataset.csv"),
                                            ("export-labels", "manifest.json")])
def test_out_may_not_replace_a_file_of_a_data_dir(tmp_path, data_dir, capsys, command, target):
    data = tmp_path / "data"
    data.mkdir()
    for name in ("dataset.csv", "manifest.json"):
        (data / name).write_bytes((data_dir / name).read_bytes())
    before = {p.name: p.read_bytes() for p in data.iterdir()}
    ckpt, snap = _model_and_labels(tmp_path, data)
    reads = _reading(command, data, ckpt, snap)
    out = data / target
    assert run_cli(*reads, "--out", out) == EXIT_CONFIG
    assert (f"--out: {data.resolve()} holds the output of `gen`; only `gen` writes there"
            in capsys.readouterr().err)
    # nor any other file of the data directory
    assert run_cli(*reads, "--out", data / "report.json") == EXIT_CONFIG
    assert {p.name: p.read_bytes() for p in data.iterdir()} == before
    # outside it, a file of that name is written as before
    other = tmp_path / "out" / target
    assert run_cli(*reads, "--out", other) == EXIT_OK
    assert other.is_file()


def test_eval_perfect_model_accuracy_one(tmp_path):
    data = tmp_path / "data"
    assert run_cli("gen", "--blobs", "n=400", "c=4", "d=2", "sep=12",
                   "--noise", "none", "--meta", "0.05", "--test", "0.25",
                   "--seed", "2", "--out", data) == EXIT_OK
    ckpt = _bayes_checkpoint(tmp_path, data)
    out = tmp_path / "report.json"
    assert run_cli("eval", "--data", data, "--checkpoint", ckpt,
                   "--out", out) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["test_accuracy"] == 1.0
    conf = np.array(report["confusion_matrix"])
    assert conf.sum() == report["n_test"]
    assert np.array_equal(conf, np.diag(np.diag(conf)))


def test_eval_initial_snapshot_zero_recovery(tmp_path, data_dir):
    splits = load_dataset_csv(data_dir / "dataset.csv", 3)
    store = SoftLabelStore.init_from_noisy(splits["train"].noisy_labels, 3, 10.0)
    labels_path = tmp_path / "init.slbl"
    store.save(labels_path)
    ckpt = _bayes_checkpoint(tmp_path, data_dir)
    out = tmp_path / "report.json"
    assert run_cli("eval", "--data", data_dir, "--checkpoint", ckpt,
                   "--labels", labels_path, "--out", out) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["label_recovery_rate"] == 0.0
    assert report["noise_flagged"] == 0
    assert report["noise_flag_precision"] == 0.0
    assert report["noise_flag_recall"] == 0.0


def test_eval_idempotent(tmp_path, data_dir):
    ckpt = _bayes_checkpoint(tmp_path, data_dir)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("eval", "--data", data_dir, "--checkpoint", ckpt, "--out", a) == EXIT_OK
    assert run_cli("eval", "--data", data_dir, "--checkpoint", ckpt, "--out", b) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_eval_failed_report_write_keeps_previous_report(tmp_path, data_dir, monkeypatch):
    ckpt = _bayes_checkpoint(tmp_path, data_dir)
    out = tmp_path / "reports" / "report.json"
    assert run_cli("eval", "--data", data_dir, "--checkpoint", ckpt, "--out", out) == EXIT_OK
    before = out.read_bytes()
    monkeypatch.setattr(mslg.cli, "atomic_write", disk_fills_mid_write(mslg.cli.atomic_write))
    Mlp((2, 3)).save(ckpt)  # a different report, which fails half written
    assert run_cli("eval", "--data", data_dir, "--checkpoint", ckpt, "--out", out) == EXIT_IO
    assert out.read_bytes() == before
    assert [p.name for p in out.parent.iterdir()] == [out.name]


def test_eval_checks_the_train_split_the_run_trained_on(tmp_path, capsys):
    own, other, run = tmp_path / "seed1", tmp_path / "seed2", tmp_path / "run"
    assert run_cli(*GEN_SMALL, "--seed", "1", "--out", own) == EXIT_OK
    assert run_cli(*GEN_SMALL, "--seed", "2", "--out", other) == EXIT_OK
    assert run_cli("train", "--data", own, "--out", run, *TRAIN_FAST) == EXIT_OK
    recorded = json.loads((run / "manifest.json").read_text())["train_sha256"]
    assert recorded == load_dataset_csv(own / "dataset.csv")["train"].fingerprint()

    def evaluate(data, ckpt, out):
        return run_cli("eval", "--data", data, "--checkpoint", ckpt,
                       "--labels", run / "labels.slbl", "--out", out)

    # other data of the same shapes: refused, naming both digests
    capsys.readouterr()
    assert evaluate(other, run / "model.ckpt", tmp_path / "other.json") == EXIT_CONFIG
    actual = load_dataset_csv(other / "dataset.csv")["train"].fingerprint()
    err = capsys.readouterr().err
    assert actual != recorded and actual in err and recorded in err
    assert not (tmp_path / "other.json").exists()
    # its own data: the report the checkpoint gets with no manifest beside it
    bare = tmp_path / "bare"
    bare.mkdir()
    (bare / "model.ckpt").write_bytes((run / "model.ckpt").read_bytes())
    assert evaluate(own, run / "model.ckpt", tmp_path / "checked.json") == EXIT_OK
    assert evaluate(own, bare / "model.ckpt", tmp_path / "unchecked.json") == EXIT_OK
    assert ((tmp_path / "checked.json").read_bytes()
            == (tmp_path / "unchecked.json").read_bytes())


def test_eval_checks_the_train_split_of_a_snapshot(tmp_path, capsys):
    # the rolling last_good pair sits beside the run's manifest too
    own, other, run = tmp_path / "seed1", tmp_path / "seed2", tmp_path / "run"
    assert run_cli(*GEN_SMALL, "--seed", "1", "--out", own) == EXIT_OK
    assert run_cli(*GEN_SMALL, "--seed", "2", "--out", other) == EXIT_OK
    assert run_cli("train", "--data", own, "--out", run, *TRAIN_FAST) == EXIT_OK
    recorded = json.loads((run / "manifest.json").read_text())["train_sha256"]
    actual = load_dataset_csv(other / "dataset.csv")["train"].fingerprint()
    snapshot = ("--checkpoint", run / "last_good.ckpt", "--labels", run / "last_good.slbl")
    assert run_cli("eval", "--data", own, *snapshot) == EXIT_OK
    capsys.readouterr()
    assert run_cli("eval", "--data", other, *snapshot) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert actual != recorded and actual in err and recorded in err


def test_eval_checks_the_train_split_of_the_label_snapshots_run(tmp_path, data_dir, capsys):
    # the checkpoint's directory has no manifest; the snapshot's records
    # another train split
    ckpt, _ = _model_and_labels(tmp_path, data_dir)
    other = tmp_path / "other"
    other.mkdir()
    _, snap = _model_and_labels(other, data_dir)
    (other / "manifest.json").write_text(json.dumps({"command": "train",
                                                     "train_sha256": "0" * 64}))
    out = tmp_path / "report.json"
    assert run_cli("eval", "--data", data_dir, "--checkpoint", ckpt,
                   "--labels", snap, "--out", out) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"differs from {'0' * 64}, recorded in {other / 'manifest.json'}" in err
    assert not out.exists()


def test_eval_dimension_mismatch_is_config_error(tmp_path, data_dir, capsys):
    model = Mlp((5, 3))
    ckpt = tmp_path / "bad.ckpt"
    model.save(ckpt)
    assert run_cli("eval", "--data", data_dir, "--checkpoint", ckpt) == EXIT_CONFIG
    assert "input has 2 features, model expects 5" in capsys.readouterr().err
    model = Mlp((2, 7))
    model.save(ckpt)
    assert run_cli("eval", "--data", data_dir, "--checkpoint", ckpt) == EXIT_CONFIG
    assert "checkpoint has 7 classes, dataset has 3" in capsys.readouterr().err


@pytest.mark.parametrize("extra_rows,classes", [(1, 3), (0, 4)], ids=["rows", "classes"])
def test_eval_label_snapshot_of_another_shape_is_config_error(tmp_path, data_dir, capsys,
                                                              extra_rows, classes):
    n_train = load_dataset_csv(data_dir / "dataset.csv", 3)["train"].n
    ckpt, snap = tmp_path / "m.ckpt", tmp_path / "labels.slbl"
    Mlp((2, 3)).save(ckpt)
    n = n_train + extra_rows
    SoftLabelStore.init_from_noisy(np.zeros(n, np.int64), classes, 10.0).save(snap)
    assert run_cli("eval", "--data", data_dir, "--checkpoint", ckpt,
                   "--labels", snap) == EXIT_CONFIG
    assert (f"label snapshot shape ({n}, {classes}) does not match train split "
            f"({n_train}, 3)" in capsys.readouterr().err)


def test_eval_flags_after_training_catch_noise(tmp_path, data_dir):
    run = tmp_path / "run"
    assert run_cli("train", "--data", data_dir, "--out", run, "--method", "mslg",
                   "--preset", "blobs-smoke", "--hidden", "16",
                   "--beta", "50") == EXIT_OK
    out = tmp_path / "report.json"
    assert run_cli("eval", "--data", data_dir, "--checkpoint", run / "model.ckpt",
                   "--labels", run / "labels.slbl", "--out", out) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["label_recovery_rate"] > 0.0
    assert report["noise_flagged"] > 0
    assert report["noise_flag_recall"] > 0.0


def test_eval_noise_flag_precision_and_recall_match_hand_counts():
    # rows 0 and 1 are corrupted; the learned labels flag rows 0, 2 and 3:
    # 1 hit of 3 flags, and 1 of 2 corrupted rows found
    true = np.array([0, 1, 2, 0, 1, 2])
    noisy = np.array([1, 2, 2, 0, 1, 2])
    learned = np.array([0, 2, 0, 1, 1, 2])
    train_ds = LabeledDataset(np.zeros((6, 2)), true, noisy, 3)
    test_ds = LabeledDataset(np.zeros((3, 2)), np.arange(3), np.arange(3), 3)
    store = SoftLabelStore.init_from_noisy(learned, 3, 10.0)
    report = build_eval_report(Mlp((2, 3)), store, {"train": train_ds, "test": test_ds})
    assert report["n_corrupted"] == 2 and report["noise_flagged"] == 3
    assert report["noise_flag_precision"] == pytest.approx(1 / 3, rel=1e-15)
    assert report["noise_flag_recall"] == pytest.approx(1 / 2, rel=1e-15)


def test_eval_confusion_matrix_equals_a_loop_over_the_rows():
    # row: true class, column: predicted class
    rng = np.random.default_rng(5)
    true = rng.integers(0, 10, 1600)
    ds = LabeledDataset(rng.normal(size=(1600, 64)), true, true, 10)
    model = Mlp((64, 32, 10), Rng(5))
    preds = model.predict(ds.features).argmax(axis=1)
    assert len(set(preds.tolist())) == 10  # every column is reached
    loop = np.zeros((10, 10), np.int64)
    for t, p in zip(true, preds):
        loop[t, p] += 1
    report = build_eval_report(model, None, {"train": ds, "test": ds})
    assert report["confusion_matrix"] == loop.tolist()


def test_eval_report_of_a_wide_split_holds_one_block_of_activations():
    # the confusion matrix scores the test split in 256-row blocks
    model, split = wide_eval_split()
    peak = traced_peak(lambda: build_eval_report(model, None, {"train": split, "test": split}))
    assert peak <= WIDE_EVAL_PEAK, peak


# -- sweep ----------------------------------------------------------------------------


def test_sweep_single_cell_matches_single_run(tmp_path):
    sweep_out = tmp_path / "sw"
    gen_flags = ("--blobs", "n=200", "c=3", "d=2", "sep=6",
                 "--noise", "uniform:0.3", "--meta", "0.05", "--test", "0.2")
    assert run_cli("sweep", "--axis", "beta", "--values", "40", "--seeds", "9",
                   *gen_flags, "--method", "mslg", *TRAIN_FAST,
                   "--out", sweep_out) == EXIT_OK

    data = tmp_path / "data"
    run = tmp_path / "run"
    assert run_cli("gen", *gen_flags, "--seed", "9", "--out", data) == EXIT_OK
    assert run_cli("train", "--data", data, "--out", run, "--method", "mslg",
                   *TRAIN_FAST, "--beta", "40", "--seed", "9") == EXIT_OK

    cell = sweep_out / "cells" / "beta=40" / "seed9"
    assert (cell / "data" / "dataset.csv").read_bytes() == (data / "dataset.csv").read_bytes()
    assert (cell / "run" / "metrics.csv").read_bytes() == (run / "metrics.csv").read_bytes()

    report = tmp_path / "report.json"
    assert run_cli("eval", "--data", data, "--checkpoint", run / "model.ckpt",
                   "--labels", run / "labels.slbl", "--out", report) == EXIT_OK
    report = json.loads(report.read_text())
    row = (sweep_out / "runs.csv").read_text().splitlines()[1].split(",")
    assert row[3] == "ok"
    assert float(row[4]) == report["test_accuracy"]
    assert float(row[5]) == report["label_recovery_rate"]


def test_sweep_cardinality_and_summary(tmp_path):
    out = tmp_path / "sw"
    assert run_cli("sweep", "--axis", "noise_ratio", "--values", "0.2,0.4",
                   "--seeds", "0,1", "--blobs", "n=150", "c=3", "d=2", "sep=6",
                   "--noise", "uniform:0.2", "--meta", "0.06", "--test", "0.2",
                   "--method", "mslg", *TRAIN_FAST, "--out", out) == EXIT_OK
    runs = (out / "runs.csv").read_text().strip().splitlines()
    assert len(runs) == 1 + 2 * 2  # header + |values| * |seeds|
    summary = (out / "summary.csv").read_text().strip().splitlines()
    assert len(summary) == 1 + 2
    assert all(row.split(",")[2] == "2" for row in summary[1:])  # n_ok per cell


def test_sweep_records_failures_and_continues(tmp_path):
    out = tmp_path / "sw"
    # a bad value is refused before --out exists, so this cell fails as it
    # runs: a file stands where its directory would go. The sweep keeps going.
    (out / "cells").mkdir(parents=True)
    (out / "cells" / "noise_ratio=0.3").write_text("not a directory")
    assert run_cli("sweep", "--axis", "noise_ratio", "--values", "0.2,0.3",
                   "--seeds", "0", "--blobs", "n=150", "c=3", "d=2", "sep=6",
                   "--noise", "uniform:0.2", "--meta", "0.06", "--test", "0.2",
                   "--method", "mslg", *TRAIN_FAST, "--out", out) == EXIT_OK
    rows = (out / "runs.csv").read_text().strip().splitlines()[1:]
    statuses = [row.split(",")[3] for row in rows]
    assert statuses[0] == "ok"
    assert statuses[1].startswith("error")


@pytest.mark.parametrize("values,seeds,message", [
    ("10,10.000001", "1", "--values must give distinct cells, got beta=10 beta=10"),
    ("10,20", "1,2,1", "--seeds must be distinct, got 1,2,1"),
])
def test_sweep_cells_sharing_a_directory_are_config_error(tmp_path, capsys,
                                                          values, seeds, message):
    out = tmp_path / "sw"
    assert run_cli("sweep", "--axis", "beta", "--values", values, "--seeds", seeds,
                   "--blobs", "n=150", *TRAIN_FAST, "--out", out) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_sweep_bad_axis_is_config_error(tmp_path):
    assert run_cli("sweep", "--axis", "gamma", "--values", "1", "--seeds", "0",
                   "--blobs", "n=100", "c=3", "d=2",
                   "--out", tmp_path / "x") == EXIT_CONFIG


# -- export-labels -----------------------------------------------------------------------


def test_export_labels_roundtrip(tmp_path, data_dir):
    splits = load_dataset_csv(data_dir / "dataset.csv", 3)
    store = SoftLabelStore.init_from_noisy(splits["train"].noisy_labels, 3, 10.0)
    snap = tmp_path / "labels.slbl"
    store.save(snap)
    out = tmp_path / "labels.csv"
    assert run_cli("export-labels", "--labels", snap, "--out", out) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "sample_id,yhat_0,yhat_1,yhat_2,argmax"
    assert len(lines) == 1 + store.n
    arg = np.array([int(line.split(",")[-1]) for line in lines[1:]])
    assert np.array_equal(arg, splits["train"].noisy_labels)
