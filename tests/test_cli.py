import dataclasses
import json

import numpy as np
import pytest

import mslg.cli
from mslg.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, build_parser, main
from mslg.datasets import gen_blobs, load_dataset_csv, split
from mslg.model import Mlp
from mslg.rng import Rng
from mslg.soft_labels import SoftLabelStore
from mslg.trainer import TrainConfig

from helpers import disk_fills_mid_write


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


def test_gen_requires_source(tmp_path):
    assert run_cli("gen", "--out", tmp_path / "x") == EXIT_CONFIG


@pytest.mark.parametrize("flag,token,accepted", [
    ("--blobs", "classes=10", "n c d sep separation"),
    ("--spirals", "d=9", "n c noise_sd"),
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


def test_gen_separation_is_an_alias_of_sep(tmp_path, capsys):
    out = tmp_path / "data"
    assert run_cli("gen", "--blobs", "n=100", "sep=6", "separation=1",
                   "--out", out) == EXIT_CONFIG
    assert "key 'sep' given more than once (as 'separation')" in capsys.readouterr().err
    assert not (out / "dataset.csv").exists()
    assert run_cli("gen", "--blobs", "n=100", "separation=5", "--out", out) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["source"]["separation"] == 5.0


def test_output_root_env(tmp_path, monkeypatch):
    root = tmp_path / "root"
    monkeypatch.setenv("MSLG_OUTPUT_ROOT", str(root))
    monkeypatch.chdir(tmp_path)
    assert run_cli(*GEN_SMALL, "--out", "nested/data") == EXIT_OK
    data = root / "nested" / "data"
    assert (data / "dataset.csv").exists()

    splits = load_dataset_csv(data / "dataset.csv", 3)
    ckpt, snap = tmp_path / "m.ckpt", tmp_path / "m.slbl"
    Mlp((2, 3)).save(ckpt)
    SoftLabelStore.init_from_noisy(splits["train"].noisy_labels, 3, 10.0).save(snap)
    assert run_cli("eval", "--data", data, "--checkpoint", ckpt,
                   "--out", "reports/r.json") == EXIT_OK
    assert json.loads((root / "reports" / "r.json").read_text())["n_test"] == 48
    assert run_cli("export-labels", "--labels", snap, "--out", "labels.csv") == EXIT_OK
    assert (root / "labels.csv").exists()
    assert not (tmp_path / "reports").exists() and not (tmp_path / "labels.csv").exists()

    # input paths resolve under the root too, so relative paths chain
    assert run_cli("train", "--data", "nested/data", "--out", "run", "--method", "mslg",
                   *TRAIN_FAST) == EXIT_OK
    manifest = json.loads((root / "run" / "manifest.json").read_text())
    assert manifest["data"] == str(data)
    assert run_cli("eval", "--data", "nested/data", "--checkpoint", "run/model.ckpt",
                   "--labels", "run/labels.slbl", "--out", "run/report.json") == EXIT_OK
    assert "label_recovery_rate" in json.loads((root / "run" / "report.json").read_text())
    assert run_cli("export-labels", "--labels", "run/labels.slbl",
                   "--out", "run/labels2.csv") == EXIT_OK
    assert ((root / "run" / "labels2.csv").read_bytes()
            == (root / "run" / "labels.csv").read_bytes())
    assert not (tmp_path / "run").exists()


def test_sweep_under_relative_output_root(tmp_path, monkeypatch):
    # the cells' paths are already under the root and must not get it twice
    monkeypatch.setenv("MSLG_OUTPUT_ROOT", "outs")
    monkeypatch.chdir(tmp_path)
    assert run_cli("sweep", "--axis", "beta", "--values", "40", "--seeds", "0",
                   "--blobs", "n=150", "c=3", "d=2", "sep=6", "--noise", "uniform:0.2",
                   "--meta", "0.06", "--test", "0.2", *TRAIN_FAST,
                   "--total-epochs", "2", "--out", "sw") == EXIT_OK
    rows = (tmp_path / "outs" / "sw" / "runs.csv").read_text().splitlines()
    assert rows[1].split(",")[3] == "ok"
    assert not (tmp_path / "outs" / "outs").exists()


# -- train ----------------------------------------------------------------------------


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "d"
    assert run_cli(*GEN_SMALL, "--out", out) == EXIT_OK
    return out


def test_train_writes_all_artifacts(tmp_path, data_dir):
    out = tmp_path / "run"
    assert run_cli("train", "--data", data_dir, "--out", out,
                   "--method", "mslg", *TRAIN_FAST) == EXIT_OK
    for name in ("metrics.csv", "model.ckpt", "labels.slbl", "labels.csv",
                 "manifest.json", "last_good.ckpt", "last_good.slbl"):
        assert (out / name).exists(), name
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
    out = tmp_path / "run"
    # resolve the preset but run almost nothing: flags win over the preset
    assert run_cli("train", "--data", data_dir, "--out", out, "--method", "mslg",
                   "--preset", "cifar10-featdep", "--total-epochs", "2",
                   "--warmup-epochs", "1", "--batch-size", "64",
                   "--lambda-schedule", "0:0.01", "--hidden", "8") == EXIT_OK
    cfg = json.loads((out / "manifest.json").read_text())["config"]
    assert cfg["alpha"] == 0.5
    assert cfg["beta"] == 4000.0
    assert cfg["k_init"] == 10.0
    assert cfg["momentum"] == 0.9
    assert cfg["weight_decay"] == 1e-4
    # the flag overrides won
    assert cfg["total_epochs"] == 2 and cfg["warmup_epochs"] == 1


def test_train_config_file_between_preset_and_flags(tmp_path, data_dir):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("beta = 123.0\nentropy-weight = 0.5  # comment\n")
    out = tmp_path / "run"
    assert run_cli("train", "--data", data_dir, "--out", out, "--method", "mslg",
                   "--preset", "blobs-smoke", "--config", cfg_file,
                   "--entropy-weight", "0.75", "--total-epochs", "2",
                   "--warmup-epochs", "1", "--hidden", "8") == EXIT_OK
    cfg = json.loads((out / "manifest.json").read_text())["config"]
    assert cfg["beta"] == 123.0        # file beat the preset
    assert cfg["entropy_weight"] == 0.75  # flag beat the file


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


_BAD_VALUES = [
    # gen keys: --blobs/--spirals tokens, then flags
    *[("gen", (flag, f"{key}=x"), f"{flag}: bad value for '{key}'")
      for flag, key in [("--blobs", "n"), ("--blobs", "c"), ("--blobs", "d"),
                        ("--blobs", "sep"), ("--spirals", "noise_sd")]],
    ("gen", ("--spirals", "noise-sd=x"), "--spirals: bad value for 'noise_sd'"),
    ("gen", ("--noise", "uniform:abc"), "bad value for 'noise'"),
    ("gen", ("--noise", "gaussian:0.2"), "bad value for 'noise'"),
    ("gen", ("--meta", "abc"), "bad value for 'meta'"),
    ("gen", ("--test", "abc"), "bad value for 'test'"),
    ("gen", ("--seed", "abc"), "bad value for 'seed'"),
    ("gen", ("--probe-hidden", "x"), "bad value for 'probe_hidden'"),
    ("gen", ("--probe-epochs", "1.5"), "bad value for 'probe_epochs'"),
    # train: every TrainConfig flag, the run's own flags, and values that
    # parse but fail validation
    *[("train", (flag, "abc"), f"bad value for '{key}'")
      for flag, key in [("--alpha", "alpha"), ("--beta", "beta"), ("--k", "k_init"),
                        ("--lambda-schedule", "lambda_schedule"),
                        ("--batch-size", "batch_size"), ("--momentum", "momentum"),
                        ("--weight-decay", "weight_decay"),
                        ("--warmup-epochs", "warmup_epochs"),
                        ("--total-epochs", "total_epochs"),
                        ("--entropy-weight", "entropy_weight"), ("--seed", "seed"),
                        ("--hidden", "hidden_sizes"),
                        ("--snapshot-every", "snapshot_every")]],
    ("train", ("--lambda-schedule", "0"), "bad value for 'lambda_schedule'"),
    ("train", ("--alpha", "nan"), "alpha must be finite"),
    ("train", ("--momentum", "inf"), "momentum must be finite"),
    ("train", ("--lambda-schedule", "0:nan"), "lambda_schedule must be finite"),
    ("train", ("--hidden", "0"), "hidden_sizes must all be >= 1"),
    # sweep: its own keys, and gen and train keys it passes to its cells
    ("sweep", ("--values", "1,x"), "bad value for 'values'"),
    ("sweep", ("--seeds", "0,x"), "bad value for 'seeds'"),
    ("sweep", ("--blobs", "n=x"), "--blobs: bad value for 'n'"),
    ("sweep", ("--noise", "uniform:x"), "bad value for 'noise'"),
    ("sweep", ("--beta", "x"), "bad value for 'beta'"),
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


@pytest.mark.parametrize("argv", [
    ("sweep", "--axis", "beta", "--values", "1", "--seeds", "0", "--blobs", "n=150",
     "--seed", "1"),
    ("train", "--data", "d", "--snap", "1"),
])
def test_removed_or_abbreviated_flag_is_rejected(tmp_path, capsys, argv):
    # without allow_abbrev=False, sweep's --seed would mean --seeds
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--out", out)
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


# a value of every TrainConfig field, other than its default
_FIELD_VALUES = {
    "alpha": "0.25", "beta": "12.5", "lambda_schedule": "0:0.5,7:0.25",
    "k_init": "3.5", "batch_size": "16", "momentum": "0.5", "weight_decay": "0.001",
    "warmup_epochs": "3", "total_epochs": "50", "entropy_weight": "0.25",
    "seed": "9", "hidden_sizes": "8,4",
}


def _resolved(*argv):
    args = build_parser().parse_args(["train", "--data", "d", "--out", "o", *map(str, argv)])
    mslg.cli._parse_values(args)
    return mslg.cli._resolve_train_config(args)


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(TrainConfig)])
def test_train_flag_and_config_line_set_the_same_field(tmp_path, field):
    flag = {"k_init": "--k", "hidden_sizes": "--hidden"}.get(
        field, "--" + field.replace("_", "-"))
    value = _FIELD_VALUES[field]
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{field} = {value}\n")
    by_flag = _resolved(flag, value)
    assert by_flag == _resolved("--config", cfg_file)
    assert getattr(by_flag, field) != getattr(TrainConfig(), field)


def test_bad_config_file_value_names_key_and_line(tmp_path, data_dir, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("beta = 10\nalpha=abc\n")
    assert run_cli("train", "--data", data_dir, "--out", tmp_path / "run",
                   *TRAIN_FAST, "--config", cfg_file) == EXIT_CONFIG
    assert f"{cfg_file}:2: bad value for 'alpha'" in capsys.readouterr().err


@pytest.mark.parametrize("fault,message", [
    ("empty", "dataset.csv: empty file"),
    ("missing feature", "dataset.csv:4: 5 fields, header has 6"),
    ("non-numeric", "dataset.csv:6: 'f1': could not convert string to float: 'x'"),
])
def test_train_malformed_dataset_is_config_error(tmp_path, data_dir, capsys, fault, message):
    # file lines 4 and 6 are meta rows; a row short of one feature must not
    # load with its true label read as feature f1
    lines = (data_dir / "dataset.csv").read_text().splitlines()
    if fault == "empty":
        lines = []
    elif fault == "missing feature":
        cells = lines[3].split(",")
        del cells[2]
        lines[3] = ",".join(cells)
    else:
        cells = lines[5].split(",")
        cells[2] = "x"
        lines[5] = ",".join(cells)
    bad = tmp_path / "data"
    bad.mkdir()
    (bad / "manifest.json").write_bytes((data_dir / "manifest.json").read_bytes())
    (bad / "dataset.csv").write_text("".join(line + "\n" for line in lines))
    out = tmp_path / "run"
    assert run_cli("train", "--data", bad, "--out", out, *TRAIN_FAST) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


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


def test_train_snapshot_cadence(tmp_path, data_dir):
    out = tmp_path / "run"
    assert run_cli("train", "--data", data_dir, "--out", out, "--method", "ce",
                   *TRAIN_FAST, "--snapshot-every", "2") == EXIT_OK
    snaps = sorted(p.name for p in (out / "checkpoints").glob("*.ckpt"))
    assert snaps == ["epoch_0001.ckpt", "epoch_0003.ckpt", "epoch_0005.ckpt"]


def test_train_negative_snapshot_every_is_config_error(tmp_path, data_dir, capsys):
    out = tmp_path / "run"
    assert run_cli("train", "--data", data_dir, "--out", out, "--method", "ce",
                   *TRAIN_FAST, "--snapshot-every", "-1") == EXIT_CONFIG
    assert "--snapshot-every" in capsys.readouterr().err
    assert not (out / "last_good.ckpt").exists()
    assert not (out / "checkpoints").exists()


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


def test_eval_dimension_mismatch_is_config_error(tmp_path, data_dir):
    model = Mlp((5, 3))
    ckpt = tmp_path / "bad.ckpt"
    model.save(ckpt)
    assert run_cli("eval", "--data", data_dir, "--checkpoint", ckpt) == EXIT_CONFIG
    model = Mlp((2, 7))
    model.save(ckpt)
    assert run_cli("eval", "--data", data_dir, "--checkpoint", ckpt) == EXIT_CONFIG


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
    # second value is an invalid noise ratio: that cell fails, sweep keeps going
    assert run_cli("sweep", "--axis", "noise_ratio", "--values", "0.2,1.5",
                   "--seeds", "0", "--blobs", "n=150", "c=3", "d=2", "sep=6",
                   "--noise", "uniform:0.2", "--meta", "0.06", "--test", "0.2",
                   "--method", "mslg", *TRAIN_FAST, "--out", out) == EXIT_OK
    rows = (out / "runs.csv").read_text().strip().splitlines()[1:]
    statuses = [row.split(",")[3] for row in rows]
    assert statuses[0] == "ok"
    assert statuses[1].startswith("error")


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
