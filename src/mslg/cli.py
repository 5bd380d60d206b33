"""Experiment command line: generate data, train, evaluate, sweep.

Subcommands: gen | train | eval | sweep | export-labels.

Every run directory gets a manifest.json carrying the fully resolved
configuration and seeds, sufficient to reproduce the run bit for bit.
Training-config resolution order: preset, then config file (key=value lines),
then command-line flags; later wins.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 numerical abort
(a non-finite loss or gradient; the rolling last_good checkpoint survives).

If MSLG_OUTPUT_ROOT is set, relative --out paths are created under it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .datasets import (
    LabeledDataset,
    ProbeConfig,
    gen_blobs,
    gen_spirals,
    inject_feature_dependent,
    inject_uniform,
    load_dataset_csv,
    load_idx_images,
    save_dataset_csv,
    split,
)
from .model import Mlp, NumericalError
from .presets import preset_names, resolve_preset
from .rng import Rng
from .soft_labels import SoftLabelStore
from .trainer import (
    TrainConfig,
    accuracy,
    metrics_csv_header,
    metrics_csv_row,
    recovery_rate,
    train,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

# keyed child streams of the gen seed
_GEN_DATA = 10
_GEN_SPLIT = 11
_GEN_NOISE = 12


def _out_dir(path_str: str) -> Path:
    path = Path(path_str)
    root = os.environ.get("MSLG_OUTPUT_ROOT")
    if root and not path.is_absolute():
        path = Path(root) / path
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_kv(tokens: list[str], what: str) -> dict[str, str]:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ValueError(f"{what}: expected key=value, got {tok!r}")
        key, value = tok.split("=", 1)
        out[key.replace("-", "_")] = value
    return out


def _parse_noise(spec: str) -> tuple[str, float]:
    if spec in ("none", ""):
        return "none", 0.0
    if ":" not in spec:
        raise ValueError(f"--noise expects kind:ratio, got {spec!r}")
    kind, ratio = spec.split(":", 1)
    if kind not in ("uniform", "feature_dependent"):
        raise ValueError(f"unknown noise kind {kind!r}")
    return kind, float(ratio)


def _parse_schedule(spec: str) -> tuple[tuple[int, float], ...]:
    pairs = []
    for item in spec.split(","):
        epoch, lr = item.split(":")
        pairs.append((int(epoch), float(lr)))
    return tuple(pairs)


def _parse_hidden(spec: str) -> tuple[int, ...]:
    return tuple(int(v) for v in spec.split(",") if v)


# -- dataset generation ------------------------------------------------------------


def _generate_dataset(args) -> tuple[dict[str, LabeledDataset], dict]:
    seed = args.seed
    rng = Rng(seed)
    if args.blobs:
        kv = _parse_kv(args.blobs, "--blobs")
        n = int(kv.get("n", 2000))
        c = int(kv.get("c", 4))
        d = int(kv.get("d", 2))
        sep = float(kv.get("sep", kv.get("separation", 6.0)))
        ds = gen_blobs(n, c, d, sep, rng.child(_GEN_DATA))
        source = {"generator": "blobs", "n": n, "c": c, "d": d, "separation": sep}
    elif args.spirals:
        kv = _parse_kv(args.spirals, "--spirals")
        n = int(kv.get("n", 600))
        c = int(kv.get("c", 3))
        sd = float(kv.get("noise_sd", 0.03))
        ds = gen_spirals(n, c, sd, rng.child(_GEN_DATA))
        source = {"generator": "spirals", "n": n, "c": c, "noise_sd": sd}
    elif args.idx_images:
        if not args.idx_labels:
            raise ValueError("--idx-images requires --idx-labels")
        ds = load_idx_images(args.idx_images, args.idx_labels)
        source = {"generator": "idx", "images": str(args.idx_images),
                  "labels": str(args.idx_labels)}
    else:
        raise ValueError("choose a source: --blobs, --spirals, or --idx-images")

    train_ds, meta_ds, test_ds = split(ds, args.meta, args.test, rng.child(_GEN_SPLIT))

    kind, ratio = _parse_noise(args.noise)
    if kind == "uniform":
        train_ds = inject_uniform(train_ds, ratio, rng.child(_GEN_NOISE))
    elif kind == "feature_dependent":
        probe = ProbeConfig(hidden_sizes=_parse_hidden(args.probe_hidden),
                            epochs=args.probe_epochs)
        train_ds = inject_feature_dependent(train_ds, ratio, probe,
                                            rng.child(_GEN_NOISE))

    manifest = {
        "command": "gen",
        "version": __version__,
        "seed": seed,
        "source": source,
        "noise": {"kind": kind, "ratio": ratio},
        "meta_fraction": args.meta,
        "test_fraction": args.test,
        "num_classes": train_ds.num_classes,
        "dim": train_ds.dim,
        "sizes": {"train": train_ds.n, "meta": meta_ds.n, "test": test_ds.n},
        "corrupted": int(train_ds.corrupted_mask().sum()),
    }
    return {"train": train_ds, "meta": meta_ds, "test": test_ds}, manifest


def cmd_gen(args) -> int:
    out = _out_dir(args.out)
    splits, manifest = _generate_dataset(args)
    save_dataset_csv(out / "dataset.csv", splits)
    _write_json(out / "manifest.json", manifest)
    print(f"wrote {out / 'dataset.csv'} "
          f"(train {splits['train'].n}, meta {splits['meta'].n}, "
          f"test {splits['test'].n}, corrupted {manifest['corrupted']})")
    return EXIT_OK


# -- training ---------------------------------------------------------------------


_CONFIG_FIELD_PARSERS = {
    "alpha": float,
    "beta": float,
    "lambda_schedule": _parse_schedule,
    "k_init": float,
    "batch_size": int,
    "momentum": float,
    "weight_decay": float,
    "warmup_epochs": int,
    "total_epochs": int,
    "entropy_weight": float,
    "seed": int,
    "hidden_sizes": _parse_hidden,
}


def _read_config_file(path) -> dict:
    overrides = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in _CONFIG_FIELD_PARSERS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            overrides[key] = _CONFIG_FIELD_PARSERS[key](value)
    return overrides


def _resolve_train_config(args) -> TrainConfig:
    cfg = resolve_preset(args.preset) if args.preset else TrainConfig()
    overrides: dict = {}
    if args.config:
        overrides.update(_read_config_file(args.config))
    for field, parser in _CONFIG_FIELD_PARSERS.items():
        value = getattr(args, field, None)
        if value is not None:
            overrides[field] = parser(value) if isinstance(value, str) else value
    cfg = dataclasses.replace(cfg, **overrides)
    if args.method == "ce":
        cfg = dataclasses.replace(cfg, warmup_epochs=cfg.total_epochs)
    cfg.validate()
    return cfg


def _config_manifest(cfg: TrainConfig) -> dict:
    payload = dataclasses.asdict(cfg)
    payload["lambda_schedule"] = [list(pair) for pair in cfg.lambda_schedule]
    payload["hidden_sizes"] = list(cfg.hidden_sizes)
    return payload


def _load_splits(data_dir: Path) -> tuple[dict[str, LabeledDataset], dict]:
    manifest_path = data_dir / "manifest.json"
    data_manifest = {}
    num_classes = None
    if manifest_path.exists():
        with open(manifest_path, "r", encoding="utf-8") as fh:
            data_manifest = json.load(fh)
        num_classes = data_manifest.get("num_classes")
    splits = load_dataset_csv(data_dir / "dataset.csv", num_classes)
    for tag in ("train", "meta", "test"):
        if tag not in splits:
            raise ValueError(f"{data_dir}/dataset.csv has no '{tag}' split")
    return splits, data_manifest


def cmd_train(args) -> int:
    data_dir = Path(args.data)
    out = _out_dir(args.out)
    cfg = _resolve_train_config(args)
    splits, data_manifest = _load_splits(data_dir)

    manifest = {
        "command": "train",
        "version": __version__,
        "method": args.method,
        "preset": args.preset,
        "data": str(data_dir),
        "config": _config_manifest(cfg),
        "data_manifest": data_manifest,
    }
    _write_json(out / "manifest.json", manifest)

    metrics_path = out / "metrics.csv"
    with open(metrics_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(metrics_csv_header())

    snapshot_dir = out / "checkpoints"

    def on_epoch(epoch, model, store, metrics):
        with open(metrics_path, "a", encoding="utf-8", newline="") as fh:
            fh.write(metrics_csv_row(metrics))
        model.save(out / "last_good.ckpt")
        store.save(out / "last_good.slbl")
        if args.snapshot_every and (epoch + 1) % args.snapshot_every == 0:
            snapshot_dir.mkdir(exist_ok=True)
            model.save(snapshot_dir / f"epoch_{epoch:04d}.ckpt")
            store.save(snapshot_dir / f"epoch_{epoch:04d}.slbl")

    try:
        model, store, history = train(splits["train"], splits["meta"], cfg,
                                      splits["test"], epoch_callback=on_epoch)
    except NumericalError:
        print(f"numerical abort; last good checkpoint kept in {out}",
              file=sys.stderr)
        raise

    model.save(out / "model.ckpt")
    store.save(out / "labels.slbl")
    store.export_csv(out / "labels.csv")
    last = history[-1] if history else None
    if last is not None:
        print(f"done: {len(history)} epochs, test accuracy "
              f"{last.test_accuracy:.4f}, label recovery "
              f"{last.label_recovery_rate:.4f} -> {out}")
    return EXIT_OK


# -- evaluation --------------------------------------------------------------------


def _confusion(model: Mlp, ds: LabeledDataset) -> list[list[int]]:
    preds = model.predict(ds.features).argmax(axis=1)
    c = ds.num_classes
    mat = np.zeros((c, c), dtype=np.int64)
    for t, p in zip(ds.true_labels, preds):
        mat[t, p] += 1
    return mat.tolist()


def build_eval_report(model: Mlp, store: SoftLabelStore | None,
                      splits: dict[str, LabeledDataset]) -> dict:
    test_ds = splits["test"]
    train_ds = splits["train"]
    if test_ds.dim != model.layer_sizes[0]:
        raise ValueError(
            f"checkpoint expects {model.layer_sizes[0]} features, "
            f"dataset has {test_ds.dim}")
    if test_ds.num_classes != model.layer_sizes[-1]:
        raise ValueError(
            f"checkpoint has {model.layer_sizes[-1]} classes, "
            f"dataset has {test_ds.num_classes}")
    report = {
        "test_accuracy": accuracy(model, test_ds),
        "confusion_matrix": _confusion(model, test_ds),
        "n_test": test_ds.n,
        "n_train": train_ds.n,
        "n_corrupted": int(train_ds.corrupted_mask().sum()),
    }
    if store is not None:
        if store.n != train_ds.n or store.num_classes != train_ds.num_classes:
            raise ValueError(
                f"label snapshot shape ({store.n}, {store.num_classes}) does not "
                f"match train split ({train_ds.n}, {train_ds.num_classes})")
        report["label_recovery_rate"] = recovery_rate(store, train_ds)
        # flag a sample as noisy when its learned label disagrees with the
        # given one; score the flags against the hidden corruption mask
        flagged = store.soft_labels().argmax(axis=1) != train_ds.noisy_labels
        truly = train_ds.corrupted_mask()
        hits = int(np.sum(flagged & truly))
        report["noise_flagged"] = int(flagged.sum())
        report["noise_flag_precision"] = hits / flagged.sum() if flagged.any() else 0.0
        report["noise_flag_recall"] = hits / truly.sum() if truly.any() else 0.0
    return report


def cmd_eval(args) -> int:
    splits, _ = _load_splits(Path(args.data))
    model = Mlp.load(args.checkpoint)
    store = SoftLabelStore.load(args.labels) if args.labels else None
    report = build_eval_report(model, store, splits)
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out:
        out_path = Path(args.out)
        if out_path.parent != Path("."):
            out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(text + "\n", encoding="utf-8")
    return EXIT_OK


# -- sweeps ------------------------------------------------------------------------


_SWEEP_AXES = ("meta_fraction", "noise_ratio", "beta")


def _sweep_cell(args, axis: str, value: float, seed: int, cell_dir: Path) -> dict:
    gen_args = argparse.Namespace(
        out=str(cell_dir / "data"),
        blobs=args.blobs, spirals=args.spirals,
        idx_images=args.idx_images, idx_labels=args.idx_labels,
        noise=args.noise, meta=args.meta, test=args.test, seed=seed,
        probe_hidden=args.probe_hidden, probe_epochs=args.probe_epochs,
    )
    if axis == "meta_fraction":
        gen_args.meta = value
    elif axis == "noise_ratio":
        kind, _ = _parse_noise(args.noise)
        if kind == "none":
            raise ValueError("noise_ratio sweep needs --noise kind:ratio")
        gen_args.noise = f"{kind}:{value}"
    cmd_gen(gen_args)

    train_args = argparse.Namespace(
        data=str(cell_dir / "data"), out=str(cell_dir / "run"),
        method=args.method, preset=args.preset, config=args.config,
        snapshot_every=0,
        **{field: getattr(args, field, None) for field in _CONFIG_FIELD_PARSERS},
    )
    train_args.seed = seed
    if axis == "beta":
        train_args.beta = value
    cmd_train(train_args)

    splits, _ = _load_splits(cell_dir / "data")
    model = Mlp.load(cell_dir / "run" / "model.ckpt")
    store = SoftLabelStore.load(cell_dir / "run" / "labels.slbl")
    return build_eval_report(model, store, splits)


def cmd_sweep(args) -> int:
    if args.axis not in _SWEEP_AXES:
        raise ValueError(f"--axis must be one of {_SWEEP_AXES}, got {args.axis!r}")
    values = [float(v) for v in args.values.split(",") if v]
    seeds = [int(s) for s in args.seeds.split(",") if s]
    if not values or not seeds:
        raise ValueError("--values and --seeds must be non-empty")
    out = _out_dir(args.out)

    rows = []
    for value in values:
        for seed in seeds:
            cell_dir = out / "cells" / f"{args.axis}={value:g}" / f"seed{seed}"
            try:
                report = _sweep_cell(args, args.axis, value, seed, cell_dir)
                rows.append({
                    "axis": args.axis, "value": value, "seed": seed,
                    "status": "ok",
                    "test_accuracy": report["test_accuracy"],
                    "label_recovery_rate": report.get("label_recovery_rate", 0.0),
                })
            except (ValueError, OSError, NumericalError) as exc:
                rows.append({"axis": args.axis, "value": value, "seed": seed,
                             "status": f"error: {exc}", "test_accuracy": "",
                             "label_recovery_rate": ""})

    with open(out / "runs.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("axis,value,seed,status,test_accuracy,label_recovery_rate\n")
        for r in rows:
            acc = repr(r["test_accuracy"]) if r["status"] == "ok" else ""
            rec = repr(r["label_recovery_rate"]) if r["status"] == "ok" else ""
            status = str(r["status"]).replace(",", ";")
            fh.write(f"{r['axis']},{r['value']:g},{r['seed']},{status},{acc},{rec}\n")

    with open(out / "summary.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("axis,value,n_ok,accuracy_mean,accuracy_sd,recovery_mean,recovery_sd\n")
        for value in values:
            ok = [r for r in rows if r["value"] == value and r["status"] == "ok"]
            accs = np.array([r["test_accuracy"] for r in ok], dtype=np.float64)
            recs = np.array([r["label_recovery_rate"] for r in ok], dtype=np.float64)
            if len(ok):
                fh.write(f"{args.axis},{value:g},{len(ok)},{float(accs.mean())!r},"
                         f"{float(accs.std())!r},{float(recs.mean())!r},{float(recs.std())!r}\n")
            else:
                fh.write(f"{args.axis},{value:g},0,,,,\n")

    n_ok = sum(1 for r in rows if r["status"] == "ok")
    print(f"sweep finished: {n_ok}/{len(rows)} runs ok -> {out / 'summary.csv'}")
    return EXIT_OK


def cmd_export_labels(args) -> int:
    store = SoftLabelStore.load(args.labels)
    out_path = Path(args.out)
    if str(out_path.parent) not in (".", ""):
        out_path.parent.mkdir(parents=True, exist_ok=True)
    store.export_csv(out_path)
    print(f"wrote {out_path} ({store.n} rows, {store.num_classes} classes)")
    return EXIT_OK


# -- argument wiring -----------------------------------------------------------------


def _add_source_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--blobs", nargs="+", metavar="K=V",
                   help="gaussian clusters: n= c= d= sep=")
    p.add_argument("--spirals", nargs="+", metavar="K=V",
                   help="interleaved spirals: n= c= noise-sd=")
    p.add_argument("--idx-images", help="IDX image file")
    p.add_argument("--idx-labels", help="IDX label file")
    p.add_argument("--noise", default="none", metavar="KIND:RATIO",
                   help="uniform:R | feature_dependent:R | none")
    p.add_argument("--meta", type=float, default=0.02,
                   help="meta fraction (clean holdout)")
    p.add_argument("--test", type=float, default=0.25, help="test fraction")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--probe-hidden", default="16",
                   help="probe hidden sizes for feature-dependent noise")
    p.add_argument("--probe-epochs", type=int, default=30)


def _add_train_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", choices=("ce", "mslg"), default="mslg")
    p.add_argument("--preset", help=f"one of: {', '.join(preset_names())}")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--lambda-schedule", dest="lambda_schedule",
                   metavar="E:LR,E:LR", help="e.g. 0:0.02,30:0.005")
    p.add_argument("--k", dest="k_init", type=float, help="label logit init scale")
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--momentum", type=float)
    p.add_argument("--weight-decay", dest="weight_decay", type=float)
    p.add_argument("--warmup-epochs", dest="warmup_epochs", type=int)
    p.add_argument("--total-epochs", dest="total_epochs", type=int)
    p.add_argument("--entropy-weight", dest="entropy_weight", type=float)
    p.add_argument("--hidden", dest="hidden_sizes", metavar="H,H",
                   help="hidden layer widths, e.g. 32,32")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mslg",
        description="soft-label generation under label noise: desk-scale experiments")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a dataset with splits and noise")
    _add_source_args(p_gen)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_train = sub.add_parser("train", help="train the CE baseline or the label cleaner")
    p_train.add_argument("--data", required=True, help="directory from `gen`")
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--snapshot-every", dest="snapshot_every", type=int,
                         default=0, metavar="N",
                         help="write checkpoint+labels every N epochs")
    _add_train_config_args(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="report accuracy/recovery for a run")
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--labels", help="label snapshot (.slbl)")
    p_eval.add_argument("--out", help="write the JSON report here too")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="cross-product runs over one axis")
    _add_source_args(p_sweep)
    _add_train_config_args(p_sweep)
    p_sweep.add_argument("--axis", required=True,
                         help="meta_fraction | noise_ratio | beta")
    p_sweep.add_argument("--values", required=True, metavar="V,V,...")
    p_sweep.add_argument("--seeds", required=True, metavar="S,S,...")
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_export = sub.add_parser("export-labels", help="label snapshot -> CSV")
    p_export.add_argument("--labels", required=True)
    p_export.add_argument("--out", required=True)
    p_export.set_defaults(func=cmd_export_labels)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericalError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
