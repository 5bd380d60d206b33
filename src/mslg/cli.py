"""Experiment command line: generate data, train, evaluate, sweep.

Subcommands: gen | train | eval | sweep | export-labels.

Every run directory gets a manifest.json carrying the fully resolved
configuration and seeds, sufficient to reproduce the run bit for bit on the
same numpy and BLAS build and CPU code path, and the sha256 of the train split
it read; `eval` refuses a checkpoint or a label snapshot that sits beside such
a manifest when --data holds a different train split. Every path is used as
given, relative to the working directory.
Training-config resolution order: preset, then command-line flags; later wins.

Each value (flag or --blobs token) is parsed once, by its key in `_PARSERS`,
before a command runs; a bad one, such as a float that is not finite or an
empty item in a non-empty comma list, is a configuration error naming the key.
--blobs tokens are key=value items, so an unknown or repeated key is an error
naming the flag. Data comes from one source, --blobs or the --idx-* pair.
Flags must be spelled in full. Seeds are non-negative, and no two sweep cells
may share a directory. `gen` generates its data, and `sweep` generates each
value's data for its first seed and resolves its training configuration,
before creating --out. A manifest.json must hold a JSON object.

Each command writes only into a directory that it owns or that no command
owns. `gen` owns one that holds a dataset.csv or whose manifest records
"command": "gen", and `train` one whose manifest records "train"; `sweep`,
`eval` and `export-labels` own none. No --out may lie under an existing file,
nor may an --out directory be one or an --out file one of the command's own
inputs. Each refusal comes before anything is written, and `eval` and
`export-labels` check --out before they read anything. `train` writes every
file beside its manifest, and a rerun first removes the previous run's model,
labels and last_good pair, with any temp file a killed write left.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 numerical abort
(a non-finite loss or gradient in training; the rolling last_good checkpoint
survives). A checkpoint or label snapshot that holds a non-finite value is a
configuration error naming the file, and a size whose arrays no memory holds is
one naming the allocation; `sweep` records each of these in its failed cell's row.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .atomic import atomic_write
from .datasets import (
    LabeledDataset,
    gen_blobs,
    inject_feature_dependent,
    inject_uniform,
    load_dataset_csv,
    load_idx_images,
    save_dataset_csv,
    split,
)
from .model import Mlp, NumericalError
from .presets import PRESETS
from .rng import GEN_DATA, GEN_NOISE, GEN_SPLIT, Rng
from .soft_labels import SoftLabelStore
from .trainer import (
    RunState,
    TrainConfig,
    epochs,
    metrics_csv_header,
    metrics_csv_row,
    recovery_rate,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

# the errors that end a command, with the exit code and the words that `main`
# prints before them; a sweep records them in the failed cell's row instead
_ENDINGS = {ValueError: (EXIT_CONFIG, "config error"), MemoryError: (EXIT_CONFIG, "config error"),
            OSError: (EXIT_IO, "io error"), NumericalError: (EXIT_NUMERIC, "numerical abort")}


def _owner(directory: Path) -> str | None:
    """The command whose output `directory` holds: `gen` when it holds a
    dataset.csv, else the command its manifest.json records, if any."""
    if (directory / "dataset.csv").is_file():
        return "gen"
    manifest = directory / "manifest.json"
    return _read_manifest(manifest).get("command") if manifest.is_file() else None


def _check_owner(out: Path, directory: Path, command: str | None) -> None:
    """An error naming --out `out` when an existing file lies in `directory`'s
    path, or when a command other than `command` owns `directory`."""
    blocker = next((p for p in [directory, *directory.parents] if p.exists() and not p.is_dir()),
                   None)
    if blocker is not None:
        raise ValueError(f"--out {out}: {blocker} is not a directory")
    owner = _owner(directory.resolve())
    if owner is not None and owner != command:
        raise ValueError(f"--out: {directory.resolve()} holds the output of `{owner}`; "
                         f"only `{owner}` writes there")


def _out_dir(path_str: str | Path, command: str) -> Path:
    """An --out directory, checked by `_check_owner` before anything is
    written; created."""
    path = Path(path_str)
    _check_owner(path, path, command)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _out_file(path_str: str | Path, *inputs) -> Path:
    """An --out file, not a directory, in a directory that the write creates
    and that `_check_owner` accepts for no command. One of the command's own
    `inputs` is an error. The checks come before anything is read or
    written."""
    path = Path(path_str)
    if path.is_dir():
        raise ValueError(f"--out {path} is a directory; expected a file path")
    _check_owner(path, path.parent, None)
    if any(path.resolve() == Path(i).resolve() for i in inputs if i):
        raise ValueError(f"--out {path} is also an input of this command")
    return path


def _write_json(path: Path, payload: dict) -> None:
    with atomic_write(path) as fh:
        fh.write((json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def _one_of(*choices: str):
    def parse(value: str) -> str:
        if value not in choices:
            raise ValueError(f"expected one of {' | '.join(choices)}, got {value!r}")
        return value
    return parse


def _non_negative_int(value: str) -> int:
    number = int(value)
    if number < 0:
        raise ValueError(f"expected a non-negative integer, got {number}")
    return number


def _finite_float(value: str) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {number}")
    return number


def _parse_noise(spec: str) -> tuple[str, float]:
    if spec in ("none", ""):
        return "none", 0.0
    if ":" not in spec:
        raise ValueError(f"--noise expects kind:ratio, got {spec!r}")
    kind, ratio = spec.split(":", 1)
    return _one_of("uniform", "feature_dependent")(kind), _finite_float(ratio)


def _epoch_rate(item: str) -> tuple[int, float]:
    if item.count(":") != 1:
        raise ValueError(f"expected epoch:rate, got {item!r}")
    epoch, rate = item.split(":")
    return int(epoch), float(rate)


def _comma_list(item):
    return lambda spec: tuple(item(v) for v in spec.split(",")) if spec else ()


_METHODS = ("ce", "mslg")
_SWEEP_AXES = ("meta_fraction", "noise_ratio", "beta")
_TRAIN_KEYS = tuple(f.name for f in dataclasses.fields(TrainConfig))

# every value's parser, by key: TrainConfig's fields (a scalar parses as the
# type of its default), then gen's --blobs keys and flags, then
# train's and sweep's own
_PARSERS = {
    **{f.name: {"lambda_schedule": _comma_list(_epoch_rate), "hidden_sizes": _comma_list(int),
                "seed": _non_negative_int}.get(f.name, type(f.default))
       for f in dataclasses.fields(TrainConfig)},
    "n": int, "c": int, "d": int, "sep": _finite_float,
    "noise": _parse_noise, "meta": _finite_float, "test": _finite_float,
    "method": _one_of(*_METHODS), "axis": _one_of(*_SWEEP_AXES),
    "preset": _one_of(*sorted(PRESETS)),
    "values": _comma_list(_finite_float), "seeds": _comma_list(_non_negative_int),
}

# the keys --blobs accepts
_BLOBS_KEYS = ("n", "c", "d", "sep")


def _parse_field(key: str, value: str, where: str = ""):
    """A value through its key's parser; an error names `where` and the key."""
    try:
        return _PARSERS[key](value)
    except ValueError as exc:
        raise ValueError(f"{where}bad value for {key!r}: {exc}") from None


def _parse_blobs(tokens) -> dict:
    """--blobs "key=value" tokens as {key: parsed value}; an error names the
    flag. A key given twice is an error."""
    out = {}
    for token in tokens:
        if "=" not in token:
            raise ValueError(f"--blobs: expected key=value, got {token!r}")
        key, value = token.split("=", 1)
        if key not in _BLOBS_KEYS:
            raise ValueError(f"--blobs: unknown key {key!r}; accepted: {' '.join(_BLOBS_KEYS)}")
        if key in out:
            raise ValueError(f"--blobs: key {key!r} given more than once")
        out[key] = _parse_field(key, value, "--blobs: ")
    return out


def _parse_values(args: argparse.Namespace) -> None:
    """Parse, in place, each value in `args` that has a parser."""
    for key, value in list(vars(args).items()):
        if value is not None and key == "blobs":
            setattr(args, key, _parse_blobs(value))
        elif value is not None and key in _PARSERS:
            setattr(args, key, _parse_field(key, value))


# -- dataset generation ------------------------------------------------------------


def _source(args) -> tuple[LabeledDataset, dict]:
    """The clean dataset of --blobs or --idx-*, and its manifest entry."""
    if args.blobs and (args.idx_images or args.idx_labels):
        raise ValueError("two sources: --blobs and --idx-images/--idx-labels; choose one")
    if args.blobs:
        kv = args.blobs
        n, c, d = kv.get("n", 2000), kv.get("c", 4), kv.get("d", 2)
        sep = kv.get("sep", 6.0)
        ds = gen_blobs(n, c, d, sep, Rng(args.seed, GEN_DATA))
        source = {"generator": "blobs", "n": n, "c": c, "d": d, "separation": sep}
    elif args.idx_images or args.idx_labels:
        if not (args.idx_images and args.idx_labels):
            raise ValueError("--idx-images requires --idx-labels, and vice versa")
        ds = load_idx_images(args.idx_images, args.idx_labels)
        source = {"generator": "idx", "images": str(args.idx_images),
                  "labels": str(args.idx_labels)}
    else:
        raise ValueError("choose a source: --blobs or --idx-images")
    return ds, source


def _generate_dataset(args) -> tuple[dict[str, LabeledDataset], dict]:
    seed = args.seed
    ds, source = _source(args)
    train_ds, meta_ds, test_ds = split(ds, args.meta, args.test, Rng(seed, GEN_SPLIT))

    kind, ratio = args.noise
    if kind == "uniform":
        train_ds = inject_uniform(train_ds, ratio, Rng(seed, GEN_NOISE))
    elif kind == "feature_dependent":
        train_ds = inject_feature_dependent(train_ds, ratio, seed)

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
    splits, manifest = _generate_dataset(args)
    out = _out_dir(args.out, "gen")
    save_dataset_csv(out / "dataset.csv", splits)
    _write_json(out / "manifest.json", manifest)
    print(f"wrote {out / 'dataset.csv'} "
          f"(train {splits['train'].n}, meta {splits['meta'].n}, "
          f"test {splits['test'].n}, corrupted {manifest['corrupted']})")
    return EXIT_OK


# -- training ---------------------------------------------------------------------


def _resolve_train_config(args) -> TrainConfig:
    base = PRESETS[args.preset] if args.preset else TrainConfig()
    flags = {key: getattr(args, key) for key in _TRAIN_KEYS if getattr(args, key) is not None}
    if args.method == "ce":
        flags["warmup_epochs"] = flags.get("total_epochs", base.total_epochs)
    return dataclasses.replace(base, **flags)


def _read_manifest(path: Path) -> dict:
    """A manifest.json's JSON object; anything else is an error naming `path`."""
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"{path}: not a JSON manifest: {exc}") from None
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(manifest).__name__}")
    return manifest


def _load_splits(data_dir: Path) -> tuple[dict[str, LabeledDataset], dict]:
    manifest_path = data_dir / "manifest.json"
    data_manifest = _read_manifest(manifest_path) if manifest_path.exists() else {}
    # absent or null: inferred from the labels
    num_classes = data_manifest.get("num_classes")
    if num_classes is not None and (type(num_classes) is not int or num_classes < 1):
        raise ValueError(f"{manifest_path}: num_classes must be an integer >= 1, "
                         f"got {num_classes!r}")
    splits = load_dataset_csv(data_dir / "dataset.csv", num_classes)
    for tag in ("train", "meta", "test"):
        if tag not in splits:
            raise ValueError(f"{data_dir}/dataset.csv has no '{tag}' split")
    return splits, data_manifest


# what `train` writes beside its manifest.json and metrics.csv, with the
# `.tmp` files of a write that was killed
_RUN_FILES = ("model.ckpt*", "labels.slbl*", "last_good.*")


def cmd_train(args) -> int:
    cfg = _resolve_train_config(args)
    data_dir = Path(args.data)
    splits, data_manifest = _load_splits(data_dir)
    out = _out_dir(args.out, "train")
    for pattern in _RUN_FILES:  # a previous run's, so none outlives its manifest
        for stale in out.glob(pattern):
            stale.unlink()

    manifest = {
        "command": "train",
        "version": __version__,
        "method": args.method,
        "preset": args.preset,
        "data": str(data_dir),
        "train_sha256": splits["train"].fingerprint(),
        "config": dataclasses.asdict(cfg),
        "data_manifest": data_manifest,
    }
    _write_json(out / "manifest.json", manifest)

    state = RunState.initial(cfg, splits["train"])
    slbl_version = -1  # the store version last_good.slbl holds
    # one line-buffered handle: each row reaches the OS as its epoch ends
    with open(out / "metrics.csv", "w", encoding="utf-8", newline="", buffering=1) as metrics_csv:
        metrics_csv.write(metrics_csv_header())
        try:
            for last in epochs(state, cfg, splits["train"], splits["meta"], splits["test"]):
                metrics_csv.write(metrics_csv_row(last))
                state.model.save(out / "last_good.ckpt")
                if state.store.version != slbl_version:  # else the file holds these labels
                    state.store.save(out / "last_good.slbl")
                    slbl_version = state.store.version
        except NumericalError:
            print(f"numerical abort; last good checkpoint kept in {out}", file=sys.stderr)
            raise

    state.model.save(out / "model.ckpt")
    state.store.save(out / "labels.slbl")
    if state.epoch > 0:  # `last` holds the final epoch's metrics
        print(f"done: {state.epoch} epochs, test accuracy {last.test_accuracy:.4f}, "
              f"label recovery {last.label_recovery_rate:.4f} -> {out}")
    return EXIT_OK


# -- evaluation --------------------------------------------------------------------


def _confusion(model: Mlp, ds: LabeledDataset) -> np.ndarray:
    preds = model.predict(ds.features).argmax(axis=1)
    c = ds.num_classes
    return np.bincount(ds.true_labels * c + preds, minlength=c * c).reshape(c, c)


def build_eval_report(model: Mlp, store: SoftLabelStore | None,
                      splits: dict[str, LabeledDataset]) -> dict:
    test_ds = splits["test"]
    train_ds = splits["train"]
    if test_ds.num_classes != model.layer_sizes[-1]:
        raise ValueError(
            f"checkpoint has {model.layer_sizes[-1]} classes, "
            f"dataset has {test_ds.num_classes}")
    confusion = _confusion(model, test_ds)
    report = {
        "test_accuracy": int(np.trace(confusion)) / test_ds.n,
        "confusion_matrix": confusion.tolist(),
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


def _check_trained_on(train_ds: LabeledDataset, data_dir: Path, *artifacts) -> None:
    """When the directory of the checkpoint or of the label snapshot holds its
    run manifest, the train split must be the one that run trained on."""
    actual = train_ds.fingerprint()
    for manifest in dict.fromkeys(Path(a).parent / "manifest.json" for a in artifacts if a):
        recorded = _read_manifest(manifest).get("train_sha256") if manifest.is_file() else None
        if recorded is not None and recorded != actual:
            raise ValueError(f"{data_dir}: train split sha256 {actual} differs from "
                             f"{recorded}, recorded in {manifest}")


def _eval_report(data, checkpoint, labels) -> dict:
    data_dir = Path(data)
    splits, _ = _load_splits(data_dir)
    _check_trained_on(splits["train"], data_dir, checkpoint, labels)
    model = Mlp.load(checkpoint)
    store = SoftLabelStore.load(labels) if labels else None
    return build_eval_report(model, store, splits)


def cmd_eval(args) -> int:
    out = _out_file(args.out, args.checkpoint, args.labels) if args.out else None
    report = _eval_report(args.data, args.checkpoint, args.labels)
    print(json.dumps(report, indent=2, sort_keys=True))
    if out:
        out.parent.mkdir(parents=True, exist_ok=True)
        _write_json(out, report)
    return EXIT_OK


# -- sweeps ------------------------------------------------------------------------


def _cell_args(args, value: float, seed: int) -> argparse.Namespace:
    """The sweep's own flags, but for one cell's seed and swept value."""
    cell = argparse.Namespace(**vars(args))
    cell.seed = seed
    if args.axis == "meta_fraction":
        cell.meta = value
    elif args.axis == "noise_ratio":
        cell.noise = (args.noise[0], value)
    else:
        cell.beta = value
    return cell


def _sweep_cell(cell: argparse.Namespace, cell_dir: Path) -> dict:
    """gen, train and eval of one cell."""
    cell.out = cell.data = str(cell_dir / "data")
    cmd_gen(cell)
    cell.out = str(cell_dir / "run")
    cmd_train(cell)
    return _eval_report(cell.data, cell_dir / "run" / "model.ckpt",
                        cell_dir / "run" / "labels.slbl")


def cmd_sweep(args) -> int:
    if not args.values or not args.seeds:
        raise ValueError("--values and --seeds must be non-empty")
    cells = [f"{args.axis}={value:g}" for value in args.values]
    if len(set(cells)) < len(cells):
        raise ValueError(f"--values must give distinct cells, got {' '.join(cells)}")
    if len(set(args.seeds)) < len(args.seeds):
        raise ValueError(f"--seeds must be distinct, got {','.join(map(str, args.seeds))}")
    if args.axis == "noise_ratio" and args.noise[0] == "none":
        raise ValueError("noise_ratio sweep needs --noise kind:ratio")
    # each value's data, generated as `gen` does for the first seed and
    # discarded, and its training config, checked before anything is written
    for value in args.values:
        cell = _cell_args(args, value, args.seeds[0])
        _generate_dataset(cell)
        _resolve_train_config(cell)
    out = _out_dir(args.out, "sweep")

    n_ok = 0
    # line-buffered: each row is on disk as soon as its cell (or value) ends
    line = {"encoding": "utf-8", "newline": "", "buffering": 1}
    with open(out / "runs.csv", "w", **line) as runs, \
            open(out / "summary.csv", "w", **line) as summary:
        runs.write("axis,value,seed,status,test_accuracy,label_recovery_rate\n")
        summary.write("axis,value,n_ok,accuracy_mean,accuracy_sd,recovery_mean,recovery_sd\n")
        for value, cell in zip(args.values, cells):
            key = f"{args.axis},{value:g}"
            accs, recs = [], []
            for seed in args.seeds:
                cell_dir = out / "cells" / cell / f"seed{seed}"
                try:
                    report = _sweep_cell(_cell_args(args, value, seed), cell_dir)
                except tuple(_ENDINGS) as exc:
                    status = f"error: {exc}".replace(",", ";")
                    runs.write(f"{key},{seed},{status},,\n")
                    continue
                accs.append(report["test_accuracy"])
                recs.append(report["label_recovery_rate"])
                runs.write(f"{key},{seed},ok,{accs[-1]!r},{recs[-1]!r}\n")
            if accs:
                a, r = np.array(accs, np.float64), np.array(recs, np.float64)
                summary.write(f"{key},{len(accs)},{float(a.mean())!r},{float(a.std())!r},"
                              f"{float(r.mean())!r},{float(r.std())!r}\n")
            else:
                summary.write(f"{key},0,,,,\n")
            n_ok += len(accs)

    print(f"sweep finished: {n_ok}/{len(args.values) * len(args.seeds)} runs ok "
          f"-> {out / 'summary.csv'}")
    return EXIT_OK


def cmd_export_labels(args) -> int:
    out_path = _out_file(args.out, args.labels)
    store = SoftLabelStore.load(args.labels)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    store.export_csv(out_path)
    print(f"wrote {out_path} ({store.n} rows, {store.num_classes} classes)")
    return EXIT_OK


# -- argument wiring -----------------------------------------------------------------


def _add_source_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--blobs", nargs="+", metavar="K=V",
                   help="gaussian clusters: n= c= d= sep=")
    p.add_argument("--idx-images", help="IDX image file")
    p.add_argument("--idx-labels", help="IDX label file")
    p.add_argument("--noise", default="none", metavar="KIND:RATIO",
                   help="uniform:R | feature_dependent:R | none")
    p.add_argument("--meta", default="0.02", help="meta fraction (clean holdout)")
    p.add_argument("--test", default="0.25", help="test fraction")


# training flags spelled other than --<field>, or whose format needs a word
_FLAG_NOTES = {
    "lambda_schedule": ("--lambda-schedule", "epoch:lr pairs, e.g. 0:0.02,30:0.005"),
    "k_init": ("--k", "label logit init scale"),
    "hidden_sizes": ("--hidden", "hidden layer widths, e.g. 32,32"),
}


def _add_train_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", default="mslg", help=" | ".join(_METHODS))
    p.add_argument("--preset", help=" | ".join(sorted(PRESETS)))
    for key in _TRAIN_KEYS:
        if key != "seed":  # train's own --seed; sweep's --seeds
            flag, text = _FLAG_NOTES.get(key, ("--" + key.replace("_", "-"), None))
            p.add_argument(flag, dest=key, help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mslg", allow_abbrev=False,
        description="soft-label generation under label noise: desk-scale experiments")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(func=func)
        return p

    p_gen = add("gen", cmd_gen, "generate a dataset with splits and noise")
    _add_source_args(p_gen)
    p_gen.add_argument("--seed", default="0")
    p_gen.add_argument("--out", required=True)

    p_train = add("train", cmd_train, "train the CE baseline or the label cleaner")
    p_train.add_argument("--data", required=True, help="directory from `gen`")
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--seed")
    _add_train_config_args(p_train)

    p_eval = add("eval", cmd_eval, "report accuracy/recovery for a run")
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--labels", help="label snapshot (.slbl)")
    p_eval.add_argument("--out", help="write the JSON report here too")

    p_sweep = add("sweep", cmd_sweep, "cross-product runs over one axis")
    _add_source_args(p_sweep)
    _add_train_config_args(p_sweep)
    p_sweep.add_argument("--axis", required=True, help=" | ".join(_SWEEP_AXES))
    p_sweep.add_argument("--values", required=True, metavar="V,V,...")
    p_sweep.add_argument("--seeds", required=True, metavar="S,S,...")
    p_sweep.add_argument("--out", required=True)

    p_export = add("export-labels", cmd_export_labels, "label snapshot -> CSV")
    p_export.add_argument("--labels", required=True)
    p_export.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _parse_values(args)
        return args.func(args)
    except tuple(_ENDINGS) as exc:
        code, kind = next(_ENDINGS[t] for t in type(exc).__mro__ if t in _ENDINGS)
        print(f"{kind}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
