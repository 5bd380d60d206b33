"""The mslg benchmark: workloads, the measured pipeline loop and its checks.

One run is a closed loop with one caller. Each iteration drives the real
pipeline in-process through `mslg.cli.main`: `gen`, then `train`, then
`eval`, each starting when the previous one has returned. Every command is an
operation; it fails when it returns a non-zero code, when its artifacts differ
byte for byte from the first iteration of the run, or (for `eval`) when the
quality falls below the workload's floors. Timings use only iterations in
which every operation passed.

With tracing off the run reports the end-to-end metrics. With tracing on it
alternates plain and traced iterations: the traced ones give the per-layer
metrics, the pairs give the tracing overhead, and the byte comparison against
the first (plain) iteration shows that tracing changes no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mslg import cli
from tracer import Tracer, layer_metrics


@dataclass(frozen=True)
class Workload:
    gen: tuple[str, ...]
    train: tuple[str, ...]
    min_test_accuracy: float
    min_label_accuracy: float


# Why each workload exists is recorded in benchmarks/README.md.
DESK_DATA = ("--blobs", "n=2000", "c=4", "d=2", "sep=6",
             "--noise", "feature_dependent:0.4", "--meta", "0.02", "--test", "0.25")

WORKLOADS = {
    "desk-mslg": Workload(DESK_DATA, ("--method", "mslg", "--preset", "blobs-desk"),
                          min_test_accuracy=0.8, min_label_accuracy=0.6),
    "wide-mslg": Workload(
        ("--blobs", "n=8000", "c=10", "d=64", "sep=8",
         "--noise", "uniform:0.4", "--meta", "0.02", "--test", "0.2"),
        ("--method", "mslg", "--preset", "blobs-desk", "--hidden", "256,256",
         "--batch-size", "128", "--warmup-epochs", "4", "--total-epochs", "14",
         "--lambda-schedule", "0:0.02", "--beta", "50"),
        min_test_accuracy=0.5, min_label_accuracy=0.6),
    "desk-ce": Workload(DESK_DATA, ("--method", "ce", "--preset", "blobs-desk"),
                        min_test_accuracy=0.5, min_label_accuracy=0.55),
    # seconds-long configuration for the harness smoke test; not benchmarked
    "smoke": Workload(
        ("--blobs", "n=300", "c=3", "d=2", "sep=6",
         "--noise", "feature_dependent:0.3", "--meta", "0.1", "--test", "0.2"),
        ("--method", "mslg", "--preset", "blobs-smoke"),
        min_test_accuracy=0.5, min_label_accuracy=0.5),
}

END_TO_END = {
    "train_samples_per_s": "samples/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "test_accuracy": "ratio",
    "label_accuracy": "ratio",
}

PER_LAYER = {
    "model.forward.calls": "count",
    "model.forward.self_s": "s",
    "model.forward.flops": "flop",
    "model.backward.calls": "count",
    "model.backward.self_s": "s",
    "model.backward.flops": "flop",
    "model.copy.calls": "count",
    "model.copy.self_s": "s",
    "model.sgd_step.calls": "count",
    "model.sgd_step.self_s": "s",
    "model.save.calls": "count",
    "model.save.bytes": "B",
    "model.save.self_s": "s",
    "losses.kl_loss_v2.calls": "count",
    "losses.kl_loss_v2.self_s": "s",
    "losses.cce_loss.calls": "count",
    "losses.cce_loss.self_s": "s",
    "losses.entropy_loss.calls": "count",
    "losses.entropy_loss.self_s": "s",
    "losses.classification_objective.calls": "count",
    "losses.classification_objective.self_s": "s",
    "soft_labels.soft_labels.calls": "count",
    "soft_labels.soft_labels.self_s": "s",
    "soft_labels.apply_label_gradient.calls": "count",
    "soft_labels.apply_label_gradient.self_s": "s",
    "soft_labels.rows_updated": "count",
    "soft_labels.rows_skipped": "count",
    "soft_labels.apply_ratio": "ratio",
    "soft_labels.save.calls": "count",
    "soft_labels.save.bytes": "B",
    "soft_labels.save.self_s": "s",
    "soft_labels.recovery_rate": "ratio",
    "linalg.softmax.calls": "count",
    "linalg.softmax.self_s": "s",
    "linalg.softmax_backward.calls": "count",
    "linalg.softmax_backward.self_s": "s",
    "rng.Rng.constructions": "count",
    "rng.permutation.calls": "count",
    "trainer.warmup_epoch.s": "s",
    "trainer.mslg_epoch.s": "s",
    "trainer.mslg_epoch.calls": "count",
    "trainer.mslg_epoch.self_s": "s",
    "trainer.meta_gradient_direction.calls": "count",
    "trainer.meta_gradient_direction.self_s": "s",
    "trainer.label_gradient_along.calls": "count",
    "trainer.label_gradient_along.self_s": "s",
    "trainer.forwards_per_mslg_batch": "count/batch",
    "trainer.backwards_per_mslg_batch": "count/batch",
    "trainer.meta_unique_ratio": "ratio",
    "datasets.gen_blobs.s": "s",
    "datasets.split.s": "s",
    "datasets.inject_uniform.s": "s",
    "datasets.inject_feature_dependent.s": "s",
    "datasets.save_dataset_csv.s": "s",
    "datasets.save_dataset_csv.bytes": "B",
    "datasets.load_dataset_csv.calls": "count",
    "datasets.load_dataset_csv.s": "s",
    "datasets.load_dataset_csv.bytes": "B",
    "cli.cmd_gen.self_s": "s",
    "cli.cmd_train.self_s": "s",
    "tracing.overhead_frac": "ratio",
    "tracing.untraced_train_s": "s",
    "tracing.traced_train_s": "s",
}

MIN_ITERATIONS = 3
# gen is short next to train; repeating it in every iteration gives setup_s
# as many samples as the run has seconds for
GENS_PER_ITERATION = 3

# command -> artifacts that must repeat byte for byte within a run
ARTIFACTS = {
    "gen": ("data/dataset.csv", "data/manifest.json"),
    "train": ("run/metrics.csv", "run/model.ckpt", "run/labels.slbl"),
    "eval": ("report.json",),
}


def label_accuracy(report: dict) -> float:
    """Share of train samples whose learned label's argmax is the true class.

    Derived from the eval report's counts: clean samples stay correct unless
    flagged (their label moved off the given one), corrupted samples are
    correct when recovered.
    """
    n_train, n_corrupted = report["n_train"], report["n_corrupted"]
    flagged = report["noise_flagged"]
    hits = round(report["noise_flag_precision"] * flagged)
    recovered = round(report["label_recovery_rate"] * n_corrupted)
    return ((n_train - n_corrupted) - (flagged - hits) + recovered) / n_train


@dataclass
class Operation:
    command: str
    code: int | None
    seconds: float
    digests: dict[str, str]


@dataclass
class Iteration:
    ops: list[Operation]
    planned: int
    report: dict | None = None
    train_samples: int = 0
    failed: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return len(self.ops) == self.planned and not self.failed

    def seconds(self, command: str) -> list[float]:
        return [op.seconds for op in self.ops if op.command == command]


def _digests(work: Path, command: str) -> dict[str, str]:
    return {rel: hashlib.sha256((work / rel).read_bytes()).hexdigest()
            for rel in ARTIFACTS[command] if (work / rel).is_file()}


def run_iteration(wl: Workload, seed: int, work: Path, gens: int = 1) -> Iteration:
    """`gens` x gen, then train, then eval, in `work`; stops at the first failure."""
    shutil.rmtree(work, ignore_errors=True)
    data, run, report = work / "data", work / "run", work / "report.json"
    plan = [("gen", ["gen", *wl.gen, "--seed", str(seed), "--out", str(data)])] * gens
    plan += [
        ("train", ["train", "--data", str(data), "--out", str(run), "--seed", str(seed),
                   *wl.train]),
        ("eval", ["eval", "--data", str(data), "--checkpoint", str(run / "model.ckpt"),
                  "--labels", str(run / "labels.slbl"), "--out", str(report)]),
    ]
    it = Iteration(ops=[], planned=len(plan))
    for command, argv in plan:
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception:  # a crash is a failed operation; keep measuring
            traceback.print_exc()
            code = None
        seconds = time.perf_counter() - start
        it.ops.append(Operation(command, code, seconds, _digests(work, command)))
        if code != 0:
            break
    if report.is_file():
        it.report = json.loads(report.read_text(encoding="utf-8"))
    manifest = run / "manifest.json"
    if manifest.is_file():
        train = json.loads(manifest.read_text(encoding="utf-8"))
        it.train_samples = (train["data_manifest"]["sizes"]["train"]
                            * train["config"]["total_epochs"])
    return it


def check(it: Iteration, reference: dict[str, dict[str, str]], wl: Workload) -> list[str]:
    """One entry per failed operation (its command), with the reason on stderr."""
    failed = []
    for op in it.ops:
        problems = []
        if op.code != 0:
            problems.append(f"exit code {op.code}")
        elif op.digests != reference.get(op.command):
            problems.append("artifacts differ from the first iteration's")
        if op.command == "eval" and it.report is not None:
            acc, lab = it.report["test_accuracy"], label_accuracy(it.report)
            if acc < wl.min_test_accuracy:
                problems.append(f"test accuracy {acc} below {wl.min_test_accuracy}")
            if lab < wl.min_label_accuracy:
                problems.append(f"label accuracy {lab} below {wl.min_label_accuracy}")
        if problems:
            print(f"check failed: {op.command}: {'; '.join(problems)}", file=sys.stderr)
            failed.append(op.command)
    return failed


class Runner:
    """Runs and checks iterations, counting operations attempted and failed.

    The first complete iteration's artifacts are the reference that every
    later operation, traced or not, must reproduce byte for byte.
    """

    def __init__(self, wl: Workload, seed: int, work: Path):
        self.wl, self.seed, self.work = wl, seed, work
        self.reference: dict[str, dict[str, str]] = {}
        self.attempted = 0
        self.failed = 0

    def iterate(self, gens: int = 1) -> Iteration:
        it = run_iteration(self.wl, self.seed, self.work, gens)
        if not self.reference and len(it.ops) == it.planned:
            for op in it.ops:
                self.reference.setdefault(op.command, op.digests)
        it.failed = check(it, self.reference, self.wl)
        self.attempted += len(it.ops)
        self.failed += len(it.failed)
        return it


def measure_end_to_end(runner: Runner, seconds: float) -> dict[str, float]:
    deadline = time.perf_counter() + seconds
    its = []
    while len(its) < MIN_ITERATIONS or time.perf_counter() < deadline:
        its.append(runner.iterate(GENS_PER_ITERATION))
    good = [it for it in its if it.ok]
    if not good:
        return {}
    # Throughput is the work of every repeat over their total time. Identical
    # repeats differ by up to 1.7x as other work on the machine comes and
    # goes, and the total moves smoothly with that where a median jumps.
    train_s = [s for it in good for s in it.seconds("train")]
    return {
        "train_samples_per_s": good[0].train_samples * len(train_s) / sum(train_s),
        "setup_s": statistics.median(s for it in good for s in it.seconds("gen")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_accuracy": good[0].report["test_accuracy"],
        "label_accuracy": label_accuracy(good[0].report),
    }


def measure_layers(runner: Runner, seconds: float) -> dict[str, float]:
    """Alternate plain and traced iterations.

    Layer times are medians over the traced iterations; every other layer
    value must repeat exactly. The overhead compares the median plain and
    traced `mslg train` times.
    """
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    plain_s, traced_s, layers = [], [], []
    pairs = 0
    while pairs < MIN_ITERATIONS or time.perf_counter() < deadline:
        pairs += 1
        plain = runner.iterate()
        tracer.reset()
        with tracer.installed():
            traced = runner.iterate()
        if plain.ok and traced.ok:
            plain_s += plain.seconds("train")
            traced_s += traced.seconds("train")
            layers.append(layer_metrics(tracer))
            layers[-1]["soft_labels.recovery_rate"] = traced.report["label_recovery_rate"]
        tracer.reset()
    if not layers:
        return {}
    out = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        if PER_LAYER[name] == "s":
            out[name] = statistics.median(values)
        elif any(v != values[0] for v in values):
            print(f"check failed: {name} does not repeat: {values}", file=sys.stderr)
            runner.failed += 1
            out[name] = statistics.median(values)
        else:
            out[name] = values[0]
    base = statistics.median(plain_s)
    out["tracing.untraced_train_s"] = base
    out["tracing.traced_train_s"] = statistics.median(traced_s)
    out["tracing.overhead_frac"] = out["tracing.traced_train_s"] / base - 1.0
    return out


def git_state(root: Path) -> dict:
    # the ceiling stops git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    git = ["git", "--no-optional-locks", "-C", str(root)]
    try:
        head = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30, env=env)
        if head.returncode != 0:
            return {"revision": None, "dirty": None}
        status = subprocess.run([*git, "status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True, timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return {"revision": None, "dirty": None}
    return {"revision": head.stdout.strip(),
            "dirty": bool(status.stdout.strip()) if status.returncode == 0 else None}


def environment(root: Path) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git": git_state(root),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(prog="benchmarks/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv, root: Path) -> int:
    args = parse_args(argv)
    work_root = root / ".benchwork"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    runner = Runner(WORKLOADS[args.workload], args.seed, work)
    try:
        if args.trace:
            values, units = measure_layers(runner, args.seconds), PER_LAYER
        else:
            values, units = measure_end_to_end(runner, args.seconds), END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()
    correct = runner.failed == 0 and set(values) == set(units)
    print(json.dumps({"environment": environment(root),
                      "workload": args.workload, "seed": args.seed}))
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }))
    return 0 if correct else 1
