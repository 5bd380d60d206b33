"""Per-layer tracing of the mslg package from outside the program.

`Tracer.installed()` wraps the public functions and methods of each mslg
module for the duration of a `with` block and restores the originals after.
Every wrapped call records a span (name, start, end, parent) in memory; a few
calls also record a count such as rows, bytes or flops. `layer_metrics`
turns the spans of one gen -> train -> eval pipeline into per-layer numbers.

Functions are patched where they are called as well as where they are
defined: `trainer`, `datasets` and `cli` bind `cce_loss`, `kl_loss_v2`,
`sgd_step` and others by name at import, so every mslg module whose
namespace holds the original function object gets the wrapper. Methods of
`Mlp` and `SoftLabelStore` are wrapped on the class, so calls made through
`self` (`predict` -> `forward`, `perturbed` -> `copy`) are traced too.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import sys
import time

import numpy as np

# module -> functions recorded as spans. `trainer.train` is left unwrapped on
# purpose: the per-epoch callback (metrics.csv appends, last_good writes) runs
# inside it, and that work belongs to `cli.cmd_train`'s self time.
# `trainer._epoch_metrics` is private but is the only boundary that separates
# the per-epoch evaluation forwards from the per-batch ones.
FUNCTIONS = {
    "model": ("sgd_step",),
    "losses": ("kl_loss_v2", "cce_loss", "entropy_loss", "classification_objective"),
    "linalg": ("softmax", "softmax_backward"),
    "trainer": ("warmup_epoch", "mslg_epoch", "meta_gradient_direction",
                "label_gradient_along", "_epoch_metrics"),
    "datasets": ("gen_blobs", "split", "inject_uniform", "inject_feature_dependent",
                 "save_dataset_csv", "load_dataset_csv"),
    "cli": ("cmd_gen", "cmd_train", "cmd_eval"),
}

# (module, class) -> methods recorded as spans named "<module>.<method>".
METHODS = {
    ("model", "Mlp"): ("forward", "backward", "copy", "perturbed", "save"),
    ("soft_labels", "SoftLabelStore"): ("soft_labels", "apply_label_gradient", "save"),
}

# Rng calls are too small for spans; they are only counted.
COUNTED = {
    ("rng", "Rng"): {"__init__": "rng.Rng.constructions",
                     "permutation": "rng.permutation.calls"},
}


# The hooks below run inside the parent span, so they only keep raw facts;
# flops and distinct counts are worked out in layer_metrics.


def _forward_rows(args, kwargs, result):
    model, x = args[0], args[1] if len(args) > 1 else kwargs["x"]
    return len(x), model.layer_sizes


def _backward_rows(args, kwargs, result):
    model, cache = args[0], args[1] if len(args) > 1 else kwargs["cache"]
    return cache["probs"].shape[0], model.layer_sizes


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _csv_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _label_rows(args, kwargs, result):
    ids = args[1] if len(args) > 1 else kwargs["ids"]
    return np.size(ids), int(result)


def _meta_column(args, kwargs, result):
    # features are continuous, so distinct first-feature values are distinct samples
    meta_x = args[3] if len(args) > 3 else kwargs["meta_x"]
    return np.asarray(meta_x)[:, 0].copy()


# span name -> hook(args, kwargs, result) whose return value is kept per span
AFTER = {
    "model.forward": _forward_rows,
    "model.backward": _backward_rows,
    "model.save": _file_bytes,
    "soft_labels.save": _file_bytes,
    "soft_labels.apply_label_gradient": _label_rows,
    "trainer.meta_gradient_direction": _meta_column,
    "datasets.save_dataset_csv": _csv_bytes,
    "datasets.load_dataset_csv": _csv_bytes,
}


class Tracer:
    """In-memory span and count recorder for one process.

    Spans are stored as parallel lists indexed by span number; a parent is
    the index of the enclosing span, or -1 for a root. Counts are keyed by
    (root span name, counter name), so each command keeps its own.
    """

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.extra: dict[int, object] = {}
        self.counts: dict[tuple[str | None, str], int] = {}
        self._stack: list[int] = []

    def _root(self) -> str | None:
        return self.names[self._stack[0]] if self._stack else None

    def _span(self, name: str, fn):
        after = AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # read the lists through self: reset() re-binds them
            stack = self._stack
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(stack[-1] if stack else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            stack.append(idx)
            self.starts[idx] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                stack.pop()
            if after is not None:
                self.extra[idx] = after(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            slot = (self._root(), key)
            self.counts[slot] = self.counts.get(slot, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap the mslg layers inside the block; always restore them."""
        modules = [m for n, m in sys.modules.items()
                   if n == "mslg" or n.startswith("mslg.")]
        undo = []

        def patch(owner, attr, new):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        try:
            for modname, fnames in FUNCTIONS.items():
                mod = sys.modules[f"mslg.{modname}"]
                for fname in fnames:
                    original = getattr(mod, fname)
                    wrapper = self._span(f"{modname}.{fname}", original)
                    for m in modules:
                        if m.__dict__.get(fname) is original:
                            patch(m, fname, wrapper)
            for (modname, clsname), methods in METHODS.items():
                cls = getattr(sys.modules[f"mslg.{modname}"], clsname)
                for meth in methods:
                    patch(cls, meth, self._span(f"{modname}.{meth}", cls.__dict__[meth]))
            for (modname, clsname), keys in COUNTED.items():
                cls = getattr(sys.modules[f"mslg.{modname}"], clsname)
                for meth, key in keys.items():
                    patch(cls, meth, self._counter(key, cls.__dict__[meth]))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


TRAIN = "cli.cmd_train"
GEN = "cli.cmd_gen"


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced gen -> train -> eval pipeline.

    Each metric is scoped to the command whose end-to-end metric it moves:
    dataset generation to `cmd_gen` (setup time), everything else to
    `cmd_train` (training throughput). Self time is a span's duration minus
    the durations of its child spans. Per-batch pass counts take the forwards
    and backwards under `mslg_epoch`, leaving out the per-epoch evaluation in
    `_epoch_metrics`, and divide by the number of MSLG batches (one
    `meta_gradient_direction` call each).
    """
    names, parents = tracer.names, tracer.parents
    dur = np.subtract(tracer.ends, tracer.starts)
    own = dur.copy()
    for i, p in enumerate(parents):
        if p >= 0:
            own[p] -= dur[i]
    by_scope: dict[tuple[str, str], list[int]] = {}
    batch_passes = {"model.forward": 0, "model.backward": 0}
    root: list[str] = []
    in_batch: list[bool] = []
    for i, (name, p) in enumerate(zip(names, parents)):
        root.append(name if p < 0 else root[p])
        in_batch.append(name != "trainer._epoch_metrics" and (
            name == "trainer.mslg_epoch" or (p >= 0 and in_batch[p])))
        by_scope.setdefault((root[i], name), []).append(i)
        if in_batch[i] and name in batch_passes and root[i] == TRAIN:
            batch_passes[name] += 1

    def spans(name, scope=TRAIN):
        return by_scope.get((scope, name), [])

    def calls(name, scope=TRAIN):
        return len(spans(name, scope))

    def self_s(*span_names, scope=TRAIN):
        return float(sum(own[i] for n in span_names for i in spans(n, scope)))

    def total_s(name, scope=TRAIN):
        return float(sum(dur[i] for i in spans(name, scope)))

    def median_s(name):
        found = spans(name)
        return float(statistics.median(dur[i] for i in found)) if found else 0.0

    def extras(name, scope=TRAIN):
        return [tracer.extra[i] for i in spans(name, scope)]

    def macs(sizes, skip_first=False):
        pairs = list(zip(sizes[:-1], sizes[1:]))[1 if skip_first else 0:]
        return sum(a * b for a, b in pairs)

    out: dict[str, float] = {}
    for op in ("forward", "backward"):
        out[f"model.{op}.calls"] = calls(f"model.{op}")
        out[f"model.{op}.self_s"] = self_s(f"model.{op}")
    # matmul flops only: x W per layer forward; a^T dz per layer and dz W^T
    # for every layer but the first backward
    out["model.forward.flops"] = sum(
        2 * rows * macs(sizes) for rows, sizes in extras("model.forward"))
    out["model.backward.flops"] = sum(
        2 * rows * (macs(sizes) + macs(sizes, skip_first=True))
        for rows, sizes in extras("model.backward"))
    out["model.copy.calls"] = calls("model.copy")
    out["model.copy.self_s"] = self_s("model.copy", "model.perturbed")
    out["model.sgd_step.calls"] = calls("model.sgd_step")
    out["model.sgd_step.self_s"] = self_s("model.sgd_step")
    for store in ("model", "soft_labels"):
        out[f"{store}.save.calls"] = calls(f"{store}.save")
        out[f"{store}.save.bytes"] = sum(extras(f"{store}.save"))
        out[f"{store}.save.self_s"] = self_s(f"{store}.save")
    for fn in ("kl_loss_v2", "cce_loss", "entropy_loss", "classification_objective"):
        out[f"losses.{fn}.calls"] = calls(f"losses.{fn}")
        out[f"losses.{fn}.self_s"] = self_s(f"losses.{fn}")
    for fn in ("soft_labels", "apply_label_gradient"):
        out[f"soft_labels.{fn}.calls"] = calls(f"soft_labels.{fn}")
        out[f"soft_labels.{fn}.self_s"] = self_s(f"soft_labels.{fn}")
    rows = extras("soft_labels.apply_label_gradient")
    attempted = sum(r for r, _ in rows)
    skipped = sum(s for _, s in rows)
    out["soft_labels.rows_updated"] = attempted - skipped
    out["soft_labels.rows_skipped"] = skipped
    out["soft_labels.apply_ratio"] = (attempted - skipped) / attempted if attempted else 0.0
    for fn in ("softmax", "softmax_backward"):
        out[f"linalg.{fn}.calls"] = calls(f"linalg.{fn}")
        out[f"linalg.{fn}.self_s"] = self_s(f"linalg.{fn}")
    for key in ("rng.Rng.constructions", "rng.permutation.calls"):
        out[key] = tracer.counts.get((TRAIN, key), 0)

    batches = calls("trainer.meta_gradient_direction")
    meta = extras("trainer.meta_gradient_direction")
    drawn = sum(len(col) for col in meta)
    out["trainer.warmup_epoch.s"] = median_s("trainer.warmup_epoch")
    out["trainer.mslg_epoch.s"] = median_s("trainer.mslg_epoch")
    out["trainer.mslg_epoch.calls"] = calls("trainer.mslg_epoch")
    out["trainer.mslg_epoch.self_s"] = self_s("trainer.mslg_epoch")
    for fn in ("meta_gradient_direction", "label_gradient_along"):
        out[f"trainer.{fn}.calls"] = calls(f"trainer.{fn}")
        out[f"trainer.{fn}.self_s"] = self_s(f"trainer.{fn}")
    out["trainer.forwards_per_mslg_batch"] = (
        batch_passes["model.forward"] / batches if batches else 0.0)
    out["trainer.backwards_per_mslg_batch"] = (
        batch_passes["model.backward"] / batches if batches else 0.0)
    out["trainer.meta_unique_ratio"] = (
        sum(len(np.unique(col)) for col in meta) / drawn if drawn else 0.0)

    for fn in ("gen_blobs", "split", "inject_uniform", "inject_feature_dependent",
               "save_dataset_csv"):
        out[f"datasets.{fn}.s"] = total_s(f"datasets.{fn}", GEN)
    out["datasets.save_dataset_csv.bytes"] = sum(extras("datasets.save_dataset_csv", GEN))
    out["datasets.load_dataset_csv.calls"] = calls("datasets.load_dataset_csv")
    out["datasets.load_dataset_csv.s"] = total_s("datasets.load_dataset_csv")
    out["datasets.load_dataset_csv.bytes"] = sum(extras("datasets.load_dataset_csv"))
    out["cli.cmd_gen.self_s"] = self_s(GEN, scope=GEN)
    out["cli.cmd_train.self_s"] = self_s(TRAIN)
    return out
