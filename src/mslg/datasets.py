"""Dataset generation, loading, noise injection, and splitting.

True labels ride along in every dataset but are reserved for evaluators and
noise injectors; training code reads only `noisy_labels`. Splitting happens
*before* corruption so the meta and test splits stay clean.

Noise injection uses exact-count flipping: exactly round(ratio * N) samples
are corrupted, so small datasets carry the nominal noise rate rather than a
Bernoulli approximation of it.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass

import numpy as np

from .linalg import softmax_backward
from .losses import cce_loss
from .model import Mlp, SgdState, sgd_step
from .rng import Rng

__all__ = [
    "LabeledDataset",
    "ProbeConfig",
    "IdxFormatError",
    "IdxBadMagicError",
    "IdxCountMismatchError",
    "IdxTruncatedError",
    "gen_blobs",
    "gen_spirals",
    "load_idx_images",
    "inject_uniform",
    "inject_feature_dependent",
    "split",
    "save_dataset_csv",
    "load_dataset_csv",
]

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class LabeledDataset:
    """One split, with labels in [0, num_classes) (checked here). Its name is
    its key in a splits dict, as `save_dataset_csv` writes it."""
    features: np.ndarray      # (N, D) float64
    true_labels: np.ndarray   # (N,) int64; evaluators/injectors only
    noisy_labels: np.ndarray  # (N,) int64; what trainers see
    num_classes: int
    ids: np.ndarray | None = None  # provenance ids, default 0..N-1

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        self.true_labels = np.asarray(self.true_labels, dtype=np.int64).ravel()
        self.noisy_labels = np.asarray(self.noisy_labels, dtype=np.int64).ravel()
        n = self.features.shape[0]
        if self.true_labels.shape[0] != n or self.noisy_labels.shape[0] != n:
            raise ValueError("feature/label row counts disagree")
        for kind, labels in (("true", self.true_labels), ("noisy", self.noisy_labels)):
            bad = (labels < 0) | (labels >= self.num_classes)
            if bad.any():
                raise ValueError(f"{kind} label {labels[bad.argmax()]} out of range "
                                 f"[0, {self.num_classes})")
        if self.ids is None:
            self.ids = np.arange(n)
        self.ids = np.asarray(self.ids, dtype=np.int64).ravel()

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def corrupted_mask(self) -> np.ndarray:
        return self.noisy_labels != self.true_labels


# -- generators -------------------------------------------------------------


def _balanced_labels(n: int, num_classes: int) -> np.ndarray:
    counts = [n // num_classes + (1 if c < n % num_classes else 0)
              for c in range(num_classes)]
    return np.repeat(np.arange(num_classes), counts)


def gen_blobs(n: int, num_classes: int, dim: int, separation: float,
              rng: Rng) -> LabeledDataset:
    """Unit-variance Gaussian clusters with balanced classes (within one).

    Centers sit on a regular polygon in the first two coordinates sized so the
    minimum pairwise center distance equals `separation` (for dim == 1 they
    are evenly spaced on the line instead).
    """
    if num_classes < 2:
        raise ValueError("gen_blobs needs at least 2 classes")
    if n < num_classes:
        raise ValueError(f"need n >= num_classes, got n={n}, C={num_classes}")
    if dim < 1:
        raise ValueError("dim must be positive")
    centers = np.zeros((num_classes, dim))
    if dim == 1:
        centers[:, 0] = np.arange(num_classes) * separation
    else:
        radius = separation / (2.0 * np.sin(np.pi / num_classes))
        angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
        centers[:, 0] = radius * np.cos(angles)
        centers[:, 1] = radius * np.sin(angles)
    labels = _balanced_labels(n, num_classes)
    feats = centers[labels] + rng.normal(size=(n, dim))
    order = rng.permutation(n)
    return LabeledDataset(feats[order], labels[order], labels[order].copy(),
                          num_classes)


def gen_spirals(n: int, num_classes: int, noise_sd: float, rng: Rng) -> LabeledDataset:
    """Interleaved 2-D spirals, one arm per class.

    Arm c, point k of m: t = k/(m-1) (t = 0 when m == 1), radius
    r = 0.15 + 0.85 t, angle phi = 2 pi c / C + 3 pi t, plus isotropic
    Gaussian jitter of scale noise_sd.
    """
    if num_classes < 2:
        raise ValueError("gen_spirals needs at least 2 classes")
    if n < num_classes:
        raise ValueError(f"need n >= num_classes, got n={n}, C={num_classes}")
    labels = _balanced_labels(n, num_classes)
    feats = np.zeros((n, 2))
    pos = 0
    for c in range(num_classes):
        m = int(np.sum(labels == c))
        t = np.arange(m) / (m - 1) if m > 1 else np.zeros(1)
        r = 0.15 + 0.85 * t
        phi = 2.0 * np.pi * c / num_classes + 3.0 * np.pi * t
        feats[pos:pos + m, 0] = r * np.cos(phi)
        feats[pos:pos + m, 1] = r * np.sin(phi)
        pos += m
    feats += noise_sd * rng.normal(size=(n, 2))
    order = rng.permutation(n)
    return LabeledDataset(feats[order], labels[order], labels[order].copy(),
                          num_classes)


# -- IDX reader ---------------------------------------------------------------


class IdxFormatError(ValueError):
    """Malformed IDX file."""


class IdxBadMagicError(IdxFormatError):
    pass


class IdxCountMismatchError(IdxFormatError):
    pass


class IdxTruncatedError(IdxFormatError):
    pass


def _read_idx_header(blob: bytes, path, expected_magic: int, n_dims: int) -> tuple:
    need = 4 * (1 + n_dims)
    if len(blob) < need:
        raise IdxTruncatedError(f"{path}: file shorter than its {need}-byte header")
    magic = struct.unpack_from(">I", blob, 0)[0]
    if magic != expected_magic:
        raise IdxBadMagicError(
            f"{path}: magic 0x{magic:08x}, expected 0x{expected_magic:08x}"
        )
    dims = struct.unpack_from(f">{n_dims}I", blob, 4)
    return dims, need


def load_idx_images(images_path, labels_path) -> LabeledDataset:
    """Read an IDX image/label file pair (big-endian, unsigned byte data).

    Images: magic 0x00000803, then u32 count, rows, cols, then raw pixels.
    Labels: magic 0x00000801, then u32 count, then raw labels.
    Pixels are scaled to [0, 1] and flattened to (N, rows*cols).
    """
    with open(images_path, "rb") as fh:
        img_blob = fh.read()
    with open(labels_path, "rb") as fh:
        lbl_blob = fh.read()

    (n_img, rows, cols), img_off = _read_idx_header(
        img_blob, images_path, IDX_IMAGES_MAGIC, 3)
    (n_lbl,), lbl_off = _read_idx_header(lbl_blob, labels_path, IDX_LABELS_MAGIC, 1)
    if n_img != n_lbl:
        raise IdxCountMismatchError(
            f"{images_path} holds {n_img} images but {labels_path} holds {n_lbl} labels"
        )
    n_pixels = n_img * rows * cols
    if len(img_blob) - img_off < n_pixels:
        raise IdxTruncatedError(
            f"{images_path}: expected {n_pixels} pixel bytes, found {len(img_blob) - img_off}"
        )
    if len(lbl_blob) - lbl_off < n_lbl:
        raise IdxTruncatedError(
            f"{labels_path}: expected {n_lbl} label bytes, found {len(lbl_blob) - lbl_off}"
        )
    pixels = np.frombuffer(img_blob, dtype=np.uint8, count=n_pixels, offset=img_off)
    feats = pixels.astype(np.float64).reshape(n_img, rows * cols) / 255.0
    labels = np.frombuffer(lbl_blob, dtype=np.uint8, count=n_lbl, offset=lbl_off)
    labels = labels.astype(np.int64)
    num_classes = int(labels.max()) + 1 if n_lbl else 0
    return LabeledDataset(feats, labels, labels.copy(), num_classes)


# -- noise injectors ----------------------------------------------------------


def _flip_count(ratio: float, n: int) -> int:
    if not (0.0 <= ratio < 1.0):
        raise ValueError(f"noise ratio must be in [0, 1), got {ratio}")
    return int(round(ratio * n))


def inject_uniform(ds: LabeledDataset, ratio: float, rng: Rng) -> LabeledDataset:
    """Flip exactly round(ratio*N) labels, chosen without replacement, each to
    a uniformly random class other than the true one."""
    k = _flip_count(ratio, ds.n)
    noisy = ds.true_labels.copy()
    if k > 0:
        chosen = rng.choice(ds.n, size=k, replace=False)
        offsets = rng.integers(0, ds.num_classes - 1, size=k)
        noisy[chosen] = offsets + (offsets >= noisy[chosen])
    return LabeledDataset(ds.features, ds.true_labels.copy(), noisy,
                          ds.num_classes, ds.ids.copy())


@dataclass
class ProbeConfig:
    """Probe classifier used to rank samples by decision-boundary distance:
    an MLP of these hidden widths, fit for `epochs` passes of SGD (batch 32,
    learning rate 0.1, momentum 0.9) on the clean labels."""
    hidden_sizes: tuple[int, ...] = (16,)
    epochs: int = 30


def _fit_probe(features: np.ndarray, labels: np.ndarray, num_classes: int,
               cfg: ProbeConfig, rng: Rng) -> Mlp:
    # keyed by the seed alone, not under the key of `rng`: the probe, and so
    # every feature-dependent dataset, depends on exactly these two streams
    model = Mlp((features.shape[1], *cfg.hidden_sizes, num_classes), Rng(rng.seed, 101))
    opt = SgdState(lr=0.1, momentum=0.9)
    n = features.shape[0]
    shuffle_rng = Rng(rng.seed, 102)
    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, 32):
            idx = order[start:start + 32]
            probs, cache = model.forward(features[idx])
            # the floored probability-space gradient pulled back through
            # softmax, not the trainer's exact (f - onehot)/b: they differ
            # where f_y < PROB_FLOOR, and the probe keeps this one so that
            # generated datasets stay as they were
            dz = softmax_backward(probs, cce_loss(probs, labels[idx]).grad_wrt_predictions)
            sgd_step(model, model.backward(cache, dz), opt)
    return model


def inject_feature_dependent(ds: LabeledDataset, ratio: float,
                             probe_cfg: ProbeConfig | None,
                             rng: Rng) -> LabeledDataset:
    """Corrupt the samples nearest the decision boundary.

    A probe classifier is fit on the clean labels; samples are ranked by
    margin (top-1 minus top-2 probability) and the lowest-margin ones are
    flipped to the probe's runner-up class. Samples whose runner-up happens
    to equal the true label are passed over so every flip really corrupts,
    keeping the realized noise rate exact.
    """
    probe_cfg = probe_cfg or ProbeConfig()
    k = _flip_count(ratio, ds.n)
    noisy = ds.true_labels.copy()
    if k > 0:
        probe = _fit_probe(ds.features, ds.true_labels, ds.num_classes, probe_cfg, rng)
        probs = probe.predict(ds.features)
        ranked = np.argsort(probs, axis=1, kind="stable")
        top1 = ranked[:, -1]
        runner_up = ranked[:, -2]
        acc = float(np.mean(top1 == ds.true_labels))
        if acc <= 1.0 / ds.num_classes:
            raise ValueError(
                f"probe accuracy {acc:.3f} does not exceed chance "
                f"{1.0 / ds.num_classes:.3f}; margin ranking would be meaningless"
            )
        margin = probs[np.arange(ds.n), top1] - probs[np.arange(ds.n), runner_up]
        order = np.argsort(margin, kind="stable")
        eligible = order[runner_up[order] != ds.true_labels[order]]
        if eligible.size < k:
            raise ValueError(
                f"only {eligible.size} of {ds.n} samples can be corrupted toward "
                f"their runner-up class; cannot reach {k} flips"
            )
        sel = eligible[:k]
        noisy[sel] = runner_up[sel]
    return LabeledDataset(ds.features, ds.true_labels.copy(), noisy,
                          ds.num_classes, ds.ids.copy())


# -- splitting ----------------------------------------------------------------


def split(ds: LabeledDataset, meta_fraction: float, test_fraction: float,
          rng: Rng) -> tuple[LabeledDataset, LabeledDataset, LabeledDataset]:
    """Disjoint (train, meta, test) with clean labels on meta and test.

    Sizes are round(fraction * N). Call this on the *clean* dataset and inject
    noise into the returned train split only.
    """
    if meta_fraction < 0 or test_fraction < 0 or meta_fraction + test_fraction >= 1:
        raise ValueError(
            f"invalid fractions meta={meta_fraction}, test={test_fraction}"
        )
    n = ds.n
    m = int(round(meta_fraction * n))
    t = int(round(test_fraction * n))
    perm = rng.permutation(n)
    parts = {"meta": perm[:m], "test": perm[m:m + t], "train": perm[m + t:]}
    out = []
    for tag in ("train", "meta", "test"):
        idx = np.sort(parts[tag])
        out.append(LabeledDataset(
            ds.features[idx], ds.true_labels[idx], ds.true_labels[idx].copy(),
            ds.num_classes, ds.ids[idx]))
    return tuple(out)


# -- CSV interchange ------------------------------------------------------------


def save_dataset_csv(path, splits: dict[str, LabeledDataset]) -> None:
    """One CSV for all splits: id, f0..f{D-1}, true_label, noisy_label, split
    (the split's key in `splits`)."""
    dims = {ds.dim for ds in splits.values()}
    if len(dims) != 1:
        raise ValueError(f"splits disagree on feature dimension: {sorted(dims)}")
    d = dims.pop()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        cols = ",".join(f"f{j}" for j in range(d))
        fh.write(f"id,{cols},true_label,noisy_label,split\n")
        for tag in sorted(splits):
            ds = splits[tag]
            for i in range(ds.n):
                feats = ",".join(repr(float(v)) for v in ds.features[i])
                fh.write(f"{int(ds.ids[i])},{feats},{int(ds.true_labels[i])},"
                         f"{int(ds.noisy_labels[i])},{tag}\n")


def load_dataset_csv(path, num_classes: int | None = None) -> dict[str, LabeledDataset]:
    """Splits keyed by their split column. A malformed row names `path:line`;
    a bad label names file and split."""
    rows_by_tag: dict[str, list] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        if header[:1] != ["id"] or header[-3:] != ["true_label", "noisy_label", "split"]:
            raise ValueError(f"{path}: unexpected dataset CSV header {header!r}")
        width = len(header)
        for row in reader:
            if len(row) != width:
                raise ValueError(f"{path}:{reader.line_num}: {len(row)} fields, "
                                 f"header has {width}")
            rows_by_tag.setdefault(row[-1], []).append(row)
    try:
        if num_classes is None:
            num_classes = 1 + max(
                max(int(r[-3]), int(r[-2]))
                for rows in rows_by_tag.values() for r in rows
            )
        columns = {tag: (np.array([[float(v) for v in r[1:-3]] for r in rows]),
                         np.array([int(r[-3]) for r in rows]),
                         np.array([int(r[-2]) for r in rows]),
                         np.array([int(r[0]) for r in rows]))
                   for tag, rows in rows_by_tag.items()}
    except ValueError as exc:
        raise ValueError(_bad_field(path) or f"{path}: {exc}") from None
    out: dict[str, LabeledDataset] = {}
    for tag, (feats, true, noisy, ids) in columns.items():
        try:
            out[tag] = LabeledDataset(feats, true, noisy, num_classes, ids)
        except ValueError as exc:
            raise ValueError(f"{path}: {tag!r} split: {exc}") from None
    return out


def _bad_field(path) -> str | None:
    """`path:line: column: error` for the first field of `path` that does not
    parse (features as floats, the rest as ints), or None."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        for row in reader:
            for j, value in enumerate(row[:-1]):
                try:
                    (float if 0 < j < len(row) - 3 else int)(value)
                except ValueError as exc:
                    return f"{path}:{reader.line_num}: {header[j]!r}: {exc}"
    return None
