"""Dataset generation, loading, noise injection, and splitting.

True labels ride along in every dataset but are reserved for evaluators and
noise injectors; training code reads only `noisy_labels`. Splitting happens
*before* corruption so the meta and test splits stay clean.

Noise injection uses exact-count flipping: exactly round(ratio * N) samples
are corrupted, so small datasets carry the nominal noise rate rather than a
Bernoulli approximation of it. Feature-dependent noise ranks samples by the
margin of a noise probe, trained through `model.sgd_pass`, the trainer's SGD
loop, on the warm-up's logit-space cross-entropy gradient. The probe is fixed
(its module constants) and keyed by the seed alone, so the seed, the noise
ratio and the clean data determine the noisy labels.

A dataset CSV is read in one pass. On the success path it converts each
field once: ids and labels to int64, features straight into one packed
float64 buffer per split, so no float object outlives its row. A row that
fails is parsed again, in column order, to name its first bad field. Loading
fails fast, naming `path:line` and the column, on a malformed row, a field
that is not a number, an integer outside int64 or a feature that is not
finite, and naming `path:line` on a byte that is not UTF-8. It is written
row by row, each feature as its shortest round-trip `repr`, through
`atomic_write`, so a crash mid-write leaves the previous file whole.
"""

from __future__ import annotations

import csv
import hashlib
import io
import struct
from array import array
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_write
from .losses import cce_logit_grad
from .model import Mlp, SgdState, sgd_pass
from .rng import PROBE_INIT, PROBE_ORDER, Rng

__all__ = [
    "LabeledDataset",
    "IdxFormatError",
    "IdxBadMagicError",
    "IdxCountMismatchError",
    "IdxTruncatedError",
    "gen_blobs",
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
        if self.features.ndim != 2 or self.features.shape[1] < 1:
            raise ValueError(f"features must be (N, D) with D >= 1, "
                             f"got shape {self.features.shape}")
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

    def fingerprint(self) -> str:
        """sha256 hex digest of what training reads: the features (with their
        shape) and the noisy labels, little-endian."""
        digest = hashlib.sha256(np.array(self.features.shape, "<i8").tobytes())
        digest.update(self.features.astype("<f8", copy=False).tobytes())
        digest.update(self.noisy_labels.astype("<i8", copy=False).tobytes())
        return digest.hexdigest()


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
    Pixels are scaled to [0, 1] and flattened to (N, rows*cols). A count,
    rows or cols of 0 is an `IdxFormatError` naming the images file.
    """
    with open(images_path, "rb") as fh:
        img_blob = fh.read()
    with open(labels_path, "rb") as fh:
        lbl_blob = fh.read()

    (n_img, rows, cols), img_off = _read_idx_header(
        img_blob, images_path, IDX_IMAGES_MAGIC, 3)
    (n_lbl,), lbl_off = _read_idx_header(lbl_blob, labels_path, IDX_LABELS_MAGIC, 1)
    if 0 in (n_img, rows, cols):
        raise IdxFormatError(f"{images_path}: no pixels: {n_img} images of {rows}x{cols}")
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
    num_classes = int(labels.max()) + 1
    return LabeledDataset(feats, labels, labels.copy(), num_classes)


# -- noise injectors ----------------------------------------------------------


def _flip_count(ratio: float, n: int) -> int:
    """The labels that `ratio` flips among n; a ratio outside [0, 1) is an error."""
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


# the noise probe: its hidden widths and epochs, and its SGD's batch, rate, momentum
PROBE_HIDDEN, PROBE_EPOCHS = (16,), 30
PROBE_BATCH, PROBE_LR, PROBE_MOMENTUM = 32, 0.1, 0.9


def _fit_probe(features: np.ndarray, labels: np.ndarray, num_classes: int,
               seed: int) -> Mlp:
    """The noise probe, fit on `labels` (in range) by `sgd_pass` on the warm-up's
    exact CE gradient, `losses.cce_logit_grad` alone: it never reads its loss. Its
    init and batch orders are the streams `Rng(seed, PROBE_INIT/PROBE_ORDER)`."""
    model = Mlp((features.shape[1], *PROBE_HIDDEN, num_classes), Rng(seed, PROBE_INIT))
    opt = SgdState(lr=PROBE_LR, momentum=PROBE_MOMENTUM)
    shuffle_rng = Rng(seed, PROBE_ORDER)
    for _ in range(PROBE_EPOCHS):
        sgd_pass(model, opt, features, shuffle_rng.permutation(features.shape[0]),
                 PROBE_BATCH, lambda ids, probs, _: (0.0, cce_logit_grad(probs, labels[ids])))
    return model


def inject_feature_dependent(ds: LabeledDataset, ratio: float,
                             seed: int) -> LabeledDataset:
    """Corrupt the samples nearest the decision boundary.

    The noise probe (`_fit_probe`, keyed by `seed`) is fit on the clean
    labels; samples are ranked by margin (top-1 minus top-2 probability) and
    the lowest-margin ones are flipped to the probe's runner-up class.
    Samples whose runner-up happens to equal the true label are passed over
    so every flip really corrupts, keeping the realized noise rate exact.
    """
    k = _flip_count(ratio, ds.n)
    noisy = ds.true_labels.copy()
    if k > 0:
        probe = _fit_probe(ds.features, ds.true_labels, ds.num_classes, seed)
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
    """Disjoint (train, meta, test) with clean labels on meta and test: meta
    and test are round(fraction * n), train the rest, and each must be at
    least 1. Call this on the *clean* dataset and inject noise into the
    returned train split only.
    """
    if meta_fraction < 0 or test_fraction < 0 or meta_fraction + test_fraction >= 1:
        raise ValueError(
            f"invalid fractions meta={meta_fraction}, test={test_fraction}"
        )
    n = ds.n
    m = int(round(meta_fraction * n))
    t = int(round(test_fraction * n))
    for tag, size in (("train", n - m - t), ("meta", m), ("test", t)):
        if size < 1:
            raise ValueError(f"the {tag} split of {n} samples would be empty "
                             f"(meta {meta_fraction}, test {test_fraction})")
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
    with atomic_write(path) as raw, io.TextIOWrapper(raw, encoding="utf-8", newline="") as fh:
        cols = ",".join(f"f{j}" for j in range(d))
        fh.write(f"id,{cols},true_label,noisy_label,split\n")
        for tag in sorted(splits):
            ds = splits[tag]
            # one row's floats at a time: a whole-matrix tolist() would hold them all
            for row_id, row, true, noisy in zip(ds.ids.tolist(), ds.features,
                                                ds.true_labels.tolist(),
                                                ds.noisy_labels.tolist()):
                fh.write(f"{row_id},{','.join(map(repr, row.tolist()))},{true},{noisy},{tag}\n")


def _first_non_utf8(path) -> str:
    """`path:line: byte 0x..` for the first byte of `path` that is not UTF-8,
    with lines counted as the CSV reader counts them."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:  # an escaped byte
                byte = ord(line[exc.start]) - 0xDC00
                return f"{path}:{lineno}: byte 0x{byte:02x} is not UTF-8"
    return f"{path}: not UTF-8"


def load_dataset_csv(path, num_classes: int | None = None) -> dict[str, LabeledDataset]:
    """Splits keyed by their split column, read in one pass: ids and labels
    as int64, features as finite float64. A malformed row, or a field that
    is not a number of its column's type, names `path:line: 'column'`; a
    label outside [0, num_classes) names file and split. `num_classes`
    defaults to one more than the largest label."""
    # per split: its rows' line numbers, each row's (id, true_label,
    # noisy_label), and its features packed as they are read
    rows_by_tag: dict[str, tuple[list, list, array]] = defaultdict(
        lambda: ([], [], array("d")))
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty file")
            if header[:1] != ["id"] or header[-3:] != ["true_label", "noisy_label", "split"]:
                raise ValueError(f"{path}: unexpected dataset CSV header {header!r}")
            width = len(header)
            parsers = (int, *[float] * (width - 4), int, int)
            for row in reader:
                if len(row) != width:
                    raise ValueError(f"{path}:{reader.line_num}: {len(row)} fields, "
                                     f"header has {width}")
                lines, ints, feats = rows_by_tag[row[-1]]
                try:
                    ints += int(row[0]), int(row[-3]), int(row[-2])
                    feats.extend(map(float, row[1:-3]))
                except ValueError:
                    # parse the row again, in column order, to name its first bad field
                    for column, parse, text in zip(header, parsers, row):
                        try:
                            parse(text)
                        except ValueError as exc:
                            raise ValueError(f"{path}:{reader.line_num}: {column!r}: "
                                             f"{exc}") from None
                    raise
                lines.append(reader.line_num)
        except csv.Error as exc:  # such as a field over csv.field_size_limit()
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            # the text layer decodes ahead of the reader, so line_num may be
            # short of the line that holds the byte
            raise ValueError(_first_non_utf8(path)) from None
    arrays = {}
    for tag, (lines, ints, feats) in rows_by_tag.items():
        n = len(lines)
        try:
            columns = np.array(ints, np.int64).reshape(n, 3).T  # id, true_label, noisy_label
        except OverflowError:
            j, i = next((j, i) for j in range(3) for i in range(n)
                        if not -2**63 <= ints[3 * i + j] < 2**63)
            raise ValueError(f"{path}:{lines[i]}: {header[(0, -3, -2)[j]]!r}: "
                             f"out of the int64 range") from None
        x = np.frombuffer(feats, np.float64).reshape(n, width - 4)
        bad = ~np.isfinite(x)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValueError(f"{path}:{lines[i]}: {header[1 + j]!r}: "
                             f"not a finite number: {str(x[i, j])!r}")
        arrays[tag] = x, columns
    if num_classes is None:
        num_classes = 1 + max((int(cols[1:].max()) for _, cols in arrays.values()),
                              default=-1)
    out: dict[str, LabeledDataset] = {}
    for tag, (feats, (ids, true, noisy)) in arrays.items():
        try:
            out[tag] = LabeledDataset(feats, true, noisy, num_classes, ids)
        except ValueError as exc:
            raise ValueError(f"{path}: {tag!r} split: {exc}") from None
    return out
