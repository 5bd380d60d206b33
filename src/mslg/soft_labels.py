"""Trainable per-sample label distributions.

Each training sample owns a row of unconstrained logits; the softmax of a row
is the sample's soft label. Updates are gradients with respect to the logits
and land on them directly, so the derived labels stay valid distributions no
matter how far the logits drift. Logits start at K * onehot(noisy label); at
a K > 0 that `check_k` accepts, each initial label peaks at its noisy label.
"""

from __future__ import annotations

import struct

import numpy as np

from .atomic import atomic_write
from .linalg import softmax

__all__ = ["SoftLabelStore", "LabelSnapshotError", "SNAPSHOT_MAGIC"]

SNAPSHOT_MAGIC = b"SLBL"
SNAPSHOT_VERSION = 1


class LabelSnapshotError(ValueError):
    """Malformed label snapshot file."""


class SoftLabelStore:
    def __init__(self, logits: np.ndarray, k: float):
        self.logits = np.ascontiguousarray(logits, dtype=np.float64)
        if self.logits.ndim != 2:
            raise ValueError(f"logits must be (N, C), got shape {self.logits.shape}")
        self.check_k(k, "k")
        self.k = float(k)
        self.version = 0  # apply_label_gradient, which alone moves the logits, bumps it

    @property
    def n(self) -> int:
        return self.logits.shape[0]

    @property
    def num_classes(self) -> int:
        return self.logits.shape[1]

    @staticmethod
    def check_k(k: float, name: str, error=ValueError) -> None:
        """Refuse a K no label can start from: a non-finite one (softmax's shift
        takes inf - inf), a negative one (each argmax leaves the noisy label), and
        a K > 0 at which softmax loses the noisy label: unless exp(-k) is below
        1 - 2**-52, dividing row k * onehot(j)'s (1, exp(-k), ...) by its sum may
        round both to one value, and the argmax falls to class 0. K = 0 is
        uniform labels. A refusal raises `error`."""
        if not 0 <= k < np.inf:
            raise error(f"{name} must be finite and >= 0, got {k}")
        if k > 0 and not np.exp(-k) < 1.0 - 2.0 ** -52:
            raise error(f"{name} {k} is too small: softmax ties the initial labels")

    @classmethod
    def init_from_noisy(cls, noisy_labels, num_classes: int,
                        k: float) -> "SoftLabelStore":
        """logits_i = k * onehot(noisy_i); the argmax of the soft label equals
        the noisy label for every k > 0 that `check_k` accepts."""
        noisy = np.asarray(noisy_labels, dtype=np.int64).ravel()
        c = int(num_classes)
        if np.any(noisy < 0) or np.any(noisy >= c):
            bad = int(noisy[np.argmax((noisy < 0) | (noisy >= c))])
            raise ValueError(f"noisy label {bad} out of range [0, {c})")
        logits = np.zeros((noisy.size, c))
        logits[np.arange(noisy.size), noisy] = float(k)
        return cls(logits, k)

    def _rows(self, ids) -> np.ndarray:
        """Sample ids are the row indices 0..N-1; anything else is unknown
        (negative ids included, which numpy indexing would wrap)."""
        rows = np.asarray(ids, dtype=np.int64).ravel()
        bad = (rows < 0) | (rows >= self.n)
        if bad.any():
            raise KeyError(f"unknown sample id {rows[bad.argmax()]}")
        return rows

    def soft_labels(self, ids=None) -> np.ndarray:
        """Row-wise softmax of the selected logits; (b, C)."""
        if ids is None:
            return softmax(self.logits)
        return softmax(self.logits[self._rows(ids)])

    def apply_label_gradient(self, ids, grad_wrt_logits, beta: float) -> int:
        """Descend the selected logits: logits[ids] -= beta * grad_wrt_logits.
        Rows with non-finite gradients are skipped (not zero-filled); returns
        the number skipped. Other rows are untouched. Bumps `version`."""
        rows = self._rows(ids)
        grad = np.asarray(grad_wrt_logits, dtype=np.float64)
        if grad.shape != (rows.size, self.num_classes):
            raise ValueError(
                f"gradient shape {grad.shape} does not match batch ({rows.size}, {self.num_classes})"
            )
        ok = np.all(np.isfinite(grad), axis=1)
        rows_ok = rows[ok]
        self.logits[rows_ok] -= float(beta) * grad[ok]
        self.version += 1
        return int(rows.size - rows_ok.size)

    # -- snapshot io -------------------------------------------------------

    def save(self, path) -> None:
        """Little-endian binary: magic, u32 version, u64 N, u32 C, f64 K,
        then row-major float64 logits. Written through a temp file, so a crash
        mid-write leaves the previous file at `path` intact."""
        with atomic_write(path) as fh:
            fh.write(SNAPSHOT_MAGIC)
            fh.write(struct.pack("<IQId", SNAPSHOT_VERSION, self.n,
                                 self.num_classes, self.k))
            fh.write(self.logits.astype("<f8").tobytes())

    @classmethod
    def load(cls, path) -> "SoftLabelStore":
        with open(path, "rb") as fh:
            blob = fh.read()
        header = struct.calcsize("<IQId")
        if len(blob) < 4 + header or blob[:4] != SNAPSHOT_MAGIC:
            raise LabelSnapshotError(f"{path}: corrupt snapshot header")
        version, n, c, k = struct.unpack_from("<IQId", blob, 4)
        if version != SNAPSHOT_VERSION:
            raise LabelSnapshotError(f"{path}: unsupported snapshot version {version}")
        if c < 1:
            raise LabelSnapshotError(f"{path}: need at least one class, got {c}")
        cls.check_k(k, f"{path}: K", LabelSnapshotError)
        payload = blob[4 + header:]
        if len(payload) != n * c * 8:
            raise LabelSnapshotError(
                f"{path}: expected {n * c * 8} logit bytes, found {len(payload)}"
            )
        logits = np.frombuffer(payload, dtype="<f8").reshape(n, c)
        if not np.isfinite(logits).all():
            raise LabelSnapshotError(f"{path}: a logit is not finite")
        return cls(logits.copy(), k)

    def export_csv(self, path) -> None:
        """CSV: sample_id, yhat_0..yhat_{C-1}, argmax."""
        yhat = self.soft_labels()
        cols = ",".join(f"yhat_{j}" for j in range(self.num_classes))
        with atomic_write(path) as fh:
            fh.write(f"sample_id,{cols},argmax\n".encode("utf-8"))
            for i, (row, arg) in enumerate(zip(yhat, yhat.argmax(axis=1).tolist())):
                vals = ",".join(map(repr, row.tolist()))
                fh.write(f"{i},{vals},{arg}\n".encode("utf-8"))
