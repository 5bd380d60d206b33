"""Fully connected classifier with explicit forward and backward passes.

Hidden layers are ReLU, the output layer is a row-wise softmax. `backward`
takes the gradient with respect to the softmax *output* (probabilities) and
routes it through the softmax Jacobian itself, so loss code only ever
differentiates with respect to probabilities.

The parameters live in one contiguous float64 vector `params`; `weights[i]`
and `biases[i]` are reshaped views into it. Its order, shared by gradients,
the optimizer state and checkpoints: all weight matrices in layer order, each
row-major, then all bias vectors in layer order.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, softmax, softmax_backward
from .rng import Rng

__all__ = [
    "NumericalError",
    "CheckpointError",
    "Mlp",
    "SgdState",
    "sgd_step",
]

CHECKPOINT_MAGIC = b"MLPC"
CHECKPOINT_VERSION = 1


class NumericalError(ArithmeticError):
    """Non-finite value where the training loop cannot continue."""


class CheckpointError(ValueError):
    """Malformed model checkpoint file."""


class Mlp:
    """Multilayer perceptron f(x) -> class probabilities.

    layer_sizes = (D, hidden..., C). Weights are He-uniform from the given
    stream (layer by layer; biases start at zero and consume no draws).
    """

    def __init__(self, layer_sizes, rng: Rng | None = None):
        sizes = tuple(int(s) for s in layer_sizes)
        if len(sizes) < 2 or any(s <= 0 for s in sizes):
            raise ValueError(f"layer_sizes must be >= 2 positive ints, got {sizes}")
        self.layer_sizes = sizes
        pairs = list(zip(sizes[:-1], sizes[1:]))
        self._blocks: list[tuple[slice, tuple[int, ...]]] = []
        pos = 0
        for shape in pairs + [(n_out,) for _, n_out in pairs]:
            self._blocks.append((slice(pos, pos + math.prod(shape)), shape))
            pos += math.prod(shape)
        self.params = np.zeros(pos)
        self.weights, self.biases = self.views(self.params)
        if rng is not None:
            for w in self.weights:
                limit = np.sqrt(6.0 / w.shape[0])
                w[...] = (rng.uniform(size=w.shape) * 2.0 - 1.0) * limit
        self._version = 0

    # -- shape / parameter plumbing --------------------------------------

    @property
    def num_layers(self) -> int:
        return len(self.layer_sizes) - 1

    @property
    def num_params(self) -> int:
        return self.params.size

    def views(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer (weights, biases) views into a vector in parameter order."""
        parts = [flat[where].reshape(shape) for where, shape in self._blocks]
        return parts[:self.num_layers], parts[self.num_layers:]

    def get_flat(self) -> np.ndarray:
        return self.params.copy()

    def set_flat(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64).ravel()
        if flat.size != self.num_params:
            raise ValueError(
                f"flat parameter vector has {flat.size} entries, model has {self.num_params}"
            )
        self.params[...] = flat
        self._version += 1

    def copy(self) -> "Mlp":
        dup = Mlp(self.layer_sizes)
        dup.params[...] = self.params
        return dup

    def perturbed(self, direction: np.ndarray, eps: float) -> "Mlp":
        """Fresh model at theta + eps*direction; this model is untouched."""
        direction = np.asarray(direction, dtype=np.float64).ravel()
        if direction.size != self.num_params:
            raise ValueError(
                f"direction has {direction.size} entries, model has {self.num_params}"
            )
        dup = Mlp(self.layer_sizes)
        dup.params[...] = self.params + eps * direction
        return dup

    # -- forward / backward ----------------------------------------------

    def forward(self, x) -> tuple[np.ndarray, dict]:
        """Run a (b, D) batch; returns (probs, cache) where cache feeds backward()."""
        x = as_matrix(x, "x_batch")
        if x.shape[1] != self.layer_sizes[0]:
            raise ValueError(
                f"input has {x.shape[1]} features, model expects {self.layer_sizes[0]}"
            )
        acts = [x]          # post-activation inputs to each layer
        pre = []            # pre-activation outputs of each layer
        h = x
        for i in range(self.num_layers):
            z = h @ self.weights[i] + self.biases[i]
            pre.append(z)
            h = np.maximum(z, 0.0) if i < self.num_layers - 1 else z
            if i < self.num_layers - 1:
                acts.append(h)
        probs = softmax(pre[-1])
        if not np.all(np.isfinite(probs)):
            raise NumericalError("forward produced non-finite probabilities")
        cache = {"model": self, "version": self._version, "acts": acts,
                 "pre": pre, "probs": probs}
        return probs, cache

    def predict(self, x) -> np.ndarray:
        return self.forward(x)[0]

    def backward(self, cache: dict, dL_df) -> np.ndarray:
        """Gradient of the scalar loss whose probability-gradient is dL_df.

        Returns a fresh flat vector in parameter order. Any batch-mean factor
        must already be inside dL_df; nothing is rescaled here.
        """
        if cache.get("model") is not self or cache.get("version") != self._version:
            raise ValueError("backward: cache is stale or from a different model")
        dL_df = as_matrix(dL_df, "dL_df")
        probs = cache["probs"]
        if dL_df.shape != probs.shape:
            raise ValueError(
                f"dL_df shape {dL_df.shape} does not match forward output {probs.shape}"
            )
        dz = softmax_backward(probs, dL_df)
        grad = np.empty(self.num_params)
        dws, dbs = self.views(grad)
        for i in range(self.num_layers - 1, -1, -1):
            np.matmul(cache["acts"][i].T, dz, out=dws[i])
            dz.sum(axis=0, out=dbs[i])
            if i > 0:
                da = dz @ self.weights[i].T
                dz = da * (cache["pre"][i - 1] > 0.0)
        return grad

    # -- checkpoint io -----------------------------------------------------

    def save(self, path) -> None:
        """Little-endian binary: magic, u32 version, u32 n_sizes, u32 sizes,
        then float64 parameters in flatten order."""
        sizes = self.layer_sizes
        with open(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(sizes)))
            fh.write(struct.pack(f"<{len(sizes)}I", *sizes))
            fh.write(self.params.astype("<f8").tobytes())

    @classmethod
    def load(cls, path) -> "Mlp":
        with open(path, "rb") as fh:
            blob = fh.read()
        if len(blob) < 12 or blob[:4] != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: bad checkpoint magic")
        version, n_sizes = struct.unpack_from("<II", blob, 4)
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        off = 12
        if len(blob) < off + 4 * n_sizes:
            raise CheckpointError(f"{path}: truncated checkpoint header")
        sizes = struct.unpack_from(f"<{n_sizes}I", blob, off)
        off += 4 * n_sizes
        model = cls(sizes)
        expected = model.num_params * 8
        payload = blob[off:]
        if len(payload) != expected:
            raise CheckpointError(
                f"{path}: expected {expected} parameter bytes, found {len(payload)}"
            )
        model.set_flat(np.frombuffer(payload, dtype="<f8"))
        return model


@dataclass
class SgdState:
    """SGD with classical momentum and decoupled-from-nothing weight decay:
    v <- mu*v + (g + wd*theta); theta <- theta - lr*v, in that order."""

    lr: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    velocity: np.ndarray | None = None


def sgd_step(model: Mlp, grad: np.ndarray, opt: SgdState) -> None:
    """Apply one optimizer step in place. Aborts on non-finite gradients,
    naming the first layer that holds one, before touching any parameter."""
    if np.shape(grad) != model.params.shape:
        raise ValueError(f"gradient shape {np.shape(grad)} does not match "
                         f"{model.num_params} parameters")
    finite = np.isfinite(grad)
    if not finite.all():
        dws, dbs = model.views(finite)
        layer = next(i for i, (w, b) in enumerate(zip(dws, dbs))
                     if not (w.all() and b.all()))
        raise NumericalError(f"non-finite gradient in layer {layer}")
    if opt.velocity is None:
        opt.velocity = np.zeros_like(model.params)
    opt.velocity *= opt.momentum
    opt.velocity += grad + opt.weight_decay * model.params
    model.params -= opt.lr * opt.velocity
    model._version += 1
