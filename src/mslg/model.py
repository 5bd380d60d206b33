"""Fully connected classifier with explicit forward and backward passes.

Hidden layers are ReLU, the output layer is a row-wise softmax. `backward`
takes the gradient with respect to the pre-softmax output z (the logits), so
loss code differentiates through the softmax itself; a gradient with respect
to the probabilities is pulled back with `linalg.softmax_backward` first.
`tangent` returns the directional derivative of the probabilities.

A forward's cache holds each layer's input (`acts`: the batch, then each
hidden layer's ReLU output, computed in place over its pre-activation) and
the probabilities, and nothing else. `backward` and `tangent` take the ReLU
mask of hidden layer i as `acts[i + 1] > 0`, which equals the pre-activation's
`> 0` for every float, NaN and -0.0 included.

The parameters live in one contiguous float64 vector `params`, cut by a
block table that `copy` shares and `backward` writes its gradient through;
`weights[i]` and `biases[i]` are reshaped views into it, in a `copy.deepcopy`
or `pickle` copy too. Its order, shared by gradients, the SGD velocity and
checkpoints: weight matrices in layer order, each row-major, then biases.
"""

from __future__ import annotations

import math

import numpy as np

from .atomic import read_frame, write_frame
from .linalg import as_matrix, softmax, softmax_backward
from .rng import Rng

__all__ = [
    "NumericalError",
    "CheckpointError",
    "Mlp",
    "sgd_step",
    "sgd_pass",
]

CHECKPOINT_MAGIC = b"MLPC"
CHECKPOINT_VERSION = 1
# rows per forward in `Mlp.predict`: an evaluation of a whole split holds one
# block's hidden activations at a time, however many rows the split has
PREDICT_ROWS = 256


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
                w[...] = (rng.random(w.shape) * 2.0 - 1.0) * limit
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

    def __setstate__(self, state: dict) -> None:
        # deepcopy and pickle rebuild `params` and each view as separate arrays
        self.__dict__.update(state)
        self.weights, self.biases = self.views(self.params)

    def copy(self) -> "Mlp":
        dup = Mlp.__new__(Mlp)  # shares the block table that `__init__` would rebuild
        dup.__setstate__({**self.__dict__, "params": self.params.copy(), "_version": 0})
        return dup

    def perturbed(self, direction: np.ndarray, eps: float) -> "Mlp":
        """Fresh model at theta + eps*direction; this model is untouched."""
        direction = self._direction(direction)
        dup = self.copy()
        dup.params += eps * direction
        return dup

    def _direction(self, direction) -> np.ndarray:
        """A parameter-space direction as a flat float64 vector."""
        direction = np.asarray(direction, dtype=np.float64).ravel()
        if direction.size != self.num_params:
            raise ValueError(
                f"direction has {direction.size} entries, model has {self.num_params}"
            )
        return direction

    # -- forward / backward ----------------------------------------------

    def forward(self, x) -> tuple[np.ndarray, dict]:
        """Run a (b, D) batch; returns (probs, cache) where cache feeds backward()."""
        x = as_matrix(x, "x_batch")
        if x.shape[1] != self.layer_sizes[0]:
            raise ValueError(
                f"input has {x.shape[1]} features, model expects {self.layer_sizes[0]}"
            )
        acts = [x]  # each layer's input
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = acts[-1] @ w
            z += b
            if i < last:
                acts.append(np.maximum(z, 0.0, out=z))
        probs = softmax(z)
        if not np.isfinite(probs).all():
            raise NumericalError("forward produced non-finite probabilities")
        cache = {"model": self, "version": self._version, "acts": acts, "probs": probs}
        return probs, cache

    def predict(self, x) -> np.ndarray:
        """Probabilities of a (n, D) input of any size: `forward` over
        consecutive blocks of at most PREDICT_ROWS rows, concatenated. A 0-row
        input still runs one forward, so its shape is checked."""
        x = as_matrix(x, "x_batch")
        starts = range(0, max(x.shape[0], 1), PREDICT_ROWS)
        return np.concatenate([self.forward(x[i:i + PREDICT_ROWS])[0] for i in starts])

    def backward(self, cache: dict, dL_dz) -> np.ndarray:
        """Gradient of the scalar loss whose gradient with respect to the
        pre-softmax output z is dL_dz.

        Returns a fresh flat vector in parameter order. Any batch-mean factor
        must already be inside dL_dz; nothing is rescaled here.
        """
        self._check_cache(cache, "backward")
        dz = as_matrix(dL_dz, "dL_dz")
        if dz.shape != cache["probs"].shape:
            raise ValueError(
                f"dL_dz shape {dz.shape} does not match forward output {cache['probs'].shape}"
            )
        grad = np.empty(self.num_params)
        acts, n = cache["acts"], len(self.weights)
        for i in range(n - 1, -1, -1):
            (w_at, w_shape), (b_at, _) = self._blocks[i], self._blocks[n + i]
            np.matmul(acts[i].T, dz, out=grad[w_at].reshape(w_shape))
            dz.sum(axis=0, out=grad[b_at])
            if i > 0:
                dz = dz @ self.weights[i].T
                dz *= acts[i] > 0.0
        return grad

    def tangent(self, cache: dict, direction: np.ndarray) -> np.ndarray:
        """Directional derivative of the forward output, J_theta f . direction.

        One forward-mode pass over the activations and ReLU masks in `cache`
        (Pearlmutter's R-operator): exact, and no new forward is run.
        `direction` is a flat vector in parameter order; returns (b, C).
        """
        self._check_cache(cache, "tangent")
        dws, dbs = self.views(self._direction(direction))
        acts = cache["acts"]
        dz = acts[0] @ dws[0] + dbs[0]
        for i in range(1, self.num_layers):
            dz = (dz * (acts[i] > 0.0)) @ self.weights[i] + acts[i] @ dws[i] + dbs[i]
        # the softmax Jacobian is symmetric, so its JVP is its VJP
        return softmax_backward(cache["probs"], dz)

    def _check_cache(self, cache: dict, who: str) -> None:
        if cache.get("model") is not self or cache.get("version") != self._version:
            raise ValueError(f"{who}: cache is stale or from a different model")

    # -- checkpoint io -----------------------------------------------------

    def save(self, path) -> None:
        """An `atomic.write_frame` frame: magic `MLPC`, u32 version, u32
        n_sizes, u32 sizes, then the parameters in parameter order."""
        sizes = self.layer_sizes
        write_frame(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, f"{len(sizes) + 1}I",
                    (len(sizes), *sizes), self.params)

    @classmethod
    def load(cls, path) -> "Mlp":
        def header(take):
            (n_sizes,) = take("I")
            sizes = take(f"{n_sizes}I")
            if n_sizes < 2 or 0 in sizes:
                raise CheckpointError(f"{path}: layer sizes must be >= 2 positive ints, "
                                      f"got {sizes}")
            return sizes, sum((n_in + 1) * n_out for n_in, n_out in zip(sizes, sizes[1:]))
        sizes, params = read_frame(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, CheckpointError,
                                   "checkpoint", "parameter", header)
        model = cls(sizes)
        model.params[...] = params
        return model


def sgd_step(model: Mlp, grad: np.ndarray, velocity: np.ndarray, lr: float,
             momentum: float, weight_decay: float) -> None:
    """One SGD step in place: velocity <- momentum*velocity + (grad +
    weight_decay*params), then params <- params - lr*velocity. Aborts on a
    non-finite gradient, naming its first layer, before touching anything."""
    if np.shape(grad) != model.params.shape:
        raise ValueError(f"gradient shape {np.shape(grad)} does not match "
                         f"{model.num_params} parameters")
    finite = np.isfinite(grad)
    if not finite.all():
        dws, dbs = model.views(finite)
        layer = next(i for i, (w, b) in enumerate(zip(dws, dbs))
                     if not (w.all() and b.all()))
        raise NumericalError(f"non-finite gradient in layer {layer}")
    velocity *= momentum
    step = weight_decay * model.params  # one temporary, reused for lr*velocity
    velocity += np.add(grad, step, out=step)
    model.params -= np.multiply(lr, velocity, out=step)
    model._version += 1


def sgd_pass(model: Mlp, velocity: np.ndarray, rates: tuple[float, float, float],
             x, order, batch_size: int, batch_loss) -> float:
    """One SGD pass over the rows `order` of `x` in batches, each a forward,
    `batch_loss(ids, probs, cache)` -> (batch-mean loss, dL/dz) and one `sgd_step`
    at `rates` (lr, momentum, weight decay). Returns the sample-weighted mean loss."""
    loss_sum = 0.0
    for start in range(0, order.size, batch_size):
        ids = order[start:start + batch_size]
        probs, cache = model.forward(x[ids])
        loss, dz = batch_loss(ids, probs, cache)
        sgd_step(model, model.backward(cache, dz), velocity, *rates)
        loss_sum += loss * ids.size
    return loss_sum / order.size
