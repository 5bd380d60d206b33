"""Dense float64 array helpers shared by every other module.

All numeric state in this package lives in row-major float64 numpy arrays.
Everything here is a pure function. 64-bit precision keeps the label
gradient, a second-order quantity taken through a softmax tangent, accurate
enough to match a brute-force bilevel oracle.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_matrix",
    "softmax",
    "softmax_backward",
]


def as_matrix(a, name: str = "array") -> np.ndarray:
    """Coerce to a C-contiguous float64 2-D array."""
    arr = np.ascontiguousarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name}: expected a 2-D array, got shape {arr.shape}")
    return arr


def softmax(v) -> np.ndarray:
    """Row-wise softmax with max subtraction; works on vectors and matrices.

    Output rows are on the probability simplex; no epsilon flooring is applied
    here (losses add their own floors where they take logs).
    """
    arr = np.asarray(v, dtype=np.float64)
    e = arr - arr.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    return np.divide(e, e.sum(axis=-1, keepdims=True), out=e)


def softmax_backward(s, upstream) -> np.ndarray:
    """Pull `upstream` back through softmax whose output was `s`.

    Returns J^T u with J_jk = s_j (delta_jk - s_k), i.e. s * (u - <s, u>)
    row-wise. `s` must already be softmax output.
    """
    s = np.asarray(s, dtype=np.float64)
    u = np.asarray(upstream, dtype=np.float64)
    if s.shape != u.shape:
        raise ValueError(f"softmax_backward: shape mismatch {s.shape} vs {u.shape}")
    dot = np.sum(s * u, axis=-1, keepdims=True)
    return s * (u - dot)
