"""Shared assertions for gradient-oracle tests, and a failing-write fixture."""

import numpy as np


def assert_grads_close(analytic, reference, rel=1e-4, abs_floor=1e-8):
    """Entrywise |a - r| <= rel*|r|, except entries with |r| < abs_floor are
    compared absolutely at abs_floor (finite-difference noise floor)."""
    analytic = np.asarray(analytic, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    assert analytic.shape == reference.shape
    err = np.abs(analytic - reference)
    tol = np.maximum(rel * np.abs(reference), abs_floor)
    worst = (err - tol).max()
    assert np.all(err <= tol), (
        f"gradient mismatch: worst excess {worst:.3e}, "
        f"max err {err.max():.3e} at |ref| {np.abs(reference).flat[err.argmax()]:.3e}"
    )


class FailingArray(np.ndarray):
    """Array whose serialisation fails, as a full disk would mid-write."""

    def astype(self, *args, **kwargs):
        raise OSError("no space left on device")
