"""Crash-safe file writes: a reader finds either the old file or the whole
new one, never a partly written file."""

from __future__ import annotations

import contextlib
import os

__all__ = ["atomic_write"]


@contextlib.contextmanager
def atomic_write(path):
    """Binary file handle on a sibling temp file that replaces `path` in one
    rename when the block exits cleanly. If the block raises, the temp file
    is removed and `path` is left as it was."""
    path = os.fspath(path)
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
