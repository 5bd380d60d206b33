"""Crash-safe file writes: a reader finds either the old file or the whole
new one, never a partly written file; and the frame of `.ckpt` and `.slbl`."""

from __future__ import annotations

import contextlib
import os
import struct

import numpy as np

__all__ = ["atomic_write", "write_frame", "read_frame"]


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


def write_frame(path, magic: bytes, version: int, fmt: str, fields, values: np.ndarray) -> None:
    """`magic`, u32 `version`, the header `fields` by struct format `fmt`, then
    `values` row-major as float64, all little-endian, through `atomic_write`."""
    with atomic_write(path) as fh:
        fh.write(magic + struct.pack("<I" + fmt, version, *fields))
        fh.write(values.astype("<f8").tobytes())


def read_frame(path, magic: bytes, version: int, error, kind: str, unit: str, header):
    """(header fields, finite read-only float64 values) of a `write_frame` file.
    `header(take)` reads its fields with `take(struct format)`, checks them and
    returns (fields, value count). Faults raise `error` naming `path` and `kind`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    off = len(magic)
    if blob[:off] != magic:
        raise error(f"{path}: corrupt {kind} header: bad magic")
    def take(fmt: str) -> tuple:
        nonlocal off
        start, off = off, off + struct.calcsize("<" + fmt)
        if len(blob) < off:
            raise error(f"{path}: truncated {kind} header")
        return struct.unpack_from("<" + fmt, blob, start)
    (found,) = take("I")
    if found != version:
        raise error(f"{path}: unsupported {kind} version {found}")
    fields, count = header(take)
    # before anything is built from the fields: a corrupt header allocates nothing
    if len(blob) - off != 8 * count:
        raise error(f"{path}: expected {8 * count} {unit} bytes, found {len(blob) - off}")
    values = np.frombuffer(blob, dtype="<f8", offset=off)
    if not np.isfinite(values).all():
        raise error(f"{path}: a {unit} is not finite")
    return fields, values
