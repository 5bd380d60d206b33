"""The benchmark harness, imported for a tool with the `mslg` package of any
source tree.

Both tools in this directory call `load_harness`, so each pins the BLAS and
OpenMP pools, checks `--src` and names an unknown workload the same way.
"""

import os
import sys
from pathlib import Path

PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def load_harness(src: Path, workloads):
    """`benchmarks/harness.py`, imported after putting `src` first on
    `sys.path` and pinning one thread in this process's environment (so also
    in every child it starts). Exits naming `src` if it holds no mslg
    package, or the first of `workloads` that the harness does not define."""
    if not (src.resolve() / "mslg" / "__init__.py").is_file():
        sys.exit(f"{src}: no mslg package")
    for var in PINNED_THREADS:
        os.environ[var] = "1"
    sys.path[:0] = [str(src.resolve()), str(BENCHMARKS)]
    import harness  # numpy loads here, after the pinning

    unknown = [w for w in workloads if w not in harness.WORKLOADS]
    if unknown:
        sys.exit(f"unknown workload {unknown[0]!r}; known: {' '.join(sorted(harness.WORKLOADS))}")
    return harness
