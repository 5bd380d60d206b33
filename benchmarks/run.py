"""Entry point of the mslg benchmark.

    python3 benchmarks/run.py --workload desk-mslg --seed 1 --seconds 20 --trace 0

Run it from anywhere; it imports the mslg sources under `src/` of the
checkout that holds this file. It pins the BLAS and OpenMP pools to one
thread before numpy loads, prints one line describing the environment, and
ends with one JSON line: `correct`, `attempted`, `failed` and `metrics`
(end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`).
"""

import os
import sys
from pathlib import Path

PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

if __name__ == "__main__":
    for var in PINNED_THREADS:
        os.environ[var] = "1"
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "mslg" / "__init__.py").is_file():
        sys.exit(f"{sys.argv[0]}: no mslg sources at {root / 'src' / 'mslg'}")
    sys.path.insert(1, str(root / "src"))
    from harness import main

    sys.exit(main(sys.argv[1:], root))
