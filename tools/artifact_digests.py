"""sha256 of every file that the benchmark's gen -> train -> eval pipeline writes.

    python3 tools/artifact_digests.py --src src --work /tmp/digests --seeds 1,7 \
        [--workloads desk-mslg,wide-mslg,desk-ce]

For each workload and seed it runs one iteration of the pipeline in
`benchmarks/harness.py` (the workload's `gen` and `train` flags from
`harness.WORKLOADS`, then `eval`, each through `mslg.cli.main`) in
`--work/<workload>-<seed>/`, which it empties first. The `mslg` package is
imported from `--src`, so one checkout of this tool can digest any source
tree. It prints one `sha256  <path relative to --work>` line per file, sorted,
and exits 1 if a command fails. BLAS and OpenMP pools are pinned to one
thread before numpy loads.

To show that a change keeps every artifact byte-identical, run it on the
parent's and the change's source trees with the same `--work` and diff the
two listings: a run's `manifest.json` records its absolute `--data` path, so
the listings only match when both runs used the same directory. The
workloads default to all of `harness.WORKLOADS`.
"""

import argparse
import hashlib
import sys
from pathlib import Path

from harness_loader import load_harness


def parse_args(argv):
    p = argparse.ArgumentParser(prog="tools/artifact_digests.py",
                                description=__doc__.split("\n")[0])
    p.add_argument("--src", required=True, type=Path,
                   help="source tree that holds the mslg package")
    p.add_argument("--work", required=True, type=Path,
                   help="directory for the runs; reuse it to compare two trees")
    p.add_argument("--seeds", required=True,
                   type=lambda spec: [int(s) for s in spec.split(",")], metavar="S,S,...")
    p.add_argument("--workloads", type=lambda spec: spec.split(","), metavar="W,W,...")
    return p.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    harness = load_harness(args.src, args.workloads or ())
    workloads = args.workloads or sorted(harness.WORKLOADS)
    work = args.work.resolve()
    listing, failed = [], False
    for name in workloads:
        for seed in args.seeds:
            run = work / f"{name}-{seed}"
            it = harness.run_iteration(harness.WORKLOADS[name], seed, run)
            if len(it.ops) < it.planned or any(op.code != 0 for op in it.ops):
                print(f"{name} seed {seed}: {it.ops[-1].command} exited with "
                      f"{it.ops[-1].code}", file=sys.stderr)
                failed = True
            listing += [(path.relative_to(work).as_posix(),
                         hashlib.sha256(path.read_bytes()).hexdigest())
                        for path in run.rglob("*") if path.is_file()]
    for rel, digest in sorted(listing):
        print(f"{digest}  {rel}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
