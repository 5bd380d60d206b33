"""Peak resident memory of each command of one benchmark iteration.

    python3 tools/peak_rss.py --src src --workload wide-mslg --seed 1 --work /tmp/peaks

Records the `mslg` argv of each command of one iteration by running
`harness.run_iteration` with `mslg.cli.main` replaced by a recorder, so the
flags and paths are the harness's own. Then it runs those commands in
`--work`, which it empties first, each in its own child process that imports
`mslg` from `--src`, with the BLAS and OpenMP pools pinned to one thread.
It prints one line per command: its name, the peak resident set size
of its process in MB (`ru_maxrss` from `os.wait4`) and its exit code, and
stops at the first command that fails, exiting 1.

The benchmark's `peak_rss_mb` is the peak of one process that runs every
command of every iteration and, after each command, hashes its artifacts,
reading each file whole. The last line, `iteration`, is that number for one
iteration: one child loads the harness as above and runs one checked
iteration (`harness.GENS_PER_ITERATION` x gen, then train and eval, through
`harness.Runner`, which calls `harness.run_iteration`) in `--work`/iteration;
the tool exits 1 if an operation failed. On wide-mslg that line is 2.5-3 MB
above every command's. A per-step `ru_maxrss` trace of one such process
(seed 1, 2-core x86_64, numpy 2.4 on OpenBLAS) shows why. Loading the harness
takes it to 37.7 MB. The first gen takes it to 47.0, of which `gen_blobs`
alone adds 8.6, and the whole-file hash of the 10.2 MB `dataset.csv` to 49.0.
The later gens stay inside that freed heap. `train`'s first forward adds
1.0 MB, the OpenBLAS buffer of the process's first matmul (uniform noise fits
no probe), and the evaluation of its first epoch 0.4, for 50.6 in all. So
`train`, on top of the heap that gen and the hash left resident, sets the
peak, where each command's own child starts from about 35.8 MB (the
interpreter, numpy and mslg). Hashing in chunks moves the line by only
0.1-0.3 MB.
"""

import argparse
import os
import shutil
import sys
from pathlib import Path

from harness_loader import load_harness

TOOLS = Path(__file__).resolve().parent
RUN_COMMAND = "import sys; from mslg.cli import main; sys.exit(main(sys.argv[1:]))"
ITERATION_COMMAND = "import sys, peak_rss; sys.exit(peak_rss.check_iteration(*sys.argv[1:]))"


def parse_args(argv):
    p = argparse.ArgumentParser(prog="tools/peak_rss.py",
                                description=__doc__.split("\n")[0])
    p.add_argument("--src", required=True, type=Path,
                   help="source tree that holds the mslg package")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--work", required=True, type=Path,
                   help="directory for the run's files; emptied first")
    return p.parse_args(argv)


def plan(harness, wl, seed: int, work: Path) -> list[list[str]]:
    """The argv of each command of one iteration, as `harness.run_iteration`
    passes it to `mslg.cli.main`, recorded with a stand-in that runs nothing."""
    recorded = []

    def record(argv):
        recorded.append(list(argv))
        return 0

    main = harness.cli.main
    harness.cli.main = record
    try:
        harness.run_iteration(wl, seed, work)
    finally:
        harness.cli.main = main
    return recorded


def check_iteration(src: str, workload: str, seed: str, work: str) -> int:
    """Run in the `iteration` child: one checked benchmark iteration; 0 when
    every operation passed."""
    harness = load_harness(Path(src), [workload])
    runner = harness.Runner(harness.WORKLOADS[workload], int(seed), Path(work))
    return 0 if runner.iterate(harness.GENS_PER_ITERATION).ok else 1


def run_child(command: str, argv: list[str], env: dict) -> tuple[float, int]:
    """(peak RSS in MB, exit code) of `python -c command argv` in a child
    process whose stdout is discarded."""
    pid = os.posix_spawn(sys.executable, [sys.executable, "-c", command, *argv], env,
                         file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    _, status, usage = os.wait4(pid, 0)
    return usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status)


def main(argv) -> int:
    args = parse_args(argv)
    harness = load_harness(args.src, [args.workload])  # its pinning reaches each child
    work = args.work.resolve()
    commands = plan(harness, harness.WORKLOADS[args.workload], args.seed, work)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    src = str(args.src.resolve())
    runs = [(cli_argv[0], RUN_COMMAND, cli_argv, src) for cli_argv in commands]
    runs.append(("iteration", ITERATION_COMMAND,
                 [src, args.workload, str(args.seed), str(work / "iteration")], str(TOOLS)))
    for name, command, argv, path in runs:
        peak_mb, code = run_child(command, argv, {**os.environ, "PYTHONPATH": path})
        print(f"{name:5s}  peak_rss_mb {peak_mb:8.2f}  exit {code}", flush=True)
        if code != 0:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
