"""Peak resident memory of each command of one benchmark iteration.

    python3 tools/peak_rss.py --src src --workload wide-mslg --seed 1 --work /tmp/peaks

Runs the workload's `gen`, `train` and `eval` from `benchmarks/harness.py`
(the same flags and paths that one harness iteration uses) in
`--work`, which it empties first, each command in its own child process that
imports `mslg` from `--src`, with the BLAS and OpenMP pools pinned to one
thread. It prints one line per command: its name, the peak resident set size
of its process in MB (`ru_maxrss` from `os.wait4`) and its exit code, and
stops at the first command that fails, exiting 1.

The benchmark's `peak_rss_mb` is the peak of one process that runs every
command of every iteration; this tool says which command sets it.
"""

import argparse
import os
import shutil
import sys
from pathlib import Path

from harness_loader import load_harness

RUN_COMMAND = "import sys; from mslg.cli import main; sys.exit(main(sys.argv[1:]))"


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


def plan(wl, seed: int, work: Path) -> list[tuple[str, list[str]]]:
    """(command, argv) of one iteration, as `harness.run_iteration` runs it."""
    data, run = work / "data", work / "run"
    return [
        ("gen", ["gen", *wl.gen, "--seed", str(seed), "--out", str(data)]),
        ("train", ["train", "--data", str(data), "--out", str(run), "--seed", str(seed),
                   *wl.train]),
        ("eval", ["eval", "--data", str(data), "--checkpoint", str(run / "model.ckpt"),
                  "--labels", str(run / "labels.slbl"), "--out", str(work / "report.json")]),
    ]


def run_child(argv: list[str], env: dict) -> tuple[float, int]:
    """(peak RSS in MB, exit code) of `mslg argv` in a child process whose
    stdout is discarded."""
    pid = os.posix_spawn(sys.executable, [sys.executable, "-c", RUN_COMMAND, *argv], env,
                         file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    _, status, usage = os.wait4(pid, 0)
    return usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status)


def main(argv) -> int:
    args = parse_args(argv)
    harness = load_harness(args.src, [args.workload])  # its pinning reaches each child
    work = args.work.resolve()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(args.src.resolve())}
    for command, cli_argv in plan(harness.WORKLOADS[args.workload], args.seed, work):
        peak_mb, code = run_child(cli_argv, env)
        print(f"{command:5s}  peak_rss_mb {peak_mb:8.2f}  exit {code}", flush=True)
        if code != 0:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
