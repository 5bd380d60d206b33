"""Epoch times of two source trees, interleaved in one process.

    python3 tools/pair.py --parent SRC --change SRC --workload W --seeds A,B,...

Host contention drifts over seconds, so two trees timed in turn, one whole
run after the other, differ by more than most changes do. Here the two share
each slice of time. The `mslg` package of each tree is imported under its own
name (`mslg_parent`, `mslg_change`; the package imports itself only
relatively). For each seed, the workload's data is generated once, by the
parent's `gen` with the workload's `gen` flags from `benchmarks/harness.py`'s
`WORKLOADS`, in a temporary directory. Each side resolves the workload's
`train` flags and loads the splits with its own code, then the two advance
their own `RunState` one epoch at a time, each with its own `trainer.epochs`
(the loop that `mslg train` runs, which picks each epoch's stage), the side
that goes first alternating from epoch to epoch and from seed to seed. Both
trees must resolve the workload to the same total epochs; otherwise the tool
exits naming both totals, since unequal work has no ratio. BLAS and OpenMP
pools are pinned to one thread before numpy loads.

It prints one line per seed: each side's summed epoch seconds, their ratio
(change over parent) and whether the two sides' final parameters, SGD
velocity and label logits are equal bytes, naming those that are not. The
last line gives the median, interquartile range and range of the ratios. It
reports; it does not judge whether a change is faster.
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

from harness_loader import load_harness


def parse_args(argv):
    p = argparse.ArgumentParser(prog="tools/pair.py", description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, type=Path,
                   help="source tree that holds the parent's mslg package")
    p.add_argument("--change", required=True, type=Path,
                   help="source tree that holds the change's mslg package")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True,
                   type=lambda spec: [int(s) for s in spec.split(",")], metavar="S,S,...")
    return p.parse_args(argv)


def load_tree(src: Path, name: str):
    """The `mslg` package of `src`, imported as `name`, with its `cli` loaded."""
    init = src.resolve() / "mslg" / "__init__.py"
    if not init.is_file():
        sys.exit(f"{src}: no mslg package")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package  # before it runs, so its relative imports resolve
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    return package


class Side:
    """One tree's training run of a workload, advanced an epoch at a time."""

    def __init__(self, package, train_argv: list[str]):
        cli = package.cli
        args = cli.build_parser().parse_args(train_argv)
        cli._parse_values(args)
        self.cfg = cli._resolve_train_config(args)
        splits, _ = cli._load_splits(Path(args.data))
        self.state = package.trainer.RunState.initial(self.cfg, splits["train"])
        self.epochs = package.trainer.epochs(self.state, self.cfg, splits["train"],
                                             splits["meta"], splits["test"])
        self.seconds = 0.0

    def epoch(self) -> None:
        start = time.perf_counter()
        next(self.epochs)
        self.seconds += time.perf_counter() - start

    def final(self) -> dict[str, bytes]:
        state = self.state
        return {"params": state.model.params.tobytes(), "velocity": state.velocity.tobytes(),
                "logits": state.store.logits.tobytes()}


def pair(parent, change, workload, seed: int, parent_first: bool) -> tuple[Side, Side]:
    """Both sides of one seed, trained to the end with their epochs interleaved."""
    with tempfile.TemporaryDirectory(prefix="pair-") as tmp:
        data = Path(tmp) / "data"
        with contextlib.redirect_stdout(io.StringIO()):
            code = parent.cli.main(["gen", *workload.gen, "--seed", str(seed),
                                    "--out", str(data)])
        if code != 0:
            sys.exit(f"seed {seed}: the parent's gen exited with {code}")
        argv = ["train", "--data", str(data), "--out", str(Path(tmp) / "run"),
                "--seed", str(seed), *workload.train]
        sides = Side(parent, argv), Side(change, argv)
    totals = [side.cfg.total_epochs for side in sides]
    if totals[0] != totals[1]:
        sys.exit(f"seed {seed}: the parent runs {totals[0]} epochs and the change "
                 f"{totals[1]}; both must train the same epochs")
    for epoch in range(totals[0]):
        for side in sides if (epoch % 2 == 0) == parent_first else sides[::-1]:
            side.epoch()
    return sides


def main(argv) -> int:
    args = parse_args(argv)
    harness = load_harness(args.parent, [args.workload])
    parent, change = load_tree(args.parent, "mslg_parent"), load_tree(args.change, "mslg_change")
    ratios = []
    for i, seed in enumerate(args.seeds):
        old, new = pair(parent, change, harness.WORKLOADS[args.workload], seed, i % 2 == 0)
        ratios.append(new.seconds / old.seconds)
        ends = old.final(), new.final()
        differ = [name for name in ends[0] if ends[0][name] != ends[1][name]]
        print(f"seed {seed}: parent {old.seconds:.4f} s, change {new.seconds:.4f} s, "
              f"ratio {ratios[-1]:.4f}, final bytes "
              + (f"differ: {', '.join(differ)}" if differ else "equal"))
    q1, _, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    print(f"ratio over {len(ratios)} seeds: median {statistics.median(ratios):.4f}, "
          f"IQR {q3 - q1:.4f}, range {min(ratios):.4f}-{max(ratios):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
