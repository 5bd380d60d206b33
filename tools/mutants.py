"""Mutation gate: each listed bug must fail the test suite.

    python3 tools/mutants.py --src src

Reads `tools/mutants.txt`: one block per mutant, naming the bug it stands
for, a file under `--src`, an exact old string that must occur in it once,
the new string and, optionally, the test node that kills it (`kills:`). Every
old string is checked before anything runs, so the list cannot rot unseen.
Then, for each mutant, it copies `--src` and this checkout's `tests/`
(without `test_mutants.py`, the smoke test of this tool), `tools/`,
`benchmarks/` and `pyproject.toml` to a temporary directory, applies the edit
to the copy of `--src` and runs `pytest -x -q` there on the hinted node; the
suite's `pythonpath` makes it import the mutated copy. When there is no hint,
or the hinted node does not kill the mutant, it runs `pytest -x -q tests`,
after a `stale` line naming a hint that did not kill, so a stale hint costs
time but cannot hide a survivor. It prints one line per mutant: `killed` or
`SURVIVED`, the seconds its runs took, the bug and the first failing test. It
exits 1 if a mutant survives, if an old string is missing or repeated, or if
the whole suite's pytest ends any other way than passed or failed. The
unmutated tree is assumed to pass the suite.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent
LIST = TOOLS / "mutants.txt"
SUITE = ("tests", "tools", "benchmarks", "pyproject.toml")  # what the tests read beside src
SKIP = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", ".benchwork",
                              "test_mutants.py")


@dataclass(frozen=True)
class Mutant:
    bug: str
    file: str
    old: str
    new: str
    kills: str = ""  # the test node that kills it, run before the whole suite


def read_mutants() -> list[Mutant]:
    mutants = []
    for block in LIST.read_text().split("\n\n"):
        lines = [line for line in block.splitlines() if line and not line.startswith("#")]
        if lines:
            mutants.append(Mutant(**dict(line.split(": ", 1) for line in lines)))
    return mutants


def check(src: Path, mutant: Mutant) -> str | None:
    """Why `mutant` cannot be applied to `src`, or None if it can."""
    path = src / mutant.file
    if not path.is_file():
        return f"{mutant.file}: no such file"
    count = path.read_text().count(mutant.old)
    if count != 1:
        return f"{mutant.file}: old string found {count} times, need 1: {mutant.old}"
    return None


def run_mutant(src: Path, mutant: Mutant, tests=("tests",)) -> tuple[int, float, str]:
    """(pytest's exit code, seconds, first failing test or "") of `pytest -x`
    on `tests`, run on a copy of `src` with `mutant` applied."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        for name in SUITE:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, tree / name, ignore=SKIP)
            else:
                shutil.copy2(ROOT / name, tree / name)
        shutil.copytree(src, tree / "src", ignore=SKIP)
        target = tree / "src" / mutant.file
        target.write_text(target.read_text().replace(mutant.old, mutant.new))
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-rfE",
                               "-p", "no:cacheprovider", *tests],
                              cwd=tree, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    failed = [line.split(" - ", 1)[0].split(" ", 1)[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return proc.returncode, seconds, failed[0] if failed else ""


def judge(src: Path, mutant: Mutant, suite=("tests",)) -> tuple[int, float, str, str]:
    """`run_mutant` on the mutant's hinted node, then on `suite` unless the
    hint killed it: (exit code, seconds of both runs, first failing test, a
    note naming a hint that did not kill, else "")."""
    if mutant.kills:
        code, seconds, first = run_mutant(src, mutant, [mutant.kills])
        if code == 1:
            return code, seconds, first, ""
        note = f"hint {mutant.kills} did not kill it (pytest exit {code})"
    else:
        seconds, note = 0.0, ""
    code, more, first = run_mutant(src, mutant, suite)
    return code, seconds + more, first, note


def main(argv) -> int:
    p = argparse.ArgumentParser(prog="tools/mutants.py", description=__doc__.split("\n")[0])
    p.add_argument("--src", required=True, type=Path,
                   help="source tree that holds the mslg package")
    src = p.parse_args(argv).src.resolve()
    mutants = read_mutants()
    problems = [problem for problem in (check(src, m) for m in mutants) if problem]
    for problem in problems:
        print(f"missing   {problem}")
    if problems:
        return 1
    bad = 0
    for mutant in mutants:
        code, seconds, first, note = judge(src, mutant)
        if note:
            print(f"stale     {mutant.bug}: {note}", flush=True)
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"pytest exit {code}")
        print(f"{verdict:8s}  {seconds:5.1f} s  {mutant.bug}  {first}", flush=True)
        bad += code != 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
