import shutil
import subprocess
import sys
from pathlib import Path

import mslg

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "pair.py"
SRC = Path(mslg.__file__).resolve().parent.parent


def test_a_tree_paired_with_itself_ends_in_equal_bytes():
    # the ratios are timings and are not bounded; that both sides train the
    # same run, epoch for epoch, is exact
    proc = subprocess.run([sys.executable, str(TOOL), "--parent", str(SRC), "--change", str(SRC),
                           "--workload", "smoke", "--seeds", "1,2"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    *seeds, summary = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in seeds] == ["seed 1", "seed 2"]
    assert all(line.endswith(", final bytes equal") for line in seeds)
    assert summary.startswith("ratio over 2 seeds: median ")


def test_trees_that_resolve_the_workload_to_other_totals_are_refused(tmp_path):
    # a side that trained past, or stopped short of, the other's total would
    # time unequal work; the tool names both totals instead of a ratio
    change = tmp_path / "src"
    shutil.copytree(SRC / "mslg", change / "mslg", ignore=shutil.ignore_patterns("__pycache__"))
    presets = change / "mslg" / "presets.py"
    text = presets.read_text()
    smoke = '"blobs-smoke": replace(_BLOBS_DESK, total_epochs=10,'
    assert text.count(smoke) == 1
    presets.write_text(text.replace(smoke, smoke.replace("=10,", "=12,")))
    proc = subprocess.run([sys.executable, str(TOOL), "--parent", str(SRC), "--change",
                           str(change), "--workload", "smoke", "--seeds", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == ("seed 1: the parent runs 10 epochs and the change 12; "
                           "both must train the same epochs\n")


def test_each_side_is_driven_by_its_trees_epochs(tmp_path):
    # the stage schedule is `trainer.epochs`'s alone: a change whose `epochs`
    # raises before its first epoch must fail the tool with that error
    change = tmp_path / "src"
    shutil.copytree(SRC / "mslg", change / "mslg", ignore=shutil.ignore_patterns("__pycache__"))
    trainer = change / "mslg" / "trainer.py"
    text = trainer.read_text()
    loop = "    while state.epoch < cfg.total_epochs:\n"
    assert text.count(loop) == 1
    trainer.write_text(text.replace(loop, '    raise RuntimeError("epochs-marker")\n' + loop))
    proc = subprocess.run([sys.executable, str(TOOL), "--parent", str(SRC), "--change",
                           str(change), "--workload", "smoke", "--seeds", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.endswith("RuntimeError: epochs-marker\n")
