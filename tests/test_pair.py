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
