import subprocess
import sys
from pathlib import Path

import mslg

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "artifact_digests.py"
SRC = Path(mslg.__file__).resolve().parent.parent

# every file one gen -> train -> eval iteration writes, relative to its directory
ARTIFACTS = {"data/dataset.csv", "data/manifest.json", "run/manifest.json",
             "run/metrics.csv", "run/model.ckpt", "run/labels.slbl",
             "run/last_good.ckpt", "run/last_good.slbl", "report.json"}


def _digests(work):
    proc = subprocess.run([sys.executable, str(TOOL), "--src", str(SRC), "--work", str(work),
                           "--seeds", "1", "--workloads", "smoke"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_digests_list_every_artifact_and_repeat_in_the_same_work_dir(tmp_path):
    first = _digests(tmp_path / "work")
    assert _digests(tmp_path / "work") == first
    rows = [line.split("  ") for line in first.splitlines()]
    assert all(len(digest) == 64 for digest, _ in rows)
    assert sorted(path for _, path in rows) == sorted(f"smoke-1/{a}" for a in ARTIFACTS)
