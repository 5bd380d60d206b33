import subprocess
import sys
from pathlib import Path

import mslg

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "peak_rss.py"
SRC = Path(mslg.__file__).resolve().parent.parent


def test_peak_rss_reports_each_command_of_the_smoke_workload(tmp_path):
    proc = subprocess.run([sys.executable, str(TOOL), "--src", str(SRC), "--workload", "smoke",
                           "--seed", "1", "--work", str(tmp_path / "work")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert [row[0] for row in rows] == ["gen", "train", "eval", "iteration"]
    for _, metric, peak, exit_word, code in rows:
        assert (metric, exit_word, code) == ("peak_rss_mb", "exit", "0")
        assert float(peak) > 0
    assert (tmp_path / "work" / "report.json").is_file()
    assert (tmp_path / "work" / "iteration" / "report.json").is_file()
