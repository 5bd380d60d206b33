"""The suite's own pytest configuration: warnings are errors, yet a failing
property test fails alone and the rest of the run goes on."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_property_test_does_not_abort_the_run(tmp_path):
    (tmp_path / "test_probe.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
    """))
    env = {**os.environ, "HYPOTHESIS_STORAGE_DIRECTORY": str(tmp_path / "hypothesis")}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "test_probe.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in proc.stdout
    assert proc.returncode == 1, output
