"""Smoke test of the benchmark harness on the seconds-long `smoke` workload.

    python3 -m pytest benchmarks/test_smoke.py

It checks the result schema against BENCHMARK.json and that the output check
runs and catches a failure. It has no timing bounds.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
import mslg  # noqa: E402
from mslg.datasets import load_dataset_csv  # noqa: E402
from mslg.soft_labels import SoftLabelStore  # noqa: E402
from tracer import Tracer  # noqa: E402


def declared_units(key: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[key]}


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_reported_with_its_unit(trace, key):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "smoke", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    # three commands per iteration, at least MIN_ITERATIONS iterations
    assert result["attempted"] >= 3 * harness.MIN_ITERATIONS
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared_units(key)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_output_check_flags_changed_bytes_and_low_quality(tmp_path):
    wl = harness.WORKLOADS["smoke"]
    it = harness.run_iteration(wl, 3, tmp_path / "it", gens=2)
    assert [(op.command, op.code) for op in it.ops] == [
        ("gen", 0), ("gen", 0), ("train", 0), ("eval", 0)]
    reference = {op.command: op.digests for op in it.ops}
    assert harness.check(it, reference, wl) == []

    tampered = dict(reference, train={**reference["train"], "run/model.ckpt": "0" * 64})
    assert harness.check(it, tampered, wl) == ["train"]
    strict = dataclasses.replace(wl, min_label_accuracy=1.01)
    assert harness.check(it, reference, strict) == ["eval"]


def test_label_accuracy_matches_the_artifacts(tmp_path):
    it = harness.run_iteration(harness.WORKLOADS["smoke"], 4, tmp_path / "it")
    train = load_dataset_csv(tmp_path / "it" / "data" / "dataset.csv")["train"]
    store = SoftLabelStore.load(tmp_path / "it" / "run" / "labels.slbl")
    expected = float(np.mean(store.soft_labels().argmax(axis=1) == train.true_labels))
    assert harness.label_accuracy(it.report) == pytest.approx(expected, abs=1e-12)


def test_tracer_restores_every_patched_name(tmp_path):
    before = (mslg.trainer.cce_loss, mslg.cli.cmd_train, mslg.Mlp.__dict__["forward"],
              mslg.rng.Rng.__dict__["__init__"])
    tracer = Tracer()
    with tracer.installed():
        assert mslg.trainer.cce_loss is not before[0]
        harness.run_iteration(harness.WORKLOADS["smoke"], 3, tmp_path / "it")
    after = (mslg.trainer.cce_loss, mslg.cli.cmd_train, mslg.Mlp.__dict__["forward"],
             mslg.rng.Rng.__dict__["__init__"])
    assert after == before
    assert {"cli.cmd_gen", "cli.cmd_train", "cli.cmd_eval"} <= set(tracer.names)
