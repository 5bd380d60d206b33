import dataclasses
import importlib.util
from pathlib import Path

import mslg

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
SRC = Path(mslg.__file__).resolve().parent.parent
CRITERION_1 = "tests/test_acceptance.py::test_criterion_1_bilevel_oracle"
STALE = "tests/test_presets.py::test_cifar10_shared_hyperparameters"

_spec = importlib.util.spec_from_file_location("mutants", TOOL)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_listed_mutant_applies_once_and_a_missing_one_is_named():
    listed = mutants.read_mutants()
    assert listed and [mutants.check(SRC, m) for m in listed] == [None] * len(listed)
    missing = mutants.Mutant("gone", "mslg/trainer.py", "no such text", "")
    assert mutants.check(SRC, missing) == (
        "mslg/trainer.py: old string found 0 times, need 1: no such text")


def test_the_label_gradient_sign_mutant_is_killed_by_criterion_1():
    # under a stale hint, a test the mutant survives, the tool falls back to
    # the suite (narrowed here to criterion 1), which kills it, and names the hint
    sign = next(m for m in mutants.read_mutants() if m.bug == "label-gradient sign")
    assert sign.kills == CRITERION_1
    stale = dataclasses.replace(sign, kills=STALE)
    code, _, first, note = mutants.judge(SRC, stale, [CRITERION_1])
    assert (code, first) == (1, CRITERION_1)
    assert note == f"hint {STALE} did not kill it (pytest exit 0)"
