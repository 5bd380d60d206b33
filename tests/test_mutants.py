import importlib.util
from pathlib import Path

import mslg

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
SRC = Path(mslg.__file__).resolve().parent.parent
CRITERION_1 = "tests/test_acceptance.py::test_criterion_1_bilevel_oracle"

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
    sign = next(m for m in mutants.read_mutants() if m.bug == "label-gradient sign")
    code, _, first = mutants.run_mutant(SRC, sign, [CRITERION_1])
    assert (code, first) == (1, CRITERION_1)
