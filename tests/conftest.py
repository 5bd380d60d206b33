"""Hypothesis draws the same examples on every run and keeps no example
database, so reruns of the suite are deterministic. The source constants it
caches go to a temporary directory removed at exit, not to `.hypothesis/`."""

import os
import tempfile

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

_storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = _storage.name
