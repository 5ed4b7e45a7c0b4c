"""Test-suite settings: hypothesis runs derandomized, with no deadline and
no example database, so every run draws the same examples.  What it still
stores (a cache of constants read from the source, written as soon as
tests are collected) goes to a temporary directory removed at exit, so no
.hypothesis/ directory is left behind."""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("factpat", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("factpat")

_HOME = tempfile.TemporaryDirectory(prefix="factpat-hypothesis-")
set_hypothesis_home_dir(_HOME.name)
