"""The committed report digests hold the configs that tests/report_bytes.py
draws for seed 0.

tests/report_bytes_seed0.txt is the output of

    python3 tests/report_bytes.py --seed 0 --count 200

and CI compares every Python version's run with it (--against).  A
change that alters report bytes on purpose regenerates the file and names
each config whose digest changed.  This test runs no engine: it checks
only that each line's number, driver and config are those that draw
makes, so that the digests are compared config by config.

tests/reach.py traces the same draws; a short run of it must list
correspondence.walk_G, the oracle that no driver calls.
"""

from __future__ import annotations

import random
import runpy
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).parent


def test_baseline_lines_are_the_seed_zero_draws():
    draw = runpy.run_path(str(HERE / "report_bytes.py"))["draw"]
    lines = (HERE / "report_bytes_seed0.txt").read_text().splitlines()
    assert len(lines) == 200
    rng = random.Random(0)
    for k, line in enumerate(lines):
        number, driver, sha, config = line.split(" ", 3)
        want_driver, cfg = draw(rng)
        assert (number, driver, config) == (str(k), want_driver, repr(cfg))
        assert len(sha) == 64 and int(sha, 16) >= 0


def test_tower_digest_is_the_committed_one():
    run = subprocess.run([sys.executable, str(HERE / "report_bytes.py"),
                          "--tower"], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    want = (HERE / "report_bytes_tower.txt").read_text().strip()
    assert run.stdout.strip() == want


def test_reach_lists_the_oracle_no_driver_calls():
    run = subprocess.run([sys.executable, str(HERE / "reach.py"),
                          "--count", "3"], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    listed = dict(line.split(" ", 1) for line in run.stdout.splitlines())
    assert listed["correspondence.walk_G"].endswith("(never called)")
    assert "census.run_census" not in listed
