"""The end-to-end harness must keep running against ``src/``.

``benchmarks/e2e/`` imports some forty names from the engine, replays
each job through public functions, indexes ``ExecutionMetrics`` phases by
a fixed set of names and compares result digests with pinned ones — and
it is outside tier-1's ``testpaths``.  Running its smoke scale here turns
an import error, an unknown phase name, an unlisted layer metric or a
digest drift into a test failure instead of a rejected benchmark run.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "benchmarks", "e2e", "run.py")


@pytest.mark.parametrize("flags", [(), ("--trace",)], ids=["end_to_end", "traced"])
def test_every_smoke_workload_is_correct(flags):
    """Exit code 0 means every workload's result record is ``correct``."""
    done = subprocess.run(
        [sys.executable, RUN, "--scale", "smoke", *flags],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
