"""The benchmark's correctness gate in Tier-1: every seed-0 job of
`perfbench/run.py` runs in-process through `cli.main`, and its exit code
and stdout must pass the benchmark's own `failure` check against
`perfbench/expected.json`.  A change that would fail the benchmark's
output check fails here first."""
import runpy
from pathlib import Path

import pytest

from wreathfock import cli

# run.py is read, never written: runpy compiles it without a bytecode cache
RUN = runpy.run_path(str(Path(__file__).resolve().parent.parent
                         / "perfbench" / "run.py"))
JOBS = [key for workload in RUN["WORKLOADS"]
        for key, _ in RUN["make_jobs"](workload, 0)]


@pytest.mark.parametrize("key", JOBS)
def test_benchmark_job_passes_its_gate(key, capsys):
    rc = cli.main(key.split())
    out = capsys.readouterr().out
    assert RUN["failure"](RUN["load_expected"]()[key], rc, out) is None
