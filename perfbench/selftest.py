"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

Kept out of the default `pytest` collection (the name does not match
`test_*.py`) because the first test runs every benchmark job three ways,
which takes a few minutes.
"""
import json
import random
import subprocess
import sys
import time

import pytest

import run

sys.path.insert(0, str(run.SRC))

from wreathfock.groups import group_from_cayley_json  # noqa: E402

ALL_JOBS = sorted({run.job_key(a): a for jobs in run.WORKLOADS.values()
                   for a in jobs}.items())
CHEAP = ["verify", "mackey", "--group", "d4"]


@pytest.mark.parametrize("argv", [a for _, a in ALL_JOBS],
                         ids=[k for k, _ in ALL_JOBS])
def test_child_matches_plain_cli(argv):
    plain = subprocess.run([sys.executable, "-m", "wreathfock.cli", *argv],
                           capture_output=True, text=True, env=run.child_env(),
                           cwd=run.ROOT, timeout=600)
    for trace in (False, True):
        res = run.run_job(argv, trace, 600)
        assert res["error"] is None and res["speed"] > 0
        assert (res["rc"], res["stdout"]) == (plain.returncode, plain.stdout)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relabelled_groups_are_isomorphic_data(seed):
    from wreathfock.cli import parse_group
    for workload in run.WORKLOADS:
        builtin_jobs = run.make_jobs(workload, 0)
        for (_, argv), (_, orig) in zip(run.make_jobs(workload, seed),
                                           builtin_jobs):
            if argv == orig:
                assert argv[0] != "verify"
                continue
            spec = orig[orig.index("--group") + 1]
            path = argv[argv.index("--group") + 1]
            g = parse_group(spec)
            h = group_from_cayley_json(open(path).read())
            assert h.order == g.order
            assert sorted(map(h.class_size, range(h.num_classes))) == \
                sorted(map(g.class_size, range(g.num_classes)))


def test_relabelling_is_a_function_of_the_seed():
    t = [[(a + b) % 5 for b in range(5)] for a in range(5)]
    one = run.relabelled_table(t, random.Random(7))
    assert one == run.relabelled_table(t, random.Random(7))
    assert one[0] == list(range(5)) and [r[0] for r in one] == list(range(5))


def test_failure_detects_corrupted_output():
    expected = run.load_expected()
    data = expected["wreath classes --group s3 -N 3"]
    verify = expected["verify mackey --group d4"]
    good = "[PASS] " + verify["checks"][0] + "\n1/1 checks passed\n"
    assert run.failure(data, 0, data["stdout"]) is None
    assert run.failure(verify, 0, good) is None
    assert run.failure(data, 0, data["stdout"].replace("8", "9", 1))
    assert run.failure(data, 1, data["stdout"])
    assert run.failure(verify, 0, good.replace("[PASS]", "[FAIL]"))
    assert run.failure(verify, 0, "1/1 checks passed\n")


def test_fail_frac_nonzero_when_a_job_output_is_corrupted():
    key = "wreath classes --group s3 -N 3"
    wrong = ["wreath", "classes", "--group", "s3", "-N", "2"]
    results = run.run_pass([(key, wrong), (run.job_key(CHEAP), CHEAP)],
                           run.load_expected(), False, time.monotonic() + 600)
    summary = run.pass_summary(results)
    assert (summary["failed"], summary["jobs"]) == (1, 2)
    assert summary["verdict_s"] > 0          # a failed job still has a time


def test_trace_counts_repeat_and_cover_named_boundaries():
    first, second = (run.run_job(CHEAP, True, 600)["trace"] for _ in range(2))
    assert {k: v[0] for k, v in first.items()} == \
        {k: v[0] for k, v in second.items()}
    for fn_key, _ in run.BOUNDARIES.values():
        assert fn_key in first
    assert first["cli.main"][0] == 1
    assert {k.split(".", 1)[0] for k in first} == set(run.LAYERS)


def test_every_benchmark_metric_appears_in_a_result():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    fake_pass = {"verdict_s": 1.0, "cpu_s": 1.0, "setup_s": 0.1,
                 "peak_rss_mb": 20.0}
    e2e = run.end_to_end([fake_pass, fake_pass])
    assert set(e2e) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert e2e[m["name"]][1] == m["unit"]
    layers = run.per_layer([{"scalars.Cyclotomic.__mul__": [3, 1.0, 0.5]}],
                           0.25)
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"]:
        assert layers[m["name"]][1] == m["unit"]
    assert layers["scalars.Cyclotomic.mul.calls"][0] == 3
    assert layers["scalars.self_s"][0] == 0.5


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    value, pct, n = run.tail(list(range(20)))
    assert (value, n) == (9, 20) and sum(v > value for v in range(20)) == 10
    assert pct == 50.0
