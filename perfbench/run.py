"""The wreathfock benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the library is imported from
`src/`. Each job is one real `wreathfock` CLI invocation (`cli.main(argv)`)
in a fresh interpreter, so every run pays the process-level caches cold,
as a user does. Jobs run one at a time in a closed loop from this single
process; a pass is one run through the workload's job list. Every job's
output is checked against outputs recorded from a known-good version
(`expected.json`, written by `record_expected.py`).

Times are reported at a reference machine speed. The shared host this
runs on slows down and speeds up by a fifth or more from second to second,
and CPU time moves with it. So each child times a short fixed pure-Python
loop every 0.1 s while `cli.main` runs (`child.py`), and the job's times are
scaled by `REF_PROBE_S` over the mean of those samples: a job that ran
while the loop took twice its reference time counts half its wall time.
The raw wall times and the scale factors are kept in the `record` line.

Untraced (`--trace 0`), passes repeat for about `--seconds` seconds (at
least two) and the end-to-end metrics are medians over passes. Traced
(`--trace 1`), one untraced pass is followed by traced passes, and the
per-layer metrics come from the first traced pass (times: the median over
traced passes).

Human-readable lines come first; the last line of stdout is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.
Exit code 2 means the benchmark could not run (e.g. no `src/wreathfock`).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
DEADLINE_S = 170          # a run must end within 180 s
# What the probe loop in `child.py` takes on a quiet 2-core Intel Xeon VM
# with Python 3.11.7 (about its 5th percentile there); times are reported
# at that machine speed.
REF_PROBE_S = 0.0005

# Why each workload: see README.md. The argv lists are the whole input.
WORKLOADS = {
    "fock-operators": [
        ["verify", "heisenberg", "--group", "s3", "-N", "3", "-M", "3"],
        ["verify", "heisenberg", "--group", "z3", "-N", "3", "-M", "2"],
    ],
    "element-oracles": [
        ["verify", "euler", "--group", "s3", "--gset", "regular", "-N", "3"],
        ["verify", "hopf", "--group", "z3", "-N", "4"],
    ],
    "sigma-algebra": [
        ["verify", "lambda", "--group", "sl2_f3", "-N", "4"],
        ["verify", "hopf", "--group", "s3", "-N", "5", "--limit", "100"],
        ["series", "mckay"],
        ["verify", "mackey", "--group", "d4"],
        ["wreath", "classes", "--group", "s3", "-N", "3"],
        ["series", "graded-dim", "--group", "sl2_f5", "-N", "6"],
    ],
}

LAYERS = ("scalars", "groups", "wreath", "fock", "lambda_ops", "heisenberg",
          "gsets", "linalg", "report", "cli")

# Named layer boundaries: metric name -> (traced function, aggregate).
# Dunders get plain names: __mul__ -> mul, __init__ -> build, __call__ -> call.
BOUNDARIES = {
    "scalars.Cyclotomic.mul.calls": ("scalars.Cyclotomic.__mul__", "calls"),
    "scalars.align.calls": ("scalars.align", "calls"),
    "groups.FiniteGroup.build.calls": ("groups.FiniteGroup.__init__", "calls"),
    "groups.FiniteGroup.build.total_s": ("groups.FiniteGroup.__init__",
                                         "total_s"),
    "groups.DualFunctional.pair.calls": ("groups.DualFunctional.pair",
                                         "calls"),
    "groups.induce_cf.calls": ("groups.induce_cf", "calls"),
    "wreath.wreath_mul.calls": ("wreath.wreath_mul", "calls"),
    "wreath.type_of.calls": ("wreath.type_of", "calls"),
    "wreath.enumerate_types.calls": ("wreath.enumerate_types", "calls"),
    "wreath.sigma_rho.calls": ("wreath.sigma_rho", "calls"),
    "fock.wcf_mul.calls": ("fock.wcf_mul", "calls"),
    "fock.fock_comul.calls": ("fock.fock_comul", "calls"),
    "fock.antipode.calls": ("fock.antipode", "calls"),
    "fock.oracle_product.total_s": ("fock.oracle_product", "total_s"),
    "lambda_ops.omega_n.calls": ("lambda_ops.omega_n", "calls"),
    "lambda_ops.boxtimes_power.total_s": ("lambda_ops.boxtimes_power",
                                          "total_s"),
    "heisenberg.HeisenbergOp.call.calls": ("heisenberg.HeisenbergOp.__call__",
                                           "calls"),
    "heisenberg.HeisenbergOp.call.total_s": (
        "heisenberg.HeisenbergOp.__call__", "total_s"),
    "gsets.power_orbifold_euler.total_s": ("gsets.power_orbifold_euler",
                                           "total_s"),
    "gsets.lemma_16_check.total_s": ("gsets.lemma_16_check", "total_s"),
    "linalg.matrix_rank.total_s": ("linalg.matrix_rank", "total_s"),
}
_FIELDS = {"calls": 0, "total_s": 1, "self_s": 2}


# -- inputs ------------------------------------------------------------------

def job_key(argv):
    return " ".join(argv)


def relabelled_table(table, rng):
    """The Cayley table under a random relabelling of the elements that
    keeps the identity at 0: entry [p(a)][p(b)] is p(a*b)."""
    n = len(table)
    rest = list(range(1, n))
    rng.shuffle(rest)
    p = [0] + rest
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[p[a]][p[b]] = p[table[a][b]]
    return out


def make_jobs(workload, seed):
    """The workload's jobs for `seed`, as (key, argv) pairs; the key is the
    seed-0 command line. Seed 0 is the builtin groups; a nonzero seed hands
    each `verify` job its group as a relabelled Cayley table in a JSON file
    named after the group."""
    jobs = [(job_key(argv), list(argv)) for argv in WORKLOADS[workload]]
    if seed == 0:
        return jobs
    from wreathfock.cli import parse_group
    rng = random.Random(seed)
    folder = WORK / f"seed-{seed}"
    folder.mkdir(parents=True, exist_ok=True)
    for _, argv in jobs:
        if argv[0] != "verify":
            continue
        i = argv.index("--group") + 1
        g = parse_group(argv[i])
        path = folder / f"{g.name}.json"
        path.write_text(json.dumps({"order": g.order, "table":
                                    relabelled_table(g.table, rng)}))
        argv[i] = str(path)
    return jobs


# -- correctness gate --------------------------------------------------------

def load_expected():
    return json.loads((HERE / "expected.json").read_text())


def failure(expected, rc, stdout):
    """Why a job's result is wrong, or None. `expected` is the seed's
    record for the job: exact stdout for data commands, the check names for
    `verify` commands (each must be present and `[PASS]`)."""
    if rc != 0:
        return f"exit code {rc}"
    if "stdout" in expected:
        return None if stdout == expected["stdout"] else "stdout differs"
    lines = set(stdout.splitlines())
    for name in expected["checks"]:
        line = f"[PASS] {name}"
        if line not in lines and not any(
                s.startswith(line + "  (") for s in lines):
            return f"check not passed: {name}"
    return None


# -- running jobs ------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"      # call counts must repeat exactly
    return env


def run_job(argv, trace, timeout):
    """Spawn one child; return its measurements. CPU time is the child's
    user+sys from this process's RUSAGE_CHILDREN delta, less the child's
    speed probes. `speed` is `REF_PROBE_S` over the mean probe time; times
    multiplied by it are at the reference machine speed."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    spawn = time.monotonic_ns()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spawn),
             str(int(trace)), *argv],
            capture_output=True, text=True, env=child_env(), cwd=ROOT,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"rc": None, "error": f"timed out after {timeout:.0f} s"}
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    try:
        res = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"rc": proc.returncode,
                "error": f"child failed: {proc.stderr.strip()[-500:]}"}
    res["cpu_s"] = (after.ru_utime - before.ru_utime
                    + after.ru_stime - before.ru_stime - res["probe_cpu_s"])
    res["speed"] = REF_PROBE_S / statistics.fmean(res.pop("probe_s"))
    return res


def run_pass(jobs, expected, trace, deadline):
    """Run every job once. Each job carries `failure` (None when correct);
    a failed job still reports its time."""
    results = []
    for key, argv in jobs:
        remaining = deadline - time.monotonic()
        res = run_job(argv, trace, max(remaining, 1.0))
        if res.get("error"):
            res["failure"] = res["error"].splitlines()[-1]
        elif not Path(res["module"]).resolve().is_relative_to(SRC):
            res["failure"] = f"imported {res['module']}, not {SRC}"
        else:
            res["failure"] = failure(expected[key], res["rc"], res["stdout"])
        res["job"] = key
        results.append(res)
        if "main_s" not in res:      # no timing: the job never ran
            break
    return results


def pass_summary(results):
    """The pass's metrics, times at the reference speed; `wall_s` is the
    raw sum of `cli.main` wall times and `speed` the median job speed."""
    done = [r for r in results if "main_s" in r]
    return {
        "verdict_s": sum(r["main_s"] * r["speed"] for r in done),
        "cpu_s": sum(r["cpu_s"] * r["speed"] for r in done),
        "setup_s": sum(r["setup_s"] * r["speed"] for r in done),
        "peak_rss_mb": max((r["maxrss_kb"] / 1024 for r in done), default=0),
        "wall_s": sum(r["main_s"] for r in done),
        "speed": statistics.median([r["speed"] for r in done] or [0]),
        "jobs": len(results),
        "failed": sum(r["failure"] is not None for r in results),
    }


def tail(values):
    """Highest percentile (nearest rank) with at least 10 samples beyond
    it: (value, percentile, samples), or None below 11 samples."""
    n = len(values)
    if n < 11:
        return None
    k = n - 11
    return sorted(values)[k], 100.0 * (k + 1) / n, n


# -- metrics -----------------------------------------------------------------

def end_to_end(passes):
    """Each end-to-end metric: the median over passes, with its unit."""
    return {k: (statistics.median(p[k] for p in passes), unit)
            for k, unit in (("verdict_s", "s"), ("cpu_s", "s"),
                            ("setup_s", "s"), ("peak_rss_mb", "MB"))}


def layer_aggregates(jobs):
    """Sum each job's per-function aggregates over a pass; `jobs` holds
    (trace, speed) pairs, and times are taken at the reference speed."""
    total = {}
    for trace, speed in jobs:
        for key, (calls, total_s, self_s) in trace.items():
            acc = total.setdefault(key, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total_s * speed
            acc[2] += self_s * speed
    return total


def per_layer(agg_passes, overhead_s):
    """Per-layer metrics: counts from the first traced pass, times the
    median over traced passes."""
    def value(p, fn_key, field):
        stat = p.get(fn_key)
        return stat[_FIELDS[field]] if stat else 0

    def layer(p, name, field):
        return sum(s[_FIELDS[field]] for k, s in p.items()
                   if k.split(".", 1)[0] == name)

    def pick(get, field):
        if field == "calls":
            return get(agg_passes[0]), "count"
        return statistics.median(get(p) for p in agg_passes), "s"

    out = {}
    for name in LAYERS:
        for field in ("calls", "self_s"):
            out[f"{name}.{field}"] = pick(
                lambda p: layer(p, name, field), field)
    for metric, (fn_key, field) in BOUNDARIES.items():
        out[metric] = pick(lambda p: value(p, fn_key, field), field)
    out["trace_overhead_s"] = (overhead_s, "s")
    return out


# -- run record --------------------------------------------------------------

def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit():
    """HEAD of the checkout's own .git, read without running git; None
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_record():
    files = sorted((SRC / "wreathfock").glob("*.py"))
    digest = hashlib.sha256()
    lines = {}
    for f in files:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines[f.stem] = data.count(b"\n")
    lines["total"] = sum(lines.values())
    return digest.hexdigest(), lines


def record(args, passes, results, metrics):
    """Everything a result needs beside its metrics to be re-checked."""
    digest, lines = src_record()
    failed = sum(r["failure"] is not None for r in results)
    t = None if args.trace else tail([p["verdict_s"] for p in passes])
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "passes": len(passes),
        "samples": len(results),
        "machine": {"nproc": len(os.sched_getaffinity(0)),
                    "cpu_model": cpu_model(),
                    "python": platform.python_version(),
                    "platform": platform.platform()},
        "commit": git_commit(), "src_sha256": digest, "src_lines": lines,
        "pass_values": passes,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "verdict_s.tail": t and {"value": t[0], "percentile": t[1],
                                 "samples": t[2]},
        "failed": failed, "fail_frac": failed / len(results),
        "failures": [{"job": r["job"], "failure": r["failure"]}
                     for r in results if r["failure"]],
    }


# -- main --------------------------------------------------------------------

def warm_up():
    """One unmeasured import: compiles bytecode and fills the page cache,
    which users do not pay on every run."""
    subprocess.run([sys.executable, "-c", "import wreathfock.cli"],
                   env=child_env(), cwd=ROOT, check=True,
                   capture_output=True, text=True, timeout=60)


def measure(args, jobs, expected):
    """Untraced: passes until the next one would end after `--seconds`, at
    least two. Traced: one untraced pass, then traced passes likewise, at
    least one. Returns the pass summaries, all job results and the
    metrics."""
    start = time.monotonic()
    passes, results, aggs = [], [], []

    def run_passes(trace, at_least, limit):
        while True:
            t0 = time.monotonic()
            res = run_pass(jobs, expected, trace, start + DEADLINE_S)
            results.extend(res)
            passes.append(pass_summary(res))
            if trace:
                aggs.append(layer_aggregates((r["trace"], r["speed"])
                                             for r in res if r.get("trace")))
            at_least -= 1
            now = time.monotonic()
            if len(res) < len(jobs) or (
                    at_least <= 0 and (now - start) + (now - t0) > limit):
                return

    limit = min(args.seconds, DEADLINE_S - 10)
    if not args.trace:
        run_passes(False, 2, limit)
        return passes, results, end_to_end(passes)
    run_passes(False, 1, 0)
    run_passes(True, 1, limit)
    traced = statistics.median(p["verdict_s"] for p in passes[1:])
    return passes, results, per_layer(aggs, traced - passes[0]["verdict_s"])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wreathfock" / "cli.py").is_file():
        print(f"error: no wreathfock sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        warm_up()
    except subprocess.CalledProcessError as exc:
        print(f"error: cannot import wreathfock.cli:\n{exc.stderr}",
              file=sys.stderr)
        return 2
    expected = load_expected()
    jobs = make_jobs(args.workload, args.seed)
    passes, results, metrics = measure(args, jobs, expected)

    rec = record(args, passes, results, metrics)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  jobs {len(results)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6f} {unit}")
    t = rec["verdict_s.tail"]
    if not args.trace:
        print("  verdict_s.tail " + (
            f"{t['value']:.6f} s  (p{t['percentile']:.1f} of {t['samples']} "
            f"passes)" if t else
            f"n/a  ({len(passes)} passes; needs at least 11)"))
    print(f"  fail_frac {rec['fail_frac']:.6f}  "
          f"({rec['failed']}/{len(results)} jobs)")
    for f in rec["failures"]:
        print(f"  FAILED {f['job']}: {f['failure']}")
    print("record " + json.dumps(rec, sort_keys=True))
    print(json.dumps({
        "correct": rec["failed"] == 0, "attempted": len(results),
        "failed": rec["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
