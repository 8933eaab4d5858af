"""Record the outputs that the benchmark's correctness gate compares with.

    python3 perfbench/record_expected.py

Runs every job of every workload once (seed 0, untraced) and writes
`perfbench/expected.json`: the exact stdout of data commands (`series`,
`wreath`), and the check names of `verify` commands. Run it only on a
version whose outputs are known to be right; the benchmark judges every
later version against this file.
"""
import json
import sys
import time

import run


def check_names(stdout):
    names = []
    for line in stdout.splitlines():
        if line.startswith("[PASS] "):
            names.append(line[len("[PASS] "):].split("  (", 1)[0])
    return names


def main():
    expected = {}
    for workload in run.WORKLOADS:
        for key, argv in run.make_jobs(workload, 0):
            res = run.run_job(argv, False, 600)
            if res.get("error") or res["rc"] != 0:
                sys.exit(f"{key}: {res.get('error') or res['rc']}")
            if argv[0] == "verify":
                expected[key] = {"checks": check_names(res["stdout"])}
            else:
                expected[key] = {"stdout": res["stdout"]}
            print(f"{time.strftime('%X')} recorded {key}")
    (run.HERE / "expected.json").write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
