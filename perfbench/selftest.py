#!/usr/bin/env python3
"""Self-test of the benchmark: a short run of every workload.

    python3 perfbench/selftest.py

Run from the root of a checkout. Asserts that
  - an untraced run prints every end-to-end metric of BENCHMARK.json with
    its unit, and a traced run every per-layer metric, all with zero failed
    checks;
  - a deliberately perturbed digest is counted in failed_checks;
  - the benchmark fails, without printing a result, in a directory that
    holds only BENCHMARK.json and the benchmark's own files.
Exits 0 when every assertion holds.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

# Simulated length per job: capture seconds for the racks, hours of horizon
# for the fleet.
SHORT_LENGTH = {
    "web_rack_tcp": 0.1,
    "hadoop_rack_lossy": 0.1,
    "cache_rack_scripted": 0.1,
    "fleet_fbflow": 1.0,
}

failures = []


def expect(what, ok):
    print("%s %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        failures.append(what)


def bench(workload, trace, *extra, cwd=None):
    cmd = [sys.executable, os.path.join(cwd or ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--length", repr(SHORT_LENGTH[workload]), *extra]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd or os.getcwd(),
                          timeout=600)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if proc.returncode == 0 and lines else None


def check_metrics(workload, trace, metrics, declared):
    names = [m["name"] for m in declared]
    expect("%s trace=%d prints exactly the declared metrics" % (workload, trace),
           sorted(metrics) == sorted(names))
    for m in declared:
        got = metrics.get(m["name"])
        expect("%s trace=%d %s has unit %s" % (workload, trace, m["name"], m["unit"]),
               got is not None and got.get("unit") == m["unit"]
               and isinstance(got.get("value"), (int, float)))


def main():
    spec = run.load_spec()
    run.build()
    for workload in run.WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = bench(workload, trace)
            res = result_of(proc)
            expect("%s trace=%d exits 0 with a result" % (workload, trace), res is not None)
            if res is None:
                print(proc.stderr[-2000:])
                continue
            expect("%s trace=%d has no failed checks" % (workload, trace),
                   res["correct"] and res["failed"] == 0 and res["attempted"] > 0)
            check_metrics(workload, trace, res["metrics"], declared)
        res = result_of(bench(workload, 0, "--perturb-digest"))
        expect("%s perturbed digest is counted in failed_checks" % workload,
               res is not None and not res["correct"] and res["failed"] > 0)

    # The benchmark alone, without the repository's sources, must refuse.
    bare = os.path.join(run.build_dir(), "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "web_rack_tcp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"})
    expect("without sources: exits non-zero and prints no result",
           proc.returncode != 0 and '"metrics"' not in proc.stdout)
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
