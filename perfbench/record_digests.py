#!/usr/bin/env python3
"""Records the output digest of every workload for a range of seeds.

    python3 perfbench/record_digests.py

Writes perfbench/digests.json, which run.py compares every job against.
Re-record only when a change is meant to alter simulated output, and say
so in the change: a digest that moves is a behaviour change.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


SEEDS = range(32)


def main():
    binary = run.build()
    digests = {}
    for workload in run.WORKLOADS:
        digests[workload] = {}
        for seed in SEEDS:
            job = run.run_job(binary, workload, seed, False)
            failed = [k for k, ok in job["checks"].items() if not ok]
            if failed:
                raise SystemExit("%s seed %d fails checks: %s" % (workload, seed, failed))
            digests[workload][str(seed)] = job["digest"]
            run.log("%s seed %d %s" % (workload, seed, job["digest"]))
    with open(os.path.join(run.HERE, "digests.json"), "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
