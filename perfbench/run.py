#!/usr/bin/env python3
"""Repository benchmark: one closed-loop batch job at a time, one process each.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench_job from the checkout's sources (into $CARGO_TARGET_DIR, or
.bench_build), then runs jobs of the named workload back to back for about
S seconds, every job with the same seed and so the same inputs. The first
job of a run is a reference job: it is not timed, it warms the page cache,
and every timed job's output digest must equal its digest (for fleet_fbflow
it runs on a one-worker pool, so this is also the pool-width check). Each
timed job's digest must also equal the digest recorded in digests.json for
the workload and seed, when one is recorded.

Every job also runs a fixed reference kernel before its set-up and after
its timed work (see job.cpp). Each time a job reports is multiplied by
REF_KERNEL_S / (that job's kernel time): the host's CPU speed drifts by
tens of percent within seconds, and the kernel, measured on the same CPU
around the same job, moves with it. Each job's main thread (the kernel,
the simulation, the fleet's consuming sink) is pinned to one CPU, the next
job's to the next CPU, rotating through the CPUs the run may use.

--trace 0 reports the end-to-end metrics (medians over the timed jobs).
--trace 1 alternates untraced and traced jobs, prints the per-layer span
table, and reports the per-layer metrics; telemetry.trace_overhead_s is
the traced minus the untraced median wall_s.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
where attempted/failed count output checks (failed_checks = failed/attempted).
"""

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("web_rack_tcp", "hadoop_rack_lossy", "cache_rack_scripted", "fleet_fbflow")

JOB_TIMEOUT_S = 150
MIN_TIMED_JOBS = 3
# Set-up takes tens of milliseconds, so it is sampled more often than whole
# jobs: this many set-up-only jobs follow each timed untraced job.
SETUP_SAMPLES_PER_JOB = 1
# The reference kernel's time at the reference speed: normalized times are
# what the job would have taken had the kernel run in exactly this long.
# It is the kernel's typical time on the 4-vCPU VM the baseline was taken on.
REF_KERNEL_S = 0.15

def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(os.getcwd(), d)


def build():
    """Configures (once) and builds perfbench_job; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "include")
    ):
        raise SystemExit("perfbench: no fbdcsim sources (src/, include/) in " + ROOT)
    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    jobs = str(max(1, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", out, "--target", "perfbench_job", "-j", jobs],
        check=True,
        stdout=sys.stderr,
        env=env,
    )
    return os.path.join(out, "perfbench_job")


def job_env():
    # The library reads FBDCSIM_* knobs from the environment; a benchmark job
    # must see only its own arguments.
    return {k: v for k, v in os.environ.items() if not k.startswith("FBDCSIM_")}


def run_job(binary, workload, seed, trace, threads=None, length=None, setup_only=False,
            cpu=None):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--trace", "1" if trace else "0"]
    if setup_only:
        cmd.append("--setup-only")
    if threads is not None:
        cmd += ["--threads", str(threads)]
    if length is not None:
        cmd += ["--length", repr(length)]
    if cpu is not None:
        cmd += ["--cpu", str(cpu)]
    started = time.monotonic()
    proc = subprocess.run(
        cmd, capture_output=True, text=True, timeout=JOB_TIMEOUT_S, env=job_env(), cwd=os.getcwd()
    )
    elapsed = time.monotonic() - started
    if proc.returncode != 0:
        raise RuntimeError(
            "job %s exited %d: %s" % (" ".join(cmd), proc.returncode, proc.stderr.strip()[-2000:])
        )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("job %s printed nothing" % " ".join(cmd))
    result = json.loads(lines[-1])
    result["elapsed_s"] = elapsed
    return result


def load_recorded():
    path = os.path.join(HERE, "digests.json")
    if not os.path.isfile(path):
        return {}
    with open(path) as f:
        return json.load(f)


class CheckTally:
    def __init__(self):
        self.attempted = 0
        self.failed = []

    def expect(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed.append(name)


def check_job(tally, job, reference_digest, recorded_digest):
    for name, ok in sorted(job["checks"].items()):
        tally.expect(name, ok)
    tally.expect("digest_matches_reference_job", job["digest"] == reference_digest)
    if recorded_digest is not None:
        tally.expect("digest_matches_recorded", job["digest"] == recorded_digest)


def perturb(digest):
    return "%016x" % (int(digest, 16) ^ 1)


def median(values):
    return statistics.median(values) if values else 0.0


def speed(job):
    """Factor that scales the job's times to the reference speed."""
    return REF_KERNEL_S / job["ref_kernel_s"]


def samples(jobs, setups):
    """Per-job values of every end-to-end metric, times at the reference speed.

    setups are set-up-only or timed jobs; jobs are the timed jobs.
    """
    return {
        "setup_s": [j["setup_s"] * speed(j) for j in setups],
        "wall_s": [j["wall_s"] * speed(j) for j in jobs],
        "sim_s_per_wall_s": [j["sim_seconds"] / (j["sim_phase_s"] * speed(j)) for j in jobs],
        "wall_us_per_flow": [j["sim_phase_s"] * speed(j) * 1e6 / max(1, j["flows"]) for j in jobs],
        "peak_rss_mb": [j["peak_rss_mb"] for j in jobs],
    }


def span_table(jobs):
    """Median duration and self time per span name over the traced jobs.

    Self time is a span's duration minus the time its child spans cover.
    Children of one span run one after another, so their durations add.
    """
    rows = {}
    order = []
    for job in jobs:
        spans = job["spans"]
        child_s = [0.0] * len(spans)
        for s in spans:
            if s["parent"] >= 0:
                child_s[s["parent"]] += s["end_s"] - s["start_s"]
        for i, s in enumerate(spans):
            dur = s["end_s"] - s["start_s"]
            if s["name"] not in rows:
                rows[s["name"]] = {"dur": [], "self": [], "depth": 0}
                order.append(s["name"])
                depth, p = 0, s["parent"]
                while p >= 0:
                    depth, p = depth + 1, spans[p]["parent"]
                rows[s["name"]]["depth"] = depth
            rows[s["name"]]["dur"].append(dur)
            rows[s["name"]]["self"].append(max(0.0, dur - child_s[i]))
    return [(name, rows[name]["depth"], median(rows[name]["dur"]), median(rows[name]["self"]))
            for name in order]


def print_summary(spec, workload, seed, jobs, setups, reference, tally, per_job):
    print("workload %s  seed %d  timed jobs %d  set-up samples %d  reference digest %s  threads %d"
          % (workload, seed, len(jobs), len(per_job["setup_s"]), reference["digest"],
             jobs[0]["threads"]))
    kernel = [j["ref_kernel_s"] for j in jobs]
    print("reference kernel %.4f s median (min %.4f, max %.4f; reference speed %.4f s); "
          "unnormalized medians: setup_s %.6f s, wall_s %.6f s"
          % (median(kernel), min(kernel), max(kernel), REF_KERNEL_S,
             median([j["setup_s"] for j in setups]), median([j["wall_s"] for j in jobs])))
    print("%-20s %14s %14s %14s  %s" % ("metric", "median", "min", "max", "unit"))
    for m in spec["end_to_end"]:
        values = per_job[m["name"]]
        print("%-20s %14.6g %14.6g %14.6g  %s"
              % (m["name"], median(values), min(values), max(values), m["unit"]))
    print("%-20s %14.6g %14s %14s  ratio (%d failed of %d checks)"
          % ("failed_checks", len(tally.failed) / max(1, tally.attempted), "", "",
             len(tally.failed), tally.attempted))
    if tally.failed:
        print("failed checks: " + ", ".join(sorted(set(tally.failed))))


def print_layer_table(traced, untraced_wall, traced_wall):
    rows = span_table(traced)
    print("\nper-layer spans (median over %d traced jobs; self = span minus child spans)"
          % len(traced))
    print("%-44s %-12s %12s %12s" % ("span", "layer", "total_s", "self_s"))
    for name, depth, dur, self_s in rows:
        layer = name.split(".", 1)[0] if "." in name else "-"
        print("%-44s %-12s %12.6f %12.6f" % ("  " * depth + name, layer, dur, self_s))
    run = [r for r in rows if r[0] == "run"]
    if run:
        _, _, run_s, gap_s = run[0]
        print("top-level spans under 'run' cover %.2f%% of wall_s (gap %.6f s)"
              % (100.0 * (run_s - gap_s) / run_s if run_s > 0 else 0.0, gap_s))
    print("wall_s untraced %.6f s, traced %.6f s, tracing overhead %+.6f s"
          % (untraced_wall, traced_wall, traced_wall - untraced_wall))


def layer_metrics(spec, traced, untraced_wall, traced_wall):
    values = {}
    for m in spec["per_layer"]:
        values[m["name"]] = median([j["layers"].get(m["name"], 0.0) for j in traced])
    if "host.ref_kernel_s" in values:
        values["host.ref_kernel_s"] = median([j["ref_kernel_s"] for j in traced])
    if "telemetry.trace_overhead_s" in values:
        values["telemetry.trace_overhead_s"] = traced_wall - untraced_wall
    if "telemetry.span_gap_s" in values:
        gaps = [r[3] for r in span_table(traced) if r[0] == "run"]
        values["telemetry.span_gap_s"] = gaps[0] if gaps else 0.0
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--length", type=float, default=None,
                    help="override the workload's simulated length (self-test only)")
    ap.add_argument("--perturb-digest", action="store_true",
                    help="compare against a deliberately wrong digest (self-test only)")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    spec = load_spec()
    binary = build()
    recorded = None
    if args.length is None:
        recorded = load_recorded().get(args.workload, {}).get(str(args.seed))

    # Reference job: untimed; on the fleet workload a one-worker pool.
    reference = run_job(binary, args.workload, args.seed, False,
                        threads=1 if args.workload == "fleet_fbflow" else None,
                        length=args.length)
    expected = reference["digest"]
    if args.perturb_digest:
        expected = perturb(expected)
        recorded = perturb(recorded) if recorded is not None else None

    tally = CheckTally()
    for name, ok in sorted(reference["checks"].items()):
        tally.expect("reference_" + name, ok)
    if recorded is not None:
        tally.expect("reference_digest_matches_recorded", reference["digest"] == recorded)

    cpus = sorted(os.sched_getaffinity(0))
    pinned = (cpus[i % len(cpus)] for i in itertools.count())
    untraced, traced, setups = [], [], []
    deadline = time.monotonic() + args.seconds
    while True:
        want_traced = args.trace == 1 and len(traced) < len(untraced)
        done = len(untraced) >= MIN_TIMED_JOBS and (args.trace == 0 or len(traced) >= MIN_TIMED_JOBS)
        if done and not want_traced:
            est = median([j["elapsed_s"] for j in untraced + traced])
            if time.monotonic() + est > deadline:
                break
        job = run_job(binary, args.workload, args.seed, want_traced, length=args.length,
                      cpu=next(pinned))
        check_job(tally, job, expected, recorded)
        (traced if want_traced else untraced).append(job)
        if not want_traced:
            setups.append(job)
            if args.trace == 0:
                for _ in range(SETUP_SAMPLES_PER_JOB):
                    setups.append(run_job(binary, args.workload, args.seed, False,
                                          length=args.length, setup_only=True, cpu=next(pinned)))

    per_job = samples(untraced, setups)
    print_summary(spec, args.workload, args.seed, untraced, setups, reference, tally, per_job)
    if args.trace == 1:
        untraced_wall = median(per_job["wall_s"])
        traced_wall = median([j["wall_s"] * speed(j) for j in traced])
        print_layer_table(traced, untraced_wall, traced_wall)
        metrics = layer_metrics(spec, traced, untraced_wall, traced_wall)
    else:
        metrics = {m["name"]: {"value": median(per_job[m["name"]]), "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({
        "correct": not tally.failed,
        "attempted": tally.attempted,
        "failed": len(tally.failed),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    try:
        main()
    except (subprocess.CalledProcessError, RuntimeError, subprocess.TimeoutExpired, OSError,
            ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
