#!/usr/bin/env python3
"""Build and run the h3cdn repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
simulator libraries plus the benchmark binary (perfbench/CMakeLists.txt) in
Release mode under .bench_build/; later calls rebuild incrementally. The
binary's stdout is passed through, so the last line is the result JSON:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1. The
exit code is the binary's: 0 only when the output checks passed.

Extra flags: --perturb drops one visit from the real output (the check
must then fail); --self-check runs the perturbation test and two traced runs
of every workload, and compares their exact counters and digests.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH_DIR = os.path.join(ROOT, ".bench_build", "scratch")
BINARY = os.path.join(BUILD_DIR, "h3cdn_perfbench")
WORKLOADS = ["study-clean", "study-lossy-obs"]
# Counters that must repeat exactly across traced runs of one seed.
EXACT = ["sim.events_per_visit", "net.packets_per_request", "alloc.per_event",
         "obs.artifact_bytes_per_visit"]
# Wall budget of one run after the build; the contract allows 180 s.
RUN_BUDGET_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("simulator sources (src/) not found next to perfbench/")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return os.path.isfile(BINARY)


def run_binary(workload, seed, trace, perturb=False, deadline=None):
    """Runs h3cdn_perfbench once; returns (exit code, captured stdout)."""
    if deadline is None:
        deadline = time.monotonic() + RUN_BUDGET_S
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--trace", str(trace),
           "--scratch", SCRATCH_DIR,
           "--reference", os.path.join(BENCH_DIR, "reference_digests.txt")]
    if perturb:
        cmd.append("--perturb")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        log(f"{workload}: no result within the {RUN_BUDGET_S} s budget")
        return 1, ""
    return proc.returncode, proc.stdout.decode()


def tagged(stdout, tag):
    """The JSON payload of the binary's first line starting with `tag `."""
    for line in stdout.splitlines():
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1:])
    return None


def measure(workload, seed, seconds, perturb):
    """One pass per h3cdn_perfbench process until `seconds` of passes are timed.

    A fresh process per pass keeps every pass on a fresh heap, so a pass
    neither inherits the previous pass's fragmentation nor its peak RSS.
    Returns (exit code, stdout to print).
    """
    passes, hosts = [], []
    measured = 0.0
    deadline = time.monotonic() + RUN_BUDGET_S
    last_process_s = 0.0
    while not passes or measured < seconds:
        if passes and time.monotonic() + 1.5 * last_process_s > deadline:
            log(f"{workload}: stopping after {len(passes)} passes to stay within the budget")
            break
        started = time.monotonic()
        code, out = run_binary(workload, seed, 0, perturb, deadline)
        last_process_s = time.monotonic() - started
        record = tagged(out, "pass")
        if code != 0 or record is None:
            return code or 1, out  # the binary's own failing result comes last
        passes.append(record)
        hosts.append(tagged(out, "host"))
        measured += record["wall_s"]
    digests = sorted({p["digest"] for p in passes})
    correct = len(digests) == 1
    lines = ["host " + json.dumps(h) for h in hosts]
    # The raw readings behind the scaled setup_s, for a reader comparing hosts.
    lines.append("setup_raw " + json.dumps({
        "setup_wall_s": statistics.median(s for p in passes for s in p["setup_wall_s"]),
        "reference_s": statistics.median(s for p in passes for s in p["reference_s"])}))
    lines.append(f"digest {workload} {seed} {' '.join(digests)}")
    if not correct:
        lines.append("check failed: passes of one seed produced different digests")
    result = {
        "correct": correct,
        "attempted": sum(p["visits"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {
            "visits_per_s": {"value": statistics.median(p["visits"] / p["wall_s"] for p in passes),
                             "unit": "1/s"},
            "setup_s": {"value": statistics.median(s for p in passes for s in p["setup_s"]),
                        "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes),
                            "unit": "MB"},
        },
    }
    lines.append(json.dumps(result))
    return (0 if correct else 1), "\n".join(lines) + "\n"


def result_of(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def digest_of(stdout):
    for line in stdout.splitlines():
        if line.startswith("digest "):
            return line.split()[3]
    return None


def self_check(seed):
    ok = True
    for workload in WORKLOADS:
        code, out = run_binary(workload, seed, 0, perturb=True)
        res = result_of(out)
        rejected = code != 0 and res is not None and res["correct"] is False
        log(f"{workload}: perturbed output {'rejected' if rejected else 'ACCEPTED'}")
        ok &= rejected
        runs = []
        for _ in range(2):
            code, out = run_binary(workload, seed, 1)
            res = result_of(out)
            if code != 0 or res is None:
                log(f"{workload}: traced run failed")
                ok = False
                break
            runs.append((digest_of(out), {k: res["metrics"][k]["value"] for k in EXACT}))
        if len(runs) == 2:
            same = runs[0] == runs[1]
            log(f"{workload}: two traced runs {'agree' if same else 'DIFFER'}: "
                f"digest {runs[0][0]} counters {runs[0][1]}")
            ok &= same
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--perturb", action="store_true")
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and args.workload is None:
        ap.error("--workload is required")

    if not build():
        return 2
    if args.self_check:
        return 0 if self_check(args.seed) else 1
    if args.trace:
        code, out = run_binary(args.workload, args.seed, 1, args.perturb)
    else:
        code, out = measure(args.workload, args.seed, args.seconds, args.perturb)
    sys.stdout.write(out)
    sys.stdout.flush()
    res = result_of(out) if out else None
    if code == 0 and (res is None or not metrics_match_spec(res, args.trace)):
        log("result does not carry exactly the metrics BENCHMARK.json declares")
        return 1
    return code


def metrics_match_spec(res, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    return want == got


if __name__ == "__main__":
    sys.exit(main())
