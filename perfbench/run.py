#!/usr/bin/env python3
"""Benchmark launcher: builds the driver from ../src, runs one workload and
prints its metrics.

    python3 perfbench/run.py --workload fleet_live|ingest_wide|historian \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

Run from the repository root.  One benchmark run is one reference process
(the expected outputs, untimed) followed by workload processes spawned one
after another until S seconds are used (at least MIN_REPS of them).  Each
process reports its own set-up time, phases and metrics; the run reports
the median over processes.  With --trace 1 untraced and traced processes
alternate, and the per-layer metrics come from the traced ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it carries the details:
the metrics under the names the workload's definition uses, provenance and
every process record.  Errors (no source tree, failed build, a crashed
process) exit non-zero without printing a result.
"""
import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
WORKLOADS = ("fleet_live", "ingest_wide", "historian")
MIN_REPS = 3
MIN_TRACE_PAIRS = 1
PROCESS_TIMEOUT_S = 150
# Phases that hold the workload itself (what tracing can slow down).
COVERED = ("setup", "run", "drain")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def definition():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def local_env(tmp):
    """The environment for child processes, with temporary files (the
    compiler's among them) kept inside the checkout."""
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=os.path.abspath(tmp))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no source tree at src/ next to perfbench/; nothing to build")
    build_dir = os.path.join(os.getcwd(), BUILD_DIR)
    env = local_env(os.path.join(build_dir, "tmp"))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench_driver"])
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, env=env)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench_driver")


def spawn(binary, args):
    """Runs one workload process; returns its record plus its wall time."""
    env = local_env(os.path.join(WORK_DIR, "tmp"))
    t0 = time.monotonic_ns()
    try:
        proc = subprocess.run([binary, *args, "--spawn-ns", str(t0)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=PROCESS_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        fail("workload process timed out: " + " ".join(args))
    wall_s = (time.monotonic_ns() - t0) * 1e-9
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        fail("workload process failed: " + " ".join(args))
    record = json.loads(lines[-1])
    record["wall_s"] = wall_s
    record["unaccounted_ratio"] = max(
        0.0, (wall_s - sum(record["phases"].values())) / wall_s)
    return record


def driver_args(workload, seed, trace=False, role="measure", shrink=False,
                corrupt=False):
    args = ["--workload", workload, "--seed", str(seed),
            "--trace", "1" if trace else "0", "--role", role,
            "--work-dir", WORK_DIR]
    if role == "reference" and workload == "fleet_live":
        args += ["--workers", "1"]
    if shrink:
        args.append("--shrink")
    if corrupt:
        args.append("--corrupt")
    return args


def judge(reference, records):
    """Output checks of every process against the reference.  A process
    that fails a check counts all its operations as failed."""
    attempted = failed = 0
    problems = []
    for rec in records:
        attempted += rec["attempted"]
        bad = [name for name, ok in rec["checks"].items() if not ok]
        for name, digest in reference["digests"].items():
            if rec["digests"].get(name) != digest:
                bad.append("digest:" + name)
        if bad:
            problems.append({"seed": rec["seed"], "failed_checks": bad})
            failed += rec["attempted"]
        else:
            failed += rec["failed"]
    return attempted, failed, problems


def median(values):
    return statistics.median(values) if values else 0.0


def covered_s(rec):
    return sum(rec["phases"].get(p, 0.0) for p in COVERED)


def source_hash():
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
        return proc.stdout.strip() if proc.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def provenance(seed, reps):
    return {"git_sha": git_sha(), "source_sha256": source_hash(),
            "build_type": "Release", "cores": os.cpu_count(),
            "machine": platform.machine(), "seed": seed, "repetitions": reps}


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    m = statistics.median(values)
    return (q[2] - q[0]) / m if m else 0.0


def run(args):
    spec = definition()
    binary = build()
    os.makedirs(WORK_DIR, exist_ok=True)
    started = time.monotonic()
    reference = spawn(binary, driver_args(args.workload, args.seed,
                                          role="reference"))
    budget_start = time.monotonic()
    untraced, traced = [], []

    def used():
        return time.monotonic() - budget_start

    def room_for(records):
        per = sum(r["wall_s"] for r in records) / max(1, len(records))
        return used() + per <= args.seconds

    if not args.trace:
        while len(untraced) < MIN_REPS or room_for(untraced):
            untraced.append(spawn(binary, driver_args(args.workload,
                                                      args.seed)))
    else:
        while len(traced) < MIN_TRACE_PAIRS or room_for(untraced + traced):
            untraced.append(spawn(binary, driver_args(args.workload,
                                                      args.seed)))
            traced.append(spawn(binary, driver_args(args.workload, args.seed,
                                                    trace=True)))
    records = untraced + traced
    attempted, failed, problems = judge(reference, records)

    if not args.trace:
        metrics = {m["name"]: {
            "value": median([r["e2e"][m["name"]] for r in untraced]),
            "unit": m["unit"]} for m in spec["end_to_end"]}
    else:
        layer_values = {}
        for rec in traced:
            for name, value in rec["layers"].items():
                layer_values.setdefault(name, []).append(value)
            for name, value in rec["phases"].items():
                layer_values.setdefault("phase." + name + "_s", []).append(value)
            rc = rec["reconcile"]
            predicted = rc.get("predicted_s", 0.0)
            layer_values.setdefault("reconcile.predicted_s", []).append(predicted)
            layer_values.setdefault("reconcile.measured_s", []).append(
                rc.get("measured_s", 0.0))
            layer_values.setdefault("reconcile.gap_ratio", []).append(
                rc.get("measured_s", 0.0) / predicted - 1.0 if predicted else 0.0)
        layer_values["obs.trace_overhead_ratio"] = [
            median([covered_s(r) for r in traced]) /
            median([covered_s(r) for r in untraced])]
        layer_values["process.unaccounted_ratio"] = [
            r["unaccounted_ratio"] for r in untraced]
        metrics = {}
        for m in spec["per_layer"]:
            values = layer_values.get(m["name"])
            if values is None:
                fail("traced run did not produce " + m["name"])
            metrics[m["name"]] = {"value": median(values), "unit": m["unit"]}
        all_layers = {k: median(v) for k, v in sorted(layer_values.items())}

    named = {}
    for rec in untraced:
        for name, value in rec["named"].items():
            named.setdefault(name, []).append(value)
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "named": {k: median(v) for k, v in sorted(named.items())},
        "process_spread": {k: spread([r["e2e"][k] for r in untraced])
                           for k in sorted(untraced[0]["e2e"])},
        "problems": problems,
        "provenance": provenance(args.seed, len(records)),
        "reference": reference,
        "records": records,
        "elapsed_s": time.monotonic() - started,
    }
    if args.trace:
        detail["layers"] = all_layers
    with open(os.path.join(WORK_DIR, "result-%s-%d-%s.json" % (
            args.workload, args.seed, "trace" if args.trace else "e2e")),
            "w") as f:
        json.dump(detail, f, indent=1)
    print(json.dumps({"detail": detail}))
    correct = not problems and failed == 0
    summarize(detail, metrics, correct, attempted, failed)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def summarize(detail, metrics, correct, attempted, failed):
    """Human-readable copy of the result on stderr."""
    out = sys.stderr
    out.write("%s seed %d%s: correct=%s attempted=%d failed=%d "
              "processes=%d\n" % (
                  detail["workload"], detail["provenance"]["seed"],
                  " (traced)" if detail["trace"] else "", correct, attempted,
                  failed, detail["provenance"]["repetitions"]))
    for name, m in metrics.items():
        out.write("  %-45s %14.6g %s\n" % (name, m["value"], m["unit"]))
    for name, value in detail["named"].items():
        out.write("  named  %-38s %14.6g\n" % (name, value))
    for name, value in detail.get("layers", {}).items():
        if name not in metrics:
            out.write("  layer  %-38s %14.6g\n" % (name, value))
    for problem in detail["problems"]:
        out.write("  FAILED seed %d: %s\n" % (
            problem["seed"], ", ".join(problem["failed_checks"])))


def selfcheck():
    """A shrunk run of every workload passes its checks against its
    reference; the same run with one corrupted frame or block fails them."""
    binary = build()
    os.makedirs(WORK_DIR, exist_ok=True)
    ok = True
    for workload in WORKLOADS:
        reference = spawn(binary, driver_args(workload, 7, role="reference",
                                              shrink=True))
        clean = spawn(binary, driver_args(workload, 7, shrink=True))
        corrupt = spawn(binary, driver_args(workload, 7, shrink=True,
                                            corrupt=True))
        _, clean_failed, clean_problems = judge(reference, [clean])
        _, bad_failed, bad_problems = judge(reference, [corrupt])
        passed = not clean_problems and clean_failed == 0
        caught = bool(bad_problems) and bad_failed > 0
        print("%-12s clean run passes: %-5s corrupted run caught: %-5s %s" % (
            workload, passed, caught,
            bad_problems[0]["failed_checks"] if bad_problems else ""))
        ok = ok and passed and caught
    print("selfcheck " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if args.selfcheck:
        return selfcheck()
    if args.workload is None:
        parser.error("--workload is required")
    args.trace = bool(args.trace)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
