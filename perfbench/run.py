#!/usr/bin/env python3
"""The v3sim repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (the v3sim libraries plus the v3perf driver) with
CMake into $CARGO_TARGET_DIR/v3perf (default .bench_build/v3perf), then
runs v3perf repeatedly for at least --seconds seconds, one repetition
per process, and reports medians.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1
runs pairs of the same repetition, one untraced and one traced, and
prints the per-layer metrics from the traced ones; the traced run's
simulated outputs must be byte-identical to the untraced run's, and
the ratio of their host run times is the tracing overhead. The trace
itself (Chrome trace-event JSON) is written under the build directory.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A failed output check prints
correct: false and exits 1; a missing source tree or failed build
exits 2 without a result.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"

# Repetitions of a run, whatever --seconds says, so medians exist.
MIN_REPS = 3
# Stop starting repetitions past this many seconds, so a run ends well
# inside the 180 s a run may take.
BUDGET_S = 140.0
# v3perf "host" fields that are end-to-end metrics.
HOST_E2E = ("run_s", "host_us_per_io", "setup_s", "peak_rss_mib")
# Simulated outputs that must repeat exactly for a fixed seed.
DETERMINISTIC = ("sim_iops", "sim_io_p50_us", "sim_io_p999_us",
                 "sim_cpu_us_per_io", "events_fired", "metrics_crc32c")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(env):
    """Configures and builds v3perf; returns its path or None."""
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (build_dir / "v3perf").resolve()
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "v3perf", "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("run.py: build step failed: " + " ".join(cmd))
            return None
    return build_dir


def repetition(binary, workload, seed, env, trace_path=None):
    """One v3perf process; returns its parsed report."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)]
    if trace_path:
        cmd += ["--trace", str(trace_path)]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=BUDGET_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"v3perf exited {proc.returncode} with no report")
    return json.loads(lines[-1])


def simulated(report):
    return {k: report["sim"][k] for k in DETERMINISTIC}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"run.py: unknown workload {args.workload!r}; one of {names}")
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = dict(os.environ)
    build_dir = build(env)
    if build_dir is None:
        return 2
    binary = build_dir / "v3perf"
    # One file per workload, so repeated runs do not pile up traces.
    trace_path = build_dir / f"trace-{args.workload}.json"

    untraced, traced = [], []
    began = time.monotonic()
    while True:
        rep_began = time.monotonic()
        untraced.append(repetition(binary, args.workload, args.seed, env))
        if args.trace:
            traced.append(repetition(binary, args.workload, args.seed,
                                     env, trace_path))
        now = time.monotonic()
        enough = now - began >= args.seconds and len(untraced) >= MIN_REPS
        if enough or now - began + (now - rep_began) > BUDGET_S:
            break
    elapsed = time.monotonic() - began

    reports = untraced + traced
    first = untraced[0]
    checks = {}
    for rep in reports:
        for name, ok in rep["checks"].items():
            checks[name] = checks.get(name, True) and ok
    checks["same_seed_same_simulated_outputs"] = all(
        simulated(rep) == simulated(first) for rep in untraced)
    # The traced repetition adds the probes; every other layer value is
    # a simulated count and must match its untraced twin exactly.
    checks["traced_equals_untraced"] = all(
        simulated(t) == simulated(u)
        and {k: v for k, v in t["layers"].items() if ".probe." not in k}
        == u["layers"]
        for t, u in zip(traced, untraced))

    attempted = sum(rep["attempted"] for rep in reports)
    failed = sum(rep["failed"] for rep in reports)

    # Host-timed values vary run to run and are medians over the
    # repetitions; simulated values repeat exactly for a fixed seed.
    values = {}
    for key in HOST_E2E:
        values[key] = median([rep["host"][key] for rep in untraced])
    values.update(first["sim"])
    values.update(first["layers"])
    values["io_fail_frac"] = first["failed"] / max(1, first["attempted"])
    if traced:
        for key in traced[0]["layers"]:
            if ".probe." in key:
                values[key] = median([t["layers"][key] for t in traced])
        values["sim.host_ns_per_event"] = median(
            [t["host"]["host_ns_per_event"] for t in traced])
        for phase in ("build", "connect", "warm"):
            values[f"scenarios.{phase}_s"] = median(
                [t["host"][phase + "_s"] for t in traced])
        # Both runs record spans (the exact percentiles need them), so
        # the traced run's extra cost is writing the trace file.
        values["trace.overhead_ratio"] = median(
            [(t["host"]["run_s"] + t["host"]["trace_s"])
             / u["host"]["run_s"] for t, u in zip(traced, untraced)])

    mode = "traced pairs" if traced else "untraced repetitions"
    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} "
          f"{mode} in {elapsed:.1f} s")
    samples = first["layers"]["sim.io_samples"]
    print(f"  sample count {samples:.0f} I/Os per repetition "
          f"(p99.9 is an exact order statistic over them)")
    if first["notes"]:
        print("  " + first["notes"])
    # End-to-end quantities that are 0 on some workloads, so they are
    # per-layer metrics in BENCHMARK.json; shown here on every run.
    if values["sim_tpmc"] > 0 and not traced:
        print(f"  {'sim_tpmc':34s} {values['sim_tpmc']:.6g} tpmC")
    print(f"  io_fail_frac: {first['failed']} of {first['attempted']} "
          f"I/Os failed, shed, overflowed or late")
    metrics = {}
    for m in declared:
        name = m["name"]
        if name not in values:
            log(f"run.py: v3perf reported no metric {name!r}")
            return 2
        metrics[name] = {"value": values[name], "unit": m["unit"]}
        print(f"  {name:34s} {values[name]:.6g} {m['unit']}")
    bad = sorted(name for name, ok in checks.items() if not ok)
    print("checks: " + ("all passed" if not bad
                        else "FAILED " + ", ".join(bad)))

    print(json.dumps({"correct": not bad, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())
