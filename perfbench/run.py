#!/usr/bin/env python3
"""Build perfbench and run one benchmark workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload hotloop --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

A run builds perfbench/ (with the simulator sources under src/) into
.bench_build/, measures set-up time, runs the workload in its own
process and checks its outputs. Standard output is the report; its last
line is one JSON object with the keys correct, attempted, failed and
metrics. --trace 1 reports the per-layer metrics instead of the
end-to-end ones. --smoke runs every workload at a tiny instruction cap
in both modes and checks that every metric is emitted under a valid
name. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "perfbench"
# Set-up takes milliseconds, so one launch is noisy: report the median
# of several launches that stop at the first timed cell.
SETUP_PROBES = 21
# A run must end within 180 s once the program is built.
DEADLINE_S = 170
SMOKE_MAX_INSTR = 2000
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "perfbench", "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def launch(args, deadline):
    """Run perfbench; return its report lines, result object and launch time."""
    start = time.monotonic_ns()
    try:
        proc = subprocess.run([str(BINARY), *args], stdout=subprocess.PIPE,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("perfbench " + " ".join(args) + " ran past the deadline")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"perfbench {' '.join(args)} exited with {proc.returncode}")
    return lines[:-1], json.loads(lines[-1]), start


def same_digest_as_counterpart(workload, seed, max_instr, digest):
    """hotloop and parallel must simulate bit-identical results.

    Each run records its digest per (binary, seed, cap); a run whose
    counterpart has already run with the same key compares the two.
    """
    path = BUILD_DIR / "digests.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    key = f"{BINARY.stat().st_mtime_ns}/{seed}/{max_instr}"
    entry = known.setdefault(key, {})
    entry[workload] = digest
    path.write_text(json.dumps(known))
    return len(set(entry.values())) == 1


def run_workload(workload, seed, seconds, trace, max_instr, deadline):
    """Run one workload; return (report lines, result, report-only values)."""
    work = BUILD_DIR / "work" / workload
    common = ["--workload", workload, "--seed", str(seed),
              "--work-dir", str(work)]
    if max_instr:
        common += ["--max-instr", str(max_instr)]

    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            _, doc, start = launch(common + ["--setup-only"], deadline)
            setups.append((doc["ready_ns"] - start) / 1e9)
    args = common + ["--seconds", str(seconds)] + (["--trace"] if trace else [])
    lines, doc, start = launch(args, deadline)
    setups.append((doc["ready_ns"] - start) / 1e9)

    metrics = doc["metrics"]
    report = doc["report"]
    if not trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}

    wanted = {m["name"]: m["unit"]
              for m in spec()["per_layer" if trace else "end_to_end"]}
    emitted = {name: entry["unit"] for name, entry in metrics.items()}
    if emitted != wanted:
        fail(f"emitted metrics {sorted(emitted.items())} do not match "
             f"BENCHMARK.json {sorted(wanted.items())}")

    attempted, failed = doc["attempted"], doc["failed"]
    if workload in ("hotloop", "parallel"):
        attempted += 1
        if not same_digest_as_counterpart(workload, seed, max_instr,
                                          doc["sim_digest"]):
            failed += 1
            print("perfbench: check failed: hotloop and parallel digests "
                  "differ", file=sys.stderr)
    report["failed_frac"] = {"value": failed / attempted, "unit": "ratio"}

    host = doc["host"]
    lines += [
        f"workload {workload} seed {seed} passes {doc['passes']} "
        f"cells {doc['cells']} trace {int(trace)}",
        f"host nproc={host['nproc']} cpu={host['cpu']!r} "
        f"compiler={host['compiler']!r} "
        f"compress_backend={host['compress_backend']}",
        f"sim_digest {doc['sim_digest']}",
    ]
    for name, entry in list(metrics.items()) + list(report.items()):
        lines.append(f"{name:<32} {entry['value']:>16.6g} {entry['unit']}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return lines, result, report


def smoke():
    """Every workload, both modes, at a tiny cap: names, units, checks."""
    deadline = time.monotonic() + 900
    build()
    report_names = {False: {"failed_frac"},
                    True: {"failed_frac", "sim.pool.barrier_wait_p50_ns"}}
    for workload in [w["name"] for w in spec()["workloads"]]:
        for trace in (False, True):
            _, result, report = run_workload(workload, 1, 1, trace,
                                             SMOKE_MAX_INSTR, deadline)
            wanted = report_names[trace] | (
                {"resubmit_s"} if workload == "sweep" and not trace else set())
            problems = [f"missing report value {name}"
                        for name in wanted - report.keys()]
            for name, entry in {**result["metrics"], **report}.items():
                if not NAME.fullmatch(name) or not UNIT.fullmatch(entry["unit"]):
                    problems.append(f"invalid name or unit: {name} {entry}")
                if not math.isfinite(entry["value"]):
                    problems.append(f"non-finite value: {name} {entry}")
            if not result["correct"]:
                problems.append("output checks failed")
            if problems:
                fail(f"smoke {workload} trace={int(trace)}: " +
                     "; ".join(problems))
            print(f"smoke {workload} trace={int(trace)}: ok, "
                  f"{len(result['metrics'])} metrics")
    print("smoke: ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        smoke()
        return
    names = [w["name"] for w in spec()["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")

    build()
    deadline = time.monotonic() + DEADLINE_S
    lines, result, _ = run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace), 0, deadline)
    print("\n".join(lines))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
