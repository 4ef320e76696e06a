#!/usr/bin/env python3
"""FASTQ -> SAM benchmark of the saloba read mapper.

Run from the repository root:

  python3 perfbench/run.py --workload illumina_sam --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --self-check        # all workloads at tiny sizes

One run builds the C++ program (perfbench/CMakeLists.txt, into .bench_build),
generates the seeded inputs once per seed (into .bench_work, untimed), times
SETUP_REPS separate set-ups, each in a fresh process, and measures mapped
passes for --seconds. The last stdout line is the result:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end metrics
for --trace 0 and the per-layer metrics for --trace 1. Workloads, metrics
and the default --seconds come from BENCHMARK.json at the repository root.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD_DIR = Path(".bench_build")
WORK_DIR = Path(".bench_work")
PROGRAM = BUILD_DIR / "perfbench"
SETUP_REPS = 5
KEEP_INPUT_SETS = 4  # cached seeds per workload; only the newest keeps its index file
PHASE_TIMEOUT_S = 170
MANIFEST_PATH = HERE.parent / "BENCHMARK.json"

def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures and builds the program (both near no-ops when up to date)."""
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, timeout=600)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr, timeout=1200)
    # A fresh build leaves hundreds of MB of dirty pages; their writeback
    # would compete with the first run's timed passes.
    os.sync()


def run_phase(phase, workload, seed, tiny, *extra):
    """Runs one program phase; returns (info lines, parsed last-line JSON)."""
    cmd = [str(PROGRAM), "--phase", phase, "--workload", workload, "--seed", str(seed),
           "--workdir", str(WORK_DIR), *extra]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=PHASE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{phase} phase of {workload} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def evict_inputs(current):
    """Keeps the newest KEEP_INPUT_SETS input sets of a workload, and the
    (large) index file only in the current one."""
    sets = sorted((p for p in current.parent.iterdir() if p.is_dir() and p != current),
                  key=lambda p: p.stat().st_mtime, reverse=True)
    for i, path in enumerate(sets):
        if i >= KEEP_INPUT_SETS - 1:
            shutil.rmtree(path)
        else:
            (path / "ref.idx").unlink(missing_ok=True)


def run_workload(workload, seed, seconds, trace, tiny=False):
    """One benchmark run; returns (info lines, result object)."""
    evict_inputs(Path(run_phase("prepare", workload, seed, tiny)[1]["prepared"]))

    setups = [run_phase("setup", workload, seed, tiny)[1] for _ in range(SETUP_REPS)]
    info, result = run_phase("measure", workload, seed, tiny,
                          "--seconds", str(seconds), "--trace", str(trace))

    def median_of(key):
        return statistics.median(s[key] for s in setups)

    metrics = result["metrics"]
    if trace:
        metrics["seedext.index_ms"] = {"value": median_of("seedext.index_ms"), "unit": "ms"}
        metrics["core.engine_init_ms"] = {"value": median_of("core.engine_init_ms"),
                                          "unit": "ms"}
    else:
        metrics["setup_s"] = {"value": median_of("setup_s"), "unit": "s"}
    info.append("setup_s samples " + " ".join(f"{s['setup_s']:.4f}" for s in setups))
    return info, result


def self_check(manifest):
    """Tiny run of every workload, both modes: every metric BENCHMARK.json
    names is printed with its unit, the output checks pass, and counts
    repeat."""
    problems = []
    for spec in manifest["workloads"]:
        name = spec["name"]
        known = len(problems)
        counts = []
        for trace, wanted in ((0, manifest["end_to_end"]), (1, manifest["per_layer"]),
                              (1, manifest["per_layer"])):
            _, result = run_workload(name, 1, 1, trace, tiny=True)
            metrics = result["metrics"]
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{name} trace={trace}: output checks failed: "
                                f"correct={result['correct']} failed={result['failed']}")
            for m in wanted:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append(f"{name} trace={trace}: {m['name']} missing")
                elif got["unit"] != m["unit"]:
                    problems.append(f"{name}: {m['name']} unit {got['unit']} != {m['unit']}")
            extra = set(metrics) - {m["name"] for m in wanted}
            if extra:
                problems.append(f"{name} trace={trace}: unlisted metrics {sorted(extra)}")
            if trace:
                counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
        if counts[0] != counts[1]:
            problems.append(f"{name}: per-layer counts differ between runs of one seed")
        log(f"self-check {name}: {'ok' if len(problems) == known else 'FAILED'}")
    for p in problems:
        log("self-check: " + p)
    return not problems


def main():
    manifest = json.loads(MANIFEST_PATH.read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[w["name"] for w in manifest["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=manifest["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    build()
    if args.self_check:
        return 0 if self_check(manifest) else 1
    if not args.workload:
        parser.error("--workload is required")
    info, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    for line in info:
        print(line)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as err:
        log(f"perfbench: {err}")
        sys.exit(1)
