#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the simulator libraries and the harness (perfbench.cc) from
source into .bench_build/perfbench, runs one workload in its own
process and prints the result as the last line of stdout:

    python3 perfbench/run.py --workload paper-mi --seed 42 \
        --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured
with no tracing; --trace 1 is the separate traced run and reports the
per-layer metrics (its spans go to .bench_build/perfbench/out/). The
full record, with provenance, is saved beside the spans. README.md
says why each workload exists and what each metric should move.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "cbws-perfbench"
RUN_TIMEOUT_S = 170
# Compilers and the harness keep their temporaries inside the checkout.
ENV = dict(os.environ, TMPDIR=str(BUILD / "tmp"))


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; exits on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no simulator sources under {ROOT / 'src'}")
        sys.exit(1)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "cbws-perfbench"])
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr, env=ENV).returncode != 0:
            log("build failed")
            sys.exit(1)


def harness(args):
    """Run the harness once; returns its last stdout line as JSON."""
    proc = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S, env=ENV)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"harness {' '.join(args[:3])} exited {proc.returncode}")
        sys.exit(1)
    return json.loads(lines[-1])


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def measure(workload, seed, seconds, trace, insts=None):
    """One run of @p workload; returns the harness record."""
    tag = f"{workload}-seed{seed}-trace{trace}"
    work = BUILD / f"work-{tag}-{os.getpid()}"
    out = BUILD / "out"
    out.mkdir(parents=True, exist_ok=True)
    args = ["trace" if trace else "run", "--workload", workload,
            "--seed", str(seed), "--work", str(work)]
    if trace:
        args += ["--spans", str(out / f"{tag}.spans.json")]
        if insts:
            args += ["--insts", str(insts)]
    else:
        args += ["--seconds", str(seconds)]
    try:
        record = harness(args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (out / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def result(record, names):
    """The printed result object; exits when a metric is missing."""
    metrics = {}
    for name, unit in names.items():
        m = record["metrics"].get(name)
        if m is None or m["value"] is None or not math.isfinite(m["value"]):
            log(f"metric {name} missing or not finite")
            sys.exit(1)
        if m["unit"] != unit:
            log(f"metric {name} has unit {m['unit']}, declared {unit}")
            sys.exit(1)
        metrics[name] = {"value": m["value"], "unit": unit}
    return {"correct": bool(record["correct"]),
            "attempted": int(record["attempted"]),
            "failed": int(record["failed"]), "metrics": metrics}


def self_test():
    """The harness's own checks, then every workload's traced and
    untraced runs at small sizes must emit every declared metric."""
    build()
    if subprocess.run([str(BINARY), "selftest"], env=ENV).returncode != 0:
        log("self-test FAILED: harness selftest")
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for w in spec["workloads"]:
        for trace, kind in ((1, "per_layer"), (0, "end_to_end")):
            record = measure(w["name"], 42, 0, trace, insts=4000)
            missing = sorted(set(declared(kind)) - set(record["metrics"]))
            ok = not missing and record["correct"]
            failures += 0 if ok else 1
            log(f"{'ok' if ok else 'FAILED'}: {w['name']} trace={trace} "
                f"emits every {kind} metric"
                + (f" (missing {missing})" if missing else ""))
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if a.self_test:
        return self_test()
    if not a.workload:
        p.error("--workload is required")
    build()
    record = measure(a.workload, a.seed, a.seconds, a.trace)
    kind = "per_layer" if a.trace else "end_to_end"
    print(json.dumps({"provenance": record["provenance"],
                      "build_type": record["build_type"],
                      "nproc": record["nproc"],
                      "cpu_model": record["cpu_model"],
                      "notes": record["notes"]}))
    print(json.dumps(result(record, declared(kind))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
