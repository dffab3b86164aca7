#!/usr/bin/env python3
"""Host wall-clock benchmark of the runtime::Cluster API.

Run from the root of a source checkout:

    python3 hostbench/run.py --workload ring_bulk --seed 1 --seconds 40 --trace 0
    python3 hostbench/run.py --all [--seed 1] [--seconds 40]

The first form builds the benchmark if needed (CMake, Release, into
.bench_build/), runs one workload, prints a readable report and, as the last
stdout line, the result object {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (and
writes a Chrome trace under .bench_out/).  --all runs every workload both ways
and prints every metric with its unit and sample count.

Build output goes to stderr.  A failed build, a crashed binary or missing
sources end the run with a non-zero exit code and no result line.
"""

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD_DIR = ROOT / ".bench_build" / "cmake"
OUT_DIR = ROOT / ".bench_out"
BINARY = BUILD_DIR / "hostbench"
WORKLOADS = ("ring_bulk", "lossy_streams", "wildcard_deep")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not produce a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_checked(cmd, timeout):
    """Runs a build step with its output on stderr; raises on failure."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"timed out: {' '.join(cmd)}") from e
    if proc.returncode != 0:
        raise BenchError(f"failed ({proc.returncode}): {' '.join(cmd)}")


def build():
    """Configures (once) and builds the binary; incremental when up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("no simtmsg sources (src/CMakeLists.txt) in this checkout")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        run_checked(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_checked(["cmake", "--build", str(BUILD_DIR), "-j", "4",
                 "--target", "hostbench", "hostbench_selftest"], BUILD_TIMEOUT_S)


def source_digest():
    """SHA-256 over the library and benchmark sources: identifies the code
    measured even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout when it is a git work tree (never searches above)."""
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode (empty when the
    file is absent)."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return []
    spec = json.loads(spec_path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_binary(workload, seed, seconds, trace):
    """Runs one workload; returns the binary's report object."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(OUT_DIR)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"benchmark binary timed out after {RUN_TIMEOUT_S} s") from e
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"benchmark binary exited {proc.returncode} without a report")
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        raise BenchError("benchmark binary printed no JSON report") from e
    missing = [m for m in expected_metrics(trace) if m not in report["metrics"]]
    if missing:
        report["correct"] = False
        report["problems"].append("metrics missing from the report: " + ", ".join(missing))
    report["fingerprint"]["git_commit"] = git_commit()
    report["fingerprint"]["source_digest"] = source_digest()
    return report


def save(report):
    OUT_DIR.mkdir(exist_ok=True)
    name = f"result_{report['workload']}_s{report['seed']}_t{report['trace']}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=2) + "\n")


def describe(report):
    """Readable lines for one report: verdict, metrics, sample counts."""
    info = report["info"]
    out = [f"workload {report['workload']}  seed {report['seed']}  "
           f"trace {report['trace']}  correct {str(report['correct']).lower()}  "
           f"attempted {report['attempted']}  failed {report['failed']}  "
           f"failed_frac {info.get('failed_frac', 0)}"]
    for name, m in report["metrics"].items():
        note = ""
        if name.startswith("superstep_"):
            note = f"  (n={info['superstep_samples']} supersteps)"
        elif name == "setup_s":
            note = f"  (median of n={info['setup_samples']} set-ups)"
        elif name in ("sim_time_us", "modelled_mps", "peak_rss_mb"):
            note = f"  (after {info['checkpoint_supersteps']} timed supersteps)"
        out.append(f"  {name:36s} {m['value']:<24.10g} {m['unit']}{note}")
    if report["trace"]:
        out.append(f"  trace: {info['trace_file']} ({info['spans']} spans, "
                   f"{info['traced_supersteps']} traced / "
                   f"{info['untraced_supersteps']} untraced supersteps)")
    for p in report["problems"]:
        out.append(f"  PROBLEM: {p}")
    out.append("  fingerprint: " + json.dumps(report["fingerprint"], sort_keys=True))
    return "\n".join(out)


def result_line(report):
    return json.dumps({"correct": bool(report["correct"]),
                       "attempted": int(report["attempted"]),
                       "failed": int(report["failed"]),
                       "metrics": report["metrics"]})


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload untraced and traced; print every metric")
    args = ap.parse_args(argv)
    if not args.all and args.workload is None:
        ap.error("--workload is required unless --all is given")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    try:
        build()
        if args.all:
            ok = True
            for workload in WORKLOADS:
                for trace in (0, 1):
                    report = run_binary(workload, args.seed, args.seconds, trace)
                    save(report)
                    ok = ok and report["correct"]
                    print(describe(report), flush=True)
            return 0 if ok else 1
        report = run_binary(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError) as e:
        log(f"hostbench: {e}")
        return 1
    save(report)
    print(describe(report))
    print(result_line(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
