#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload engine_wide --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run from the repository root.  The script

  * builds perfbench/ (the engine libraries from src/ plus the
    atp_perfbench binary) in an unchecked Release configuration of its own
    under .bench_build/perfbench -- the repository's own build is untouched;
  * runs the binary's self-tests, then the workload: inputs come from
    --seed before anything is timed, closed-loop callers run for --seconds,
    and the correctness gates check the outputs (money conservation, audit
    error within eps, budget violations, online vs offline certification,
    WAL crash recovery);
  * checks that the reported metrics are exactly the ones BENCHMARK.json
    lists -- its end_to_end metrics with --trace 0, its per_layer metrics
    with --trace 1 -- and keeps the full result, build provenance included,
    under .bench_build/results/ (the traced run's spans go to
    .bench_build/spans/);
  * prints every metric by name with its unit and, as the last line, one
    JSON object {"correct", "attempted", "failed", "metrics"}.

A failed gate, a failed build or a missing source tree exits nonzero and
prints no numbers.  --workload all runs every workload listed in
BENCHMARK.json, untraced and traced, and prints one result line each.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "atp_perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_manifest():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure (once) and build atp_perfbench; returns False on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no engine sources under {ROOT / 'src'}; nothing to build")
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("configure failed")
            return False
    jobs = str(min(os.cpu_count() or 1, 4))
    cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "atp_perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        log("build failed")
        return False
    return True


def source_id():
    """git commit when available, else a digest of the sources built."""
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            dirty = subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain", "--",
                 "src", "perfbench"], capture_output=True, text=True)
            return "git:" + r.stdout.strip() + ("+dirty" if dirty.stdout else "")
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "tree-sha256:" + h.hexdigest()[:16]


def expected_metrics(manifest, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in manifest[key]}


def run_one(workload, seed, seconds, trace, manifest, src_id):
    """Run atp_perfbench once; returns (exit code, result line dict)."""
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--source-id", src_id]
    if trace:
        (BUILD_ROOT / "spans").mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(BUILD_ROOT / "spans" / f"{tag}.csv")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{tag}: timed out after {RUN_TIMEOUT_S} s")
        return 1, None
    lines = r.stdout.strip().splitlines()
    try:
        full = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"{tag}: atp_perfbench exited {r.returncode} without a result")
        return r.returncode or 1, None
    (BUILD_ROOT / "results").mkdir(parents=True, exist_ok=True)
    with open(BUILD_ROOT / "results" / f"{tag}.json", "w") as f:
        json.dump(full, f, indent=1)
    line = {k: full[k] for k in ("correct", "attempted", "failed", "metrics")}
    if r.returncode != 0 or not full["correct"]:
        for g in full.get("gate_failures", []):
            log(f"{tag}: gate failed: {g}")
        line["correct"] = False
        line["metrics"] = {}
        return r.returncode or 1, line
    want = expected_metrics(manifest, trace)
    got = {name: m["unit"] for name, m in full["metrics"].items()}
    if got != want:
        log(f"{tag}: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))}, "
            f"unit mismatches {sorted(k for k in want if k in got and got[k] != want[k])}")
        line["correct"] = False
        line["metrics"] = {}
        return 1, line
    for name, m in full["metrics"].items():
        print(f"{tag}  {name:28s} {m['value']:.6g} {m['unit']}")
    for name, m in full.get("detail", {}).items():
        print(f"{tag}  detail.{name:21s} {m['value']:.6g} {m['unit']}")
    print(f"{tag}  provenance {json.dumps(full['provenance'])}")
    return 0, line


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "BENCHMARK.json").is_file():
        log("BENCHMARK.json not found")
        return 2
    manifest = load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    if args.workload != "all" and args.workload not in names:
        log(f"unknown workload {args.workload!r}; choose from {names} or all")
        return 2
    seconds = args.seconds if args.seconds is not None else manifest["run_seconds"]
    if not build():
        return 2
    src_id = source_id()

    if args.workload != "all":
        rc, line = run_one(args.workload, args.seed, seconds, bool(args.trace),
                           manifest, src_id)
        if line is not None:
            print(json.dumps(line))
        return rc
    worst = 0
    for w in names:
        for trace in (False, True):
            rc, line = run_one(w, args.seed, seconds, trace, manifest, src_id)
            worst = worst or rc
            if line is not None:
                print(json.dumps(line))
    return worst


if __name__ == "__main__":
    sys.exit(main())
