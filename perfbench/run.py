#!/usr/bin/env python3
"""Repository benchmark launcher (see perfbench/README.md).

    python3 perfbench/run.py --workload serve-steady --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --self-test

Builds perfbench/ (and the fsda libraries it links from ../src) with CMake
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
measuring program, passes its report through, and prints as the last line
one JSON object holding exactly the metrics BENCHMARK.json declares for the
mode: the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1.  Exits non-zero, without that line, when the build or the run
fails or a declared metric is missing; a failed correctness check prints
the line with "correct": false and exits 1.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures once and builds incrementally; output goes to stderr."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "fsda_perfbench", "perfbench_test"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    return out


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    src/ and perfbench/ (git is not asked otherwise: it would search the
    directories above the checkout)."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if rev.returncode == 0 and rev.stdout.strip():
                return rev.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the
    # build or the measuring program before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own unit tests")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no fsda sources next to perfbench/ -- nothing to build")
        return 2
    out = build()
    if out is None:
        return 2
    if args.self_test:
        return subprocess.run([os.path.join(out, "perfbench_test")]).returncode
    if not args.workload:
        ap.error("--workload is required")
    names = declared(args.trace == 1)

    trace_dir = os.path.join(out, "out")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(out, "fsda_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--commit", source_id(),
           "--out-dir", os.path.relpath(trace_dir, os.getcwd())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        full = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        log(f"no result from the measuring program (exit {proc.returncode})")
        return 3
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    missing = [n for n in names if n not in full["metrics"]]
    if missing:
        log("declared metrics missing from the run: " + ", ".join(missing))
        return 3
    result = {
        "correct": bool(full["correct"]) and proc.returncode == 0,
        "attempted": int(full["attempted"]),
        "failed": int(full["failed"]),
        "metrics": {n: full["metrics"][n] for n in names},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
