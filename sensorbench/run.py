#!/usr/bin/env python3
"""Build and run the sensor benchmark from the root of a source checkout.

    python3 sensorbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Configures a Release build of sensorbench/ (which compiles ../src) into
.bench_build/sensorbench, then runs the benchmark binary. Build output goes
to stderr; the binary's stdout passes through unchanged, so its last line
is the JSON result. Traced runs write their spans to
.bench_build/sensorbench/spans/<workload>-seed<N>.jsonl.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "sensorbench"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"sensorbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT / 'src'}; run from a full source checkout")
    cache = BUILD / "CMakeCache.txt"
    if not cache.is_file() or "CMAKE_BUILD_TYPE:STRING=Release" not in cache.read_text():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if cache.is_file():
            shutil.rmtree(BUILD)
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "--target", "sensorbench", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return BUILD / "sensorbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="small traffic and rule sets: every workload in seconds")
    args = ap.parse_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace == "1":
        spans = BUILD / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
