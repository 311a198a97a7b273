#!/usr/bin/env python3
"""End-to-end benchmark of graphorder.

Run from the repository root:

    python3 perfbench/run.py --workload powerlaw --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Builds the library, the reorderd daemon and the benchmark driver from
source into $CARGO_TARGET_DIR (default .bench_build) with CMake, then
runs the driver.  Build output goes to stderr; the last line of stdout
is the JSON result.  See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)


def check_result(result, trace):
    """Return why the result line does not match BENCHMARK.json, or None."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        manifest = json.load(f)
    want = {m["name"]: m["unit"]
            for m in manifest["per_layer" if trace == "1" else "end_to_end"]}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        return ("metrics differ from the manifest: missing "
                f"{sorted(set(want) - set(got))}, extra "
                f"{sorted(set(got) - set(want))}, units "
                f"{sorted(k for k in want if k in got and got[k] != want[k])}")
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["powerlaw", "road"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    work_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                              ".bench_build"))
    build_dir = os.path.join(work_dir, "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    exe = os.path.join(build_dir, "perfbench")

    # Timed runs use the program's default thread setting.
    env = dict(os.environ)
    for var in ("GRAPHORDER_THREADS", "OMP_WAIT_POLICY", "OMP_NUM_THREADS"):
        env.pop(var, None)

    if args.selftest:
        return subprocess.run([exe, "selftest"], env=env).returncode

    cmd = [exe, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", work_dir,
           "--reorderd", os.path.join(build_dir, "reorderd")]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: driver exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    problem = check_result(result, args.trace)
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(f"run took {time.monotonic() - start:.1f} s", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
