#!/usr/bin/env python3
"""Build and run the DCDB end-to-end pipeline benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload ingest_per_sensor --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt)
that compiles the DCDB libraries from src/ plus the benchmark sources.
The build goes to $CARGO_TARGET_DIR/perfbench when that directory lies
inside the repository, else to .bench_build/perfbench. Build output goes
to standard error; the last line of standard output is the benchmark's
JSON result. See perfbench/README.md for the workloads and metrics.
"""
import argparse
import fcntl
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ingest_per_sensor", "ingest_pusher", "query_dashboard")
# Every run must end within 180 s; the build (when there is one) counts.
DEADLINE_S = 175


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_root():
    env = os.environ.get("CARGO_TARGET_DIR")
    if env:
        p = pathlib.Path(env)
        p = (p if p.is_absolute() else ROOT / p).resolve()
        if p == ROOT or ROOT in p.parents:
            return p
    return ROOT / ".bench_build"


def configured_for_here(bdir):
    cache = bdir / "CMakeCache.txt"
    if not cache.is_file():
        return False
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            return pathlib.Path(line.split("=", 1)[1]) == HERE
    return False


def build(bdir):
    """Configure (once) and build the benchmark; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("DCDB sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    bdir.mkdir(parents=True, exist_ok=True)
    with open(bdir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not configured_for_here(bdir):
            # A build tree configured elsewhere cannot be reused.
            (bdir / "CMakeCache.txt").unlink(missing_ok=True)
            shutil.rmtree(bdir / "CMakeFiles", ignore_errors=True)
            subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(bdir),
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(
            ["cmake", "--build", str(bdir), "--target", "pipeline_bench",
             "-j", jobs],
            stdout=sys.stderr, check=True)
    return bdir / "pipeline_bench"


def run(binary, args, workdir, timeout_s):
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--workdir", str(workdir)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"benchmark did not finish within {timeout_s:.0f} s", 1)
    finally:
        # The load generator shares the process group; make sure nothing
        # outlives the run.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"benchmark exited with status {proc.returncode}", 1)
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        fail("benchmark printed no result", 1)
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


def main():
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the helper unit tests only")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    bdir = build_root() / "perfbench"
    try:
        binary = build(bdir)
    except subprocess.CalledProcessError as e:
        fail(f"build failed: {e}", 1)
    if args.selftest:
        sys.exit(subprocess.run([str(binary), "--selftest"]).returncode)

    built_s = time.monotonic() - start
    # A fresh build may use the first run's longer allowance.
    timeout_s = 170 if built_s > 60 else max(30, DEADLINE_S - built_s)
    run(binary, args, bdir / "work" / str(os.getpid()), timeout_s)


if __name__ == "__main__":
    main()
