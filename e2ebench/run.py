#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark.

    python3 e2ebench/run.py --workload btio-select --seed 1 --seconds 20 --trace 0

Run from the repository root.  Builds e2ebench/ (the repository's
libraries plus the benchmark binary) with CMake into $CARGO_TARGET_DIR/e2ebench
(default .bench_build/e2ebench), then runs iop_e2ebench.  Everything the
workload writes goes to a per-run directory under .bench_run/, removed at
the end; a traced run leaves its spans in .bench_run/spans/.  The last
line of stdout is the result JSON (see NOTES.md).  Build output goes to
stderr.  Exits non-zero, without a result, when the build or the run fails.
"""
import argparse
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("btio-select", "trace-to-model", "sweep-cold", "sweep-warm")


def build():
    root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = root.resolve() / "e2ebench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "iop_e2ebench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return build_dir / "iop_e2ebench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"e2ebench: build failed: {err}", file=sys.stderr)
        return 1

    runs = pathlib.Path(".bench_run").resolve()
    scratch = runs / f"{args.workload}-{args.seed}-{os.getpid()}"
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scratch", str(scratch),
               "--golden", str(HERE / "golden" / "default-seed.txt")]
    if args.trace:
        command += ["--spans-out",
                    str(runs / "spans" / f"{args.workload}-{args.seed}.json")]
    try:
        return subprocess.run(command).returncode
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
