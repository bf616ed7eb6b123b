#!/usr/bin/env python3
"""Builds the sopr end-to-end benchmark from source and runs one workload.

    python3 e2e_bench/run.py --workload org_cascade --seed 1 --seconds 10 --trace 0

Run from the root of a sopr checkout. The build goes to .bench_build/e2e
(CMake + Ninja, Release); build output goes to stderr, so the last line
of standard output is the benchmark's JSON result. See README.md.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(root, build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    generated = [os.path.join(build_dir, f) for f in ("build.ninja", "Makefile")]
    if not any(os.path.exists(f) for f in generated):
        subprocess.run(configure, cwd=root, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "sopr_e2e", "-j", jobs],
                   cwd=root, check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "sopr_e2e")


def git_describe(root):
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown (git unavailable)"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    work = os.path.join(root, ".bench_build", "e2e")
    try:
        binary = build(root, os.path.join(work, "build"))
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--git-describe", git_describe(root)]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
