#!/usr/bin/env python3
"""Builds the mediator benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The mediator library (../src) and the benchmark driver are compiled as one
CMake package into the build directory: $CARGO_TARGET_DIR if set, otherwise
.bench_build, relative to the repository root. The driver's standard output
is passed through; its last line is the JSON result. A copy of the whole
output (and the latency samples, or for --trace 1 the recorded spans) is
kept under <build dir>/results/. Extra flags (--smoke, --corrupt-query <i>)
are passed to the driver unchanged.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def source_id() -> str:
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark compiles."""
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
        if commit.returncode == 0:
            return "git:" + commit.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".cc", ".h", ".txt"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def build(out: Path) -> Path:
    if not (ROOT / "src").is_dir():
        sys.exit("perfbench: no mediator sources at %s" % (ROOT / "src"))
    log = sys.stderr
    if not (out / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=log, stderr=log).returncode != 0:
            sys.exit("perfbench: cmake configure failed")
    jobs = str(os.cpu_count() or 2)
    if subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                      stdout=log, stderr=log).returncode != 0:
        sys.exit("perfbench: build failed")
    return out / "perfbench_driver"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, extra = parser.parse_known_args()

    out = build_dir()
    driver = build(out)
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    command = [str(driver), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--source-id", source_id()]
    if args.trace == 1:
        command += ["--trace-out", str(results / (stem + ".spans.jsonl"))]
    else:
        command += ["--samples-out", str(results / (stem + ".samples.tsv"))]
    command += extra
    # The mediator's async-executor override would replace the default
    # execution path the benchmark measures.
    env = {k: v for k, v in os.environ.items() if k != "GENCOMPACT_ASYNC"}
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish in %d s" % (stem, RUN_TIMEOUT_S))
    (results / (stem + ".txt")).write_text(run.stdout + run.stderr)
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        valid = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        valid = False
    if not valid:
        sys.stdout.write(run.stdout)
        sys.exit("perfbench: the driver printed no result (exit %d)" % run.returncode)
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
