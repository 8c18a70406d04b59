#!/usr/bin/env python3
"""Build the SemHolo benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds a
Release tree under .bench_build/perfbench (later calls rebuild only what
changed); the binary's output is passed through, so the last line of
standard output is the result JSON. Build logs go to
.bench_build/perfbench-build.log; reports and Chrome traces to .bench_out/.
Exits non-zero without a result when the build fails.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
LOG = ROOT / ".bench_build" / "perfbench-build.log"
BINARY = BUILD / "semholo_perfbench"
JOBS = str(min(4, os.cpu_count() or 1))


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    configure = ["cmake", "-S", str(SOURCE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (BUILD / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    steps = [configure, ["cmake", "--build", str(BUILD), "--target", "semholo_perfbench", "-j", JOBS]]
    with open(LOG, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                return False
    return BINARY.exists()


def main():
    if not build():
        sys.stderr.write(f"perfbench: build failed, see {LOG}\n")
        try:
            sys.stderr.write(LOG.read_text()[-4000:])
        except OSError:
            pass
        return 1
    args = [str(BINARY), *sys.argv[1:], "--out", str(ROOT / ".bench_out")]
    sys.stdout.flush()
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main())
