#!/usr/bin/env python3
"""Build and run the interactive-session benchmark.

    python3 perfbench/run.py --workload g5k-explore --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds the
driver and the VIVA library from source (Release) under .bench_build/;
later calls only re-check the build. Every argument is forwarded to the
driver, whose last stdout line is the JSON result. The build log goes
to stderr. Exits non-zero, without a result, when the build or the run
fails.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "cmake"
RUN_TIMEOUT_S = 175


def build():
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return BUILD / "viva_perfbench"


def main(argv):
    try:
        driver = build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    try:
        run = subprocess.run([str(driver), *argv], cwd=ROOT,
                             stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
