#!/usr/bin/env python3
"""Builds the benchmark program from this checkout's sources and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first call configures and builds an
optimised (Release) tree of its own under .bench_build/perfbench (or under
$CARGO_TARGET_DIR when that is set), so a run never depends on a stale
build/ directory; later calls rebuild only what changed.  Build output
goes to standard error.

oib_perfbench prints a machine descriptor (nproc, build type, disk mode),
one progress line per round on standard error, and as the last line of
standard output one JSON object: {"correct", "attempted", "failed",
"metrics"}.  --trace 0 reports the end-to-end metrics; --trace 1 reports
the per-layer metrics and writes a Chrome trace to
<build dir>/traces/<workload>.json.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
BUILD_TYPE = "Release"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no engine sources under {ROOT / 'src'}; run from a full checkout")
    bdir = build_dir()
    cache = bdir / "CMakeCache.txt"
    if cache.is_file():
        # A tree configured for another source directory cannot be reused.
        home = f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}"
        if home not in cache.read_text(errors="replace").splitlines():
            shutil.rmtree(bdir)
    if not cache.is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(bdir), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return bdir / "oib_perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
