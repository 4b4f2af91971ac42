#!/usr/bin/env python3
"""Build the selspec benchmark harness from source and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload run-suite --seed 1 --seconds 20 --trace 0

The harness is configured and built with CMake under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); build output
goes to stderr.  The last line of stdout is the result JSON.  With
--trace 1 the run also writes a Chrome trace next to the build.

    python3 perfbench/run.py --write-reference

regenerates perfbench/reference/expected.tsv from the AST tier under Base.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference", "expected.tsv")
WORKLOADS = ("compile-suite", "run-suite", "serve-mix")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(bdir):
    """Configures (once) and builds the harness; returns its path."""
    def step(cmd):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))

    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", bdir, "--target", "perfbench_harness",
          "-j", "4"])
    return os.path.join(bdir, "perfbench_harness")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", default=REFERENCE,
                    help="expected-output records to check against")
    ap.add_argument("--trace-out", help="Chrome trace file (--trace 1)")
    ap.add_argument("--jobs-out", help="write the serve-mix job sequence")
    ap.add_argument("--tiny", action="store_true",
                    help="self-test size: one set-up, one round, few jobs")
    ap.add_argument("--write-reference", action="store_true",
                    help="regenerate the reference records and exit")
    args = ap.parse_args()

    bdir = build_dir()
    harness = build(bdir)
    if args.write_reference:
        return subprocess.run([harness, "--write-reference",
                               REFERENCE]).returncode
    if args.workload is None:
        ap.error("--workload is required")

    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", args.reference]
    if args.trace:
        cmd += ["--trace-out", args.trace_out or os.path.join(
            bdir, "trace-%s.json" % args.workload)]
    if args.jobs_out:
        cmd += ["--jobs-out", args.jobs_out]
    if args.tiny:
        cmd.append("--tiny")
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
