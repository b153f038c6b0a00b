#!/usr/bin/env python3
"""Build crnet's benchmark and run one workload.

Usage, from the root of a crnet checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--expect-digest HEX]

Configures and builds perfbench/ (libcrnet from src/ plus the harness)
into .bench_build/perfbench, then runs the harness. Its standard output
passes through unchanged; the last line is the result JSON. The expected
result digest for the seed comes from perfbench/seeds.json unless
--expect-digest overrides it. A traced run (--trace 1) writes its spans
to .bench_build/spans/.

Exit codes: 0 = every correctness check passed; 1 = a check failed, or
the build failed (then no result line is printed); 2 = bad arguments.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "perfbench"
BINARY = BUILD / "crnet_bench"
BUILD_TIMEOUT_S = 850
# The harness runs for --seconds, then its reference runs; the margin
# covers those and the last unit's overrun.
RUN_MARGIN_S = 100


def build():
    """Configure once, then build incrementally. Returns True on success."""
    BUILD_ROOT.mkdir(exist_ok=True)
    # Keep the compiler's temporary files inside the checkout too.
    tmp = BUILD_ROOT / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    log_path = BUILD_ROOT / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=log,
                                    stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as err:
                print(f"run.py: {err}", file=sys.stderr)
                return False
            if rc != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-20:]
                print("run.py: build failed:\n" + "\n".join(tail),
                      file=sys.stderr)
                return False
    return True


def git_commit():
    """HEAD of the checkout, without looking above it for a repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             env=env, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    seeds = json.loads((HERE / "seeds.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(seeds["digests"]))
    ap.add_argument("--seed", type=int, default=seeds["default_seed"])
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--expect-digest", default=None,
                    help="override the digest recorded in seeds.json")
    args = ap.parse_args()

    if not build():
        return 1
    expect = args.expect_digest
    if expect is None:
        expect = seeds["digests"][args.workload].get(str(args.seed), "")
    cmd = [str(BINARY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--commit", git_commit()]
    if expect:
        cmd += ["--expect-digest", expect]
    if args.trace == "1":
        spans = BUILD_ROOT / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans",
                str(spans / f"{args.workload}_seed{args.seed}.json")]
    sys.stdout.flush()
    timeout = 2 * args.seconds + RUN_MARGIN_S
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {timeout:g} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
