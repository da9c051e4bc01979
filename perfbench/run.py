#!/usr/bin/env python3
"""Designer-walk benchmark of the dslayer TCP service.

Builds the server (tools/dslshell) and the harness from this checkout's
sources, then runs one workload and prints every metric by name with its
unit; the last line of output is one JSON object:

    python3 perfbench/run.py --workload explore_1m --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload
    python3 perfbench/run.py --smoke                           # tiny-catalog self-test

Exit status: 0 when every response matched the oracle and the server's
counters agree with the client's; 1 otherwise; 2 when the program could
not be built or started. Build trees, fixture snapshots and span files
live under .bench_build/perfbench/ in the checkout.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD, "perfbench_harness")
DSLSHELL = os.path.join(BUILD, "dslayer", "tools", "dslshell")
WORKLOADS = ["explore_1m", "render_100k", "frontend_tiny"]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("the program's sources are missing from " + ROOT + " (no " + needed + ")")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "dslshell", "perfbench_harness",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as text:
                    sys.stderr.write("".join(text.readlines()[-40:]))
                fail("build failed; see " + log_path)


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="explore_1m",
                        help="one of " + ", ".join(WORKLOADS) + ", or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload over a tiny catalog and check the accounting")
    args = parser.parse_args()

    build()
    work = os.path.join(BUILD, "work")
    if args.smoke:
        sys.exit(subprocess.call([HARNESS, "smoke", "--work", work, "--dslshell", DSLSHELL]))

    names = WORKLOADS if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        fail("unknown workload '%s' (one of %s, or all)" % (args.workload, ", ".join(WORKLOADS)))
    status = 0
    for name in names:
        code = subprocess.call([HARNESS, "run", "--workload", name, "--seed", str(args.seed),
                                "--seconds", repr(args.seconds), "--trace", str(args.trace),
                                "--work", work, "--dslshell", DSLSHELL, "--git-sha", git_sha()])
        status = max(status, code)
    sys.exit(status)


if __name__ == "__main__":
    main()
