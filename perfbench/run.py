#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload pairs --seed 1 --seconds 10 --trace 0

--workload all runs the four workloads one after the other.

Builds perfbench/main.exe with dune into .bench_build (release profile),
then runs it with the same arguments.  The last line of standard output
is the result as one JSON object.  A traced run writes its spans to
.bench_build/spans-WORKLOAD-seedN.tsv unless --spans-out names a file.
Exits non-zero without a result when the checkout lacks the sources or
the build fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("pairs", "stream", "sharded", "fanout")
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# OCaml runtime parameters per workload.  fanout allocates about 200
# minor-heap words per task, and every minor collection stops all
# domains, the main domain too: it waits in Domain.join, so its backup
# thread wakes for each collection and takes a core from the client or
# the worker.  At the default 256k-word minor heap that happens about
# 650 times a second, and the p99 latency's IQR over runs of the same
# code was 0.20 of its median; a 1M-word minor heap cuts the
# collections fourfold and that spread to 0.06 (README.md).
RUNTIME_PARAMS = {"fanout": "s=1M"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", help="where a traced run writes its spans (TSV)")
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    # The benchmark drives the repository's libraries: without them there
    # is nothing to measure.
    for need in ("dune-project", "lib/wfq/wfqueue.mli", "lib/shard/shard.mli", "lib/sched/scheduler.ml"):
        if not os.path.exists(need):
            fail("run from the root of the repository: %s is missing" % need)

    build = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
             "./perfbench/main.exe"]
    try:
        b = subprocess.run(build, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build did not finish: %s" % e)
    if b.returncode != 0:
        sys.stderr.write(b.stdout.decode(errors="replace"))
        fail("build failed")

    worst = 0
    for wl in WORKLOADS if args.workload == "all" else (args.workload,):
        cmd = [EXE, "--workload", wl, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace == 1:
            spans = args.spans_out if args.spans_out and args.workload != "all" else os.path.join(
                BUILD_DIR, "spans-%s-seed%d.tsv" % (wl, args.seed))
            cmd += ["--spans-out", spans]
        env = dict(os.environ)
        if wl in RUNTIME_PARAMS:
            env["OCAMLRUNPARAM"] = RUNTIME_PARAMS[wl]
        else:
            env.pop("OCAMLRUNPARAM", None)
        try:
            r = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, env=env)
        except subprocess.TimeoutExpired:
            fail("%s run exceeded %d s" % (wl, RUN_TIMEOUT_S))
        worst = max(worst, r.returncode)
    sys.exit(worst)


if __name__ == "__main__":
    main()
