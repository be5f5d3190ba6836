#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload zoo|deep|serve --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds the benchmark program and the
pypmc binary with dune (into _build/, with the dune cache off), then
runs it; its last stdout line is the JSON result. Build
output and the program's report go to stderr. Exits nonzero, without a
result line, if the build fails, the program fails, or any output fails
verification.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
PROGRAM = os.path.join("_build", "default", "perfbench", "main.exe")
PYPMC = os.path.join("_build", "default", "bin", "pypmc.exe")
RUN_DIR = ".perfbench_run"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, env, stdout):
    proc = subprocess.Popen(cmd, env=env, stdout=stdout, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s timed out after %d s" % (cmd[0], timeout))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["zoo", "deep", "serve"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    if not os.path.isfile("dune-project"):
        fail("run from the repository root (no dune-project here)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    # dune from PATH, else through opam's current switch
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    code = run(dune + ["build", "--root", ".", "./perfbench/main.exe", "./bin/pypmc.exe"],
               BUILD_TIMEOUT_S, env, sys.stderr)
    if code != 0:
        fail("build failed (exit %d)" % code)

    os.makedirs(RUN_DIR, exist_ok=True)
    cmd = [PROGRAM, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--pypmc", PYPMC, "--out-dir", RUN_DIR]
    out = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                           start_new_session=True)
    try:
        stdout, _ = out.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # SIGTERM lets the program stop and reap its server child; whatever
        # is left of its process group after the grace period is killed
        out.terminate()
        try:
            out.communicate(timeout=15)
        except subprocess.TimeoutExpired:
            pass
        try:
            os.killpg(out.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        out.wait()
        fail("benchmark timed out after %d s" % RUN_TIMEOUT_S)
    if out.returncode != 0:
        fail("benchmark failed (exit %d)" % out.returncode)
    sys.stdout.write(stdout.decode())
    sys.stdout.flush()


if __name__ == "__main__":
    main()
