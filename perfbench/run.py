"""gyrokit's benchmark.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 7                # all four workloads

Run from the root of a checkout.  Each workload runs in a fresh interpreter
(perfbench/child.py), one at a time, with numpy's thread pools held to one
thread, and imports gyrokit from this checkout's src/.  The last line of
standard output is the JSON result of the last workload run; with
``--workload all`` each workload's line also names it.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("certify", "lattice", "gsets", "sampled")
# a child may start its last round just before --seconds have passed; a
# round and the set-ups take at most this long on top
ROUND_ALLOWANCE_S = 160
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def run_workload(name, args):
    # NUMPY_MADVISE_HUGEPAGE=0: whether a large array gets transparent huge
    # pages depends on the host's free memory, and peak_rss_mb moved by 2 MB
    # steps from run to run with it
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0",
               NUMPY_MADVISE_HUGEPAGE="0", **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    timeout = args.seconds + ROUND_ALLOWANCE_S
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {name} did not finish in {timeout} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: {name} exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def run_seconds():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["run_seconds"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int,
                    help="each run repeats whole rounds until this has passed "
                         "(default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "gyrokit", "__init__.py")):
        print("perfbench: no src/gyrokit in this checkout", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = run_seconds()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        result = run_workload(name, args)
        if result is None:
            status = 1
            continue
        if len(names) > 1:
            result = {"workload": name, **result}
        print(json.dumps(result), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
