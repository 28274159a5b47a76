"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/steadiness.py --runs 10 --first-seed 1
    python3 perfbench/steadiness.py --workload gsets --runs 5 --trace 1

For every workload it runs perfbench/run.py once per seed, one run at a
time, and prints per metric the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median, with
the failed share of operations.  Raw result lines are appended to
.perfbench_out/steadiness.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS, run_seconds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    seconds = run_seconds()
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    log = os.path.join(ROOT, ".perfbench_out", "steadiness.jsonl")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append(result)
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": name, "seed": seed,
                                     "trace": args.trace, **result}) + "\n")
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in results})
        print(f"{name}: correct={all(r['correct'] for r in results)} "
              f"failed/attempted={','.join(shares)}")
        for metric, m in results[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {metric:50s} median {med:.6g} {m['unit']}  "
                  f"q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
