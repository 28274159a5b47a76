"""One workload in its own interpreter; started by run.py.

Sets up the workload several times (importing gyrokit afresh each time),
runs the known-answer self-tests of the checks, then repeats whole rounds of
the workload until --seconds have passed.  With --trace 1 it runs one
untraced round and one traced round instead, and reports the per-layer
metrics.  The last line of standard output is the JSON result.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

import numpy  # noqa: F401  imported before timing, so setup_s excludes it

import certify
import common
import gsets
import inputs
import lattice
import oracles
import sampled
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = {"certify": certify, "lattice": lattice, "gsets": gsets,
             "sampled": sampled}
# set-up is repeated at least SETUPS_MIN times and until SETUP_SECONDS have
# been spent in it; setup_s is the median, so the first, slower set-ups
# (cold caches) do not decide it
SETUPS_MIN = 7
SETUP_SECONDS = 2.0

# per-layer values measured by the rounds themselves rather than by spans
ROUND_VALUES = {
    "finite.carrier_mb.n203", "cli.total_s", "max_law_residual",
    "ball.mobius.max_residual", "ball.einstein.max_residual",
    "pairs.max_residual", "ball.fault_suite.left_loop",
    *(f"finite.validate.n{p * q}_s" for p, q in inputs.LADDER),
    "finite.validate.d16_s", "finite.validate.d32_s",
}


def import_gyrokit():
    for name in [m for m in sys.modules if m == "gyrokit" or m.startswith("gyrokit.")]:
        del sys.modules[name]
    gk = importlib.import_module("gyrokit")
    importlib.import_module("gyrokit.cli")
    importlib.import_module("gyrokit.catalog")
    if not os.path.abspath(gk.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"gyrokit was imported from {gk.__file__}, not from this checkout")
    return gk


def per_layer(spec, untraced, traced, tracer):
    spans = tracer.summary()
    known = dict(untraced.values)
    known.update(untraced.timers)

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    closures = calls("finite.subgyrogroup_closure")
    known["finite.closure_yield"] = (
        traced.values.get("subgyrogroups_found", 0) / closures if closures else 0.0)
    distinct = len(tracer.first_args["actions.orbits_and_stabilizers"])
    known["actions.decompositions_per_gset"] = (
        calls("actions.orbits_and_stabilizers") / distinct if distinct else 0.0)
    laws = spans.get("ball.check_ball_laws")
    known["ball.triples_per_s"] = (
        traced.values.get("ball_triples", 0) / laws[1] if laws else 0.0)
    known["trace.overhead_s"] = traced.wall - untraced.wall

    out = {}
    for m in spec:
        name = m["name"]
        if name in known:
            value = known[name]
        elif name.endswith(".calls") and name[:-6] in tracer.names:
            value = calls(name[:-6])
        elif name.endswith(".self_s") and name[:-7] in tracer.names:
            value = spans.get(name[:-7], (0, 0.0, 0.0))[2]
        elif name in ROUND_VALUES:
            value = 0.0  # a layer this workload does not run
        else:
            raise SystemExit(f"per-layer metric {name} is not measured")
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workload = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        setup_times = []
        while len(setup_times) < SETUPS_MIN or sum(setup_times) < SETUP_SECONDS:
            ctx = None  # the previous set-up's inputs are freed before timing
            gc.collect()
            start = perf_counter()
            gk = import_gyrokit()
            ctx = workload.setup(gk, args.seed, tmpdir)
            setup_times.append(perf_counter() - start)
        inputs.selftest(gk.catalog)
        oracles.selftest(inputs, gk.catalog)

        rounds = []
        start = perf_counter()
        while True:
            rounds.append(common.Round(gk))
            workload.run(rounds[-1], ctx)
            if args.trace or perf_counter() - start >= args.seconds:
                break
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
            rounds.append(common.Round(gk, tracer))
            workload.run(rounds[-1], ctx)
            tracer.write(os.path.join(
                OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    problems = [p for r in rounds for p in r.problems]
    for p in problems[:20]:
        print(f"{args.workload}: {p}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(spec["per_layer"], rounds[0], rounds[1], tracer)
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {"setup_s": statistics.median(setup_times),
                  "wall_s": statistics.median(r.wall for r in rounds),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps({"correct": not problems,
                      "attempted": sum(r.attempted for r in rounds),
                      "failed": sum(r.failed for r in rounds),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
