"""Spans around calls into gyrokit, recorded from the benchmark's own files.

``install`` wraps the public functions of each gyrokit layer module and
rebinds every wrapper in every gyrokit module namespace that imported the
name, so that calls between modules are traced too.  The batched
``BallGyrogroup.oplus`` and ``PairGyrogroup.oplus`` methods and
``PairGyrogroup.verify_hat_criterion`` are wrapped as well; the per-element
``FiniteGyrogroup`` methods are not, since they run millions of times.

Spans (name, start, end, parent) are kept in memory while the run lasts and
written out by ``write`` when it ends.
"""

import functools
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("finite", "coset_actions", "actions", "equivalence", "core", "ball",
          "pairs", "cli")
METHODS = (("ball", "BallGyrogroup", "oplus"), ("pairs", "PairGyrogroup", "oplus"),
           ("pairs", "PairGyrogroup", "verify_hat_criterion"))
# first arguments kept for these spans, to count the distinct objects passed
KEEP_FIRST_ARG = ("actions.orbits_and_stabilizers",)


class Tracer:
    """In-memory span store; records only while ``enabled`` is set."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.enabled = False
        self.names = set()
        self.first_args = {name: {} for name in KEEP_FIRST_ARG}

    def wrap(self, fn, name):
        tracer = self
        tracer.names.add(name)
        keep = tracer.first_args.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if keep is not None and args:
                keep[id(args[0])] = args[0]  # held, so ids are not reused
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.spans[index] = (name, start, end, parent)
        return traced

    def summary(self):
        """name -> [calls, total seconds, self seconds]; self time is a span's
        duration minus the durations of its direct wrapped children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def install(tracer):
    """Wrap every public function of the layer modules and rebind it everywhere.

    Returns the number of functions wrapped.
    """
    wrapped = {}
    for layer in LAYERS:
        mod = sys.modules[f"gyrokit.{layer}"]
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrapped[obj] = tracer.wrap(obj, f"{layer}.{attr}")
    for name, mod in list(sys.modules.items()):
        if name != "gyrokit" and not name.startswith("gyrokit."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    for layer, cls_name, meth in METHODS:
        cls = getattr(sys.modules[f"gyrokit.{layer}"], cls_name)
        setattr(cls, meth, tracer.wrap(getattr(cls, meth), f"{layer}.{cls_name}.{meth}"))
    return len(wrapped) + len(METHODS)
