"""The names the benchmark reads from gyrokit stay public attributes, and
its calls into gyrokit still bind to their signatures.

``perfbench/*.py`` calls ``gk.<module>.<name>``, and a traced run
(``--trace 1``) stops with "per-layer metric ... is not measured" when a
function behind one of ``BENCHMARK.json``'s ``.calls`` or ``.self_s``
metrics, ``<layer>.<name>[.<method>]``, is gone.  A call whose arguments
no longer bind fails only when the benchmark runs.  These tests read
those files; the last also runs the benchmark's tracer over gyrokit in a
child interpreter.
"""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")


def _called():
    names = set()
    for f in sorted(os.listdir(BENCH)):
        if f.endswith(".py"):
            with open(os.path.join(BENCH, f), encoding="utf-8") as fh:
                names |= set(re.findall(r"\bgk\.(\w+\.\w+)", fh.read()))
    return names


def _traced():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["per_layer"]
    return {m["name"].rsplit(".", 1)[0] for m in metrics
            if m["name"].endswith((".calls", ".self_s"))}


def _gk_name(node):
    """"<module>.<name>" for the expression ``gk.<module>.<name>``, else
    None."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute) \
            and isinstance(node.value.value, ast.Name) and node.value.value.id == "gk":
        return f"{node.value.attr}.{node.attr}"
    return None


def _bench_calls():
    """(where, "<module>.<name>", args, keywords) of every
    ``r.call(gk.<module>.<name>, ...)`` and every direct
    ``gk.<module>.<name>(...)`` in perfbench/*.py, as ast nodes; the
    ``timer=`` that ``r.call`` consumes is dropped."""
    calls = []
    for f in sorted(os.listdir(BENCH)):
        if not f.endswith(".py"):
            continue
        with open(os.path.join(BENCH, f), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=f)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func, args, keywords = node.func, node.args, node.keywords
            if isinstance(func, ast.Attribute) and func.attr == "call" \
                    and isinstance(func.value, ast.Name) and func.value.id == "r":
                func, args = args[0], args[1:]
                keywords = [k for k in keywords if k.arg != "timer"]
            name = _gk_name(func)
            if name is not None:
                calls.append((f"{f}:{node.lineno}", name, args, keywords))
    return calls


@pytest.mark.parametrize("where, name, args, keywords", [
    pytest.param(*c, id=f"{c[0]}-{c[1]}") for c in _bench_calls()])
def test_benchmark_call_binds(where, name, args, keywords):
    module, attr = name.split(".")
    fn = getattr(importlib.import_module(f"gyrokit.{module}"), attr)
    assert not any(isinstance(a, ast.Starred) for a in args), where
    assert all(k.arg is not None for k in keywords), where  # no **kwargs
    inspect.signature(fn).bind(*args, **{k.arg: k for k in keywords})


@pytest.mark.parametrize("name", sorted(_called() | _traced()))
def test_benchmark_name_is_public(name):
    module, *path = name.split(".")
    obj = importlib.import_module(f"gyrokit.{module}")
    for attr in path:
        assert not attr.startswith("_"), name
        assert hasattr(obj, attr), name
        obj = getattr(obj, attr)


def test_benchmark_names_are_found():
    # the patterns above still match the files they read
    assert "finite.validate_gyrogroup" in _called()
    assert "ball.BallGyrogroup.oplus" in _traced()
    bound = {name for _, name, _, _ in _bench_calls()}
    assert {"ball.check_ball_laws", "ball.BallGyrogroup",
            "actions.validate_action"} <= bound


def test_traced_run_wraps_every_traced_metric():
    # a traced run imports gyrokit as its set-ups do, drops and imports it
    # again, then wraps functions with tracing.install; a name that install
    # does not wrap stops the run, so each must be among the wrapped ones
    script = ("import json, child, tracing\n"
              "child.import_gyrokit()\n"
              "child.import_gyrokit()\n"
              "tracer = tracing.Tracer()\n"
              "tracing.install(tracer)\n"
              "print(json.dumps(sorted(tracer.names)))\n")
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=BENCH, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    names = set(json.loads(proc.stdout.splitlines()[-1]))
    assert _traced() <= names, sorted(_traced() - names)
