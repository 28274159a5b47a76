"""The names the benchmark reads from gyrokit stay public attributes.

``perfbench/*.py`` calls ``gk.<module>.<name>``, and a traced run
(``--trace 1``) stops with "per-layer metric ... is not measured" when a
function behind one of ``BENCHMARK.json``'s ``.calls`` or ``.self_s``
metrics, ``<layer>.<name>[.<method>]``, is gone.  This test only reads
those files.
"""

import importlib
import json
import os
import re

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
