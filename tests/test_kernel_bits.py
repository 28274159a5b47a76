"""The ball kernels' outputs, pinned bit for bit.

Each case hashes the bytes of one output of ``oplus``, ``oinv``,
``gyration``, ``distance`` or ``contains``, or the residuals and the
worst-case witnesses of one sampled law suite, and compares the first 16
hex digits of the sha256 with ``tests/data/kernel_bits.json``.  Any rewrite
of a kernel that reorders or regroups one rounded operation changes a
digest here, so a change meant to leave the arithmetic alone can be checked
against the file as it stands.

The inputs of the kernel cases are built from normals and uniforms by
products, sums, quotients and square roots only, which IEEE arithmetic
rounds the same on every machine.  The law suites draw through
``sample_batch``, whose radii take a power, as the golden CLI reports do.

``python tests/test_kernel_bits.py`` rewrites the data file from the
current code; do that only for an intended change of the arithmetic.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from gyrokit import BallGyrogroup, PairGyrogroup, core
from gyrokit.pairs import PairElement

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                    "kernel_bits.json")
VARIANTS = ("mobius", "einstein")
DIMS = (1, 2, 3, 5, 9)
BATCH = 1000
SUITE_COUNTS = (1, 7, 50_000, 100_003)
SUITE_SEED = 7


def _canonical(x):
    """A text that tells apart any two values of a kernel output or a law
    suite's report, bit for bit."""
    if isinstance(x, PairElement):
        return "pair(" + _canonical(x.u) + "," + _canonical(x.r) + ")"
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(_canonical(v) for v in x) + ")"
    if isinstance(x, dict):
        return "{" + ",".join(f"{k}:{_canonical(x[k])}" for k in sorted(x)) + "}"
    if x is None or isinstance(x, (bool, int, str)):
        return repr(x)
    if isinstance(x, float):
        return x.hex()
    a = np.asarray(x)
    return f"{a.dtype.str}{a.shape}{np.ascontiguousarray(a).tobytes().hex()}"


def _digest(x):
    return hashlib.sha256(_canonical(x).encode()).hexdigest()[:16]


def _directions(rng, count, dim):
    """``count`` unit vectors: normals divided by their norm, summed
    coordinate by coordinate."""
    g = rng.standard_normal((count, dim))
    norm2 = g[:, 0] * g[:, 0]
    for i in range(1, dim):
        norm2 += g[:, i] * g[:, i]
    return g / np.sqrt(norm2)[:, None]


def _points(rng, count, dim, radius):
    """``count`` points of norm below ``radius``."""
    return _directions(rng, count, dim) * (radius * rng.random(count))[:, None]


def _kernel_cases(variant, dim):
    """{case name: output} for every kernel on a single point, on batches,
    on a point broadcast against a batch in each slot, and on near-opposite
    points by the boundary, where the denominators cancel most."""
    ball = BallGyrogroup(dim=dim, variant=variant)
    rng = np.random.default_rng([dim, len(variant)])
    xs = [_points(rng, BATCH, dim, 0.99) for _ in range(3)]
    edge = _directions(rng, BATCH, dim) * (0.9999 + 9e-5 * rng.random(BATCH))[:, None]
    near = [edge, -edge + _points(rng, BATCH, dim, 1e-7), xs[2]]
    wide = _points(rng, BATCH, dim, 1.5)
    ops = {"oplus": (ball.oplus, 2), "oinv": (ball.oinv, 1),
           "gyration": (ball.gyration, 3), "distance": (ball.distance, 2),
           "contains": (ball.contains, 1)}
    out = {}
    for name, (op, arity) in ops.items():
        out[f"{name}/point"] = op(*(x[3] for x in xs[:arity]))
        out[f"{name}/batch"] = op(*xs[:arity])
        out[f"{name}/near"] = op(*near[:arity])
        for slot in range(arity if arity > 1 else 0):
            args = list(xs[:arity])
            args[slot] = args[slot][5]
            out[f"{name}/broadcast{slot}"] = op(*args)
    out["contains/wide"] = ball.contains(wide)
    out["distance/wide"] = ball.distance(wide, xs[0])
    return out


def _suite_cases(carrier):
    """{case name: digest} of the sampled law suite at each count."""
    out = {}
    for count in SUITE_COUNTS:
        residuals, worst_at = core.sampled_law_residuals(carrier, count, SUITE_SEED)
        out[f"{count}/residuals"] = _digest(residuals)
        out[f"{count}/worst_at"] = _digest(worst_at)
    return out


def _carriers():
    for variant in VARIANTS:
        for dim in DIMS:
            yield f"ball/{variant}/{dim}", BallGyrogroup(dim=dim, variant=variant)
        yield f"pairs/{variant}", PairGyrogroup(m=6, variant=variant)


def compute():
    """The digests of every case, as the data file holds them."""
    kernels = {f"{variant}/{dim}/{case}": _digest(value)
               for variant in VARIANTS for dim in DIMS
               for case, value in _kernel_cases(variant, dim).items()}
    suites = {f"{name}/{case}": digest for name, carrier in _carriers()
              for case, digest in _suite_cases(carrier).items()}
    return {"kernels": kernels, "suites": suites}


def _pinned():
    with open(DATA) as f:
        return json.load(f)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("dim", DIMS)
def test_kernel_outputs_are_pinned(variant, dim):
    pinned = _pinned()["kernels"]
    got = {f"{variant}/{dim}/{case}": _digest(value)
           for case, value in _kernel_cases(variant, dim).items()}
    assert len(got) == 24
    assert {k: pinned.get(k) for k in got} == got


@pytest.mark.parametrize("name, carrier", list(_carriers()),
                         ids=[name for name, _ in _carriers()])
def test_law_suites_are_pinned(name, carrier):
    pinned = _pinned()["suites"]
    got = {f"{name}/{case}": digest
           for case, digest in _suite_cases(carrier).items()}
    assert {k: pinned.get(k) for k in got} == got


def test_pinned_file_holds_exactly_the_cases():
    pinned = _pinned()
    assert len(pinned["kernels"]) == 24 * len(VARIANTS) * len(DIMS)
    assert len(pinned["suites"]) == 2 * len(SUITE_COUNTS) * (len(DIMS) + 1) * 2


if __name__ == "__main__":
    with open(DATA, "w") as f:
        json.dump(compute(), f, indent=1, sort_keys=True)
        f.write("\n")
