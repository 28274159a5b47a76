"""The twelve result records keep the behaviour they had as frozen
dataclasses, and importing gyrokit makes no code at run time.

Each record class derives from ``core.Record``.  A frozen dataclass of the
same name and fields, made here, is the oracle for equality and hashing;
the ``repr`` strings are those the dataclasses printed.
"""

import ast
import dataclasses
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from gyrokit import (ActionClassification, CayleyTable, Check, ComponentMatch,
                     CosetPartition, CriterionReport, FiniteGSet, GMap,
                     OrbitDecomposition, PairElement, Representation,
                     validate_gyrogroup)
from gyrokit.ball import GyrationMatrix
from gyrokit.catalog import cyclic

SRC = Path(__file__).resolve().parents[1] / "src"
SWAP = np.array([[0, 1], [1, 0]])
SWAP_REPR = "array([[0, 1],\n       [1, 0]])"
Z2 = "FiniteGyrogroup(order=2, degenerate)"
GSET_REPR = f"FiniteGSet(carrier={Z2}, table={SWAP_REPR}, point_labels=(0, 1))"


def _records():
    """(record, its fields in order, the repr a frozen dataclass gave it)
    for one record of each class, built from all its fields in order."""
    gset = FiniteGSet(validate_gyrogroup(cyclic(2)), SWAP, (0, 1))
    gmap = GMap(gset, gset, (0, 1))
    return [
        (Check("x", True, None, None, None, None, {}),
         ("check", "passed", "witness", "seed", "samples", "tolerance",
          "detail"),
         "Check(check='x', passed=True, witness=None, seed=None, "
         "samples=None, tolerance=None, detail={})"),
        (CayleyTable(2, SWAP, ("e", "a")), ("order", "table", "labels"),
         f"CayleyTable(order=2, table={SWAP_REPR}, labels=('e', 'a'))"),
        (CosetPartition((0,), ((0,), (1,)), (0, 1), 2, True, (), (0, 1)),
         ("subgroup", "cosets", "representatives", "index", "is_partition",
          "overlaps", "coset_of"),
         "CosetPartition(subgroup=(0,), cosets=((0,), (1,)), "
         "representatives=(0, 1), index=2, is_partition=True, overlaps=(), "
         "coset_of=(0, 1))"),
        (gset, ("carrier", "table", "point_labels"), GSET_REPR),
        (Representation(gset, SWAP, (0,)), ("gset", "perms", "kernel"),
         f"Representation(gset={GSET_REPR}, perms={SWAP_REPR}, "
         f"kernel=(0,))"),
        (OrbitDecomposition(((0, 1),), (0,), (0, 0), ((0,), (0,)), (),
                            ((0, 1), ())),
         ("orbits", "representatives", "orbit_of", "stabilizers",
          "fixed_points", "fixed_by"),
         "OrbitDecomposition(orbits=((0, 1),), representatives=(0,), "
         "orbit_of=(0, 0), stabilizers=((0,), (0,)), fixed_points=(), "
         "fixed_by=((0, 1), ()))"),
        (ActionClassification(True, True, True, True, False),
         ("faithful", "transitive", "free", "semiregular",
          "sharply_transitive"),
         "ActionClassification(faithful=True, transitive=True, free=True, "
         "semiregular=True, sharply_transitive=False)"),
        (CriterionReport(False, "sampled", True, False, None, (1, 2), 5, 7),
         ("passed", "mode", "condition_gyr_preserves_subgroup",
          "condition_translate_defect_in_subgroup", "witness1", "witness2",
          "samples", "seed"),
         "CriterionReport(passed=False, mode='sampled', "
         "condition_gyr_preserves_subgroup=True, "
         "condition_translate_defect_in_subgroup=False, witness1=None, "
         "witness2=(1, 2), samples=5, seed=7)"),
        (gmap, ("source", "target", "mapping"),
         f"GMap(source={GSET_REPR}, target={GSET_REPR}, mapping=(0, 1))"),
        (ComponentMatch(True, ((0, 0),), gmap, None, "matched"),
         ("equivalent", "pairs", "mapping", "unmatched", "message"),
         f"ComponentMatch(equivalent=True, pairs=((0, 0),), "
         f"mapping=GMap(source={GSET_REPR}, target={GSET_REPR}, "
         f"mapping=(0, 1)), unmatched=None, message='matched')"),
        (GyrationMatrix(np.eye(2), 0.0, 1e-16),
         ("matrix", "linearity_residual", "orthogonality_residual"),
         "GyrationMatrix(matrix=array([[1., 0.],\n       [0., 1.]]), "
         "linearity_residual=0.0, orthogonality_residual=1e-16)"),
        (PairElement(np.array([0.5, 0.25]), 3), ("u", "r"),
         "PairElement(u=array([0.5 , 0.25]), r=3)"),
    ]


RECORDS = [pytest.param(*r, id=type(r[0]).__name__) for r in _records()]


def _values(record, fields):
    return [getattr(record, name) for name in fields]


def _twin_class(record, fields):
    """A frozen dataclass of the record's name and fields."""
    return dataclasses.make_dataclass(type(record).__name__, fields,
                                      frozen=True)


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and text of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def test_there_are_twelve_record_classes():
    assert len({type(r) for r, _, _ in _records()}) == 12


@pytest.mark.parametrize("record, fields, text", RECORDS)
def test_records_read_as_frozen_dataclasses(record, fields, text):
    cls, twin_cls = type(record), _twin_class(record, fields)
    twin = twin_cls(*_values(record, fields))
    assert repr(record) == repr(twin) == text
    assert cls.__match_args__ == fields
    # built positionally, by keyword in order and out of order, or both:
    # CayleyTable copies its table, so comparing two of them compares
    # arrays, which raises as it did
    values = _values(record, fields)
    by_name = list(zip(fields, values))
    for again in (cls(*values), cls(**dict(by_name)),
                  cls(**dict(by_name[::-1])),
                  cls(values[0], **dict(by_name[1:][::-1]))):
        assert list(vars(again)) == list(fields)
        twin_again = twin_cls(*_values(again, fields))
        assert _outcome(record.__eq__, again) == _outcome(twin.__eq__,
                                                           twin_again)
        assert _outcome(hash, again) == _outcome(hash, twin_again)
        assert repr(again) == text
        if cls is not CayleyTable:
            assert again == record and not again != record
    assert record != twin and twin != record
    assert (record == object()) is False
    assert _outcome(hash, record) == _outcome(hash, twin)


@pytest.mark.parametrize("cls", [ActionClassification, CriterionReport])
def test_hashable_records_hash_by_their_fields(cls):
    record, fields, _ = next(r for r in _records() if type(r[0]) is cls)
    values = _values(record, fields)
    flipped = cls(not values[0], *values[1:])
    assert flipped != record
    twin = _twin_class(record, fields)(*values)
    assert hash(cls(*values)) == hash(record) == hash(twin)
    assert {record, cls(*values), flipped} == {record, flipped}


@pytest.mark.parametrize("record, fields, text", RECORDS)
def test_records_refuse_assignment_and_deletion(record, fields, text):
    for name in (fields[0], fields[-1], "new_name"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text


@pytest.mark.parametrize("record, fields, text", RECORDS)
def test_records_refuse_arguments_that_do_not_bind(record, fields, text):
    cls, values = type(record), _values(record, fields)
    for args, kwargs, named in (
            ((), {}, fields[0]),                                # missing
            (values[:1], {}, fields[1]),                        # missing
            (values, {"no_such_field": 1}, "no_such_field"),    # unknown
            (values, {fields[0]: values[0]}, fields[0]),        # repeated
            (values[:-1], {fields[-2]: values[-2]}, fields[-2]),  # repeated
            ((*values, None), {}, None)):                       # too many
        with pytest.raises(TypeError) as caught:
            cls(*args, **kwargs)
        message = str(caught.value)
        assert message.startswith(f"{cls.__qualname__}() ")
        assert named is None or repr(named) in message


def test_defaults_are_the_dataclass_defaults():
    a, b = Check("x", True), Check("y", False, (1,))
    assert repr(a) == ("Check(check='x', passed=True, witness=None, seed=None,"
                       " samples=None, tolerance=None, detail=None)")
    assert b.detail is None
    assert Check("x", True, detail=None).detail is None
    part = CosetPartition((0,), ((0,),), (0,), 1, True)
    assert (part.overlaps, part.coset_of) == ((), None)
    report = CriterionReport(True, "exhaustive", True, True)
    assert (report.witness1, report.witness2, report.samples,
            report.seed) == (None,) * 4
    assert CayleyTable(2, SWAP).labels is None


def test_a_check_without_detail_reports_the_six_stable_keys():
    assert Check("x", True).detail is None
    assert Check("x", True, detail=None).as_dict() == {
        "check": "x", "status": "pass", "witness": None, "seed": None,
        "samples": None, "tolerance": None}


def test_no_module_of_gyrokit_imports_dataclasses():
    found = []
    for f in sorted((SRC / "gyrokit").glob("*.py")):
        for node in ast.walk(ast.parse(f.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom)
                     else [])
            found += [(f.name, n) for n in names
                      if (n or "").split(".")[0] == "dataclasses"]
    assert found == []


def _fresh_interpreter(script, tmp_path):
    """The stdout of ``script`` run by a fresh interpreter that imports
    gyrokit from ``src``, with an empty bytecode cache."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPYCACHEPREFIX=str(tmp_path),
               PYTHONPATH=os.pathsep.join(
                   [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_reimporting_gyrokit_compiles_no_generated_source(tmp_path):
    # as the benchmark's set-up imports it afresh: numpy and gyrokit
    # imported once, gyrokit dropped from sys.modules and imported again;
    # an empty bytecode cache makes the package's own files compile too
    where, generated, compiled = _fresh_interpreter("""
        import importlib, sys
        import numpy
        names = ("gyrokit", "gyrokit.cli", "gyrokit.catalog")
        for name in names:
            importlib.import_module(name)
        for name in [m for m in sys.modules
                     if m == "gyrokit" or m.startswith("gyrokit.")]:
            del sys.modules[name]
        compiled = []
        sys.addaudithook(lambda event, args: event == "compile"
                         and compiled.append(args[1]))
        for name in names:
            importlib.import_module(name)
        print(sys.modules["gyrokit"].__file__)
        print(sum(filename == "<string>" for filename in compiled))
        print(len(compiled))
    """, tmp_path).split()
    generated, compiled = int(generated), int(compiled)
    assert Path(where).resolve().parent == SRC / "gyrokit"
    assert compiled > 0  # the hook saw the package's own files compiled
    assert generated == 0


def test_importing_gyrokit_loads_no_numpy_random(tmp_path):
    # numpy.random costs about 6 MB of resident memory; only a draw loads it
    by_numpy, by_import, by_draw = _fresh_interpreter("""
        import sys
        import numpy
        print("numpy.random" in sys.modules)
        import gyrokit, gyrokit.cli, gyrokit.catalog
        print("numpy.random" in sys.modules)
        from gyrokit.core import sampled_law_residuals
        sampled_law_residuals(gyrokit.BallGyrogroup(dim=2), 10, 1)
        print("numpy.random" in sys.modules)
    """, tmp_path).split()
    if by_numpy == "True":
        pytest.skip("this numpy imports numpy.random itself (before 2.0)")
    assert (by_import, by_draw) == ("False", "True")
