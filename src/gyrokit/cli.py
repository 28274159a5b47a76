"""Command-line surface: ingestion, validation, analysis, reporting.

Exit codes: 0 success, 1 validation or analysis failure (with witnesses),
2 usage or parse errors.  ``--report json`` emits a machine-readable report
whose checks are ``core.Check`` records, written with their stable keys
(check, status, witness, seed, samples, tolerance); identical inputs and
seeds produce byte-identical JSON.  Stochastic subcommands require an
explicit --seed.  A reader that closes the output early (``| head``) ends
the command quietly, with the exit code it would otherwise have had.
The argument parser is built once per process, on the first ``main`` call,
and reused by every later call.
"""

import argparse
import functools
import json
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import __version__
from .actions import (burnside_count, check_orbit_stabilizer, classify,
                      orbit_decomposition_equation, parse_action_table,
                      validate_action)
from .ball import BallGyrogroup, lorentz_gamma
from .core import Check, GyroError, ValidationError, sampled_law_residuals
from .coset_actions import (build_coset_action, coset_criterion,
                            coset_criterion_sampled)
from .equivalence import match_components
from .finite import (SUBGROUP_ENUM_CAP, TableFormatError,
                     enumerate_subgyrogroups, is_l_subgyrogroup, left_cosets,
                     parse_cayley_table, validate_gyrogroup)
from .pairs import PairGyrogroup, rotation_quotient_gset

USAGE_ERROR = 2
ANALYSIS_ERROR = 1


class _Failure(Exception):
    """Ends a command with exit code ``code``: a usage or parse error (2,
    status "error") or an analysis failure (1, status "fail")."""

    def __init__(self, code, checks):
        self.code = code
        self.report = {"status": "error" if code == USAGE_ERROR else "fail",
                       "checks": checks}


@contextmanager
def _failing(code, check, *errors):
    """Ends the command with exit code ``code`` when the block raises one
    of ``errors``: the failed Check ``check``, witnessed by the error's
    message."""
    try:
        yield
    except errors as exc:
        raise _Failure(code, [Check(check, False, (str(exc),))])


def _report(checks, **extra):
    """A finished command's report; it fails when one of its checks fails.
    ``main`` adds the command's name."""
    passed = all(c.passed for c in checks)
    return {"status": "pass" if passed else "fail", "checks": checks, **extra}


def _emit(report, mode, stream):
    """Write a report; its Checks are serialized here and nowhere else."""
    report = report | {"checks": [c.as_dict() for c in report["checks"]]}
    if mode == "json":
        stream.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
        return
    stream.write(f"{report['command']}: {report['status']}\n")
    for c in report["checks"]:
        line = f"  {c['check']}: {c['status']}"
        extras = []
        for key in ("witness", "seed", "samples", "tolerance", "worst",
                    "value", "detail"):
            if c.get(key) is not None:
                extras.append(f"{key}={c[key]}")
        if extras:
            line += "  (" + ", ".join(extras) + ")"
        stream.write(line + "\n")


def _read(path):
    with _failing(USAGE_ERROR, "read_file", OSError), \
            open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_carrier(path):
    text = _read(path)
    with _failing(USAGE_ERROR, "parse_table", TableFormatError):
        table = parse_cayley_table(text)
    try:
        return validate_gyrogroup(table)
    except ValidationError as exc:
        raise _Failure(ANALYSIS_ERROR, exc.diagnostics)


def _load_action(path, carrier):
    text = _read(path)
    with _failing(USAGE_ERROR, "parse_action", TableFormatError):
        n, k, table = parse_action_table(text)
    if n != carrier.order:
        raise _Failure(USAGE_ERROR,
                       [Check("action_shape", False, (n, carrier.order))])
    try:
        return validate_action(carrier, table)
    except ValidationError as exc:
        raise _Failure(ANALYSIS_ERROR, exc.diagnostics)


def _parse_subset(text):
    try:
        return sorted({int(p) for p in text.split(",") if p.strip() != ""})
    except ValueError:
        raise _Failure(USAGE_ERROR, [Check("parse_subset", False, (text,))])


def _parse_vector(text, dim):
    parts = text.replace(",", " ").split()
    try:
        if len(parts) == dim:
            return np.array([float(p) for p in parts])
    except ValueError:
        pass
    raise _Failure(USAGE_ERROR, [Check("parse_vector", False, (text, dim))])


def cmd_validate(args):
    g = _load_carrier(args.table)
    kind = "degenerate (all gyrations identity)" if g.is_degenerate() \
        else "nondegenerate"
    return _report([Check("gyrogroup_axioms", True,
                          detail={"detail": kind, "order": g.order})])


def cmd_gyr(args):
    g = _load_carrier(args.table)
    n = g.order
    if not (0 <= args.a < n and 0 <= args.b < n):
        raise _Failure(USAGE_ERROR,
                       [Check("element_range", False, (args.a, args.b))])
    perm = [int(v) for v in g.gyr_perm(args.a, args.b)]
    checks = [Check("gyration", True, detail={
        "value": perm,
        "detail": f"gyr[{args.a},{args.b}] as one-line permutation"})]
    if args.c is not None:
        if not 0 <= args.c < n:
            raise _Failure(USAGE_ERROR,
                           [Check("element_range", False, (args.c,))])
        checks.append(Check("gyration_value", True, detail={
            "value": perm[args.c],
            "detail": f"gyr[{args.a},{args.b}]{args.c}"}))
    return _report(checks)


def cmd_subgyro(args):
    g = _load_carrier(args.table)
    with _failing(USAGE_ERROR, "enumeration_cap", GyroError):
        subs = enumerate_subgyrogroups(g, cap=args.cap)
    checks = [Check("subgyrogroup", True, detail={
        "value": list(h),
        "detail": {"order": len(h), "l_subgyrogroup": is_l_subgyrogroup(g, h),
                   "coset_criterion": coset_criterion(g, h).passed}})
        for h in subs]
    return _report(checks, count=len(subs))


def cmd_cosets(args):
    g = _load_carrier(args.table)
    members = _parse_subset(args.subset)
    with _failing(ANALYSIS_ERROR, "subgyrogroup", ValueError):
        part = left_cosets(g, members)
    return _report([Check(
        "left_cosets", part.is_partition,
        None if part.is_partition else [list(w) for w in part.overlaps],
        detail={"value": [list(c) for c in part.cosets], "detail": {
            "index": part.index,
            "representatives": list(part.representatives),
            "l_subgyrogroup": is_l_subgyrogroup(g, members),
            "index_formula": part.index_formula_holds(g.order)}})])


def cmd_act(args):
    g = _load_carrier(args.table)
    gset = _load_action(args.action, g)
    dec = gset.decomposition
    return _report([
        Check("action_axioms", True),
        Check("orbits", True, detail={"value": [list(o) for o in dec.orbits]}),
        Check("stabilizer_orders", True,
              detail={"value": [len(s) for s in dec.stabilizers]}),
        Check("fixed_points", True, detail={"value": list(dec.fixed_points)}),
        check_orbit_stabilizer(gset),
        orbit_decomposition_equation(gset)])


def cmd_burnside(args):
    g = _load_carrier(args.table)
    gset = _load_action(args.action, g)
    dec = gset.decomposition
    count = burnside_count(gset)
    fix_sizes = [len(f) for f in dec.fixed_by]
    return _report([
        Check("fix_sizes", True, detail={
            "value": fix_sizes,
            "detail": "per-element |fix(a)| used in double counting"}),
        Check("burnside_count", True, detail={
            "value": {"numerator": count.numerator,
                      "denominator": count.denominator,
                      "orbits": len(dec.orbits)},
            "detail": f"({'+'.join(map(str, fix_sizes))})/{g.order} "
                      f"= {count} orbit(s)"})])


def cmd_classify(args):
    g = _load_carrier(args.table)
    gset = _load_action(args.action, g)
    return _report([Check("classification", True, detail={
        "value": classify(gset).as_dict()})])


def cmd_coset_action(args):
    g = _load_carrier(args.table)
    members = _parse_subset(args.subset)
    with _failing(ANALYSIS_ERROR, "subgyrogroup", ValueError):
        report = coset_criterion(g, members)
    checks = [report.as_check()]
    if args.build and report.passed:
        gset = build_coset_action(g, members, criterion=report)
        checks.append(Check("coset_action", True, detail={
            "value": [[int(v) for v in row] for row in gset.table],
            "detail": {"points": gset.points,
                       "representatives": list(gset.point_labels),
                       "classification": classify(gset).as_dict(),
                       "index_formula":
                           g.order == gset.points * len(members)}}))
    return _report(checks)


def cmd_equiv(args):
    g = _load_carrier(args.table)
    x = _load_action(args.action1, g)
    y = _load_action(args.action2, g)
    result = match_components(x, y)
    return _report([Check(
        "equivalence", result.equivalent, result.unmatched,
        detail={"value": None if result.mapping is None
                else list(result.mapping.mapping),
                "detail": result.message,
                "pairs": [list(p) for p in result.pairs]})])


def _plain(x):
    """A sampled element as JSON: ball coordinates as a list, a pair as
    [coordinates, rotation index]."""
    return x.tolist() if hasattr(x, "tolist") else [_plain(p) for p in x]


def _law_checks(carrier, args):
    """Run the sampled law suite; returns one Check per residual.  A failing
    law's witness is [i, a, b, c]: its worst triple and that triple's index
    in the draw; a failing closure's is the first triple with a sum outside
    the domain.  A sample count the suite rejects is a usage error."""
    with _failing(USAGE_ERROR, "usage", ValueError):
        residuals, worst_at = sampled_law_residuals(
            carrier, args.samples, args.seed)

    def witness(name, passed):
        if passed:
            return None
        i, *triple = worst_at[name]
        return [i] + [_plain(x) for x in triple]

    checks = []
    for name, value in sorted(residuals.items()):
        if name == "closure":
            checks.append(Check("closure", value, witness(name, value),
                                seed=args.seed, samples=args.samples))
        elif name not in ("samples", "seed"):
            passed = value <= carrier.eps
            checks.append(Check(name, passed, witness(name, passed), args.seed,
                                args.samples, carrier.eps, {"worst": value}))
    return checks


def cmd_ball(args):
    with _failing(USAGE_ERROR, "usage", ValueError):
        carrier = BallGyrogroup(dim=args.dim, variant=args.variant)
        if (args.u is None) != (args.v is None):
            raise ValueError("--u and --v must be given together")
        if args.u is None and args.seed is None:
            raise ValueError("--seed is required for sampling")
    if args.u is None:
        return _report(_law_checks(carrier, args))
    u = carrier.element(_parse_vector(args.u, args.dim))
    v = carrier.element(_parse_vector(args.v, args.dim))
    return _report([
        Check("addition", True, detail={
            "value": [float(c) for c in carrier.oplus(u, v)],
            "detail": f"{args.variant} sum"}),
        Check("lorentz_gamma", True, detail={
            "value": float(lorentz_gamma(u)),
            "detail": "gamma of the first argument"})])


def cmd_pairs(args):
    with _failing(USAGE_ERROR, "usage", ValueError):
        carrier = PairGyrogroup(m=args.m, variant=args.variant)
    checks = _law_checks(carrier, args)
    crit = coset_criterion_sampled(carrier, carrier.hat, args.samples,
                                   args.seed)
    checks.append(Check("hat_coset_criterion", crit.passed, seed=args.seed,
                        samples=args.samples))
    # one representative (0, k) per rotation index k
    count = len({int(carrier.hat_coset_index(carrier.element([0.0, 0.0], k)))
                 for k in range(args.m)})
    checks.append(Check("coset_count", count == args.m, seed=args.seed,
                        samples=args.samples,
                        detail={"value": count,
                                "detail": f"{args.m} cosets expected"}))
    flags = classify(rotation_quotient_gset(carrier))
    checks.append(Check("coset_action_transitive", flags.transitive, detail={
        "detail": "rotation quotient acting on cosets"}))
    checks.append(Check("coset_action_regular", flags.sharply_transitive))
    return _report(checks)


def build_parser():
    p = argparse.ArgumentParser(
        prog="gyrokit",
        description="Gyrogroup and gyrogroup-action toolkit")
    p.add_argument("--version", action="version", version=__version__)
    p.add_argument("--report", choices=("text", "json"), default="text")
    subparsers = p.add_subparsers(dest="command", required=True)
    # --report is accepted both before and after the subcommand; SUPPRESS
    # keeps the global value when the trailing flag is absent
    trailing = argparse.ArgumentParser(add_help=False)
    trailing.add_argument("--report", choices=("text", "json"),
                          default=argparse.SUPPRESS)
    sub = functools.partial(subparsers.add_parser, parents=[trailing])

    s = sub("validate", help="certify a Cayley table")
    s.add_argument("table")
    s.set_defaults(func=cmd_validate)

    s = sub("gyr", help="evaluate a gyration")
    s.add_argument("table")
    s.add_argument("-a", type=int, required=True)
    s.add_argument("-b", type=int, required=True)
    s.add_argument("-c", type=int, default=None)
    s.set_defaults(func=cmd_gyr)

    s = sub("subgyro", help="enumerate subgyrogroups")
    s.add_argument("table")
    s.add_argument("--cap", type=int, default=SUBGROUP_ENUM_CAP)
    s.set_defaults(func=cmd_subgyro)

    s = sub("cosets", help="left cosets of a subgyrogroup")
    s.add_argument("table")
    s.add_argument("--subset", required=True)
    s.set_defaults(func=cmd_cosets)

    s = sub("act", help="validate and analyse an action table")
    s.add_argument("table")
    s.add_argument("action")
    s.set_defaults(func=cmd_act)

    s = sub("burnside", help="orbit count by double counting")
    s.add_argument("table")
    s.add_argument("action")
    s.set_defaults(func=cmd_burnside)

    s = sub("classify", help="action type flags")
    s.add_argument("table")
    s.add_argument("action")
    s.set_defaults(func=cmd_classify)

    s = sub("coset-action", help="criterion and construction for G/H")
    s.add_argument("table")
    s.add_argument("--subset", required=True)
    s.add_argument("--build", action="store_true")
    s.set_defaults(func=cmd_coset_action)

    s = sub("equiv", help="decide equivalence of two G-sets")
    s.add_argument("action1")
    s.add_argument("action2")
    s.add_argument("--table", required=True)
    s.set_defaults(func=cmd_equiv)

    s = sub("ball", help="ball carrier: evaluate or law suite")
    s.add_argument("--dim", type=int, default=2)
    s.add_argument("--variant", choices=("mobius", "einstein"),
                   default="mobius")
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--samples", type=int, default=1000)
    s.add_argument("--u", default=None)
    s.add_argument("--v", default=None)
    s.set_defaults(func=cmd_ball)

    s = sub("pairs", help="pair carrier law suite")
    s.add_argument("--m", type=int, default=6)
    s.add_argument("--variant", choices=("mobius", "einstein"),
                   default="mobius")
    s.add_argument("--samples", type=int, default=10000)
    s.add_argument("--seed", type=int, required=True)
    s.set_defaults(func=cmd_pairs)
    return p


@functools.cache
def _parser():
    """The parser of ``main``, built on first use; parsing leaves it as it
    was, so one serves every call."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        with _failing(ANALYSIS_ERROR, "error", GyroError):
            report = args.func(args)
        code = ANALYSIS_ERROR if report["status"] == "fail" else 0
    except _Failure as f:
        report, code = f.report, f.code
    report = {"command": args.command} | report
    stream = sys.stderr if code == USAGE_ERROR else sys.stdout
    try:
        _emit(report, args.report, stream)
        stream.flush()
    except BrokenPipeError:
        # the reader is gone; point the stream at devnull so that the
        # interpreter's own flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
