"""Command-line surface: ingestion, validation, analysis, reporting.

Exit codes: 0 success, 1 validation or analysis failure (with witnesses),
2 usage or parse errors.  ``--report json`` emits a machine-readable report
whose checks are ``core.Check`` records, written with their stable keys
(check, status, witness, seed, samples, tolerance); identical inputs and
seeds produce byte-identical JSON.  Stochastic subcommands require an
explicit --seed.  A reader that closes the output early (``| head``) ends
the command quietly, with the exit code it would otherwise have had.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .actions import (burnside_count, check_orbit_stabilizer, classify,
                      orbit_decomposition_equation, parse_action_table,
                      validate_action)
from .ball import SAMPLE_MAX_NORM, BallGyrogroup, lorentz_gamma
from .core import Check, GyroError, ValidationError, sampled_law_residuals
from .coset_actions import (build_coset_action, coset_criterion,
                            coset_criterion_sampled)
from .equivalence import match_components
from .finite import (SUBGROUP_ENUM_CAP, TableFormatError,
                     enumerate_subgyrogroups, is_l_subgyrogroup, left_cosets,
                     parse_cayley_table, validate_gyrogroup)
from .pairs import PairGyrogroup, rotation_quotient_gset

LAW_TOL = 1e-9

USAGE_ERROR = 2
ANALYSIS_ERROR = 1


class _Failure(Exception):
    """Ends a command with exit code ``code``: a usage or parse error (2,
    status "error") or an analysis failure (1, status "fail")."""

    def __init__(self, code, command, checks):
        self.code = code
        self.report = {"command": command,
                       "status": "error" if code == USAGE_ERROR else "fail",
                       "checks": checks}


def _report(command, checks, **extra):
    """A finished command's report; it fails when one of its checks fails."""
    passed = all(c.passed for c in checks)
    return {"command": command, "status": "pass" if passed else "fail",
            "checks": checks, **extra}


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
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _Failure(USAGE_ERROR, "io",
                       [Check("read_file", False, (str(exc),))])


def _load_carrier(path, command):
    text = _read(path)
    try:
        table = parse_cayley_table(text)
    except TableFormatError as exc:
        raise _Failure(USAGE_ERROR, command,
                       [Check("parse_table", False, (str(exc),))])
    try:
        return validate_gyrogroup(table)
    except ValidationError as exc:
        raise _Failure(ANALYSIS_ERROR, command, exc.diagnostics)


def _load_action(path, carrier, command):
    text = _read(path)
    try:
        n, k, table = parse_action_table(text)
    except TableFormatError as exc:
        raise _Failure(USAGE_ERROR, command,
                       [Check("parse_action", False, (str(exc),))])
    if n != carrier.order:
        raise _Failure(USAGE_ERROR, command,
                       [Check("action_shape", False, (n, carrier.order))])
    try:
        return validate_action(carrier, table)
    except ValidationError as exc:
        raise _Failure(ANALYSIS_ERROR, command, exc.diagnostics)


def _parse_subset(text):
    try:
        return sorted({int(p) for p in text.split(",") if p.strip() != ""})
    except ValueError:
        raise _Failure(USAGE_ERROR, "subset",
                       [Check("parse_subset", False, (text,))])


def _parse_vector(text, dim):
    parts = text.replace(",", " ").split()
    try:
        if len(parts) == dim:
            return np.array([float(p) for p in parts])
    except ValueError:
        pass
    raise _Failure(USAGE_ERROR, "ball",
                   [Check("parse_vector", False, (text, dim))])


def cmd_validate(args):
    g = _load_carrier(args.table, "validate")
    kind = "degenerate (all gyrations identity)" if g.is_degenerate() \
        else "nondegenerate"
    return _report("validate", [Check("gyrogroup_axioms", True,
                                      detail={"detail": kind,
                                              "order": g.order})])


def cmd_gyr(args):
    g = _load_carrier(args.table, "gyr")
    n = g.order
    if not (0 <= args.a < n and 0 <= args.b < n):
        raise _Failure(USAGE_ERROR, "gyr",
                       [Check("element_range", False, (args.a, args.b))])
    perm = [int(v) for v in g.gyr_perm(args.a, args.b)]
    checks = [Check("gyration", True, detail={
        "value": perm,
        "detail": f"gyr[{args.a},{args.b}] as one-line permutation"})]
    if args.c is not None:
        if not 0 <= args.c < n:
            raise _Failure(USAGE_ERROR, "gyr",
                           [Check("element_range", False, (args.c,))])
        checks.append(Check("gyration_value", True, detail={
            "value": perm[args.c],
            "detail": f"gyr[{args.a},{args.b}]{args.c}"}))
    return _report("gyr", checks)


def cmd_subgyro(args):
    g = _load_carrier(args.table, "subgyro")
    try:
        subs = enumerate_subgyrogroups(g, cap=args.cap)
    except GyroError as exc:
        raise _Failure(USAGE_ERROR, "subgyro",
                       [Check("enumeration_cap", False, (str(exc),))])
    checks = [Check("subgyrogroup", True, detail={
        "value": list(h),
        "detail": {"order": len(h), "l_subgyrogroup": is_l_subgyrogroup(g, h),
                   "coset_criterion": coset_criterion(g, h).passed}})
        for h in subs]
    return _report("subgyro", checks, count=len(subs))


def cmd_cosets(args):
    g = _load_carrier(args.table, "cosets")
    members = _parse_subset(args.subset)
    try:
        part = left_cosets(g, members)
    except ValueError as exc:
        raise _Failure(ANALYSIS_ERROR, "cosets",
                       [Check("subgyrogroup", False, (str(exc),))])
    return _report("cosets", [Check(
        "left_cosets", part.is_partition,
        None if part.is_partition else [list(w) for w in part.overlaps],
        detail={"value": [list(c) for c in part.cosets], "detail": {
            "index": part.index,
            "representatives": list(part.representatives),
            "l_subgyrogroup": is_l_subgyrogroup(g, members),
            "index_formula": part.index_formula_holds(g.order)}})])


def cmd_act(args):
    g = _load_carrier(args.table, "act")
    gset = _load_action(args.action, g, "act")
    dec = gset.decomposition
    return _report("act", [
        Check("action_axioms", True),
        Check("orbits", True, detail={"value": [list(o) for o in dec.orbits]}),
        Check("stabilizer_orders", True,
              detail={"value": [len(s) for s in dec.stabilizers]}),
        Check("fixed_points", True, detail={"value": list(dec.fixed_points)}),
        check_orbit_stabilizer(gset),
        orbit_decomposition_equation(gset)])


def cmd_burnside(args):
    g = _load_carrier(args.table, "burnside")
    gset = _load_action(args.action, g, "burnside")
    dec = gset.decomposition
    count = burnside_count(gset)
    fix_sizes = [len(f) for f in dec.fixed_by]
    return _report("burnside", [
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
    g = _load_carrier(args.table, "classify")
    gset = _load_action(args.action, g, "classify")
    return _report("classify", [Check("classification", True, detail={
        "value": classify(gset).as_dict()})])


def cmd_coset_action(args):
    g = _load_carrier(args.table, "coset-action")
    members = _parse_subset(args.subset)
    try:
        report = coset_criterion(g, members)
    except ValueError as exc:
        raise _Failure(ANALYSIS_ERROR, "coset-action",
                       [Check("subgyrogroup", False, (str(exc),))])
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
    return _report("coset-action", checks)


def cmd_equiv(args):
    g = _load_carrier(args.table, "equiv")
    x = _load_action(args.action1, g, "equiv")
    y = _load_action(args.action2, g, "equiv")
    result = match_components(x, y)
    return _report("equiv", [Check(
        "equivalence", result.equivalent, result.unmatched,
        detail={"value": None if result.mapping is None
                else list(result.mapping.mapping),
                "detail": result.message,
                "pairs": [list(p) for p in result.pairs]})])


def _plain(x):
    """A sampled element as JSON: ball coordinates as a list, a pair as
    [coordinates, rotation index]."""
    return x.tolist() if hasattr(x, "tolist") else [_plain(p) for p in x]


def _law_checks(command, carrier, args):
    """Run the sampled law suite; returns one Check per residual.  A failing
    law's witness is [i, a, b, c]: its worst triple and that triple's index
    in the draw.  A sample count the suite rejects is a usage error."""
    try:
        residuals, worst_at = sampled_law_residuals(
            carrier, args.samples, args.seed, SAMPLE_MAX_NORM)
    except ValueError as exc:
        raise _Failure(USAGE_ERROR, command,
                       [Check("usage", False, (str(exc),))])
    checks = []
    for name, value in sorted(residuals.items()):
        if name == "closure":
            checks.append(Check("closure", value, seed=args.seed,
                                samples=args.samples))
        elif name not in ("samples", "seed"):
            passed = value <= LAW_TOL
            i, *triple = worst_at[name]
            checks.append(Check(
                name, passed,
                None if passed else [i] + [_plain(x) for x in triple],
                args.seed, args.samples, LAW_TOL, {"worst": value}))
    return checks


def cmd_ball(args):
    try:
        carrier = BallGyrogroup(dim=args.dim, variant=args.variant,
                                eps=args.eps)
        if (args.u is None) != (args.v is None):
            raise ValueError("--u and --v must be given together")
        if args.u is None and args.seed is None:
            raise ValueError("--seed is required for sampling")
    except ValueError as exc:
        raise _Failure(USAGE_ERROR, "ball",
                       [Check("usage", False, (str(exc),))])
    if args.u is None:
        return _report("ball", _law_checks("ball", carrier, args))
    u = carrier.element(_parse_vector(args.u, args.dim))
    v = carrier.element(_parse_vector(args.v, args.dim))
    return _report("ball", [
        Check("addition", True, detail={
            "value": [float(c) for c in carrier.oplus(u, v)],
            "detail": f"{args.variant} sum"}),
        Check("lorentz_gamma", True, detail={
            "value": float(lorentz_gamma(u)),
            "detail": "gamma of the first argument"})])


def cmd_pairs(args):
    try:
        carrier = PairGyrogroup(m=args.m, variant=args.variant)
    except ValueError as exc:
        raise _Failure(USAGE_ERROR, "pairs",
                       [Check("usage", False, (str(exc),))])
    checks = _law_checks("pairs", carrier, args)
    crit = coset_criterion_sampled(carrier, carrier.in_hat, carrier.sample_hat,
                                   args.samples, args.seed)
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
    return _report("pairs", checks)


def build_parser():
    p = argparse.ArgumentParser(
        prog="gyrokit",
        description="Gyrogroup and gyrogroup-action toolkit")
    p.add_argument("--version", action="version", version=__version__)
    p.add_argument("--report", choices=("text", "json"), default="text")
    subparsers = p.add_subparsers(dest="command", required=True)

    class sub:
        # --report is accepted both before and after the subcommand;
        # SUPPRESS keeps the global value when the trailing flag is absent
        @staticmethod
        def add_parser(name, **kw):
            s = subparsers.add_parser(name, **kw)
            s.add_argument("--report", choices=("text", "json"),
                           default=argparse.SUPPRESS)
            return s

    s = sub.add_parser("validate", help="certify a Cayley table")
    s.add_argument("table")
    s.set_defaults(func=cmd_validate)

    s = sub.add_parser("gyr", help="evaluate a gyration")
    s.add_argument("table")
    s.add_argument("-a", type=int, required=True)
    s.add_argument("-b", type=int, required=True)
    s.add_argument("-c", type=int, default=None)
    s.set_defaults(func=cmd_gyr)

    s = sub.add_parser("subgyro", help="enumerate subgyrogroups")
    s.add_argument("table")
    s.add_argument("--cap", type=int, default=SUBGROUP_ENUM_CAP)
    s.set_defaults(func=cmd_subgyro)

    s = sub.add_parser("cosets", help="left cosets of a subgyrogroup")
    s.add_argument("table")
    s.add_argument("--subset", required=True)
    s.set_defaults(func=cmd_cosets)

    s = sub.add_parser("act", help="validate and analyse an action table")
    s.add_argument("table")
    s.add_argument("action")
    s.set_defaults(func=cmd_act)

    s = sub.add_parser("burnside", help="orbit count by double counting")
    s.add_argument("table")
    s.add_argument("action")
    s.set_defaults(func=cmd_burnside)

    s = sub.add_parser("classify", help="action type flags")
    s.add_argument("table")
    s.add_argument("action")
    s.set_defaults(func=cmd_classify)

    s = sub.add_parser("coset-action",
                       help="criterion and construction for G/H")
    s.add_argument("table")
    s.add_argument("--subset", required=True)
    s.add_argument("--build", action="store_true")
    s.set_defaults(func=cmd_coset_action)

    s = sub.add_parser("equiv", help="decide equivalence of two G-sets")
    s.add_argument("action1")
    s.add_argument("action2")
    s.add_argument("--table", required=True)
    s.set_defaults(func=cmd_equiv)

    s = sub.add_parser("ball", help="ball carrier: evaluate or law suite")
    s.add_argument("--dim", type=int, default=2)
    s.add_argument("--variant", choices=("mobius", "einstein"),
                   default="mobius")
    s.add_argument("--eps", type=float, default=1e-9)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--samples", type=int, default=1000)
    s.add_argument("--u", default=None)
    s.add_argument("--v", default=None)
    s.set_defaults(func=cmd_ball)

    s = sub.add_parser("pairs", help="pair carrier law suite")
    s.add_argument("--m", type=int, default=6)
    s.add_argument("--variant", choices=("mobius", "einstein"),
                   default="mobius")
    s.add_argument("--samples", type=int, default=10000)
    s.add_argument("--seed", type=int, required=True)
    s.set_defaults(func=cmd_pairs)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        report = args.func(args)
        code = ANALYSIS_ERROR if report["status"] == "fail" else 0
    except _Failure as f:
        report, code = f.report, f.code
    except GyroError as exc:
        f = _Failure(ANALYSIS_ERROR, args.command,
                     [Check("error", False, (str(exc),))])
        report, code = f.report, f.code
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
