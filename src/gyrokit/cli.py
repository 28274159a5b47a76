"""Command-line surface: ingestion, validation, analysis, reporting.

Exit codes: 0 success, 1 validation or analysis failure (with witnesses),
2 usage or parse errors.  ``--report json`` emits a machine-readable report
with stable key names (check, status, witness, seed, samples, tolerance);
identical inputs and seeds produce byte-identical JSON.  Stochastic
subcommands require an explicit --seed.  A reader that closes the output
early (``| head``) ends the command quietly, with the exit code it would
otherwise have had.
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
from .core import (CriterionError, GyroError, ValidationError,
                   sampled_law_residuals)
from .coset_actions import build_coset_action, coset_criterion
from .equivalence import match_components
from .finite import (SUBGROUP_ENUM_CAP, TableFormatError,
                     enumerate_subgyrogroups, is_l_subgyrogroup, left_cosets,
                     parse_cayley_table, validate_gyrogroup)
from .pairs import PairGyrogroup, rotation_quotient_gset

LAW_TOL = 1e-9

USAGE_ERROR = 2
ANALYSIS_ERROR = 1


class _Failure(Exception):
    def __init__(self, code, report):
        self.code = code
        self.report = report


def _entry(check, status, witness=None, seed=None, samples=None,
           tolerance=None, **extra):
    out = {"check": check, "status": status, "witness": witness,
           "seed": seed, "samples": samples, "tolerance": tolerance}
    out.update(extra)
    return out


def _usage_failure(command, reason):
    """A usage error (exit 2) naming the rejected arguments."""
    return _Failure(USAGE_ERROR, {
        "command": command, "status": "error",
        "checks": [_entry("usage", "fail", witness=[str(reason)])]})


def _emit(report, mode, stream):
    if mode == "json":
        stream.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
        return
    stream.write(f"{report['command']}: {report['status']}\n")
    for c in report.get("checks", []):
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
        raise _Failure(USAGE_ERROR, {"command": "io", "status": "error",
                                     "checks": [_entry("read_file", "fail",
                                                       witness=[str(exc)])]})


def _load_carrier(path, command):
    text = _read(path)
    try:
        table = parse_cayley_table(text)
    except TableFormatError as exc:
        raise _Failure(USAGE_ERROR, {
            "command": command, "status": "error",
            "checks": [_entry("parse_table", "fail", witness=[str(exc)])]})
    try:
        return validate_gyrogroup(table)
    except ValidationError as exc:
        raise _Failure(ANALYSIS_ERROR, {
            "command": command, "status": "fail",
            "checks": [d.as_dict() | {"status": "fail", "seed": None,
                                      "samples": None, "tolerance": None}
                       for d in exc.diagnostics]})


def _load_action(path, carrier, command):
    text = _read(path)
    try:
        n, k, table = parse_action_table(text)
    except TableFormatError as exc:
        raise _Failure(USAGE_ERROR, {
            "command": command, "status": "error",
            "checks": [_entry("parse_action", "fail", witness=[str(exc)])]})
    if n != carrier.order:
        raise _Failure(USAGE_ERROR, {
            "command": command, "status": "error",
            "checks": [_entry("action_shape", "fail",
                              witness=[n, carrier.order])]})
    try:
        return validate_action(carrier, table)
    except ValidationError as exc:
        raise _Failure(ANALYSIS_ERROR, {
            "command": command, "status": "fail",
            "checks": [d.as_dict() | {"status": "fail", "seed": None,
                                      "samples": None, "tolerance": None}
                       for d in exc.diagnostics]})


def _parse_subset(text):
    try:
        return sorted({int(p) for p in text.split(",") if p.strip() != ""})
    except ValueError:
        raise _Failure(USAGE_ERROR, {
            "command": "subset", "status": "error",
            "checks": [_entry("parse_subset", "fail", witness=[text])]})


def _parse_vector(text, dim):
    parts = text.replace(",", " ").split()
    if len(parts) != dim:
        raise _Failure(USAGE_ERROR, {
            "command": "ball", "status": "error",
            "checks": [_entry("parse_vector", "fail", witness=[text, dim])]})
    return np.array([float(p) for p in parts])


def cmd_validate(args):
    g = _load_carrier(args.table, "validate")
    kind = "degenerate (all gyrations identity)" if g.is_degenerate() \
        else "nondegenerate"
    return {"command": "validate", "status": "pass",
            "checks": [_entry("gyrogroup_axioms", "pass", detail=kind,
                              order=g.order)]}


def cmd_gyr(args):
    g = _load_carrier(args.table, "gyr")
    n = g.order
    if not (0 <= args.a < n and 0 <= args.b < n):
        raise _Failure(USAGE_ERROR, {
            "command": "gyr", "status": "error",
            "checks": [_entry("element_range", "fail",
                              witness=[args.a, args.b])]})
    perm = [int(v) for v in g.gyr_perm(args.a, args.b)]
    checks = [_entry("gyration", "pass", value=perm,
                     detail=f"gyr[{args.a},{args.b}] as one-line permutation")]
    if args.c is not None:
        if not 0 <= args.c < n:
            raise _Failure(USAGE_ERROR, {
                "command": "gyr", "status": "error",
                "checks": [_entry("element_range", "fail", witness=[args.c])]})
        checks.append(_entry("gyration_value", "pass",
                             value=perm[args.c],
                             detail=f"gyr[{args.a},{args.b}]{args.c}"))
    return {"command": "gyr", "status": "pass", "checks": checks}


def cmd_subgyro(args):
    g = _load_carrier(args.table, "subgyro")
    try:
        subs = enumerate_subgyrogroups(g, cap=args.cap)
    except GyroError as exc:
        raise _Failure(USAGE_ERROR, {
            "command": "subgyro", "status": "error",
            "checks": [_entry("enumeration_cap", "fail", witness=[str(exc)])]})
    checks = []
    for h in subs:
        checks.append(_entry(
            "subgyrogroup", "pass", value=list(h),
            detail={"order": len(h), "l_subgyrogroup": is_l_subgyrogroup(g, h),
                    "coset_criterion": coset_criterion(g, h).passed}))
    return {"command": "subgyro", "status": "pass", "checks": checks,
            "count": len(subs)}


def cmd_cosets(args):
    g = _load_carrier(args.table, "cosets")
    members = _parse_subset(args.subset)
    try:
        part = left_cosets(g, members)
    except ValueError as exc:
        raise _Failure(ANALYSIS_ERROR, {
            "command": "cosets", "status": "fail",
            "checks": [_entry("subgyrogroup", "fail", witness=[str(exc)])]})
    status = "pass" if part.is_partition else "fail"
    return {"command": "cosets", "status": status, "checks": [_entry(
        "left_cosets", status,
        witness=None if part.is_partition else [list(w) for w in part.overlaps],
        value=[list(c) for c in part.cosets],
        detail={"index": part.index,
                "representatives": list(part.representatives),
                "l_subgyrogroup": is_l_subgyrogroup(g, members),
                "index_formula": part.index_formula_holds(g.order)})]}


def cmd_act(args):
    g = _load_carrier(args.table, "act")
    gset = _load_action(args.action, g, "act")
    dec = gset.decomposition
    osr = check_orbit_stabilizer(gset)
    ode = orbit_decomposition_equation(gset)
    checks = [
        _entry("action_axioms", "pass"),
        _entry("orbits", "pass", value=[list(o) for o in dec.orbits]),
        _entry("stabilizer_orders", "pass",
               value=[len(s) for s in dec.stabilizers]),
        _entry("fixed_points", "pass", value=list(dec.fixed_points)),
        osr.as_dict() | {"witness": None if osr.witness is None
                         else list(osr.witness),
                         "seed": None, "samples": None, "tolerance": None},
        ode.as_dict() | {"witness": None if ode.witness is None
                         else list(ode.witness),
                         "seed": None, "samples": None, "tolerance": None},
    ]
    passed = osr.passed and ode.passed
    return {"command": "act", "status": "pass" if passed else "fail",
            "checks": checks}


def cmd_burnside(args):
    g = _load_carrier(args.table, "burnside")
    gset = _load_action(args.action, g, "burnside")
    dec = gset.decomposition
    count = burnside_count(gset)
    fix_sizes = [len(f) for f in dec.fixed_by]
    return {"command": "burnside", "status": "pass", "checks": [
        _entry("fix_sizes", "pass", value=fix_sizes,
               detail="per-element |fix(a)| used in double counting"),
        _entry("burnside_count", "pass",
               value={"numerator": count.numerator,
                      "denominator": count.denominator,
                      "orbits": len(dec.orbits)},
               detail=f"({'+'.join(map(str, fix_sizes))})/{g.order} "
                      f"= {count} orbit(s)")]}


def cmd_classify(args):
    g = _load_carrier(args.table, "classify")
    gset = _load_action(args.action, g, "classify")
    flags = classify(gset)
    return {"command": "classify", "status": "pass",
            "checks": [_entry("classification", "pass",
                              value=flags.as_dict())]}


def cmd_coset_action(args):
    g = _load_carrier(args.table, "coset-action")
    members = _parse_subset(args.subset)
    try:
        report = coset_criterion(g, members)
    except ValueError as exc:
        raise _Failure(ANALYSIS_ERROR, {
            "command": "coset-action", "status": "fail",
            "checks": [_entry("subgyrogroup", "fail", witness=[str(exc)])]})
    checks = [report.as_dict() | {"seed": None, "samples": None,
                                  "tolerance": None}]
    status = "pass" if report.passed else "fail"
    if args.build:
        if not report.passed:
            raise _Failure(ANALYSIS_ERROR, {
                "command": "coset-action", "status": "fail", "checks": checks})
        gset = build_coset_action(g, members, criterion=report)
        flags = classify(gset)
        checks.append(_entry(
            "coset_action", "pass",
            value=[[int(v) for v in row] for row in gset.table],
            detail={"points": gset.points,
                    "representatives": list(gset.point_labels),
                    "classification": flags.as_dict(),
                    "index_formula": g.order == gset.points * len(members)}))
    return {"command": "coset-action", "status": status, "checks": checks}


def cmd_equiv(args):
    g = _load_carrier(args.table, "equiv")
    x = _load_action(args.action1, g, "equiv")
    y = _load_action(args.action2, g, "equiv")
    result = match_components(x, y)
    checks = [_entry(
        "equivalence", "pass" if result.equivalent else "fail",
        witness=None if result.unmatched is None else list(result.unmatched),
        value=None if result.mapping is None else list(result.mapping.mapping),
        detail=result.message,
        pairs=[list(p) for p in result.pairs])]
    if not result.equivalent:
        raise _Failure(ANALYSIS_ERROR, {
            "command": "equiv", "status": "fail", "checks": checks})
    return {"command": "equiv", "status": "pass", "checks": checks}


def _plain(x):
    """A sampled element as JSON: ball coordinates as a list, a pair as
    [coordinates, rotation index]."""
    return x.tolist() if hasattr(x, "tolist") else [_plain(p) for p in x]


def _law_checks(command, carrier, args):
    """Run the sampled law suite; returns one report entry per residual and
    whether every law held.  A failing law's witness is [i, a, b, c]: its
    worst triple and that triple's index in the draw.  A sample count the
    suite rejects is a usage error."""
    try:
        residuals, worst_at = sampled_law_residuals(
            carrier, args.samples, args.seed, SAMPLE_MAX_NORM)
    except ValueError as exc:
        raise _usage_failure(command, exc)
    checks = []
    ok = True
    for name, value in sorted(residuals.items()):
        if name in ("samples", "seed"):
            continue
        if name == "closure":
            passed = bool(value)
            checks.append(_entry("closure", "pass" if passed else "fail",
                                 seed=args.seed, samples=args.samples))
        else:
            passed = value <= LAW_TOL
            i, *triple = worst_at[name]
            checks.append(_entry(name, "pass" if passed else "fail",
                                 witness=None if passed else
                                 [i] + [_plain(x) for x in triple],
                                 seed=args.seed, samples=args.samples,
                                 tolerance=LAW_TOL, worst=value))
        ok = ok and passed
    return checks, ok


def cmd_ball(args):
    try:
        carrier = BallGyrogroup(dim=args.dim, variant=args.variant, eps=args.eps)
    except ValueError as exc:
        raise _usage_failure("ball", exc)
    if (args.u is None) != (args.v is None):
        raise _usage_failure("ball", "--u and --v must be given together")
    if args.u is not None:
        u = carrier.element(_parse_vector(args.u, args.dim))
        v = carrier.element(_parse_vector(args.v, args.dim))
        s = carrier.oplus(u, v)
        return {"command": "ball", "status": "pass", "checks": [
            _entry("addition", "pass", value=[float(c) for c in s],
                   detail=f"{args.variant} sum"),
            _entry("lorentz_gamma", "pass", value=float(lorentz_gamma(u)),
                   detail="gamma of the first argument")]}
    if args.seed is None:
        raise _usage_failure("ball", "--seed is required for sampling")
    checks, ok = _law_checks("ball", carrier, args)
    report = {"command": "ball", "status": "pass" if ok else "fail",
              "checks": checks}
    if not ok:
        raise _Failure(ANALYSIS_ERROR, report)
    return report


def cmd_pairs(args):
    try:
        carrier = PairGyrogroup(m=args.m, variant=args.variant)
    except ValueError as exc:
        raise _usage_failure("pairs", exc)
    checks, ok = _law_checks("pairs", carrier, args)
    crit = carrier.verify_hat_criterion(args.samples, args.seed)
    checks.append(_entry("hat_coset_criterion", crit["status"],
                         seed=args.seed, samples=args.samples))
    ok = ok and crit["status"] == "pass"
    # one representative (0, k) per rotation index k
    count = len({int(carrier.hat_coset_index(carrier.element([0.0, 0.0], k)))
                 for k in range(args.m)})
    checks.append(_entry("coset_count", "pass" if count == args.m else "fail",
                         value=count, seed=args.seed, samples=args.samples,
                         detail=f"{args.m} cosets expected"))
    ok = ok and count == args.m
    quotient = rotation_quotient_gset(carrier)
    flags = classify(quotient)
    regular = flags.sharply_transitive
    checks.append(_entry("coset_action_transitive",
                         "pass" if flags.transitive else "fail",
                         detail="rotation quotient acting on cosets"))
    checks.append(_entry("coset_action_regular",
                         "pass" if regular else "fail"))
    ok = ok and flags.transitive and regular
    report = {"command": "pairs", "status": "pass" if ok else "fail",
              "checks": checks}
    if not ok:
        raise _Failure(ANALYSIS_ERROR, report)
    return report


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
    stream = sys.stdout
    try:
        report = args.func(args)
        code = 0 if report.get("status") != "fail" else ANALYSIS_ERROR
    except _Failure as f:
        report, code = f.report, f.code
        if code == USAGE_ERROR:
            stream = sys.stderr
    except (CriterionError, ValidationError, GyroError) as exc:
        report = {"command": args.command, "status": "fail",
                  "checks": [_entry("error", "fail", witness=[str(exc)])]}
        code = ANALYSIS_ERROR
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
