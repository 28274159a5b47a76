"""lattice: subgyrogroup enumeration, the coset criterion, coset actions.

enumerate_subgyrogroups (cap passed explicitly) on the twists of order 21,
39, 57 and 93, relabelled by the workload seed; coset_criterion and
is_l_subgyrogroup on every subgyrogroup found and build_coset_action on each
one that passes; CLI subgyro on the two smaller rungs, cosets and
coset-action --build.
"""

import os

import numpy as np

import inputs
import oracles

RUNGS = ((7, 3), (13, 3), (19, 3), (31, 3))
CLI_SUBGYRO = (21, 39)
CHECK_TRIPLES = 500


def setup(gk, seed, tmpdir):
    rng = np.random.default_rng([seed, 1])
    tables, normal = {}, {}
    for p, q in RUNGS:
        n = p * q
        perm = inputs.relabelling(rng, n)
        tables[n] = inputs.relabel_table(inputs.ladder_twist(p, q), perm)
        normal[n] = tuple(sorted(int(x) for x in perm[list(inputs.normal_p_subgroup(p, q))]))
    files = {n: inputs.write_table(os.path.join(tmpdir, f"n{n}.gyro"), tables[n])
             for n in (21, 39, 57)}
    return {"seed": seed, "tables": tables, "normal": normal, "files": files,
            "lattice": {}}


def run(r, ctx):
    gk = r.gk
    found = 0
    criterion = {}
    for n, t in ctx["tables"].items():
        laws_rng = np.random.default_rng([ctx["seed"], 2, n])
        inv = oracles.inverses(t)
        if n not in ctx["lattice"]:
            ctx["lattice"][n] = oracles.lattice(t)
        g = None
        with r.step(f"validate n{n}"):
            g = r.call(gk.finite.validate_gyrogroup, t, timer=f"finite.validate.n{n}_s")
            for problem in oracles.sample_laws(t, g, laws_rng, CHECK_TRIPLES):
                r.fail(f"validate n{n}: {problem}")
            subs = r.call(gk.finite.enumerate_subgyrogroups, g, cap=n)
            r.check(list(subs) == ctx["lattice"][n],
                    f"enumerate n{n}: {len(subs)} subgyrogroups, the cyclic-join "
                    f"lattice has {len(ctx['lattice'][n])}")
            found += len(subs)
        if g is None:
            continue
        # the oracle's lattice, so that a wrong enumeration changes no other operation
        for h in ctx["lattice"][n]:
            with r.step(f"n{n} |H|={len(h)}"):
                lattice_member(r, g, t, inv, n, h, criterion)
    r.values["subgyrogroups_found"] = found

    files = ctx["files"]
    for n in CLI_SUBGYRO:
        t = ctx["tables"][n]
        inv = oracles.inverses(t)
        with r.step(f"cli subgyro n{n}"):
            rep = r.cli("subgyro", files[n], "--cap", str(n), expect=0)
            subs = [tuple(c["value"]) for c in rep["checks"]]
            r.check(rep.get("count") == len(subs) and subs == ctx["lattice"][n],
                    f"cli subgyro n{n}: lattice differs")
            for c, h in zip(rep["checks"], subs):
                detail = c["detail"]
                r.check(detail["l_subgyrogroup"] == oracles.is_l_subgyrogroup(t, inv, h)
                        and detail["coset_criterion"] == criterion.get((n, h)),
                        f"cli subgyro n{n}: flags of {h}")

    t, h = ctx["tables"][57], ctx["normal"][57]
    subset = ",".join(map(str, h))
    with r.step("cli cosets n57"):
        rep = r.cli("cosets", files[57], "--subset", subset, expect=0)
        cosets = (rep["checks"] or [{}])[0].get("value") or []
        expected = sorted({tuple(sorted(t[a, list(h)].tolist())) for a in range(57)})
        r.check(sorted(map(tuple, cosets)) == expected and len(expected) == 3,
                "cli cosets n57: cosets of Z_19 differ from a + H")
    with r.step("cli coset-action n57"):
        rep = r.cli("coset-action", files[57], "--subset", subset, "--build", expect=0)
        table = np.array(rep["checks"][-1].get("value") or [[0]])
        r.check(rep["status"] == "pass", "cli coset-action n57: criterion failed")
        for problem in oracles.transitive_action_problems(t, table, 3):
            r.fail(f"cli coset-action n57: {problem}")


def lattice_member(r, g, t, inv, n, h, criterion):
    """The coset criterion, the L-subgyrogroup test and, where the criterion
    passes, the coset action, on one subgyrogroup H of the lattice."""
    gk = r.gk
    rep = r.call(gk.coset_actions.coset_criterion, g, h)
    criterion[n, h] = rep.passed
    if not rep.passed:
        witnesses = [(1, rep.witness1), (2, rep.witness2)]
        r.check(any(w is not None for _, w in witnesses),
                f"criterion fails without a witness (n{n} |H|={len(h)})")
        for cond, w in witnesses:
            if w is not None:
                r.check(oracles.criterion_witness(t, inv, h, cond, w),
                        f"criterion n{n} |H|={len(h)}: condition {cond} "
                        f"witness {w} not confirmed")
    is_l = r.call(gk.finite.is_l_subgyrogroup, g, h)
    r.check(is_l == oracles.is_l_subgyrogroup(t, inv, h),
            f"is_l_subgyrogroup n{n} |H|={len(h)}: {is_l}")
    if rep.passed:
        r.check(is_l, f"criterion passes but H is no L-subgyrogroup (n{n})")
        gset = r.call(gk.coset_actions.build_coset_action, g, h, criterion=rep)
        for problem in oracles.transitive_action_problems(t, gset.table, n // len(h)):
            r.fail(f"coset action n{n} |H|={len(h)}: {problem}")
