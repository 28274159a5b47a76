"""gsets: orbit, counting, classification and equivalence analyses of G-sets.

The carriers (D_16, D_32 and the twists of order 57 and 93, relabelled by
the workload seed) are validated during setup, so the rounds read their
gyrations and never build them.  The G-sets: the regular actions of D_16
and D_32; D_32 on the cosets of a reflection subgroup and of its centre
(same degree, inequivalent); unions G/Z_p + G/Z_p + G/G of the twists,
with seeded point labels; and random_action with explicitly given
subgroups.  No lattice search.
"""

import os
from fractions import Fraction

import numpy as np

import inputs
import oracles


def setup(gk, seed, tmpdir):
    rng = np.random.default_rng([seed, 1])
    tables, special = {}, {}
    for name, t, marked in (
            ("D16", inputs.dihedral(16), {"rotations4": (0, 4, 8, 12),
                                          "klein": (0, 8, 16, 24),
                                          "rotations8": tuple(range(0, 16, 2))}),
            ("D32", inputs.dihedral(32), {"reflection": (0, 32), "centre": (0, 16)}),
            ("T57", inputs.ladder_twist(19, 3), {"Z_p": inputs.normal_p_subgroup(19, 3)}),
            ("T93", inputs.ladder_twist(31, 3), {"Z_p": inputs.normal_p_subgroup(31, 3)})):
        perm = inputs.relabelling(rng, len(t))
        tables[name] = inputs.relabel_table(t, perm)
        special[name] = {key: tuple(sorted(int(x) for x in perm[list(h)]))
                         for key, h in marked.items()}
    carriers = {name: gk.finite.validate_gyrogroup(t) for name, t in tables.items()}

    d16, d32 = tables["D16"], tables["D32"]
    actions = {
        "D16.regular": ("D16", d16),
        "D16.relabelled": ("D16", inputs.relabel_points(d16, rng.permutation(32))),
        "D32.regular": ("D32", d32),
        "D32.reflection": ("D32", inputs.coset_action_table(d32, special["D32"]["reflection"])),
        "D32.centre": ("D32", inputs.coset_action_table(d32, special["D32"]["centre"])),
    }
    for name in ("T57", "T93"):
        t = tables[name]
        quotient = inputs.coset_action_table(t, special[name]["Z_p"])
        union = inputs.union_table([quotient, quotient,
                                    inputs.coset_action_table(t, range(len(t)))])
        for tag in ("union", "union.relabelled"):
            perm = rng.permutation(union.shape[1])
            actions[f"{name}.{tag}"] = (name, inputs.relabel_points(union, perm))

    gsets = {name: gk.actions.validate_action(carriers[c], tab)
             for name, (c, tab) in actions.items()}
    files = {name: inputs.write_table(os.path.join(tmpdir, f"{name}.gyro"), tables[name])
             for name in ("D16", "T57")}
    for name in ("D16.regular", "T57.union", "T57.union.relabelled"):
        files[name] = inputs.write_action(os.path.join(tmpdir, f"{name}.act"),
                                          actions[name][1])
    return {"seed": seed, "tables": tables, "special": special, "carriers": carriers,
            "actions": actions, "gsets": gsets, "files": files}


ANALYSED = ("D16.regular", "D32.regular", "D32.reflection", "D32.centre",
            "T57.union", "T93.union")
MATCHES = (("D16.regular", "D16.relabelled", True),
           ("D32.reflection", "D32.centre", False),
           ("T57.union", "T57.union.relabelled", True),
           ("T93.union", "T93.union.relabelled", True))


def analyse(r, label, gset, t, act, z):
    """The theorem suite on one G-set, each result checked from the tables."""
    gk = r.gk
    n, k = act.shape
    orbs = oracles.orbits(act)
    stabs = tuple(oracles.stabilizer(act, x) for x in range(k))
    orbit_of = {x: o for o in orbs for x in o}

    dec = r.call(gk.actions.orbits_and_stabilizers, gset)
    r.check(sorted(dec.orbits) == orbs, f"{label}: orbits differ from union-find")
    r.check(dec.stabilizers == stabs, f"{label}: stabilizers differ")
    r.check(all(len(orbit_of[x]) * len(stabs[x]) == n for x in range(k)),
            f"{label}: |orb(x)| |stab(x)| != |G|")

    rep = r.call(gk.actions.check_orbit_stabilizer, gset, dec)
    r.check(rep.passed, f"{label}: orbit-stabilizer check failed")
    rep = r.call(gk.actions.orbit_decomposition_equation, gset, dec)
    fixed = sum(1 for o in orbs if len(o) == 1)
    indexes = sorted(len(o) for o in orbs if len(o) > 1)
    r.check(rep.passed and rep.detail["fixed"] == fixed and rep.detail["indexes"] == indexes,
            f"{label}: orbit decomposition equation differs")
    count = r.call(gk.actions.burnside_count, gset, dec)
    r.check(count == Fraction(*oracles.burnside(act)) == len(orbs),
            f"{label}: Burnside count {count}, {len(orbs)} orbits")

    flags = r.call(gk.actions.classify, gset, dec)
    expected = {"faithful": oracles.kernel(act) == (0,),
                "transitive": len(orbs) == 1,
                "free": all(s == (0,) for s in stabs),
                "semiregular": any(s == (0,) for s in stabs),
                "sharply_transitive": all(np.all(np.bincount(act[:, x], minlength=k) == 1)
                                          for x in range(k))}
    r.check(flags.as_dict() == expected, f"{label}: classification {flags.as_dict()}")

    quotient = r.call(gk.actions.faithful_quotient_action, gset)
    qt = quotient.table
    r.check(quotient.points == k and oracles.kernel(qt) == (0,)
            and quotient.carrier.order * len(oracles.kernel(act)) == n
            and not oracles.action_problems(quotient.carrier.table, qt),
            f"{label}: faithful quotient action")

    phi = r.call(gk.equivalence.fundamental_isomorphism, gset, z)
    src, tgt = phi.source.table, phi.target.table
    r.check(oracles.is_bijective_gmap(src, tgt, phi.mapping)
            and not oracles.transitive_action_problems(t, src, n // len(stabs[z]))
            and tgt.shape[1] == len(orbit_of[z]) and not oracles.action_problems(t, tgt),
            f"{label}: fundamental isomorphism at point {z}")


def stab_orders(act):
    return sorted(len(oracles.stabilizer(act, x)) for x in range(act.shape[1]))


def run(r, ctx):
    gk = r.gk
    rng = np.random.default_rng([ctx["seed"], 2])
    for name in ANALYSED:
        carrier, act = ctx["actions"][name]
        z = int(rng.integers(0, act.shape[1]))
        with r.step(name):
            analyse(r, name, ctx["gsets"][name], ctx["tables"][carrier], act, z)

    for carrier, subgroups in (("D16", list(ctx["special"]["D16"].values())),
                               ("T57", [ctx["special"]["T57"]["Z_p"], tuple(range(57))])):
        t = ctx["tables"][carrier]
        action_seed = int(rng.integers(0, 2 ** 31))
        point_rng = np.random.default_rng([ctx["seed"], 3, action_seed])
        with r.step(f"random_action {carrier}"):
            gset = r.call(gk.actions.random_action, ctx["carriers"][carrier],
                          action_seed, subgroups=subgroups)
            act = gset.table
            problems = oracles.action_problems(t, act)
            sizes = {len(t) // len(h) for h in subgroups}
            r.check(not problems and all(len(o) in sizes for o in oracles.orbits(act)),
                    f"random_action {carrier}: {problems or 'orbit sizes'}")
            analyse(r, f"random {carrier}", gset, t, act,
                    int(point_rng.integers(0, act.shape[1])))

    for x, y, equivalent in MATCHES:
        ax, ay = ctx["actions"][x][1], ctx["actions"][y][1]
        with r.step(f"match {x} {y}"):
            res = r.call(gk.equivalence.match_components, ctx["gsets"][x], ctx["gsets"][y])
            if equivalent:
                r.check(res.equivalent
                        and oracles.is_bijective_gmap(ax, ay, res.mapping.mapping),
                        f"match {x} {y}: no verified equivalence")
            else:
                # an invariant that equivalent G-sets share must differ
                differs = (len(oracles.kernel(ax)) != len(oracles.kernel(ay))
                           or stab_orders(ax) != stab_orders(ay))
                r.check(not res.equivalent and differs
                        and tuple(res.unmatched) in oracles.orbits(ax) + oracles.orbits(ay),
                        f"match {x} {y}: inequivalence not confirmed")

    files = ctx["files"]
    act = ctx["actions"]["T57.union"][1]
    orbs = oracles.orbits(act)
    with r.step("cli act"):
        rep = r.cli("act", files["T57"], files["T57.union"], expect=0)
        got = {c["check"]: c for c in rep["checks"]}
        r.check(rep["status"] == "pass"
                and sorted(map(tuple, got["orbits"]["value"])) == orbs
                and got["stabilizer_orders"]["value"] == [len(oracles.stabilizer(act, x))
                                                          for x in range(act.shape[1])],
                "cli act T57.union: orbits or stabilizers differ")
    with r.step("cli burnside"):
        rep = r.cli("burnside", files["T57"], files["T57.union"], expect=0)
        got = {c["check"]: c for c in rep["checks"]}
        num, den = oracles.burnside(act)
        r.check(got["burnside_count"]["value"]["orbits"] == len(orbs)
                and Fraction(got["burnside_count"]["value"]["numerator"],
                             got["burnside_count"]["value"]["denominator"]) == Fraction(num, den)
                and got["fix_sizes"]["value"] == np.count_nonzero(
                    act == np.arange(act.shape[1]), axis=1).tolist(),
                "cli burnside T57.union: count differs")
    with r.step("cli classify"):
        rep = r.cli("classify", files["D16"], files["D16.regular"], expect=0)
        r.check(rep["checks"][0]["value"] == {"faithful": True, "transitive": True,
                                              "free": True, "semiregular": True,
                                              "sharply_transitive": True},
                "cli classify D16.regular: the regular action is sharply transitive")
    with r.step("cli equiv"):
        rep = r.cli("equiv", files["T57.union"], files["T57.union.relabelled"],
                    "--table", files["T57"], expect=0)
        r.check(oracles.is_bijective_gmap(act, ctx["actions"]["T57.union.relabelled"][1],
                                          rep["checks"][0]["value"]),
                "cli equiv T57 unions: mapping is no equivalence")
