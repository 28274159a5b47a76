"""certify: exhaustive certification of Cayley tables, and refutation.

validate_gyrogroup on the square-root twists of the ladder (orders 21 to
203) and on D_16 and D_32, all relabelled by the workload seed;
diagnose_gyrogroup on seeded corruptions of ladder tables; CLI validate and
gyr.  Runs no lattice, G-set or ball code.
"""

import os

import numpy as np

import inputs
import oracles

CORRUPTIONS = ((21, "swap"), (39, "swap"), (57, "swap"),
               (21, "overwrite"), (39, "overwrite"), (57, "overwrite"))
CHECK_TRIPLES = 2000


def setup(gk, seed, tmpdir):
    rng = np.random.default_rng([seed, 1])
    tables = {}
    nondegenerate = {}
    for p, q in inputs.LADDER:
        n = p * q
        tables[f"n{n}"] = inputs.relabel_table(inputs.ladder_twist(p, q),
                                               inputs.relabelling(rng, n))
        nondegenerate[f"n{n}"] = True
    for k in (16, 32):
        tables[f"d{k}"] = inputs.relabel_table(inputs.dihedral(k),
                                               inputs.relabelling(rng, 2 * k))
        nondegenerate[f"d{k}"] = False
    corrupted = [inputs.corrupt(tables[f"n{n}"], rng, kind)
                 for n, kind in CORRUPTIONS]
    gyr_args = [int(x) for x in rng.integers(0, 57, 3)]
    files = {"n57": inputs.write_table(os.path.join(tmpdir, "n57.gyro"), tables["n57"]),
             "bad": inputs.write_table(os.path.join(tmpdir, "bad.gyro"), corrupted[0])}
    return {"seed": seed, "tables": tables, "nondegenerate": nondegenerate,
            "corrupted": corrupted, "gyr_args": gyr_args, "files": files}


def run(r, ctx):
    gk = r.gk
    rng = np.random.default_rng([ctx["seed"], 2])
    for name, t in ctx["tables"].items():
        inv = oracles.inverses(t)
        a, b, c = (rng.integers(0, len(t), CHECK_TRIPLES) for _ in range(3))
        laws_rng = np.random.default_rng([ctx["seed"], 3, len(t)])
        with r.step(f"validate {name}"):
            g = r.call(gk.finite.validate_gyrogroup, t, timer=f"finite.validate.{name}_s")
            for problem in oracles.sample_laws(t, g, laws_rng, CHECK_TRIPLES):
                r.fail(f"validate {name}: {problem}")
            moved = bool(np.any(oracles.gyr(t, inv, a, b, c) != c))
            r.check(moved == ctx["nondegenerate"][name],
                    f"validate {name}: gyrations {'are' if moved else 'are not'} "
                    f"all trivial on the sample")
            if name == "n203":
                r.values["finite.carrier_mb.n203"] = sum(
                    x.nbytes for x in vars(g).values() if isinstance(x, np.ndarray)) / 2 ** 20
            del g

    for (n, kind), bad in zip(CORRUPTIONS, ctx["corrupted"]):
        with r.step(f"diagnose n{n} {kind}"):
            diags = r.call(gk.finite.diagnose_gyrogroup, bad)
            r.check(len(diags) > 0, f"diagnose n{n} {kind}: corruption accepted")
            for d in diags:
                r.check(oracles.confirm_witness(bad, d.check, d.witness),
                        f"diagnose n{n} {kind}: {d.check} {d.witness} not confirmed")

    files = ctx["files"]
    t57 = ctx["tables"]["n57"]
    with r.step("cli validate n57"):
        rep = r.cli("validate", files["n57"], expect=0)
        first = (rep["checks"] or [{}])[0]
        r.check(rep["status"] == "pass" and first.get("order") == 57
                and first.get("detail") == "nondegenerate", "cli validate n57 report")

    with r.step("cli validate bad"):
        bad = ctx["corrupted"][0]
        rep = r.cli("validate", files["bad"], expect=1)
        r.check(rep["status"] == "fail" and rep["checks"], "cli validate bad: not refuted")
        for c in rep["checks"]:
            r.check(oracles.confirm_witness(bad, c["check"], c["witness"]),
                    f"cli validate bad: {c['check']} {c['witness']} not confirmed")

    with r.step("cli gyr"):
        a, b, c = ctx["gyr_args"]
        rep = r.cli("gyr", files["n57"], "-a", str(a), "-b", str(b), "-c", str(c), expect=0)
        perm = oracles.gyr(t57, oracles.inverses(t57), a, b, np.arange(57)).tolist()
        values = [chk.get("value") for chk in rep["checks"]]
        r.check(values == [perm, perm[c]], f"cli gyr -a {a} -b {b} -c {c}: wrong gyration")
