"""sampled: the float64 batched ball and pair carriers, with no finite code.

Batched Mobius and Einstein additions and Mobius gyrations on triples drawn
from the workload seed, each compared with a formula the program does not
use; check_ball_laws for Mobius and Einstein in dimensions 2 and 3,
check_pair_axioms, verify_hat_criterion, ball_gyration_matrix,
self_action_possible_sampled, and CLI ball and pairs.

The law suites run at the fixed seed of FAULT, not at the workload seed:
their left_loop residual is a false failure on about one triple in 10^6
(check_ball_laws for Mobius in dimension 2 with 5 * 10^4 triples already
fails at seed 5), so suites drawn from the workload seed would fail on some
seeds and not on others.  FAULT itself is
the suite on which that fault shows; it is counted as one failed operation
once the round confirms that only left_loop is over tolerance and that
Ungar's closed form on the same triples stays far below it.
"""

import numpy as np

import oracles

TOL = 1e-9               # the law tolerance of gyrokit's CLI (LAW_TOL)
MAX_NORM = 0.99          # the program's sampling radius
SUITES = (("mobius", 2), ("mobius", 3), ("einstein", 2), ("einstein", 3))
SUITE_SAMPLES = 50_000
SUITE_SEED = 1
CLI_SAMPLES = 20_000
ORACLE_SAMPLES = 100_000
ORACLE_TOL = 1e-10
FAULT = {"dim": 3, "variant": "mobius", "samples": 1_000_000, "seed": 1}
CHUNK = 100_000


def setup(gk, seed, tmpdir):
    rng = np.random.default_rng([seed, 1])

    def draw(count, norm=MAX_NORM):
        return oracles.sample_ball(rng, count, 3, norm)

    u, v = draw(ORACLE_SAMPLES), draw(ORACLE_SAMPLES)
    triple = tuple(draw(ORACLE_SAMPLES) for _ in range(3))
    pa, pb = draw(1, 0.9)[0], draw(1, 0.9)[0]
    cu, cv = draw(1, 0.9)[0], draw(1, 0.9)[0]
    seeds = [int(x) for x in rng.integers(0, 2 ** 31, 3)]
    ball = gk.ball.BallGyrogroup
    return {"u": u, "v": v, "triple": triple, "matrix_points": (pa, pb),
            "cli_points": (cu, cv), "seeds": seeds,
            "mobius": ball(dim=3, variant="mobius"),
            "einstein": ball(dim=3, variant="einstein"),
            "pairs": gk.pairs.PairGyrogroup(m=6, variant="mobius")}


def suite_residuals(res):
    return {k: v for k, v in res.items() if k not in ("samples", "seed", "closure")}


def run(r, ctx):
    gk = r.gk
    worst = {"mobius": 0.0, "einstein": 0.0, "pairs": 0.0, "cli": 0.0, "fault": 0.0}
    triples = 0

    u, v = ctx["u"], ctx["v"]
    textbook = oracles.mobius_textbook(u, v)
    phi = oracles.mobius_to_einstein
    with r.step("mobius oplus"):
        s = r.call(ctx["mobius"].oplus, u, v)
        r.check(oracles.worst(s, textbook) <= ORACLE_TOL,
                "mobius oplus differs from the textbook formula")
    with r.step("einstein oplus"):
        e = r.call(ctx["einstein"].oplus, phi(u), phi(v))
        r.check(oracles.worst(e, phi(textbook)) <= ORACLE_TOL,
                "einstein oplus differs from mobius through v -> 2v/(1+|v|^2)")
    with r.step("mobius gyration"):
        a, b, c = ctx["triple"]
        g = r.call(gk.core.gyration, ctx["mobius"], a, b, c)
        r.check(oracles.worst(g, oracles.ungar_gyration(a, b, c)) <= ORACLE_TOL,
                "mobius gyration differs from Ungar's closed form")

    for variant, dim in SUITES:
        carrier = gk.ball.BallGyrogroup(dim=dim, variant=variant)
        triples += SUITE_SAMPLES
        with r.step(f"check_ball_laws {variant} dim {dim}"):
            res = r.call(gk.ball.check_ball_laws, carrier, SUITE_SAMPLES, seed=SUITE_SEED)
            laws = suite_residuals(res)
            r.check(res["closure"] and max(laws.values()) <= TOL,
                    f"check_ball_laws {variant} dim {dim}: {laws}")
            worst[variant] = max(worst[variant], max(laws.values()))

    with r.step("check_pair_axioms"):
        res = r.call(gk.pairs.check_pair_axioms, ctx["pairs"], SUITE_SAMPLES, SUITE_SEED)
        laws = suite_residuals(res)
        r.check(res["closure"] and max(laws.values()) <= TOL, f"check_pair_axioms: {laws}")
        worst["pairs"] = max(laws.values())

    hat_seed, matrix_seed, self_seed = ctx["seeds"]
    with r.step("verify_hat_criterion"):
        rep = r.call(ctx["pairs"].verify_hat_criterion, SUITE_SAMPLES, hat_seed)
        r.check(rep["status"] == "pass" and rep["condition_gyr_preserves_subgroup"]
                and rep["condition_translate_defect_in_subgroup"], "hat criterion failed")

    with r.step("ball_gyration_matrix"):
        pa, pb = ctx["matrix_points"]
        gm = r.call(gk.ball.ball_gyration_matrix, ctx["mobius"], pa, pb,
                    samples=CLI_SAMPLES, seed=matrix_seed)
        closed = oracles.ungar_gyration(pa, pb, np.eye(3)).T  # gyrations are linear
        r.check(np.abs(gm.matrix - closed).max() <= ORACLE_TOL
                and gm.linearity_residual <= TOL and gm.orthogonality_residual <= TOL,
                "ball_gyration_matrix differs from Ungar's closed form")

    with r.step("self_action_possible_sampled"):
        possible, witness = r.call(gk.coset_actions.self_action_possible_sampled,
                                   ctx["mobius"], CLI_SAMPLES, self_seed)
        r.check(not possible and witness is not None
                and oracles.worst(oracles.ungar_gyration(*witness), witness[2]) > TOL,
                "self action: no confirmed nonidentity gyration")

    triples += CLI_SAMPLES
    with r.step("cli ball suite"):
        rep = r.cli("ball", "--dim", "2", "--variant", "einstein", "--seed", str(SUITE_SEED),
                    "--samples", str(CLI_SAMPLES), expect=0)
        r.check(rep["status"] == "pass" and all(c["status"] == "pass" for c in rep["checks"]),
                "cli ball suite failed")
        worst["cli"] = max([worst["cli"]] + [c["worst"] for c in rep["checks"]
                                             if c.get("worst") is not None])
    with r.step("cli ball sum"):
        cu, cv = ctx["cli_points"]
        rep = r.cli("ball", "--dim", "3", "--u", " ".join(map(repr, cu.tolist())),
                    "--v", " ".join(map(repr, cv.tolist())), expect=0)
        r.check(oracles.worst(rep["checks"][0]["value"], oracles.mobius_textbook(cu, cv))
                <= ORACLE_TOL, "cli ball sum differs from the textbook formula")
    with r.step("cli pairs"):
        rep = r.cli("pairs", "--seed", str(SUITE_SEED), "--samples", str(CLI_SAMPLES), expect=0)
        r.check(rep["status"] == "pass", "cli pairs failed")
        worst["cli"] = max([worst["cli"]] + [c["worst"] for c in rep["checks"]
                                             if c.get("worst") is not None])

    carrier = gk.ball.BallGyrogroup(dim=FAULT["dim"], variant=FAULT["variant"])
    triples += FAULT["samples"]
    with r.step("fault suite"):
        res = r.call(gk.ball.check_ball_laws, carrier, FAULT["samples"], seed=FAULT["seed"])
        laws = suite_residuals(res)
        over = sorted(k for k, x in laws.items() if x > TOL)
        r.values["ball.fault_suite.left_loop"] = res["left_loop"]
        worst["fault"] = max(laws.values())
        if over == ["left_loop"] and res["closure"]:
            closed = fault_left_loop_closed_form(carrier)
            if r.check(closed < TOL / 100, f"left_loop fails and the closed form agrees "
                                           f"({closed:.3g}): a real failure"):
                r.known_fault()
        else:
            r.check(not over and res["closure"], f"fault suite: {over} over tolerance")

    r.values["ball_triples"] = triples
    r.values["ball.mobius.max_residual"] = max(worst["mobius"], worst["fault"])
    r.values["ball.einstein.max_residual"] = worst["einstein"]
    r.values["pairs.max_residual"] = worst["pairs"]
    r.values["max_law_residual"] = max(worst.values())


def fault_left_loop_closed_form(carrier):
    """Worst |gyr[a+b, b]c - gyr[a, b]c| on the fault suite's own triples, with
    Ungar's closed form and the textbook sum; the draw is confirmed against
    the program's sampler."""
    n = FAULT["samples"]
    rng = np.random.default_rng(FAULT["seed"])
    a, b, c = (oracles.sample_ball(rng, n, FAULT["dim"], MAX_NORM) for _ in range(3))
    rng = np.random.default_rng(FAULT["seed"])
    for mine in (a, b, c):
        if not np.array_equal(carrier.sample_batch(rng, n, MAX_NORM), mine):
            return float("inf")
    out = 0.0
    for i in range(0, n, CHUNK):
        s = slice(i, i + CHUNK)
        ab = oracles.mobius_textbook(a[s], b[s])
        out = max(out, oracles.worst(oracles.ungar_gyration(ab, b[s], c[s]),
                                     oracles.ungar_gyration(a[s], b[s], c[s])))
    return out
