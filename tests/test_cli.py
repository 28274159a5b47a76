"""CLI surface: subcommands, exit codes, reports."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from gyrokit import (CayleyTable, serialize_action_table,
                     serialize_cayley_table, validate_action,
                     validate_gyrogroup)
from gyrokit.catalog import cyclic, symmetric, twisted21
from gyrokit.cli import main
from gyrokit.finite import SUBGROUP_ENUM_CAP

from conftest import conjugation_table


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, table in [("z6", cyclic(6)), ("s3", symmetric(3)),
                        ("t21", twisted21())]:
        p = tmp_path / f"{name}.gyro"
        p.write_text(serialize_cayley_table(
            CayleyTable(len(table), table)))
        paths[name] = str(p)
    s3 = validate_gyrogroup(symmetric(3))
    conj = validate_action(s3, conjugation_table(s3))
    p = tmp_path / "conj.act"
    p.write_text(serialize_action_table(conj))
    paths["conj"] = str(p)
    z6 = validate_gyrogroup(cyclic(6))
    red = validate_action(z6, np.array([[(a + x) % 3 for x in range(3)]
                                        for a in range(6)]))
    p = tmp_path / "red.act"
    p.write_text(serialize_action_table(red))
    paths["red"] = str(p)
    bad = cyclic(6).copy()
    bad[2, 4] = bad[2, 3]
    p = tmp_path / "bad.gyro"
    p.write_text(serialize_cayley_table(CayleyTable(6, bad)))
    paths["bad"] = str(p)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_pass(files, capsys):
    code, out, _ = run(capsys, "validate", files["z6"])
    assert code == 0
    assert "degenerate" in out


def test_validate_nondegenerate(files, capsys):
    code, out, _ = run(capsys, "validate", files["t21"])
    assert code == 0
    assert "nondegenerate" in out


def test_validate_fail_exit_one(files, capsys):
    code, out, _ = run(capsys, "validate", files["bad"])
    assert code == 1
    assert "fail" in out


def test_missing_file_exit_two(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent.gyro")
    assert code == 2


def test_malformed_file_exit_two(tmp_path, capsys):
    p = tmp_path / "x.gyro"
    p.write_text("gyro 2\n0 1\n")
    code, _, err = run(capsys, "validate", str(p))
    assert code == 2


def test_malformed_action_file_exit_two(files, tmp_path, capsys):
    p = tmp_path / "x.act"
    p.write_text("action 6 3\n0 1 2\n")
    code, _, _ = run(capsys, "act", files["z6"], str(p))
    assert code == 2
    q = tmp_path / "y.act"
    q.write_text("action 5 3\n" + "0 1 2\n" * 5)
    code, _, _ = run(capsys, "act", files["z6"], str(q))
    assert code == 2


def test_unknown_subcommand_exit_two(capsys):
    assert main(["frobnicate"]) == 2


def test_gyr_value(files, capsys):
    code, out, _ = run(capsys, "gyr", files["t21"], "-a", "1", "-b", "3",
                       "-c", "1")
    assert code == 0
    assert "gyration_value" in out


def test_subgyro_lists_orders(files, capsys):
    code, out, _ = run(capsys, "--report", "json", "subgyro", files["z6"])
    assert code == 0
    report = json.loads(out)
    orders = sorted(c["detail"]["order"] for c in report["checks"])
    assert orders == [1, 2, 3, 6]


def test_subgyro_default_cap_is_the_library_cap(tmp_path, capsys):
    p = tmp_path / "big.gyro"
    n = SUBGROUP_ENUM_CAP + 1
    p.write_text(serialize_cayley_table(CayleyTable(n, cyclic(n))))
    code, out, err = run(capsys, "--report", "json", "subgyro", str(p))
    assert code == 2
    assert f"exceeds enumeration cap {SUBGROUP_ENUM_CAP}" in out + err
    code, _, _ = run(capsys, "subgyro", str(p), "--cap", str(n))
    assert code == 0


def test_cosets_partition(files, capsys):
    code, out, _ = run(capsys, "--report", "json", "cosets", files["z6"],
                       "--subset", "0,3")
    assert code == 0
    report = json.loads(out)
    assert report["checks"][0]["value"] == [[0, 3], [1, 4], [2, 5]]
    assert report["checks"][0]["detail"]["index_formula"] is True


def test_act_reports_theorems(files, capsys):
    code, out, _ = run(capsys, "act", files["s3"], files["conj"])
    assert code == 0
    assert "orbit_stabilizer" in out and "orbit_decomposition" in out


def test_burnside_s3(files, capsys):
    code, out, _ = run(capsys, "--report", "json", "burnside", files["s3"],
                       files["conj"])
    assert code == 0
    report = json.loads(out)
    value = report["checks"][1]["value"]
    assert value["numerator"] == 3 and value["denominator"] == 1
    assert value["orbits"] == 3


def test_classify_flags(files, capsys):
    code, out, _ = run(capsys, "--report", "json", "classify", files["z6"],
                       files["red"])
    assert code == 0
    flags = json.loads(out)["checks"][0]["value"]
    assert flags["transitive"] is True and flags["faithful"] is False


def test_coset_action_build(files, capsys):
    code, out, _ = run(capsys, "--report", "json", "coset-action",
                       files["t21"], "--subset", "0,3,6,9,12,15,18",
                       "--build")
    assert code == 0
    report = json.loads(out)
    built = report["checks"][1]
    assert built["detail"]["points"] == 3
    assert built["detail"]["classification"]["transitive"] is True
    assert built["detail"]["classification"]["semiregular"] is False


def test_coset_action_criterion_failure(files, capsys):
    code, out, _ = run(capsys, "coset-action", files["t21"], "--subset", "0")
    assert code == 1


def test_equiv_equal(files, capsys):
    code, out, _ = run(capsys, "equiv", files["conj"], files["conj"],
                       "--table", files["s3"])
    assert code == 0


def test_equiv_not_equivalent_exit_one(files, tmp_path, capsys):
    z6 = validate_gyrogroup(cyclic(6))
    triv = validate_action(z6, np.tile(np.arange(3), (6, 1)))
    p = tmp_path / "triv.act"
    p.write_text(serialize_action_table(triv))
    code, out, _ = run(capsys, "equiv", files["red"], str(p),
                       "--table", files["z6"])
    assert code == 1


def test_ball_evaluation(files, capsys):
    code, out, _ = run(capsys, "--report", "json", "ball", "--variant",
                       "einstein", "--u", "0.5 0", "--v", "0.5 0")
    assert code == 0
    report = json.loads(out)
    assert report["checks"][0]["value"] == [0.8, 0.0]


def _strict_json(text):
    """Parse a report, refusing the NaN and Infinity that json accepts."""
    def refuse(name):
        raise ValueError(f"{name} in the report")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("u", ["nan 0", "0.99 0.5"])
def test_ball_sum_rejects_non_finite_and_outside_points(capsys, u):
    code, out, _ = run(capsys, "--report", "json", "ball", "--u", u,
                       "--v", "0.1 0.2")
    assert code == 1
    report = _strict_json(out)
    assert report["status"] == "fail"
    assert report["checks"][0]["check"] == "error"


def test_ball_requires_seed_for_sampling(capsys):
    code, _, err = run(capsys, "ball", "--variant", "mobius")
    assert code == 2
    assert "seed" in err


def test_ball_law_suite(capsys):
    code, out, _ = run(capsys, "--report", "json", "ball", "--variant",
                       "mobius", "--seed", "42", "--samples", "300")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    by_name = {c["check"]: c for c in report["checks"]}
    assert by_name["gyroassociativity"]["seed"] == 42


def test_ball_failing_law_reports_its_worst_triple(capsys, monkeypatch):
    import gyrokit.cli
    from gyrokit import BallGyrogroup

    from conftest import WrongGyrationBall
    samples, k = 20_000, 17_000
    rng = np.random.default_rng(6)
    a, b, c = (BallGyrogroup(dim=2).sample_batch(rng, samples) for _ in range(3))
    monkeypatch.setattr(gyrokit.cli, "BallGyrogroup",
                        lambda **kw: WrongGyrationBall(a[k], **kw))
    code, out, _ = run(capsys, "--report", "json", "ball", "--dim", "2",
                       "--seed", "6", "--samples", str(samples))
    assert code == 1
    by_name = {c["check"]: c for c in json.loads(out)["checks"]}
    assert by_name["left_loop"]["status"] == "fail"
    assert by_name["left_loop"]["witness"] == [
        k, a[k].tolist(), b[k].tolist(), c[k].tolist()]
    assert by_name["left_inverse"]["status"] == "pass"
    assert by_name["left_inverse"]["witness"] is None


def test_pairs_requires_seed(capsys):
    assert main(["pairs", "--m", "6"]) == 2


def test_pairs_suite_and_json_determinism(capsys):
    args = ["--report", "json", "pairs", "--m", "6", "--samples", "500",
            "--seed", "42"]
    code1 = main(args)
    out1 = capsys.readouterr().out
    code2 = main(args)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["status"] == "pass"
    names = {c["check"] for c in report["checks"]}
    assert {"hat_coset_criterion", "coset_count",
            "coset_action_transitive"} <= names


@pytest.mark.parametrize("argv", [["ball", "--seed", "1", "--samples", "0"],
                                  ["pairs", "--seed", "1", "--samples", "0"]])
def test_sampled_suites_reject_zero_samples(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "samples must be >= 1" in err


def test_pairs_coset_count_is_exact(capsys):
    # three samples miss some rotation indices; the count does not sample
    code, out, _ = run(capsys, "--report", "json", "pairs", "--seed", "1",
                       "--samples", "3")
    assert code == 0
    by_name = {c["check"]: c for c in json.loads(out)["checks"]}
    assert by_name["coset_count"]["status"] == "pass"
    assert by_name["coset_count"]["value"] == 6


@pytest.mark.parametrize("argv, message", [
    (["pairs", "--m", "0", "--seed", "1"], "m must be >= 1"),
    (["ball", "--dim", "0", "--seed", "1"], "dim must be >= 1"),
    (["ball", "--u", "a b", "--v", "0.1 0.2"], "parse_vector")])
def test_invalid_carrier_size_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_closed_stdout_exits_quietly():
    # the reader closes the pipe while the command is still sleeping
    script = ("import sys, time; time.sleep(0.5); from gyrokit.cli import main; "
              "sys.exit(main(['--report', 'json', 'ball', '--dim', '2', "
              "'--seed', '1', '--samples', '100']))")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == ""
