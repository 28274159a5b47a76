"""Whole CLI reports, frozen byte for byte.

Each case runs one command on the inputs in ``tests/data/cli/`` and
compares its exit code and its complete output, on the stream it was
written to, with ``tests/data/cli/<case>.out``.  Default reports must stay
byte-identical for the same inputs and seeds, so a difference here is a
change of the report format.

``python tests/test_cli_golden.py`` rewrites the ``.out`` files from the
current code; do that only for an intended change of the format.
"""

import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest

from gyrokit.cli import main

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "cli")

# case -> (argv, exit code, stream); "{d}" stands for the data directory
CASES = {
    "validate_pass": (["validate", "{d}/t21.gyro"], 0, "out"),
    "validate_fail": (["validate", "{d}/bad.gyro"], 1, "out"),
    "validate_fail_text": (["validate", "{d}/bad.gyro"], 1, "out"),
    "gyr": (["gyr", "{d}/t21.gyro", "-a", "1", "-b", "3", "-c", "1"], 0, "out"),
    "subgyro": (["subgyro", "{d}/z6.gyro"], 0, "out"),
    "cosets": (["cosets", "{d}/z6.gyro", "--subset", "0,3"], 0, "out"),
    "act": (["act", "{d}/s3.gyro", "{d}/conj.act"], 0, "out"),
    "act_text": (["act", "{d}/s3.gyro", "{d}/conj.act"], 0, "out"),
    "burnside": (["burnside", "{d}/s3.gyro", "{d}/conj.act"], 0, "out"),
    "classify": (["classify", "{d}/z6.gyro", "{d}/red.act"], 0, "out"),
    "coset_action_fail": (["coset-action", "{d}/t21.gyro", "--subset", "0"],
                          1, "out"),
    "coset_action_build": (["coset-action", "{d}/t21.gyro", "--subset",
                            "0,3,6,9,12,15,18", "--build"], 0, "out"),
    "equiv": (["equiv", "{d}/conj.act", "{d}/conj.act", "--table",
               "{d}/s3.gyro"], 0, "out"),
    "equiv_not": (["equiv", "{d}/red.act", "{d}/triv.act", "--table",
                   "{d}/z6.gyro"], 1, "out"),
    "ball_sum": (["ball", "--variant", "einstein", "--u", "0.5 0.1",
                  "--v", "-0.2 0.4"], 0, "out"),
    "ball_suite": (["ball", "--dim", "2", "--seed", "42", "--samples", "300"],
                   0, "out"),
    "pairs": (["pairs", "--m", "6", "--samples", "300", "--seed", "42"],
              0, "out"),
    "usage_error": (["ball", "--u", "0.1 0.2"], 2, "err"),
    "cosets_bad_subset": (["cosets", "{d}/z6.gyro", "--subset", "x"], 2,
                          "err"),
    # a bad entry on an earlier row is reported before a later short row
    "parse_error": (["validate", "{d}/parse_error.gyro"], 2, "err"),
    # a relative path, so that the message names no directory
    "validate_missing": (["validate", "missing.gyro"], 2, "err"),
}


def _run(case):
    argv, _, _ = CASES[case]
    mode = "text" if case.endswith("_text") else "json"
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["--report", mode] + [a.format(d=DATA) for a in argv])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_is_frozen(case):
    _, code, stream = CASES[case]
    got_code, out, err = _run(case)
    with open(os.path.join(DATA, f"{case}.out"), encoding="utf-8") as fh:
        frozen = fh.read()
    assert got_code == code
    assert (out, err) == ((frozen, "") if stream == "out" else ("", frozen))


if __name__ == "__main__":
    for case, (_, _, stream) in CASES.items():
        _, out, err = _run(case)
        with open(os.path.join(DATA, f"{case}.out"), "w", encoding="utf-8") as fh:
            fh.write(out if stream == "out" else err)
    sys.exit(0)
