"""Error reports of the two text formats, frozen: message, line and column.

Both parsers read one headered integer table; each error path of each
format is listed once, with the exact report it gives.
"""

import pytest

from gyrokit import TableFormatError, parse_action_table, parse_cayley_table

GYRO_ERRORS = [
    ("action 2\n0 1\n1 0\n", "line 1: expected header 'gyro <n>'", 1, None),
    ("# c\n\ngyro 2 2\n", "line 3: expected header 'gyro <n>'", 3, None),
    ("gyro two\n", "line 1: order 'two' is not an integer", 1, None),
    ("gyro 0\n", "line 1: order must be >= 1", 1, None),
    ("gyro -3\n", "line 1: order must be >= 1", 1, None),
    ("gyro 2\nlabels e\n0 1\n1 0\n", "line 2: expected 2 labels, got 1", 2, None),
    ("gyro 3\nlabels e a a\n", "line 2: label 'a' is repeated", 2, None),
    ("gyro 2\n0 1\nlabels e g\n",
     "line 3: row 1 has 3 entries, expected 2", 3, None),
    ("gyro 2\n0 1\n1 0\n0 1\n",
     "line 4: extra row; table already has 2 rows", 4, None),
    ("gyro 2\n0 1 1\n1 0\n", "line 2: row 0 has 3 entries, expected 2", 2, None),
    ("gyro 2\n0 1\n1 x  # bad\n",
     "line 3, column 1: entry 'x' is not an integer", 3, 1),
    ("gyro 2\n0 1\n2 0\n", "line 3, column 0: entry 2 out of range 0..1", 3, 0),
    ("gyro 2\n0 1\n-1 0\n", "line 3, column 0: entry -1 out of range 0..1", 3, 0),
    ("", "line 1: missing 'gyro <n>' header", 1, None),
    ("# only a comment\n\n", "line 1: missing 'gyro <n>' header", 1, None),
    ("gyro 3\n0 1 2\n# trailing\n\n", "line 4: expected 3 rows, found 1", 4, None),
]

ACTION_ERRORS = [
    ("gyro 2 2\n0 1\n1 0\n", "line 1: expected header 'action <n> <k>'", 1, None),
    ("# c\naction 2\n0 1\n", "line 2: expected header 'action <n> <k>'", 2, None),
    ("action 2 x\n", "line 1: non-integer sizes in header", 1, None),
    ("action 0 2\n", "line 1: sizes must be >= 1", 1, None),
    ("action 2 0\n", "line 1: sizes must be >= 1", 1, None),
    ("action 1 2\nlabels a\n",
     "line 2, column 0: entry 'labels' is not an integer", 2, 0),
    ("action 1 2\n0 1\n1 0\n", "line 3: extra row; table already has 1 rows",
     3, None),
    ("action 2 3\n0 1 2\n0 1\n", "line 3: row 1 has 2 entries, expected 3",
     3, None),
    ("action 2 2\n0 1\n1 y\n",
     "line 3, column 1: entry 'y' is not an integer", 3, 1),
    ("action 2 2\n0 1\n0 9\n", "line 3, column 1: entry 9 out of range 0..1",
     3, 1),
    ("", "line 1: missing 'action <n> <k>' header", 1, None),
    ("action 3 2\n0 1\n1 0\n", "line 3: expected 3 rows, found 2", 3, None),
]


def _report(parse, text):
    with pytest.raises(TableFormatError) as exc:
        parse(text)
    return str(exc.value), exc.value.line, exc.value.column


@pytest.mark.parametrize("text, message, line, column", GYRO_ERRORS)
def test_cayley_table_errors_are_frozen(text, message, line, column):
    assert _report(parse_cayley_table, text) == (message, line, column)


@pytest.mark.parametrize("text, message, line, column", ACTION_ERRORS)
def test_action_table_errors_are_frozen(text, message, line, column):
    assert _report(parse_action_table, text) == (message, line, column)


def test_both_formats_accept_comments_and_blank_lines():
    t = parse_cayley_table("# head\n\ngyro 2\nlabels e g  # names\n0 1\n\n1 0\n")
    assert (t.order, t.labels, t.table.tolist()) == (2, ("e", "g"), [[0, 1], [1, 0]])
    n, k, table = parse_action_table("action 2 3  # sizes\n\n0 1 2\n# x\n1 2 0\n")
    assert (n, k, table.tolist()) == (2, 3, [[0, 1, 2], [1, 2, 0]])
