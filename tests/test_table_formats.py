"""Error reports of the two text formats, frozen: message, line and column.

Both parsers read one headered integer table; each error path of each
format is listed once, with the exact report it gives.  A seeded corpus of
mutated texts checks both parsers against a per-entry reference reader, and
serialized tables must read back unchanged.
"""

import random

import numpy as np
import pytest
from conftest import LADDER_GROUPS

from gyrokit import (CayleyTable, TableFormatError, parse_action_table,
                     parse_cayley_table, serialize_cayley_table)
from gyrokit.actions import _sizes
from gyrokit.finite import _order
from gyrokit.catalog import cyclic, dihedral, frobenius, square_root_twist

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
    # a bad entry on an earlier row comes before a later structural error
    ("gyro 2\n0 x\n1 0\n0 1\n",
     "line 2, column 1: entry 'x' is not an integer", 2, 1),
    ("gyro 2\n0 1.0\n1\n",
     "line 2, column 1: entry '1.0' is not an integer", 2, 1),
    ("gyro 3\n0 1 2\n1 2 3\n", "line 3, column 2: entry 3 out of range 0..2",
     3, 2),
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
    # a bad entry on an earlier row comes before a later structural error
    ("action 1 2\n0 -1\n1 0\n",
     "line 2, column 1: entry -1 out of range 0..1", 2, 1),
    ("action 2 3\n0 1 0x1\n0 1\n",
     "line 2, column 2: entry '0x1' is not an integer", 2, 2),
    ("action 3 2\n1 0\n0 1e1\n",
     "line 3, column 1: entry '1e1' is not an integer", 3, 1),
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


# Differential check of the two readers against a per-entry reference: the
# one-call conversion must give the same table, or the same first error.

def _reference(text, header, sizes, labels=False):
    """The table reader entry by entry with int(), every line in order."""
    keyword, words = header.split()[0], len(header.split())
    n = k = names = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if parts[0] != keyword or len(parts) != words:
                raise TableFormatError(f"expected header '{header}'", lineno)
            n, k = sizes(parts[1:], lineno)
            continue
        if labels and parts[0] == "labels" and names is None and not rows:
            if len(parts) != n + 1:
                raise TableFormatError(
                    f"expected {n} labels, got {len(parts) - 1}", lineno)
            names = tuple(parts[1:])
            for i, name in enumerate(names):
                if name in names[:i]:
                    raise TableFormatError(f"label {name!r} is repeated", lineno)
            continue
        if len(rows) == n:
            raise TableFormatError(f"extra row; table already has {n} rows", lineno)
        if len(parts) != k:
            raise TableFormatError(
                f"row {len(rows)} has {len(parts)} entries, expected {k}", lineno)
        row = []
        for col, p in enumerate(parts):
            try:
                v = int(p)
            except ValueError:
                raise TableFormatError(f"entry {p!r} is not an integer",
                                       lineno, col)
            if not 0 <= v < k:
                raise TableFormatError(
                    f"entry {v} out of range 0..{k - 1}", lineno, col)
            row.append(v)
        rows.append(row)
    if n is None:
        raise TableFormatError(f"missing '{header}' header", 1)
    if len(rows) != n:
        raise TableFormatError(f"expected {n} rows, found {len(rows)}",
                               len(text.splitlines()) or 1)
    return n, k, np.array(rows, dtype=np.int64), names


ERROR_KINDS = ("expected header", "is not an integer", "out of range",
               "extra row", "entries, expected", "rows, found", "labels, got")
BIG = "1" + "0" * 19  # 20 digits, past int64
TOKENS = ["+1", "-0", "01", "1_0", "٣", "３", "1.0", "1e1", "inf",
          "nan", "0x1", BIG, "-" + BIG, "-1", "+", "-", "1-1", "x", "2", "3"]
SEPARATORS = [" ", "  ", "\t", "\xa0", "\x0b"]
BASES = ["gyro 4\nlabels e a b c\n" + "".join(
             " ".join(str((a + b) % 4) for b in range(4)) + "\n" for a in range(4)),
         "# Z_3\ngyro 3\n0 1 2\n1 2 0\n2 0 1\n",
         "action 2 11\n" + " ".join(map(str, range(11))) + "\n"
         + " ".join(map(str, range(10, -1, -1))) + "\n",
         "action 3 4\n0 1 2 3\n1 0 3 2\n3 2 1 0\n"]


def _mutate(rng, text):
    lines = text.split("\n")
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        words = lines[i].split(" ")
        kind = rng.randrange(12)
        if kind < 4:  # an entry or a header size becomes another token
            j = rng.randrange(len(words))
            header = words[0] in ("gyro", "action") and j > 0
            words[j] = BIG if header else rng.choice(TOKENS)
        elif kind == 4:  # another separator
            lines[i] = rng.choice(SEPARATORS).join(words)
            continue
        elif kind == 5:
            words.append("# trailing " + rng.choice(TOKENS))
        elif kind == 6:
            lines.insert(i, rng.choice(["", "  ", "# note"]))
            continue
        elif kind == 7:  # a stray labels line
            lines.insert(i, "labels " + " ".join("abcdefghijk"[:rng.randint(1, 5)]))
            continue
        elif kind == 8:  # an extra row
            lines.insert(i, lines[rng.randrange(len(lines))])
            continue
        elif kind == 9:  # a missing row
            del lines[i]
            continue
        elif kind == 10:  # a short row
            words = words[:-1]
        else:  # a long row
            words.append(rng.choice(words))
        lines[i] = " ".join(words)
    return "\n".join(lines)


def _outcome(read, text):
    try:
        return read(text)
    except TableFormatError as exc:
        return (str(exc), exc.line, exc.column)


def _as_tuple(t):
    return (t.order, t.table.dtype, t.table.tolist(), t.labels)


@pytest.mark.filterwarnings("error::UserWarning")  # numpy's "input contained no data"
def test_table_readers_agree_with_the_per_entry_reference():
    def ref_cayley(text):
        n, _, table, names = _reference(text, "gyro <n>", _order, labels=True)
        return (n, table.dtype, table.tolist(), names)

    def ref_action(text):
        n, k, table, _ = _reference(text, "action <n> <k>", _sizes)
        return (n, k, table.dtype, table.tolist())

    def cayley(text):
        return _as_tuple(parse_cayley_table(text))

    def action(text):
        n, k, table = parse_action_table(text)
        return (n, k, table.dtype, table.tolist())

    rng = random.Random(32)
    texts = BASES + [_mutate(rng, rng.choice(BASES)) for _ in range(4000)]
    kinds = set()
    for text in texts:
        for read, ref in ((cayley, ref_cayley), (action, ref_action)):
            want = _outcome(ref, text)
            assert _outcome(read, text) == want, text
            if isinstance(want[0], str):
                kinds.add(next((k for k in ERROR_KINDS if k in want[0]), "other"))
            else:
                kinds.add("table" if text.isascii() else "table of int()-only forms")
    # the corpus reaches every kind of outcome, accepted tables included
    assert {"table", "table of int()-only forms", *ERROR_KINDS} <= kinds


def test_serialized_tables_read_back_unchanged():
    tables = [square_root_twist(frobenius(p, q, r))
              for p, q, r in list(LADDER_GROUPS.values()) + [(29, 7, 7)]]
    tables += [dihedral(16), dihedral(32)]
    for t in tables:
        ct = CayleyTable(len(t), t)
        back = parse_cayley_table(serialize_cayley_table(ct))
        assert _as_tuple(back) == _as_tuple(ct)
    labelled = CayleyTable(3, cyclic(3), labels=("e", "a", "a²"))
    back = parse_cayley_table(serialize_cayley_table(labelled))
    assert _as_tuple(back) == _as_tuple(labelled)
    assert [len(t) for t in tables] == [21, 39, 57, 93, 129, 203, 32, 64]
