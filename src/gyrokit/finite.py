"""Finite gyrogroups from Cayley tables.

Ingests magma tables (text format below), certifies or refutes the gyrogroup
axioms exhaustively, and computes subgyrogroups, L-subgyrogroups, left
cosets, coset tables (``_coset_table``, the one builder) and quotients.
Every kernel holds N, the closure of the translate defects, so each finite
action reduces through the group G/N, which ``_quotient`` certifies.

Only this module knows how gyrations are stored.  A carrier keeps each
distinct gyration once: ``gyr_perms[d, n]`` holds the d distinct maps and
``gyr_index[n, n]`` names the one gyr[a, b] is, so a carrier of order n
takes O(n^2 + dn) memory (d = 29 of the 41,209 pairs of the order-203
square-root twist).  Validation builds the n^3 gyration values a block of
rows at a time and finds the distinct maps among them by fingerprint, each
block confirmed by one exact comparison; after a first collision the store
keys rows by their bytes.  It decides bijectivity and the
automorphism law once per distinct map, and gyroassociativity exactly
through an n^2 table of the pairs (x, y) with x + (-x + y) != y, so a valid
table makes no n^3 comparison for that law.  Other modules read gyrations
through the ``FiniteGyrogroup`` queries, each of which works on the d
distinct maps: ``gyration`` for elements or batches of them, ``gyr_perm``
for one map, ``gyration_leak`` for invariance of a subset under every
gyr[a, b] with a, b in G, ``defect_leak`` for the translate defect
-x + gyr[a, b]x, and ``nontrivial_gyration`` for a gyration that is not the
identity.

Subgyrogroups are boolean masks over 0..n-1 inside this module.  A mask is
closed by plain rounds under +: each round adds every sum of two members,
and the closure is done when a round adds nothing.  No inverse step is
needed, since a nonempty finite subset H closed under + is a subgyrogroup:

    for x in H, the map h -> x + h sends H into H.  It is injective by
    left cancellation, so it permutes the finite set H.  So x + h = x for
    some h in H, which gives h = 0.  Also x + h = 0 for some h in H, which
    gives h = -x.

A round that starts with more than n/2 members sets the whole mask
instead, since a proper subgyrogroup H has at most n/2 members:

    if x + h = h' with h, h' in H, right cancellation and the gyrator
    identity give x = h' + gyr[h', h](-h) = h' + (-(h' + h) + h'), in H;

so for x outside H the translate x + H, of |H| members as rows are
permutations, misses H, and 2|H| <= n.  The closure contains the mask, so
the exit is exact.  The lattice is enumerated by cyclic extension, joining
the distinct one-generated closures <x> onto the subgyrogroups found so
far; a closure depends only on the union s | <x> it starts from, so each
union is closed once, and each <x>, its own join with {0}, is closed only
as <x>.  The leak queries range over all pairs of G and answer from the
first pair of each distinct gyration, cached per carrier, in O(dn).

Table file format (UTF-8 text)::

    gyro <n>
    labels <name0> ... <name(n-1)>     # optional
    <n rows of n whitespace-separated integers, row a = a+0 .. a+(n-1)>

Comments start with '#'.  Element 0 is always the candidate identity.
Rows holding only ASCII digits, signs and blanks are converted by one
``np.loadtxt``; any other table, or one it or the range test refuses, is
read entry by entry with ``int()``, which names the first bad line and column.
"""

import random
from functools import cached_property

import numpy as np

from .core import (MAX_WITNESSES, GyroError, GyrogroupCarrier,
                   InvalidElementError, Record, ValidationError, _first_repeats,
                   _read_int, _read_members, _scalar, _walk, violation)

SUBGROUP_ENUM_CAP = 64
# the characters of the rows loadtxt reads: numpy < 2 would read '1.0' as 1
_PLAIN = str.maketrans("", "", "0123456789+- \t")


class TableFormatError(GyroError):
    """Malformed table text, with a 1-based line (and column) position."""

    def __init__(self, message, line, column=None):
        self.line = line
        self.column = column
        where = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{where}: {message}")


class CayleyTable(Record):
    """An n x n operation table over elements 0..n-1."""

    order: int
    table: np.ndarray
    labels: tuple | None = None

    def __post_init__(self):
        # a bool or float order would be written as 'gyro True', and refused
        object.__setattr__(self, "order", _read_int(self.order, "order"))
        if self.order < 1:
            raise ValueError("order must be >= 1")
        t = np.asarray(self.table)
        if t.shape != (self.order, self.order):
            raise ValueError(f"table shape {t.shape} != ({self.order}, {self.order})")
        if not np.issubdtype(t.dtype, np.integer):  # bool is no integer type
            raise ValueError(f"table entries of type {t.dtype} are not integers")
        # a private copy: freezing it leaves the caller's array writable
        t = np.array(t, dtype=np.int64, order="C", copy=True)
        if t.min() < 0 or t.max() >= self.order:
            raise ValueError("table entries out of range 0..n-1")
        t.flags.writeable = False
        object.__setattr__(self, "table", t)
        if self.labels is not None and len(self.labels) != self.order:
            raise ValueError("label count != order")
        for i, name in enumerate(self.labels or ()):
            # the text format splits labels at whitespace and cuts at '#'
            if not isinstance(name, str) or "#" in name \
                    or name.split() != [name]:
                raise ValueError(f"label {name!r} is not a non-empty string "
                                 f"free of whitespace and '#'")
            if name in self.labels[:i]:
                raise ValueError(f"label {name!r} is repeated")


def _read_table(text, header, sizes, labels=False):
    """Read a table of integers in 0..k-1 under a header such as 'gyro <n>',
    whose words after the keyword ``sizes(words, line)`` turns into (n, k);
    with ``labels``, a 'labels' line may precede the rows.  Returns
    (n, k, table, labels), or raises TableFormatError with the position."""
    keyword, words = header.split()[0], len(header.split())
    n = k = names = None
    rows = {}  # line number -> row text
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            parts = line.split()
            if parts[0] != keyword or len(parts) != words:
                raise TableFormatError(f"expected header '{header}'", lineno)
            n, k = sizes(parts[1:], lineno)
        elif labels and names is None and not rows \
                and line.split()[0] == "labels":
            names = tuple(line.split()[1:])
            if len(names) != n:
                raise TableFormatError(
                    f"expected {n} labels, got {len(names)}", lineno)
            for i, name in enumerate(names):
                if name in names[:i]:
                    raise TableFormatError(f"label {name!r} is repeated", lineno)
        else:
            rows[lineno] = line
    if n is None:
        raise TableFormatError(f"missing '{header}' header", 1)
    if len(rows) == n and not "".join(rows.values()).translate(_PLAIN):
        try:  # all rows in one call; the loop below reads what this refuses
            table = np.loadtxt(list(rows.values()), dtype=np.int64,
                               comments=None, ndmin=2)
            if table.shape == (n, k) and 0 <= table.min() and table.max() < k:
                return n, k, table, names
        except ValueError:
            pass
    table = []
    for lineno, line in rows.items():
        if len(table) == n:
            raise TableFormatError(f"extra row; table already has {n} rows", lineno)
        parts = line.split()
        if len(parts) != k:
            raise TableFormatError(
                f"row {len(table)} has {len(parts)} entries, expected {k}", lineno)
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
        table.append(row)
    if len(table) != n:
        raise TableFormatError(f"expected {n} rows, found {len(table)}",
                               len(text.splitlines()) or 1)
    return n, k, np.array(table, dtype=np.int64), names


def _order(args, lineno):
    try:
        n = int(args[0])
    except ValueError:
        raise TableFormatError(f"order {args[0]!r} is not an integer", lineno)
    if n < 1:
        raise TableFormatError("order must be >= 1", lineno)
    return n, n


def parse_cayley_table(text):
    """Parse the text format into a CayleyTable, with positional diagnostics."""
    n, _, table, labels = _read_table(text, "gyro <n>", _order, labels=True)
    return CayleyTable(order=n, table=table, labels=labels)


def serialize_cayley_table(t):
    """Canonical text form: single spaces, no trailing whitespace."""
    lines = [f"gyro {t.order}"]
    if t.labels is not None:
        lines.append("labels " + " ".join(t.labels))
    lines += [" ".join(map(str, row)) for row in t.table.tolist()]
    return "\n".join(lines) + "\n"


class FiniteGyrogroup(GyrogroupCarrier):
    """A validated finite gyrogroup: table, cached inverses, gyration store.

    Elements are the integers 0..n-1.  The operations broadcast over integer
    arrays and give a 0-d result as a Python scalar, decided by ``.ndim``:
    ``int()`` would also take a one-element batch on numpy < 2.

    Gyrations are stored once per distinct map: ``gyr_perms[k]`` is the k-th
    distinct gyration met in row-major (a, b) order, as a one-line map of
    0..n-1, and ``gyr_index[a, b]`` is the k with gyr[a, b] = gyr_perms[k].
    Construct through :func:`validate_gyrogroup`; the constructor itself
    trusts its inputs.
    """

    def __init__(self, table, inv, gyr_index, gyr_perms):
        self.table = _frozen(table)
        self.inv = _frozen(inv)
        self.gyr_index = _frozen(gyr_index)
        self.gyr_perms = _frozen(gyr_perms)
        self.zero = 0

    @property
    def order(self):
        return self.table.shape[0]

    def _refuse_non_elements(self, *entries):
        """Raise InvalidElementError at the first entry ``contains`` rejects
        (unchecked, -1 would index the last row)."""
        for x in entries:
            # ints at once: contains() took 5 us, a scalar oplus 0.6 (Xeon)
            if type(x) not in (int, np.int64) or not 0 <= x < self.order:
                inside = np.ravel(self.contains(x))
                if not inside.all():
                    bad = _scalar(np.ravel(x)[np.argmin(inside)])
                    raise InvalidElementError(f"entry {bad!r} is not an "
                                              f"element of 0..{self.order - 1}")

    def oplus(self, a, b):
        self._refuse_non_elements(a, b)
        return _scalar(self.table[a, b])

    def oinv(self, a):
        self._refuse_non_elements(a)
        return _scalar(self.inv[a])

    def distance(self, a, b):
        return _scalar(np.not_equal(a, b) * 1.0)

    def contains(self, a):
        a = np.asarray(a)
        if not np.issubdtype(a.dtype, np.integer):
            a = np.full(a.shape, -1)  # no entry of another type is an element
        return _scalar((0 <= a) & (a < self.order))

    def gyration(self, a, b, c):
        self._refuse_non_elements(a, b, c)
        return _scalar(self.gyr_perms[self.gyr_index[a, b], c])

    def sample_batch(self, rng, count):
        return rng.integers(0, self.order, size=count)

    def draw_plan(self, rng, count, bounds):
        """The draw ``sample_batch(rng, count)`` planned by blocks through
        ``_walk`` (the carrier contract of ``core``)."""
        at = _walk(rng, bounds, self.sample_batch)
        return lambda k: self.sample_batch(at(k), bounds[k + 1] - bounds[k])

    def gyr_perm(self, a, b):
        self._refuse_non_elements(a, b)
        return self.gyr_perms[self.gyr_index[a, b]]

    def gyration_leak(self, members):
        """The first (a, b, h), in row-major order over a, b in G and h in
        sorted H = ``members``, with gyr[a, b]h outside H; None if every
        gyration maps H into H.  The pair comes from the first pairs, with no
        n^2 scan."""
        h, inside = self._member_mask(members)
        leak = self._first_hit(~inside[self.gyr_perms[:, h]])
        if leak is None:
            return None
        a, b, i = leak
        return (a, b, int(h[i]))

    def defect_leak(self, members):
        """The first (a, b, x) in row-major order with the translate defect
        -x + gyr[a, b]x outside H = ``members``, or None."""
        _, inside = self._member_mask(members)
        return self._first_hit(~inside[self._defects])

    @cached_property
    def _defects(self):
        """Row k: the translate defects -x + gyr_perms[k, x] over all x."""
        return _frozen(self.table[self.inv, self.gyr_perms])

    @cached_property
    def _first_pairs(self):
        """Entry k: the flat index a*n + b of the first (a, b) in row-major
        order with gyr_index[a, b] = k, where the running maximum of gyr_index
        rises, as gyrations are numbered in order of first appearance."""
        rising = np.maximum.accumulate(self.gyr_index.ravel())
        return _frozen(np.flatnonzero(np.diff(rising, prepend=-1)))

    def nontrivial_gyration(self):
        """The first (a, b, c) in row-major order with gyr[a, b]c != c, or
        None if every gyration is the identity."""
        return self._first_hit(self.gyr_perms != np.arange(self.order))

    def is_degenerate(self):
        """True iff every gyration is the identity, i.e. the table is a group."""
        return self.nontrivial_gyration() is None

    def _first_hit(self, hits):
        """The first (a, b, i) in row-major order over a, b in G with
        hits[k, i] True for the distinct gyration k = gyr[a, b], or None.
        ``hits`` has one row per distinct gyration, so each question is
        answered on d rows and only one pair is expanded: the first pair of
        the first k with a hit, as gyrations are numbered by first
        appearance, so ``_first_pairs`` rise with k."""
        hit = hits.any(axis=1)
        k = int(np.argmax(hit))
        if not hit[k]:
            return None
        a, b = divmod(int(self._first_pairs[k]), self.order)
        return (a, b, int(np.argmax(hits[k])))

    def _member_mask(self, members):
        h = np.array(_read_members(self, members), dtype=np.int64)
        inside = np.zeros(self.order, dtype=bool)
        inside[h] = True
        return h, inside

    def same_carrier(self, other):
        return self is other or np.array_equal(self.table, other.table)

    def __repr__(self):
        kind = "degenerate" if self.is_degenerate() else "nondegenerate"
        return f"FiniteGyrogroup(order={self.order}, {kind})"


def _frozen(arr):
    arr.flags.writeable = False
    return arr


# Cells of one block of the (n, n, n) gyration values; a block holds whole
# rows a, at least one.  Small blocks stay in cache: at n = 203, blocks of
# 2^16 cells validate faster than blocks of 2^20 and peak 45 MB lower.
_BLOCK_CELLS = 1 << 16


def _gyration_blocks(t, inv):
    """Yield (a0, gyr) over consecutive blocks of rows a = a0 + i, where
    gyr[i, b, c] = gyr[a, b]c per the gyrator identity -(a+b) + (a+(b+c)).
    Flat takes from the table build it faster than multi-axis fancy
    indexing would, and at most two block-sized arrays are live at once."""
    n = t.shape[0]
    rows = max(1, _BLOCK_CELLS // (n * n))
    flat = t.ravel()
    starts = inv[t] * n  # where row -(a+b) begins in ``flat``
    for a0 in range(0, n, rows):
        at = t[a0:a0 + rows].take(t, axis=1)  # a+(b+c)
        at += starts[a0:a0 + rows, :, None]
        gyr = flat.take(at)
        del at
        yield a0, gyr


# Fingerprint weights for gyration rows: a row's dot product with them, mod
# 2^64, reused cyclically past 4096 columns.  Drawn by the stdlib generator,
# which numpy imports anyway: no import loads numpy.random, about 6 MB of
# resident memory (test_importing_gyrokit_loads_no_numpy_random).
_FINGERPRINT_WEIGHTS = np.frombuffer(
    random.Random(0x67797231).randbytes(8 * 4096), dtype="<i8")


# Bytes as keys from the start: order 203 validates in 86 ms, not 40 (2-CPU Xeon).
class _RowStore:
    """The distinct rows met so far, numbered in order of first appearance.

    ``rows`` holds them in one array, and ``keys`` maps each row's key to
    its index.  Keys are fingerprints until a block differs from the stored
    rows its fingerprints name, which only a collision causes; from then on
    (``exact``) every row is keyed by its bytes.
    """

    def __init__(self, width):
        self.weights = np.resize(_FINGERPRINT_WEIGHTS, width)
        self.rows = np.empty((0, width), dtype=np.int64)
        self.keys = {}
        self.exact = False

    def index(self, rows):
        """The index of every row of the 2-D array ``rows``, storing the
        rows not met before in row order."""
        while True:
            keys = (rows.view(np.dtype((np.void, rows[0].nbytes))).ravel()
                    if self.exact else rows @ self.weights)
            uniq, first, inverse = np.unique(keys, return_index=True,
                                             return_inverse=True)
            known, order = dict(self.keys), np.argsort(first)
            ids = np.empty(len(order), dtype=np.int64)
            # unseen keys take the next ids in order of first appearance
            ids[order] = [known.setdefault(k, len(known)) for k in uniq[order].tolist()]
            stored = self.rows
            if len(known) > len(stored):
                stored = np.vstack([stored, rows[np.sort(first[ids >= len(stored)])]])
            ids = ids[inverse.ravel()]
            if np.array_equal(stored[ids], rows):
                self.rows, self.keys = stored, known
                return ids
            # a fingerprint collision: re-key the store by row bytes
            self.exact = True
            self.keys = {row.tobytes(): i for i, row in enumerate(self.rows)}


def diagnose_gyrogroup(t):
    """Run the six validation checks in order; return all diagnostics.

    An empty list means the table is a gyrogroup.  Checks never stop at the
    first violation inside a stage; the gyration stages are skipped (with a
    diagnostic) only when no two-sided inverse map exists to define them.
    """
    return _diagnose(t)[0]


def _diagnose(t):
    """The diagnostics of :func:`diagnose_gyrogroup` with what they were
    computed from: (diagnostics, table, inverses, gyr_index, gyr_perms).
    The last three are None when the inverse stage fails."""
    if isinstance(t, CayleyTable):
        table = t.table
    else:
        table = CayleyTable(order=len(t), table=t).table
    n = table.shape[0]
    ai = np.arange(n)
    diags = []

    # (1) G1: row 0 is the identity row
    bad = np.nonzero(table[0] != ai)[0]
    for b in bad[:MAX_WITNESSES]:
        diags.append(violation("identity_row", (int(b),),
                               f"0+{b} = {int(table[0, b])} != {b}"))

    # (2) every row is a permutation (necessary for left cancellation): a
    # row of entries in 0..n-1 is one unless it repeats an entry
    for a, c0, c1 in _first_repeats(table)[:MAX_WITNESSES]:
        diags.append(violation(
            "row_permutation", (a, c0, c1),
            f"row {a} is not a permutation of 0..{n - 1}"))

    # (3) G2: unique two-sided inverses
    inv = np.full(n, -1, dtype=np.int64)
    inv_diags = []
    for a in range(n):
        lefts = np.nonzero(table[:, a] == 0)[0]
        if len(lefts) == 0:
            inv_diags.append(violation("left_inverse_exists", (a,),
                                       f"no b with b+{a} = 0"))
        elif len(lefts) > 1:
            inv_diags.append(violation(
                "left_inverse_unique", (a, int(lefts[0]), int(lefts[1])),
                f"element {a} has {len(lefts)} left inverses"))
        else:
            b = int(lefts[0])
            if table[a, b] != 0:
                inv_diags.append(violation(
                    "inverse_two_sided", (a, b),
                    f"{b}+{a} = 0 but {a}+{b} = {int(table[a, b])}"))
            inv[a] = b

    diags.extend(inv_diags)
    if inv_diags:
        diags.append(violation(
            "gyration_checks_skipped", (),
            "gyrations undefined without unique two-sided inverses"))
        return diags, table, None, None, None

    # Build the gyration store block by block, and check (5) the left
    # gyroassociative law a+(b+c) = (a+b)+gyr[a,b]c over all n^3 triples.
    # With x = a+b and y = a+(b+c), gyr[a,b]c = -x + y, so the law fails
    # at (a, b, c) exactly when bad[x, y]: x + (-x + y) != y.  That n^2
    # table decides the law; only when it has a true entry are the triples
    # looked up in it, for the exact count and the first witnesses.
    bad = table[ai[:, None], table[inv]] != ai
    check_assoc = bool(bad.any())
    gyr_index = np.empty((n, n), dtype=np.int64)
    store = _RowStore(n)
    assoc_diags, assoc_count = [], 0
    for a0, gyr in _gyration_blocks(table, inv):
        gyr_index[a0:a0 + len(gyr)] = store.index(
            gyr.reshape(-1, n)).reshape(-1, n)
        if not check_assoc:
            continue
        ab = table[a0:a0 + len(gyr)]  # row a holds a+b
        a_bc = ab.take(table, axis=1)
        mism = bad[ab[:, :, None], a_bc]
        assoc_count += int(np.count_nonzero(mism))
        for i, b, c in np.argwhere(mism)[:MAX_WITNESSES - len(assoc_diags)]:
            a = a0 + i
            assoc_diags.append(violation(
                "left_gyroassociative", (int(a), int(b), int(c)),
                f"{a}+({b}+{c}) = {int(a_bc[i, b, c])} but "
                f"({a}+{b})+gyr[{a},{b}]{c} = "
                f"{int(table[ab[i, b], gyr[i, b, c]])}"))
    gyr_perms = store.rows

    # (4) each gyr[a,b] is a bijection and respects the operation (G3),
    # decided once per distinct gyration and reported per pair (a, b)
    not_bij = (np.sort(gyr_perms, axis=1) != ai).any(axis=1)
    for k in np.flatnonzero(not_bij[gyr_index])[:MAX_WITNESSES]:
        a, b = divmod(int(k), n)
        diags.append(violation("gyration_bijective", (a, b),
                               f"gyr[{a},{b}] is not a bijection"))
    # auto_uv[k] is the first (u, v) with p(u+v) != p(u)+p(v), p = gyr_perms[k]
    auto_bad = np.zeros(len(gyr_perms), dtype=bool)
    auto_uv = np.zeros((len(gyr_perms), 2), dtype=np.int64)
    chunk = max(1, _BLOCK_CELLS // (n * n))
    for k0 in range(0, len(gyr_perms), chunk):
        p = gyr_perms[k0:k0 + chunk]
        mism = (p.take(table, axis=1)
                != table.ravel().take(p[:, :, None] * n + p[:, None, :])).reshape(len(p), -1)
        first = np.argmax(mism, axis=1)
        auto_bad[k0:k0 + len(p)] = mism[np.arange(len(p)), first]
        auto_uv[k0:k0 + len(p)] = np.stack(np.divmod(first, n), axis=1)
    for k in np.flatnonzero(auto_bad[gyr_index])[:MAX_WITNESSES]:
        a, b = divmod(int(k), n)
        u, v = map(int, auto_uv[gyr_index[a, b]])
        diags.append(violation(
            "gyration_automorphism", (a, b, u, v),
            f"gyr[{a},{b}]({u}+{v}) != gyr[{a},{b}]{u}+gyr[{a},{b}]{v}"))

    diags.extend(assoc_diags)
    if assoc_count > MAX_WITNESSES:
        diags.append(violation(
            "left_gyroassociative_count", (assoc_count,),
            f"{assoc_count} of {n ** 3} triples violate gyroassociativity"))

    # (6) left loop property: gyr[a+b, b] = gyr[a, b] pointwise (G4).  Equal
    # indices mean equal maps, so only pairs whose indices differ are
    # scanned over c; each such pair has at least one witness c.
    shifted = gyr_index[table, ai[None, :]]
    triples = []
    for a, b in np.argwhere(shifted != gyr_index)[:MAX_WITNESSES]:
        moved, kept = gyr_perms[shifted[a, b]], gyr_perms[gyr_index[a, b]]
        triples.extend((a, b, c, moved[c], kept[c])
                       for c in np.flatnonzero(moved != kept))
    for a, b, c, x, y in triples[:MAX_WITNESSES]:
        diags.append(violation(
            "left_loop", (int(a), int(b), int(c)),
            f"gyr[{a}+{b},{b}]{c} = {int(x)} != gyr[{a},{b}]{c} = {int(y)}"))
    return diags, table, inv, gyr_index, gyr_perms


def validate_gyrogroup(t):
    """Certify a table as a gyrogroup or raise ValidationError with witnesses."""
    diags, table, inv, gyr_index, gyr_perms = _diagnose(t)
    if diags:
        raise ValidationError(diags)
    return FiniteGyrogroup(table=table, inv=inv, gyr_index=gyr_index,
                           gyr_perms=gyr_perms)


def is_subgyrogroup(g, members):
    """True iff members are elements, contain 0 and are closed under + and
    inverse."""
    try:
        h, inside = g._member_mask(members)
    except ValueError:
        return False
    if not len(h) or h[0] != 0:
        return False
    return bool(inside[g.inv[h]].all() and inside[g.table[np.ix_(h, h)]].all())


def _close(g, mask):
    """Close the nonempty boolean ``mask`` over 0..n-1 in place under +,
    by rounds that add every sum of two members until one adds nothing; a
    round that starts with more than n/2 members sets the whole mask.  The
    module docstring proves the result a subgyrogroup and the exit exact.
    Each round reads the members once, which also tells whether it grew."""
    table, half = g.table, g.order // 2
    s, last = mask.nonzero()[0], 0
    while last < len(s) <= half:  # the last round grew the mask
        mask[table[s[:, None], s]] = True
        last, s = len(s), mask.nonzero()[0]
    if len(s) > half:
        mask[:] = True
    return mask


def subgyrogroup_closure(g, seed):
    """Smallest subgyrogroup containing ``seed``, as a sorted tuple.

    Raises ValueError for a seed member that is not an element: not an
    integer, or outside 0..n-1."""
    members = _read_members(g, seed)
    mask = np.zeros(g.order, dtype=bool)
    mask[[0, *members]] = True
    return tuple(np.flatnonzero(_close(g, mask)).tolist())


def enumerate_subgyrogroups(g, cap=SUBGROUP_ENUM_CAP):
    """All subgyrogroups, sorted by (size, members), by :func:`_lattice`.

    Refuses orders beyond ``cap``, which bounds the lattice search: the
    number of subgyrogroups, and so the joins, can grow quickly with the
    order ((Z_2)^6 has 2,825 subgroups).  ``cap`` must be an integer.
    """
    cap = _read_int(cap, "cap")
    if g.order > cap:
        raise GyroError(
            f"order {g.order} exceeds enumeration cap {cap}; raise cap explicitly")
    return _lattice(g)


def _lattice(g):
    """All subgyrogroups, sorted by (size, members).  Run on G/N, it lists
    the subgyrogroups of G that pass the coset criterion, pulled back.

    Cyclic extension (Neubuser's method): the closure of s + {x} is the
    closure of s + <x>, so every subgyrogroup is reached from {0} by
    joining one-generated closures <x> one at a time, and one x
    per distinct <x> suffices.  The <x> seed both the subgyrogroups found
    and the unions joined, as each is a subgyrogroup and {0} | <x> = <x>.
    Each found subgyrogroup s is joined with every distinct <x> not inside
    it.  A union s | <x> closed before is skipped, and a join stops as G
    once it holds more than n/2 members, the most a proper subgyrogroup has
    (proved in the module docstring).
    """
    one = np.eye(g.order, dtype=bool)
    found = {}  # the subgyrogroups found so far, keyed by their bytes
    for x in range(g.order):
        cx = _close(g, one[0] | one[x])
        found.setdefault(cx.tobytes(), cx)
    frontier = list(found.values())  # <0> = {0} first, so it is popped last
    cyclic = np.array(frontier)  # one mask per distinct <x>
    joined = set(found)  # the unions s | <x> closed so far, as bytes
    while frontier:
        s = frontier.pop()
        unions = cyclic[(cyclic & ~s).any(axis=1)] | s  # the <x> not in s
        for union in unions:
            bits = union.tobytes()
            if bits in joined:
                continue
            joined.add(bits)
            c = _close(g, union)
            key = c.tobytes()
            if key not in found:
                found[key] = c
                frontier.append(c)
    subs = [tuple(np.flatnonzero(m).tolist()) for m in found.values()]
    return sorted(subs, key=lambda s: (len(s), s))


def _defect_closure(g):
    """N, the closure of the translate defects -y + gyr[a, b]y, as a sorted
    tuple.  A subgyrogroup passes the coset criterion exactly when it
    contains N, and every kernel and point stabilizer of an action does."""
    mask = np.zeros(g.order, dtype=bool)
    mask[g._defects] = True
    return tuple(np.flatnonzero(_close(g, mask)).tolist())


def is_l_subgyrogroup(g, members):
    """True iff gyr[a, h](H) = H for all a in G and h in H: every distinct
    gyration that occurs in a column h maps H into H, so onto H, as a
    gyration is a bijection of a finite set."""
    members = tuple(members)
    if not is_subgyrogroup(g, members):
        return False
    h, inside = g._member_mask(members)
    return bool(inside[g.gyr_perms[:, h]].all(axis=1)[g.gyr_index[:, h]].all())


class CosetPartition(Record):
    """Left cosets a+H of a subgyrogroup, with partition bookkeeping.

    For an L-subgyrogroup the cosets are pairwise disjoint, cover G and all
    have size |H|; otherwise ``overlaps`` lists witness triples
    (coset_i, coset_j, shared_element).
    """

    subgroup: tuple
    cosets: tuple
    representatives: tuple
    index: int
    is_partition: bool
    overlaps: tuple = ()
    coset_of: tuple | None = None

    def index_formula_holds(self, order):
        return self.is_partition and order == self.index * len(self.subgroup)


def left_cosets(g, members):
    """The coset space G/H as a CosetPartition (H must be a subgyrogroup),
    cosets in order of their first representative a."""
    members = tuple(members)
    if not is_subgyrogroup(g, members):
        raise ValueError(f"{members} is not a subgyrogroup")
    h = _read_members(g, members)
    sums = np.ascontiguousarray(np.sort(g.table[:, h], axis=1))  # row a: a+H
    rows = sums.view(np.dtype((np.void, sums.itemsize * len(h)))).ravel()
    reps = np.sort(np.unique(rows, return_index=True)[1])  # compared as bytes
    cosets = sums[reps]
    flat = cosets.ravel()
    elements, at = np.unique(flat, return_index=True)
    owner = np.full(g.order, -1)
    owner[elements] = at // len(h)  # the first coset holding each element
    again = np.ones(len(flat), dtype=bool)
    again[at] = False
    overlaps = tuple((int(owner[flat[i]]), i // len(h), int(flat[i]))
                     for i in np.flatnonzero(again)[:MAX_WITNESSES].tolist())
    is_partition = not overlaps and len(elements) == g.order
    return CosetPartition(subgroup=tuple(h), cosets=tuple(map(tuple, cosets.tolist())),
                          representatives=tuple(reps.tolist()), index=len(reps),
                          is_partition=is_partition,
                          overlaps=overlaps,
                          coset_of=tuple(owner.tolist()) if is_partition else None)


def _coset_table(g, members):
    """(partition, coset_of, reps, act) for the left cosets of the
    subgyrogroup ``members``, with act[a, i] = coset_of[a + reps[i]].
    Raises GyroError unless the cosets partition G and act is well defined."""
    part = left_cosets(g, members)
    if not part.is_partition:
        raise GyroError(f"cosets of {part.subgroup} do not partition the carrier")
    coset_of = np.array(part.coset_of)
    reps = np.array(part.representatives)
    act = coset_of[g.table[:, reps]]
    # representative independence: a.(x+H) may not depend on x within a coset
    if not np.array_equal(coset_of[g.table], act[:, coset_of]):
        a, x = map(int, np.argwhere(coset_of[g.table] != act[:, coset_of])[0])
        raise GyroError(f"coset action ill-defined at a={a}, x={x}")
    return part, coset_of, reps, act


def _quotient(g, members):
    """(G/H, coset_of, reps) for a subgyrogroup H = ``members`` that holds
    every translate defect, coset i being reps[i] + H.  G/H is certified as
    a group (Suksumran and Wiboonton, 2015), or GyroError is raised."""
    part, coset_of, reps, act = _coset_table(g, members)
    qt = act[reps]  # (x + H) + (y + H) = (x + y) + H at x, y in reps
    # _coset_table checked the representative of y + H; this checks x + H's
    if not np.array_equal(qt[coset_of], act):
        a, i = map(int, np.argwhere(qt[coset_of] != act)[0])
        raise GyroError(f"coset operation depends on the choice of "
                        f"representatives at a={a}, b={reps[i]}")
    q = validate_gyrogroup(qt)
    if not q.is_degenerate():
        raise GyroError(f"G/H for H={part.subgroup} is not a group")
    return q, coset_of, reps
