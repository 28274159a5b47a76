"""Finite gyrogroups from Cayley tables.

Ingests magma tables (text format below), certifies or refutes the gyrogroup
axioms exhaustively, and computes subgyrogroups, L-subgyrogroups, left
cosets and the index formula.

Only this module knows how gyrations are stored.  A carrier keeps each
distinct gyration once: ``gyr_perms[d, n]`` holds the d distinct maps and
``gyr_index[n, n]`` names the one gyr[a, b] is, so a carrier of order n
takes O(n^2 + dn) memory (d = 29 of the 41,209 pairs of the order-203
square-root twist).  Validation builds the n^3 triple tables a block of
rows at a time, and decides bijectivity and the automorphism law once per
distinct map.  Other modules read gyrations through the
``FiniteGyrogroup`` queries, each of which works on the d distinct maps:
``gyration`` and ``gyr_perm`` for single values, ``gyration_leak`` for
gyration invariance of a subset, ``defect_leak`` for the translate defect
-x + gyr[a, b]x, and ``nontrivial_gyration`` for a gyration that is not
the identity.

Subgyrogroups are boolean masks over 0..n-1 inside this module.  A mask is
closed under + and inverse by semi-naive rounds, each forming only the sums
that involve a newly added member; the lattice is enumerated by cyclic
extension, joining the distinct one-generated closures <x> onto the
subgyrogroups found so far.

Table file format (UTF-8 text)::

    gyro <n>
    labels <name0> ... <name(n-1)>     # optional
    <n rows of n whitespace-separated integers, row a = a+0 .. a+(n-1)>

Comments start with '#'.  Element 0 is always the candidate identity.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import GyroError, GyrogroupCarrier, ValidationError, violation

# Witness lists inside a single check are capped for readability; the
# violation count is always exact.
MAX_WITNESSES = 8

SUBGROUP_ENUM_CAP = 64


class TableFormatError(GyroError):
    """Malformed table text, with a 1-based line (and column) position."""

    def __init__(self, message, line, column=None):
        self.line = line
        self.column = column
        where = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{where}: {message}")


@dataclass(frozen=True)
class CayleyTable:
    """An n x n operation table over elements 0..n-1."""

    order: int
    table: np.ndarray
    labels: tuple | None = None

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        # a private copy: freezing it leaves the caller's array writable
        t = np.array(self.table, dtype=np.int64, order="C", copy=True)
        if t.shape != (self.order, self.order):
            raise ValueError(f"table shape {t.shape} != ({self.order}, {self.order})")
        if t.min() < 0 or t.max() >= self.order:
            raise ValueError("table entries out of range 0..n-1")
        t.flags.writeable = False
        object.__setattr__(self, "table", t)
        if self.labels is not None and len(self.labels) != self.order:
            raise ValueError("label count != order")


def _read_table(text, header, sizes, labels=False):
    """Read a table of integers in 0..k-1 under a header such as 'gyro <n>',
    whose words after the keyword ``sizes(words, line)`` turns into (n, k);
    with ``labels``, a 'labels' line may precede the rows.  Returns
    (n, k, table, labels), or raises TableFormatError with the position."""
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
    for row in t.table:
        lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


class FiniteGyrogroup(GyrogroupCarrier):
    """A validated finite gyrogroup: table, cached inverses, gyration store.

    Gyrations are stored once per distinct map: ``gyr_perms[k]`` is the k-th
    distinct gyration met in row-major (a, b) order, as a one-line map of
    0..n-1, and ``gyr_index[a, b]`` is the k with gyr[a, b] = gyr_perms[k].
    Construct through :func:`validate_gyrogroup`; the constructor itself
    trusts its inputs.
    """

    def __init__(self, table, inv, gyr_index, gyr_perms, labels=None):
        self.table = table
        self.inv = inv
        self.gyr_index = gyr_index
        self.gyr_perms = gyr_perms
        self.labels = labels
        for arr in (self.table, self.inv, self.gyr_index, self.gyr_perms):
            arr.flags.writeable = False
        self.zero = 0

    @property
    def order(self):
        return self.table.shape[0]

    def elements(self):
        return range(self.order)

    def oplus(self, a, b):
        return int(self.table[a, b])

    def oinv(self, a):
        return int(self.inv[a])

    def equals(self, a, b):
        return a == b

    def distance(self, a, b):
        return 0.0 if a == b else 1.0

    def contains(self, a):
        return isinstance(a, (int, np.integer)) and 0 <= a < self.order

    def gyration(self, a, b, c):
        return int(self.gyr_perms[self.gyr_index[a, b], c])

    def gyr_perm(self, a, b):
        return self.gyr_perms[self.gyr_index[a, b]]

    def gyration_leak(self, members, over=None):
        """The first (a, b, h), in row-major order over a in G, b in ``over``
        (all of G by default) and h in sorted H = ``members``, with
        gyr[a, b]h outside H; None if every such gyration maps H into H."""
        h, inside = self._member_mask(members)
        bs = np.arange(self.order) if over is None else self._member_mask(over)[0]
        leak = self._first_hit(~inside[self.gyr_perms[:, h]], bs)
        if leak is None:
            return None
        a, j, i = leak
        return (a, int(bs[j]), int(h[i]))

    def defect_leak(self, members):
        """The first (a, b, x) in row-major order with the translate defect
        -x + gyr[a, b]x outside H = ``members``, or None."""
        _, inside = self._member_mask(members)
        # outside[x, y] is True iff -x + y lies outside H
        outside = ~inside[self.table[self.inv]]
        return self._first_hit(outside[np.arange(self.order), self.gyr_perms])

    def nontrivial_gyration(self):
        """The first (a, b, c) in row-major order with gyr[a, b]c != c, or
        None if every gyration is the identity."""
        return self._first_hit(self.gyr_perms != np.arange(self.order))

    def is_degenerate(self):
        """True iff every gyration is the identity, i.e. the table is a group."""
        return self.nontrivial_gyration() is None

    def _first_hit(self, hits, bs=None):
        """The first (a, j, i) in row-major order with hits[k, i] True for
        the distinct gyration k = gyr[a, bs[j]] (bs = all of G by default).
        ``hits`` has one row per distinct gyration, so each question is
        answered on d rows and only its first pair is expanded."""
        index = self.gyr_index if bs is None else self.gyr_index[:, bs]
        pair = _first_true(hits.any(axis=1)[index])
        if pair is None:
            return None
        a, j = pair
        return (a, j, int(np.argmax(hits[index[a, j]])))

    def _member_mask(self, members):
        h = np.array(sorted(int(x) for x in members), dtype=np.int64)
        inside = np.zeros(self.order, dtype=bool)
        inside[h] = True
        return h, inside

    def same_carrier(self, other):
        return self is other or np.array_equal(self.table, other.table)

    def __repr__(self):
        kind = "degenerate" if self.is_degenerate() else "nondegenerate"
        return f"FiniteGyrogroup(order={self.order}, {kind})"


def _first_true(mask):
    """Index tuple of the first True entry of ``mask`` in row-major order,
    or None; found by a flat argmax, so no list of all hits is built."""
    if not mask.size:
        return None
    k = int(np.argmax(mask))
    if not mask.flat[k]:
        return None
    return tuple(int(i) for i in np.unravel_index(k, mask.shape))


# Cells of one block of the (n, n, n) triple tables; a block holds whole
# rows a, at least one.  Small blocks stay in cache: at n = 203, blocks of
# 2^16 cells validate faster than blocks of 2^20 and peak 45 MB lower.
_BLOCK_CELLS = 1 << 16


def _triple_blocks(t, inv):
    """Yield (a0, a_bc, gyr) over consecutive blocks of rows a = a0 + i:
    a_bc[i, b, c] = a+(b+c) and gyr[i, b, c] = gyr[a, b]c per the gyrator
    identity -(a+b) + (a+(b+c))."""
    n = t.shape[0]
    rows = max(1, _BLOCK_CELLS // (n * n))
    ginv = inv[t]  # -(a+b)
    for a0 in range(0, n, rows):
        a_bc = t[np.arange(a0, min(a0 + rows, n))[:, None, None], t[None, :, :]]
        yield a0, a_bc, t[ginv[a0:a0 + rows, :, None], a_bc]


def _index_rows(rows, seen, distinct):
    """The index in ``distinct`` of every row of the 2-D array ``rows``.

    ``seen`` maps a row's bytes to its index; rows not seen before are
    appended to ``distinct`` in row order.  Rows are compared exactly, by
    sorting them as opaque byte strings.
    """
    keys = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1])))
    _, first, inverse = np.unique(keys.ravel(), return_index=True,
                                  return_inverse=True)
    ids = np.empty(len(first), dtype=np.int64)
    for u in np.argsort(first):
        row = rows[first[u]]
        ids[u] = seen.setdefault(row.tobytes(), len(seen))
        if ids[u] == len(distinct):
            distinct.append(row.copy())
    return ids[inverse.ravel()]


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

    # (2) every row is a permutation (necessary for left cancellation)
    sorted_rows = np.sort(table, axis=1)
    bad_rows = np.nonzero((sorted_rows != ai).any(axis=1))[0]
    for a in bad_rows[:MAX_WITNESSES]:
        row = table[a]
        seen = {}
        witness = None
        for c, v in enumerate(row):
            if int(v) in seen:
                witness = (int(a), seen[int(v)], c)
                break
            seen[int(v)] = c
        diags.append(violation(
            "row_permutation", witness or (int(a),),
            f"row {a} is not a permutation of 0..{n - 1}"))

    # (3) G2: unique two-sided inverses
    inv = np.full(n, -1, dtype=np.int64)
    inv_ok = True
    for a in range(n):
        lefts = np.nonzero(table[:, a] == 0)[0]
        if len(lefts) == 0:
            diags.append(violation("left_inverse_exists", (a,),
                                   f"no b with b+{a} = 0"))
            inv_ok = False
        elif len(lefts) > 1:
            diags.append(violation(
                "left_inverse_unique", (a, int(lefts[0]), int(lefts[1])),
                f"element {a} has {len(lefts)} left inverses"))
            inv_ok = False
        else:
            b = int(lefts[0])
            if table[a, b] != 0:
                diags.append(violation(
                    "inverse_two_sided", (a, b),
                    f"{b}+{a} = 0 but {a}+{b} = {int(table[a, b])}"))
                inv_ok = False
            inv[a] = b

    if not inv_ok:
        diags.append(violation(
            "gyration_checks_skipped", (),
            "gyrations undefined without unique two-sided inverses"))
        return diags, table, None, None, None

    # Build the gyration store block by block, checking (5) on each block
    # while its triple tables are live: the left gyroassociative law
    # a+(b+c) = (a+b)+gyr[a,b]c over all n^3 triples.
    gyr_index = np.empty((n, n), dtype=np.int64)
    seen, distinct = {}, []
    assoc_diags, assoc_count = [], 0
    for a0, a_bc, gyr in _triple_blocks(table, inv):
        gyr_index[a0:a0 + len(gyr)] = _index_rows(
            gyr.reshape(-1, n), seen, distinct).reshape(-1, n)
        rhs = table[table[a0:a0 + len(gyr), :, None], gyr]
        mism = a_bc != rhs
        assoc_count += int(np.count_nonzero(mism))
        for i, b, c in np.argwhere(mism)[:MAX_WITNESSES - len(assoc_diags)]:
            a = a0 + i
            assoc_diags.append(violation(
                "left_gyroassociative", (int(a), int(b), int(c)),
                f"{a}+({b}+{c}) = {int(a_bc[i, b, c])} but "
                f"({a}+{b})+gyr[{a},{b}]{c} = {int(rhs[i, b, c])}"))
    gyr_perms = np.array(distinct)

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
        mism = (p[:, table] != table[p[:, :, None], p[:, None, :]]).reshape(len(p), -1)
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
    labels = t.labels if isinstance(t, CayleyTable) else None
    return FiniteGyrogroup(table=table, inv=inv, gyr_index=gyr_index,
                           gyr_perms=gyr_perms, labels=labels)


def is_subgyrogroup(g, members):
    """True iff members contains 0 and is closed under + and inverse."""
    h = sorted({int(x) for x in members})
    if not h or h[0] != 0 or h[-1] >= g.order:
        return False
    h, inside = g._member_mask(h)
    return bool(inside[g.inv[h]].all() and inside[g.table[np.ix_(h, h)]].all())


def _close(g, mask, new):
    """Close the boolean ``mask`` over 0..n-1 in place under + and inverse.

    ``new`` lists the members whose sums and inverses may be missing: every
    sum of two members outside ``new`` must already lie in ``mask``.  Each
    round forms only the sums a+b and b+a with b newly added, and the
    inverses of the new members; it stops when a round adds nothing.
    """
    while len(new):
        s = np.flatnonzero(mask)
        hit = np.zeros_like(mask)
        hit[g.table[s[:, None], new]] = True
        hit[g.table[new[:, None], s]] = True
        hit[g.inv[new]] = True
        new = np.flatnonzero(hit & ~mask)
        mask |= hit
    return mask


def subgyrogroup_closure(g, seed):
    """Smallest subgyrogroup containing ``seed``, as a sorted tuple.

    Raises ValueError for a seed member outside 0..n-1."""
    members = [int(x) for x in seed]
    outside = [x for x in members if not 0 <= x < g.order]
    if outside:
        raise ValueError(f"seed member {outside[0]} is outside 0..{g.order - 1}")
    mask = np.zeros(g.order, dtype=bool)
    mask[[0, *members]] = True
    return tuple(np.flatnonzero(_close(g, mask, np.flatnonzero(mask))).tolist())


def enumerate_subgyrogroups(g, cap=SUBGROUP_ENUM_CAP):
    """All subgyrogroups, sorted by (size, members).

    Cyclic extension (Neubuser's method): the closure of s + {x} is the
    closure of s + <x>, so every subgyrogroup is reached from {0} by joining
    one-generated closures <x> one at a time, and one x per distinct <x>
    suffices.  Each found subgyrogroup s is joined with every distinct <x>
    not inside it; the join closes only the sums that involve <x> minus s.

    Refuses orders beyond ``cap``, which bounds the lattice search: the
    number of subgyrogroups, and so the joins, can grow quickly with the
    order ((Z_2)^6 has 2,825 subgroups).
    """
    if g.order > cap:
        raise GyroError(
            f"order {g.order} exceeds enumeration cap {cap}; raise cap explicitly")
    one = np.eye(g.order, dtype=bool)
    # one mask per distinct <x>; 0 + x = x + 0 = x, so only x is new in {0, x}
    cyclic = {}
    for x in range(g.order):
        cx = _close(g, one[0] | one[x], np.array([x]))
        cyclic.setdefault(cx.tobytes(), cx)
    found = {one[0].tobytes(): one[0]}
    frontier = [one[0]]
    while frontier:
        s = frontier.pop()
        for cx in cyclic.values():
            extra = cx & ~s
            if not extra.any():
                continue
            c = _close(g, s | cx, np.flatnonzero(extra))
            key = c.tobytes()
            if key not in found:
                found[key] = c
                frontier.append(c)
    subs = [tuple(np.flatnonzero(m).tolist()) for m in found.values()]
    return sorted(subs, key=lambda s: (len(s), s))


def is_l_subgyrogroup(g, members):
    """True iff gyr[a, h](H) = H for all a in G and h in H."""
    if not is_subgyrogroup(g, members):
        return False
    return g.gyration_leak(members, over=members) is None


@dataclass(frozen=True)
class CosetPartition:
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
    equal_sizes: bool
    overlaps: tuple = field(default=())
    coset_of: tuple | None = None

    def index_formula_holds(self, order):
        return self.is_partition and self.equal_sizes and \
            order == self.index * len(self.subgroup)


def left_cosets(g, members):
    """The coset space G/H as a CosetPartition (H must be a subgyrogroup),
    cosets in order of their first representative a."""
    if not is_subgyrogroup(g, members):
        raise ValueError(f"{tuple(members)} is not a subgyrogroup")
    h = sorted({int(x) for x in members})
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
                          equal_sizes=True,  # each a+H lists |H| sums
                          overlaps=overlaps,
                          coset_of=tuple(owner.tolist()) if is_partition else None)
