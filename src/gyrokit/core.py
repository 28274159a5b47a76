"""Carrier contract and the derived gyrogroup algebra.

Every concrete carrier (finite table, ball, ball-rotation pairs) implements
the small ``GyrogroupCarrier`` interface, gyrations included: the finite
carrier reads them from its validated store, the ball carriers evaluate
Ungar's closed forms, and the pair carrier B² × Z_m takes its factors'.
Every carrier draws and broadcasts over batches, so the rest is derived
from it as one batch expression: coaddition, conjugation, and the
cancellation-law and axiom-residual check suites shared by all carriers.
Every sampled check draws block by block through one driver,
:func:`_plan_triples` and :func:`_run_blocks`, holding no draw and making
no generator or seed before it draws, so that importing the package loads
no ``numpy.random``.  Every verdict is a :class:`Check` record.

:func:`gyration` is the independent path, the gyrator identity

    gyr[a, b]c = -(a + b) + (a + (b + c))

written with the carrier's own addition.  The law suites evaluate the laws
with the carrier's gyrations and report their distance from the gyrator
identity on every sample as ``gyration_closed_form``.
"""

import contextvars
import copy
import inspect
import os
import threading

import numpy as np


# the most triples per block of the sampled checks; the blocks are of
# equal size, and of an even count when two threads share them
_BLOCK_TRIPLES = 2 ** 15

# Witness lists inside a single check are capped for readability; the
# violation count is always exact.
MAX_WITNESSES = 8


class GyroError(Exception):
    """Base class for all errors raised by this package."""


class InvalidElementError(GyroError):
    """An element violates its carrier's domain (e.g. ball norm >= 1)."""


class NumericalError(GyroError):
    """A numeric evaluation left the trustworthy regime."""


class CriterionError(GyroError):
    """A construction was requested whose precondition check failed."""


class Record:
    """A frozen record whose fields are the annotated names of its class, in
    order (a subclass's new ones after its base's).

    The result records derive from it, not from ``@dataclass(frozen=True)``,
    which writes and compiles the source of every record's methods each time
    the package is imported.  These methods are written once, here, and read
    the field names from ``_fields``; no code is made at run time.

    A record is built from positional or keyword arguments, bound as they
    bind to a function with the fields as parameters, and refused with the
    TypeError that the function's ``inspect.Signature`` raises.  A field's
    class attribute is its default, shared by every record that takes it.
    ``__post_init__``, if the class has one, runs after the fields are set,
    and may set a field with ``object.__setattr__``.  Equality, hashing and
    ``repr`` are those of a frozen dataclass: records of one class are equal
    when their field tuples are, and assignment or deletion raises
    AttributeError.  Fields live in the instance ``__dict__``, so
    ``functools.cached_property`` works.  ``dataclasses.asdict``,
    ``replace`` and ``fields`` do not apply.
    """

    _fields = ()
    _defaults = {}
    _post_init = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__annotations__  # this class's own, in order
        cls._fields = (*cls._fields, *(n for n in own if n not in cls._fields))
        cls._defaults = {**cls._defaults, **{n: cls.__dict__[n] for n in own
                                             if n in cls.__dict__}}
        cls._post_init = getattr(cls, "__post_init__", None)
        cls.__match_args__ = cls._fields

    def __init__(self, *args, **kwargs):
        names = self._fields
        fields = self.__dict__
        if not kwargs and len(args) == len(names):
            fields.update(zip(names, args))
        elif len(kwargs) == len(names) and tuple(kwargs) == names:
            fields.update(kwargs)  # every field by keyword, in order
        else:
            self._bind(fields, args, kwargs)
        if self._post_init is not None:
            self._post_init()

    def _bind(self, fields, args, kwargs):
        """Set ``fields`` in order from any other arguments, a field not
        given taking its default, or :meth:`_refuse` them."""
        names, defaults = self._fields, self._defaults
        fields.update(zip(names, args))
        used = min(len(args), len(names))
        for key in names[used:]:
            if key in kwargs:
                fields[key] = kwargs[key]
                used += 1
            elif key in defaults:
                fields[key] = defaults[key]
        if len(fields) < len(names) or used < len(args) + len(kwargs):
            self._refuse(args, kwargs)

    def _refuse(self, args, kwargs):
        """Raise the fields' ``inspect.Signature``'s TypeError for these."""
        param = inspect.Parameter
        try:
            inspect.Signature([param(name, param.POSITIONAL_OR_KEYWORD,
                                     default=self._defaults.get(name, param.empty))
                               for name in self._fields]).bind(*args, **kwargs)
        except TypeError as exc:
            raise TypeError(f"{type(self).__qualname__}() {exc}") from None
        raise AssertionError("arguments that bind were refused")

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return self.__class__.__qualname__ + "(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields) + ")"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Check(Record):
    """One verdict, the record every report is written from.

    ``check`` names the law or property and ``passed`` gives the verdict;
    ``witness`` shows a failure; ``seed``, ``samples`` and ``tolerance`` say
    how a sampled verdict was reached; ``detail``, a dict if not None,
    holds any further fields (a violated law's ``message``, a law suite's
    ``worst`` residual, ...).
    """

    check: str
    passed: bool
    witness: tuple | list | None = None
    seed: int | None = None
    samples: int | None = None
    tolerance: float | None = None
    detail: dict | None = None

    def as_dict(self):
        """The six stable report keys, then the ``detail`` items, if any."""
        witness = None if self.witness is None else list(self.witness)
        return {"check": self.check,
                "status": "pass" if self.passed else "fail",
                "witness": witness,
                "seed": self.seed, "samples": self.samples,
                "tolerance": self.tolerance, **(self.detail or {})}


def violation(check, witness, message):
    """A failed exact check: its witness tuple and a message explaining it."""
    return Check(check, False, witness, detail={"message": message})


class ValidationError(GyroError):
    """Validation failed; carries the failed Checks as ``diagnostics``."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        lines = [f"{d.check}: {d.detail['message']} witness={d.witness}"
                 for d in self.diagnostics[:MAX_WITNESSES]]
        more = len(self.diagnostics) - len(lines)
        if more > 0:
            lines.append(f"... and {more} more")
        super().__init__("validation failed:\n  " + "\n  ".join(lines))


class GyrogroupCarrier:
    """Minimal contract a concrete carrier must satisfy.

    ``zero``      -- the identity element
    ``oplus``     -- binary operation
    ``oinv``      -- two-sided inverse
    ``distance``  -- numeric defect used for residual reports (0.0 == equal)
    ``contains``  -- domain membership, used by closure checks
    ``gyration``  -- gyr[a, b]c, computed apart from the gyrator identity
    ``eps``       -- the largest ``distance`` read as equal: 0.0 for exact
                     carriers, positive for floating-point ones

    Every carrier also draws: ``sample_batch(rng, count)`` is a batch of
    ``count`` elements drawn from the generator ``rng``.  The sampled
    checks take their triples through ``draw_plan(rng, count, bounds)``
    instead, which keeps no draw: it draws what ``sample_batch(rng, count)``
    would, recording by :func:`_walk` the generator states from which each
    block ``bounds[k]:bounds[k + 1]`` can be drawn again, under any NumPy
    bit generator, and returns the redraw function k -> that block, bit for
    bit as a slice of the ``sample_batch`` draw.  Each call draws into a
    fresh array from a generator of its own, so any thread may call it; a
    check holds the blocks being worked and a few states per block, never a
    draw.

    Every operation broadcasts over batches, entry i of the result being
    the result on entry i; a batch of one stays a batch.  All operations
    must be pure; carriers are immutable after construction.
    """

    zero = None
    eps = 0.0

    def oplus(self, a, b):
        raise NotImplementedError

    def oinv(self, a):
        raise NotImplementedError

    def distance(self, a, b):
        raise NotImplementedError

    def contains(self, a):
        raise NotImplementedError

    def gyration(self, a, b, c):
        raise NotImplementedError


def gyration(carrier, a, b, c):
    """gyr[a, b]c computed strictly by the gyrator identity; the oracle the
    carriers' own gyrations are checked against."""
    ab = carrier.oplus(a, b)
    return carrier.oplus(carrier.oinv(ab), carrier.oplus(a, carrier.oplus(b, c)))


def coaddition(carrier, a, b):
    """The dual operation a [+] b = a + gyr[a, -b]b."""
    return carrier.oplus(a, carrier.gyration(a, carrier.oinv(b), b))


def cominus(carrier, a, b):
    """a [-] b = a [+] (-b)."""
    return coaddition(carrier, a, carrier.oinv(b))


def conjugate(carrier, a, b):
    """Conjugate of b by a: (a + b) [-] a.

    On a carrier with identity gyrations this reduces to a*b*a^-1.
    """
    return cominus(carrier, carrier.oplus(a, b), a)


def conjugate_set(carrier, a, members):
    """Conjugate of a finite carrier's subset ``members`` by a, sorted.
    Raises ValueError when ``a`` or a member is not an element."""
    a = _read_index(a, carrier.order, "element")
    members = np.array(_read_members(carrier, members), dtype=np.int64)
    conj = conjugate(carrier, a, members)
    return tuple(sorted(conj.tolist()))


def _cancellation_defects(carrier, a, b, ab, neg_a):
    """The four cancellation-law defects of the pairs (a, b), given
    ``ab`` = a + b and ``neg_a`` = -a."""
    rec = carrier.oplus(neg_a, ab)
    left = carrier.distance(rec, b)
    bma = carrier.oplus(b, neg_a)
    return {
        "left_cancellation": left,
        "general_left_cancellation": np.maximum(
            carrier.distance(carrier.oplus(a, rec), ab), left),
        "right_cancellation_1": carrier.distance(coaddition(carrier, bma, a), b),
        "right_cancellation_2": carrier.distance(
            carrier.oplus(cominus(carrier, b, a), a), b)}


def _scalar(x):
    """``x`` as a Python scalar if it is 0-d numpy data, else as it is."""
    return x.item() if getattr(x, "ndim", None) == 0 else x


def check_cancellation_laws(carrier, a, b):
    """Check the four cancellation laws over the pairs (a[i], b[i]) of two
    equal-length batches.

    Laws: (i)  a+b = a+c  implies b = c       (general left cancellation)
          (ii) -a + (a+b) = b                 (left cancellation)
          (iii) (b - a) [+] a = b             (right cancellation I)
          (iv) (b [-] a) + a = b              (right cancellation II)

    Law (i) cannot be hit by random collisions on an analytic carrier, so it
    is exercised on the constructed collision c := -a + (a+b), which realises
    a+c = a+b and must therefore recover c = b.  The residual allowed per
    law is ``carrier.eps``.  Returns four Checks, each with its ``worst``
    residual in ``detail`` and, when that exceeds ``carrier.eps``, the
    first pair over it as its witness.  Raises ValueError for empty
    batches, since no pair checks nothing.
    """
    tol = carrier.eps
    defects = _cancellation_defects(carrier, a, b, carrier.oplus(a, b),
                                    carrier.oinv(a))
    results = []
    for name in sorted(defects):
        d = np.asarray(defects[name])
        if not d.size:
            raise ValueError("samples must be >= 1")
        over = d > tol
        i = int(np.argmax(over))
        witness = (_scalar(a[i]), _scalar(b[i])) if over[i] else None
        worst = float(np.max(d))
        results.append(Check(name, worst <= tol, witness, samples=d.size,
                             tolerance=tol, detail={"worst": worst}))
    return results


def _read_int(x, name):
    """``x`` as a Python int.  Raises ValueError naming ``x`` as a ``name``
    unless it is a Python int or a numpy integer, never a bool."""
    if type(x) is not int and not isinstance(x, np.integer):
        raise ValueError(f"{name} {x!r} is not an integer")
    return int(x)


def _read_index(x, n, name):
    """``x`` as a Python int in 0..n-1.  Raises ValueError naming ``x`` as
    a ``name`` ("member", "point", ...) unless it is a Python int or a
    numpy integer (not a bool), as ``FiniteGyrogroup.contains`` counts an
    element, in that range."""
    x = _read_int(x, name)
    if not 0 <= x < n:
        raise ValueError(f"{name} {x} is outside 0..{n - 1}")
    return x


def _read_members(g, members):
    """The distinct members as sorted Python ints.  Raises ValueError
    naming the first member that is not an element of ``g``."""
    return sorted({_read_index(x, g.order, "member") for x in members})


def _first_repeats(rows):
    """(row, earlier column, repeating column) of the first repeated entry
    of each row of ``rows`` that has one, in row order: the first column
    whose entry occurs earlier in the row, and where that entry first does."""
    n = rows.shape[1]
    # each row sorted by entry, then by column: every entry of a run of
    # equal entries but the first repeats an earlier column
    entry, col = np.divmod(np.sort(rows * n + np.arange(n), axis=1), n)
    repeat = np.min(np.where(entry[:, 1:] == entry[:, :-1], col[:, 1:], n),
                    axis=1, initial=n)
    bad = np.flatnonzero(repeat < n)
    cols = repeat[bad]
    earlier = np.argmax(rows[bad] == rows[bad, cols][:, None], axis=1)
    return list(zip(bad.tolist(), earlier.tolist(), cols.tolist()))


def check_cancellation_laws_exhaustive(carrier):
    """All four cancellation laws over every pair of a finite carrier.

    Law (i) is strengthened to a genuine collision scan: every row is
    searched for duplicate values, which is the exhaustive content of
    "a+b = a+c implies b = c".  Its witness is the (a, b, c) with a+b = a+c
    and b < c for the first such row a and the first such c in it.
    """
    n = carrier.order
    a, b = np.divmod(np.arange(n * n), n)
    results = check_cancellation_laws(carrier, a, b)
    repeats = _first_repeats(carrier.oplus(a, b).reshape(n, n))
    witness = repeats[0] if repeats else None
    law1 = Check("general_left_cancellation", witness is None, witness,
                 samples=n * n * n, tolerance=0.0,
                 detail={"worst": 0.0 if witness is None else 1.0})
    return [law1 if r.check == "general_left_cancellation" else r
            for r in results]


def _read_seed(seed):
    """``seed`` as a Python int that ``np.random.default_rng`` takes.
    Raises ValueError naming ``seed`` unless it is an integer (as
    :func:`_read_int` reads one) and non-negative."""
    seed = _read_int(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed {seed} is negative")
    return seed


def _read_samples(samples):
    """``samples`` as a Python int.  Raises ValueError unless it is an
    integer >= 1, since no sample checks nothing."""
    samples = _read_int(samples, "samples")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    return samples


def _cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_bounds(samples):
    """The bounds of the blocks the sampled checks split ``samples``
    triples into (:func:`_plan_triples`): block k is triples bounds[k] to
    bounds[k + 1].  The blocks are the fewest of at most ``_BLOCK_TRIPLES``
    triples, their count rounded up to an even one when there are two or
    more and two CPUs to share them, and their sizes differ by at most one
    triple."""
    count = -(-samples // _BLOCK_TRIPLES)
    # one block stays whole; split in two, 20,000 triples ran 11-13 % faster
    # (the two threads wait on each other for the interpreter lock: ``ball``)
    if count > 1 and _cpus() >= 2:
        count += count % 2
    return [k * samples // count for k in range(count + 1)]


def _walk(rng, bounds, draw):
    """Record the state of ``rng``'s bit generator at the start of each
    block bounds[k]:bounds[k + 1], found by drawing the blocks in turn as
    ``draw(rng, size)``.  Returns k -> a new generator at block k's state,
    its bit generator seeded first by the fixed ``SeedSequence(0)``, never
    from entropy, made here so that no import loads ``numpy.random``."""
    kind, states, seed = type(rng.bit_generator), [], np.random.SeedSequence(0)
    for lo, hi in zip(bounds, bounds[1:]):
        states.append(rng.bit_generator.state)
        draw(rng, hi - lo)

    def at(k):
        gen = np.random.Generator(kind(seed))
        gen.bit_generator.state = states[k]
        return gen
    return at


def _plan_triples(carrier, samples, seed):
    """(rng, samples, bounds, plans): a generator seeded with ``seed``, left
    after the three draws a, b, c of ``carrier.sample_batch(rng,
    samples)``, ``samples`` as an int, :func:`_block_bounds`, and the
    ``draw_plan`` of each draw.  Raises ValueError unless ``samples`` is an
    integer >= 1 and ``seed`` a non-negative integer."""
    samples = _read_samples(samples)
    rng = np.random.default_rng(_read_seed(seed))
    bounds = _block_bounds(samples)
    plans = [carrier.draw_plan(rng, samples, bounds) for _ in range(3)]
    return rng, samples, bounds, plans


def _run_blocks(plans, bounds, work):
    """[work(*blocks, lo, hi) for each block], in block order, one argument
    per plan: the draws lo to hi redrawn by the ``plans`` (those of
    :func:`_plan_triples` and any appended) and passed straight in, so that
    no block outlives its call.  With two or more blocks and CPUs, the
    blocks (then of an even count and equal sizes) are shared by stride
    between the calling thread and one worker thread, always joined before
    this returns; carriers are pure, so they need no lock.  An exception is re-raised from the earliest block that
    raised, as one thread going through the blocks in order would meet it.
    """
    blocks = len(bounds) - 1
    found = [None] * blocks
    # per thread: the first block that raised (blocks: none) and why
    failed_at, errors = [blocks] * 2, [None] * 2

    def run(thread, stride):
        for k in range(thread, blocks, stride):
            if k > min(failed_at):  # an earlier block has raised
                return
            try:
                found[k] = work(*[plan(k) for plan in plans],
                                bounds[k], bounds[k + 1])
            except Exception as exc:
                failed_at[thread], errors[thread] = k, exc
                return

    worker = None
    # the caller works a share: a 2-worker pool peaked 10 MB higher, halves no faster
    if blocks >= 2 and _cpus() >= 2:
        # in the caller's context, so that np.errstate holds there too
        worker = threading.Thread(target=contextvars.copy_context().run,
                                  args=(run, 1, 2))
        worker.start()
    try:
        run(0, 1 if worker is None else 2)
    except BaseException:
        failed_at[0] = -1  # the worker stops after its current block
        raise
    finally:
        if worker is not None:
            worker.join()
    if min(failed_at) < blocks:
        raise errors[failed_at.index(min(failed_at))]
    return found


def _block_residuals(carrier, a, b, c, lo):
    """The laws of :func:`sampled_law_residuals` on one block of triples,
    the first of them triple ``lo`` of the draw.  Returns (worst, outside):
    worst maps each law to its worst residual in the block and the witness
    (i, a[i], b[i], c[i]) of the first triple where it occurs, i its draw
    index; outside is the witness of the first triple with a sum outside
    the domain, or None.  The witness points are copies, so they keep
    nothing of the block alive."""
    ab, neg_a = carrier.oplus(a, b), carrier.oinv(a)
    defects, inside = _axiom_defects(carrier, a, b, c, ab, neg_a)
    defects.update(_cancellation_defects(carrier, a, b, ab, neg_a))
    witnesses = {}

    def witness(i):
        if i not in witnesses:
            witnesses[i] = (lo + i, *copy.deepcopy((a[i], b[i], c[i])))
        return witnesses[i]

    worst = {}
    for law, d in defects.items():
        i = int(np.argmax(d))  # a NaN is found first, as np.max finds it
        worst[law] = (float(d[i]), witness(i))
    outside = np.flatnonzero(np.logical_not(inside))
    return worst, (witness(int(outside[0])) if outside.size else None)


def _first_worst(found):
    """The first of the (value, witness) pairs ``found`` with the greatest
    value, a NaN counting as the greatest, as ``np.argmax`` counts it."""
    return found[int(np.argmax([value for value, _ in found]))]


def sampled_law_residuals(carrier, samples, seed):
    """The sampled law suite shared by the analytic carriers.

    Evaluates the laws of :func:`check_axiom_residuals` on the ``samples``
    triples of :func:`_plan_triples` and those of
    :func:`check_cancellation_laws` on the pairs (a, b), block by block
    (:func:`_run_blocks`), keeping of each block only copies of its witness
    points.  Returns (residuals, worst_at): residuals maps each law to its
    worst residual over all triples, plus ``closure``, ``samples`` and
    ``seed``; worst_at maps each law to (i, a[i], b[i], c[i]) for the first
    triple i at which that worst residual occurs, and ``closure`` to the
    first triple with a sum outside the domain, or to None while closure
    holds.  Raises ValueError unless ``samples`` is an integer >= 1 and
    ``seed`` a non-negative integer.
    """
    _, samples, bounds, plans = _plan_triples(carrier, samples, seed)
    found = _run_blocks(plans, bounds, lambda a, b, c, lo, _:
                        _block_residuals(carrier, a, b, c, lo))
    residuals, worst_at = {}, {}
    for law in found[0][0]:
        residuals[law], worst_at[law] = _first_worst(
            [worst[law] for worst, _ in found])
    outside = next((w for _, w in found if w is not None), None)
    residuals["closure"] = outside is None
    worst_at["closure"] = outside
    residuals["samples"] = samples
    residuals["seed"] = seed
    return residuals, worst_at


def check_axiom_residuals(carrier, a, b, c):
    """Evaluate the defining laws on a sample of triples and report residuals.

    Accepts single elements or batches (anything the carrier's operations
    broadcast over).  Returns a dict of worst-case residuals keyed by law
    name, plus ``closure`` (False if any computed sum left the domain).
    The laws use the carrier's gyrations; ``gyration_closed_form`` is their
    distance from the gyrator identity.  Raises ValueError for empty
    batches, since no triple checks nothing.
    """
    defects, inside = _axiom_defects(carrier, a, b, c, carrier.oplus(a, b),
                                     carrier.oinv(a))
    if not np.size(inside):
        raise ValueError("samples must be >= 1")
    out = {law: float(np.max(d)) for law, d in defects.items()}
    out["closure"] = bool(np.all(inside))
    return out


def _axiom_defects(carrier, a, b, c, ab, neg_a):
    """(defects, inside): the axiom defects of the triples (a, b, c), given
    ``ab`` = a + b and ``neg_a`` = -a, and whether each triple's a + b,
    b + c and gyr[a, b]c all lie in the domain."""
    zero = carrier.zero
    bc = carrier.oplus(b, c)
    a_bc = carrier.oplus(a, bc)
    neg_ab = carrier.oinv(ab)
    gyr_c = carrier.gyration(a, b, c)
    defects = {
        "left_identity": carrier.distance(carrier.oplus(zero, a), a),
        "left_inverse": carrier.distance(carrier.oplus(neg_a, a), zero),
        "right_inverse": carrier.distance(carrier.oplus(a, neg_a), zero),
        "gyroassociativity": carrier.distance(a_bc, carrier.oplus(ab, gyr_c)),
        "left_loop": carrier.distance(carrier.gyration(ab, b, c), gyr_c),
        # gyr[a,b] respects the operation: image of c+b vs. images combined
        "automorphism": carrier.distance(
            carrier.gyration(a, b, carrier.oplus(c, b)),
            carrier.oplus(gyr_c, carrier.gyration(a, b, b))),
        # by the gyrator identity: a closed form fixes 0 by construction
        "gyration_fixes_zero": carrier.distance(
            carrier.oplus(neg_ab, carrier.oplus(a, carrier.oplus(b, zero))), zero),
        # the gyrator identity -(a+b) + (a+(b+c)) of :func:`gyration`
        "gyration_closed_form": carrier.distance(
            gyr_c, carrier.oplus(neg_ab, a_bc)),
    }
    inside = (carrier.contains(ab) & carrier.contains(bc)
              & carrier.contains(gyr_c))
    return defects, inside
