"""Carrier contract and the derived gyrogroup algebra.

Every concrete carrier (finite table, ball, ball-rotation pairs) implements
the small ``GyrogroupCarrier`` interface, gyrations included: the finite
carrier reads them from its validated store, the ball carriers evaluate
Ungar's closed forms, and the pair carrier takes the ball's.  Everything
else here is derived from it: coaddition, conjugation, and the
cancellation-law and axiom-residual check suites shared by all carriers.

:func:`gyration` is the independent path, the gyrator identity

    gyr[a, b]c = -(a + b) + (a + (b + c))

written with the carrier's own addition.  The law suites evaluate the laws
with the carrier's gyrations and report their distance from the gyrator
identity on every sample as ``gyration_closed_form``.
"""

from dataclasses import dataclass

import numpy as np


# triples per block of the sampled law suites
_BLOCK_TRIPLES = 2 ** 14


class GyroError(Exception):
    """Base class for all errors raised by this package."""


class InvalidElementError(GyroError):
    """An element violates its carrier's domain (e.g. ball norm >= 1)."""


class NumericalError(GyroError):
    """A numeric evaluation left the trustworthy regime."""


class CriterionError(GyroError):
    """A construction was requested whose precondition check failed."""


@dataclass(frozen=True)
class Diagnostic:
    """One violated check with a witness tuple."""

    check: str
    witness: tuple
    message: str

    def as_dict(self):
        return {"check": self.check, "witness": list(self.witness),
                "message": self.message}


class ValidationError(GyroError):
    """Validation failed; carries the full diagnostic list."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        lines = [f"{d.check}: {d.message} witness={d.witness}"
                 for d in self.diagnostics[:8]]
        more = len(self.diagnostics) - len(lines)
        if more > 0:
            lines.append(f"... and {more} more")
        super().__init__("validation failed:\n  " + "\n  ".join(lines))


class GyrogroupCarrier:
    """Minimal contract a concrete carrier must satisfy.

    ``zero``      -- the identity element
    ``oplus``     -- binary operation
    ``oinv``      -- two-sided inverse
    ``equals``    -- carrier-owned equality (exact or tolerance-based)
    ``distance``  -- numeric defect used for residual reports (0.0 == equal)
    ``contains``  -- domain membership, used by closure checks
    ``gyration``  -- gyr[a, b]c, computed apart from the gyrator identity

    All operations must be pure; carriers are immutable after construction.
    """

    zero = None

    def oplus(self, a, b):
        raise NotImplementedError

    def oinv(self, a):
        raise NotImplementedError

    def equals(self, a, b):
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
    """Conjugate of the subset ``members`` by a, as a sorted tuple."""
    return tuple(sorted(conjugate(carrier, a, b) for b in members))


@dataclass(frozen=True)
class LawCheck:
    law: str
    passed: bool
    checked: int
    worst: float
    witness: tuple | None

    def as_dict(self):
        return {"check": self.law, "status": "pass" if self.passed else "fail",
                "witness": None if self.witness is None else list(self.witness),
                "samples": self.checked, "tolerance": None, "worst": self.worst}


def _worst(defects):
    return {law: float(np.max(d)) for law, d in defects.items()}


def cancellation_residuals(carrier, a, b):
    """Worst residuals of the four cancellation laws over the pairs (a, b).

    ``a`` and ``b`` are single elements or equal-length batches.  Returns a
    dict keyed by law name (see :func:`check_cancellation_laws`); law (i)
    is evaluated on the constructed collision c := -a + (a+b).
    """
    return _worst(_cancellation_defects(carrier, a, b))


def _cancellation_defects(carrier, a, b):
    ab = carrier.oplus(a, b)
    rec = carrier.oplus(carrier.oinv(a), ab)
    left = carrier.distance(rec, b)
    bma = carrier.oplus(b, carrier.oinv(a))
    return {
        "left_cancellation": left,
        "general_left_cancellation": np.maximum(
            carrier.distance(carrier.oplus(a, rec), ab), left),
        "right_cancellation_1": carrier.distance(coaddition(carrier, bma, a), b),
        "right_cancellation_2": carrier.distance(
            carrier.oplus(cominus(carrier, b, a), a), b)}


def check_cancellation_laws(carrier, pairs, tol=0.0):
    """Check the four cancellation laws over the given (a, b) sample pairs.

    Laws: (i)  a+b = a+c  implies b = c       (general left cancellation)
          (ii) -a + (a+b) = b                 (left cancellation)
          (iii) (b - a) [+] a = b             (right cancellation I)
          (iv) (b [-] a) + a = b              (right cancellation II)

    Law (i) cannot be hit by random collisions on an analytic carrier, so it
    is exercised on the constructed collision c := -a + (a+b), which realises
    a+c = a+b and must therefore recover c = b.  ``tol`` is the residual
    allowed per law (0.0 for exact carriers).  Pass ``pairs`` exhaustively
    for finite carriers.  Returns a list of four LawCheck records.
    """
    results = []
    laws = {
        "general_left_cancellation": [],
        "left_cancellation": [],
        "right_cancellation_1": [],
        "right_cancellation_2": [],
    }
    witnesses = dict.fromkeys(laws)
    count = 0
    for a, b in pairs:
        count += 1
        for name, residual in cancellation_residuals(carrier, a, b).items():
            laws[name].append(residual)
            if residual > tol and witnesses[name] is None:
                witnesses[name] = (a, b)
    for name, residuals in laws.items():
        worst = max(residuals) if residuals else 0.0
        results.append(LawCheck(law=name, passed=worst <= tol, checked=count,
                                worst=worst, witness=witnesses[name]))
    return results


def check_cancellation_laws_exhaustive(carrier):
    """All four cancellation laws over every pair of a finite carrier.

    Law (i) is strengthened to a genuine collision scan: every row is
    searched for duplicate values, which is the exhaustive content of
    "a+b = a+c implies b = c".
    """
    n = carrier.order
    results = check_cancellation_laws(
        carrier, ((a, b) for a in range(n) for b in range(n)), tol=0.0)
    witness = None
    for a in range(n):
        seen = {}
        for b in range(n):
            v = carrier.oplus(a, b)
            if v in seen and witness is None:
                witness = (a, seen[v], b)
            seen.setdefault(v, b)
    law1 = LawCheck(law="general_left_cancellation", passed=witness is None,
                    checked=n * n * n, worst=0.0 if witness is None else 1.0,
                    witness=witness)
    return [law1 if r.law == "general_left_cancellation" else r
            for r in results]


def sampled_law_residuals(carrier, samples, seed, max_norm):
    """The sampled law suite shared by the analytic carriers.

    Draws ``samples`` triples a, b, c (in that order) with norms <=
    ``max_norm`` from ``seed``, then evaluates :func:`check_axiom_residuals`
    on the triples and :func:`cancellation_residuals` on the pairs (a, b),
    one block of ``_BLOCK_TRIPLES`` triples at a time.  Returns
    (residuals, worst_at): residuals maps each law to its worst residual
    over all triples, plus ``closure``, ``samples`` and ``seed``; worst_at
    maps each law to (i, a[i], b[i], c[i]) for the first triple i at which
    that worst residual occurs.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    a, b, c = (carrier.sample_batch(rng, samples, max_norm) for _ in range(3))
    per_block = {}  # law -> [(worst, global index)], one per block
    closure = True
    for lo in range(0, samples, _BLOCK_TRIPLES):
        s = slice(lo, lo + _BLOCK_TRIPLES)
        defects, inside = _axiom_defects(carrier, a[s], b[s], c[s])
        defects.update(_cancellation_defects(carrier, a[s], b[s]))
        closure = closure and inside
        for law, d in defects.items():
            i = int(np.argmax(d))  # a NaN is found first, as np.max finds it
            per_block.setdefault(law, []).append((float(d[i]), lo + i))
    residuals, worst_at = {}, {}
    for law, found in per_block.items():
        residuals[law], i = found[int(np.argmax([v for v, _ in found]))]
        worst_at[law] = (i, a[i], b[i], c[i])
    residuals["closure"] = closure
    residuals["samples"] = samples
    residuals["seed"] = seed
    return residuals, worst_at


def check_axiom_residuals(carrier, a, b, c):
    """Evaluate the defining laws on a sample of triples and report residuals.

    Accepts single elements or batches (anything the carrier's operations
    broadcast over).  Returns a dict of worst-case residuals keyed by law
    name, plus ``closure`` (False if any computed sum left the domain).
    The laws use the carrier's gyrations; ``gyration_closed_form`` is their
    distance from the gyrator identity.
    """
    defects, closure = _axiom_defects(carrier, a, b, c)
    out = _worst(defects)
    out["closure"] = closure
    return out


def _axiom_defects(carrier, a, b, c):
    zero = carrier.zero
    ab = carrier.oplus(a, b)
    bc = carrier.oplus(b, c)
    a_bc = carrier.oplus(a, bc)
    neg_ab = carrier.oinv(ab)
    gyr_c = carrier.gyration(a, b, c)
    defects = {
        "left_identity": carrier.distance(carrier.oplus(zero, a), a),
        "left_inverse": carrier.distance(carrier.oplus(carrier.oinv(a), a), zero),
        "right_inverse": carrier.distance(carrier.oplus(a, carrier.oinv(a)), zero),
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
    closure = bool(np.all(carrier.contains(ab))
                   and np.all(carrier.contains(bc))
                   and np.all(carrier.contains(gyr_c)))
    return defects, closure
