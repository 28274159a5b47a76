"""What every workload shares: timed operations, checks and CLI calls."""

import io
import json
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from time import perf_counter


class OperationFailed(Exception):
    """A call into gyrokit raised; the rest of its step is skipped."""


class Round:
    """One round of a workload's operations.

    An operation is one call into gyrokit whose output the round checks.
    ``call`` times only the call; checks run outside the timed region.  A
    check speaks of the last operation called: when it fails, that
    operation counts as failed.  An operation that raises counts as failed
    too, and the rest of its ``step`` is skipped, so the round goes on.
    """

    def __init__(self, gk, tracer=None):
        self.gk = gk
        self.tracer = tracer
        self.wall = 0.0
        self.attempted = 0
        self.failed_ops = set()   # indexes of the operations that failed
        self.problems = []
        self.timers = {}    # untraced per-layer timers, name -> seconds
        self.values = {}    # other per-layer values measured by the round

    @property
    def failed(self):
        return len(self.failed_ops)

    def call(self, fn, *args, timer=None, **kwargs):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.enabled = True
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.fail(f"{getattr(fn, '__qualname__', fn)} raised {exc!r}")
            raise OperationFailed from exc
        finally:
            elapsed = perf_counter() - start
            if self.tracer is not None:
                self.tracer.enabled = False
            self.wall += elapsed
            if timer is not None:
                self.timers[timer] = self.timers.get(timer, 0.0) + elapsed

    def fail(self, what):
        """The last operation's output is wrong."""
        self.problems.append(what)
        self.failed_ops.add(self.attempted - 1)

    def check(self, ok, what):
        if not ok:
            self.fail(what)
        return ok

    def known_fault(self):
        """The last operation failed, and the round confirmed it is the known fault."""
        self.failed_ops.add(self.attempted - 1)

    @contextmanager
    def step(self, what):
        """Operations and their checks; an exception ends the step, not the round."""
        try:
            yield
        except OperationFailed:
            pass
        except Exception as exc:  # a check could not read the last output
            self.fail(f"{what}: checking the output raised {exc!r}")

    def cli(self, *argv, expect):
        """Run ``gyrokit --report json <argv>`` in process, twice.

        The two reports must be byte-identical and end with the expected exit
        code.  Returns the parsed report.
        """
        outputs = []
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = self.call(self.gk.cli.main, ["--report", "json", *argv],
                                 timer="cli.total_s")
            outputs.append((code, out.getvalue()))
        what = " ".join(argv[:1])
        self.check(outputs[0] == outputs[1], f"cli {what}: two identical calls differ")
        self.check(outputs[0][0] == expect,
                   f"cli {what}: exit {outputs[0][0]}, expected {expect}")
        try:
            return json.loads(outputs[0][1])
        except json.JSONDecodeError:
            self.fail(f"cli {what}: output is not JSON")
            return {"status": None, "checks": []}
