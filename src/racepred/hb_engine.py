"""Baseline happens-before race detector: the WCP engine's HB clock alone.

The WCP engine keeps Lamport's HB clock H for every thread, so this engine
subclasses it and keeps only that clock.  It inherits thread and lock
growth, the granule tick, fork/join, process, the invariant checks, and
from _enter/_leave the lock discipline with re-entrancy flattening and
HB's lock rule: an acquire joins the lock's last release clock, and a
release stores the thread clock there.  Its own acquire and release only
push and pop the section frame, and reads and writes join nothing.  No
section log is kept, so max_queue_load stays 0; pred stays all zeros.

Timestamps equal the WCP engine's hbt at every event, which lets
--detector both decide HB from hbt without an HbEngine.  They are epochs: a
thread exports its clock only at the end of a granule (a release or a
fork, after which its local clock bumps, or being joined, after which it
never acts again), so a clock that knows u's local time n is HB-after
every event of u with local time n.

validate, the well-formedness report, is one streaming pass of this
engine: the engine's checks are the only definition of a well-formed
trace, so a trace validate accepts is one both engines run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .trace_model import ACQUIRE, FORK, JOIN, RELEASE, Event, Trace
from .wcp_engine import EngineError, WcpEngine, named


class HbEngine(WcpEngine):
    detector = "hb"

    def _snap(self, t: int) -> tuple[int, ...]:
        return tuple(self.hbt[t])

    def acquire(self, t: int, l: int) -> tuple[int, ...]:
        if self._enter(t, l):
            self.frames[t].append((l,))     # no section log
        return tuple(self.hbt[t])

    def release(self, t: int, l: int) -> tuple[int, ...]:
        self._leave(t, l)
        return tuple(self.hbt[t])

    def access(self, t: int, x: int, kind: int) -> tuple[int, ...]:
        self._tick(t)
        return tuple(self.hbt[t])

    _DISPATCH = {ACQUIRE: acquire, RELEASE: release, FORK: WcpEngine.fork, JOIN: WcpEngine.join}
    # bound here as well, so that replacing WcpEngine.process (as a
    # per-class profiling wrapper does) leaves this class's calls apart
    process = WcpEngine.process


@dataclass(slots=True)
class Violation:
    idx: int
    kind: str
    message: str
    is_warning: bool

    def render(self) -> str:
        sev = "warning" if self.is_warning else "error"
        return f"VIOLATION|{sev}|{self.kind}|idx={self.idx}|{self.message}"


@dataclass
class ValidationReport:
    ok: bool
    violations: list[Violation] = field(default_factory=list)


def validate(trace: Trace, events: Iterable[Event] | None = None) -> ValidationReport:
    """Check lock discipline and fork/join plausibility with one pass of
    HbEngine over events, trace.events by default.  events may be a stream
    that keeps nothing, with trace's name tables filling in as it parses.

    Each rule an event breaks is one error, of the EngineError's kind,
    and the event is skipped: every check fires before its operation
    changes any state.  Warnings: a flattened re-entrant acquire
    (ReentrantFlattened), an engine warning, and a section still open at
    the end (DanglingCriticalSection), common in real logs.  Only an
    internal invariant error, an EngineError without a kind, raises.
    """
    engine = HbEngine()
    violations: list[Violation] = []
    opened: dict[tuple[int, int], int] = {}    # (thread, lock) -> index of the acquire
    for e in trace.events if events is None else events:
        flattened, warned = engine.reentrant_flattened, len(engine.warnings)
        try:
            engine.process(e)
        except EngineError as exc:
            if exc.kind is None:
                raise
            violations.append(Violation(e.idx, exc.kind, named(str(exc), trace), False))
            continue
        if engine.reentrant_flattened > flattened:
            violations.append(Violation(e.idx, "ReentrantFlattened",
                                        f"{trace.thread_names[e.tid]} re-acquires held lock "
                                        f"{trace.lock_names[e.op]}", True))
        elif e.kind == ACQUIRE:
            opened[e.tid, e.op] = e.idx
        for w in engine.warnings[warned:]:
            violations.append(Violation(e.idx, w.kind, named(w.message, trace), True))
    for t, frames in enumerate(engine.frames):
        for (l,) in frames:
            violations.append(Violation(opened[t, l], "DanglingCriticalSection",
                                        f"{trace.thread_names[t]} never releases "
                                        f"{trace.lock_names[l]}", True))
    return ValidationReport(all(v.is_warning for v in violations), violations)
