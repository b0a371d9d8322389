"""Baseline happens-before race detector: standard vector clocks.

One clock per thread (own component starts at 1) and one last-release
clock per lock.  Acquire joins the lock clock; release stores the thread
clock into it and owes a local bump before the thread's next event --
the same increment-on-release policy as the WCP engine, so timestamp
dumps from the two detectors line up component for component.  Reads and
writes never join anything.

Re-entrant sections are flattened with the same depth counters as the
WCP engine and fork/join carry the clock to/from the child.  A join ends
the joined thread's granule, as a fork ends the parent's: should the
joined thread act again (validate reports that as JoinOfLiveThread), its
local clock bumps first.  So every clock a thread exports is an epoch --
a clock that knows u's local time n is HB-after every event of u with
local time n -- and this engine's clocks stay equal to the WCP engine's
HB clocks, whose release drain relies on the same rule.
"""

from __future__ import annotations

from .trace_model import ACQUIRE, FORK, JOIN, READ, RELEASE, WRITE, Event
from .vclock import join_into, leq
from .wcp_engine import EngineError


class HbEngine:
    detector = "hb"

    def __init__(self, *, invariant_checks: bool = False, record: bool = False,
                 gc_history: bool = False):
        self.nthreads = 0
        self.nlocks = 0
        self.local: list[int] = []
        self.curr: list[list[int]] = []
        self.pending: list[bool] = []
        self.started: list[bool] = []
        self.held: list[dict[int, int]] = []
        self.stack: list[list[int]] = []
        self.lock_hb: list[tuple[int, ...] | None] = []
        self.holder: list[int] = []

        self.events_processed = 0
        self.reentrant_flattened = 0
        self.warnings: list[str] = []
        self.queue_load = 0          # HB keeps no queues; here for a uniform summary
        self.max_queue_load = 0

        self.invariant_checks = invariant_checks
        self._last_times: list[tuple | None] = []
        self.record = record
        self.records: list[tuple] = []

    def _ensure_thread(self, t: int) -> None:
        while self.nthreads <= t:
            u = self.nthreads
            self.nthreads += 1
            self.local.append(1)
            row = [0] * (u + 1)
            row[u] = 1
            self.curr.append(row)
            self.pending.append(False)
            self.started.append(False)
            self.held.append({})
            self.stack.append([])
            self._last_times.append(None)

    def _ensure_lock(self, l: int) -> None:
        while self.nlocks <= l:
            self.nlocks += 1
            self.lock_hb.append(None)
            self.holder.append(-1)

    def _tick(self, t: int) -> None:
        self.started[t] = True
        if self.pending[t]:
            self.pending[t] = False
            n = self.local[t] + 1
            self.local[t] = n
            self.curr[t][t] = n

    def acquire(self, t: int, l: int) -> tuple[int, ...]:
        self._ensure_thread(t)
        self._ensure_lock(l)
        held = self.held[t]
        d = held.get(l, 0)
        if d:
            held[l] = d + 1
            self.reentrant_flattened += 1
            return tuple(self.curr[t])
        if self.holder[l] != -1:
            raise EngineError(f"acquire of lock {l} already held by thread {self.holder[l]}")
        self._tick(t)
        hl = self.lock_hb[l]
        if hl is not None:
            join_into(self.curr[t], hl)
        self.holder[l] = t
        held[l] = 1
        self.stack[t].append(l)
        return tuple(self.curr[t])

    def release(self, t: int, l: int) -> tuple[int, ...]:
        self._ensure_thread(t)
        held = self.held[t]
        d = held.get(l, 0)
        if d == 0:
            raise EngineError(f"release of lock {l} not held by thread {t}")
        if d > 1:
            held[l] = d - 1
            return tuple(self.curr[t])
        st = self.stack[t]
        if not st or st[-1] != l:
            raise EngineError(f"release of lock {l} does not match innermost open section")
        self._tick(t)
        st.pop()
        snap = tuple(self.curr[t])
        self.lock_hb[l] = snap
        self.holder[l] = -1
        del held[l]
        self.pending[t] = True
        return snap

    def read(self, t: int, x: int) -> tuple[int, ...]:
        self._ensure_thread(t)
        self._tick(t)
        return tuple(self.curr[t])

    write = read

    def fork(self, t: int, u: int) -> tuple[int, ...]:
        self._ensure_thread(t)
        if u == t or (u < self.nthreads and self.started[u]):
            raise EngineError(f"fork of already-active thread {u}")
        self._tick(t)
        self._ensure_thread(u)
        self.started[u] = True
        join_into(self.curr[u], self.curr[t])
        self.curr[u][u] = 1
        snap = tuple(self.curr[t])
        # clock handed off mid-granule: bump, as after a release
        self.pending[t] = True
        return snap

    def join(self, t: int, u: int) -> tuple[int, ...]:
        self._ensure_thread(t)
        if u == t:
            raise EngineError("thread cannot join itself")
        self._tick(t)
        if u >= self.nthreads or not self.started[u]:
            self.warnings.append(f"join of unknown thread {u} ignored")
            return tuple(self.curr[t])
        join_into(self.curr[t], self.curr[u])
        # exporting u's clock ends u's granule, as a fork ends the parent's
        self.pending[u] = True
        return tuple(self.curr[t])

    _DISPATCH = {READ: read, WRITE: write, ACQUIRE: acquire, RELEASE: release,
                 FORK: fork, JOIN: join}

    def process(self, e: Event) -> tuple[int, ...]:
        snap = self._DISPATCH[e.kind](self, e.tid, e.op)
        self.events_processed += 1
        if self.record:
            self.records.append((e.tid, snap, snap, snap))
        if self.invariant_checks:
            prev = self._last_times[e.tid]
            if prev is not None and not leq(prev[1], snap):
                raise EngineError(
                    f"thread-order monotonicity violated for thread {e.tid}")
            self._last_times[e.tid] = (snap, snap, snap)
        return snap

    def current_time(self, t: int) -> tuple[int, ...]:
        return tuple(self.curr[t])

    def preregister(self, n_threads: int, last_event_idx: dict[int, int]) -> None:
        self._ensure_thread(n_threads - 1)
