"""Streaming WCP vector-clock engine: one linear pass, one timestamp per event.

Per thread t the state holds two clocks: pred[t] joins the timestamps of
every event strictly WCP-before t's latest event, and hbt[t] those of
every event HB-before it.  t's local time n[t] is hbt[t][t], and the
timestamp of t's latest event is pred[t] with component t set to n[t],
materialized on demand.  n[t] bumps just before the next event of t
whenever t's granule has ended since: t released a lock or forked a
thread.  Being joined ends t's last granule: a joined thread never acts
again, and an event of it raises JoinOfLiveThread.  A row is only table
space, made when an id is first needed (a join makes one); t starts at
its first event or its fork.

Per lock: its owner holder[l] (-1 when free) and depth[l], the number of
flattened re-acquires still open, so t holds l exactly when holder[l] ==
t.  A flattened acquire or release is inert, but it is still an event of
t, so it takes the owed bump.  Also the pred/hbt values of the last
release, and an append-only log of critical sections (owner,
acquire-time, release-HB-time) with one read cursor per thread.  A
release drains its cursor forward while the logged acquire time is <=
the live current time, folding the logged release time into pred;
entries the releasing thread wrote itself are skipped.  This is the
release-release ordering rule: once a foreign acquire time is dominated,
some event of that section is WCP-ordered below us, so its release must
be too, and one drained section can unlock the next.

queue_load sums the paper's per-thread queues: the entries each started
thread has yet to drain.  A thread's backlog, the whole log so far,
enters at its start; an acquire adds one entry per other started thread.

The drain decides acq <= C_t by one epoch comparison, acq[u] <=
pred[t][u] for the entry's owner u (never t).  This is exact because
pred[t] is only ever a join of whole hbt snapshots, and a thread exports
its hbt only at the end of a granule -- a release or a fork, after which
its local clock bumps, or being joined, after which it never acts again.
So a snapshot that knows u's local time n is HB-after every event of u
with local time n, and acq <= H_acq <= snapshot <= pred[t].  Folds are
lazy: the release times of one lock form a chain (every acquire joins
the lock's HB clock), so the latest drained release time subsumes all
earlier ones.  The drain keeps only that one, folds it when an epoch
test fails and retests the same entry, and folds it once more when the
drain ends, so pred and every timestamp are those of eager folding.
With invariant_checks on, every epoch test is also compared with the
full leq.

Per (lock, variable): the release-HB-times of sections over the lock
that read/wrote the variable, for rule (a), which access applies in
every section the accessing thread holds: a read joins the times of
sections that wrote the variable, a write those that read or wrote it.
Only releases by *other* threads count: an access is ordered after an
earlier release only when that release's section holds a conflicting
(hence cross-thread) access, and folding a thread's own release times
here would smuggle HB-only knowledge into pred and over-order.  Since every
release of a lock dominates all earlier releases of that lock (its
acquire joined the lock's HB clock), the contributions form a chain, so
it suffices to keep the latest contribution and the latest one from any
other thread: whichever of the two is foreign to the accessor is exactly
the join of all foreign contributions.

Cross-thread orderings carry the releaser's full HB time, never just its
own components, so everything HB-below the ordering's source arrives too.

hbt[t] is therefore the HB timestamp of t's latest event, equal to
HbEngine's at every event, so one pass of this engine serves both
detectors (``run_detector``'s hb argument).  HbEngine subclasses this
engine and shares its thread and lock state, fork/join, process and HB's
lock rule, which _enter/_leave hold with the lock discipline: a logical
acquire joins the lock's last release HB time lock_hb[l] into hbt, and a
logical release stores hbt there.

The well-formedness rules live here and nowhere else: _enter/_leave check
lock discipline, fork/join and _tick check fork/join plausibility.  Each
raises an EngineError whose kind names the rule, before its operation
changes any state, so validate can report the event and skip it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .trace_model import ACQUIRE, FORK, JOIN, READ, RELEASE, WRITE, Event
from .vclock import join_into, leq


JOINED = 2      # pending[t] once t was joined: truthy, so t's next tick raises


class EngineError(Exception):
    """Malformed input, with kind the rule it broke (DoubleAcquire,
    UnmatchedRelease, BadNesting, ForkOfKnownThread or JoinOfLiveThread),
    or a broken internal invariant, with kind None.  run_detector sets
    event to the event that raised it.  Messages, like warnings, give
    threads and locks as 'thread N' and 'lock N' by interned id; named()
    puts the trace's names there."""

    def __init__(self, message: str, kind: str | None = None):
        super().__init__(message)
        self.kind = kind


@dataclass(slots=True)
class EngineWarning:
    """Input the engine runs but ignores in part; run_detector sets event."""

    kind: str
    message: str
    event: Event | None = None


def named(msg: str, trace) -> str:
    """An engine message with its 'thread N' and 'lock N' ids replaced by
    the names that trace interned."""
    names = {"thread": trace.thread_names, "lock": trace.lock_names}
    return re.sub(r"\b(thread|lock) (\d+)\b", lambda m: f"{m[1]} {names[m[1]][int(m[2])]}", msg)


class WcpEngine:
    detector = "wcp"

    def __init__(self, *, invariant_checks: bool = False):
        # per thread; hbt[t][t] is t's local time
        self.pred: list[list[int]] = []
        self.hbt: list[list[int]] = []
        self.pending: list[bool | int] = []    # bump owed, or JOINED
        self.started: list[bool] = []          # performed an event or was forked
        self.frames: list[list[list]] = []     # [lock, log entry, rset, wset]; sets at 2 + kind
        # per lock
        self.lock_pred: list[tuple[int, ...] | None] = []
        self.lock_hb: list[tuple[int, ...] | None] = []
        self.holder: list[int] = []            # owner, -1 if free
        self.depth: list[int] = []             # flattened re-acquires still open
        self.log: list[list[list]] = []        # [owner, acq time, rel time | None]
        self.cursors: list[dict[int, int]] = []  # thread -> log index, 0 if absent
        # per (lock, var): [thread1, time1, thread2, time2] -- the latest
        # contributing release and the latest one by a different thread
        self.read_rel_times: dict[tuple[int, int], list] = {}
        self.write_rel_times: dict[tuple[int, int], list] = {}

        self.reentrant_flattened = 0
        self.warnings: list[EngineWarning] = []
        self.nstarted = 0
        self.queue_load = 0
        self.max_queue_load = 0
        self.total_entries = 0

        self.invariant_checks = invariant_checks
        self._last_times: list[tuple | None] = []

    # -- state growth -------------------------------------------------

    def _ensure_thread(self, t: int) -> None:
        while len(self.hbt) <= t:
            u = len(self.hbt)
            self.pred.append([0] * (u + 1))
            self.hbt.append([0] * u + [1])
            self.pending.append(False)
            self.started.append(False)
            self.frames.append([])
            self._last_times.append(None)

    def _ensure_lock(self, l: int) -> None:
        while len(self.holder) <= l:
            self.lock_pred.append(None)
            self.lock_hb.append(None)
            self.holder.append(-1)
            self.depth.append(0)
            self.log.append([])
            self.cursors.append({})

    def _tick(self, t: int) -> None:
        # local clock bump owed since t's last release or fork
        if self.pending[t]:
            if self.pending[t] == JOINED:
                raise EngineError(f"thread {t} acts after being joined", "JoinOfLiveThread")
            self.pending[t] = False
            self.hbt[t][t] += 1
        if not self.started[t]:
            self._start(t)

    def _start(self, t: int) -> None:
        # t's cursors all start at 0: the whole log of every lock is ahead of it
        self.started[t] = True
        self.nstarted += 1
        self.queue_load += self.total_entries
        if self.queue_load > self.max_queue_load:
            self.max_queue_load = self.queue_load

    def _snap(self, t: int) -> tuple[int, ...]:
        c = self.pred[t][:]
        c[t] = self.hbt[t][t]
        return tuple(c)

    def _enter(self, t: int, l: int) -> bool:
        """Lock discipline and HB's lock rule of an acquire.  Returns False
        for a flattened re-entrant acquire; otherwise t now holds l and
        hbt[t] has joined the lock's last release HB time."""
        if t >= len(self.hbt):
            self._ensure_thread(t)
        if l >= len(self.holder):
            self._ensure_lock(l)
        owner = self.holder[l]
        if owner == t:
            # re-entrant re-acquisition: flattened, yet an event of t
            self._tick(t)
            self.depth[l] += 1
            self.reentrant_flattened += 1
            return False
        if owner != -1:
            raise EngineError(f"acquire of lock {l} already held by thread {owner}",
                              "DoubleAcquire")
        if self.pending[t] or not self.started[t]:
            self._tick(t)
        self.holder[l] = t
        hl = self.lock_hb[l]
        if hl is not None:
            join_into(self.hbt[t], hl)
        return True

    def _leave(self, t: int, l: int) -> list | None:
        """Lock discipline and HB's lock rule of a release.  Returns None for
        a flattened inner release; otherwise t's innermost section frame,
        popped, l is free and lock_hb[l] holds the release's HB time."""
        if l >= len(self.holder) or self.holder[l] != t:
            raise EngineError(f"release of lock {l} not held by thread {t}", "UnmatchedRelease")
        if self.depth[l]:
            self._tick(t)
            self.depth[l] -= 1
            return None
        frames = self.frames[t]
        if not frames or frames[-1][0] != l:
            raise EngineError(f"release of lock {l} does not match innermost open section",
                              "BadNesting")
        if self.pending[t] or not self.started[t]:
            self._tick(t)
        self.holder[l] = -1
        self.pending[t] = True
        self.lock_hb[l] = tuple(self.hbt[t])
        return frames.pop()

    # -- operations (one per event kind) -------------------------------

    def acquire(self, t: int, l: int) -> tuple[int, ...]:
        if not self._enter(t, l):
            return self._snap(t)
        pl = self.lock_pred[l]
        if pl is not None:
            join_into(self.pred[t], pl)
        snap = self._snap(t)
        entry = [t, snap, None]
        self.log[l].append(entry)
        self.total_entries += 1
        self.queue_load += self.nstarted - 1
        if self.queue_load > self.max_queue_load:
            self.max_queue_load = self.queue_load
        self.frames[t].append([l, entry, set(), set()])
        return snap

    def release(self, t: int, l: int) -> tuple[int, ...]:
        frame = self._leave(t, l)
        if frame is None:
            return self._snap(t)
        # Drain this thread's cursor over the lock's section log.
        log_l = self.log[l]
        end = len(log_l)
        i = self.cursors[l].get(t, 0)
        pred_t = self.pred[t]
        checks = self.invariant_checks
        last = None     # latest drained release time not yet folded into pred_t
        drained = 0
        while i < end:
            entry = log_l[i]
            u = entry[0]
            if u == t:
                i += 1
                continue
            acq = entry[1]
            # epoch test for leq(acq, C_t): u != t, so C_t[u] is pred_t[u]
            ok = acq[u] <= (pred_t[u] if u < len(pred_t) else 0)
            if checks:
                self._check_epoch(t, acq, ok)
            if not ok:
                if last is None:
                    break
                join_into(pred_t, last)
                last = None
                continue
            last = entry[2]
            if last is None:
                raise EngineError("drained a critical section whose release is still pending")
            drained += 1
            i += 1
        if last is not None:
            join_into(pred_t, last)
        self.cursors[l][t] = i
        self.queue_load -= drained

        _, entry, rset, wset = frame
        h_snap = self.lock_hb[l]
        for rel_times, xs in ((self.read_rel_times, rset), (self.write_rel_times, wset)):
            for x in xs:
                # the new release dominates every earlier release of this lock
                slot = rel_times.get((l, x))
                if slot is None:
                    rel_times[(l, x)] = [t, h_snap, -1, None]
                elif slot[0] == t:
                    slot[1] = h_snap
                else:
                    slot[2] = slot[0]
                    slot[3] = slot[1]
                    slot[0] = t
                    slot[1] = h_snap
        self.lock_pred[l] = tuple(pred_t)
        entry[2] = h_snap
        frames = self.frames[t]
        if frames:
            # nested accesses belong to the enclosing section too
            outer = frames[-1]
            outer[2] |= rset
            outer[3] |= wset
        return self._snap(t)

    def access(self, t: int, x: int, kind: int) -> tuple[int, ...]:
        """A read or write (kind) of x by t: rule (a), and x joins the
        access set of t's innermost frame."""
        # per-event path: a call only when t has no row yet or a tick is owed
        if t >= len(self.hbt):
            self._ensure_thread(t)
        if self.pending[t] or not self.started[t]:
            self._tick(t)
        pred_t = self.pred[t]
        frames = self.frames[t]
        if frames:
            rel_tables = ((self.write_rel_times,) if kind == READ
                          else (self.read_rel_times, self.write_rel_times))
            for fr in frames:
                key = (fr[0], x)
                for rel_times in rel_tables:
                    slot = rel_times.get(key)
                    if slot is not None:
                        if slot[0] != t:
                            join_into(pred_t, slot[1])
                        elif slot[3] is not None:
                            join_into(pred_t, slot[3])
            frames[-1][2 + kind].add(x)
        c = pred_t[:]
        c[t] = self.hbt[t][t]
        return tuple(c)

    def fork(self, t: int, u: int) -> tuple[int, ...]:
        self._ensure_thread(max(t, u))
        if u == t or self.started[u]:
            raise EngineError(f"fork of already-active thread {u}", "ForkOfKnownThread")
        self._tick(t)
        self._start(u)
        # child starts HB-after the fork and inherits its WCP knowledge
        join_into(self.hbt[u], self.hbt[t])
        join_into(self.pred[u], self.pred[t])
        snap = self._snap(t)
        # handing the HB clock to the child ends the parent's local-clock
        # granule, exactly like a release: later same-granule parent events
        # must not look HB-below the child's sections to third parties
        self.pending[t] = True
        return snap

    def join(self, t: int, u: int) -> tuple[int, ...]:
        self._ensure_thread(max(t, u))
        if u == t:
            raise EngineError("thread cannot join itself", "JoinOfLiveThread")
        self._tick(t)
        # u must never act again (the mark makes its next event raise), so
        # exporting its HB clock below ends its last granule
        self.pending[u] = JOINED
        if not self.started[u]:
            self.warnings.append(EngineWarning("JoinOfUnknownThread",
                                               f"join of unknown thread {u} ignored"))
            return self._snap(t)
        join_into(self.hbt[t], self.hbt[u])
        join_into(self.pred[t], self.pred[u])
        return self._snap(t)

    # -- driver ---------------------------------------------------------

    _DISPATCH = {ACQUIRE: acquire, RELEASE: release, FORK: fork, JOIN: join}

    def process(self, e: Event) -> tuple[int, ...]:
        """Dispatch one event (fed in trace order); returns its timestamp."""
        kind = e.kind
        if kind <= WRITE:
            snap = self.access(e.tid, e.op, kind)
        else:
            snap = self._DISPATCH[kind](self, e.tid, e.op)
        if self.invariant_checks:
            self._check_invariants(e.tid)
        return snap

    def _check_epoch(self, t: int, acq, ok: bool) -> None:
        if leq(acq, self._snap(t)) != ok:
            raise EngineError(f"epoch test disagrees with leq in the drain of thread {t}")

    def _check_invariants(self, t: int) -> None:
        p, h = self.pred[t], self.hbt[t]
        c = self._snap(t)
        if not leq(p, c) or not leq(c, h):
            raise EngineError(f"P <= C <= H violated for thread {t}")
        prev = self._last_times[t]
        now = (tuple(p), c, tuple(h))
        if prev is not None and not all(leq(a, b) for a, b in zip(prev, now)):
            raise EngineError(f"thread-order monotonicity violated for thread {t}")
        self._last_times[t] = now
