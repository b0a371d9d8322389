"""Streaming WCP vector-clock engine: one linear pass, one timestamp per event.

Per thread t the state holds two clocks: pred[t] joins the timestamps of
every event strictly WCP-before t's latest event, and hbt[t] those of
every event HB-before it.  t's local time n[t] is hbt[t][t], and the
timestamp of t's latest event is pred[t] with component t set to n[t],
materialized on demand.  One word state[t] holds t's lifecycle bits:
NEW until t starts, at its first event or its fork; OWED once t's
granule has ended, when t released a lock or forked a thread, so n[t]
bumps just before t's next event; JOINED once t was joined, which ends
its last granule: a joined thread never acts again, and an event of it
raises JoinOfLiveThread.  An event of t goes through _tick only when a
bit is set, and _tick clears the word.  A row is only table space, made
when an id is first needed.  A join keeps NEW on a thread that has not
started: it may still be forked, and its first event raises.

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

Every fold of a release time rel of a section of thread v != t into
pred[t] goes through _fold, called by rule (a) below and by the drain.
It first tests one component, rel[v] <= pred[t][v], and skips the join
when it holds: pred[t] then already knows v's local time at that
release, and by the epoch argument above the snapshot that told it is
HB-after the release, so the join would change nothing.  A skipped
in-loop fold ends the drain, since the retest would fail again.  With
invariant_checks on, every epoch test is also compared with the full
leq, and every skipped fold is confirmed by leq(rel, pred[t]).

Per lock, for rule (a): a dict from each variable its sections accessed
to four of the lock's section log entries, [latest accessor, latest
foreign accessor, latest writer, latest foreign writer], where the
foreign one is the latest owned by another thread than the latest one,
and None means there is none.  An access by t applies the rule in each
section t holds, then files that section's entry: as the latest accessor
and, for a write, the latest writer.  A read joins the release time
entry[2] of the latest writer foreign to t, a write that of the latest
accessor foreign to t.  Only *other* threads count: a release orders a
later access only through a conflicting (hence cross-thread) access, and
folding t's own release times would smuggle HB-only knowledge into pred.
The release times of one lock form a chain (each acquire joins the
lock's HB clock), so the slot entry foreign to t is the latest foreign
one and covers all earlier ones, and a write needs one chain: the latest
foreign accessor covers the latest foreign reader and writer.  Filing at
the access is exact: a foreign entry is closed, since t holds the lock;
t's own open entry fails the owner test entry[0] == t; and sections over
one lock never overlap, so access order files the same latest entry as
release order.

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

from .trace_model import ACQUIRE, FORK, JOIN, RELEASE, WRITE, Event
from .vclock import join_into, leq


NEW, OWED, JOINED = 1, 2, 4     # state[t] bits (see above): not started, bump owed, joined


class EngineError(Exception):
    """Malformed input, with kind the rule it broke (DoubleAcquire,
    UnmatchedRelease, BadNesting, ForkOfKnownThread or JoinOfLiveThread),
    or a broken internal invariant, with kind None.  process sets event
    to the event that raised it.  Messages, like warnings, give threads
    and locks as 'thread N' and 'lock N' by interned id; named() puts the
    trace's names there."""

    def __init__(self, message: str, kind: str | None = None):
        super().__init__(message)
        self.kind = kind
        self.event: Event | None = None


@dataclass(slots=True)
class EngineWarning:
    """Input the engine runs but ignores in part.  Only a join warns, at
    most once, and process sets event to that join."""

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
        self.state: list[int] = []             # NEW | OWED | JOINED bits
        self.frames: list[list[tuple]] = []    # (lock, log entry), innermost last
        # per lock
        self.lock_pred: list[tuple[int, ...]] = []   # () until the first release
        self.lock_hb: list[tuple[int, ...]] = []
        self.holder: list[int] = []            # owner, -1 if free
        self.depth: list[int] = []             # flattened re-acquires still open
        self.log: list[list[list]] = []        # [owner, acq time, rel time | None]
        self.cursors: list[dict[int, int]] = []  # thread -> log index, 0 if absent
        # var -> rule (a) slots [accessor, foreign accessor, writer, foreign writer]
        self.slots: list[dict[int, list]] = []

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
            self.state.append(NEW)
            self.frames.append([])
            self._last_times.append(None)

    def _ensure_lock(self, l: int) -> None:
        while len(self.holder) <= l:
            self.lock_pred.append(())
            self.lock_hb.append(())
            self.holder.append(-1)
            self.depth.append(0)
            self.log.append([])
            self.cursors.append({})
            self.slots.append({})

    def _tick(self, t: int) -> None:
        # t's row if it has none, a refusal once t was joined, the local clock
        # bump owed since t's last release or fork, and t's start at its first event
        if t >= len(self.state):
            self._ensure_thread(t)
        state = self.state[t]
        if state & JOINED:
            raise EngineError(f"thread {t} acts after being joined", "JoinOfLiveThread")
        if state & OWED:
            self.hbt[t][t] += 1
        if state & NEW:
            self._start(t)
        self.state[t] = 0

    def _start(self, t: int) -> None:
        # t's cursors all start at 0: the whole log of every lock is ahead of it
        self.state[t] &= ~NEW
        self.nstarted += 1
        self.queue_load += self.total_entries
        if self.queue_load > self.max_queue_load:
            self.max_queue_load = self.queue_load

    def _fold(self, t: int, pred_t: list[int], rel: tuple[int, ...], v: int) -> bool:
        """Fold the release time rel of a section of thread v != t into
        pred_t, t's pred, unless rel[v] <= pred_t[v] shows that the join
        changes nothing.  Returns whether it joined."""
        if v < len(pred_t) and rel[v] <= pred_t[v]:
            if self.invariant_checks and not leq(rel, pred_t):
                raise EngineError(f"epoch test skipped a join that changes pred of thread {t}")
            return False
        join_into(pred_t, rel)
        return True

    def _snap(self, t: int) -> tuple[int, ...]:
        c = self.pred[t][:]
        c[t] = self.hbt[t][t]
        return tuple(c)

    def _enter(self, t: int, l: int) -> bool:
        """Lock discipline and HB's lock rule of an acquire.  Returns False
        for a flattened re-entrant acquire; otherwise t now holds l and
        hbt[t] has joined the lock's last release HB time."""
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
        if t >= len(self.state) or self.state[t]:
            self._tick(t)
        self.holder[l] = t
        join_into(self.hbt[t], self.lock_hb[l])
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
        if self.state[t]:       # t holds l, so it has started
            self._tick(t)
        self.holder[l] = -1
        self.state[t] = OWED
        self.lock_hb[l] = tuple(self.hbt[t])
        return frames.pop()

    # -- operations (one per event kind) -------------------------------

    def acquire(self, t: int, l: int) -> tuple[int, ...]:
        if not self._enter(t, l):
            return self._snap(t)
        join_into(self.pred[t], self.lock_pred[l])
        snap = self._snap(t)
        entry = [t, snap, None]
        self.log[l].append(entry)
        self.total_entries += 1
        self.queue_load += self.nstarted - 1
        if self.queue_load > self.max_queue_load:
            self.max_queue_load = self.queue_load
        self.frames[t].append((l, entry))
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
        last = None     # latest drained release time not yet folded into pred_t, by v
        drained = 0
        while i < end:
            u, acq, rel = log_l[i]
            if u == t:
                i += 1
                continue
            # epoch test for leq(acq, C_t): u != t, so C_t[u] is pred_t[u]
            ok = acq[u] <= (pred_t[u] if u < len(pred_t) else 0)
            if checks and leq(acq, self._snap(t)) != ok:
                raise EngineError(f"epoch test disagrees with leq in the drain of thread {t}")
            if not ok:
                # fold and retest; a skipped fold changes nothing, so the retest would fail
                joined = last is not None and self._fold(t, pred_t, last, v)
                last = None
                if not joined:
                    break
                continue
            if rel is None:
                raise EngineError("drained a critical section whose release is still pending")
            last, v = rel, u
            drained += 1
            i += 1
        if last is not None:
            self._fold(t, pred_t, last, v)
        self.cursors[l][t] = i
        self.queue_load -= drained
        self.lock_pred[l] = tuple(pred_t)
        frame[1][2] = self.lock_hb[l]
        return self._snap(t)

    def access(self, t: int, x: int, kind: int) -> tuple[int, ...]:
        """A read or write (kind) of x by t: rule (a) in every section t
        holds, each then filed as the latest over its lock to access (write) x."""
        # per-event path: _tick only for a new row or a state bit
        if t >= len(self.state) or self.state[t]:
            self._tick(t)
        pred_t = self.pred[t]
        frames = self.frames[t]
        if frames:
            write = kind == WRITE
            i = 0 if write else 2   # a write consults the accessors, a read the writers
            slots = self.slots
            for l, entry in frames:
                table = slots[l]
                slot = table.get(x)
                if slot is None:
                    table[x] = [entry, None, entry if write else None, None]
                    continue
                # the latest foreign section: closed, since t holds l
                last = slot[i]
                if last is not None and last[0] == t:
                    last = slot[i + 1]
                if last is not None:
                    self._fold(t, pred_t, last[2], last[0])
                if slot[0][0] != t:
                    slot[1] = slot[0]
                slot[0] = entry
                if write:
                    if slot[2] is not None and slot[2][0] != t:
                        slot[3] = slot[2]
                    slot[2] = entry
        c = pred_t[:]
        c[t] = self.hbt[t][t]
        return tuple(c)

    def fork(self, t: int, u: int) -> tuple[int, ...]:
        self._ensure_thread(max(t, u))
        if u == t or not self.state[u] & NEW:
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
        self.state[t] = OWED
        return snap

    def join(self, t: int, u: int) -> tuple[int, ...]:
        self._ensure_thread(max(t, u))
        if u == t:
            raise EngineError("thread cannot join itself", "JoinOfLiveThread")
        self._tick(t)
        # u must never act again (the mark makes its next event raise), so
        # exporting its HB clock below ends its last granule; an unstarted u
        # keeps NEW, so a later fork of it is allowed
        self.state[u] |= JOINED
        if self.state[u] & NEW:
            self.warnings.append(EngineWarning("JoinOfUnknownThread", f"join of thread {u}, "
                                               "which has not started: nothing to join, "
                                               "and it may not act later"))
            return self._snap(t)
        join_into(self.hbt[t], self.hbt[u])
        join_into(self.pred[t], self.pred[u])
        return self._snap(t)

    # -- driver ---------------------------------------------------------

    _DISPATCH = {ACQUIRE: acquire, RELEASE: release, FORK: fork, JOIN: join}

    def process(self, e: Event) -> tuple[int, ...]:
        """Dispatch one event (fed in trace order); returns its timestamp."""
        kind = e.kind
        try:
            if kind <= WRITE:
                snap = self.access(e.tid, e.op, kind)
            else:
                snap = self._DISPATCH[kind](self, e.tid, e.op)
                if kind == JOIN and self.warnings and self.warnings[-1].event is None:
                    self.warnings[-1].event = e
            if self.invariant_checks:
                self._check_invariants(e.tid)
        except EngineError as exc:
            exc.event = e
            raise
        return snap

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
