"""Brute-force fixpoint computation of the HB, CP and WCP orderings.

Relations are dense n x n boolean matrices stored as one Python int
bitmask per row, computed straight from the declarative rules, and used
as ground truth when differential-testing the streaming engines.  The
cost is O(n^3) per fixpoint round, so inputs are bounded (default 2000
events).

HB: thread order plus release -> later same-lock acquire, transitively
closed.  The strict precedence relations are least fixpoints:

  CP   (a) same-lock sections containing conflicting events order
           release before acquire; (b) likewise for CP-ordered events;
           (c) closed under HB composition on both sides.
  WCP  (a) a release is ordered before a later conflicting access that
           is itself inside a section over the same lock; (b) same-lock
           releases are ordered when their sections contain WCP-ordered
           events; (c) closed under HB composition.

"Conflicting" is cross-thread (same variable, at least one write,
different threads) throughout.  Fork/join edges, when present, are added
to HB before closure so the oracle matches the engines' extension.
Re-entrant inner acquire/release pairs are treated as inert events.
"""

from __future__ import annotations

from dataclasses import dataclass

from .trace_model import (ACQUIRE, FORK, JOIN, READ, RELEASE, WRITE, Trace,
                          conflicting)

DEFAULT_BOUND = 2000

HB = "HB"
CP_PREC = "CPprec"
WCP_PREC = "WCPprec"
CP_LE = "CPle"
WCP_LE = "WCPle"


class BoundExceeded(Exception):
    pass


@dataclass
class OrderRelation:
    """Row i's bitmask has bit j set iff (i, j) is in the relation."""

    n: int
    bits: list[int]
    kind: str

    def holds(self, i: int, j: int) -> bool:
        return bool(self.bits[i] >> j & 1)

    def pairs(self):
        for i, row in enumerate(self.bits):
            row &= ~(1 << i)
            while row:
                low = row & -row
                yield i, low.bit_length() - 1
                row ^= low

    def contains(self, other: "OrderRelation") -> bool:
        return all(o & ~s == 0 for s, o in zip(self.bits, other.bits))

    def dump_lines(self):
        tag = {HB: "hb", CP_PREC: "cp", WCP_PREC: "wcp", CP_LE: "cple", WCP_LE: "wcple"}[self.kind]
        for i, j in self.pairs():
            yield f"PREC|{tag}|{i}|{j}"


@dataclass
class _Section:
    lock: int
    thread: int
    acq: int
    rel: int | None     # None: open at end of trace
    mask: int           # bitmask of member events (endpoints included)


class _TraceView:
    """Logical structure shared by the closures: sections, access lists,
    enclosing-section map.  Inner re-entrant lock events are inert."""

    def __init__(self, trace: Trace, bound: int):
        n = trace.n_events
        if n > bound:
            raise BoundExceeded(f"{n} events exceeds oracle bound {bound}")
        self.trace = trace
        self.n = n
        self.sections: list[_Section] = []
        self.enclosing: list[list[int]] = [[] for _ in range(n)]   # event -> section ids
        self.accesses = [e for e in trace.events if e.kind <= WRITE]

        depth: dict[tuple[int, int], int] = {}
        open_by_thread: dict[int, list[int]] = {}
        self.logical_lock_event: list[bool] = [False] * n
        for e in trace.events:
            t = e.tid
            for sid in open_by_thread.get(t, ()):
                sec = self.sections[sid]
                sec.mask |= 1 << e.idx
                self.enclosing[e.idx].append(sid)
            if e.kind == ACQUIRE:
                d = depth.get((t, e.op), 0)
                depth[(t, e.op)] = d + 1
                if d == 0:
                    self.logical_lock_event[e.idx] = True
                    sid = len(self.sections)
                    self.sections.append(_Section(e.op, t, e.idx, None, 1 << e.idx))
                    self.enclosing[e.idx].append(sid)
                    open_by_thread.setdefault(t, []).append(sid)
            elif e.kind == RELEASE:
                d = depth.get((t, e.op), 0)
                if d == 1:
                    self.logical_lock_event[e.idx] = True
                    st = open_by_thread.get(t, [])
                    for k in range(len(st) - 1, -1, -1):
                        if self.sections[st[k]].lock == e.op:
                            self.sections[st[k]].rel = e.idx
                            del st[k]
                            break
                if d:
                    depth[(t, e.op)] = d - 1

    def sections_of_lock(self, l: int) -> list[_Section]:
        return [s for s in self.sections if s.lock == l]


def _to_refl_rows(trace: Trace) -> list[int]:
    n = trace.n_events
    rows = [1 << i for i in range(n)]
    last: dict[int, int] = {}
    for e in reversed(trace.events):
        j = last.get(e.tid)
        if j is not None:
            rows[e.idx] |= rows[j]
        last[e.tid] = e.idx
    return rows


def hb_closure(trace: Trace, bound: int = DEFAULT_BOUND) -> OrderRelation:
    """Reflexive-transitive HB rows: thread order, release -> later
    same-lock acquire, fork -> child's first event, child's last -> join."""
    view = _TraceView(trace, bound)
    n = view.n
    succs: list[list[int]] = [[] for _ in range(n)]

    last_in_thread: dict[int, int] = {}
    for e in trace.events:
        j = last_in_thread.get(e.tid)
        if j is not None:
            succs[j].append(e.idx)
        last_in_thread[e.tid] = e.idx

    by_lock: dict[int, list] = {}
    for e in trace.events:
        if e.kind in (ACQUIRE, RELEASE) and view.logical_lock_event[e.idx]:
            by_lock.setdefault(e.op, []).append(e)
    for evs in by_lock.values():
        for i, r in enumerate(evs):
            if r.kind != RELEASE:
                continue
            for a in evs[i + 1:]:
                if a.kind == ACQUIRE:
                    succs[r.idx].append(a.idx)

    first_in_thread: dict[int, int] = {}
    forked_at: dict[int, int] = {}
    for e in trace.events:
        first_in_thread.setdefault(e.tid, e.idx)
        if e.kind == FORK and e.op not in forked_at:
            forked_at[e.op] = e.idx
    for e in trace.events:
        if e.kind == FORK:
            child_first = first_in_thread.get(e.op)
            if child_first is not None and child_first > e.idx:
                succs[e.idx].append(child_first)
        elif e.kind == JOIN:
            child_last = last_in_thread.get(e.op)   # final index per thread
            if child_last is not None and child_last < e.idx:
                succs[child_last].append(e.idx)
            elif child_last is None and e.op in forked_at and forked_at[e.op] < e.idx:
                # eventless child: its lifetime still orders fork before join
                succs[forked_at[e.op]].append(e.idx)

    rows = [0] * n
    for i in range(n - 1, -1, -1):
        row = 1 << i
        for j in succs[i]:
            row |= rows[j]
        rows[i] = row
    return OrderRelation(n, rows, HB)


def _compose_with_hb(rows: list[int], hb: list[int], n: int) -> bool:
    """Close rows under composition with HB on both sides; True if grown."""
    grew = False
    while True:
        changed = False
        for i in range(n):
            row = rows[i]
            if not row:
                continue
            acc = row
            r = row
            while r:                      # i < j, j <=HB k  =>  i < k
                low = r & -r
                acc |= hb[low.bit_length() - 1]
                r ^= low
            acc &= ~(1 << i)              # the relations stay irreflexive here
            if acc != row:
                rows[i] = acc
                changed = True
        for i in range(n):
            acc = rows[i]
            r = hb[i] & ~(1 << i)
            while r:                      # i <=HB c, c < j  =>  i < j
                low = r & -r
                acc |= rows[low.bit_length() - 1]
                r ^= low
            if acc != rows[i]:
                rows[i] = acc
                changed = True
        if not changed:
            return grew
        grew = True


def wcp_prec_closure(trace: Trace, bound: int = DEFAULT_BOUND) -> OrderRelation:
    view = _TraceView(trace, bound)
    n = view.n
    hb = hb_closure(trace, bound).bits
    rows = [0] * n

    # Rule (a): release r, later conflicting access e inside a same-lock
    # section (necessarily a different section, so its acquire is after r).
    for e in view.accesses:
        for sid in view.enclosing[e.idx]:
            s2 = view.sections[sid]
            for s1 in view.sections_of_lock(s2.lock):
                if s1.rel is None or s1.rel >= e.idx or s2.acq <= s1.rel:
                    continue
                mask = s1.mask
                for e1 in view.accesses:
                    if mask >> e1.idx & 1 and conflicting(e1, e):
                        rows[s1.rel] |= 1 << e.idx
                        break

    _compose_with_hb(rows, hb, n)

    # Rule (b) feeds rule (c) and vice versa: iterate to a joint fixpoint.
    by_lock: dict[int, list[_Section]] = {}
    for s in view.sections:
        if s.rel is not None:
            by_lock.setdefault(s.lock, []).append(s)
    while True:
        changed = False
        for secs in by_lock.values():
            for i, s1 in enumerate(secs):
                for s2 in secs[i + 1:]:
                    r1, r2 = s1.rel, s2.rel
                    if rows[r1] >> r2 & 1:
                        continue
                    m1, m2 = s1.mask, s2.mask
                    hit = False
                    e1m = m1
                    while e1m:
                        low = e1m & -e1m
                        if rows[low.bit_length() - 1] & m2:
                            hit = True
                            break
                        e1m ^= low
                    if hit:
                        rows[r1] |= 1 << r2
                        changed = True
        if changed:
            _compose_with_hb(rows, hb, n)
        else:
            break
    return OrderRelation(n, rows, WCP_PREC)


def cp_prec_closure(trace: Trace, bound: int = DEFAULT_BOUND) -> OrderRelation:
    view = _TraceView(trace, bound)
    n = view.n
    hb = hb_closure(trace, bound).bits
    rows = [0] * n

    by_lock: dict[int, list[_Section]] = {}
    for s in view.sections:
        by_lock.setdefault(s.lock, []).append(s)

    # Rule (a): same-lock section pair with conflicting events orders the
    # earlier release before the later acquire.
    for secs in by_lock.values():
        for i, s1 in enumerate(secs):
            if s1.rel is None:
                continue
            for s2 in secs[i + 1:]:
                if s2.acq <= s1.rel:
                    continue
                hit = False
                for e1 in view.accesses:
                    if not (s1.mask >> e1.idx & 1):
                        continue
                    for e2 in view.accesses:
                        if s2.mask >> e2.idx & 1 and conflicting(e1, e2):
                            hit = True
                            break
                    if hit:
                        break
                if hit:
                    rows[s1.rel] |= 1 << s2.acq

    _compose_with_hb(rows, hb, n)

    while True:
        changed = False
        for secs in by_lock.values():
            for i, s1 in enumerate(secs):
                if s1.rel is None:
                    continue
                for s2 in secs[i + 1:]:
                    if s2.acq <= s1.rel or rows[s1.rel] >> s2.acq & 1:
                        continue
                    hit = False
                    e1m = s1.mask
                    while e1m:
                        low = e1m & -e1m
                        if rows[low.bit_length() - 1] & s2.mask:
                            hit = True
                            break
                        e1m ^= low
                    if hit:
                        rows[s1.rel] |= 1 << s2.acq
                        changed = True
        if changed:
            _compose_with_hb(rows, hb, n)
        else:
            break
    return OrderRelation(n, rows, CP_PREC)


def as_partial_order(trace: Trace, prec: OrderRelation) -> OrderRelation:
    """A WCP or CP precedence closure united with thread order: the
    partial order that races_of takes."""
    rows = [r | t for r, t in zip(prec.bits, _to_refl_rows(trace))]
    return OrderRelation(prec.n, rows, {WCP_PREC: WCP_LE, CP_PREC: CP_LE}[prec.kind])


def wcp_le(trace: Trace, bound: int = DEFAULT_BOUND) -> OrderRelation:
    """The WCP partial order: strict precedence united with thread order."""
    return as_partial_order(trace, wcp_prec_closure(trace, bound))


def cp_le(trace: Trace, bound: int = DEFAULT_BOUND) -> OrderRelation:
    return as_partial_order(trace, cp_prec_closure(trace, bound))


def races_of(trace: Trace, rel: OrderRelation) -> set[tuple[int, int]]:
    """All conflicting pairs (i < j) unordered by rel."""
    if rel.kind not in (HB, CP_LE, WCP_LE):
        raise ValueError(f"races are defined over partial orders, not {rel.kind}")
    accesses = [e for e in trace.events if e.kind <= WRITE]
    out = set()
    for i, e1 in enumerate(accesses):
        for e2 in accesses[i + 1:]:
            if not conflicting(e1, e2):
                continue
            a, b = e1.idx, e2.idx
            if not rel.holds(a, b) and not rel.holds(b, a):
                out.add((a, b))
    return out
