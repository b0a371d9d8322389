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
different threads) throughout: an access conflicts with the other
threads' writes to its variable and, for a write, their reads too, one
mask per (variable, kind) less the thread's own.  Fork/join edges, when
present, are added to HB before closure so the oracle matches the
engines' extension.  Re-entrant inner acquire/release pairs are inert.

Each query builds one _TraceView: the critical sections grouped by lock,
each with the bitmask of its events and the OR of its accesses' conflict
masks, and the HB rows, reached from thread order, lock handoffs and
fork/join edges.  Rule (a) is then one mask test per section pair, and
CP and WCP share one fixpoint, _close: rule (b) is a list of (s1, s2,
target) candidates -- s1's release is ordered before target, s2's
acquire for CP and its release for WCP, once an event of s1 precedes one
of s2 -- and rule (c) runs between rounds as one sweep from the last
event down.  HB edges point forward, so every row that HB-follows row i
is final when i is reached, and row i is the HB right-closure of its own
bits ORed with those rows.  That is exact while every ordered pair points
forward, as on any well-formed trace; overlapping same-lock sections (a
double acquire) can order a release before an earlier one, and the sweep
still ends.
"""

from __future__ import annotations

from dataclasses import dataclass

from .trace_model import ACQUIRE, FORK, JOIN, READ, RELEASE, WRITE, Trace

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

    def pairs(self):
        for i, row in enumerate(self.bits):
            row &= ~(1 << i)
            while row:
                low = row & -row
                yield i, low.bit_length() - 1
                row ^= low

    def dump_lines(self):
        tag = {HB: "hb", CP_PREC: "cp", WCP_PREC: "wcp", CP_LE: "cple", WCP_LE: "wcple"}[self.kind]
        for i, j in self.pairs():
            yield f"PREC|{tag}|{i}|{j}"


def _conflicts(trace: Trace) -> list[int]:
    """Per event, the bitmask of the accesses it conflicts with: the other
    threads' writes to its variable and, for a write, their reads too."""
    accesses = [e for e in trace.events if e.kind <= WRITE]
    masks: dict[tuple[int, int, int], int] = {}   # (var, kind, thread or -1) -> accesses
    for e in accesses:
        for key in ((e.op, e.kind, e.tid), (e.op, e.kind, -1)):
            masks[key] = masks.get(key, 0) | 1 << e.idx
    conf = [0] * trace.n_events
    for e in accesses:
        for kind in (READ, WRITE) if e.kind == WRITE else (WRITE,):
            conf[e.idx] |= masks.get((e.op, kind, -1), 0) & ~masks.get((e.op, kind, e.tid), 0)
    return conf


def _thread_order(trace: Trace) -> tuple[list[list[int]], dict[int, int], dict[int, int]]:
    """Each event's successor in its thread; each thread's first and last event."""
    succs: list[list[int]] = [[] for _ in range(trace.n_events)]
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for e in trace.events:
        j = last.get(e.tid)
        if j is not None:
            succs[j].append(e.idx)
        first.setdefault(e.tid, e.idx)
        last[e.tid] = e.idx
    return succs, first, last


def _reach(succs: list[list[int]]) -> list[int]:
    """Reflexive-transitive rows of a graph whose edges all point forward."""
    rows = [0] * len(succs)
    for i in range(len(succs) - 1, -1, -1):
        row = 1 << i
        for j in succs[i]:
            row |= rows[j]
        rows[i] = row
    return rows


@dataclass(eq=False)
class _Section:
    lock: int
    acq: int
    rel: int | None     # None: open at end of trace
    mask: int           # bitmask of member events (endpoints included)
    conf: int = 0       # bitmask of the accesses its accesses conflict with


class _TraceView:
    """What the closures share: sections by lock, in acquire order, with
    their conflict masks; the handoff pairs; and the HB rows.  Inner
    re-entrant lock events are inert."""

    def __init__(self, trace: Trace, bound: int):
        n = trace.n_events
        if n > bound:
            raise BoundExceeded(f"{n} events exceeds oracle bound {bound}")
        self.n = n
        self.by_lock: dict[int, list[_Section]] = {}
        conf = _conflicts(trace)
        depth: dict[tuple[int, int], int] = {}
        open_by_thread: dict[int, list[_Section]] = {}
        for e in trace.events:
            t = e.tid
            for sec in open_by_thread.get(t, ()):
                sec.mask |= 1 << e.idx
                sec.conf |= conf[e.idx]
            if e.kind == ACQUIRE:
                depth[t, e.op] = depth.get((t, e.op), 0) + 1
                if depth[t, e.op] == 1:
                    sec = _Section(e.op, e.idx, None, 1 << e.idx)
                    self.by_lock.setdefault(e.op, []).append(sec)
                    open_by_thread.setdefault(t, []).append(sec)
            elif e.kind == RELEASE and depth.get((t, e.op)):
                depth[t, e.op] -= 1
                if depth[t, e.op] == 0:
                    st = open_by_thread[t]
                    sec = next(s for s in reversed(st) if s.lock == e.op)
                    sec.rel = e.idx
                    st.remove(sec)
        # s1's release before s2's acquire: HB's lock edges and CP's pairs
        self.handoffs = [(s1, s2) for s1, s2 in self.later() if s2.acq > s1.rel]
        self.hb = self._hb_rows(trace)

    def later(self):
        """(s1, s2): same-lock sections, s1 closed and acquired before s2."""
        for secs in self.by_lock.values():
            for i, s1 in enumerate(secs):
                if s1.rel is not None:
                    for s2 in secs[i + 1:]:
                        yield s1, s2

    def _hb_rows(self, trace: Trace) -> list[int]:
        """Thread order, release -> later same-lock acquire, fork -> child's
        first event and child's last -> join, reflexive and transitive."""
        succs, first_in_thread, last_in_thread = _thread_order(trace)
        for s1, s2 in self.handoffs:
            succs[s1.rel].append(s2.acq)
        forked_at: dict[int, int] = {}
        for e in trace.events:
            if e.kind == FORK:
                forked_at.setdefault(e.op, e.idx)
                if first_in_thread.get(e.op, -1) > e.idx:
                    succs[e.idx].append(first_in_thread[e.op])
            elif e.kind == JOIN:
                child_last = last_in_thread.get(e.op)   # final index per thread
                if child_last is not None and child_last < e.idx:
                    succs[child_last].append(e.idx)
                elif child_last is None and e.op in forked_at:
                    # eventless child: its lifetime still orders fork before join
                    succs[forked_at[e.op]].append(e.idx)
        return _reach(succs)


def hb_closure(trace: Trace, bound: int = DEFAULT_BOUND) -> OrderRelation:
    """Reflexive-transitive HB rows (see _TraceView._hb_rows)."""
    view = _TraceView(trace, bound)
    return OrderRelation(view.n, view.hb, HB)


def _compose_with_hb(rows: list[int], hb: list[int]) -> None:
    """Rule (c), HB composition on both sides: one sweep, last event first."""
    for i in range(len(rows) - 1, -1, -1):
        acc = 0
        # i < j, j <=HB k  =>  i < k;  then  i <=HB c, c < j  =>  i < j
        for table, r in ((hb, rows[i]), (rows, hb[i] & ~(1 << i))):
            while r:
                low = r & -r
                acc |= table[low.bit_length() - 1]
                r ^= low
        rows[i] = acc & ~(1 << i)         # the relations stay irreflexive here


def _close(view: _TraceView, rows: list[int], candidates, kind: str) -> OrderRelation:
    """The least fixpoint of rules (b) and (c) over rows seeded by rule (a).
    A candidate (s1, s2, target) orders s1.rel before target once an event
    of s1 precedes one of s2; after rule (c), s1's acquire precedes all
    that its later events precede, so its row alone decides."""
    while True:
        _compose_with_hb(rows, view.hb)
        candidates = [c for c in candidates if not rows[c[0].rel] >> c[2] & 1]
        fired = [(s1, target) for s1, s2, target in candidates if rows[s1.acq] & s2.mask]
        if not fired:
            return OrderRelation(view.n, rows, kind)
        for s1, target in fired:
            rows[s1.rel] |= 1 << target


def wcp_prec_closure(trace: Trace, bound: int = DEFAULT_BOUND) -> OrderRelation:
    view = _TraceView(trace, bound)
    rows = [0] * view.n
    # Rule (a): s2 follows s1's release, so its accesses that conflict with
    # s1's follow the release.
    for s1, s2 in view.handoffs:
        rows[s1.rel] |= s1.conf & s2.mask
    candidates = [(s1, s2, s2.rel) for s1, s2 in view.later() if s2.rel is not None]
    return _close(view, rows, candidates, WCP_PREC)


def cp_prec_closure(trace: Trace, bound: int = DEFAULT_BOUND) -> OrderRelation:
    view = _TraceView(trace, bound)
    rows = [0] * view.n
    # Rule (a): same-lock section pair with conflicting events orders the
    # earlier release before the later acquire.
    for s1, s2 in view.handoffs:
        if s1.conf & s2.mask:
            rows[s1.rel] |= 1 << s2.acq
    return _close(view, rows, [(s1, s2, s2.acq) for s1, s2 in view.handoffs], CP_PREC)


def as_partial_order(trace: Trace, prec: OrderRelation) -> OrderRelation:
    """A WCP or CP precedence closure united with thread order: the
    partial order that races_of takes."""
    rows = [r | t for r, t in zip(prec.bits, _reach(_thread_order(trace)[0]))]
    return OrderRelation(prec.n, rows, {WCP_PREC: WCP_LE, CP_PREC: CP_LE}[prec.kind])


def wcp_le(trace: Trace, bound: int = DEFAULT_BOUND) -> OrderRelation:
    """The WCP partial order: strict precedence united with thread order."""
    return as_partial_order(trace, wcp_prec_closure(trace, bound))


def races_of(trace: Trace, rel: OrderRelation) -> set[tuple[int, int]]:
    """All conflicting pairs (i < j) unordered by rel."""
    if rel.kind not in (HB, CP_LE, WCP_LE):
        raise ValueError(f"races are defined over partial orders, not {rel.kind}")
    out = set()
    for i, conf in enumerate(_conflicts(trace)):
        later = conf >> (i + 1) << (i + 1) & ~rel.bits[i]
        while later:
            low = later & -later
            j = low.bit_length() - 1
            if not rel.bits[j] >> i & 1:
                out.add((i, j))
            later ^= low
    return out
