"""Helpers that only the tests use: looking up events by location, comparing
relations and trace events."""

from __future__ import annotations

from racepred.oracle import OrderRelation
from racepred.trace_model import WRITE, Event, Trace


def find_by_loc(trace: Trace, loc: str) -> int:
    """Index of the unique event carrying loc (first one for expanded lines)."""
    for e in trace.events:
        if e.loc == loc:
            return e.idx
    raise KeyError(loc)


def contains(rel: OrderRelation, other: OrderRelation) -> bool:
    """Every pair of other is in rel."""
    return all(o & ~s == 0 for s, o in zip(rel.bits, other.bits))


def conflicting(e1: Event, e2: Event) -> bool:
    """Same variable, at least one write, different threads."""
    return (
        e1.kind <= WRITE
        and e2.kind <= WRITE
        and e1.op == e2.op
        and e1.tid != e2.tid
        and (e1.kind == WRITE or e2.kind == WRITE)
    )
