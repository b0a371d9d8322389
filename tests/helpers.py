"""Helpers that only the tests use: the bundled fixtures by name, looking up
events by location, the CP partial order, querying and comparing relations,
a validation report's errors and warnings, and comparing trace events."""

from __future__ import annotations

from racepred.hb_engine import ValidationReport, Violation
from racepred.oracle import (DEFAULT_BOUND, OrderRelation, as_partial_order,
                             cp_prec_closure)
from racepred.trace_model import WRITE, Event, Trace
from racepred.tracegen import FIXTURE_NAMES, fixture


def fixtures() -> dict[str, Trace]:
    return {name: fixture(name) for name in FIXTURE_NAMES}


def find_by_loc(trace: Trace, loc: str) -> int:
    """Index of the unique event carrying loc (first one for expanded lines)."""
    for e in trace.events:
        if e.loc == loc:
            return e.idx
    raise KeyError(loc)


def cp_le(trace: Trace, bound: int = DEFAULT_BOUND) -> OrderRelation:
    """The CP partial order: strict precedence united with thread order."""
    return as_partial_order(trace, cp_prec_closure(trace, bound))


def holds(rel: OrderRelation, i: int, j: int) -> bool:
    """(i, j) is in rel."""
    return bool(rel.bits[i] >> j & 1)


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


def errors_of(report: ValidationReport) -> list[Violation]:
    return [v for v in report.violations if not v.is_warning]


def warnings_of(report: ValidationReport) -> list[Violation]:
    return [v for v in report.violations if v.is_warning]
