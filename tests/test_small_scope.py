"""Small-scope checks: every trace up to a few events, not a sample.

Most bugs show on some small input (Jackson's small-scope hypothesis,
Software Abstractions, 2006), so these tests enumerate every trace in a
small scope -- a bound on threads, locks, variables and events -- and
hold the engines to the oracle on each.  Ids are numbered in order of
first use, as parsing interns them, so no two enumerated traces differ
only by a renaming.

well_formed makes each trace from these steps, by any thread that has
not been joined: an acquire of a free or self-held lock (re-entrant);
a release of the innermost lock the thread holds; a read or write; a
fork of a new thread; a join of a started, unjoined thread that holds no
lock; and the first event of a late thread that was never forked.  A
joined thread takes no further step.  On one core of a 2-CPU VM
(Python 3.11) the default sizes take 2.3 s and the short sequences
2.4 s; ``pytest -m exhaustive`` runs two larger scopes in about 60 s.
"""

import itertools

import pytest

from racepred.hb_engine import HbEngine, validate
from racepred.oracle import hb_closure, wcp_le
from racepred.race_reporter import AccessClocks, run_detector
from racepred.trace_model import ACQUIRE, FORK, JOIN, READ, RELEASE, WRITE, Trace
from racepred.vclock import leq
from racepred.wcp_engine import EngineError, WcpEngine

_PREFIX = {READ: "X", WRITE: "X", ACQUIRE: "L", RELEASE: "L", FORK: "T", JOIN: "T"}


def _steps(state, threads, locks, variables):
    """(event, next state) for every step the rules allow after state:
    (held, joined, n_locks, n_vars), held being per thread the locks it
    holds, innermost last, a re-entered lock once per acquire."""
    held, joined, n_locks, n_vars = state
    n = len(held)
    for t in [u for u in range(n) if not joined[u]] + ([n] if n < threads else []):
        h, j = (held, joined) if t < n else (held + ((),), joined + (False,))
        mine = h[t]
        for l in range(min(n_locks + 1, locks)):
            if not any(l in other for u, other in enumerate(h) if u != t):
                h2 = h[:t] + (mine + (l,),) + h[t + 1:]
                yield (t, ACQUIRE, l), (h2, j, max(n_locks, l + 1), n_vars)
        if mine:
            yield (t, RELEASE, mine[-1]), (h[:t] + (mine[:-1],) + h[t + 1:], j, n_locks, n_vars)
        for x in range(min(n_vars + 1, variables)):
            for kind in (READ, WRITE):
                yield (t, kind, x), (h, j, n_locks, max(n_vars, x + 1))
        if len(h) < threads:
            yield (t, FORK, len(h)), (h + ((),), j + (False,), n_locks, n_vars)
        for u in range(n):
            if u != t and not j[u] and not h[u]:
                yield (t, JOIN, u), (h, j[:u] + (True,) + j[u + 1:], n_locks, n_vars)


def well_formed(threads, locks, variables, max_events):
    """Every trace of 1 to max_events events that the steps above make
    within the scope, as a tuple of (tid, kind, operand) ids."""
    def grow(prefix, state):
        for event, nxt in _steps(state, threads, locks, variables):
            trace = prefix + (event,)
            yield trace
            if len(trace) < max_events:
                yield from grow(trace, nxt)
    return grow((), ((), (), 0, 0))


def as_trace(events):
    tr = Trace()
    for t, kind, op in events:
        tr.add(f"T{t}", kind, f"{_PREFIX[kind]}{op}")
    return tr


def mismatches(tr):
    """The pairs i < j on which an engine's order disagrees with the
    oracle's: WcpEngine's C with wcp_le, and its H and HbEngine's C with
    hb_closure."""
    wle, hb = wcp_le(tr), hb_closure(tr)
    wcp, hb_eng = WcpEngine(invariant_checks=True), HbEngine(invariant_checks=True)
    stamps = {"wcp C": [], "wcp H": [], "hb C": []}
    for e in tr.events:
        stamps["wcp C"].append(wcp.process(e))
        stamps["wcp H"].append(tuple(wcp.hbt[e.tid]))
        stamps["hb C"].append(hb_eng.process(e))
    out = []
    for name, cs in stamps.items():
        rel = wle if name == "wcp C" else hb
        out += [(name, i, j) for i, j in itertools.combinations(range(len(cs)), 2)
                if leq(cs[i], cs[j]) != rel.holds(i, j)]
    return out


def check_scope(threads, locks, variables, max_events):
    count = 0
    for events in well_formed(threads, locks, variables, max_events):
        tr = as_trace(events)
        assert validate(tr).ok, tr.serialize()
        assert not mismatches(tr), (tr.serialize(), mismatches(tr))
        count += 1
    return count


@pytest.mark.parametrize("scope, count", [
    ((2, 2, 1, 4), 2295),
    ((3, 1, 2, 4), 13653),
])
def test_engines_equal_the_oracle_on_every_small_trace(scope, count):
    assert check_scope(*scope) == count


@pytest.mark.exhaustive
@pytest.mark.parametrize("scope, count", [
    ((2, 2, 1, 6), 139090),
    ((3, 1, 2, 5), 227214),
])
def test_engines_equal_the_oracle_on_every_larger_trace(scope, count):
    assert check_scope(*scope) == count


def every_sequence(threads, locks, variables, max_events):
    """Every sequence of 1 to max_events events over the given ids, well
    formed or not."""
    ops = [(kind, op) for kind, n in ((READ, variables), (WRITE, variables), (ACQUIRE, locks),
                                      (RELEASE, locks), (FORK, threads), (JOIN, threads))
           for op in range(n)]
    alphabet = [(t, kind, op) for t in range(threads) for kind, op in ops]
    for length in range(1, max_events + 1):
        yield from itertools.product(alphabet, repeat=length)


def left_out(events):
    """Whether a sequence that validate accepts joins a thread that has not
    started, was joined already or holds a lock: the steps of well_formed
    make no such join."""
    started, joined, holding = set(), set(), {}     # thread -> acquires still open
    for t, kind, op in events:
        if kind == JOIN:
            if op not in started or op in joined or holding.get(op):
                return True
            joined.add(op)
        started.add(t)
        if kind == FORK:
            started.add(op)
        elif kind in (ACQUIRE, RELEASE):
            holding[t] = holding.get(t, 0) + (1 if kind == ACQUIRE else -1)
    return False


@pytest.fixture(scope="module")
def short_sequences():
    """Every sequence of at most 3 events over 3 threads, 2 locks and 1
    variable, run through validate and through run_detector with each
    engine: the sequences on which they disagree, the errors without a
    kind, and the accepted sequences, renumbered, that well_formed should
    make."""
    disagree, kindless, accepted = [], [], set()
    count = 0
    for events in every_sequence(3, 2, 1, 3):
        count += 1
        tr = as_trace(events)
        ok = validate(tr).ok
        for engine_cls in (WcpEngine, HbEngine):
            try:
                run_detector(tr.events, engine_cls(), AccessClocks())
                ran = True
            except EngineError as exc:
                ran = False
                if exc.kind is None:
                    kindless.append((engine_cls.detector, events, str(exc)))
            if ran != ok:
                disagree.append((engine_cls.detector, events))
        if ok and not left_out(events):
            accepted.add(tuple((e.tid, e.kind, e.op) for e in tr.events))
    return count, disagree, kindless, accepted


def test_validate_accepts_exactly_what_both_engines_run(short_sequences):
    count, disagree, kindless, _ = short_sequences
    assert count == 47988
    assert disagree == []
    assert kindless == []


def test_well_formed_makes_every_accepted_trace(short_sequences):
    # as_trace renumbers each sequence's ids in order of first use
    assert set(well_formed(3, 2, 1, 3)) == short_sequences[3]
