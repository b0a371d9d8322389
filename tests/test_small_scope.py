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
joined thread takes no further step.

refusal names the steps the engines refuse instead, each with the rule
it breaks.  After every well_formed prefix of at most 3 events over 2
threads, 2 locks and 1 variable, every step is held to both engines,
and each refused one must end analyze, oracle and validate at its own
event.  On one core of a 2-CPU VM (Python 3.11) the default sizes take
2.3 s, the short sequences 2.4 s and the refused steps 2.3 s;
``pytest -m exhaustive`` runs two larger scopes in about 60 s.
"""

import itertools

import pytest
from helpers import holds

from racepred import cli
from racepred.hb_engine import HbEngine, validate
from racepred.oracle import hb_closure, wcp_le
from racepred.race_reporter import AccessClocks, run_detector
from racepred.trace_model import ACQUIRE, FORK, JOIN, READ, RELEASE, WRITE, Trace
from racepred.tracegen import GenParams, gen_random
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


def prefixes(threads, locks, variables, max_events):
    """Every trace of 0 to max_events events that the steps above make
    within the scope, as a tuple of (tid, kind, operand) ids, with the
    state after it."""
    def grow(prefix, state):
        yield prefix, state
        if len(prefix) < max_events:
            for event, nxt in _steps(state, threads, locks, variables):
                yield from grow(prefix + (event,), nxt)
    return grow((), ((), (), 0, 0))


def well_formed(threads, locks, variables, max_events):
    """Every trace of 1 to max_events events that the steps above make
    within the scope."""
    return (trace for trace, _ in prefixes(threads, locks, variables, max_events) if trace)


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
                if leq(cs[i], cs[j]) != holds(rel, i, j)]
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


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 17: the oracle's rule (b) orders two sections of one "
                          "thread, the engine's drain skips the thread's own log entries")
def test_item_17_engines_equal_the_oracle_on_fork_free_random_traces():
    # today seeds 95, 137, 179, 180, 201, 306, 320 and 397 differ, on wcp C only
    differ = [seed for seed in range(400)
              if mismatches(gen_random(GenParams(threads=3, locks=2, vars=2, events=60,
                                                 max_nesting=2, p_lock=0.5, seed=seed)))]
    assert differ == []


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


def refusal(state, event):
    """(category, kind) of the rule the engines break on event after
    state, in the order they check, or None when they run it.  The release
    of a lock that the thread holds more than once is a flattened inner
    one, whichever section is innermost."""
    held, joined, _, _ = state
    t, kind, op = event
    n = len(held)
    mine = held[t] if t < n else ()
    if kind == ACQUIRE and any(op in h for u, h in enumerate(held) if u != t):
        return "double acquire", "DoubleAcquire"
    if kind == RELEASE:
        if op not in mine:
            return "release of an unheld lock", "UnmatchedRelease"
        if mine.count(op) == 1 and op != list(dict.fromkeys(mine))[-1]:
            return "non-innermost release", "BadNesting"
    if kind == FORK and (op == t or op < n):
        return "fork of itself or a started thread", "ForkOfKnownThread"
    if kind == JOIN and op == t:
        return "self-join", "JoinOfLiveThread"
    if t < n and joined[t]:
        return "event of a joined thread", "JoinOfLiveThread"
    return None


def every_step(state, threads, locks, variables):
    """Every event after state, well formed or not, over the ids in use
    and one new id of each kind, within the scope."""
    held, _, n_locks, n_vars = state
    for t in range(min(len(held) + 1, threads)):
        n = max(len(held), t + 1)     # threads, t included
        for kind, count in ((READ, min(n_vars + 1, variables)), (WRITE, min(n_vars + 1, variables)),
                            (ACQUIRE, min(n_locks + 1, locks)), (RELEASE, min(n_locks + 1, locks)),
                            (FORK, min(n + 1, threads)), (JOIN, min(n + 1, threads))):
            for op in range(count):
                yield t, kind, op


def test_every_refused_step_ends_analyze_oracle_and_validate_at_its_event(capsys, tmp_path):
    # refusal is checked against both engines' process on every step after
    # every prefix; each step it refuses then ends the three commands alike
    path = str(tmp_path / "t.std")
    seen, checked = set(), 0
    for prefix, state in prefixes(2, 2, 1, 3):
        for step in every_step(state, 2, 2, 1):
            expected = refusal(state, step)
            tr = as_trace(prefix + (step,))
            bad = tr.events[-1]
            for engine_cls in (WcpEngine, HbEngine):
                engine = engine_cls()
                for e in tr.events[:-1]:
                    engine.process(e)
                try:
                    engine.process(bad)
                    refused = None
                except EngineError as exc:
                    assert exc.event is bad
                    refused = exc.kind
                assert refused == (expected and expected[1]), (engine_cls.detector, prefix, step)
            if expected is None:
                continue
            seen.add(expected[0])
            checked += 1
            with open(path, "w") as f:
                f.write(tr.serialize())
            named = f"error: event {bad.idx} ({tr.event_line(bad)}): "
            results = []
            for command in ("analyze", "oracle", "validate"):
                code = cli.main([command, path])
                out, err = capsys.readouterr()
                assert code == 2, (command, prefix, step)
                results.append((out, err))
            (a_out, a_err), (o_out, o_err), (v_out, _) = results
            assert a_out == o_out == "" and a_err == o_err, (prefix, step)
            assert a_err.startswith(named) and a_err.count("\n") == 1, a_err
            first = next(line for line in v_out.splitlines() if line.startswith("VIOLATION|error|"))
            assert first.startswith(f"VIOLATION|error|{expected[1]}|idx={bad.idx}|"), first
    assert checked == 2878
    assert seen == {"double acquire", "release of an unheld lock", "non-innermost release",
                    "fork of itself or a started thread", "self-join", "event of a joined thread"}
