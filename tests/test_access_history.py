"""Epoch access histories in check_access.

The epoch check must raise exactly the flags of the join-based check it
replaced, for the WCP timestamp, for the WCP engine's HB clock (which
--detector both checks against WCP's histories) and for HbEngine's
timestamp, and it must keep the epoch form while a variable's accesses
stay ordered.
"""

import random

from hypothesis import given, note, settings
from hypothesis import strategies as st
from helpers import fixtures
from test_oracle_pinned import FAMILIES
from test_wcp_engine import gen_forky

from racepred.hb_engine import HbEngine, validate
from racepred.race_reporter import AccessClocks, check_access, run_detector
from racepred.trace_model import (ACQUIRE, FORK, JOIN, READ, RELEASE, WRITE, Event,
                                  Trace, parse_trace)
from racepred.tracegen import GenParams, gen_equality_trace, gen_random, iter_scaling
from racepred.vclock import join_into, leq
from racepred.wcp_engine import EngineError, WcpEngine


def reference_check(clocks, kind, x, c):
    """The join-based check that epoch histories replaced: per variable,
    the join of all read and of all write timestamps."""
    if kind == READ:
        w = clocks.writes.get(x)
        flagged = w is not None and not leq(w, c)
        r = clocks.reads.get(x)
        if r is None:
            clocks.reads[x] = list(c)
        else:
            join_into(r, c)
    else:
        w = clocks.writes.get(x)
        r = clocks.reads.get(x)
        flagged = (w is not None and not leq(w, c)) or (r is not None and not leq(r, c))
        if w is None:
            clocks.writes[x] = list(c)
        else:
            join_into(w, c)
    return flagged


def reference_flags(tr):
    """Flagged indices by the reference check: wcp on C, hb on the WCP
    engine's hbt, and HbEngine on its own timestamp."""
    wcp_eng, hb_eng = WcpEngine(), HbEngine()
    clocks = (AccessClocks(), AccessClocks(), AccessClocks())
    out = ([], [], [])
    for e in tr.events:
        c = wcp_eng.process(e)
        h = hb_eng.process(e)
        if e.kind <= WRITE:
            for flags, cl, ts in zip(out, clocks, (c, wcp_eng.hbt[e.tid], h)):
                if reference_check(cl, e.kind, e.op, ts):
                    flags.append(e.idx)
    return out


def epoch_flags(tr):
    """The same three flag lists through run_detector and check_access."""
    wcp, hb, hb_own = AccessClocks(), AccessClocks(), AccessClocks()
    run_detector(tr.events, WcpEngine(), wcp, hb=hb)
    run_detector(tr.events, HbEngine(), hb_own)
    return tuple([f.idx for f in cl.flags] for cl in (wcp, hb, hb_own))


def assert_same_flags(traces):
    """Returns the number of flags compared, so callers can check that a
    family is racy enough to mean something."""
    n = 0
    for tr in traces:
        ref = reference_flags(tr)
        assert epoch_flags(tr) == ref, tr.serialize()
        n += sum(map(len, ref))
    return n


def test_epoch_check_matches_join_check_on_corpus(corpus):
    traces, _ = corpus
    assert assert_same_flags(traces) > 1000


def test_epoch_check_matches_join_check_with_fork_join():
    assert assert_same_flags(gen_forky(seed) for seed in range(300)) > 100


def test_epoch_check_matches_join_check_on_32_threads():
    traces = [gen_random(GenParams(threads=32, locks=8, vars=16, events=400, p_lock=0.4,
                                   max_nesting=3, seed=seed), close_sections=seed % 4 != 0)
              for seed in range(60)]
    assert assert_same_flags(traces) > 1000


def test_epoch_check_matches_join_check_on_fixtures_and_gadgets():
    gadgets = [gen_equality_trace(u, v) for u in ("00", "01", "10", "11")
               for v in ("00", "01", "10", "11")]
    gadgets += [gen_equality_trace("1011", "1001"), gen_equality_trace("0110", "0110")]
    assert assert_same_flags(list(fixtures().values()) + gadgets) > 10


def test_epoch_check_matches_join_check_on_fuzz():
    # seeded fuzz over short traces of every event kind: every trace the
    # engines run through, which is exactly every trace validate accepts
    rng = random.Random(29)
    operands = {"acq": ["l", "m"], "rel": ["l", "m"], "r": ["x", "y"], "w": ["x", "y"],
                "fork": ["T1", "T2", "T3"], "join": ["T1", "T2", "T3"]}
    accepted = rejected_but_run = 0
    for _ in range(6000):
        lines = []
        for _ in range(rng.randrange(1, 12)):
            op = rng.choice(list(operands))
            lines.append(f"{rng.choice(['T1', 'T2', 'T3'])}|{op}|{rng.choice(operands[op])}")
        tr = parse_trace(lines)
        try:
            ref = reference_flags(tr)
        except EngineError:
            continue
        assert epoch_flags(tr) == ref, lines
        if validate(tr).ok:
            accepted += 1
        else:
            rejected_but_run += 1
    assert accepted > 800 and rejected_but_run == 0


@st.composite
def fork_join_traces(draw):
    """Well-formed traces with fork, join, re-entrant and open sections,
    built from a list of small choices so that a counterexample shrinks."""
    steps = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 5), st.integers(0, 1)),
                          max_size=50))
    b = Trace()
    alive, finished, spawned = ["t0"], [], 1
    stacks = {"t0": []}
    holder = {}
    for pick, op, operand in steps:
        t = alive[pick % len(alive)]
        lock = f"l{operand}"
        if op == 2 and holder.get(lock, t) == t:
            holder[lock] = t
            stacks[t].append(lock)
            b.add(t, ACQUIRE, lock)
        elif op == 3 and stacks[t]:
            lock = stacks[t].pop()
            if lock not in stacks[t]:
                del holder[lock]
            b.add(t, RELEASE, lock)
        elif op == 4 and spawned < 5:
            u = f"t{spawned}"
            spawned += 1
            b.add(t, FORK, u)
            alive.append(u)
            stacks[u] = []
        elif op >= 4 and finished:
            b.add(t, JOIN, finished.pop())
        elif op >= 4 and t != "t0" and not stacks[t]:
            alive.remove(t)
            finished.append(t)
        else:
            b.add(t, READ if op % 2 == 0 else WRITE, f"x{operand}")
    return b


@settings(max_examples=300, deadline=None)
@given(fork_join_traces())
def test_epoch_check_matches_join_check_property(tr):
    note(tr.serialize())
    assert epoch_flags(tr) == reference_flags(tr)


def histories(*clocks):
    return [h for cl in clocks for h in (*cl.reads.values(), *cl.writes.values())]


def test_scaling_histories_stay_epochs():
    # iter_scaling is race-free, so every variable's accesses stay ordered,
    # in the WCP run (which also decides HB) and in HbEngine's own run
    events = [Event(i, t, k, op) for i, (k, t, op) in enumerate(iter_scaling(12_000))]
    wcp, hb, hb_own = AccessClocks(), AccessClocks(), AccessClocks()
    for engine, clocks, extra in ((WcpEngine(), wcp, (hb,)), (HbEngine(), hb_own, ())):
        seen = 0

        def after(e, c, engine):
            nonlocal seen
            if e.kind <= WRITE:
                assert all(type(h) is tuple for h in histories(clocks)), e.idx
                seen += 1
        run_detector(events, engine, clocks, after, *extra)
        assert seen == 8000 and not clocks.flags
        assert len(histories(clocks)) >= 32
    assert not hb.flags and not histories(hb)     # HB keeps no histories under both


def test_write_ordered_after_a_race_restores_the_epoch():
    tr = parse_trace(["T1|acq|l", "T1|w|x", "T1|r|x", "T1|rel|l",
                      "T2|w|x",                            # races with T1's accesses
                      "T2|acq|l", "T2|w|x", "T2|rel|l"])   # ordered after all of them
    x = tr.var_names.index("x")
    wcp, hb, hb_own = AccessClocks(), AccessClocks(), AccessClocks()
    for engine, clocks, extra in ((WcpEngine(), wcp, (hb,)), (HbEngine(), hb_own, ())):
        forms = []

        def after(e, c, engine):
            forms.append((type(clocks.writes.get(x)).__name__, x in clocks.reads))
        run_detector(tr.events, engine, clocks, after, *extra)
        assert forms[2] == ("tuple", True)      # T1's write, then its read
        assert forms[4] == ("list", True)       # the racy write folds into a join
        assert forms[6] == ("tuple", False)     # epoch again, and the reads dropped
        assert clocks.writes[x][0] == tr.thread_names.index("T2")
    assert [[f.idx for f in cl.flags] for cl in (wcp, hb, hb_own)] == [[4], [4], [4]]
    assert not hb.writes and not hb.reads       # HB keeps no histories under both


def test_caller_may_mutate_a_list_timestamp():
    # one caller passes tuples, another reuses one list and scribbles over
    # it after every call: the histories must not alias the caller's list
    tr = gen_random(GenParams(threads=8, locks=4, vars=6, events=2000, p_lock=0.3, seed=5))
    eng = WcpEngine()
    by_tuple, by_list = AccessClocks(), AccessClocks()
    flags_tuple, flags_list = [], []
    buf = []
    for e in tr.events:
        c = eng.process(e)
        if e.kind <= WRITE:
            flags_tuple.append(check_access(by_tuple, e.kind, e.op, (e.tid, c)))
            buf[:] = c
            flags_list.append(check_access(by_list, e.kind, e.op, (e.tid, buf)))
            buf[:] = [0] * len(buf)
    assert flags_list == flags_tuple and any(flags_tuple)
    assert (by_list.reads, by_list.writes) == (by_tuple.reads, by_tuple.writes)


def shared_verdict_traces():
    """The fixtures and gadgets, gen_forky 0-299, and 2,000 gen_random
    traces: a quarter with sections left open, and every fourth with 2
    locks at nesting depth 2."""
    yield from FAMILIES["fixtures_and_gadgets"]()
    for seed in range(300):
        yield gen_forky(seed)
    for seed in range(2000):
        params = GenParams(threads=2 + seed % 3, locks=2 if seed % 4 == 1 else 1 + seed % 3,
                           vars=1 + seed % 3, events=20 + seed % 41,
                           p_lock=(0.2, 0.5)[seed % 2], p_write=(0.3, 0.6)[seed % 3 % 2],
                           max_nesting=2 if seed % 4 == 1 else 1 + seed % 3, seed=seed)
        yield gen_random(params, close_sections=seed % 4 != 2)


def test_hb_verdict_under_both_equals_hb_engine():
    # under both, HB keeps no histories: it is decided only where WCP flags,
    # from WCP's histories before the update, against the live HB clock
    hb_flags = wcp_only = 0
    for tr in shared_verdict_traces():
        wcp, hb, own = AccessClocks(), AccessClocks(), AccessClocks()
        run_detector(tr.events, WcpEngine(), wcp, hb=hb)
        run_detector(tr.events, HbEngine(), own)
        assert [f.idx for f in hb.flags] == [f.idx for f in own.flags], tr.serialize()
        assert not hb.reads and not hb.writes
        hb_flags += len(hb.flags)
        wcp_only += len(wcp.flags) - len(hb.flags)
    assert hb_flags > 20_000 and wcp_only > 1000
