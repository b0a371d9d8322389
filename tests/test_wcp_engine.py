import pytest
from helpers import errors_of, find_by_loc, fixtures, holds

from racepred import oracle
from racepred.hb_engine import validate
from racepred.trace_model import JOIN, parse_trace
from racepred.tracegen import (GenParams, fixture, gen_equality_trace, gen_random)
from racepred.vclock import leq
from racepred.wcp_engine import EngineError, WcpEngine


def run(tr, **kw):
    eng = WcpEngine(**kw)
    stamps = [eng.process(e) for e in tr.events]
    return eng, stamps


def record(eng, events):
    """Feed events through eng, yielding (tid, C, P, H) after each: its
    timestamp and the thread's pred and HB clocks."""
    for e in events:
        c = eng.process(e)
        t = e.tid
        yield t, c, tuple(eng.pred[t]), tuple(eng.hbt[t])


def test_fig1b_timestamps_and_clocks():
    tr = fixture("fig1b")
    records = list(record(WcpEngine(), tr.events))
    stamps = [c for _, c, _, _ in records]
    assert stamps == [(1,), (1,), (1,), (1,), (0, 1), (0, 1), (0, 1), (0, 2)]
    # the acquire by t2 sees the lock's HB time but not its pred time
    t, c, p, h = records[4]
    assert (c, p, h) == ((0, 1), (0, 0), (1, 1))
    # the racing pair stays incomparable
    assert not leq(stamps[0], stamps[7]) and not leq(stamps[7], stamps[0])


def test_fig1b_accessed_by_slot():
    tr = fixture("fig1b")
    eng, _ = run(tr)
    l = tr.lock_names.index("l")
    x = tr.var_names.index("x")
    latest, foreign, writer, foreign_writer = eng.slots[l][x]
    # latest section is t2's, released at H=[1,1]; t1's, released at [1,0], sits behind
    assert latest[0] == 1 and tuple(latest[2]) == (1, 1)
    assert foreign[0] == 0 and tuple(foreign[2]) == (1,)
    assert writer is foreign_writer is None     # both sections only read x


def test_fig2a_rule_a_edge_orders_reads():
    tr = fixture("fig2a")
    eng, stamps = run(tr)
    # r(x) at line 6 receives the writer's release time, so w(y)/r(y) order
    assert stamps[5] == (1, 1)
    assert leq(stamps[0], stamps[6])


def test_fig1a_conflicting_accesses_ordered():
    tr = fixture("fig1a")
    _, stamps = run(tr)
    # both sections' accesses pair up ordered, so no race is possible
    for i in (1, 2):
        for j in (5, 6):
            assert leq(stamps[i], stamps[j]), (i, j)


def test_first_event_fresh_acquire():
    tr = parse_trace(["T1|acq|l"])
    _, stamps = run(tr)
    assert stamps == [(1,)]


def test_acquire_of_never_released_lock_is_bottom_join():
    tr = parse_trace(["T1|w|y", "T2|acq|l", "T2|r|y"])
    _, stamps = run(tr)
    assert stamps[1] == (0, 1)      # nothing flows without a prior release


def test_release_with_empty_sets_and_history():
    tr = parse_trace(["T1|acq|l", "T1|rel|l", "T1|w|x"])
    eng, stamps = run(tr)
    l = 0
    assert eng.lock_hb[l] == (1,) and eng.lock_pred[l] == (0,)
    assert eng.slots == [{}]
    # pending increment lands on the next event of the thread
    assert stamps == [(1,), (1,), (2,)]


@pytest.mark.parametrize("lines", [
    ["T1|acq|l", "T1|w|x", "T1|rel|l", "T2|acq|l", "T2|w|x", "T2|w|x"],
    ["T1|acq|l", "T1|w|x", "T1|rel|l", "T2|acq|l", "T2|w|x", "T2|rel|l"],
    ["T1|acq|l", "T1|w|x", "T1|rel|l", "T3|acq|l", "T3|rel|l",
     "T2|acq|l", "T2|w|x", "T2|rel|l"],
], ids=["rule (a) consult", "drain end", "drain retest"])
def test_invariant_checks_confirm_each_skipped_join(lines):
    # T2's first write folded T1's release time, so the last event skips
    # its fold by the one-component test: T2's second write consults T1's
    # section, or T2's release drains it and ends the drain there, or
    # stops at T3's section, which T2 is not ordered after.  A release time
    # corrupted to pass that test without being below pred must be caught.
    *prefix, last = parse_trace(lines).events
    t = last.tid
    for checks in (False, True):
        eng = WcpEngine(invariant_checks=checks)
        for e in prefix:
            eng.process(e)
        t1_entry = eng.log[0][0]
        assert t1_entry[2] == (1,) and eng.pred[t][0] == 1
        t1_entry[2] = (1,) + (0,) * t + (7,)    # a time of a thread T2 never saw
        pred = eng.pred[t][:]
        if not checks:
            eng.process(last)       # skipped, so pred stays as it was
            assert eng.pred[t] == pred
            continue
        with pytest.raises(EngineError, match="skipped a join that changes pred"):
            eng.process(last)


def test_fig7_drain_realizes_release_release_edges():
    tr = fixture("fig7")
    _, stamps = run(tr)
    for a, b in [(6, 17), (10, 20), (14, 22), (15, 24)]:
        i, j = find_by_loc(tr, f"fig7:{a}"), find_by_loc(tr, f"fig7:{b}")
        assert leq(stamps[i], stamps[j]), (a, b)
    # and the streaming order agrees with the brute-force relation everywhere
    wle = oracle.wcp_le(tr)
    for i in range(tr.n_events):
        for j in range(i + 1, tr.n_events):
            assert leq(stamps[i], stamps[j]) == holds(wle, i, j)


def test_reentrant_sections_flattened():
    tr = parse_trace(["T1|acq|l", "T1|acq|l", "T1|w|x", "T1|rel|l", "T1|rel|l",
                      "T2|acq|l", "T2|r|x", "T2|rel|l"])
    eng, stamps = run(tr)
    assert eng.reentrant_flattened == 1
    assert leq(stamps[2], stamps[6])    # ordering matches the flat section
    # inner pair does not tick the local clock
    assert stamps[3] == stamps[4] == (1,)


def test_fork_inherits_hb_and_pred():
    tr = parse_trace(["T1|w|y", "T1|fork|T2", "T2|r|y"])
    records = list(record(WcpEngine(), tr.events))
    stamps = [c for _, c, _, _ in records]
    _, c, p, h = records[2]
    assert h == (1, 1) and p == (0, 0)
    # fork carries the HB clock only; pred stays the parent's pred, so the
    # handoff pair is WCP-unordered -- exactly as the oracle (with fork/join
    # edges added to HB before closure) computes it
    assert not leq(stamps[0], stamps[2])
    wle = oracle.wcp_le(tr)
    assert not holds(wle, 0, 2)


def test_fork_join_differential_vs_oracle():
    traces = [
        ["T1|w|y", "T1|fork|T2", "T2|acq|l", "T2|w|x", "T2|rel|l",
         "T1|acq|l", "T1|r|x", "T1|rel|l", "T1|join|T2", "T1|r|y"],
        ["T1|fork|T2", "T1|fork|T3", "T2|acq|l", "T2|w|x", "T2|rel|l",
         "T3|acq|l", "T3|w|x", "T3|rel|l", "T1|join|T2", "T1|join|T3", "T1|r|x"],
    ]
    for lines in traces:
        tr = parse_trace(lines)
        _, stamps = run(tr, invariant_checks=True)
        wle = oracle.wcp_le(tr)
        for i in range(tr.n_events):
            for j in range(i + 1, tr.n_events):
                assert leq(stamps[i], stamps[j]) == holds(wle, i, j), (lines, i, j)


def gen_forky(seed):
    """Random trace exercising fork/join structure (including eventless
    children joined after their fork)."""
    import random

    from racepred.trace_model import FORK, JOIN, READ, WRITE, ACQUIRE, RELEASE, Trace

    rng = random.Random(seed)
    b = Trace()
    alive, finished = ["t0"], []
    unspawned = [f"t{i}" for i in range(1, 1 + rng.randrange(1, 4))]
    stacks = {"t0": []}
    holder = {}
    locks = [f"l{i}" for i in range(rng.randrange(1, 3))]
    varnames = ["x1", "x2"]
    for _ in range(rng.randrange(15, 40)):
        t = rng.choice(alive)
        r = rng.random()
        if r < 0.12 and unspawned:
            u = unspawned.pop()
            b.add(t, FORK, u)
            alive.append(u)
            stacks[u] = []
        elif r < 0.2 and finished:
            b.add(t, JOIN, finished.pop())
        elif r < 0.3 and len(alive) > 1 and not stacks[t] and t != "t0":
            alive.remove(t)
            finished.append(t)
        elif r < 0.5 and stacks[t]:
            l = stacks[t].pop()
            del holder[l]
            b.add(t, RELEASE, l)
        elif r < 0.65 and locks:
            free = [l for l in locks if l not in holder]
            if free:
                l = rng.choice(free)
                holder[l] = t
                stacks[t].append(l)
                b.add(t, ACQUIRE, l)
        else:
            b.add(t, rng.choice((READ, WRITE)), rng.choice(varnames))
    for t in list(alive):
        while stacks[t]:
            l = stacks[t].pop()
            del holder[l]
            b.add(t, RELEASE, l)
    return b


def test_fork_join_random_differential():
    from racepred.hb_engine import HbEngine
    checked = 0
    for seed in range(150):
        tr = gen_forky(seed)
        if not validate(tr).ok:
            continue
        checked += 1
        weng = WcpEngine(invariant_checks=True)
        ws = [weng.process(e) for e in tr.events]
        heng = HbEngine(invariant_checks=True)
        hs = [heng.process(e) for e in tr.events]
        wle = oracle.wcp_le(tr)
        hb = oracle.hb_closure(tr)
        for i in range(tr.n_events):
            for j in range(i + 1, tr.n_events):
                assert leq(ws[i], ws[j]) == holds(wle, i, j), ("wcp", seed, i, j)
                assert leq(hs[i], hs[j]) == holds(hb, i, j), ("hb", seed, i, j)
    assert checked > 100


def epoch_mismatches(tr, stamps):
    """(checked, mismatches) over ordered pairs of events on different
    threads: leq(C_e, C_f) against the epoch test C_e[u] <= C_f[u]."""
    tids = [e.tid for e in tr.events]
    checked = bad = 0
    for i, ci in enumerate(stamps):
        u = tids[i]
        n = ci[u]
        for j, cj in enumerate(stamps):
            if tids[j] != u:
                checked += 1
                if leq(ci, cj) != (n <= (cj[u] if u < len(cj) else 0)):
                    bad += 1
    return checked, bad


def test_epoch_test_decides_order(corpus, corpus_wcp_stamps, corpus_hb_stamps):
    from racepred.hb_engine import HbEngine
    traces, _ = corpus
    extra = ([gen_forky(seed) for seed in range(300)] + list(fixtures().values())
             + [gen_equality_trace("1011", "1001"), gen_equality_trace("0110", "0110")])
    for engine_cls, (stamps, _) in ((WcpEngine, corpus_wcp_stamps),
                                    (HbEngine, corpus_hb_stamps)):
        checked = bad = 0
        for tr, ts in zip(traces, stamps):
            c, b = epoch_mismatches(tr, ts)
            checked, bad = checked + c, bad + b
        for tr in extra:
            eng = engine_cls(invariant_checks=True)
            c, b = epoch_mismatches(tr, [eng.process(e) for e in tr.events])
            checked, bad = checked + c, bad + b
        assert bad == 0, (engine_cls.detector, bad, checked)
        assert checked > 400_000


@pytest.mark.parametrize("engine", ["wcp", "hb"])
@pytest.mark.parametrize("lines", [
    ["T3|w|x", "T2|r|x", "T1|join|T2", "T2|join|T3"],
    ["t0|acq|l0", "t0|acq|l1", "t2|w|y", "t0|join|t2", "t0|w|y", "t0|rel|l1",
     "t1|acq|l1", "t0|rel|l0", "t2|acq|l0", "t2|w|y", "t1|r|y"],
])
def test_join_ends_the_joined_threads_granule(engine, lines):
    # a joined thread never acts again: both engines raise JoinOfLiveThread
    # at its next event, and validate names the same event; up to there,
    # the timestamps are epochs
    from racepred.hb_engine import HbEngine
    tr = parse_trace(lines)
    joined = next(e for e in tr.events if e.kind == JOIN)
    bad = next(e for e in tr.events[joined.idx:] if e.tid == joined.op)
    eng = {"wcp": WcpEngine, "hb": HbEngine}[engine](invariant_checks=True)
    stamps = [eng.process(e) for e in tr.events[:bad.idx]]
    with pytest.raises(EngineError, match="acts after being joined") as exc:
        eng.process(bad)
    assert exc.value.kind == "JoinOfLiveThread"
    first = errors_of(validate(tr))[0]
    assert (first.idx, first.kind) == (bad.idx, "JoinOfLiveThread")
    assert epoch_mismatches(tr, stamps)[1] == 0


def test_drain_epoch_check_compares_with_leq():
    tr = parse_trace(["T1|acq|l", "T1|rel|l", "T2|acq|l"])
    eng, _ = run(tr, invariant_checks=True)
    # break the epoch property by hand: T2 knows T1's acquire epoch, but
    # the logged acquire time claims more than T2 has seen
    eng.pred[1][0] = 1
    eng.log[0][0][1] = (1, 0, 7)
    with pytest.raises(EngineError, match="epoch test"):
        eng.release(1, 0)


def test_drain_refuses_a_section_whose_release_is_pending():
    tr = parse_trace(["T1|acq|l", "T1|rel|l", "T2|acq|l", "T2|rel|l"])
    eng, _ = run(parse_trace(["T1|acq|l", "T1|rel|l", "T2|acq|l"]))
    # T2 knows T1's acquire, so its drain reaches T1's section, whose
    # logged release time is erased by hand
    eng.pred[1][0] = 1
    eng.log[0][0][2] = None
    with pytest.raises(EngineError, match="release is still pending") as exc:
        eng.process(tr.events[3])
    assert exc.value.kind is None and exc.value.event is tr.events[3]


@pytest.mark.parametrize("clock, i, value, message", [
    ("pred", 0, 5, "P <= C <= H violated"),     # T2's P knows more of T1 than its H
    ("hbt", 1, 0, "monotonicity violated"),     # T2's local time moves back
])
def test_invariant_checks_catch_corrupted_clocks(clock, i, value, message):
    tr = parse_trace(["T1|w|x", "T2|w|x", "T2|r|x"])
    eng, _ = run(parse_trace(["T1|w|x", "T2|w|x"]), invariant_checks=True)
    getattr(eng, clock)[1][i] = value
    with pytest.raises(EngineError, match=message) as exc:
        eng.process(tr.events[2])
    assert exc.value.kind is None and exc.value.event is tr.events[2]


@pytest.mark.parametrize("engine", ["wcp", "hb"])
def test_process_gives_its_fault_and_a_join_warning_their_event(engine):
    # the engine alone, with no race checker around it
    from racepred.hb_engine import HbEngine
    tr = parse_trace(["T1|w|x", "T1|join|T9", "T2|acq|l", "T1|join|T2", "T1|rel|l"])
    eng = {"wcp": WcpEngine, "hb": HbEngine}[engine]()
    join, bad = tr.events[1], tr.events[4]
    for e in tr.events[:4]:
        eng.process(e)
    [w] = eng.warnings
    assert w.event is join      # the later join, which does not warn, leaves it
    with pytest.raises(EngineError) as exc:
        eng.process(bad)
    assert exc.value.kind == "UnmatchedRelease" and exc.value.event is bad


def test_two_sequential_forks():
    tr = parse_trace(["T1|fork|T2", "T1|fork|T3", "T2|w|x", "T3|r|y"])
    eng, stamps = run(tr)
    assert stamps[2] == (0, 1) and stamps[3] == (0, 0, 1)
    # children share the parent's clock prefix but see distinct granules:
    # each fork ends one, so the second child knows strictly more of T1
    assert eng.hbt[1][0] == 1 and eng.hbt[2][0] == 2


def test_join_inherits_pred_exactly():
    lines = [
        "T1|acq|l", "T1|w|x", "T1|rel|l",
        "T2|acq|l", "T2|w|x", "T2|rel|l",   # rule (a): T2 learns T1's release
        "T3|join|T2",
    ]
    tr = parse_trace(lines)
    eng, stamps = run(tr)
    assert leq(eng.pred[2], eng.pred[1]) and leq(eng.pred[1], eng.pred[2])
    assert leq(stamps[5], stamps[6]) is False   # WCP carries pred, not the HB edge


def test_join_of_unknown_thread_warns():
    tr = parse_trace(["T1|w|x", "T1|join|T9"])
    eng, _ = run(tr)
    assert eng.warnings


def test_self_join_rejected():
    tr = parse_trace(["T1|join|T1"])
    with pytest.raises(EngineError):
        run(tr)


def test_fork_of_active_thread_rejected():
    tr = parse_trace(["T2|w|x", "T1|fork|T2"])
    with pytest.raises(EngineError):
        run(tr)


def test_double_acquire_rejected():
    tr = parse_trace(["T1|acq|l", "T2|acq|l"])
    with pytest.raises(EngineError):
        run(tr)


def test_unmatched_release_rejected():
    with pytest.raises(EngineError):
        run(parse_trace(["T1|rel|l"]))


def test_bad_nesting_rejected():
    with pytest.raises(EngineError):
        run(parse_trace(["T1|acq|l", "T1|acq|m", "T1|rel|l"]))


def test_empty_trace():
    tr = parse_trace([])
    eng, stamps = run(tr)
    assert stamps == [] and eng.max_queue_load == 0 and tr.n_events == 0


def test_determinism():
    tr = gen_random(GenParams(threads=4, locks=3, vars=3, events=48, seed=99))
    eng1, s1 = run(tr)
    eng2, s2 = run(tr)
    assert s1 == s2 and eng1.max_queue_load == eng2.max_queue_load


def test_invariants_hold_on_fixtures():
    for name, tr in fixtures().items():
        run(tr, invariant_checks=True)


def test_own_release_times_do_not_order_later_own_accesses():
    # a thread writing then reading the same variable in two sections of one
    # lock must not absorb foreign clocks that only reached it through HB
    lines = [
        "T0|acq|k", "T0|w|q", "T0|rel|k",
        "T1|acq|k", "T1|rel|k",              # HB handoff, no conflict
        "T1|acq|l", "T1|w|x", "T1|rel|l",
        "T1|acq|l", "T1|r|x", "T1|rel|l",
        "T1|r|q",
    ]
    tr = parse_trace(lines)
    _, stamps = run(tr)
    wle = oracle.wcp_le(tr)
    assert not holds(wle, 1, 11)            # w(q) unordered with the lockless r(q)
    assert not leq(stamps[1], stamps[11])  # and the clocks agree
    assert oracle.races_of(tr, wle) == {(1, 11)}


def test_queue_metric_counts_foreign_sections():
    tr = fixture("fig1b")
    eng, _ = run(tr)
    # one section per thread on the same lock, neither drained by the other
    assert eng.max_queue_load == 2


def test_queue_load_ignores_a_joined_thread_that_never_acts():
    # T9 gets a row at the join but never starts, so only T3 has the one
    # section left to drain, exactly as when T9 is never named
    head = ["T1|acq|l", "T1|w|x", "T1|rel|l"]
    for lines in (head + ["T1|join|T9", "T3|w|y"], head + ["T3|w|y"]):
        eng, _ = run(parse_trace(lines))
        assert eng.max_queue_load == 1, lines


@pytest.mark.parametrize("lines", [
    ["T1|fork|T2", "T1|acq|l", "T1|rel|l"],
    ["T1|acq|l", "T1|rel|l", "T1|fork|T2"],
])
def test_queue_load_counts_a_forked_child_that_never_acts(lines):
    # being forked starts a thread: T1's section is ahead of T2's cursor
    eng, _ = run(parse_trace(lines))
    assert eng.max_queue_load == 1


@pytest.mark.parametrize("lines, idx, kind", [
    (["T1|join|T2", "T2|w|x"], 1, "JoinOfLiveThread"),
    (["T1|join|T2", "T3|w|y", "T2|w|x"], 2, "JoinOfLiveThread"),
    (["T1|join|T2", "T1|fork|T2", "T2|w|x"], 2, "JoinOfLiveThread"),
    (["T1|join|T2", "T3|acq|l", "T1|fork|T2", "T3|rel|l", "T2|acq|l"], 4, "JoinOfLiveThread"),
    (["T1|join|T2", "T1|fork|T2", "T1|fork|T2"], 2, "ForkOfKnownThread"),
    (["T1|join|T2", "T1|fork|T2", "T1|join|T2", "T2|rel|l"], 3, "UnmatchedRelease"),
])
def test_thread_joined_before_it_is_seen(lines, idx, kind):
    # a join creates the joined thread's row and marks it: a fork of it is
    # still allowed, and its first event raises; validate agrees
    from racepred.hb_engine import HbEngine
    tr = parse_trace(lines)
    for engine_cls in (WcpEngine, HbEngine):
        eng = engine_cls(invariant_checks=True)
        for e in tr.events[:idx]:
            eng.process(e)
        with pytest.raises(EngineError) as exc:
            eng.process(tr.events[idx])
        assert exc.value.kind == kind
    rep = validate(tr)
    assert [(v.idx, v.kind) for v in rep.violations] == [(0, "JoinOfUnknownThread"), (idx, kind)]


def test_release_of_unseen_lock_changes_nothing():
    eng, _ = run(parse_trace(["T1|acq|l", "T1|w|x"]))
    with pytest.raises(EngineError) as exc:
        eng.release(0, 5)
    assert exc.value.kind == "UnmatchedRelease"
    assert (len(eng.holder), eng.holder, eng.depth) == (1, [0], [0])
