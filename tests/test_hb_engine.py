import random

import pytest
from helpers import fixtures, holds
from test_wcp_engine import gen_forky, record

from racepred import oracle
from racepred.hb_engine import HbEngine
from racepred.trace_model import parse_trace
from racepred.tracegen import GenParams, fixture, gen_random
from racepred.vclock import leq
from racepred.wcp_engine import EngineError, WcpEngine


def run(tr, **kw):
    eng = HbEngine(**kw)
    return eng, [eng.process(e) for e in tr.events]


def test_fig1b_hb_timestamps():
    tr = fixture("fig1b")
    _, stamps = run(tr)
    assert stamps == [(1,), (1,), (1,), (1,), (1, 1), (1, 1), (1, 1), (1, 2)]
    # the lock handoff orders the y accesses, so HB sees no race here
    assert leq(stamps[0], stamps[7])


def test_fig2b_hb_orders_y_accesses():
    tr = fixture("fig2b")
    _, stamps = run(tr)
    assert leq(stamps[0], stamps[5])


def test_no_locks_means_no_cross_thread_order():
    tr = parse_trace(["T1|w|x", "T2|r|x"])
    _, stamps = run(tr)
    assert not leq(stamps[0], stamps[1]) and not leq(stamps[1], stamps[0])


def test_reads_writes_never_join():
    tr = parse_trace(["T1|w|x", "T2|r|x", "T1|r|y", "T2|w|y"])
    _, stamps = run(tr)
    assert stamps == [(1,), (0, 1), (1,), (0, 1)]


def test_fork_join_edges():
    tr = parse_trace(["T1|w|x", "T1|fork|T2", "T2|w|y", "T1|join|T2", "T1|r|y"])
    _, stamps = run(tr)
    assert leq(stamps[0], stamps[2])    # fork edge
    assert leq(stamps[2], stamps[4])    # join edge


def test_flattening_and_errors_match_wcp_engine():
    eng, stamps = run(parse_trace(["T1|acq|l", "T1|acq|l", "T1|rel|l", "T1|rel|l"]))
    assert eng.reentrant_flattened == 1
    with pytest.raises(EngineError):
        run(parse_trace(["T1|acq|l", "T2|acq|l"]))
    with pytest.raises(EngineError):
        run(parse_trace(["T1|rel|l"]))
    with pytest.raises(EngineError):
        run(parse_trace(["T1|join|T1"]))


def test_differential_vs_oracle_small():
    for seed in range(60):
        tr = gen_random(GenParams(threads=2 + seed % 3, locks=1 + seed % 3, vars=2,
                                  events=20 + seed % 20, p_lock=0.5, seed=seed))
        _, stamps = run(tr, invariant_checks=True)
        hb = oracle.hb_closure(tr)
        for i in range(tr.n_events):
            for j in range(i + 1, tr.n_events):
                assert leq(stamps[i], stamps[j]) == holds(hb, i, j), (seed, i, j)


def test_differential_with_fork_join():
    lines = [
        "T1|w|x", "T1|fork|T2", "T2|acq|l", "T2|w|y", "T2|rel|l",
        "T1|acq|l", "T1|r|y", "T1|rel|l", "T1|join|T2", "T1|r|x",
    ]
    tr = parse_trace(lines)
    _, stamps = run(tr)
    hb = oracle.hb_closure(tr)
    for i in range(tr.n_events):
        for j in range(i + 1, tr.n_events):
            assert leq(stamps[i], stamps[j]) == holds(hb, i, j), (i, j)


def test_hb_timestamps_monotone_per_thread():
    for name, tr in fixtures().items():
        run(tr, invariant_checks=True)


def wcp_hb_clocks(tr):
    """The WCP engine's HB clock hbt[t] after each event, against which
    --detector both decides HB."""
    return [h for _, _, _, h in record(WcpEngine(), tr.events)]


def test_wcp_engine_hb_clock_is_the_hb_timestamp(corpus, corpus_hb_stamps):
    traces, _ = corpus
    stamps, _ = corpus_hb_stamps
    for tr, hs in zip(traces, stamps):
        assert wcp_hb_clocks(tr) == hs
    extra = ([gen_forky(seed) for seed in range(300)]
             + [gen_random(GenParams(threads=32, locks=8, vars=16, events=400, p_lock=0.4,
                                     max_nesting=3, seed=seed)) for seed in range(20)]
             + [gen_random(GenParams(threads=4, locks=2, vars=3, events=60, p_lock=0.5,
                                     seed=seed), close_sections=False) for seed in range(50)]
             + list(fixtures().values()))
    for tr in extra:
        assert wcp_hb_clocks(tr) == run(tr, invariant_checks=True)[1]


def test_malformed_traces_fail_alike_in_both_engines():
    # seeded fuzz over short traces of every event kind, most of them
    # malformed: both engines raise the same error, warn alike, and agree
    # on the HB clock up to the error
    rng = random.Random(17)
    operands = {"acq": ["l", "m"], "rel": ["l", "m"], "r": ["x"], "w": ["x"],
                "fork": ["T1", "T2", "T3"], "join": ["T1", "T2", "T3"]}
    raised = 0
    for _ in range(3000):
        lines = []
        for _ in range(rng.randrange(1, 10)):
            op = rng.choice(list(operands))
            lines.append(f"{rng.choice(['T1', 'T2', 'T3'])}|{op}|{rng.choice(operands[op])}")
        tr = parse_trace(lines)
        outcomes = []
        for engine_cls in (WcpEngine, HbEngine):
            eng = engine_cls()
            error, hs = None, []
            try:
                for _, _, _, h in record(eng, tr.events):
                    hs.append(h)
            except EngineError as exc:
                error = str(exc)
            outcomes.append((error, eng.warnings, hs))
        assert outcomes[0] == outcomes[1], lines
        raised += outcomes[0][0] is not None
    assert raised > 1000
