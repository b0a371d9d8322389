"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines; the
whole suite (including the scaling run) is part of the default `pytest`
invocation.
"""

import itertools
import random
import time

from helpers import contains, cp_le, find_by_loc, fixtures, holds
from test_wcp_engine import record

from racepred import oracle
from racepred.cli import main
from racepred.hb_engine import HbEngine
from racepred.race_reporter import AccessClocks, check_access, resolve_pairs, run_detector
from racepred.tracegen import fixture, gen_equality_trace, iter_scaling
from racepred.vclock import leq
from racepred.wcp_engine import WcpEngine


def _flags(tr, engine_cls, **kw):
    return run_detector(tr.events, engine_cls(**kw), AccessClocks())


def _pairs(tr, engine_cls):
    clocks = AccessClocks(records=[])
    run_detector(tr.events, engine_cls(), clocks)
    pairs, _ = resolve_pairs(tr, clocks)
    return {(p.loc_a, p.loc_b) for p in pairs}


def test_criterion_1_fixture_verdicts():
    t0 = time.perf_counter()
    fx = fixtures()

    assert _pairs(fx["fig1a"], WcpEngine) == set()
    assert _pairs(fx["fig1a"], HbEngine) == set()

    assert _pairs(fx["fig1b"], WcpEngine) == {("fig1b:1", "fig1b:8")}
    wf = _flags(fx["fig1b"], WcpEngine)
    assert [fx["fig1b"].var_names[f.var] for f in wf] == ["y"]
    assert _pairs(fx["fig1b"], HbEngine) == set()

    assert _pairs(fx["fig2a"], WcpEngine) == set()

    assert _pairs(fx["fig2b"], WcpEngine) == {("fig2b:1", "fig2b:6")}
    wf = _flags(fx["fig2b"], WcpEngine)
    assert [fx["fig2b"].var_names[f.var] for f in wf] == ["y"]
    assert _pairs(fx["fig2b"], HbEngine) == set()

    assert _pairs(fx["fig3"], WcpEngine) == {("fig3:12", "fig3:3")}
    assert _pairs(fx["fig3"], HbEngine) == set()
    assert oracle.races_of(fx["fig3"], cp_le(fx["fig3"])) == set()

    assert _pairs(fx["fig4"], WcpEngine) == {("fig4:15", "fig4:4")}
    assert oracle.races_of(fx["fig4"], cp_le(fx["fig4"])) == set()

    fig5 = fx["fig5"]
    f5 = _flags(fig5, WcpEngine)
    assert [(fig5.var_names[f.var], f.loc) for f in f5] == [("z", "fig5:14")]
    assert _pairs(fig5, WcpEngine) == {("fig5:14", "fig5:4")}
    assert oracle.races_of(fig5, cp_le(fig5)) == set()

    fig7 = fx["fig7"]
    wprec = oracle.wcp_prec_closure(fig7)
    for a, b in [(6, 17), (10, 20), (14, 22), (15, 24)]:
        i, j = find_by_loc(fig7, f"fig7:{a}"), find_by_loc(fig7, f"fig7:{b}")
        assert holds(wprec, i, j) and not holds(wprec, j, i), (a, b)
    assert oracle.races_of(fig7, oracle.wcp_le(fig7)) == set()

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"fixture verdicts took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 PASS: fixture verdict table exact, {elapsed * 1e3:.0f} ms")


def test_criterion_2_wcp_differential(corpus, corpus_oracle, corpus_wcp_stamps):
    traces, t_gen = corpus
    rels, t_oracle = corpus_oracle
    stamps, t_eng = corpus_wcp_stamps
    t0 = time.perf_counter()
    assert len(traces) >= 1000
    mismatches = 0
    for tr, (_, wle, _), ts in zip(traces, rels, stamps):
        n = tr.n_events
        assert n <= 50
        for i in range(n):
            ti = ts[i]
            for j in range(i + 1, n):
                if leq(ti, ts[j]) != holds(wle, i, j):
                    mismatches += 1
    assert mismatches == 0
    total = t_gen + t_oracle + t_eng + (time.perf_counter() - t0)
    assert total < 300.0, f"differential suite took {total:.1f}s"
    print(f"\nACCEPTANCE 2 PASS: {len(traces)} traces, 0 mismatches, {total:.1f}s")


def test_criterion_3_inclusion_chain(corpus, corpus_oracle):
    traces, _ = corpus
    rels, _ = corpus_oracle
    violations = 0
    for tr, (hb, wle, cle) in zip(traces, rels):
        if not contains(cle, wle):
            violations += 1
        hb_as_le = oracle.OrderRelation(tr.n_events, hb.bits, oracle.CP_LE)
        if not contains(hb_as_le, cle):
            violations += 1
        rh = oracle.races_of(tr, hb)
        rc = oracle.races_of(tr, cle)
        rw = oracle.races_of(tr, wle)
        if not (rh <= rc <= rw):
            violations += 1
    assert violations == 0
    print(f"\nACCEPTANCE 3 PASS: WCP <= CP <= HB and race monotonicity, 0 violations")


def _gadget_z_race_engine(tr):
    z = tr.var_names.index("z")
    return any(f.var == z for f in _flags(tr, WcpEngine, invariant_checks=True))


def _gadget_z_race_oracle(tr):
    z = tr.var_names.index("z")
    races = oracle.races_of(tr, oracle.wcp_le(tr))
    return any(tr.events[i].op == z and tr.events[j].op == z for i, j in races)


def test_criterion_4_equality_gadget():
    mismatches = 0
    for n in range(1, 7):
        for bits in itertools.product("01", repeat=2 * n):
            u, v = "".join(bits[:n]), "".join(bits[n:])
            tr = gen_equality_trace(u, v)
            want = u != v
            if _gadget_z_race_engine(tr) != want:
                mismatches += 1
            if n <= 4 and _gadget_z_race_oracle(tr) != want:
                mismatches += 1
    rng = random.Random(1744)
    for _ in range(100):
        u = "".join(rng.choice("01") for _ in range(16))
        v = "".join(rng.choice("01") for _ in range(16))
        if rng.random() < 0.3:
            v = u
        if _gadget_z_race_engine(gen_equality_trace(u, v)) != (u != v):
            mismatches += 1
    assert mismatches == 0
    print("\nACCEPTANCE 4 PASS: equality gadget verdicts exact (|u|<=6 exhaustive, 100 random 16-bit)")


def test_criterion_5_lemma_invariants(corpus, corpus_oracle):
    # invariant_checks raises on any P <= C <= H or thread-monotonicity
    # violation while processing; run every suite family under it
    for name, tr in fixtures().items():
        eng = WcpEngine(invariant_checks=True)
        for e in tr.events:
            eng.process(e)
    for bits in itertools.product("01", repeat=4):
        u, v = "".join(bits[:2]), "".join(bits[2:])
        eng = WcpEngine(invariant_checks=True)
        for e in gen_equality_trace(u, v).events:
            eng.process(e)
    eng = WcpEngine(invariant_checks=True)
    clocks = AccessClocks()
    from racepred.trace_model import Event
    for i, (k, t, op) in enumerate(iter_scaling(12_000)):
        c = eng.process(Event(i, t, k, op))
        if k <= 1:
            check_access(clocks, k, op, (t, c))

    traces, _ = corpus
    rels, _ = corpus_oracle
    # corpus stamps fixtures already ran with checks on; here also verify the
    # recorded P/C/H triples against the brute-force HB relation (HB below
    # implies both clocks below) on a sample
    for tr, (hb, _, _) in list(zip(traces, rels))[::10]:
        rec = list(record(WcpEngine(invariant_checks=True), tr.events))
        for i in range(tr.n_events):
            _, ci, pi, hi = rec[i]
            assert leq(pi, ci) and leq(ci, hi)
            for j in range(i + 1, tr.n_events):
                if holds(hb, i, j):
                    _, cj, pj, hj = rec[j]
                    assert leq(hi, hj) and leq(pi, pj)
    print("\nACCEPTANCE 5 PASS: P<=C<=H, thread monotonicity, HB dominance -- 0 violations")


def test_criterion_6_linear_scaling():
    def run(n):
        eng = WcpEngine()
        clocks = AccessClocks()
        access, acq, rel = eng.access, eng.acquire, eng.release
        t0 = time.perf_counter()
        for k, t, op in iter_scaling(n, threads=8, locks=32):
            if k <= 1:
                check_access(clocks, k, op, (t, access(t, op, k)))
            elif k == 2:
                acq(t, op)
            else:
                rel(t, op)
        return time.perf_counter() - t0, eng.max_queue_load

    results = {}
    for n in (10**5, 10**6, 10**7):
        dt, mql = run(n)
        results[n] = (dt, mql)
        assert 0 < mql < n // 2, f"queue metric {mql} out of bounds for n={n}"
    t5, t6, t7 = results[10**5][0], results[10**6][0], results[10**7][0]
    r65 = (t6 / 10**6) / (t5 / 10**5)
    r76 = (t7 / 10**7) / (t6 / 10**6)
    assert 0.5 < r65 < 2.0, f"per-event time ratio 1e6/1e5 = {r65:.2f}"
    assert 0.5 < r76 < 2.0, f"per-event time ratio 1e7/1e6 = {r76:.2f}"
    assert t7 < 120.0, f"1e7 events took {t7:.1f}s"
    # queue load is steady-state on this family: memory stays sublinear
    assert results[10**7][1] <= 2 * results[10**6][1]
    print(f"\nACCEPTANCE 6 PASS: 1e5/1e6/1e7 events in "
          f"{t5:.2f}/{t6:.1f}/{t7:.1f}s (ratios {r65:.2f}, {r76:.2f}), "
          f"max_queue_load={results[10**7][1]} of 1e7")


def test_criterion_7_hb_baseline(corpus, corpus_oracle, corpus_hb_stamps):
    traces, _ = corpus
    rels, _ = corpus_oracle
    stamps, _ = corpus_hb_stamps
    mismatches = 0
    for tr, (hb, _, _), ts in zip(traces, rels, stamps):
        for i in range(tr.n_events):
            for j in range(i + 1, tr.n_events):
                if leq(ts[i], ts[j]) != holds(hb, i, j):
                    mismatches += 1
    assert mismatches == 0

    subset_violations = 0
    suite = list(fixtures().values()) + traces
    for tr in suite:
        hb_pairs = _pairs(tr, HbEngine)
        if not hb_pairs:
            continue
        wcp_pairs = _pairs(tr, WcpEngine)
        if not hb_pairs <= wcp_pairs:
            subset_violations += 1
    assert subset_violations == 0
    print(f"\nACCEPTANCE 7 PASS: HB timestamps match the oracle; "
          f"HB race pairs are a subset of WCP's on all {len(suite)} suite traces")


def test_criterion_8_determinism(tmp_path, capsys):
    inputs = []
    for name, tr in fixtures().items():
        p = tmp_path / f"{name}.std"
        p.write_text(tr.serialize())
        inputs.append(str(p))
    assert main(["generate", "--random", "--events", "50", "--threads", "4",
                 "--locks", "3", "--seed", "77", "-o", str(tmp_path / "rand.std")]) == 0
    inputs.append(str(tmp_path / "rand.std"))
    assert main(["generate", "--bits", "1011,1001", "-o", str(tmp_path / "eq.std")]) == 0
    inputs.append(str(tmp_path / "eq.std"))
    capsys.readouterr()
    for path in inputs:
        runs = []
        for _ in range(2):
            main(["analyze", "--detector", "both", "--pairs", path])
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1], f"nondeterministic report for {path}"
    print(f"\nACCEPTANCE 8 PASS: byte-identical reports on {len(inputs)} inputs")
