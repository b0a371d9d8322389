import random
import warnings

import pytest
from helpers import conflicting, fixtures, holds
from test_wcp_engine import gen_forky

from racepred.cli import main
from racepred.hb_engine import HbEngine, validate
from racepred.race_reporter import (AccessClocks, RacePair, check_access,
                                    render_flags, resolve_pairs, run_detector)
from racepred.trace_model import KIND_TOKEN, READ, WRITE, Trace, parse_trace
from racepred.tracegen import GenParams, fixture, gen_random
from racepred.vclock import leq
from racepred.wcp_engine import WcpEngine


def detect(tr, engine_cls=WcpEngine):
    eng = engine_cls()
    clocks = AccessClocks(records=[])
    flags = run_detector(tr.events, eng, clocks)
    return eng, clocks, flags


def test_fig1b_flags_second_component():
    tr = fixture("fig1b")
    _, _, flags = detect(tr)
    assert len(flags) == 1
    f = flags[0]
    assert (f.idx, tr.var_names[f.var], f.loc) == (7, "y", "fig1b:8")


def test_fig2a_no_flags():
    tr = fixture("fig2a")
    assert detect(tr)[2] == []


def test_first_access_never_flags():
    clocks = AccessClocks()
    assert not check_access(clocks, WRITE, 0, (0, (1, 0)))
    assert not check_access(clocks, READ, 1, (1, (0, 1)))


def test_read_read_does_not_flag():
    clocks = AccessClocks()
    check_access(clocks, READ, 0, (0, (1, 0)))
    assert not check_access(clocks, READ, 0, (1, (0, 1)))
    # but a write after incomparable reads does
    assert check_access(clocks, WRITE, 0, (1, (0, 2)))


def test_flags_fold_unconditionally():
    clocks = AccessClocks()
    check_access(clocks, WRITE, 0, (0, (1, 0)))
    assert check_access(clocks, WRITE, 0, (1, (0, 1)))
    # the flagged write still folded into the write join
    assert tuple(clocks.writes[0]) == (1, 1)


def test_resolve_pairs_fig1b():
    tr = fixture("fig1b")
    _, clocks, flags = detect(tr)
    pairs, notes = resolve_pairs(tr, clocks)
    assert notes == []
    assert len(pairs) == 1
    p = pairs[0]
    assert (p.loc_a, p.loc_b) == ("fig1b:1", "fig1b:8")
    assert (p.count, p.min_distance, p.example, p.sound) == (1, 7, (0, 7), True)
    assert p.render("wcp") == "RACE|wcp|fig1b:1|fig1b:8|count=1|mindist=7|ex=0,7|sound=1"


def test_resolve_pairs_fig4_wcp_vs_hb():
    tr = fixture("fig4")
    _, wclocks, _ = detect(tr)
    wpairs, _ = resolve_pairs(tr, wclocks)
    assert {(p.loc_a, p.loc_b) for p in wpairs} == {("fig4:15", "fig4:4")}
    _, hclocks, _ = detect(tr, HbEngine)
    hpairs, _ = resolve_pairs(tr, hclocks)
    assert hpairs == []


def test_no_flags_no_pairs():
    tr = fixture("fig1a")
    pairs, notes = resolve_pairs(tr, AccessClocks(records=[]))
    assert pairs == [] and notes == []


def test_resolve_idempotent():
    tr = fixture("fig1b")
    _, clocks, _ = detect(tr)
    a = resolve_pairs(tr, clocks)
    b = resolve_pairs(tr, clocks)
    assert a == b


def test_pair_budget_degrades_with_one_note():
    tr = fixture("fig1b")
    _, clocks, _ = detect(tr)
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # the note is the only report
        pairs, notes = resolve_pairs(tr, clocks, pair_budget=0)
    assert notes == ["pair budget 0 exceeded at event 0; "
                     "races on variable y degraded to second components"]
    assert pairs == [RacePair("?", "fig1b:8", 1, -1, (-1, 7), False)]


def test_sound_only_on_first_pair():
    # two independent racing variables; only the first flagged pair is sound
    lines = [
        "T1|w|a|La1", "T1|w|b|Lb1",
        "T2|r|a|La2", "T2|r|b|Lb2",
    ]
    tr = parse_trace(lines)
    _, clocks, flags = detect(tr)
    assert [f.idx for f in flags] == [2, 3]
    pairs, _ = resolve_pairs(tr, clocks)
    by_locs = {(p.loc_a, p.loc_b): p for p in pairs}
    assert by_locs[("La1", "La2")].sound is True
    assert by_locs[("Lb1", "Lb2")].sound is False


def test_counts_and_min_distance_aggregate_by_location():
    # same location pair races twice with different separations
    lines = [
        "T1|w|x|W", "T2|r|x|R",
        "T1|w|x|W", "T2|r|x|R",
    ]
    tr = parse_trace(lines)
    _, clocks, flags = detect(tr)
    assert [f.idx for f in flags] == [1, 2, 3]
    pairs, _ = resolve_pairs(tr, clocks)
    assert len(pairs) == 1
    p = pairs[0]
    assert (p.loc_a, p.loc_b) == ("R", "W")
    # witnesses: (0,1), (1,2), (0,3), (2,3); the earliest closest pair is kept
    assert p.count == 4
    assert p.min_distance == 1 and p.example == (0, 1)


def test_render_flags():
    tr = fixture("fig1b")
    _, _, flags = detect(tr)
    assert render_flags(tr, flags, "wcp") == ["FLAG|wcp|idx=7|var=y|loc=fig1b:8"]


def test_flag_soundness_vs_oracle(corpus, corpus_oracle):
    # an event is flagged exactly when some earlier conflicting event is
    # unordered with it under the brute-force relation
    from racepred import oracle

    traces, _ = corpus
    rels, _ = corpus_oracle
    for tr, (_, wle, _) in list(zip(traces, rels))[:150]:
        _, _, flags = detect(tr)
        flagged = {f.idx for f in flags}
        expected = set()
        accesses = [e for e in tr.events if e.kind <= WRITE]
        for i, e1 in enumerate(accesses):
            for e2 in accesses[i + 1:]:
                if conflicting(e1, e2) and not holds(wle, e1.idx, e2.idx) \
                        and not holds(wle, e2.idx, e1.idx):
                    expected.add(e2.idx)
        assert flagged == expected, tr.serialize()


def reference_race_lines(tr, engine_cls):
    """Pass 2 as a plain loop over all earlier accesses, with the full leq
    test in both directions and no pair budget: the reference that
    resolve_pairs must match line for line."""
    flags = detect(tr, engine_cls)[2]
    flagged_at = {f.idx for f in flags}
    first = min(flagged_at, default=None)
    seen: dict[int, list] = {}
    agg: dict[tuple[str, str], list] = {}
    eng = engine_cls()
    for e in tr.events:
        c = eng.process(e)
        if e.kind > WRITE:
            continue
        loc = e.loc_or_default()
        earlier = seen.setdefault(e.op, [])
        if e.idx in flagged_at:
            latest = None
            for i1, t1, k1, loc1, c1 in earlier:
                if (t1 != e.tid and WRITE in (k1, e.kind)
                        and not leq(c1, c) and not leq(c, c1)):
                    rec = agg.setdefault(tuple(sorted((loc1, loc))), [0, None, None, False])
                    rec[0] += 1
                    if rec[1] is None or e.idx - i1 < rec[1]:
                        rec[1], rec[2] = e.idx - i1, (i1, e.idx)
                    latest = loc1
            if latest is not None and e.idx == first:
                agg[tuple(sorted((latest, loc)))][3] = True
        earlier.append((e.idx, e.tid, e.kind, loc, c))
    return [RacePair(a, b, *rec).render(engine_cls.detector) for (a, b), rec in sorted(agg.items())]


def with_sites(tr, rng, sites=3):
    """Copy of tr where each event gets one of a few locations per (op, operand),
    so that distinct events share locations, as in real logs."""
    b = Trace()
    for e in tr.events:
        operand = tr.operand_name(e)
        loc = f"{KIND_TOKEN[e.kind]}.{operand}:{rng.randrange(sites)}"
        b.add(tr.thread_names[e.tid], e.kind, operand, loc)
    return b


def test_resolve_pairs_matches_leq_reference():
    # over the whole input language: closed sections, sections left open,
    # and fork/join
    rng = random.Random(11)
    corpora = {"closed": [], "open": [], "forky": []}
    for seed in range(150):
        params = GenParams(threads=2 + seed % 5, locks=seed % 4, vars=1 + seed % 3,
                           events=40 + seed % 80, p_lock=(0.2, 0.4)[seed % 2], seed=500 + seed)
        corpora["closed"].append(gen_random(params))
        corpora["open"].append(gen_random(params, close_sections=False))
        corpora["forky"].append(gen_forky(seed))
    for kind, traces in corpora.items():
        lines = checked = 0
        for seed, tr in enumerate(traces):
            tr = with_sites(tr, rng)
            if not validate(tr).ok:
                continue
            checked += 1
            for engine_cls in (WcpEngine, HbEngine):
                pairs, _ = resolve_pairs(tr, detect(tr, engine_cls)[1])
                got = [p.render(engine_cls.detector) for p in pairs]
                assert got == reference_race_lines(tr, engine_cls), (kind, seed, engine_cls.detector)
                lines += len(got)
            # --detector both: the hb pairs come from records of WcpEngine.hbt
            hb = AccessClocks(records=[])
            run_detector(tr.events, WcpEngine(), AccessClocks(), hb=hb)
            got = [p.render("hb") for p in resolve_pairs(tr, hb)[0]]
            assert got == reference_race_lines(tr, HbEngine), (kind, seed, "both")
        assert checked > 100 and lines > {"closed": 5000, "open": 5000, "forky": 500}[kind], \
            (kind, checked, lines)


def test_every_flag_yields_a_pair():
    # analyze exits 1 exactly when some detector flags, because resolve_pairs
    # reports every flag: each flag's location is in some pair, counted at
    # least once, also once its variable has degraded; every pair names a
    # flagged location; at budget 0 every flagged variable degrades, once
    rng = random.Random(21)
    traces = list(fixtures().values()) + [gen_forky(seed) for seed in range(300)]
    for seed in range(1200):
        params = GenParams(threads=2 + seed % 4, locks=seed % 3, vars=1 + seed % 3,
                           events=15 + seed % 30, p_lock=(0.2, 0.4)[seed % 2], seed=2100 + seed)
        tr = gen_random(params, close_sections=seed % 4 != 0)
        traces.append(with_sites(tr, rng) if seed % 2 else tr)
    resolutions = 0
    for n, tr in enumerate(traces):
        if not validate(tr).ok:
            continue
        wcp, hbt, hb = (AccessClocks(records=[]) for _ in range(3))
        run_detector(tr.events, WcpEngine(), wcp, hb=hbt)
        run_detector(tr.events, HbEngine(), hb)
        for det, clocks in (("wcp", wcp), ("hb on hbt", hbt), ("hb", hb)):
            flagged = {f.loc for f in clocks.flags}
            for budget in (10_000_000, 3, 0):
                pairs, notes = resolve_pairs(tr, clocks, budget)
                where = (n, det, budget)
                assert flagged <= {loc for p in pairs for loc in (p.loc_a, p.loc_b)}, where
                assert all(p.loc_a in flagged or p.loc_b in flagged for p in pairs), where
                assert sum(p.count for p in pairs) >= len(clocks.flags), where
                if budget == 0:
                    assert len(notes) == len({f.var for f in clocks.flags}), where
                resolutions += 1
    assert resolutions > 12_000, resolutions


@pytest.mark.parametrize("budget", ["10000000", "3", "0"])
def test_exit_code_is_one_exactly_when_a_race_line_is_printed(capsys, tmp_path, budget):
    for name, tr in fixtures().items():
        path = tmp_path / f"{name}.std"
        path.write_text(tr.serialize())
        code = main(["analyze", "--detector", "both", "--pairs", "--pair-budget", budget,
                     str(path)])
        out = capsys.readouterr().out
        assert code == (1 if "\nRACE|" in out else 0), name
