import pytest
from helpers import conflicting, fixtures, warnings_of

from racepred import oracle
from racepred.hb_engine import validate
from racepred.race_reporter import AccessClocks, run_detector
from racepred.trace_model import ACQUIRE, READ, RELEASE, WRITE, parse_trace
from racepred.tracegen import (FIXTURE_NAMES, GenParams, fixture, gen_equality_trace,
                               gen_random, iter_scaling)
from racepred.wcp_engine import WcpEngine


def test_fixture_inventory():
    assert set(FIXTURE_NAMES) == {"fig1a", "fig1b", "fig2a", "fig2b", "fig3", "fig4", "fig5", "fig7"}
    fx = fixtures()
    assert set(fx) == set(FIXTURE_NAMES)


def test_fig1b_shape():
    tr = fixture("fig1b")
    assert (tr.n_events, tr.n_threads, tr.n_locks, tr.n_vars) == (8, 2, 1, 2)


def test_fig3_sync_expansion():
    tr = fixture("fig3")
    assert tr.n_events == 18          # 12 rows, two sync rows of 4 events each
    # a sync(x) expands to acq/r/w/rel on x and xVar, sharing the row's loc
    line2 = [e for e in tr.events if e.loc == "fig3:2"]
    assert [e.kind for e in line2] == [ACQUIRE, READ, WRITE, RELEASE]
    assert tr.var_names[line2[1].op] == "xVar"


def test_all_fixtures_validate():
    for name, tr in fixtures().items():
        rep = validate(tr)
        assert rep.ok, (name, [v.render() for v in rep.violations])


def test_unknown_fixture():
    with pytest.raises(KeyError):
        fixture("fig9")


def test_gen_random_wellformed_and_exact_size():
    params = GenParams(threads=3, locks=2, vars=3, events=40, seed=7)
    tr = gen_random(params)
    assert validate(tr).ok
    assert tr.n_events == 40


def test_gen_random_deterministic():
    params = GenParams(threads=3, locks=2, vars=3, events=40, seed=7)
    assert gen_random(params).serialize() == gen_random(params).serialize()


def test_gen_random_no_locks_when_p_lock_zero():
    params = GenParams(threads=3, locks=2, vars=3, events=40, p_lock=0.0, seed=11)
    tr = gen_random(params)
    assert all(e.kind in (READ, WRITE) for e in tr.events)
    # without synchronization, the WCP races are exactly the conflicting pairs
    wle = oracle.wcp_le(tr)
    races = oracle.races_of(tr, wle)
    expected = {(a.idx, b.idx) for i, a in enumerate(tr.events)
                for b in tr.events[i + 1:] if conflicting(a, b)}
    assert races == expected


def test_gen_random_dangling_mode():
    params = GenParams(threads=2, locks=2, vars=2, events=30, p_lock=0.6, seed=0)
    tr = gen_random(params, close_sections=False)
    rep = validate(tr)
    assert rep.ok  # dangling sections are warnings, not errors
    assert any(v.kind == "DanglingCriticalSection" for v in warnings_of(rep))


def test_gen_params_validation():
    for kwargs in ({"threads": 0}, {"p_lock": 1.5},
                   # no access could be emitted, so gen_random would never return
                   {"vars": 0, "locks": 0}, {"vars": 0, "locks": 2, "events": 41},
                   {"vars": -1}, {"locks": -1}, {"events": -1}, {"max_nesting": -1}):
        with pytest.raises(ValueError):
            GenParams(**kwargs)


def test_equality_trace_shapes_and_errors():
    tr = gen_equality_trace("101", "101")
    assert tr.n_events == 48 and tr.n_threads == 3
    with pytest.raises(ValueError):
        gen_equality_trace("10", "1")
    with pytest.raises(ValueError):
        gen_equality_trace("", "")
    with pytest.raises(ValueError):
        gen_equality_trace("12", "10")


def test_equality_trace_validates():
    for u, v in [("0", "0"), ("0", "1"), ("10", "11"), ("111", "111")]:
        assert validate(gen_equality_trace(u, v)).ok


# 3000 is whole burst turns; 3005 ends in 5 filler reads; 5 is filler only
@pytest.mark.parametrize("n", [3000, 3005, 5])
def test_iter_scaling_wellformed(n):
    events = list(iter_scaling(n, threads=4, locks=8))
    assert len(events) == n
    lines = []
    for k, t, op in events:
        tok = {READ: "r", WRITE: "w", ACQUIRE: "acq", RELEASE: "rel"}[k]
        name = f"v{op}" if k <= WRITE else f"l{op}"
        lines.append(f"t{t}|{tok}|{name}")
    tr = parse_trace(lines)
    assert validate(tr).ok
    # race-free: neither the WCP nor the HB detector flags an access
    hb = AccessClocks()
    assert run_detector(tr.events, WcpEngine(), AccessClocks(), hb=hb) == []
    assert hb.flags == []
