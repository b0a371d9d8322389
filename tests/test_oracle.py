import pytest
from helpers import contains, cp_le, find_by_loc, fixtures, holds

from racepred import oracle
from racepred.oracle import (BoundExceeded, cp_prec_closure, hb_closure, races_of, wcp_le,
                             wcp_prec_closure)
from racepred.trace_model import parse_trace
from racepred.tracegen import fixture


def idx(tr, loc):
    return find_by_loc(tr, loc)


# name -> (hb races, cp races, wcp races) as loc pairs
VERDICTS = {
    "fig1a": (set(), set(), set()),
    "fig1b": (set(), {("fig1b:1", "fig1b:8")}, {("fig1b:1", "fig1b:8")}),
    "fig2a": (set(), set(), set()),
    "fig2b": (set(), set(), {("fig2b:1", "fig2b:6")}),
    "fig3": (set(), set(), {("fig3:3", "fig3:12")}),
    "fig4": (set(), set(), {("fig4:4", "fig4:15")}),
    "fig5": (set(), set(), {("fig5:4", "fig5:14")}),
    "fig7": (set(), set(), set()),
}


def loc_pairs(tr, pairs):
    return {(tr.loc(i), tr.loc(j)) for i, j in pairs}


@pytest.mark.parametrize("name", sorted(VERDICTS))
def test_fixture_race_verdicts(name):
    tr = fixture(name)
    hb, cp, wcp = VERDICTS[name]
    assert loc_pairs(tr, races_of(tr, hb_closure(tr))) == hb
    assert loc_pairs(tr, races_of(tr, cp_le(tr))) == cp
    assert loc_pairs(tr, races_of(tr, wcp_le(tr))) == wcp


def test_fig3_cp_orders_the_pair_wcp_does_not():
    tr = fixture("fig3")
    i, j = idx(tr, "fig3:3"), idx(tr, "fig3:12")
    assert holds(cp_prec_closure(tr), i, j)
    assert not holds(wcp_prec_closure(tr), i, j)


def test_fig4_cp_orders_the_pair():
    tr = fixture("fig4")
    i, j = idx(tr, "fig4:4"), idx(tr, "fig4:15")
    assert holds(cp_prec_closure(tr), i, j)
    assert not holds(wcp_prec_closure(tr), i, j)


def test_fig2b_cp_orders_reads_via_composition():
    tr = fixture("fig2b")
    i, j = idx(tr, "fig2b:1"), idx(tr, "fig2b:6")
    assert holds(cp_prec_closure(tr), i, j)


def test_fig7_drawn_edges():
    tr = fixture("fig7")
    w = wcp_prec_closure(tr)
    edges = [(6, 17), (10, 20), (14, 22), (15, 24)]
    for a, b in edges:
        i, j = idx(tr, f"fig7:{a}"), idx(tr, f"fig7:{b}")
        assert holds(w, i, j), (a, b)
        assert not holds(w, j, i)


def test_fig3_hb_edge_between_n_sections():
    tr = fixture("fig3")
    hb = hb_closure(tr)
    assert holds(hb, idx(tr, "fig3:8"), idx(tr, "fig3:10"))   # rel(n) -> acq(n)


def test_hb_single_thread_is_thread_order():
    tr = parse_trace(["T1|w|x", "T1|r|x", "T1|w|y"])
    hb = hb_closure(tr)
    assert all(holds(hb, i, j) for i in range(3) for j in range(i, 3))


def test_hb_two_threads_no_locks_no_cross_pairs():
    tr = parse_trace(["T1|w|x", "T2|r|x", "T1|r|y", "T2|w|y"])
    hb = hb_closure(tr)
    for i, j in ((0, 1), (0, 3), (2, 1), (2, 3)):
        assert not holds(hb, i, j) and not holds(hb, j, i)


def test_wcp_empty_without_conflicts():
    tr = parse_trace(["T1|acq|l", "T1|w|x", "T1|rel|l", "T2|acq|l", "T2|r|y", "T2|rel|l"])
    prec = wcp_prec_closure(tr)
    assert all(row == 0 for row in prec.bits)


def test_races_of_full_order_is_empty():
    tr = fixture("fig1b")
    n = tr.n_events
    full = oracle.OrderRelation([((1 << n) - 1) >> i << i for i in range(n)], "hb")
    assert races_of(tr, full) == set()


def test_races_of_rejects_prec_relation():
    tr = fixture("fig1b")
    with pytest.raises(ValueError):
        races_of(tr, wcp_prec_closure(tr))


def test_fixpoint_idempotent():
    tr = fixture("fig7")
    assert wcp_prec_closure(tr).bits == wcp_prec_closure(tr).bits
    assert cp_prec_closure(tr).bits == cp_prec_closure(tr).bits


def test_inclusion_chain_on_fixtures():
    for name, tr in fixtures().items():
        hb, wle, cle = hb_closure(tr), wcp_le(tr), cp_le(tr)
        assert contains(cle, wle), name
        assert contains(oracle.OrderRelation(hb.bits, "cple"), cle), name
        assert races_of(tr, hb) <= races_of(tr, cle) <= races_of(tr, wle), name


def test_bound_exceeded():
    tr = fixture("fig7")
    with pytest.raises(BoundExceeded):
        hb_closure(tr, bound=10)
    with pytest.raises(BoundExceeded):
        wcp_prec_closure(tr, bound=10)


def test_oracle_handles_reentrant_sections():
    tr = parse_trace([
        "T1|acq|l", "T1|acq|l", "T1|w|x", "T1|rel|l", "T1|rel|l",
        "T2|acq|l", "T2|r|x", "T2|rel|l",
    ])
    wle = wcp_le(tr)
    # inner pair is inert: the section still orders the conflicting accesses
    assert races_of(tr, wle) == set()


def test_dump_lines():
    tr = fixture("fig3")
    w = wcp_prec_closure(tr)
    lines = list(w.dump_lines())
    assert all(line.startswith("PREC|wcp|") for line in lines)
    i, j = idx(tr, "fig3:3"), idx(tr, "fig3:12")
    assert f"PREC|wcp|{i}|{j}" not in lines


def test_closure_ends_when_a_release_is_ordered_before_an_earlier_one():
    # T2's l-section (4-8) overlaps T1's (0-12), a double acquire.  Rule (b)
    # orders T1's release of l before T2's, an earlier event that HB-precedes
    # it through lock n: a cycle, which the closure must survive
    tr = parse_trace([
        "T1|acq|l", "T1|acq|m", "T1|w|x", "T1|rel|m", "T2|acq|l", "T2|acq|m", "T2|r|x",
        "T2|rel|m", "T2|rel|l", "T2|acq|n", "T2|rel|n", "T1|acq|n", "T1|rel|l",
    ])
    w = wcp_prec_closure(tr)
    assert holds(w, 12, 8) and holds(hb_closure(tr), 8, 12)
    assert not any(holds(w, i, i) for i in range(tr.n_events))
