"""Shared fixtures: the random differential corpus and cached oracle/engine
results over it (expensive, computed once per session)."""

from __future__ import annotations

import time

import pytest
from helpers import cp_le

from racepred import oracle
from racepred.hb_engine import HbEngine
from racepred.tracegen import GenParams, gen_random
from racepred.wcp_engine import WcpEngine

CORPUS_SIZE = 1000


def corpus_params(i: int) -> GenParams:
    # <= 4 threads, <= 3 locks, <= 4 vars, <= 50 events, no fork/join
    return GenParams(
        threads=2 + i % 3,
        locks=i % 4,
        vars=1 + i % 4,
        events=12 + (i * 7) % 27,
        p_lock=(0.2, 0.35, 0.5)[i % 3],
        p_write=(0.3, 0.5, 0.7)[(i // 3) % 3],
        max_nesting=1 + i % 3,
        seed=10_000 + i,
    )


@pytest.fixture(scope="session")
def corpus():
    t0 = time.perf_counter()
    traces = [gen_random(corpus_params(i)) for i in range(CORPUS_SIZE)]
    return traces, time.perf_counter() - t0


@pytest.fixture(scope="session")
def corpus_oracle(corpus):
    traces, _ = corpus
    t0 = time.perf_counter()
    rels = [(oracle.hb_closure(tr), oracle.wcp_le(tr), cp_le(tr)) for tr in traces]
    return rels, time.perf_counter() - t0


def _stamps(traces, engine_cls):
    out = []
    for tr in traces:
        eng = engine_cls(invariant_checks=True)
        out.append([eng.process(e) for e in tr.events])
    return out


@pytest.fixture(scope="session")
def corpus_wcp_stamps(corpus):
    traces, _ = corpus
    t0 = time.perf_counter()
    stamps = _stamps(traces, WcpEngine)
    return stamps, time.perf_counter() - t0


@pytest.fixture(scope="session")
def corpus_hb_stamps(corpus):
    traces, _ = corpus
    t0 = time.perf_counter()
    stamps = _stamps(traces, HbEngine)
    return stamps, time.perf_counter() - t0
