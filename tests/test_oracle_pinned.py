"""The oracle's relations, pinned: per trace family, the sha256 of the
hb/cp/wcp PREC lines and of the race sets of hb_closure, cp_le and wcp_le.
A change to how the oracle computes its closures must leave every digest
as it is."""

import hashlib
import random

import pytest
from conftest import corpus_params
from helpers import cp_le, fixtures
from test_wcp_engine import gen_forky

from racepred.oracle import cp_prec_closure, hb_closure, races_of, wcp_le, wcp_prec_closure
from racepred.trace_model import parse_trace
from racepred.tracegen import gen_equality_trace, gen_random


def fuzz_traces(count):
    # short traces of every event kind: re-entrant and open sections,
    # fork/join, and ill-formed input (double acquires, stray releases)
    rng = random.Random(43)
    operands = {"acq": ["l", "m"], "rel": ["l", "m"], "r": ["x", "y"], "w": ["x", "y"],
                "fork": ["T1", "T2", "T3"], "join": ["T1", "T2", "T3"]}
    for _ in range(count):
        lines = []
        for _ in range(rng.randrange(1, 14)):
            op = rng.choice(list(operands))
            lines.append(f"{rng.choice(['T1', 'T2', 'T3'])}|{op}|{rng.choice(operands[op])}")
        yield parse_trace(lines)


FAMILIES = {
    "fixtures_and_gadgets": lambda: (
        list(fixtures().values())
        + [gen_equality_trace(u, v) for u in ("00", "01", "10", "11")
           for v in ("00", "01", "10", "11")]
        + [gen_equality_trace("1011", "1001"), gen_equality_trace("0110", "0110")]),
    "corpus_200": lambda: [gen_random(corpus_params(i)) for i in range(200)],
    "forky_200": lambda: [gen_forky(seed) for seed in range(200)],
    "fuzz_300": lambda: list(fuzz_traces(300)),
}

DIGESTS = {
    "fixtures_and_gadgets":
        "2b5bdb55d40cb33598da98fe4de11794c576aa72a350b2fec4f7306112300015",
    "corpus_200":
        "a24dad65787d7778b81f2bf9fa1b4ee2f532ff2309bee299abf84d4f4033e092",
    "forky_200":
        "89999d3d4c993538d9d853831661130e798ad8e669179a2dbca118e11c048db2",
    "fuzz_300":
        "1cfe083b49260129fdd86791fe509d33b48d7b54f87aef8f006b744a171503c2",
}


def family_digest(traces):
    h = hashlib.sha256()
    for tr in traces:
        hb = hb_closure(tr)
        for rel in (hb, cp_prec_closure(tr), wcp_prec_closure(tr)):
            for line in rel.dump_lines():
                h.update(line.encode() + b"\n")
        for tag, rel in (("hb", hb), ("cp", cp_le(tr)), ("wcp", wcp_le(tr))):
            h.update(f"{tag}:{sorted(races_of(tr, rel))}\n".encode())
        h.update(b"--\n")
    return h.hexdigest()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_oracle_relations_are_pinned(family):
    assert family_digest(FAMILIES[family]()) == DIGESTS[family]
