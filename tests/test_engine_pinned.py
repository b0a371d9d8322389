"""The engines' state, pinned: per trace family, the sha256 of what
WcpEngine and HbEngine (with invariant checks) show at every event -- the
timestamp C, the thread's pred P and HB clock H, and max_queue_load --
with each error's kind and text, the warnings, and validate's VIOLATION
lines.  A change to how the engines compute must leave every digest as it
is.  The families are those of the oracle's pinned test; the four take
about 0.3 s together."""

import hashlib

import pytest
from test_oracle_pinned import FAMILIES

from racepred.hb_engine import HbEngine, validate
from racepred.wcp_engine import EngineError, WcpEngine

DIGESTS = {
    "fixtures_and_gadgets":
        "1d5af1d01b937e6325385cda690b485603dc92a703bc6c386e6cd8d032443332",
    "corpus_200":
        "36431895c6011abe0ff1a300145811eba5ff4861ebe81cfc21740748f037463f",
    "forky_200":
        "fe6f61b82193c7609a8a97ad13020d9d138c8a0a3f0f7ad7126d10fdcfeb5fb7",
    "fuzz_300":
        "f58cfb5f4059f6a0f7712840fe8ed86ce4c97af302027285de6fb5924cc07762",
}


def engine_lines(engine_cls, tr):
    # an event that breaks a rule changes no state, so the run goes on past it
    eng = engine_cls(invariant_checks=True)
    for e in tr.events:
        try:
            c = eng.process(e)
        except EngineError as exc:
            yield f"{e.idx}|error|{exc.kind}|{exc}"
            continue
        t = e.tid
        yield f"{e.idx}|{c}|{tuple(eng.pred[t])}|{tuple(eng.hbt[t])}|{eng.max_queue_load}"
    for w in eng.warnings:
        yield f"warning|{w.kind}|{w.message}"


def family_digest(traces):
    h = hashlib.sha256()
    for tr in traces:
        for engine_cls in (WcpEngine, HbEngine):
            h.update(f"{engine_cls.detector}\n".encode())
            for line in engine_lines(engine_cls, tr):
                h.update(line.encode() + b"\n")
        for v in validate(tr).violations:
            h.update(v.render().encode() + b"\n")
        h.update(b"--\n")
    return h.hexdigest()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_engine_state_is_pinned(family):
    assert family_digest(FAMILIES[family]()) == DIGESTS[family]
