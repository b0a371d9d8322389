"""The benchmark's tracer (perfbench/tracer.py) patches racepred names by
string: trace_model.iter_parse, the engines' process, check_access,
resolve_pairs, join_into, leq.  A refactor that renames one of them leaves
the benchmark timing or counting nothing; these runs catch it here."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from racepred.trace_model import WRITE, load_trace
from racepred.tracegen import GenParams, gen_random

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def racy_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("tracer") / "random.std"
    params = GenParams(threads=4, locks=2, vars=3, events=300, seed=5)
    path.write_text(gen_random(params).serialize())
    return path


def run_tracer(mode, trace, tmp_path, *args):
    out = tmp_path / f"{mode}.json"
    proc = subprocess.run([sys.executable, str(TRACER), mode, str(out), "analyze", *args,
                           str(trace)], capture_output=True, text=True, timeout=300)
    assert proc.returncode in (0, 1), proc.stderr
    assert out.exists()
    return json.loads(out.read_text())


@pytest.mark.parametrize("args", [["--detector", "both"], ["--detector", "wcp", "--pairs"]])
def test_tracer_sees_every_layer(racy_trace, tmp_path, args):
    # exact counts: a trim of the per-event chain that calls past a patched
    # name would otherwise shrink a per-layer metric without any failure
    pairs = "--pairs" in args
    trace = load_trace(str(racy_trace))
    accesses = sum(e.kind <= WRITE for e in trace.events)
    layers = run_tracer("timed", racy_trace, tmp_path, *args)["layers"]
    calls = {name: layer["calls"] for name, layer in layers.items()}
    assert calls.get("trace_model.iter_parse", 0) == trace.n_events + 1
    assert sum(n for name, n in calls.items()
               if name.startswith("wcp_engine.process.")) == trace.n_events
    # one check per access, also under both: HB's verdict comes from WCP's histories
    assert calls.get("race_reporter.check_access", 0) == accesses
    if pairs:
        assert calls.get("race_reporter.resolve_pairs", 0) == 1

    counts = run_tracer("count", racy_trace, tmp_path, *args)["counts"]
    assert counts["checks"] == accesses
    assert counts["join_calls"] > 0
    if pairs:
        assert counts["pair_comparisons"] > 0
