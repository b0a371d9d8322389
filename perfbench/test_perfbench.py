"""Self-tests of the benchmark at a tiny size: python3 -m pytest perfbench"""

import dataclasses
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

TINY = {"scaling-both": 3000, "drain-wcp": 1500, "pairs-wcp": 1000}


def tiny(name: str) -> wl.Workload:
    return dataclasses.replace(wl.WORKLOADS[name], events=TINY[name])


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_end_to_end(name, trace, tmp_path):
    result = harness.run_workload(tiny(name), 3, 0.0, trace, tmp_path, log=lambda *_: None)
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] >= harness.MIN_SAMPLES
    units = ({k: u for k, (u, _) in harness.PER_LAYER.items()} if trace
             else harness.END_TO_END)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_corrupted_stdout_counts_as_failed(tmp_path, monkeypatch):
    spawn = harness.Run.spawn
    calls = []

    def corrupting(self, cmd):
        s = spawn(self, cmd)
        if self.samples and len(calls) == 0:   # second analysis of the full trace
            calls.append(cmd)
            s.stdout = s.stdout[:-1] + b"0"
        return s
    monkeypatch.setattr(harness.Run, "spawn", corrupting)
    result = harness.run_workload(tiny("drain-wcp"), 3, 0.0, False, tmp_path,
                                  log=lambda *_: None)
    assert calls
    assert result["failed"] == 1
    assert not result["correct"]


def test_pinned_digest_mismatch_fails_every_run(tmp_path):
    w = tiny("scaling-both")
    pinned = {w.name: {"events": w.events, "stdout_sha256": {"3": "0" * 64}}}
    result = harness.run_workload(w, 3, 0.0, False, tmp_path, pinned, log=lambda *_: None)
    assert result["failed"] == result["attempted"] > 0


def sample_output(name: str, tmp_path) -> tuple[harness.Run, harness.Sample]:
    run = harness.Run(tiny(name), 3, tmp_path)
    tmp_path.mkdir(exist_ok=True)
    run.setup()
    return run, run.spawn(run.analyze_cmd(run.w.args, run.trace_path))


def test_output_checks_catch_each_defect(tmp_path):
    run, s = sample_output("drain-wcp", tmp_path)
    assert s.rc == 1
    assert harness.check_output(run.w, run.n_events, s.rc, s.stdout) == []
    lines = s.stdout.splitlines(keepends=True)
    dropped = b"".join(lines[1:])
    assert any("FLAG lines" in p for p in harness.check_output(run.w, run.n_events, 1, dropped))
    assert any("exit code" in p for p in harness.check_output(run.w, run.n_events, 0, s.stdout))
    assert any("events=" in p for p in harness.check_output(run.w, run.n_events + 1, 1, s.stdout))

    run, s = sample_output("pairs-wcp", tmp_path / "pairs")
    assert harness.check_output(run.w, run.n_events, s.rc, s.stdout) == []
    unsound = s.stdout.replace(b"|sound=1", b"|sound=0")
    assert any("sound=1" in p for p in harness.check_output(run.w, run.n_events, 1, unsound))


def test_seed_changes_random_traces_only():
    for w in wl.WORKLOADS.values():
        a, _ = wl.trace_text(w, 500, 1)
        b, _ = wl.trace_text(w, 500, 2)
        assert a == wl.trace_text(w, 500, 1)[0]
        strip = [line.rsplit("|", 1)[0] for line in a.splitlines()]
        strip_b = [line.rsplit("|", 1)[0] for line in b.splitlines()]
        assert a != b                       # locations are seeded everywhere
        assert (strip != strip_b) == (w.generator == "random")


def test_locations_are_bounded():
    w = wl.WORKLOADS["drain-wcp"]
    _, locations = wl.trace_text(w, 40_000, 1)
    # at most SITES_PER_KEY sites per (op, operand), whichever thread runs it
    assert locations <= 2 * (w.locks + w.vars) * wl.SITES_PER_KEY < 40_000


def test_threads_share_sites():
    text, _ = wl.trace_text(wl.WORKLOADS["drain-wcp"], 40_000, 1)
    threads_at: dict[str, set] = {}
    for line in text.splitlines():
        tid, _, _, loc = line.split("|")
        threads_at.setdefault(loc, set()).add(tid)
    assert sum(len(t) > 1 for t in threads_at.values()) > len(threads_at) / 2


def test_spans_nest_and_take_wrapper_cost_out_of_parents():
    spans = tracer.Spans()
    spans.outside["call"][0] = 0.5      # as if each call cost 0.5 s outside its window
    inner = spans.wrap("inner", lambda: time.sleep(0.01))
    outer = spans.wrap("outer", lambda: [inner() for _ in range(2)])
    outer()
    o, i = spans.layers["outer"], spans.layers["inner"]
    assert (o[0], i[0]) == (1, 2)
    assert i[2] == pytest.approx(i[1])
    assert o[2] == pytest.approx(o[1] - i[1] - 2 * 0.5)
    assert spans.overhead_s() == pytest.approx(3 * 0.5)


def test_calibration_leaves_no_layers():
    spans = tracer.Spans()
    assert spans.calibrate(n=2000, reps=3) > 0
    assert spans.layers == {} and spans.kind_of == {}
    assert all(v[0] >= 0 for v in spans.outside.values())


def test_benchmark_json_matches_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in wl.WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: u for k, (u, _) in harness.PER_LAYER.items()}
