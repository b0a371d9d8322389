"""Traced run of ``racepred analyze``: spans around each layer's public calls.

Run as ``python3 perfbench/tracer.py MODE OUT.json analyze ARGS...``.  It
imports racepred from the checkout, wraps the module functions the CLI calls
into (parsing, the engines' ``process``, ``check_access``, ``run_detector``,
``resolve_pairs``, rendering, and ``cli.main`` itself), runs ``cli.main``
in-process with stdout untouched, and writes what it recorded to OUT.json.

MODE ``timed`` records spans.  Every wrapped call adds its duration to its
layer and to the child time of the call that encloses it, so a layer's self
time excludes nested layers (``resolve_pairs`` minus its replay through
``process``, ``run_detector`` minus ``check_access``).  Spans are kept as
per-layer sums in memory and written out at the end.

A wrapper also costs time outside its own clock window: the extra call
frame, the bookkeeping and, for generators, the extra resume.  That cost
would land in the enclosing call's self time.  Before the run, each wrapper
kind is timed around an empty function, and each wrapped call charges that
measured cost to its parent as child time, so self times (``cli.main`` most
of all) are net of it.  The total charged is written out as ``overhead_s``.

MODE ``count`` wraps nothing with clocks.  It counts the ``check_access``
calls and flags, the WCP engine's ``join_into`` calls and those that change
nothing, and the ``leq`` calls made inside ``resolve_pairs``.  Counting
wrappers cost time of their own, so counts come from this separate run and
never distort the timed one.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from racepred import cli, race_reporter, trace_model, wcp_engine  # noqa: E402
from racepred.hb_engine import HbEngine  # noqa: E402
from racepred.trace_model import KIND_TOKEN  # noqa: E402


class Spans:
    """Per-layer sums [calls, total_s, self_s] of nested wrapped calls."""

    def __init__(self) -> None:
        self.layers: dict[str, list] = {}
        self.kind_of: dict[str, str] = {}   # layer -> wrapper kind
        # per wrapper kind: seconds per call spent outside the clock window
        self.outside = {"call": [0.0], "generator": [0.0], "process": [0.0]}
        self._child = [0.0]             # child time of each open call, root first

    def layer(self, name: str, kind: str) -> list:
        self.kind_of[name] = kind
        return self.layers.setdefault(name, [0, 0.0, 0.0])

    def wrap(self, name: str, fn):
        acc, over = self.layer(name, "call"), self.outside["call"]
        child, clock = self._child, time.perf_counter

        def timed(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                acc[0] += 1
                acc[1] += dt
                acc[2] += dt - child.pop()
                child[-1] += dt + over[0]
        return timed

    def wrap_generator(self, name: str, gen_fn):
        """Times each step of a generator; the caller's loop body is not timed."""
        acc, over = self.layer(name, "generator"), self.outside["generator"]
        child, clock = self._child, time.perf_counter

        def steps(*args, **kwargs):
            gen = gen_fn(*args, **kwargs)
            while True:
                child.append(0.0)
                t0 = clock()
                try:
                    item = next(gen, None)
                finally:
                    dt = clock() - t0
                    acc[0] += 1
                    acc[1] += dt
                    acc[2] += dt - child.pop()
                    child[-1] += dt + over[0]
                if item is None:
                    return
                yield item
        return steps

    def wrap_process(self, prefix: str, process):
        """Engine ``process`` timed per event kind; it calls no wrapped layer."""
        accs = {kind: self.layer(f"{prefix}.{tok}", "process") for kind, tok in KIND_TOKEN.items()}
        over = self.outside["process"]
        child, clock = self._child, time.perf_counter

        def timed(engine, e):
            t0 = clock()
            snap = process(engine, e)
            dt = clock() - t0
            acc = accs[e.kind]
            acc[0] += 1
            acc[1] += dt
            acc[2] += dt
            child[-1] += dt + over[0]
            return snap
        return timed

    def calibrate(self, n: int = 20_000, reps: int = 5) -> float:
        """Measure each wrapper kind's cost outside its clock window around an
        empty function: the wrapped loop's wall time minus a bare loop's and
        minus the time inside the windows.  Returns the seconds it took."""
        started = time.perf_counter()
        clock, rounds = time.perf_counter, range(n)

        class Engine:
            process = self.wrap_process("calibrate", lambda engine, e: None)
        engine, event = Engine(), trace_model.Event(0, 0, trace_model.READ, 0)
        call = self.wrap("calibrate.call", lambda a, b, c, d: None)
        steps = self.wrap_generator("calibrate.generator", lambda: iter(rounds))

        def loop_call():
            for _ in rounds:
                call(1, 2, 3, 4)

        def loop_process():
            for _ in rounds:
                engine.process(event)

        def loop_generator():
            for _ in steps():
                pass

        def loop_bare():
            for _ in rounds:
                pass
        loops = {"call": loop_call, "process": loop_process, "generator": loop_generator}
        samples: dict[str, list[float]] = {kind: [] for kind in loops}
        for _ in range(reps):
            t0 = clock()
            loop_bare()
            bare = clock() - t0
            for kind, loop in loops.items():
                inside = self._inside(kind)
                t0 = clock()
                loop()
                wall = clock() - t0
                samples[kind].append((wall - bare - (self._inside(kind) - inside)) / n)
        for kind, values in samples.items():
            self.outside[kind][0] = max(0.0, statistics.median(values))
        for name in [k for k in self.layers if k.startswith("calibrate.")]:
            del self.layers[name], self.kind_of[name]
        self._child[0] = 0.0
        return time.perf_counter() - started

    def _inside(self, kind: str) -> float:
        return sum(v[1] for k, v in self.layers.items()
                   if k.startswith("calibrate.") and self.kind_of[k] == kind)

    def overhead_s(self) -> float:
        """Wrapper cost charged out of parents' self time over the whole run."""
        return sum(v[0] * self.outside[self.kind_of[k]][0] for k, v in self.layers.items())


def _patch(module, name: str, value) -> None:
    setattr(module, name, value)
    if hasattr(cli, name):
        setattr(cli, name, value)   # cli imported the name directly


def install_timed(spans: Spans) -> None:
    w, g = spans.wrap, spans.wrap_generator
    _patch(trace_model, "iter_parse", g("trace_model.iter_parse", trace_model.iter_parse))
    _patch(trace_model, "load_trace", w("trace_model.load_trace", trace_model.load_trace))
    wcp_engine.WcpEngine.process = spans.wrap_process("wcp_engine.process",
                                                      wcp_engine.WcpEngine.process)
    HbEngine.process = spans.wrap_process("hb_engine.process", HbEngine.process)
    for name in ("check_access", "run_detector", "resolve_pairs", "render_flags",
                 "summary_lines"):
        _patch(race_reporter, name, w(f"race_reporter.{name}", getattr(race_reporter, name)))
    race_reporter.RacePair.render = w("race_reporter.RacePair.render",
                                      race_reporter.RacePair.render)


def install_counting(counts: dict) -> None:
    check = race_reporter.check_access

    def check_access(clocks, kind, x, c):
        hit = check(clocks, kind, x, c)
        counts["checks"] += 1
        counts["flagged"] += hit
        return hit
    _patch(race_reporter, "check_access", check_access)

    join = wcp_engine.join_into

    def join_into(dst, src):
        counts["join_calls"] += 1
        if len(src) <= len(dst) and all(s <= d for s, d in zip(src, dst)):
            counts["join_noop"] += 1
        join(dst, src)
    wcp_engine.join_into = join_into

    leq = race_reporter.leq

    def counting_leq(a, b):
        counts["leq_calls"] += 1
        return leq(a, b)
    race_reporter.leq = counting_leq

    resolve = race_reporter.resolve_pairs

    def resolve_pairs(*args, **kwargs):
        before = counts["leq_calls"]
        try:
            return resolve(*args, **kwargs)
        finally:
            counts["pair_comparisons"] += counts["leq_calls"] - before
    _patch(race_reporter, "resolve_pairs", resolve_pairs)


def main(argv: list[str]) -> int:
    mode, out_path, args = argv[0], argv[1], argv[2:]
    engines: list = []
    init = wcp_engine.WcpEngine.__init__

    def register(self, *a, **kw):
        init(self, *a, **kw)
        engines.append(self)
    wcp_engine.WcpEngine.__init__ = register

    spans = Spans()
    counts = dict.fromkeys(("checks", "flagged", "join_calls", "join_noop", "leq_calls",
                            "pair_comparisons"), 0)
    calibrate_s = 0.0
    if mode == "timed":
        calibrate_s = spans.calibrate()
        install_timed(spans)
        main_fn = spans.wrap("cli.main", cli.main)
    elif mode == "count":
        install_counting(counts)
        main_fn = cli.main
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    rc = main_fn(args)
    sys.stdout.flush()
    result = {
        "layers": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                   for k, v in spans.layers.items()},
        "outside_s_per_call": {k: v[0] for k, v in spans.outside.items()},
        "overhead_s": spans.overhead_s(),
        "calibrate_s": calibrate_s,
        "counts": counts,
        "wcp_engines": [{"max_queue_load": e.max_queue_load, "total_entries": e.total_entries}
                        for e in engines],
    }
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
