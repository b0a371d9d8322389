"""Command-line front end.

Subcommands: analyze (race detection), validate (well-formedness report),
generate (fixtures, gadget, random traces), oracle (brute-force relations
on small traces).  analyze exits 0 when no races were found, 1 when some
were, 2 on errors; everything written to stdout is deterministic for a
given input and configuration.  analyze writes one run record: each
detector's summary block closes its report on stdout, the run's own block
(time_s, and peak_rss_mb from /proc where it exists) goes to stderr, and
--metrics FILE receives the whole record.  generate takes exactly one mode,
as argparse enforces, and its --random options are GenParams' fields.

analyze streams the input through run_detector with one engine, keeping
no events: HbEngine for --detector hb, and WcpEngine for wcp and for
both, where the hb detector is decided from the wcp detector's access
histories against the WCP engine's HB clock.  With
--pairs each detector keeps one record per access, and pass 2 resolves
its pairs from them once the engine is freed.  Engine errors
and warnings name the event and its STD line, and threads and locks by
their trace names.  analyze, validate and oracle read the input through
one streaming parse; validate then keeps no events either, and oracle
keeps each event once HbEngine's process has accepted it.
"""

from __future__ import annotations

import argparse
import functools
import os
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import fields
from itertools import chain

from . import oracle as oracle_mod
from . import tracegen
from .hb_engine import HbEngine, validate
from .race_reporter import (AccessClocks, render_flags, resolve_pairs,
                            run_detector, summary_lines)
from .trace_model import ParseError, Trace, iter_parse, open_trace
from .vclock import render
from .wcp_engine import EngineError, WcpEngine, named


# bad traces and bad paths: each ends a subcommand with exit 2 and one error: line
INPUT_ERRORS = (ParseError, OSError)


@contextmanager
def _read_events(path: str):
    """Yields (trace, events): events parses the input as it is iterated
    and keeps nothing, and trace's name tables and n_events grow meanwhile."""
    with open_trace(path) as f:
        trace = Trace()
        yield trace, iter_parse(f, trace)


def _at_event(trace: Trace, e, message: str) -> str:
    """An engine error or warning, naming its event, STD line, threads and locks."""
    return f"event {e.idx} ({trace.event_line(e)}): {named(message, trace)}"


def _is_input(metrics: str, path: str) -> bool:
    """metrics is the input trace's file: path's, or stdin's for -."""
    try:
        stat = os.fstat(sys.stdin.fileno()) if path == "-" else os.stat(path)
        return os.path.samestat(stat, os.stat(metrics))
    except (OSError, ValueError):   # a missing file, or a stdin with no file
        return False


def _peak_rss_mb() -> list[str]:
    """This process's peak resident set, from VmHWM: unlike ru_maxrss, it
    does not inherit the spawner's peak across exec.  No line without /proc."""
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            kb = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
    except (OSError, StopIteration, ValueError):
        return []
    return [f"peak_rss_mb={kb / 1024:.1f}"]


def _analyze(args: argparse.Namespace, out) -> int:
    if args.metrics and _is_input(args.metrics, args.input):
        print(f"error: metrics file {args.metrics} is the input trace", file=sys.stderr)
        return 2
    detectors = ["wcp", "hb"] if args.detector == "both" else [args.detector]
    t0 = time.perf_counter()
    # One pass-1 engine per run: under both, the hb detector is decided from
    # wcp's histories against the WCP engine's HB clock, which equals
    # HbEngine's timestamp at every event.
    engine = (HbEngine if args.detector == "hb" else WcpEngine)()
    clocks = [AccessClocks(records=[] if args.pairs else None) for _ in detectors]

    def dump(e, c, eng):
        t = e.tid
        name = trace.thread_names[t]
        if args.detector != "hb":
            dumped.write(f"{e.idx}|{name}|C={render(c)}|P={render(eng.pred[t])}"
                         f"|H={render(eng.hbt[t])}\n")
        if args.detector != "wcp":
            dumped.write(f"HB|{e.idx}|{name}|C={render(eng.hbt[t])}\n")

    # opened before pass 1, so that a bad path fails before any output; the
    # timestamp dump waits in a temporary file until pass 1 has succeeded
    with (open(args.metrics, "w", encoding="utf-8") if args.metrics else nullcontext() as mf,
          tempfile.TemporaryFile("w+", encoding="utf-8") if args.dump_timestamps
          else nullcontext() as dumped):
        error = ""
        try:
            with _read_events(args.input) as (trace, events):
                run_detector(events, engine, clocks[0], dump if dumped is not None else None,
                             *clocks[1:])
        except EngineError as exc:
            error = _at_event(trace, exc.event, str(exc))
        except INPUT_ERRORS as exc:
            error = str(exc)
        for warning in engine.warnings:     # only events warn, so trace is bound
            print(f"warning: {_at_event(trace, warning.event, warning.message)}",
                  file=sys.stderr)
        if error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        max_queue_load = engine.max_queue_load
        del engine      # free its section logs before pass 2 and output
        reports = [(det, c.flags, resolve_pairs(trace, c, args.pair_budget) if args.pairs
                    else None) for det, c in zip(detectors, clocks)]
        del clocks      # and the access records before output
        elapsed = time.perf_counter() - t0

        # the run record: a summary block per detector (HB keeps no section log,
        # so no queue load), closing its report on stdout, then the run's own
        # block for stderr; the metrics file gets all of it
        counts = (trace.n_events, trace.n_threads, trace.n_locks, trace.n_vars)
        record = [summary_lines(det, counts, len(flags), max_queue_load if det == "wcp" else 0,
                                None if resolved is None else len(resolved[0]))
                  for det, flags, resolved in reports]
        if dumped is not None:
            dumped.seek(0)
            shutil.copyfileobj(dumped, out)
        # only over a sound=1 line; wcp's report comes first
        if args.pairs and args.detector != "hb" and any(p.sound for p in reports[0][2][0]):
            out.write("# note|wcp|only the first reported pair carries the soundness "
                      "guarantee; an unordered pair can also witness a predictable deadlock\n")
        for (det, flags, resolved), block in zip(reports, record):
            if resolved is None:
                lines = render_flags(trace, flags, det)
            else:
                pairs, notes = resolved
                lines = chain((f"# note|{det}|{note}" for note in notes),
                              (p.render(det) for p in pairs))
            out.writelines(f"{line}\n" for line in chain(lines, block))
        record.append([f"time_s={elapsed:.3f}", *_peak_rss_mb()])
        sys.stderr.writelines(f"{line}\n" for line in record[-1])
        if mf is not None:
            mf.writelines(f"{line}\n" for block in record for line in block)
    # every flag is reported: as a FLAG line, or in some RACE line
    return 1 if any(flags for _, flags, _ in reports) else 0


def _validate(args: argparse.Namespace, out) -> int:
    with _read_events(args.input) as (trace, events):
        report = validate(trace, events)
    for v in report.violations:
        out.write(v.render() + "\n")
    out.write(f"ok={'true' if report.ok else 'false'}\n")
    return 0 if report.ok else 2


def _generate(args: argparse.Namespace, out) -> int:
    try:
        if args.fixture:
            trace = tracegen.fixture(args.fixture)
        elif args.bits is not None:
            u, _, v = args.bits.partition(",")
            trace = tracegen.gen_equality_trace(u, v)
        else:
            params = tracegen.GenParams(**{f.name: getattr(args, f.name)
                                           for f in fields(tracegen.GenParams)})
            trace = tracegen.gen_random(params, close_sections=not args.dangling)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = trace.serialize()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        out.write(text)
    return 0


def _oracle(args: argparse.Namespace, out) -> int:
    # the engines' checks gate the input, so that the first fault in input
    # order ends analyze and oracle alike; warnings the oracle models
    try:
        with _read_events(args.input) as (trace, events):
            process = HbEngine().process
            for e in events:
                process(e)
                trace.events.append(e)
    except EngineError as exc:
        print(f"error: {_at_event(trace, exc.event, str(exc))}", file=sys.stderr)
        return 2
    try:
        hb = oracle_mod.hb_closure(trace, args.bound)
        wprec = oracle_mod.wcp_prec_closure(trace, args.bound)
        cprec = oracle_mod.cp_prec_closure(trace, args.bound)
    except oracle_mod.BoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wle = oracle_mod.as_partial_order(trace, wprec)
    cle = oracle_mod.as_partial_order(trace, cprec)
    for rel in (hb, cprec, wprec):
        for line in rel.dump_lines():
            out.write(line + "\n")
    any_wcp_race = False
    for kind, rel in (("hb", hb), ("cp", cle), ("wcp", wle)):
        for i, j in sorted(oracle_mod.races_of(trace, rel)):
            out.write(f"RACEPAIR|{kind}|{i}|{j}|{trace.loc(i)}|{trace.loc(j)}\n")
            if kind == "wcp":
                any_wcp_race = True
    return 1 if any_wcp_race else 0


def _non_negative(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return int(text)


@functools.cache     # one parser per process, however often main runs
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="racepred",
                                 description="Predictive data-race detection over logged traces")
    sub = ap.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="run race detection over a trace")
    a.add_argument("input", help="trace file in STD format, or - for stdin")
    a.add_argument("--detector", choices=["wcp", "hb", "both"], default="wcp")
    a.add_argument("--pairs", action="store_true",
                   help="resolve full race pairs from one record kept per access")
    a.add_argument("--pair-budget", type=_non_negative, default=10_000_000)
    a.add_argument("--dump-timestamps", action="store_true")
    a.add_argument("--metrics", metavar="FILE", default=None)

    v = sub.add_parser("validate", help="check lock semantics and nesting")
    v.add_argument("input")

    g = sub.add_parser("generate", help="emit a trace in STD format")
    mode = g.add_mutually_exclusive_group(required=True)
    mode.add_argument("--fixture", choices=list(tracegen.FIXTURE_NAMES), default=None)
    mode.add_argument("--bits", metavar="U,V", default=None,
                      help="equality gadget for bit strings U and V")
    mode.add_argument("--random", action="store_true")
    for f in fields(tracegen.GenParams):    # --random's knobs, types and defaults
        g.add_argument(f"--{f.name.replace('_', '-')}", type=type(f.default), default=f.default)
    g.add_argument("--dangling", action="store_true",
                   help="leave sections open at thread end (robustness tests)")
    g.add_argument("-o", "--output", default=None)

    o = sub.add_parser("oracle", help="brute-force HB/CP/WCP relations (small traces)")
    o.add_argument("input")
    o.add_argument("--bound", type=_non_negative, default=oracle_mod.DEFAULT_BOUND)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = {"analyze": _analyze, "validate": _validate, "generate": _generate,
               "oracle": _oracle}[args.command]
    try:
        return command(args, sys.stdout)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
