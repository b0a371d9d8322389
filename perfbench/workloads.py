"""Benchmark workloads: seeded trace generation and the oracle cross-check.

Each workload names a generator from ``racepred.tracegen``, its size and
parameters, and the ``racepred analyze`` arguments it is run with.  Set-up
writes the trace as STD text with a ``|loc`` field on every event.  The
locations come from a bounded, seeded table of program sites, drawn per
(op, operand) and shared by all threads, since threads run the same code.
Pass-2 deduplication keys on location pairs, so without locations every
access would be its own location and nothing would ever merge.  The site
count is a model, not measured from real logs: ``SITES_PER_KEY`` is set so
that ``pairs-wcp`` at seed 1 prints about 57k RACE lines, close to the
56,422 measured with locations when these workloads were specified
(113,834 without them).

The oracle cross-check draws a small trace (at most ``ORACLE_EVENTS``
events) from the same generator, parameters and seed, runs it through the
same CLI command, and compares the reported races with the brute-force
relations of ``racepred.oracle``.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from racepred import oracle, tracegen
from racepred.trace_model import KIND_TOKEN, WRITE, load_trace

# The brute-force WCP closure is cubic per fixpoint round: 800 events with
# 32 threads take about 0.1 s, 2000 events take about 3 s.
ORACLE_EVENTS = 800
# Source lines per (op, operand), shared by all threads; see the module
# docstring for where the count comes from.
SITES_PER_KEY = 32
SITE_LINES = 4000


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str            # "scaling" (iter_scaling) or "random" (gen_random)
    events: int
    threads: int
    locks: int
    vars: int                 # gen_random only; iter_scaling derives its own
    args: tuple[str, ...]     # racepred analyze arguments, trace path appended
    why: str

    @property
    def detectors(self) -> list[str]:
        det = self.args[self.args.index("--detector") + 1]
        return ["wcp", "hb"] if det == "both" else [det]

    @property
    def pairs(self) -> bool:
        return "--pairs" in self.args

    @property
    def race_free(self) -> bool:
        # iter_scaling only touches shared variables under their lock
        return self.generator == "scaling"


WORKLOADS = {w.name: w for w in (
    Workload("scaling-both", "scaling", 300_000, 8, 32, 0, ("--detector", "both"),
             "race-free iter_scaling stream: parsing, the WCP lock path with short drains, "
             "flag-free check_access and the HB engine all do real work; pass 2 is bypassed"),
    Workload("drain-wcp", "random", 100_000, 32, 16, 64, ("--detector", "wcp"),
             "racy gen_random with 32 threads: the WCP release drain dominates, most joins "
             "change nothing, most accesses flag, so the FLAG output is heavy"),
    Workload("pairs-wcp", "random", 20_000, 32, 16, 64, ("--detector", "wcp", "--pairs"),
             "the same generator with --pairs: buffered load, two engine passes and "
             "resolve_pairs, which the other two workloads bypass"),
)}


def _rows(w: Workload, events: int, seed: int):
    """(thread, op token, operand) rows of the workload's trace."""
    if w.generator == "scaling":
        for kind, t, o in tracegen.iter_scaling(events, w.threads, w.locks):
            yield f"t{t}", KIND_TOKEN[kind], (f"x{o}" if kind <= WRITE else f"l{o}")
        return
    params = tracegen.GenParams(threads=w.threads, locks=w.locks, vars=w.vars,
                                events=events, seed=seed)
    trace = tracegen.gen_random(params)
    for e in trace.events:
        yield (trace.thread_names[e.tid], KIND_TOKEN[e.kind], trace.operand_name(e))


def trace_text(w: Workload, events: int, seed: int) -> tuple[str, int]:
    """STD text of the workload trace with seeded locations, and the number
    of distinct locations in it."""
    rng = Random(f"perfbench-loc-{seed}")
    sites: dict[tuple[str, str], list[str]] = {}
    used: set[str] = set()
    out = []
    for tid, op, operand in _rows(w, events, seed):
        choices = sites.get((op, operand))
        if choices is None:
            choices = sites[op, operand] = [
                f"{operand.capitalize()}.java:{rng.randrange(1, SITE_LINES)}"
                for _ in range(SITES_PER_KEY)]
        loc = choices[rng.randrange(SITES_PER_KEY)]
        used.add(loc)
        out.append(f"{tid}|{op}|{operand}|{loc}\n")
    return "".join(out), len(used)


def oracle_races(path) -> dict[str, tuple]:
    """Oracle view of a small trace: per detector, the second members of its
    racing pairs and the racing pairs themselves."""
    trace = load_trace(str(path))
    wcp = oracle.races_of(trace, oracle.wcp_le(trace))
    hb = oracle.races_of(trace, oracle.hb_closure(trace))
    return {"wcp": ({j for _, j in wcp}, wcp), "hb": ({j for _, j in hb}, hb)}
