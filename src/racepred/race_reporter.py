"""Race checking and reporting.

Pass 1 keeps, per variable, a read history and a write history.  A read
is flagged when the write history is not ordered before its timestamp;
a write is also checked against the read history.  Earlier same-thread
accesses are always below the current timestamp, so only cross-thread
conflicts can flag.  A flag names only the second event of a racing
pair.  As in FastTrack, a history is an epoch (u, C), the last access's
thread and timestamp, while its accesses are totally ordered; since both
engines' timestamps are epochs, "ordered before c" is then C[u] <= c[u].
Otherwise it is their join, compared with leq.  Under --detector both
the HB detector keeps no histories of its own (see run_detector).

Pass 2 (optional) walks the access records that pass 1 kept, in trace
order, retaining every access to a flagged variable; at each flagged
access it emits one pair per earlier conflicting access with an
incomparable timestamp, without an engine.  One order test decides
that: the retained access comes first in the trace, and since
timestamps are epochs, a later event of another thread is never ordered
before it, so only "retained <= flagged" can hold.
Each unordered program-location pair is one RacePair, updated in place:
a count, minimum event-index separation, and one example pair of indices.
Only the first flagged pair is guaranteed to be a real race (an
unordered pair may also witness a predictable deadlock); it is marked
sound and the rest heuristic.  Past the pair budget, a variable's
records are dropped and its flags pair with the unknown first component
"?", so every flag yields a pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .trace_model import Event, Trace, READ, WRITE
from .vclock import join_into, leq


@dataclass
class AccessClocks:
    """Per-variable read and write histories, epochs or joins (see
    check_access), the flags that run_detector raised against them and, if
    records is a list, one (idx, tid, kind, var, loc, C) record per access."""

    reads: dict[int, tuple | list[int]] = field(default_factory=dict)
    writes: dict[int, tuple | list[int]] = field(default_factory=dict)
    flags: list[Flag] = field(default_factory=list)
    records: list[tuple] | None = None


@dataclass(slots=True)
class Flag:
    """Second component of a racing pair, found during pass 1."""

    idx: int
    var: int
    loc: str


@dataclass(slots=True)
class RacePair:
    loc_a: str               # lexicographically <= loc_b
    loc_b: str
    count: int
    min_distance: int
    example: tuple[int, int]
    sound: bool

    def render(self, detector: str) -> str:
        i1, i2 = self.example
        return (f"RACE|{detector}|{self.loc_a}|{self.loc_b}|count={self.count}"
                f"|mindist={self.min_distance}|ex={i1},{i2}|sound={1 if self.sound else 0}")


def _joined(h, c) -> list[int]:
    """History h joined with c, as a list (h itself when it is one)."""
    h = list(h[1]) if type(h) is tuple else h
    join_into(h, c)
    return h


def _before(h, c) -> bool:
    """History h is ordered before time c: C[u] <= c[u] for an epoch h =
    (u, C), leq for a join."""
    if type(h) is tuple:
        u = h[0]
        return u < len(c) and h[1][u] <= c[u]
    return leq(h, c)


def check_access(clocks: AccessClocks, kind: int, x: int, ep) -> int:
    """Race-check one access to x, then fold it into x's histories.
    Returns the number of detectors that flag it: 0, 1, or 2 when ep
    carries an HB time and HB flags too.

    ep = (t, c) or (t, c, h): the accessing thread, the access's timestamp
    and, under --detector both, its HB time h (see run_detector).  A read
    replaces a read epoch ordered before it; a write that does not flag is
    ordered after every earlier access, so its epoch replaces the write
    history and the reads are dropped; anything else folds into a join.  A
    history keeps the epoch ep itself, so c is a tuple, as the engines'
    timestamps are; h is never read back."""
    t, c = ep[0], ep[1]
    n = len(c)
    writes, reads = clocks.writes, clocks.reads
    w = writes.get(x)
    r = reads.get(x)
    # h is ordered before c: for an epoch h = (u, C), C[u] <= c[u]; for a join, leq
    if w is None:
        flagged = False
    elif type(w) is tuple:
        u = w[0]
        flagged = u >= n or w[1][u] > c[u]
    else:
        flagged = not leq(w, c)
    if kind != READ and r is not None and not flagged:
        if type(r) is tuple:
            u = r[0]
            flagged = u >= n or r[1][u] > c[u]
        else:
            flagged = not leq(r, c)
    if flagged and len(ep) > 2:
        # HB's verdict, from the same histories before the update
        h = ep[2]
        flagged = 2 if (w is not None and not _before(w, h)
                        or kind != READ and r is not None and not _before(r, h)) else 1
    if kind == READ:
        if r is not None and (type(r) is not tuple or (u := r[0]) >= n or r[1][u] > c[u]):
            ep = _joined(r, c)
        reads[x] = ep
        return flagged
    if flagged:
        writes[x] = list(c) if w is None else _joined(w, c)
    else:
        writes[x] = ep
        if r is not None:
            del reads[x]
    return flagged


def run_detector(events: Iterable[Event], engine, clocks: AccessClocks,
                 dump=None, hb: AccessClocks | None = None) -> list[Flag]:
    """Pass 1: feed events, in trace order, through one engine and race-check
    each access's timestamp against clocks.  Returns clocks.flags, in
    increasing index order.

    hb, given with a WcpEngine, collects the HB detector's flags in the
    same pass, without an HB engine and without histories of its own: each
    access is checked once, against clocks, and only when WCP flags it is
    HB decided, from the same histories against the live engine.hbt[tid],
    which equals HbEngine's timestamp.  That verdict is HbEngine's:
    - WCP is weaker than HB and C <= H, so an access WCP does not flag, HB
      does not flag either;
    - every access the histories dropped is C-below, hence HB-below, an
      access they kept, so it is HB-before the access whenever that one is;
    - for a kept access b of thread u, C_b <= H_e holds exactly when b is
      HB-before e: C_b <= H_b, and C_b[u] is u's local time at b, which
      H_e reaches only if b is HB-before e, since H is an epoch clock.
    hb's records, if hb.records is a list, hold the HB time of each access.
    dump, if given, is called with (event, C, engine) after each event
    (timestamp dumps)."""
    flags, records = clocks.flags, clocks.records
    process, hbt = engine.process, engine.hbt
    hb_records = None if hb is None else hb.records
    check = check_access    # looked up per run, so that a replaced global is called
    for e in events:
        c = process(e)
        kind = e.kind
        if kind <= WRITE:
            t, x = e.tid, e.op
            hit = check(clocks, kind, x, (t, c) if hb is None else (t, c, hbt[t]))
            if hit:
                flag = Flag(e.idx, x, e.loc_or_default())
                flags.append(flag)
                if hit == 2:
                    hb.flags.append(flag)
            if records is not None:
                records.append((e.idx, t, kind, x, e.loc_or_default(), c))
            if hb_records is not None:
                hb_records.append((e.idx, t, kind, x, e.loc_or_default(), tuple(hbt[t])))
        if dump is not None:
            dump(e, c, engine)
    return flags


def resolve_pairs(trace: Trace, clocks: AccessClocks,
                  pair_budget: int = 10_000_000) -> tuple[list[RacePair], list[str]]:
    """Pass 2: resolve every flag in clocks into full location pairs, from
    its access records; returns them sorted, and one note per degraded
    variable.

    Retains accesses only for flagged variables, at most pair_budget at
    once.  The variable whose access exceeds it degrades: its flags are
    reported with an unknown first component ("?", index -1, mindist -1).
    Deterministic and idempotent for given records and flags.
    """
    notes: list[str] = []
    flagged_at = {f.idx for f in clocks.flags}
    first_flag_idx = min(flagged_at, default=None)
    # flagged variable -> its retained records, or None once it has degraded
    retained: dict[int, list[tuple] | None] = {f.var: [] for f in clocks.flags}
    budget_used = 0
    agg: dict[tuple[str, str], RacePair] = {}

    def add_pair(loc1: str, i1: int, loc2: str, i2: int) -> RacePair:
        key = (loc1, loc2) if loc1 <= loc2 else (loc2, loc1)
        dist = i2 - i1 if i1 >= 0 else -1
        p = agg.get(key)
        if p is None:
            p = agg[key] = RacePair(*key, 0, dist, (i1, i2), False)
        p.count += 1
        if dist < p.min_distance:
            p.min_distance = dist
            p.example = (i1, i2)
        return p

    for record in clocks.records:
        idx, tid, kind, x, loc, c = record
        if x not in retained:
            continue
        kept = retained[x]
        if idx in flagged_at:
            if kept is None:
                add_pair("?", -1, loc, idx)
            else:
                latest = None
                for i1, t1, k1, _, loc1, c1 in kept:
                    if t1 != tid and (k1 == WRITE or kind == WRITE) and not leq(c1, c):
                        latest = add_pair(loc1, i1, loc, idx)
                if latest is not None and idx == first_flag_idx:
                    latest.sound = True     # the guarantee covers the closest such pair
        if kept is not None:
            kept.append(record)
            budget_used += 1
            if budget_used > pair_budget:
                budget_used -= len(kept)
                retained[x] = None
                notes.append(f"pair budget {pair_budget} exceeded at event {idx}; "
                             f"races on variable {trace.var_names[x]} degraded to second components")
    return [agg[k] for k in sorted(agg)], notes


def render_flags(trace: Trace, flags: list[Flag], detector: str) -> list[str]:
    return [f"FLAG|{detector}|idx={f.idx}|var={trace.var_names[f.var]}|loc={f.loc}"
            for f in flags]


def summary_lines(detector: str, trace_counts: tuple[int, int, int, int],
                  flags: int, max_queue_load: int, pairs: int | None = None) -> list[str]:
    n, t, l, v = trace_counts
    lines = [
        f"detector={detector}",
        f"events={n}",
        f"threads={t}",
        f"locks={l}",
        f"vars={v}",
        f"flags={flags}",
    ]
    if pairs is not None:
        lines.append(f"pairs={pairs}")
    pct = (100.0 * max_queue_load / n) if n else 0.0
    lines.append(f"max_queue_load={max_queue_load}")
    lines.append(f"max_queue_load_pct={pct:.4f}")
    return lines
