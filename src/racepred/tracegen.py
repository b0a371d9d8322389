"""Trace generators: bundled example traces, random well-formed traces,
the bit-string equality gadget family, and a steady-state scaling stream.

The bundled fixtures (fig1a .. fig7) are the small worked examples used
throughout the test suite; each exercises one specific ordering subtlety
(lock handoffs that hide or reveal a predictable race, release-release
chains, and so on).  ``sync(x)`` lines expand to acq(x) r(xVar) w(xVar)
rel(x); ``acrl(y)`` lines expand to acq(y) rel(y).  Every expanded event
carries loc "<name>:<line>" so reports can be checked against line
numbers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from random import Random
from typing import Iterator

from .trace_model import ACQUIRE, READ, RELEASE, THREADS, TOKEN_KIND, WRITE, Trace

# (thread, op, operand) rows; op "sync"/"acrl" are expanded below.
_FIXTURE_ROWS: dict[str, list[tuple[str, str, str]]] = {
    "fig1a": [
        ("t1", "acq", "l"), ("t1", "r", "x"), ("t1", "w", "x"), ("t1", "rel", "l"),
        ("t2", "acq", "l"), ("t2", "r", "x"), ("t2", "w", "x"), ("t2", "rel", "l"),
    ],
    "fig1b": [
        ("t1", "w", "y"), ("t1", "acq", "l"), ("t1", "r", "x"), ("t1", "rel", "l"),
        ("t2", "acq", "l"), ("t2", "r", "x"), ("t2", "rel", "l"), ("t2", "r", "y"),
    ],
    "fig2a": [
        ("t1", "w", "y"), ("t1", "acq", "l"), ("t1", "w", "x"), ("t1", "rel", "l"),
        ("t2", "acq", "l"), ("t2", "r", "x"), ("t2", "r", "y"), ("t2", "rel", "l"),
    ],
    "fig2b": [
        ("t1", "w", "y"), ("t1", "acq", "l"), ("t1", "w", "x"), ("t1", "rel", "l"),
        ("t2", "acq", "l"), ("t2", "r", "y"), ("t2", "r", "x"), ("t2", "rel", "l"),
    ],
    "fig3": [
        ("t1", "acq", "l"), ("t1", "sync", "x"), ("t1", "r", "z"), ("t1", "rel", "l"),
        ("t2", "sync", "x"), ("t2", "acq", "l"), ("t2", "acq", "n"), ("t2", "rel", "n"),
        ("t2", "rel", "l"),
        ("t3", "acq", "n"), ("t3", "rel", "n"), ("t3", "w", "z"),
    ],
    "fig4": [
        ("t1", "acq", "l"), ("t1", "acq", "m"), ("t1", "rel", "m"), ("t1", "r", "z"),
        ("t1", "rel", "l"),
        ("t2", "acq", "m"), ("t2", "acq", "n"), ("t2", "sync", "x"), ("t2", "rel", "n"),
        ("t2", "rel", "m"),
        ("t3", "acq", "n"), ("t3", "acq", "l"), ("t3", "rel", "l"), ("t3", "sync", "x"),
        ("t3", "w", "z"), ("t3", "rel", "n"),
    ],
    "fig5": [
        ("t1", "acq", "l"), ("t1", "acq", "m"), ("t1", "rel", "m"), ("t1", "r", "z"),
        ("t1", "rel", "l"),
        ("t2", "acq", "m"), ("t2", "acq", "n"), ("t2", "sync", "x"), ("t2", "rel", "n"),
        ("t3", "acq", "n"), ("t3", "acq", "l"), ("t3", "rel", "l"), ("t3", "sync", "x"),
        ("t3", "w", "z"), ("t3", "rel", "n"), ("t3", "sync", "y"),
        ("t2", "sync", "y"), ("t2", "rel", "m"),
    ],
    "fig7": [
        ("t1", "acq", "l0"), ("t1", "w", "x"),
        ("t3", "acq", "m"), ("t3", "acrl", "y"),
        ("t1", "acrl", "y"), ("t1", "rel", "l0"),
        ("t1", "acq", "l1"), ("t1", "acrl", "y"),
        ("t3", "acrl", "y"), ("t3", "rel", "m"), ("t3", "acq", "m"), ("t3", "acrl", "y"),
        ("t1", "acrl", "y"), ("t1", "rel", "l1"),
        ("t3", "rel", "m"),
        ("t2", "acq", "l0"), ("t2", "w", "x"), ("t2", "rel", "l0"),
        ("t2", "acq", "m"), ("t2", "rel", "m"),
        ("t2", "acq", "l1"), ("t2", "rel", "l1"),
        ("t2", "acq", "m"), ("t2", "rel", "m"),
    ],
}

FIXTURE_NAMES = tuple(_FIXTURE_ROWS)


# row op -> the (kind, operand suffix) of each event it expands to
_EXPANSION = {tok: ((kind, ""),) for tok, kind in TOKEN_KIND.items()}
_EXPANSION["sync"] = ((ACQUIRE, ""), (READ, "Var"), (WRITE, "Var"), (RELEASE, ""))
_EXPANSION["acrl"] = ((ACQUIRE, ""), (RELEASE, ""))


def _expand_rows(name: str, rows: list[tuple[str, str, str]]) -> Trace:
    trace = Trace()
    for line, (tid, op, operand) in enumerate(rows, 1):
        for kind, suffix in _EXPANSION[op]:
            trace.add(tid, kind, operand + suffix, f"{name}:{line}")
    return trace


def fixture(name: str) -> Trace:
    rows = _FIXTURE_ROWS.get(name)
    if rows is None:
        raise KeyError(f"unknown fixture {name!r}, have {', '.join(FIXTURE_NAMES)}")
    return _expand_rows(name, rows)


def gen_equality_trace(u: str, v: str) -> Trace:
    """Three-thread gadget whose two w(z) events are WCP-ordered iff u == v.

    Bit i of u picks the lock (l0/l1) of thread t1's i-th block; bit i of
    v picks the lock of t2's i-th block.  The blocks are stitched to t3's
    chain of m-sections with acrl(y) handoffs, so each release-release
    ordering on m is contingent on the bits matched so far; the final one
    orders the two w(z) events exactly when the strings are equal.
    """
    if len(u) != len(v):
        raise ValueError(f"bit strings differ in length: {len(u)} vs {len(v)}")
    if not u or set(u + v) - {"0", "1"}:
        raise ValueError("expected non-empty strings over {0,1}")
    n = len(u)
    rows: list[tuple[str, str, str]] = []
    for i, bit in enumerate(u):
        b_i = f"l{bit}"
        if i == 0:
            rows += [("t1", "acq", b_i), ("t1", "w", "x"),
                     ("t3", "acq", "m"), ("t3", "acrl", "y"),
                     ("t1", "acrl", "y"), ("t1", "rel", b_i)]
        else:
            rows += [("t1", "acq", b_i), ("t1", "acrl", "y"),
                     ("t3", "acrl", "y"), ("t3", "rel", "m"),
                     ("t3", "acq", "m"), ("t3", "acrl", "y"),
                     ("t1", "acrl", "y"), ("t1", "rel", b_i)]
    rows += [("t3", "w", "z"), ("t3", "rel", "m")]
    for j, bit in enumerate(v):
        c_j = f"l{bit}"
        if j == 0:
            rows += [("t2", "acq", c_j), ("t2", "w", "x"), ("t2", "rel", c_j)]
        else:
            rows += [("t2", "acq", c_j), ("t2", "rel", c_j)]
        rows += [("t2", "acq", "m"), ("t2", "rel", "m")]
    rows += [("t2", "w", "z")]

    return _expand_rows(f"eq{n}", rows)


@dataclass
class GenParams:
    threads: int = 3
    locks: int = 2
    vars: int = 3
    events: int = 40
    p_lock: float = 0.3
    p_write: float = 0.5
    max_nesting: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.vars < 1:
            raise ValueError("vars must be >= 1")
        for name in ("locks", "events", "max_nesting"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for p in (self.p_lock, self.p_write):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must be in [0,1]")


def gen_random(params: GenParams, *, close_sections: bool = True) -> Trace:
    """Random well-formed trace, deterministic in the seed.

    Acquires only target free locks and releases are LIFO per thread, so
    lock semantics and well-nestedness hold by construction.  Sections
    are biased short (a held lock is released with fixed probability per
    step) so release-release chains actually occur in small corpora.
    Open sections are closed at the end within the event budget unless
    close_sections is False (robustness-testing mode).
    """
    rng = Random(params.seed)
    trace = Trace()
    tnames = [f"t{i}" for i in range(params.threads)]
    lnames = [f"l{i}" for i in range(params.locks)]
    vnames = [f"x{i}" for i in range(params.vars)]
    for name in tnames:
        trace.intern(THREADS, name)

    stacks: list[list[int]] = [[] for _ in range(params.threads)]
    holder: dict[int, int] = {}
    open_total = 0
    p_close = 0.4

    while len(trace.events) + (open_total if close_sections else 0) < params.events:
        t = rng.randrange(params.threads)
        st = stacks[t]
        if st and rng.random() < p_close:
            l = st.pop()
            del holder[l]
            open_total -= 1
            trace.add(tnames[t], RELEASE, lnames[l])
            continue
        budget_ok = len(trace.events) + open_total + 2 <= params.events or not close_sections
        if (params.locks and budget_ok and len(st) < params.max_nesting
                and rng.random() < params.p_lock):
            free = [l for l in range(params.locks) if l not in holder]
            if free:
                l = rng.choice(free)
                holder[l] = t
                st.append(l)
                open_total += 1
                trace.add(tnames[t], ACQUIRE, lnames[l])
                continue
        x = rng.randrange(params.vars)
        kind = WRITE if rng.random() < params.p_write else READ
        trace.add(tnames[t], kind, vnames[x])

    if close_sections:
        for t in range(params.threads):
            while stacks[t]:
                l = stacks[t].pop()
                del holder[l]
                trace.add(tnames[t], RELEASE, lnames[l])
    return trace


def iter_scaling(n_events: int, threads: int = 8, locks: int = 32) -> Iterator[tuple[int, int, int]]:
    """Steady-state (kind, tid, lock-or-var) stream for throughput runs.

    Threads take 6-event turns round-robin: acquire a lock from a
    per-thread rotation, touch the variable guarded by that lock, touch a
    private variable, release.  Shared variables are only accessed under
    their lock, so the stream is race-free; the lock rotations collide
    across threads, which keeps the per-lock logs draining.
    Variable indices: 0..locks-1 guarded, locks..locks+threads-1 private.
    """
    burst = []
    for turn in range(locks):
        for t in range(threads):
            # odd strides are coprime with a power-of-two lock count, so
            # every thread visits (and hence drains) every lock
            l = (turn * (2 * t + 1)) % locks
            g = l
            p = locks + t
            burst += [(ACQUIRE, t, l), (READ, t, g), (WRITE, t, g),
                      (READ, t, p), (WRITE, t, p), (RELEASE, t, l)]
    # One full burst keeps every thread's sections balanced; stream it
    # cyclically, cut at a section boundary, and pad to the exact count
    # with lockless reads of thread 0's private variable.
    whole = n_events // len(burst)
    chained = itertools.chain.from_iterable(itertools.repeat(burst, whole))
    yield from chained
    rest = n_events - whole * len(burst)
    cut = rest - rest % 6   # do not split a burst turn: sections stay balanced
    yield from burst[:cut]
    filler = (READ, 0, locks)
    for _ in range(rest - cut):
        yield filler
