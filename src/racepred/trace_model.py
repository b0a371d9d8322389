"""Trace model: events and the STD text format.

One event per line, fields separated by ``|``::

    <tid>|<op>|<operand>[|<loc>]

with op in {acq, rel, r, w, fork, join}.  ``#`` starts a comment line and
blank lines are ignored.  Thread/lock/variable ids match
``[A-Za-z0-9_.:$-]+`` and live in disjoint namespaces; the optional loc
field is an opaque program-location string (everything after the third
bar, so it may itself contain bars).

Ids are interned to dense integers at parse time so the engines index
arrays instead of hash tables on the hot path.  Parsing checks each line
alone; whether the trace as a whole is well formed (lock discipline,
fork/join) is decided by the engines' own checks, which validate (in
hb_engine) runs over a stream of events.  Input is UTF-8: open_trace
reads files and stdin alike, and parse_line names a line that is not.
"""

from __future__ import annotations

import io
import re
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator

READ, WRITE, ACQUIRE, RELEASE, FORK, JOIN = range(6)

KIND_TOKEN = {READ: "r", WRITE: "w", ACQUIRE: "acq", RELEASE: "rel", FORK: "fork", JOIN: "join"}
TOKEN_KIND = {tok: kind for kind, tok in KIND_TOKEN.items()}

_ID_RE = re.compile(r"[A-Za-z0-9_.:$-]+\Z")


class ParseError(Exception):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


@dataclass(slots=True)
class Event:
    """One trace record.  tid/op are dense interned indices; for fork/join
    the operand is the child thread's index."""

    idx: int
    tid: int
    kind: int
    op: int
    loc: str | None = None

    def loc_or_default(self) -> str:
        return self.loc if self.loc is not None else f"idx:{self.idx}"


class Trace:
    """An immutable event sequence plus the interning tables built with it."""

    def __init__(self, events, thread_names, lock_names, var_names):
        self.events: list[Event] = events
        self.thread_names: list[str] = thread_names
        self.lock_names: list[str] = lock_names
        self.var_names: list[str] = var_names

    @property
    def n_events(self) -> int:
        return len(self.events)

    @property
    def n_threads(self) -> int:
        return len(self.thread_names)

    @property
    def n_locks(self) -> int:
        return len(self.lock_names)

    @property
    def n_vars(self) -> int:
        return len(self.var_names)

    def loc(self, idx: int) -> str:
        return self.events[idx].loc_or_default()

    def operand_name(self, e: Event) -> str:
        if e.kind <= WRITE:
            return self.var_names[e.op]
        if e.kind <= RELEASE:
            return self.lock_names[e.op]
        return self.thread_names[e.op]

    def event_line(self, e: Event) -> str:
        line = f"{self.thread_names[e.tid]}|{KIND_TOKEN[e.kind]}|{self.operand_name(e)}"
        if e.loc is not None:
            line += f"|{e.loc}"
        return line

    def serialize(self) -> str:
        """STD text; parsing this back reproduces the trace byte-for-byte."""
        return "".join(self.event_line(e) + "\n" for e in self.events)


class TraceBuilder:
    """Interns names as they appear and numbers events; add() also keeps
    each event for build(), parse_line() does not."""

    def __init__(self) -> None:
        self.events: list[Event] = []
        self.n_events = 0
        self.thread_names: list[str] = []
        self.lock_names: list[str] = []
        self.var_names: list[str] = []
        self._threads: dict[str, int] = {}
        self._locks: dict[str, int] = {}
        self._vars: dict[str, int] = {}

    def intern_thread(self, name: str) -> int:
        i = self._threads.get(name)
        if i is None:
            i = len(self.thread_names)
            self._threads[name] = i
            self.thread_names.append(name)
        return i

    def intern_lock(self, name: str) -> int:
        i = self._locks.get(name)
        if i is None:
            i = len(self.lock_names)
            self._locks[name] = i
            self.lock_names.append(name)
        return i

    def intern_var(self, name: str) -> int:
        i = self._vars.get(name)
        if i is None:
            i = len(self.var_names)
            self._vars[name] = i
            self.var_names.append(name)
        return i

    def event(self, tid_name: str, kind: int, operand_name: str, loc: str | None = None) -> Event:
        """The next event, with its names interned; not kept."""
        t = self.intern_thread(tid_name)
        if kind <= WRITE:
            op = self.intern_var(operand_name)
        elif kind <= RELEASE:
            op = self.intern_lock(operand_name)
        else:
            op = self.intern_thread(operand_name)
        e = Event(self.n_events, t, kind, op, loc)
        self.n_events += 1
        return e

    def add(self, tid_name: str, kind: int, operand_name: str, loc: str | None = None) -> Event:
        e = self.event(tid_name, kind, operand_name, loc)
        self.events.append(e)
        return e

    def parse_line(self, line: str, line_no: int) -> Event | None:
        """Parse one input line into an event, not kept; returns None for
        comments/blank lines.  Bytes that are not UTF-8 arrive from
        open_trace as lone surrogates, and are an error on their line."""
        line = line.rstrip("\n")
        if not line.isascii():
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeError as bad:
                raise ParseError(line_no, f"not valid UTF-8 ({bad.reason})") from None
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            return None
        parts = line.split("|", 3)
        if len(parts) < 3:
            raise ParseError(line_no, f"expected tid|op|operand[|loc], got {len(parts)} field(s)")
        tid_name, op_tok, operand = parts[0], parts[1], parts[2]
        loc = parts[3] if len(parts) == 4 else None
        kind = TOKEN_KIND.get(op_tok)
        if kind is None:
            raise ParseError(line_no, f"unknown op token {op_tok!r}")
        if not operand:
            raise ParseError(line_no, "empty operand")
        if not _ID_RE.match(tid_name):
            raise ParseError(line_no, f"bad thread id {tid_name!r}")
        if not _ID_RE.match(operand):
            raise ParseError(line_no, f"bad operand id {operand!r}")
        return self.event(tid_name, kind, operand, loc)

    def build(self) -> Trace:
        return Trace(self.events, self.thread_names, self.lock_names, self.var_names)


def parse_trace(lines: Iterable[str]) -> Trace:
    b = TraceBuilder()
    b.events.extend(iter_parse(lines, b))
    return b.build()


def iter_parse(lines: Iterable[str], builder: TraceBuilder) -> Iterator[Event]:
    """Streaming parse: yields events one by one while growing builder's
    tables; neither keeps the events."""
    for line_no, line in enumerate(lines, 1):
        e = builder.parse_line(line, line_no)
        if e is not None:
            yield e


def open_trace(path: str):
    """The input at path, or stdin for "-", as text with universal
    newlines; parse_line rejects the lines that are not UTF-8."""
    if path == "-":
        return io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8", errors="surrogateescape")
    return open(path, "r", encoding="utf-8", errors="surrogateescape")


def load_trace(path: str) -> Trace:
    with open_trace(path) as f:
        return parse_trace(f)


def conflicting(e1: Event, e2: Event) -> bool:
    """Same variable, at least one write, different threads."""
    return (
        e1.kind <= WRITE
        and e2.kind <= WRITE
        and e1.op == e2.op
        and e1.tid != e2.tid
        and (e1.kind == WRITE or e2.kind == WRITE)
    )
