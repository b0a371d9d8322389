"""Trace model: events and the STD text format.

One event per line, fields separated by ``|``::

    <tid>|<op>|<operand>[|<loc>]

with op in {acq, rel, r, w, fork, join}.  ``#`` starts a comment line and
blank lines are ignored.  Thread/lock/variable ids match
``[A-Za-z0-9_.:$-]+`` and live in disjoint namespaces; the optional loc
field is an opaque program-location string (everything after the third
bar, so it may itself contain bars).

Ids are interned to dense integers at parse time so the engines index
arrays instead of hash tables on the hot path; a name is checked against
the id syntax once, when it is first interned.  One Trace holds the
tables, the event count and, when add() makes them, the events: a
streaming parse (iter_parse) grows the tables and count but keeps no
events.  Parsing checks each line alone; whether the trace as a whole is
well formed (lock discipline, fork/join) is decided by the engines' own
checks, which validate (in hb_engine) runs over a stream of events.
Input is UTF-8: open_trace reads files and stdin alike, and parse_line
names a line that is not.

A trace repeats few (thread, op, operand) triples over many lines, so
iter_parse caches the ids that parse_line interned for each triple, keyed
by the line's text before its loc field: up to the third bar, or the
whole line when it has no loc.  A later ASCII line with a cached key
becomes an event from the cached ids.  Every other line, and the first
of each key, goes through parse_line, which makes every ParseError.  The
cache lives for one iter_parse call and holds one entry per distinct key.
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

THREADS, LOCKS, VARS = range(3)     # name tables
_OPERAND_TABLE = (VARS, VARS, LOCKS, LOCKS, THREADS, THREADS)   # by event kind

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
    """Events, the name tables interned with them, and n_events, the count
    of every event made.  add() keeps the event it makes; event() and
    parse_line() do not, so a streaming parse keeps no events while its
    tables and count still grow."""

    def __init__(self) -> None:
        self.events: list[Event] = []
        self.n_events = 0
        self.thread_names: list[str] = []
        self.lock_names: list[str] = []
        self.var_names: list[str] = []
        self._names = (self.thread_names, self.lock_names, self.var_names)
        self._ids: tuple[dict[str, int], ...] = ({}, {}, {})

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
        return self._names[_OPERAND_TABLE[e.kind]][e.op]

    def event_line(self, e: Event) -> str:
        line = f"{self.thread_names[e.tid]}|{KIND_TOKEN[e.kind]}|{self.operand_name(e)}"
        if e.loc is not None:
            line += f"|{e.loc}"
        return line

    def serialize(self) -> str:
        """STD text; parsing this back reproduces the trace byte-for-byte."""
        return "".join(self.event_line(e) + "\n" for e in self.events)

    def intern(self, table: int, name: str, line_no: int = 0, field: str = "operand") -> int:
        """name's dense index in table (THREADS, LOCKS or VARS), added when
        first seen.  A name read from input line line_no is checked then,
        and only then; names from generators (line_no 0) are not."""
        ids = self._ids[table]
        i = ids.get(name)
        if i is None:
            if line_no and not _ID_RE.match(name):
                raise ParseError(line_no, f"bad {field} id {name!r}")
            names = self._names[table]
            i = ids[name] = len(names)
            names.append(name)
        return i

    def event(self, tid_name: str, kind: int, operand_name: str, loc: str | None = None,
              line_no: int = 0) -> Event:
        """The next event, with its names interned; not kept."""
        t = self.intern(THREADS, tid_name, line_no, "thread")
        op = self.intern(_OPERAND_TABLE[kind], operand_name, line_no)
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
        return self.event(tid_name, kind, operand, loc, line_no)


def parse_trace(lines: Iterable[str]) -> Trace:
    trace = Trace()
    trace.events.extend(iter_parse(lines, trace))
    return trace


def iter_parse(lines: Iterable[str], trace: Trace) -> Iterator[Event]:
    """Streaming parse: yields events one by one while growing trace's
    tables and count; neither keeps the events.  Lines repeating a parsed
    (thread, op, operand) are served from a cache (see the module docstring)."""
    known: dict[str, tuple[int, int, int]] = {}    # text before the loc -> (tid, kind, op)
    parse_line = trace.parse_line
    for line_no, line in enumerate(lines, 1):
        parts = line.split("|", 3)
        n = len(parts)
        if n >= 3 and line.isascii():
            if n == 4:
                loc = parts[3]
                key = line[:len(line) - len(loc)]
                loc = loc.rstrip("\n")
            else:
                key, loc = line, None
            ids = known.get(key)
            if ids is not None:
                idx = trace.n_events
                trace.n_events = idx + 1
                t, kind, op = ids
                yield Event(idx, t, kind, op, loc)
                continue
        else:
            key = None
        e = parse_line(line, line_no)
        if e is not None:
            if key is not None:
                known[key] = (e.tid, e.kind, e.op)
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
