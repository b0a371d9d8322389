"""Baseline happens-before race detector: the WCP engine's HB clock alone.

The WCP engine keeps Lamport's HB clock H for every thread, so this engine
subclasses it and keeps only that clock.  It inherits thread and lock
growth, the granule tick, fork/join, the lock-discipline checks with
re-entrancy flattening, process and the invariant checks.  An acquire
joins the lock's last release clock, a release stores the thread clock
there, and reads and writes join nothing.  No section log is kept, so
max_queue_load stays 0; pred stays all zeros.

Timestamps equal the WCP engine's hbt at every event, which lets
--detector both race-check hbt without an HbEngine.  They are epochs: a
thread exports its clock only at the end of a granule (a release, a fork,
or being joined), so a clock that knows u's local time n is HB-after
every event of u with local time n.
"""

from __future__ import annotations

from .trace_model import ACQUIRE, FORK, JOIN, READ, RELEASE, WRITE
from .vclock import join_into
from .wcp_engine import WcpEngine


class HbEngine(WcpEngine):
    detector = "hb"

    def _snap(self, t: int) -> tuple[int, ...]:
        return tuple(self.hbt[t])

    def acquire(self, t: int, l: int) -> tuple[int, ...]:
        if self._enter(t, l):
            hl = self.lock_hb[l]
            if hl is not None:
                join_into(self.hbt[t], hl)
            self.frames[t].append((l,))     # no section log, no access sets
        return tuple(self.hbt[t])

    def release(self, t: int, l: int) -> tuple[int, ...]:
        frame = self._leave(t, l)
        snap = tuple(self.hbt[t])
        if frame is not None:
            self.lock_hb[l] = snap
        return snap

    def read(self, t: int, x: int) -> tuple[int, ...]:
        self._ensure_thread(t)
        self._tick(t)
        return tuple(self.hbt[t])

    write = read

    _DISPATCH = {READ: read, WRITE: write, ACQUIRE: acquire, RELEASE: release,
                 FORK: WcpEngine.fork, JOIN: WcpEngine.join}
    # bound here as well, so that replacing WcpEngine.process (as a
    # per-class profiling wrapper does) leaves this class's calls apart
    process = WcpEngine.process
