"""Vector times: per-thread counters with pointwise order and join.

A vector time maps dense thread indices to non-negative counters.  Widths
grow as threads appear, so every operation treats absent components as 0
(the bottom element extends silently), and two vector times are equal
when they agree once trailing zeros are dropped.

The engines keep their clocks as plain lists of ints (tuples for
snapshots) and use the sequence-level helpers below on the hot path.
"""

from __future__ import annotations

from typing import Sequence

def leq(a: Sequence[int], b: Sequence[int]) -> bool:
    """Pointwise <= over the union of widths."""
    la, lb = len(a), len(b)
    if la <= lb:
        for i in range(la):
            if a[i] > b[i]:
                return False
        return True
    for i in range(lb):
        if a[i] > b[i]:
            return False
    for i in range(lb, la):
        if a[i]:
            return False
    return True


def join_into(dst: list[int], src: Sequence[int]) -> None:
    """In-place pointwise max; dst grows if src is wider."""
    n = len(dst)
    m = len(src)
    if m > n:
        dst.extend(src[n:])
        m = n
    for i in range(m):
        v = src[i]
        if v > dst[i]:
            dst[i] = v


def render(v: Sequence[int]) -> str:
    """Debug rendering used in reports and dumps: ``[n0,n1,...]``."""
    return "[" + ",".join(str(x) for x in v) + "]"
