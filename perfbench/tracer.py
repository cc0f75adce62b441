"""Reduce the program's ``repro.obs`` span records to self time.

Program processes that run with ``repro.obs`` recording on return span
records; :func:`self_times` reduces them by parent link.  A layer's
self time is its spans' time minus the part their child spans cover.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, List


def _covered(intervals: List[List[float]]) -> float:
    """Length of the union of ``[start, end]`` intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(records: Iterable[Dict[str, Any]]
               ) -> Dict[str, Dict[str, float]]:
    """Per span name: ``count``, total ``dur_s`` and ``self_s``.

    A span's self time is its duration minus the part of it that its
    child spans cover (children clipped to the parent's interval).
    """
    spans = {r["span_id"]: r for r in records if r.get("kind") == "span"}
    children: Dict[str, List[List[float]]] = defaultdict(list)
    for r in spans.values():
        parent = spans.get(r.get("parent_id"))
        if parent is not None:
            lo = max(r["start"], parent["start"])
            hi = min(r["end"], parent["end"])
            if hi > lo:
                children[parent["span_id"]].append([lo, hi])
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"count": 0, "dur_s": 0.0, "self_s": 0.0})
    for sid, r in spans.items():
        dur = r["end"] - r["start"]
        row = out[r["name"]]
        row["count"] += 1
        row["dur_s"] += dur
        row["self_s"] += dur - _covered(children.get(sid, []))
    return dict(out)
