"""Determinism self-test: the same seed gives the same per-layer counts.

Runs ``serve-hot`` at a small size twice with the same seed (inputs
rebuilt, program started fresh every time), and asserts that every
count the program reports — ``CacheInfo``, answer provenance,
coalescer counters — matches exactly and that every answer matched
the reference.  Counts are the steadiest evidence a later change can
cite, so they must repeat.

    python3 perfbench/check_determinism.py
    python3 -m pytest perfbench/check_determinism.py
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402

SEED = 5


def _counts_twice(cls, **sizes):
    saved = {name: getattr(workloads, name) for name in sizes}
    work = ROOT / ".perfbench" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name, value in sizes.items():
            setattr(workloads, name, value)
        results = []
        for _ in range(2):
            unit = cls(ROOT, work, SEED).unit(False)
            assert unit.failed == 0, f"{unit.failed} wrong answers"
            assert not unit.survivors, f"leaked {unit.survivors}"
            counted = {k: v for k, v in unit.layers.items()
                       if not k.endswith("_ms")}
            results.append((unit.counts, counted))
        return results
    finally:
        for name, value in saved.items():
            setattr(workloads, name, value)
        shutil.rmtree(work, ignore_errors=True)


def test_serve_hot_counts_repeat():
    first, second = _counts_twice(workloads.ServeHot, HOT_REQUESTS=40)
    assert first == second
    # Every timed answer of the warmed working set comes from cache.
    assert first[0]["provenance"] == {"cache": 40 * 8 * 4}


if __name__ == "__main__":
    test_serve_hot_counts_repeat()
    print("determinism self-test: ok")
