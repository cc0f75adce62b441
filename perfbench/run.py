"""Benchmark entry point.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 50 --trace 0

Run from the root of a checkout.  Prints one environment record line,
then, as the last line, one JSON object: ``correct``, ``attempted``
(requests), ``failed`` (requests that raised, were refused or returned
an answer that differs from the reference) and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _metric_units(section: str) -> Dict[str, str]:
    """Metric name -> unit, in ``BENCHMARK.json`` order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; "
              f"run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, work, workloads)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path, workloads) -> int:
    from common import host_probe, steal_ticks
    from procs import DISPATCH_ENV

    probe_before = host_probe()
    workload = workloads.WORKLOADS[args.workload](ROOT, work, args.seed)
    steal_before = steal_ticks()
    plain, traced = workloads.run(workload, args.seconds, bool(args.trace))
    steal = steal_ticks() - steal_before
    probe_after = host_probe()
    units = plain + traced
    attempted = sum(u.requests for u in units)
    failed = sum(u.failed for u in units)
    survivors = sorted({p for u in units for p in u.survivors})
    # Counts of a unit depend only on the seed; untraced and traced
    # units run the same work, so every unit must agree.
    full = [u for u in units if u.full]
    counts_repeat = all(u.counts == full[0].counts for u in full)
    if not counts_repeat:
        print(f"perfbench: unit counts differ: "
              f"{[u.counts for u in full]}", file=sys.stderr)

    import numpy

    env = {
        "env": {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "commit": _commit(), "source_sha256": _source_digest(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            # Servers do not report their dispatch table; they run in
            # an environment scrubbed of everything that changes it.
            "dispatch": "auto, shipped thresholds",
            "dispatch_env_removed": [k for k in DISPATCH_ENV
                                     if k in os.environ],
            "calibration": "REPRO_CALIBRATION pinned to an absent file",
            "host_probe_s": {"before": probe_before, "after": probe_after},
            "steal_ticks": steal,
            "units": {"untraced": len(plain), "traced": len(traced),
                      "start_only": len(units) - len(full)},
            "latency_samples": sum(len(u.latency_ms) for u in plain),
            # Requests behind request_p50_ms / request_p95_ms.
            "profile_requests": len(full[0].latency_ms),
            "per_unit": {
                "setup_s": [round(u.setup_s, 4) for u in units],
                "first_request_ms": [round(u.first_ms, 2) for u in units],
                "throughput_qps": [round(u.qps, 1) for u in units],
            },
            "counts": full[0].counts, "counts_repeat": counts_repeat,
            "leaked_pids": survivors,
        }
    }
    print(json.dumps(env, default=str))

    if args.trace:
        units_of = _metric_units("per_layer")
        values = {name: 0.0 for name in units_of}
        for name in units_of:
            samples = [u.layers[name] for u in traced if name in u.layers]
            if samples:
                values[name] = workloads.median(samples)
        untraced_qps = workloads.median([u.qps for u in plain if u.full])
        traced_qps = workloads.median([u.qps for u in traced])
        values["obs.tracing_overhead"] = (
            traced_qps / untraced_qps if untraced_qps else 0.0)
    else:
        units_of = _metric_units("end_to_end")
        values = workloads.summarize(plain)
        values["ok_ratio"] = 1.0 - failed / attempted if attempted else 0.0
    print(json.dumps({
        "correct": (failed == 0 and not survivors
                    and (counts_repeat or not workload.deterministic)),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units_of[name]}
                    for name in units_of},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
