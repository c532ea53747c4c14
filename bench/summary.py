"""Summary statistics of a run, computed from the raw outcome of each op."""

from __future__ import annotations

import math
import statistics


def summarize(ops: list[list], program_s: float, rounds: int) -> dict:
    """``ops`` holds ``[latency_s, ok, est_error, eps, dlog, ...]`` per op; the
    latencies and ``program_s`` are in seconds of whichever clock the caller chose."""
    lat = sorted(op[0] for op in ops)
    passed = sum(1 for op in ops if op[1])
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) >= 2 else lat[0]

    def worst(values):
        finite = [v for v in values if math.isfinite(v)]
        return max(finite) if finite else 0.0

    return {
        "attempted": len(ops),
        "failed": len(ops) - passed,
        "rounds": rounds,
        "program_s": program_s,
        "ops_per_s": passed / program_s if program_s > 0 else 0.0,
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_p90_ms": 1e3 * p90,
        "op_samples": len(lat),
        "op_samples_above_p90": sum(1 for x in lat if x > p90),
        "est_error_max": worst(op[2] for op in ops),
        "dlog_max": worst(op[4] for op in ops),
        "est_over_eps_max": worst(op[2] / op[3] for op in ops),
    }
