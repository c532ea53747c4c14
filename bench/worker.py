"""One workload in one fresh process: set up, measure, write a JSON summary.

Started by run.py; not meant to be run by hand.  ``--mode setup`` stops
after set-up, ``timed`` measures for ``--seconds`` with no spans, and
``traced`` measures with spans and reduces them to per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import numpy

import tracing
from calibrate import Probes
from summary import summarize
from workloads import WORKLOADS, children_cpu_s

IMPORT_SAMPLES = 3


def measure(workload, seconds: float, max_ops: int | None) -> dict:
    """Run whole rounds until ``seconds`` have passed (or ``max_ops`` ran).

    Returns the outcome of every op, its time scaled by its round's
    calibration (``calibrate.py``) to the workload's ``scale_power`` and,
    last, its CPU time as measured; ``summary.summarize`` reduces them.
    """
    ops: list[list] = []
    spent = cpu_spent = 0.0
    probe_ms = []
    rounds = 0
    start = time.monotonic()
    while True:
        limit = workload.ops_per_round if max_ops is None else max_ops - len(ops)
        workload.probes = Probes()
        outs, secs = workload.run_round(limit)
        scale = workload.probes.scale() ** workload.scale_power
        probe_ms.append(1e3 * statistics.median(workload.probes.samples or [math.nan]))
        ops += [[o.latency_s * scale, o.ok, o.est_error, o.eps, o.dlog, o.latency_s,
                 o.reason] for o in outs]
        spent += secs * scale
        cpu_spent += secs
        rounds += 1
        if time.monotonic() - start >= seconds:
            break
        if max_ops is not None and len(ops) >= max_ops:
            break
    return {
        "ops": [op[:6] for op in ops],
        "program_s": spent,
        "program_cpu_s": cpu_spent,
        "probe_ms": probe_ms,
        "rounds": rounds,
        "failures": [op[6] for op in ops if not op[1]][:5],
    }


def import_seconds(root: Path, env: dict) -> float:
    """Median CPU time of a child that only imports gtmprod."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        before = children_cpu_s()
        subprocess.run([sys.executable, "-c", "import gtmprod"], env=env, cwd=root, check=True,
                       timeout=60)
        samples.append(children_cpu_s() - before)
    return statistics.median(samples)


def traced_run(workload, seconds: float, max_ops: int | None) -> dict:
    recorder = tracing.Recorder()
    recorder.install()
    workload.traced = True
    raw = measure(workload, seconds, max_ops)
    traced = summarize(raw["ops"], raw["program_s"], raw["rounds"])
    totals = tracing.Totals()
    totals.add(recorder.spans)
    span_files = getattr(workload, "span_files", [])
    for path in span_files:
        if path.exists():  # a child that crashed wrote none; its op already failed
            totals.add(json.loads(path.read_text()))
    layers = tracing.layer_metrics(totals, traced["rounds"], traced["attempted"])
    layers.update({
        "evaluator.est_error_max": traced["est_error_max"],
        "evaluator.dlog_max": traced["dlog_max"],
        "evaluator.est_over_eps_max": traced["est_over_eps_max"],
        "cli.import_s": 0.0, "cli.main_s": 0.0, "cli.spawn_s": 0.0,
        "dirichlet.cache_file_bytes": 0.0,
    })
    if span_files:
        imp = import_seconds(workload.root, workload.env)
        main_s = totals.seconds("cli.main") / len(span_files)
        op_s = traced["program_s"] / traced["attempted"]
        layers.update({"cli.import_s": imp, "cli.main_s": main_s,
                       "cli.spawn_s": op_s - imp - main_s})
    cache_file = getattr(workload, "cache_file", None)
    if cache_file is not None and cache_file.exists():
        layers["dirichlet.cache_file_bytes"] = float(cache_file.stat().st_size)
    raw["layers"] = layers
    return raw


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    p.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    p.add_argument("--tmp", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--max-ops", type=int, default=None)
    p.add_argument("--corrupt", action="store_true")
    args = p.parse_args()

    root = Path.cwd().resolve()
    workload = WORKLOADS[args.workload](root, args.seed, args.tmp, args.corrupt)
    workload.setup()
    # CPU time of this process and its children so far: interpreter start, imports, inputs
    # and warm-up, without the time a shared host gave to others
    usage = resource.getrusage(resource.RUSAGE_SELF)
    setup_cpu_s = usage.ru_utime + usage.ru_stime + children_cpu_s()
    wall_s = time.monotonic() - args.t0
    probes = Probes()
    probes.after(setup_cpu_s)
    result = {"setup_s": setup_cpu_s * probes.scale(), "setup_cpu_s": setup_cpu_s,
              "setup_wall_s": wall_s}
    gtmprod = sys.modules.get("gtmprod")
    if gtmprod is not None and not Path(gtmprod.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"gtmprod was imported from {gtmprod.__file__}, not from src/")
    if args.mode == "timed":
        result.update(measure(workload, args.seconds, args.max_ops))
    elif args.mode == "traced":
        result.update(traced_run(workload, args.seconds, args.max_ops))
    result["peak_rss_mb"] = getattr(workload, "child_peak_mb", None) \
        or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                          "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND}
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
