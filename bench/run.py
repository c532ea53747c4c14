"""gtmprod benchmark: certified-op throughput and latency on four workloads.

Run from the repository root:

    python3 bench/run.py --workload catalog_cold --seed 1 --seconds 25 --trace 0
    python3 bench/run.py                 # every workload, seed 1, one after another

Each workload runs in fresh worker processes (``bench/worker.py``) against
the package in ``src/``, with ``GTMPROD_CACHE_DIR`` and ``GTMPROD_CONFIG``
inside a temporary directory under ``.bench_tmp/``.

With ``--trace 0`` the last line of output is a JSON object whose metrics
are the end-to-end metrics of ``BENCHMARK.json``.  ``--trace 1`` gives the
per-layer metrics instead: half the time is measured as usual, the other
half in a worker that wraps gtmprod's functions in spans, and
``trace.overhead_ops_per_s`` is the traced ``ref_ops_per_s`` minus the
untraced one.  The line before the last holds the run's metadata
(versions, load average, steal, the CPU times as measured before scaling,
the 90th percentile, accuracy, failures), which is recorded but not gated.  With every workload, each has its own metadata
line and the last line holds all metrics as ``<workload>.<metric>``.  The
exit code is 1 if any op failed and 2 if the benchmark could not run.

``catalog_cold`` and ``family_batch`` run one round per worker process and
start workers until ``--seconds`` have passed; the other workloads measure
for ``--seconds`` in one worker.  ``setup_s`` is the
median over ``SETUP_SAMPLES`` worker processes of the CPU time each spent
before its first op would start.

Times are CPU seconds scaled to a reference core (``calibrate.py``); the
``ref_`` in a metric's name says so.  ``oracle_crosscheck`` is scaled by
the square root of the factor (see ``workloads.py``).
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
from summary import summarize

SETUP_SAMPLES = 3
WORKER_GRACE_S = 120
# a fresh process per round: speed differs from process to process on a shared
# machine, and only a pass in a fresh process is what `gtmprod verify` costs
ONE_ROUND_PER_PROCESS = ("catalog_cold", "family_batch")
CPU_PROBE_SAMPLES = 9
WORKLOAD_NAMES = ("catalog_cold", "family_batch", "oracle_crosscheck", "cli_session")
BENCH_DIR = Path(__file__).resolve().parent


def run_worker(root: Path, tmp: Path, env: dict, args, mode: str, tag: str,
               seconds: float) -> dict:
    out = tmp / f"{tag}.json"
    work = tmp / tag
    work.mkdir()
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--mode", mode,
           "--tmp", str(work), "--out", str(out)]
    if args.max_ops is not None:
        cmd += ["--max-ops", str(args.max_ops)]
    if args.corrupt:
        cmd.append("--corrupt")
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        proc.wait(timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"{mode} worker for {args.workload} timed out") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray grandchildren, if any
        except ProcessLookupError:
            pass
    if proc.returncode != 0 or not out.exists():
        raise RuntimeError(f"{mode} worker for {args.workload} exited {proc.returncode}")
    return json.loads(out.read_text())


def source_facts(root: Path) -> dict:
    """Identity and size of the code under test (ROADMAP aim 2 tracks the lines)."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            data = path.read_bytes()
            digest.update(str(path.relative_to(root)).encode() + b"\0" + data)
            if path.suffix == ".py":
                lines += data.count(b"\n")
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest(), "src_py_lines": lines}


def measuring_workers(root: Path, tmp: Path, env: dict, args, mode: str,
                      seconds: float) -> list[dict]:
    if args.workload not in ONE_ROUND_PER_PROCESS:
        return [run_worker(root, tmp, env, args, mode, f"{mode}0", seconds)]
    runs = []
    start = time.monotonic()
    while not runs or time.monotonic() - start < seconds:
        runs.append(run_worker(root, tmp, env, args, mode, f"{mode}{len(runs)}", 0))
    return runs


def pooled(runs: list[dict]) -> dict:
    """Summary in scaled seconds, with the CPU-time figures as measured beside it."""
    ops = [op for r in runs for op in r["ops"]]
    rounds = sum(r["rounds"] for r in runs)
    result = summarize(ops, sum(r["program_s"] for r in runs), rounds)
    cpu = summarize([[op[5], *op[1:5]] for op in ops], sum(r["program_cpu_s"] for r in runs),
                    rounds)
    for k in ("ops_per_s", "op_p50_ms", "op_p90_ms"):
        result[f"ref_{k}"], result[f"cpu_{k}"] = result.pop(k), cpu[k]
    result["probe_ms_median"] = statistics.median(x for r in runs for x in r["probe_ms"])
    return result


def cpu_probe_ms() -> float:
    """Median time of the calibration loop: how fast the machine is now."""
    return 1e3 * statistics.median(calibrate.probe_s() for _ in range(CPU_PROBE_SAMPLES))


def cpu_stat() -> list[int]:
    """The machine's CPU time counters (``cpu`` line of /proc/stat), or none."""
    try:
        return [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return []


def steal_share(start: list[int], end: list[int]) -> float | None:
    """Share of the machine's CPU time the host gave to others in between."""
    if len(start) < 8 or len(end) < 8:
        return None
    total = sum(end) - sum(start)
    return (end[7] - start[7]) / total if total > 0 else None


def run_workload(root: Path, spec: dict, args) -> tuple[dict, dict, dict]:
    """Returns (metrics, counts, metadata) for one workload."""
    (root / ".bench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / ".bench_tmp"))
    # one thread per process: idle BLAS threads spin, which costs CPU time and a core
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               GTMPROD_CACHE_DIR=str(tmp / "cache"), GTMPROD_CONFIG=str(tmp / "config.json"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    load_start, probe_start, stat_start = os.getloadavg(), cpu_probe_ms(), cpu_stat()
    try:
        if args.trace:
            untraced = pooled(measuring_workers(root, tmp, env, args, "timed", args.seconds / 2))
            seconds = 0 if args.workload in ONE_ROUND_PER_PROCESS else args.seconds / 2
            runs = [run_worker(root, tmp, env, args, "traced", "traced", seconds)]
            setup_runs = runs
            names = spec["per_layer"]
        else:
            runs = measuring_workers(root, tmp, env, args, "timed", args.seconds)
            setup_runs = runs + [run_worker(root, tmp, env, args, "setup", f"setup{i}", 0)
                                 for i in range(len(runs), SETUP_SAMPLES)]
            names = spec["end_to_end"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()  # only if no other run is using it
        except OSError:
            pass
    result = pooled(runs)
    if args.trace:
        values = dict(runs[0]["layers"], **{
            "trace.rounds": result["rounds"],
            "trace.ops_per_s_untraced": untraced["ref_ops_per_s"],
            "trace.ops_per_s_traced": result["ref_ops_per_s"],
            "trace.overhead_ops_per_s": result["ref_ops_per_s"] - untraced["ref_ops_per_s"],
        })
    else:
        values = {k: result[k] for k in ("ref_ops_per_s", "ref_op_p50_ms")}
        values["peak_rss_mb"] = max(r["peak_rss_mb"] for r in runs)
        values["setup_s"] = statistics.median(r["setup_s"] for r in setup_runs)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "cpu_probe_ms_start": probe_start, "cpu_probe_ms_end": cpu_probe_ms(),
        "steal_frac": steal_share(stat_start, cpu_stat()),
        **runs[0]["versions"], **source_facts(root),
        "fail_frac": result["failed"] / result["attempted"],
        "setup_samples_s": [r["setup_s"] for r in setup_runs],
        "setup_cpu_samples_s": [r["setup_cpu_s"] for r in setup_runs],
        "setup_wall_samples_s": [r["setup_wall_s"] for r in setup_runs],
        "worker_processes": len(runs),
        **{k: v for k, v in result.items() if k not in values},
        "failures": [f for r in runs for f in r["failures"]][:5],
    }
    counts = {"attempted": result["attempted"], "failed": result["failed"]}
    return metrics, counts, meta


def main() -> int:
    root = Path.cwd().resolve()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--max-ops", type=int, default=None,
                   help="stop after this many ops (harness self-check only)")
    p.add_argument("--corrupt", action="store_true",
                   help="make the first expected value wrong (harness self-check only)")
    args = p.parse_args()

    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "gtmprod" / "__init__.py").is_file() or not spec_path.is_file():
        print("bench: run from the repository root (needs src/gtmprod and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    for tree in (root / "src", BENCH_DIR):  # byte-compile untimed, so no worker pays for it
        compileall.compile_dir(str(tree), quiet=1)

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    all_metrics, attempted, failed = {}, 0, 0
    for name in names:
        args.workload = name
        try:
            metrics, counts, meta = run_workload(root, spec, args)
        except RuntimeError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
        attempted += counts["attempted"]
        failed += counts["failed"]
        for key, m in metrics.items():
            print(f"{name:<18} {key:<38} {m['value']:>14.6g} {m['unit']}")
        print(json.dumps({"meta": meta}))
        if len(names) == 1:
            all_metrics = metrics
        else:
            all_metrics.update({f"{name}.{k}": v for k, v in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": all_metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
