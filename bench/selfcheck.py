"""Fast self-check of the benchmark harness (about a minute).

Run from the repository root:  python3 bench/selfcheck.py

For every workload it runs ``bench/run.py`` with a few ops, untraced and
traced, and checks that the last line carries every metric of
``BENCHMARK.json`` with its unit and that no op failed.  It then runs each
workload with the first expected value deliberately wrong and checks that
the op counts as failed and the exit code is 1.  Last, it checks that the
benchmark refuses to run, without printing a result, in a directory that
holds only ``BENCHMARK.json`` and ``bench/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import BENCH_DIR, WORKLOAD_NAMES

MAX_OPS = 3


def bench(cwd: Path, *args: str) -> tuple[int, dict | None]:
    proc = subprocess.run([sys.executable, "bench/run.py", "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def main() -> int:
    root = Path.cwd().resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    for name in WORKLOAD_NAMES:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            code, out = bench(root, "--workload", name, "--seed", "7", "--trace", trace,
                              "--max-ops", str(MAX_OPS))
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v.get("unit") for k, v in (out or {}).get("metrics", {}).items()}
            if code != 0 or not out or not out["correct"] or out["failed"]:
                problems.append(f"{name} trace {trace}: exit {code}, result {out}")
            elif got != want:
                problems.append(f"{name} trace {trace}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}")
        code, out = bench(root, "--workload", name, "--seed", "7", "--max-ops", "1", "--corrupt")
        if code != 1 or not out or out["correct"] or out["failed"] != 1:
            problems.append(f"{name}: a wrong expected value was not counted as failed "
                            f"(exit {code}, result {out})")
        print(f"selfcheck: {name} done", flush=True)

    (root / ".bench_tmp").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=root / ".bench_tmp"))
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        code, out = bench(bare, "--workload", WORKLOAD_NAMES[0])
        if code == 0 or out is not None:
            problems.append(f"without src/ the benchmark exited {code} with result {out}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass

    for p in problems:
        print(f"selfcheck: FAIL {p}")
    print(f"selfcheck: {'ok' if not problems else f'{len(problems)} problem(s)'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
