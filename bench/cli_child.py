"""Run the gtmprod command line in this process and record its own peak memory.

Usage: python3 bench/cli_child.py PEAK_FILE SPANS_FILE [gtmprod arguments ...]

PEAK_FILE receives this process's ``VmHWM`` in kB: the peak of this
process alone, whereas ``ru_maxrss`` would also count what the parent held
when it forked.  Unless SPANS_FILE is ``-``, the benchmark's spans are
installed first and written there at exit.  The exit code is the
command's.
"""

import sys
from pathlib import Path

import gtmprod.cli


def peak_kb() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def main() -> int:
    peak_path, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    recorder = None
    if spans_path != "-":
        from tracing import Recorder

        recorder = Recorder()
        recorder.install()
    try:
        return gtmprod.cli.main(argv)
    finally:
        if recorder is not None:
            recorder.write(spans_path)
        Path(peak_path).write_text(f"{peak_kb()}\n")


if __name__ == "__main__":
    sys.exit(main())
