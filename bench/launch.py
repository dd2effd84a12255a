"""Run one benchmark child and record the peak resident set of its own process.

Usage: python bench/launch.py PEAK_FILE vcn ARGS...      (as ``python -m vcn ARGS``)
       python bench/launch.py PEAK_FILE driver ARGS...   (as ``python bench/driver.py ARGS``)

At exit, also on an exception or ``SystemExit``, PEAK_FILE receives the
process's peak resident set in KiB: ``VmHWM`` of ``/proc/self/status``.
The parent's rusage cannot give it: on Linux a child's ``ru_maxrss``
starts from the peak of the address space it replaced at ``exec``, which
after a ``vfork`` is the benchmark harness's own.  Where ``/proc`` is
missing, ``ru_maxrss`` of this process is written instead.
"""

from __future__ import annotations

import resource
import runpy
import sys
from pathlib import Path


def peak_rss_kib() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    peak_file, target, *args = sys.argv[1:]
    try:
        if target == "vcn":
            sys.argv = ["vcn", *args]
            runpy.run_module("vcn", run_name="__main__", alter_sys=True)
        else:
            driver = Path(__file__).resolve().parent / "driver.py"
            sys.argv = [str(driver), *args]
            runpy.run_path(str(driver), run_name="__main__")
    finally:
        Path(peak_file).write_text(f"{peak_rss_kib()}\n", encoding="ascii")


if __name__ == "__main__":
    main()
