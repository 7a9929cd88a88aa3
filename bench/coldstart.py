"""Cold start of one workload in a fresh interpreter: ``python -m bench.coldstart NAME SEED [--run]``.

Imports the simulator, generates the workload's input instances for the seed
and builds one call's simulators per instance, then prints one JSON line
holding the wall-clock time at which that set-up finished; the parent
subtracts its own launch time.  With ``--run`` the process then runs instance
0 once and also reports its peak resident set size.

The peak is the kernel's ``VmHWM`` for this process image (Linux).
``getrusage`` is not used: its ``ru_maxrss`` survives ``exec`` and would
report the parent's size at launch.
"""

import json
import sys
import time
from pathlib import Path


def peak_rss_mib() -> float:
    """High-water resident set size of this process image, in MiB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("/proc/self/status has no VmHWM line")


def main(argv: list[str]) -> None:
    """Set up (and optionally run) one workload, then print the JSON report."""
    name, seed = argv[0], int(argv[1])
    from .workloads import WORKLOADS

    workload = WORKLOADS[name]
    calls = [workload.phases(inputs) for inputs in workload.instances(seed)]
    report = {"setup_done": time.time()}
    if "--run" in argv[2:]:
        for phase in calls[0]:
            phase.run()
        report["peak_rss_mib"] = peak_rss_mib()
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])
