"""Set-up probe: time from a fresh interpreter to a ready workload.

    python3 benchmarks/setup_probe.py <workload>

Imports whirly_lab from the checkout's ``src/``, builds the workload's sets and
calls, and prints ``time.monotonic()`` and this process's CPU time at that
moment.  ``run.py`` reads the same system-wide clock just before it starts
this script, so both cover interpreter start, ``import whirly_lab`` and set
construction, up to the first timed call.
"""

import sys
import time
from pathlib import Path


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    workloads.build(sys.argv[1])
    print(repr(time.monotonic()), repr(time.process_time()))


if __name__ == "__main__":
    main()
