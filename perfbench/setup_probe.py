"""Set-up probe: import the library, build every scene of one workload, say ``ready``.

``run.py`` starts this as a fresh process and times it from launch to the
``ready`` line, which is the workload's ``setup_s``.

    python3 perfbench/setup_probe.py greedy-nb
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    WORKLOADS[sys.argv[1]]().set_up()
    print("ready", flush=True)
