"""Time one workload's set-up in a fresh interpreter, as a user's run pays it.

    python3 bench/probe_setup.py <workload> < pickled-inputs

``bench/run.py`` starts this with the workload's prepared inputs pickled on
standard input, so the benchmark's own input generation stays off the
clock.  Prints ``{"import": [...], "setup": [...]}``: the time to import
``beaverkit.cli``, and to then load, overlay and compose every machine the
workload uses, each as (wall, CPU, calibration wall, calibration CPU)
seconds as ``workloads.guarded`` records them.
"""

import importlib
import json
import pickle
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the path above)

WARM_UP = 50


def main(name: str) -> None:
    workload = workloads.WORKLOADS[name]
    inputs = pickle.load(sys.stdin.buffer)
    for _ in range(WARM_UP):  # a fresh interpreter runs new code slowly at first
        workloads.calibration()
    times = []
    for fn, arg in ((importlib.import_module, "beaverkit.cli"), (workload.setup, inputs)):
        if isinstance(workloads.guarded(times, fn, arg), Exception):
            sys.exit(1)
    print(json.dumps({"import": times[0], "setup": times[1]}))


if __name__ == "__main__":
    main(sys.argv[1])
