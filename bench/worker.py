"""One repetition of one workload, in a fresh interpreter.

    python3 bench/worker.py WORKLOAD MC_SEED OUT_DIR DATA_DIR TRACE

Program outputs go to OUT_DIR; the benchmark's own files (saved arrays, the
span dump) go to DATA_DIR, after the timed phase.  The last stdout line is a
JSON object: the CLOCK_MONOTONIC time at which set-up finished, the timed
phase's wall time, peak RSS and the status of each step.  wigpath must be
importable (run.py puts the checkout's ``src`` on PYTHONPATH).
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time
from pathlib import Path

import workloads


def main(argv: list[str]) -> int:
    name, seed, out, data, trace = argv
    seed, out, data = int(seed), Path(out), Path(data)
    workload = workloads.WORKLOADS[name]

    for module in workload.modules:
        importlib.import_module(module)
    tracer = None
    if trace == "1":
        import spans

        tracer = spans.Tracer(run_id=f"{name}-{seed}-{os.getpid()}")
        tracer.install()
    state = workload.setup(seed)
    ready = time.monotonic()

    start = time.perf_counter()
    steps, arrays = workload.run(state, seed, out)
    wall = time.perf_counter() - start
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if arrays:
        import numpy as np

        for key, array in arrays.items():
            np.save(data / f"{key}.npy", array)
    if tracer is not None:
        (data / "spans.json").write_text(json.dumps(tracer.dump()))
    print(json.dumps({"ready": ready, "wall_s": wall, "maxrss_kb": maxrss_kb, "steps": steps}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
