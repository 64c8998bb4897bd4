"""One timed set-up, run in a fresh process by ``run.py``.

    python3 bench/setup_child.py WORKLOAD SEED

Imports the program first, before any module of the benchmark, then
builds the workload's inputs, and prints monotonic-clock stamps as JSON.
"""

import time

T_START = time.monotonic()

import sys  # noqa: E402

T_IMPORT = time.monotonic()
import negcurve  # noqa: E402, F401

T_IMPORTED = time.monotonic()

import json  # noqa: E402
import shutil  # noqa: E402

import run  # noqa: E402
from spans import Tracer  # noqa: E402


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    run.import_program()  # checks where negcurve came from
    workdir = run.new_workdir()
    try:
        run.build(workload, seed, workdir, Tracer(), run.load_refs())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    t_ready = time.monotonic()
    print(json.dumps({"t_start": T_START, "t_import": T_IMPORT,
                      "t_imported": T_IMPORTED, "t_ready": t_ready}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
