"""Benchmark of ``racepred analyze``: one workload per run, checked output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` reports the end-to-end
metrics and ``--trace 1`` the per-layer metrics of a traced run; the last
line of stdout is one JSON object.  Workloads are listed in
``perfbench/workloads.py`` and ``BENCHMARK.json``.  Self-tests:
``python3 -m pytest perfbench``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

if __name__ == "__main__":
    if not (SRC / "racepred" / "cli.py").is_file():
        print(f"error: no racepred sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import harness
    sys.exit(harness.main())
