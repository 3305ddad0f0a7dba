"""Cost of one exact battery as n grows, at head size = dependent size = 5.

    python3 perfbench/scaling.py

For n = 6..9, draws one identical-channel model with the benchmark's default
seed and times ``harmonia.sweep.theorem_battery`` on it once, printing n, the
joint's cell count, the seconds taken and the largest resident set so far.
n = 9 holds 9.8 million cells, just under the dense joint's 10^7-cell cap,
and peaks near 360 MB of resident memory.
"""

from __future__ import annotations

import resource
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from harmonia.generators import ModelSpec, random_model
    from harmonia.sweep import theorem_battery

    print("n,cells,battery_s,peak_rss_mb")
    for n in (6, 7, 8, 9):
        model = random_model(ModelSpec(n=n, head_size=5, dep_sizes=5, seed=workloads.DEFAULT_SEED,
                                       identical_channels=True))
        start = time.perf_counter()
        rows = theorem_battery(model)
        elapsed = time.perf_counter() - start
        if not all(check.holds for _, check in rows):
            print(f"n={n}: a relation fails", file=sys.stderr)
            return 1
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"{n},{5 ** (n + 1)},{elapsed:.3f},{peak:.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
