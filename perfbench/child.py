"""One round of a workload in a fresh interpreter.

    python3 perfbench/child.py --workload W --seed N --dir D --mode setup|timed|traced

The round imports ``harmonia`` from the checkout's ``src``, writes the
workload's inputs into ``D`` and notes the moment it is ready: that ends the
set-up, which ``run.py`` times from the moment it started this process.  In
``setup`` mode it stops there.  Otherwise it runs the workload's commands
through ``harmonia.cli.main`` (the timed region), with the layer spans of
``tracing.py`` recorded in ``traced`` mode, and prints one JSON line: wall
and CPU time of the timed region, the largest resident set of this process
and of the pool workers it waited for, and the commands' exit codes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def _own_peak_kb() -> int:
    """High-water resident set of this process image.  ``ru_maxrss`` of
    RUSAGE_SELF would also count the process that started this one, whose
    memory Linux carries over at exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    from harmonia import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"harmonia was imported from {cli.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import workloads

    args.dir.mkdir(parents=True, exist_ok=True)
    workloads.make_inputs(args.workload, args.seed, args.dir)
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    argvs = workloads.commands(args.workload, args.seed, args.dir)
    tracer = None
    if args.mode == "traced":
        import tracing

        tracer = tracing.Tracer(args.dir / "trace")
        tracer.install()
    codes, messages = [], []
    cpu0 = _cpu()
    start = time.perf_counter()
    for argv in argvs:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            codes.append(cli.main(argv))
        messages.append(err.getvalue())
    wall = time.perf_counter() - start
    cpu = _cpu() - cpu0
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracing.summarise(tracer.directory, tracer.sweep_cpu)
    peak_kb = max(_own_peak_kb(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print(json.dumps({
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_kb / 1024.0,
        "codes": codes,
        "stderr": messages,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
