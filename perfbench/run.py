"""Benchmark of harmonia, end to end and by layer.

    python3 perfbench/run.py --workload sweep-serial --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all           # every workload, default seed

Run it from anywhere inside a checkout that has ``src/harmonia``.  Each
round of a workload is a fresh ``child.py`` process that imports harmonia,
makes the workload's inputs from the seed and runs its commands through
``harmonia.cli.main``.  Rounds repeat while one more brings the total of
the timed regions nearer to ``--seconds``.  Every round's output is checked
against ``oracle.py`` (see ``checks.py``); later rounds must reproduce the
first byte for byte.

With ``--trace 0`` the result holds the end-to-end metrics: ``setup_s``
(median over set-up probes and rounds, from process start to ready),
``wall_s`` and ``cpu_s`` (median per round of the timed region; CPU counts
pool workers too) and ``peak_rss_mb`` (largest resident set of any round
process or pool worker).  With ``--trace 1`` rounds alternate untraced and
traced, and the result holds the per-layer metrics of ``tracing.py`` plus
``trace_overhead_s``.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

#: One set-up probe per this many timed seconds, topped up after each round.
#: The probes are thus spread over the run like the rounds, so ``setup_s``
#: and ``wall_s`` see the same stretch of the machine's speed.
SETUP_PROBE_EVERY_S = 2.5

#: Longest a round may take before it is killed and the run fails.
ROUND_TIMEOUT_S = 150

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))


class RoundError(RuntimeError):
    pass


class FirstRound(NamedTuple):
    """What the first round produced; later rounds must reproduce it."""

    digest: dict[str, str]
    codes: list[int]
    messages: list[str]
    verdict: object  # checks.Outcome


def spawn(workload: str, seed: int, directory: Path, mode: str) -> dict:
    """Run ``child.py`` once and return its result with ``setup_s`` added."""
    env = dict(os.environ)
    # resolve_workers takes HARMONIA_THREADS as the default worker count,
    # which would make sweep-serial parallel.
    env.pop("HARMONIA_THREADS", None)
    argv = [sys.executable, str(HERE / "child.py"), "--workload", workload,
            "--seed", str(seed), "--dir", str(directory), "--mode", mode]
    start = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RoundError(f"{workload} {mode} round ran past {ROUND_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RoundError(f"{workload} {mode} round exited {proc.returncode}: {err.strip()}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return result


def digest(directory: Path, names: list[str]) -> dict[str, str]:
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in names}


def serial_reference(seed: int, directory: Path) -> Path:
    """The serial report of the same sweep, made in this process, untimed."""
    import workloads as wl
    from harmonia import cli

    directory.mkdir(parents=True, exist_ok=True)
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(wl.commands("sweep-serial", seed, directory)[0])
    if code != 0:
        raise RoundError(f"serial reference sweep exited {code}")
    return directory / "report.csv"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import checks
    import workloads as wl

    run_dir = OUT / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    outcome = checks.Outcome()
    try:
        spawn(workload, seed, run_dir / "setup", "setup")  # byte-compiles; not timed
        setups = []
        modes = ("timed", "traced") if trace else ("timed",)
        rounds: list[tuple[str, dict]] = []
        first = None
        spent = 0.0
        probes = 0
        while True:
            mode = modes[len(rounds) % len(modes)]
            directory = run_dir / f"round{len(rounds)}"
            result = spawn(workload, seed, directory, mode)
            rounds.append((mode, result))
            setups.append(result["setup_s"])
            spent += result["wall_s"]
            while probes < spent / SETUP_PROBE_EVERY_S:
                setups.append(spawn(workload, seed, run_dir / "setup", "setup")["setup_s"])
                probes += 1
            made = digest(directory, wl.outputs(workload))
            messages = [m.replace(str(directory), "<dir>") for m in result["stderr"]]
            same = (first is not None and made == first.digest
                    and result["codes"] == first.codes)
            # A sweep's message holds its elapsed time; the others are exact.
            if same and workload in ("exact-n8", "sample-n7"):
                same = messages == first.messages
            if same:
                outcome.attempted += first.verdict.attempted
                outcome.failed += first.verdict.failed
            else:
                if first is not None:
                    outcome.problems.append(f"round {len(rounds)} differs from round 1")
                verdict = checks.check(workload, directory, seed, result["codes"],
                                       result["stderr"])
                outcome.add(verdict)
                if first is None:
                    first = FirstRound(made, result["codes"], messages, verdict)
            if mode == "traced":
                kept = OUT / "traces" / f"{workload}-seed{seed}"
                shutil.rmtree(kept, ignore_errors=True)
                shutil.copytree(directory / "trace", kept)
            # Stop where the timed total lands nearest --seconds.
            if len(rounds) >= len(modes) and spent * (len(rounds) + 0.5) / len(rounds) > seconds:
                break
        if workload == "sweep-workers":
            reference = serial_reference(seed, run_dir / "serial")
            if digest(reference.parent, ["report.csv"]) != first.digest:
                outcome.problems.append("the --workers 2 report differs from the serial report")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    timed = [r for mode, r in rounds if mode == "timed"]
    wall = statistics.median(r["wall_s"] for r in timed)
    if not trace:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "cpu_s": statistics.median(r["cpu_s"] for r in timed),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in timed),
        }
        units = dict(END_TO_END)
    else:
        import tracing

        traced = [r for mode, r in rounds if mode == "traced"]
        metrics = {}
        for name, unit in tracing.PER_LAYER[:-1]:
            values = [r["layers"][name] for r in traced]
            if name in tracing.COUNTS:
                if len(set(values)) > 1:
                    outcome.problems.append(f"{name} differs between traced rounds: {values}")
                metrics[name] = values[0]
            else:
                metrics[name] = statistics.median(values)
        metrics["trace_overhead_s"] = statistics.median(r["wall_s"] for r in traced) - wall
        units = dict(tracing.PER_LAYER)
    return {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "problems": outcome.problems,
        "rounds": len(rounds),
    }


def main() -> int:
    import workloads as wl

    parser = argparse.ArgumentParser(description="Benchmark harmonia end to end and by layer.")
    parser.add_argument("--workload", choices=wl.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="timed seconds per workload; rounds are whole")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "harmonia" / "__init__.py").is_file():
        print(f"error: no harmonia sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.pop("HARMONIA_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))

    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (RoundError, OSError, ValueError) as err:
            print(f"error: {name}: {err}", file=sys.stderr)
            return 1
        results[name] = result
        for problem in result.pop("problems"):
            print(f"{name}: {problem}", file=sys.stderr)
        print(f"{name}: {result.pop('rounds')} rounds, {result['attempted']} operations, "
              f"{result['failed']} failed, correct={result['correct']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:34s} {m['value']:>16.6f} {m['unit']}")
        if len(names) > 1:
            print(json.dumps({name: result}))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
