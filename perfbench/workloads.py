"""The benchmark's four workloads: the inputs each one makes from a seed, and
the ``harmonia`` commands each one runs in its timed region.

Both the round process (``child.py``, which runs the commands) and the
checker (``run.py``/``checks.py``, which reads what they wrote) take the
file layout from here, so the two agree on every path.
"""

from __future__ import annotations

import json
from pathlib import Path

#: ``RunConfig``'s default sweep seed: without ``--seed`` the sweep workloads
#: run exactly the default ``harmonia verify`` gate.
DEFAULT_SEED = 20260814

WORKLOADS = ("sweep-serial", "sweep-workers", "exact-n8", "sample-n7")

#: The default grid of ``harmonia verify``: n x head size x dep size x models
#: per cell, even model indices with identical channels.
SWEEP_N = (2, 3, 4)
SWEEP_HEAD_SIZES = (2, 3, 5)
SWEEP_DEP_SIZES = (2, 3, 5)
SWEEP_SIZE = 40

#: exact-n8: h = d = 5 and n = 8, 5**9 = 1,953,125 joint cells.
EXACT_N = 8
EXACT_SIZE = 5

#: sample-n7: h = d = 5, n = 7, head in the middle of the 8 slots, scoring the
#: last element from the 7 before it.
SAMPLE_N = 7
SAMPLE_SIZE = 5
SAMPLE_COUNT = 1_000_000
SAMPLE_HEAD_POSITION = 4
SAMPLE_SCORE_K = 7


def derived_seed(seed: int, k: int) -> int:
    """Seed of the ``k``-th input drawn for workload seed ``seed``."""
    return (seed * 1_000_003 + k) % (1 << 63)


def sweep_model_ids() -> list[str]:
    """Every model id the default grid must report, in grid order."""
    ids = []
    for n in SWEEP_N:
        for h in SWEEP_HEAD_SIZES:
            for d in SWEEP_DEP_SIZES:
                for i in range(SWEEP_SIZE):
                    ids.append(f"n{n}-h{h}-d{d}-{'id' if i % 2 == 0 else 'ps'}-{i:04d}")
    return ids


def make_inputs(workload: str, seed: int, directory: Path) -> None:
    """Write the model files a workload reads (the sweeps need none)."""
    from harmonia.generators import ModelSpec, random_model
    from harmonia.modelio import save_model

    if workload == "exact-n8":
        for k, (name, identical) in enumerate((("identical", True), ("per-slot", False))):
            spec = ModelSpec(n=EXACT_N, head_size=EXACT_SIZE, dep_sizes=EXACT_SIZE,
                             seed=derived_seed(seed, k), identical_channels=identical)
            save_model(random_model(spec), directory / f"{name}.json")
    elif workload == "sample-n7":
        # Per-slot tables, so that every dependent column has its own marginal
        # and the frequency check can tell the columns apart.
        spec = ModelSpec(n=SAMPLE_N, head_size=SAMPLE_SIZE, dep_sizes=SAMPLE_SIZE,
                         seed=derived_seed(seed, 0), identical_channels=False)
        save_model(random_model(spec), directory / "model.json")


def commands(workload: str, seed: int, directory: Path) -> list[list[str]]:
    """The ``harmonia`` argument lists of one round, in order."""
    d = directory
    sweep = ["verify", "--seed", str(seed), "--no-timestamp", "--out", str(d / "report.csv")]
    if workload == "sweep-serial":
        return [sweep]
    if workload == "sweep-workers":
        return [sweep + ["--workers", "2"]]
    if workload == "exact-n8":
        return [
            ["verify", "--input", str(d / "identical.json"), "--no-timestamp",
             "--out", str(d / "identical.csv")],
            ["verify", "--input", str(d / "per-slot.json"), "--no-timestamp",
             "--out", str(d / "per-slot.csv")],
            ["profile", str(d / "identical.json"), "--objective", "head",
             "--out", str(d / "profile.csv")],
        ]
    if workload == "sample-n7":
        return [[
            "sample", str(d / "model.json"), "--count", str(SAMPLE_COUNT),
            "--seed", str(derived_seed(seed, 1)),
            "--head-position", str(SAMPLE_HEAD_POSITION),
            "--score-k", str(SAMPLE_SCORE_K), "--out", str(d / "samples.csv"),
        ]]
    raise ValueError(f"unknown workload {workload!r}")


def outputs(workload: str) -> list[str]:
    """The files a round writes, which later rounds must reproduce byte for byte."""
    return {
        "sweep-serial": ["report.csv"],
        "sweep-workers": ["report.csv"],
        "exact-n8": ["identical.csv", "per-slot.csv", "profile.csv"],
        "sample-n7": ["samples.csv"],
    }[workload]


def read_model(path: Path) -> tuple[list[float], list[list[list[float]]]]:
    """Head prior and conditional tables of a ``harmonia-model`` file, read
    with plain ``json`` so that the checks do not rely on ``harmonia.modelio``."""
    obj = json.loads(path.read_text(encoding="utf-8"))
    return obj["head_prior"], obj["cond_tables"]
