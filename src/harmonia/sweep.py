"""Randomised verification sweeps over factored models.

``run_sweep`` draws seeded random models over a grid of (n, head size,
dependent size) cells and evaluates every placement relation that is
guaranteed for the model's regime:

* models with one shared conditional table (identical channels, even model
  indices) run the complete battery, including the relations that compare
  different dependent slots;
* models with per-slot tables (odd indices) run the subset that holds for
  every factored model, which deliberately excludes the cross-slot
  comparisons because they can genuinely fail there.

``battery_plan`` states those relations once per (n, regime) as a plan over
axis bitmasks, none with the same entropies on both sides; ``theorem_battery``
evaluates it on the model's own entropies, read off its factors, adds the
harmony rows and the identity rows, which compare those entropies with sums
made directly on the dense joint (each once), and sorts the rows by (theorem,
relation).  A report row is ``(model_id, theorem, check)``, the check a
``RelationCheck``.  With the models in model_id order the report is sorted,
so reruns with the same config are byte-identical apart from an optional
timestamp comment.  A ``RunConfig`` checks each grid cell through its
``ModelSpec``.  A failing model, found in one pass over the rows, is
serialised next to the report for a post-mortem.
"""

from __future__ import annotations

import csv
import itertools
import os
import time
from dataclasses import dataclass, fields
from functools import cache, cached_property
from multiprocessing import get_context
from pathlib import Path
from typing import IO, Iterable

from .distributions import (
    FactoredModel,
    JointTable,
    ValidationError,
    as_integer,
    check_factorization,
)
from .information import (
    DEFAULT_TOLERANCE, chain_rule_residual_of, check_tolerance, direct_mi_of, mi_of)
from .generators import ModelSpec, derive_seed, random_model
from .placement import (
    HEAD_MASK,
    Objective,
    PlanEntry,
    Relation,
    RelationCheck,
    _evaluate,
    deps_mask,
    irrelevance_plan,
    lattice_plan,
    optimal_head_position,
    pending_plan,
    relation_check,
    remainder_plan,
    remainder_relation_checks,
)

#: Tolerance for conditional-independence self-checks, tighter than the
#: inequality tolerance because the factorisation is exact by construction.
INDEPENDENCE_TOL = 1e-12

CSV_HEADER = (
    "model_id",
    "theorem",
    "relation",
    "lhs_nats",
    "rhs_nats",
    "slack",
    "holds",
    "equality_diagnosis",
)

ReportRow = tuple[str, str, RelationCheck]  # (model_id, theorem, check)


@dataclass(frozen=True)
class RunConfig:
    """Settings for a verification sweep (mirrored by the JSON config file)."""

    tolerance: float = DEFAULT_TOLERANCE
    sweep_size: int = 40
    n_values: tuple[int, ...] = (2, 3, 4)
    head_sizes: tuple[int, ...] = (2, 3, 5)
    dep_sizes: tuple[int, ...] = (2, 3, 5)
    concentration: float = 1.0
    seed: int = 20260814
    aggregate: str = "min"
    out: str | None = None
    timestamp: bool = True
    workers: int | None = None

    def __post_init__(self) -> None:
        # Types first, so that a malformed config file is a ValidationError and
        # not a TypeError deep inside the sweep.  as_integer refuses 1.5, "ten"
        # and true where an integer belongs.
        ints = ("sweep_size", "seed") + (("workers",) if self.workers is not None else ())
        lists = ("n_values", "head_sizes", "dep_sizes")
        name = ""
        try:
            for name in ints:
                object.__setattr__(self, name, as_integer(getattr(self, name)))
            for name in lists:
                object.__setattr__(self, name, tuple(map(as_integer, getattr(self, name))))
            for name in ("tolerance", "concentration"):
                value = getattr(self, name)
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise TypeError
        except TypeError:
            what = ("an integer" if name in ints
                    else "a list of integers" if name in lists else "a number")
            raise ValidationError(f"{name} must be {what}, got {getattr(self, name)!r}") from None
        if self.out is not None and not isinstance(self.out, str):
            raise ValidationError(f"out must be a path string, got {self.out!r}")
        if not isinstance(self.timestamp, bool):
            raise ValidationError(f"timestamp must be true or false, got {self.timestamp!r}")
        check_tolerance(self.tolerance)
        if self.sweep_size < 1:
            raise ValidationError(f"sweep size must be >= 1, got {self.sweep_size}")
        for name in lists:
            # An empty axis checks no model; a repeated value gives two models one model_id.
            values = getattr(self, name)
            if not values:
                raise ValidationError(f"{name} must not be empty")
            if len(set(values)) != len(values):
                raise ValidationError(f"{name} must not repeat a value, got {values}")
        if self.aggregate not in ("min", "mean"):
            raise ValidationError(f"aggregate must be 'min' or 'mean', got {self.aggregate!r}")
        if self.workers is not None and self.workers < 1:
            raise ValidationError(f"workers must be >= 1, got {self.workers}")
        # n, the alphabet sizes, the concentration and the seed are ModelSpec's rules.
        for n, hs, ds in itertools.product(self.n_values, self.head_sizes, self.dep_sizes):
            ModelSpec(n=n, head_size=hs, dep_sizes=ds, concentration=self.concentration,
                      seed=self.seed)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(
                f"unknown config key(s) {sorted(unknown)}; valid keys are {sorted(known)}"
            )
        return cls(**data)

    @property
    def model_count(self) -> int:
        return (
            len(self.n_values) * len(self.head_sizes) * len(self.dep_sizes) * self.sweep_size
        )


def resolve_workers(requested: int | None) -> int:
    """Worker count: the request (1 when there is none), capped by the number of CPUs."""
    return min(requested or 1, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# Per-model battery
# ---------------------------------------------------------------------------


def _names(first: int, last: int) -> str:
    return "+".join(f"dep{i}" for i in range(first, last + 1))


@cache
def battery_plan(n: int, identical_channels: bool) -> tuple[PlanEntry, ...]:
    """The battery's entropy-table relations for ``n`` dependents, built once
    per (n, regime).  The ``cross_slot`` entries are included exactly when the
    dependents share one conditional table.  Pending part 1 at k = 1 reads
    I(head; dep j) <= I(dep1; head), the same sums when j = 1 or the channels
    are identical, so only j = 1 keeps it: ``perfbench/checks.py::check_exact``
    reads I(head; dep1) there.
    """
    # Dependents are independent given the head: prefix splits, then pairs
    # (for n = 2 the one pair is the k=1 split, so it is checked once).
    splits = [((1, k), (k + 1, n)) for k in range(1, n)]
    if n > 2:
        splits += [((i, i), (j, j)) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    plan = [
        PlanEntry("given-head-independence", f"independence {_names(*left)} vs {_names(*right)}",
                  Relation.EQ, (deps_mask(*left), deps_mask(*right), HEAD_MASK), (0, 0),
                  INDEPENDENCE_TOL)
        for left, right in splits
    ]
    plan += remainder_plan(n)
    for k in range(1, n + 1):
        for j in range(k, n + 1):
            plan += pending_plan(k, j)[1 if k == 1 < j else 0:]
            if j > k:
                plan += irrelevance_plan(k, j)
    for k in range(1, n):
        plan += lattice_plan(n, k)
    return tuple(e for e in plan if identical_channels or not e.cross_slot)


def theorem_battery(
    model: FactoredModel,
    tol: float = DEFAULT_TOLERANCE,
    aggregate: str = "min",
) -> list[tuple[str, RelationCheck]]:
    """Every guaranteed relation for one model, as (theorem, check) pairs in
    (theorem, relation) order: ``battery_plan`` and the harmony rows,
    evaluated on the model's own entropies, plus the identity rows."""
    n = model.n
    plan = battery_plan(n, model.has_identical_channels)
    out = [(e.theorem, check) for e, check in zip(plan, _evaluate(model, plan, tol))]

    # Exact identities of the information measures: MI is symmetric, and the
    # chain rule holds.  The model's entropies satisfy both by construction,
    # so each row compares them with the direct-summation path over the dense
    # joint, symmetry with the two sides swapped.  These are the only rows
    # that build the joint, after the plan.
    first, rest = 1 << 1, deps_mask(2, n)
    symmetric = [("symmetry head-vs-deps", HEAD_MASK, deps_mask(1, n))]
    residuals = []
    if n >= 2:
        symmetric.append(("symmetry dep1-vs-rest", first, HEAD_MASK | rest))
        residuals = [("chain-rule deps-about-head", first, rest, HEAD_MASK),
                     ("chain-rule head+dep1-about-rest", HEAD_MASK, first, rest)]
    # Each sum once: "chain-rule deps-about-head" sums the rhs of "symmetry head-vs-deps".
    direct = cache(lambda x, y: direct_mi_of(model.joint, x, y))
    out += [("identity", relation_check(name, Relation.EQ, mi_of(model, x, y),
                                        direct(y, x), tol))
            for name, x, y in symmetric]
    out += [("identity", relation_check(name, Relation.EQ, chain_rule_residual_of(
                direct(m1 | m2, my), model, m1, m2, my), 0.0, tol))
            for name, m1, m2, my in residuals]

    # Harmony contracts: which head positions attain each objective's max.
    # Producing every dependent first can only add information about the
    # head, and the head informs every dependent at least as well as a
    # sibling does.  Both sides are sums of different entropies, so both
    # rows take the tolerance.
    head = optimal_head_position(model, Objective.HEAD_PREDICTABILITY).scores
    dependent = optimal_head_position(
        model, Objective.DEPENDENT_PREDICTABILITY, aggregate=aggregate
    ).scores
    out += [
        ("harmony", relation_check("head-last attains head-predictability max", Relation.EQ,
                                   max(head), head[n], tol)),
        ("harmony", relation_check("head-first attains dependent-predictability max",
                                   Relation.EQ, max(dependent), dependent[0], tol)),
    ]
    return sorted(out, key=lambda pair: (pair[0], pair[1].name))


def checks_for_joint(joint: JointTable, tol: float = DEFAULT_TOLERANCE) -> list[tuple[str, RelationCheck]]:
    """Checks that make sense for an arbitrary joint table with a head.

    Used for file inputs: the factorisation itself becomes a check (the total
    correlation of the dependents given the head, in nats), and the remainder
    relations are evaluated as stated.  On a non-factored joint the remainder
    relations may genuinely fail; that is the point.
    """
    factorization = relation_check("dependents independent given head", Relation.EQ,
                                   check_factorization(joint), 0.0, max(tol, INDEPENDENCE_TOL))
    return [("factorization", factorization)] + [
        ("remainder", check) for check in remainder_relation_checks(joint, tol)]


# ---------------------------------------------------------------------------
# Sweep driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepTask:
    model_id: str
    spec: ModelSpec


def sweep_tasks(config: RunConfig) -> list[SweepTask]:
    """The deterministic model grid for a config, regimes alternating."""
    tasks: list[SweepTask] = []
    grid = itertools.product(config.n_values, config.head_sizes, config.dep_sizes,
                             range(config.sweep_size))
    for index, (n, hs, ds, i) in enumerate(grid):
        identical = i % 2 == 0
        spec = ModelSpec(
            n=n,
            head_size=hs,
            dep_sizes=ds,
            concentration=config.concentration,
            seed=derive_seed(config.seed, index),
            identical_channels=identical,
        )
        regime = "id" if identical else "ps"
        tasks.append(SweepTask(model_id=f"n{n}-h{hs}-d{ds}-{regime}-{i:04d}", spec=spec))
    return tasks


def _battery_rows(task: SweepTask, tol: float, aggregate: str) -> list[ReportRow]:
    model = random_model(task.spec)
    return [
        (task.model_id, theorem, check)
        for theorem, check in theorem_battery(model, tol=tol, aggregate=aggregate)
    ]


@dataclass
class SweepResult:
    config: RunConfig
    rows: list[ReportRow]
    elapsed_seconds: float

    @cached_property
    def failures(self) -> list[ReportRow]:
        return [row for row in self.rows if not row[2].holds]


def run_sweep(config: RunConfig) -> SweepResult:
    """Run the whole battery over the config's model grid."""
    start = time.perf_counter()
    # Each model's rows come in (theorem, relation) order, so taking the
    # models in model_id order sorts the report.
    tasks = sorted(sweep_tasks(config), key=lambda t: t.model_id)
    workers = min(resolve_workers(config.workers), len(tasks))
    args = [(t, config.tolerance, config.aggregate) for t in tasks]
    if workers > 1:
        ctx = get_context()
        with ctx.Pool(processes=workers) as pool:
            per_task = pool.starmap(_battery_rows, args, chunksize=8)
    else:
        per_task = list(itertools.starmap(_battery_rows, args))
    rows = [row for chunk in per_task for row in chunk]
    elapsed = time.perf_counter() - start
    return SweepResult(config=config, rows=rows, elapsed_seconds=elapsed)


def _diag_text(check: RelationCheck) -> str:
    if check.equality_diagnosis is None:
        return ""
    d = check.equality_diagnosis
    return (
        f"{check.equality_condition} [residual={d.residual:.6e} "
        f"chain={'yes' if d.is_chain else 'no'}]"
    )


def write_report(
    rows: Iterable[ReportRow], out: IO[str], timestamp: bool = True
) -> None:
    """Write the report CSV through one writer, rows in the order given.

    ``run_sweep`` and ``theorem_battery`` give rows in (model_id, theorem,
    relation) order, so a report of either is sorted and reproducible.
    """
    if timestamp:
        out.write(f"# generated-at: {time.strftime('%Y-%m-%dT%H:%M:%S%z')}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(
        (model_id, theorem, c.name, repr(c.lhs), repr(c.rhs), repr(c.slack),
         "true" if c.holds else "false", _diag_text(c))
        for model_id, theorem, c in rows
    )


def write_witnesses(result: SweepResult, directory: str | Path) -> list[Path]:
    """Serialise every failing model for inspection; returns written paths."""
    from .modelio import save_model  # local import to avoid a cycle

    failing: dict[str, list[str]] = {}
    for model_id, _, check in result.failures:
        failing.setdefault(model_id, []).append(check.name)
    by_id = {t.model_id: t.spec for t in sweep_tasks(result.config)}
    written: list[Path] = []
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for model_id in sorted(failing):
        spec = by_id[model_id]
        path = directory / f"witness-{model_id}.json"
        save_model(
            random_model(spec),
            path,
            metadata={
                "model_id": model_id,
                "seed": spec.seed,
                "identical_channels": spec.identical_channels,
                "failing_relations": sorted(failing[model_id]),
            },
        )
        written.append(path)
    return written
