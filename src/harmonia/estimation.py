"""Monte Carlo sampling and plug-in estimates next to their exact targets.

Samples are i.i.d. draws from the model's exact joint table (the one
``FactoredModel.joint`` caches, which scoring shares), so estimator behaviour
can be studied against ground truth with no simulation gap.  The plug-in MI
estimator is deliberately uncorrected (it is biased upward for finite
samples); the point is to quantify that bias, not hide it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .distributions import (
    Alphabet,
    JointTable,
    ValidationError,
    Variable,
    FactoredModel,
    variables_of,
)
from .information import Nats, Vars, mutual_information
from .placement import Placement


@dataclass(frozen=True, eq=False)
class SampleSet:
    """I.i.d. draws from a model's joint, columns in production order."""

    placement: Placement
    variables: tuple[Variable, ...]
    alphabets: tuple[Alphabet, ...]
    rows: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", np.asarray(self.rows, dtype=np.int64))
        if self.variables != self.placement.sequence():
            raise ValidationError("sample columns must follow the placement's order")
        if self.rows.ndim != 2 or self.rows.shape[1] != len(self.variables):
            raise ValidationError(
                f"rows have shape {self.rows.shape}, expected "
                f"(count, {len(self.variables)})"
            )
        if self.rows.shape[0] < 1:
            raise ValidationError("a sample set needs at least one row")
        for col, alpha in enumerate(self.alphabets):
            column = self.rows[:, col]
            if column.min() < 0 or column.max() >= alpha.size:
                raise ValidationError(
                    f"column {self.variables[col].name} has values outside "
                    f"0..{alpha.size - 1}"
                )
        self.rows.setflags(write=False)

    @property
    def count(self) -> int:
        return int(self.rows.shape[0])

    def column_of(self, v: Variable) -> int:
        try:
            return self.variables.index(v)
        except ValueError:
            raise ValidationError(f"{v.name} is not a sampled variable") from None

    def to_csv(self, out: IO[str], labels: bool = False) -> None:
        """Write a headered CSV, one column per sequence position: each value
        as its label with ``labels``, else as its index."""
        tables = [
            np.array([a.label(i) if labels else str(i) for i in range(a.size)], dtype=object)
            for a in self.alphabets
        ]
        writer = csv.writer(out)
        writer.writerow(v.name for v in self.variables)
        writer.writerows(zip(*(table[self.rows[:, c]] for c, table in enumerate(tables))))


def sample(
    model: FactoredModel, placement: Placement, count: int, seed: int
) -> SampleSet:
    """Draw ``count`` i.i.d. sequences from the model under ``placement``."""
    if count < 1:
        raise ValidationError(f"sample count must be >= 1, got {count}")
    if placement.n != model.n:
        raise ValidationError(
            f"placement has n={placement.n} but model has n={model.n}"
        )
    joint = model.joint
    flat = joint.probs.reshape(-1)
    rng = np.random.default_rng(seed)
    drawn = rng.choice(flat.size, size=count, p=flat)
    canon_cols = np.column_stack(np.unravel_index(drawn, joint.probs.shape))
    seq = placement.sequence()
    order = [joint.axis_of(v) for v in seq]
    return SampleSet(
        placement=placement,
        variables=seq,
        alphabets=tuple(joint.alphabets[a] for a in order),
        rows=canon_cols[:, order],
        seed=seed,
    )


def _counts(samples: SampleSet, variables: Iterable[Variable]) -> np.ndarray:
    """Joint counts of ``variables`` in the samples, one axis per variable."""
    cols = [samples.column_of(v) for v in variables]
    sizes = tuple(samples.alphabets[c].size for c in cols)
    flat_idx = np.ravel_multi_index(tuple(samples.rows[:, c] for c in cols), sizes)
    return np.bincount(flat_idx, minlength=int(np.prod(sizes))).reshape(sizes)


def empirical_joint(samples: SampleSet, subset: Vars) -> JointTable:
    """The empirical frequency table over ``subset``, axes in canonical order
    (head first, then dependents by index)."""
    subset = tuple(sorted(variables_of(subset)))
    if not subset:
        raise ValidationError("need at least one variable")
    return JointTable(
        variables=subset,
        alphabets=tuple(samples.alphabets[samples.column_of(v)] for v in subset),
        probs=_counts(samples, subset) / samples.count,
    )


def plug_in_mi(samples: SampleSet, x: Vars, y: Vars) -> Nats:
    """MI of the empirical joint frequency table (no bias correction)."""
    xs, ys = variables_of(x), variables_of(y)
    if not set(xs).isdisjoint(ys):
        raise ValidationError("x and y must be disjoint")
    table = empirical_joint(samples, xs + ys)
    return mutual_information(table, xs, ys)


def check_stage(k: int, n: int) -> None:
    """Reject a stage outside ``0..n``: past it no element of the ``n + 1`` is pending."""
    if not 0 <= k <= n:
        raise ValidationError(f"stage k={k} outside 0..{n}: no element is pending")


@dataclass(frozen=True)
class PredictionScore:
    """Exact and sample-based quality of predicting the next element at stage ``k``."""

    target: Variable
    k: int
    exact_bayes_accuracy: float
    empirical_accuracy: float | None
    exact_mi: Nats
    plug_in_mi: Nats | None


def next_element_score(
    model: FactoredModel,
    placement: Placement,
    k: int,
    samples: SampleSet | None = None,
) -> PredictionScore:
    """Score prediction of the element at position ``k + 1`` from the first ``k``.

    The exact Bayes accuracy is the probability that the most likely next
    element given the prefix is the produced one, summed over prefixes;
    argmax ties resolve toward the lowest value index, which never changes
    the exact accuracy.  With ``samples``, the same decision rule is fit on
    empirical counts and evaluated against the exact distribution (prefixes
    never seen in the samples fall back to the target's empirical mode).
    """
    n = model.n
    check_stage(k, n)
    if placement.n != n:
        raise ValidationError(f"placement has n={placement.n} but model has n={n}")
    seq = placement.sequence()
    if samples is not None and samples.variables != seq:
        raise ValidationError("samples were drawn under a different placement")
    prefix = seq[:k]
    target = seq[k]

    joint = model.joint
    margin = joint.marginal(prefix + (target,))
    exact_bayes = float(margin.probs.max(axis=-1).sum())
    exact_mi = 0.0 if k == 0 else mutual_information(joint, prefix, target)

    empirical_accuracy = None
    plug_in = None
    if samples is not None:
        counts = _counts(samples, prefix + (target,))
        rule = counts.argmax(axis=-1)
        unseen = counts.sum(axis=-1) == 0
        if np.any(unseen):
            fallback = int(counts.reshape(-1, counts.shape[-1]).sum(axis=0).argmax())
            rule = np.where(unseen, fallback, rule)
        picked = np.take_along_axis(
            margin.probs, rule.reshape(rule.shape + (1,)), axis=-1
        )
        empirical_accuracy = float(picked.sum())
        plug_in = 0.0 if k == 0 else plug_in_mi(samples, prefix, target)

    return PredictionScore(
        target=target,
        k=k,
        exact_bayes_accuracy=exact_bayes,
        empirical_accuracy=empirical_accuracy,
        exact_mi=exact_mi,
        plug_in_mi=plug_in,
    )
