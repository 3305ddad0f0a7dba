"""An oracle for the benchmark's checks, written apart from ``harmonia``.

It rebuilds the joint of a factored model from the raw tables, one head
value at a time with outer products, and computes every information measure
as entropy arithmetic (Cover & Thomas, *Elements of Information Theory*,
ch. 2): I(X; Y) = H(X) + H(Y) - H(X, Y).  ``harmonia.information`` sums
p log(p / (px py)) directly instead, so agreement between the two is a real
cross-check.  Axis 0 is the head and axis i is dependent i.
"""

from __future__ import annotations

import math
import re
from typing import Iterable

import numpy as np

HEAD = 0


def joint(prior: Iterable[float], tables: Iterable) -> np.ndarray:
    """p(head, dep1, ..., depn) = p(head) * prod_i p(dep_i | head)."""
    prior = np.asarray(prior, dtype=np.float64)
    tables = [np.asarray(t, dtype=np.float64) for t in tables]
    slabs = []
    for h, ph in enumerate(prior):
        slab = np.float64(ph)
        for table in tables:
            slab = np.multiply.outer(slab, table[h])
        slabs.append(slab)
    return np.stack(slabs)


def shannon(p: np.ndarray) -> float:
    """Entropy in nats of a probability array (0 log 0 = 0)."""
    p = p[p > 0.0]
    return float(-(p * np.log(p)).sum())


class Entropies:
    """Entropies of the marginals of one joint array, memoised by axis set."""

    def __init__(self, p: np.ndarray):
        self.p = p
        self._memo: dict[frozenset[int], float] = {}

    def h(self, axes: Iterable[int]) -> float:
        key = frozenset(axes)
        if not key:
            return 0.0
        if key not in self._memo:
            drop = tuple(a for a in range(self.p.ndim) if a not in key)
            self._memo[key] = shannon(self.p.sum(axis=drop) if drop else self.p)
        return self._memo[key]

    def mi(self, x: Iterable[int], y: Iterable[int]) -> float:
        x, y = frozenset(x), frozenset(y)
        if not x or not y:
            return 0.0
        return self.h(x) + self.h(y) - self.h(x | y)

    def cmi(self, x: Iterable[int], y: Iterable[int], z: Iterable[int]) -> float:
        x, y, z = frozenset(x), frozenset(y), frozenset(z)
        return self.h(x | z) + self.h(y | z) - self.h(x | y | z) - self.h(z)


def deps(first: int, last: int) -> set[int]:
    """Dependents first..last (empty when first > last)."""
    return set(range(first, last + 1))


def head_scores(e: Entropies, n: int) -> list[float]:
    """Head predictability per head position 1..n+1: I(deps before it; head)."""
    return [e.mi(deps(1, p - 1), {HEAD}) for p in range(1, n + 2)]


def dependent_scores(e: Entropies, n: int) -> list[float]:
    """Dependent predictability per head position (aggregate ``min``): what the
    first element says about the least predictable pending dependent."""
    scores = [min(e.mi({HEAD}, {j}) for j in deps(1, n))]
    later = min((e.mi({1}, {j}) for j in deps(2, n)), default=0.0)
    return scores + [later] * n


_PENDING = re.compile(r"pending part([123]) k=(\d+) j=(\d+)")
_IRRELEVANCE = re.compile(r"irrelevance k=(\d+) j=(\d+)")


def relation_sides(relation: str, n: int, e: Entropies) -> tuple[float, float, str]:
    """Exact (lhs, rhs, sense) of one report row of the ``remainder``,
    ``pending``, ``irrelevance`` or ``harmony`` families.  ``sense`` is the
    relation the paper proves between the two sides: ``<=``, ``>=`` or ``==``.
    Raises ``KeyError`` for a relation this oracle does not know.
    """
    H = {HEAD}
    sym = "==" if n == 1 else ">="
    if relation == "remainder k=1 (head first)":
        return e.mi(H, deps(1, n)), e.mi({1}, H | deps(2, n)), sym
    if relation == f"remainder k={n} (head last)":
        return e.mi(deps(1, n), H), e.mi(H | deps(1, n - 1), {n}), sym
    m = _PENDING.fullmatch(relation)
    if m:
        part, k, j = (int(g) for g in m.groups())
        with_head = e.mi(H | deps(1, k - 1), {j})
        without_head = e.mi(deps(1, k), {j})
        head_pred = e.mi(deps(1, k), H)
        if part == 1:
            return with_head, head_pred, "==" if k == j == 1 else "<="
        if part == 2:
            return without_head, head_pred, "<="
        return without_head, with_head, "<="
    m = _IRRELEVANCE.fullmatch(relation)
    if m:
        k, j = (int(g) for g in m.groups())
        return e.mi(H | deps(1, k), {j}), e.mi(H, {j}), "=="
    if relation == "head-last attains head-predictability max":
        scores = head_scores(e, n)
        return max(scores), scores[n], "=="
    if relation == "head-first attains dependent-predictability max":
        scores = dependent_scores(e, n)
        return max(scores), scores[0], "=="
    if relation == "n=1 head-first equals head-last":
        return e.mi(H, {1}) - e.mi({1}, H), 0.0, "=="
    raise KeyError(relation)


def satisfies(lhs: float, rhs: float, sense: str, tol: float) -> bool:
    if sense == "<=":
        return lhs <= rhs + tol
    if sense == ">=":
        return lhs >= rhs - tol
    return abs(lhs - rhs) <= tol


def bayes_accuracy(p: np.ndarray) -> float:
    """Probability that the most likely last coordinate given the others is
    the one drawn: sum over prefixes of max over the last axis."""
    return float(p.max(axis=-1).sum())


def rule_accuracy(p: np.ndarray, counts: np.ndarray) -> float:
    """Exact accuracy of the rule fitted on ``counts``: per prefix, the most
    counted last coordinate (lowest index on ties), and for a prefix never
    seen, the most counted last coordinate overall."""
    rule = counts.argmax(axis=-1)
    unseen = counts.sum(axis=-1) == 0
    if unseen.any():
        overall = counts.reshape(-1, counts.shape[-1]).sum(axis=0)
        rule = np.where(unseen, int(overall.argmax()), rule)
    return float(np.take_along_axis(p, rule[..., np.newaxis], axis=-1).sum())


def frequency_bound(p: float, count: int, sigmas: float = 6.0) -> float:
    """Half-width of the band an observed frequency of a cell with
    probability ``p`` stays in, ``sigmas`` binomial standard deviations."""
    return sigmas * math.sqrt(p * (1.0 - p) / count) + 1e-12
