"""Discrete distributions over a head and its dependents.

The objects here describe a two-layer generative story for a phrase: a head
element is drawn from a prior, then each of ``n`` dependents is drawn
independently from a conditional table given the head.  Everything downstream
(information measures, placement analysis, estimation) works on the exact
joint table this model induces, so the joint is materialised densely, up to
``MAX_JOINT_CELLS`` cells, rather than approximated.

Probabilities are plain float64 numpy arrays.  Validation is strict: entries
must be numbers in [0, 1] (NaN is rejected), rows must sum to one within a
small tolerance, and conditioning on an impossible event raises instead of
silently renormalising garbage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator

import numpy as np

#: Cap on the number of cells a dense joint table may hold.
MAX_JOINT_CELLS = 10_000_000

#: Tolerance for "these probabilities sum to one" checks at construction time.
PROB_SUM_TOL = 1e-12


class HarmoniaError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(HarmoniaError, ValueError):
    """A value violates a documented contract (shape, range, sum, ...)."""


class ZeroProbabilityError(HarmoniaError, ValueError):
    """Conditioning on an event of probability zero: the conditional is undefined."""


class JointSizeError(HarmoniaError, ValueError):
    """The requested dense joint table would exceed the cell cap."""


# ---------------------------------------------------------------------------
# Alphabets and variables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Alphabet:
    """A finite value set ``{0, ..., size - 1}`` with optional display labels."""

    size: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValidationError(f"alphabet size must be >= 1, got {self.size}")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != self.size:
                raise ValidationError(
                    f"alphabet has {self.size} values but {len(self.labels)} labels"
                )

    def label(self, value: int) -> str:
        if not 0 <= value < self.size:
            raise ValidationError(f"value {value} outside alphabet of size {self.size}")
        return self.labels[value] if self.labels else str(value)


@dataclass(frozen=True, order=True)
class Variable:
    """One position of the factorisation: index 0 is the head, ``i >= 1`` is dependent ``i``.

    The integer index doubles as the canonical ordering used for joint-table
    axes, so sorting variables always puts the head first and dependents in
    index order.
    """

    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValidationError(f"variable index must be >= 0, got {self.index}")

    @property
    def is_head(self) -> bool:
        return self.index == 0

    @property
    def name(self) -> str:
        return "head" if self.index == 0 else f"dep{self.index}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


#: The head variable.
HEAD = Variable(0)


def dep(i: int) -> Variable:
    """Dependent number ``i`` (1-based)."""
    if i < 1:
        raise ValidationError(f"dependent index must be >= 1, got {i}")
    return Variable(i)


def parse_variable(name: str) -> Variable:
    """Inverse of ``Variable.name`` ("head", "dep3", ...)."""
    if name == "head":
        return HEAD
    if isinstance(name, str) and name.startswith("dep"):
        try:
            return dep(int(name[3:]))
        except ValueError:
            pass
    raise ValidationError(f"unrecognised variable name {name!r}")


class VarSet:
    """An ordered, duplicate-free collection of variables.

    Order is preserved as given (production order matters for views and CSV
    output) but set semantics apply: membership, union and disjointness
    are all by value.
    """

    __slots__ = ("_vars", "_members")

    def __init__(self, variables: Iterable[Variable] = ()):
        vs = tuple(variables)
        for v in vs:
            if not isinstance(v, Variable):
                raise ValidationError(f"VarSet elements must be Variable, got {v!r}")
        members = frozenset(vs)
        if len(members) != len(vs):
            raise ValidationError(f"duplicate variable in {[v.name for v in vs]}")
        self._vars = vs
        self._members = members

    @staticmethod
    def coerce(value: "VarSet" | Variable | Iterable[Variable]) -> "VarSet":
        if isinstance(value, VarSet):
            return value
        if isinstance(value, Variable):
            return VarSet((value,))
        return VarSet(value)

    def __iter__(self) -> Iterator[Variable]:
        return iter(self._vars)

    def __len__(self) -> int:
        return len(self._vars)

    def __contains__(self, v: object) -> bool:
        return v in self._members

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VarSet):
            return NotImplemented
        return self._members == other._members

    def __hash__(self) -> int:
        return hash(self._members)

    def __or__(self, other: "VarSet") -> "VarSet":
        extra = tuple(v for v in VarSet.coerce(other) if v not in self._members)
        return VarSet(self._vars + extra)

    def is_disjoint(self, other: "VarSet") -> bool:
        return self._members.isdisjoint(VarSet.coerce(other)._members)

    def sorted(self) -> "VarSet":
        """Canonical order: head first, then dependents by index."""
        return VarSet(tuple(sorted(self._vars)))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self._vars)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "{" + ", ".join(self.names) + "}"


def dep_range(first: int, last: int) -> VarSet:
    """Dependents ``first..last`` inclusive; empty when ``first > last``."""
    if first < 1:
        raise ValidationError(f"dependent range must start at >= 1, got {first}")
    return VarSet(tuple(dep(i) for i in range(first, last + 1)))


# ---------------------------------------------------------------------------
# Factored model
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FactoredModel:
    """Head prior plus one conditional table per dependent.

    ``head_prior`` has shape ``(head size,)``; ``cond_tables[i]`` has shape
    ``(head size, size of dependent i+1)`` and each row is the distribution of
    that dependent given the head value.  Dependents are conditionally
    independent given the head by construction.
    """

    head_alphabet: Alphabet
    dep_alphabets: tuple[Alphabet, ...]
    head_prior: np.ndarray
    cond_tables: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dep_alphabets", tuple(self.dep_alphabets))
        object.__setattr__(
            self, "head_prior", np.asarray(self.head_prior, dtype=np.float64)
        )
        object.__setattr__(
            self,
            "cond_tables",
            tuple(np.asarray(t, dtype=np.float64) for t in self.cond_tables),
        )
        if len(self.cond_tables) != len(self.dep_alphabets):
            raise ValidationError(
                f"{len(self.dep_alphabets)} dependent alphabets but "
                f"{len(self.cond_tables)} conditional tables"
            )
        if self.n < 1:
            raise ValidationError("a model needs at least one dependent")
        _check_distribution(self.head_prior, (self.head_alphabet.size,), "head prior")
        for i, (table, alpha) in enumerate(zip(self.cond_tables, self.dep_alphabets), 1):
            expected = (self.head_alphabet.size, alpha.size)
            if table.shape != expected:
                raise ValidationError(
                    f"conditional table for dep{i} has shape {table.shape}, "
                    f"expected {expected}"
                )
            for row_i, row in enumerate(table):
                _check_distribution(row, (alpha.size,), f"conditional table for dep{i}, row {row_i}")
        self.head_prior.setflags(write=False)
        for t in self.cond_tables:
            t.setflags(write=False)

    @property
    def n(self) -> int:
        """Number of dependents."""
        return len(self.dep_alphabets)

    @property
    def has_identical_channels(self) -> bool:
        """True when every dependent shares one conditional table (exactly)."""
        first = self.cond_tables[0]
        return all(
            t.shape == first.shape and np.array_equal(t, first)
            for t in self.cond_tables[1:]
        )

    @cached_property
    def joint(self) -> "JointTable":
        """The exact joint table, built on first use and shared by every later query."""
        return build_joint(self)


def _check_distribution(p: np.ndarray, shape: tuple[int, ...], what: str) -> None:
    if p.shape != shape:
        raise ValidationError(f"{what} has shape {p.shape}, expected {shape}")
    valid = (p >= 0.0) & (p <= 1.0)  # False for NaN
    if not np.all(valid):
        bad = int(np.argmin(valid))
        raise ValidationError(f"{what}: entry {bad} is {float(p.flat[bad])!r}, outside [0, 1]")
    total = float(p.sum())
    if not abs(total - 1.0) <= PROB_SUM_TOL:
        raise ValidationError(f"{what} sums to {total!r}, expected 1 within {PROB_SUM_TOL}")


# ---------------------------------------------------------------------------
# Joint tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class JointTable:
    """A dense joint distribution over an ordered tuple of variables.

    Every information measure is arithmetic on :meth:`entropy_of`, the entropy
    of a subset of the axes, which each table memoises as it is asked for.
    """

    variables: tuple[Variable, ...]
    alphabets: tuple[Alphabet, ...]
    probs: np.ndarray = field(repr=False)
    #: Subset entropies by axis bitmask; floats only, filled on demand.
    _entropies: dict[int, float] = field(
        default_factory=lambda: {0: 0.0}, init=False, repr=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "alphabets", tuple(self.alphabets))
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=np.float64))
        if len(self.variables) != len(self.alphabets):
            raise ValidationError(
                f"{len(self.variables)} variables but {len(self.alphabets)} alphabets"
            )
        if len(set(self.variables)) != len(self.variables):
            raise ValidationError("duplicate variable in joint table")
        shape = tuple(a.size for a in self.alphabets)
        cells = math.prod(shape) if shape else 0
        if cells > MAX_JOINT_CELLS:
            raise JointSizeError(
                f"joint table would need {cells} cells, cap is {MAX_JOINT_CELLS}"
            )
        if self.probs.shape != shape:
            raise ValidationError(
                f"probability array has shape {self.probs.shape}, expected {shape}"
            )
        if not np.all(self.probs >= 0.0):  # False for NaN
            raise ValidationError("joint table has a negative or NaN entry")
        total = float(self.probs.sum())
        if not abs(total - 1.0) <= 1e-9:
            raise ValidationError(f"joint table sums to {total!r}, expected 1 within 1e-9")
        self.probs.setflags(write=False)

    # -- lookups ------------------------------------------------------------

    def axis_of(self, v: Variable) -> int:
        try:
            return self.variables.index(v)
        except ValueError:
            raise ValidationError(
                f"{v.name} is not a variable of this joint table "
                f"(has {[x.name for x in self.variables]})"
            ) from None

    @property
    def varset(self) -> VarSet:
        return VarSet(self.variables)

    # -- operations ----------------------------------------------------------

    def entropy_of(self, mask: int) -> float:
        """Entropy, in nats, of the marginal over the axes set in ``mask``.

        Bit ``i`` of ``mask`` selects axis ``i``; the empty mask has entropy 0.
        The other axes of ``probs`` are summed away directly, and the result
        is memoised by mask, so asking for a subset again costs a lookup.
        """
        h = self._entropies.get(mask)
        if h is None:
            if mask >> self.probs.ndim:
                raise ValidationError(f"mask {mask:#b} selects axes this table does not have")
            drop = tuple(i for i in range(self.probs.ndim) if not mask >> i & 1)
            p = self.probs.sum(axis=drop) if drop else self.probs
            p = p[p > 0.0]
            terms = np.log(p)
            terms *= p
            h = self._entropies[mask] = -float(terms.sum())
        return h

    def marginal(self, keep: VarSet | Variable | Iterable[Variable]) -> "JointTable":
        """Marginal over ``keep``; axis order of the result follows ``keep``.

        Marginalising over everything (``keep`` equal to all variables) is a
        permutation of axes; dropping all variables is an error.
        """
        keep = VarSet.coerce(keep)
        if len(keep) == 0:
            raise ValidationError("cannot marginalise away every variable")
        axes = [self.axis_of(v) for v in keep]
        drop = tuple(i for i in range(self.probs.ndim) if i not in axes)
        summed = self.probs.sum(axis=drop) if drop else self.probs
        remaining = [i for i in range(self.probs.ndim) if i not in drop]
        perm = [remaining.index(a) for a in axes]
        return JointTable(
            variables=tuple(keep),
            alphabets=tuple(self.alphabets[a] for a in axes),
            probs=np.ascontiguousarray(np.transpose(summed, perm)),
        )

    def condition(self, on: Variable, value: int) -> "JointTable":
        """The conditional joint over the remaining variables given ``on == value``."""
        axis = self.axis_of(on)
        if len(self.variables) == 1:
            raise ValidationError("conditioning would leave no variables")
        if not 0 <= value < self.alphabets[axis].size:
            raise ValidationError(
                f"value {value} outside alphabet of {on.name} "
                f"(size {self.alphabets[axis].size})"
            )
        slab = np.take(self.probs, value, axis=axis)
        mass = float(slab.sum())
        if mass <= 0.0:
            raise ZeroProbabilityError(
                f"cannot condition on {on.name}={value}: event has probability 0"
            )
        return JointTable(
            variables=tuple(v for v in self.variables if v != on),
            alphabets=tuple(a for i, a in enumerate(self.alphabets) if i != axis),
            probs=slab / mass,
        )

    def prob(self, assignment: dict[Variable, int]) -> float:
        """Probability of a full assignment (one value per variable)."""
        if set(assignment) != set(self.variables):
            raise ValidationError("assignment must cover exactly the table's variables")
        idx = tuple(assignment[v] for v in self.variables)
        return float(self.probs[idx])


def build_joint(model: FactoredModel) -> JointTable:
    """Materialise the exact joint table of a factored model.

    The variable order is canonical: head first, then dependents 1..n.  The
    joint is the outer product of the prior with each conditional table,
    contracted over the shared head axis.  A joint above ``MAX_JOINT_CELLS``
    cells is refused before any memory is allocated.
    """
    sizes = [model.head_alphabet.size] + [a.size for a in model.dep_alphabets]
    cells = math.prod(sizes)
    if cells > MAX_JOINT_CELLS:
        raise JointSizeError(f"joint table would need {cells} cells, cap is {MAX_JOINT_CELLS}")
    probs = model.head_prior.copy()
    for i, table in enumerate(model.cond_tables):
        # probs has shape (head, d1..di-1); append the axis for dependent i.
        probs = probs[..., np.newaxis] * table.reshape(
            (model.head_alphabet.size,) + (1,) * i + (table.shape[1],)
        )
    variables = (HEAD,) + tuple(dep(i) for i in range(1, model.n + 1))
    alphabets = (model.head_alphabet,) + model.dep_alphabets
    return JointTable(variables=variables, alphabets=alphabets, probs=probs)


# ---------------------------------------------------------------------------
# Factorisation check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """The pairwise cell farthest from independence given the head (a diagnostic)."""

    head_value: int
    pair: tuple[Variable, Variable]
    values: tuple[int, int]


@dataclass(frozen=True)
class CondIndepReport:
    """Result of checking that the dependents are independent given the head.

    ``max_violation`` is the total correlation given the head, in nats.
    """

    holds: bool
    max_violation: float
    tolerance: float
    witness: Witness | None


def check_factorization(joint: JointTable, tol: float = 1e-9) -> CondIndepReport:
    """Check that the dependents are mutually independent given the head.

    The measure is the total correlation given the head (Watanabe 1960),
    sum_i H(dep_i | head) - H(deps | head), in nats.  It is zero exactly when
    the joint factors as p(head) prod_i p(dep_i | head), including the cases
    that pairwise comparisons miss, such as a third dependent that is the xor
    of two others.  A single dependent is vacuously independent.

    When the check fails, ``witness`` names the pairwise cell with the largest
    |p(a, b | head) - p(a | head) p(b | head)|; it stays None when no pair of
    dependents shows a gap.
    """
    if tol <= 0:
        raise ValidationError(f"tolerance must be positive, got {tol}")
    if HEAD not in joint.varset:
        raise ValidationError("joint table has no head variable to condition on")
    deps = [v for v in joint.variables if not v.is_head]
    if len(deps) < 2:
        return CondIndepReport(holds=True, max_violation=0.0, tolerance=tol, witness=None)

    head = 1 << joint.axis_of(HEAD)
    h_head = joint.entropy_of(head)
    total = sum(joint.entropy_of(head | 1 << joint.axis_of(v)) - h_head for v in deps)
    total -= joint.entropy_of((1 << len(joint.variables)) - 1) - h_head
    violation = max(total, 0.0)
    if violation <= tol:
        return CondIndepReport(holds=True, max_violation=violation, tolerance=tol, witness=None)

    head_marg = joint.marginal(VarSet((HEAD,))).probs
    worst = 0.0
    witness: Witness | None = None
    for l in range(head_marg.shape[0]):
        if head_marg[l] <= 0.0:
            continue
        given = joint.condition(HEAD, l)
        for a, b in combinations(deps, 2):
            pair = given.marginal(VarSet((a, b))).probs
            pa = pair.sum(axis=1, keepdims=True)
            pb = pair.sum(axis=0, keepdims=True)
            gap = np.abs(pair - pa * pb)
            g = float(gap.max())
            if g > worst:
                ia, ib = np.unravel_index(int(np.argmax(gap)), gap.shape)
                worst = g
                witness = Witness(head_value=l, pair=(a, b), values=(int(ia), int(ib)))
    return CondIndepReport(holds=False, max_violation=violation, tolerance=tol, witness=witness)
