"""Discrete distributions over a head and its dependents.

The objects here describe a two-layer generative story for a phrase: a head
element is drawn from a prior, then each of ``n`` dependents is drawn
independently from a conditional table given the head.  Every information
measure is arithmetic on subset entropies (``entropy_of(mask)``), and two
objects give them exactly.  A ``FactoredModel`` builds each subset's marginal
from the head prior and that subset's own conditional tables, which the
relation checks, the head-position search and the profiles read.  A
``JointTable`` sums the marginal out of a dense joint; it serves joint files,
sampling and scoring, and the direct-summation path that the identity checks
compare against.  Every dense product, the joint and each of the model's
marginals, is materialised up to ``MAX_JOINT_CELLS`` cells rather than
approximated, and refused above that before any memory is allocated.
``check_factorization`` measures, in nats, how far a joint is from factoring.

Probabilities are plain float64 numpy arrays.  Validation is strict: entries
must be numbers in [0, 1] (NaN is rejected), rows must sum to one within a
small tolerance, and conditioning on an impossible event raises instead of
silently renormalising garbage.  Each of a model's tables is checked whole,
and an error names its first bad row.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Protocol, Sequence

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


def as_integer(value: object) -> int:
    """``operator.index``, and a ``bool`` is refused too: JSON true/false is not an integer."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not an integer")
    return operator.index(value)


# ---------------------------------------------------------------------------
# Alphabets and variables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Alphabet:
    """A finite value set ``{0, ..., size - 1}`` with optional distinct string labels."""

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
            if len({x for x in self.labels if isinstance(x, str)}) < self.size:
                raise ValidationError(f"labels must be distinct strings, got {list(self.labels)}")

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


def variables_of(group: Variable | Iterable[Variable]) -> tuple[Variable, ...]:
    """A group of variables as a tuple: one ``Variable``, or an iterable of
    distinct ones in the order given (possibly none)."""
    try:
        vs = (group,) if isinstance(group, Variable) else tuple(group)
    except TypeError:
        raise ValidationError(f"a group of variables must be iterable, got {group!r}") from None
    for v in vs:
        if not isinstance(v, Variable):
            raise ValidationError(f"a group holds Variable elements, got {v!r}")
    if len(set(vs)) != len(vs):
        raise ValidationError(f"duplicate variable in {[v.name for v in vs]}")
    return vs


def dep_range(first: int, last: int) -> tuple[Variable, ...]:
    """Dependents ``first..last`` inclusive; empty when ``first > last``."""
    if first < 1:
        raise ValidationError(f"dependent range must start at >= 1, got {first}")
    return tuple(dep(i) for i in range(first, last + 1))


# ---------------------------------------------------------------------------
# Subset entropies
# ---------------------------------------------------------------------------


class EntropySource(Protocol):
    """Anything that gives subset entropies: a ``JointTable`` or a ``FactoredModel``."""

    def entropy_of(self, mask: int) -> float:
        """Entropy, in nats, of the marginal over the axes set in ``mask``."""


def _entropy(p: np.ndarray) -> float:
    """Shannon entropy, in nats, of the cells of ``p``, with ``0 * log 0 = 0``.

    The cells are summed in C order without the zeros, from a view of ``p``
    when it has none."""
    p = p.ravel() if p.min() > 0.0 else p[p > 0.0]
    terms = np.log(p)
    terms *= p
    return -float(terms.sum())


def _check_cells(shape: Sequence[int]) -> None:
    """Refuse a dense table of ``shape`` above ``MAX_JOINT_CELLS`` cells."""
    cells = math.prod(shape)
    if cells > MAX_JOINT_CELLS:
        raise JointSizeError(f"joint table would need {cells} cells, cap is {MAX_JOINT_CELLS}")


def _product(head_prior: np.ndarray, tables: Sequence[np.ndarray]) -> np.ndarray:
    """p(head) times each table's p(dep | head): the joint over the head and
    those dependents, one axis each in the order given.  A product above
    ``MAX_JOINT_CELLS`` cells is refused before any memory is allocated."""
    _check_cells((head_prior.shape[0], *(table.shape[1] for table in tables)))
    probs = head_prior
    for i, table in enumerate(tables):
        # probs has shape (head, d1..di-1); append the axis for dependent i.
        probs = probs[..., np.newaxis] * table.reshape(
            (head_prior.shape[0],) + (1,) * i + (table.shape[1],)
        )
    return probs


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
    #: Subset entropies by axis bitmask; floats only, filled on demand.
    _entropies: dict[int, float] = field(
        default_factory=lambda: {0: 0.0}, init=False, repr=False
    )

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
            _check_distribution(table, (self.head_alphabet.size, alpha.size),
                                f"conditional table for dep{i}")
        self.head_prior.setflags(write=False)
        for t in self.cond_tables:
            t.setflags(write=False)

    @property
    def n(self) -> int:
        """Number of dependents."""
        return len(self.dep_alphabets)

    @cached_property
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

    def entropy_of(self, mask: int) -> float:
        """Entropy, in nats, of the marginal over the axes set in ``mask``,
        read off the factors without the dense joint.

        Bit 0 of ``mask`` is the head and bit ``i`` dependent ``i``, the axes
        of ``joint``; the empty mask has entropy 0.  The dependents are
        independent given the head, so the marginal over the head and the
        masked dependents is the prior times those dependents' tables alone;
        without the head bit, the head axis is summed away.  The result is
        memoised by mask, together with that of the mask with the head bit
        flipped, which the same product gives.
        """
        h = self._entropies.get(mask)
        if h is None:
            if mask >> self.n + 1:
                raise ValidationError(f"mask {mask:#b} selects axes this model does not have")
            # One product gives both H(head, S) and H(S), and the relation
            # plans ask for both of most of their sets S.
            p = _product(self.head_prior,
                         [t for i, t in enumerate(self.cond_tables, 1) if mask >> i & 1])
            self._entropies[mask | 1] = _entropy(p)
            if mask > 1:
                self._entropies[mask & ~1] = _entropy(p.sum(axis=0))
            h = self._entropies[mask]
        return h


def _check_distribution(p: np.ndarray, shape: tuple[int, ...], what: str) -> None:
    """Refuse ``p`` unless it has ``shape`` and each row on its last axis is a distribution."""
    if p.shape != shape:
        raise ValidationError(f"{what} has shape {p.shape}, expected {shape}")
    rows = p.reshape(-1, shape[-1])
    valid = (rows >= 0.0) & (rows <= 1.0)  # False for NaN
    totals = rows.sum(axis=1)
    good = valid.all(axis=1) & (np.abs(totals - 1.0) <= PROB_SUM_TOL)
    if not good.all():
        r = int(np.argmin(good))
        where = f"{what}, row {r}" if p.ndim > 1 else what
        if not valid[r].all():
            bad = int(np.argmin(valid[r]))
            raise ValidationError(
                f"{where}: entry {bad} is {float(rows[r, bad])!r}, outside [0, 1]")
        raise ValidationError(
            f"{where} sums to {float(totals[r])!r}, expected 1 within {PROB_SUM_TOL}")


# ---------------------------------------------------------------------------
# Joint tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class JointTable:
    """A dense joint distribution over an ordered tuple of variables.

    :meth:`entropy_of` gives the entropy of a subset of the axes, summed out of
    the dense table and memoised as it is asked for.
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
        _check_cells(shape)
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
            h = self._entropies[mask] = _entropy(self.probs.sum(axis=drop) if drop else self.probs)
        return h

    def marginal(self, keep: Variable | Iterable[Variable]) -> "JointTable":
        """Marginal over ``keep``; axis order of the result follows ``keep``.

        Marginalising over everything (``keep`` equal to all variables) is a
        permutation of axes; dropping all variables is an error.
        """
        keep = variables_of(keep)
        if not keep:
            raise ValidationError("cannot marginalise away every variable")
        axes = [self.axis_of(v) for v in keep]
        drop = tuple(i for i in range(self.probs.ndim) if i not in axes)
        summed = self.probs.sum(axis=drop) if drop else self.probs
        remaining = [i for i in range(self.probs.ndim) if i not in drop]
        perm = [remaining.index(a) for a in axes]
        return JointTable(
            variables=keep,
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


def build_joint(model: FactoredModel) -> JointTable:
    """Materialise the exact joint table of a factored model.

    The variable order is canonical: head first, then dependents 1..n.  The
    joint is the outer product of the prior with each conditional table,
    contracted over the shared head axis.  A joint above ``MAX_JOINT_CELLS``
    cells is refused before any memory is allocated.
    """
    probs = _product(model.head_prior, model.cond_tables)
    variables = (HEAD,) + tuple(dep(i) for i in range(1, model.n + 1))
    alphabets = (model.head_alphabet,) + model.dep_alphabets
    return JointTable(variables=variables, alphabets=alphabets, probs=probs)


# ---------------------------------------------------------------------------
# Factorisation check
# ---------------------------------------------------------------------------


def check_factorization(joint: JointTable) -> float:
    """How far the dependents are from mutual independence given the head:
    their total correlation given the head (Watanabe 1960), in nats.

    The measure is sum_i H(dep_i | head) - H(deps | head).  It is zero
    exactly when the joint factors as p(head) prod_i p(dep_i | head),
    including the cases that pairwise comparisons miss, such as a third
    dependent that is the xor of two others.  Rounding below zero is clamped
    to 0.0, and fewer than two dependents give 0.0.
    """
    if HEAD not in joint.variables:
        raise ValidationError("joint table has no head variable to condition on")
    deps = [v for v in joint.variables if not v.is_head]
    if len(deps) < 2:
        return 0.0
    head = 1 << joint.axis_of(HEAD)
    h_head = joint.entropy_of(head)
    total = sum(joint.entropy_of(head | 1 << joint.axis_of(v)) - h_head for v in deps)
    total -= joint.entropy_of((1 << len(joint.variables)) - 1) - h_head
    return max(total, 0.0)
