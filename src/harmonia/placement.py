"""Where to put the head: incremental predictability of linear orders.

A placement lays the head and its dependents out as a sequence.  After ``k``
elements have been produced, two things can be asked of the produced prefix:
how much it says about everything still pending (remainder predictability)
and how much it says about one particular pending element.  The functions
here compute those quantities exactly and check the order relations between
them that hold for factored head/dependent models.

Each relation compares two mutual informations, and each inequality becomes
an equality exactly when one Markov chain X -> Y -> Z holds (the
data-processing condition).  A check carries that chain as data: it is
diagnosed on the same entropies when the two sides are close, and its
display text (``head -> dep1 -> dep2..3``) is derived from it.  A statement
whose sides are the same entropies, such as I(head; dep1) against
I(dep1; head), could catch no error, so a plan has no row for it.

Which relations apply depends only on ``n`` and the stage.  So each family
is stated once, as a plan: ``PlanEntry`` rows whose sides are axis bitmasks
(bit 0 the head, bit ``i`` dependent ``i``), on any source over head,
dep1..n: a model, which reads each marginal off its factors and never builds
the dense joint, or a joint file's table, with its axes in the order the file
loader produces.  ``_evaluate`` computes a plan on a list of sources with one
``information.mi_rows`` call, as ``placement_profile`` (one ``StageRow`` per
stage) and ``optimal_head_position`` (the scores and best ones) compute theirs;
``verify_pending_theorem`` and the other checkers validate their arguments and
evaluate their family's plan on one source.  ``RelationCheck`` is the one
verdict type from plan to report row; its slack and verdict derive from its sides.

Two families of relations need different care:

* Relations that hold for every factored model: the remainder inequalities,
  the produced-head dominance at the current slot, the no-head dominance, the
  irrelevance of produced dependents for pending ones, and the growth of head
  predictability.
* Relations that compare *different* dependent slots against each other.
  Those hold when the dependents share one conditional table (identical
  channels) and can fail otherwise; each docstring says which regime it
  needs, and each such plan entry carries ``cross_slot=True``.  The battery
  plan of :mod:`harmonia.sweep` leaves them out for per-slot models.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cache
from typing import Iterator, NamedTuple, Sequence

from .distributions import (
    HEAD,
    EntropySource,
    FactoredModel,
    JointTable,
    ValidationError,
    Variable,
    dep,
)
from .information import (
    DEFAULT_TOLERANCE,
    MarkovVerdict,
    Nats,
    check_tolerance,
    markov_of,
    mi_rows,
    mutual_information,
)

# ---------------------------------------------------------------------------
# Placements and stage views
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Placement:
    """A linear order: ``n`` dependents with the head inserted at ``head_position``.

    Positions are 1-based; ``head_position = 1`` is head-first and
    ``head_position = n + 1`` is head-last.  ``dependent_order`` is the
    left-to-right order of dependent indices and defaults to ``1..n``.
    """

    n: int
    head_position: int
    dependent_order: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError(f"a placement needs n >= 1 dependents, got {self.n}")
        if not 1 <= self.head_position <= self.n + 1:
            raise ValidationError(
                f"head position {self.head_position} outside 1..{self.n + 1}"
            )
        order = tuple(self.dependent_order) or tuple(range(1, self.n + 1))
        object.__setattr__(self, "dependent_order", order)
        if sorted(order) != list(range(1, self.n + 1)):
            raise ValidationError(
                f"dependent order {order} is not a permutation of 1..{self.n}"
            )

    @classmethod
    def head_first(cls, n: int, dependent_order: tuple[int, ...] = ()) -> "Placement":
        return cls(n=n, head_position=1, dependent_order=dependent_order)

    @classmethod
    def head_last(cls, n: int, dependent_order: tuple[int, ...] = ()) -> "Placement":
        return cls(n=n, head_position=n + 1, dependent_order=dependent_order)

    def sequence(self) -> tuple[Variable, ...]:
        """All n + 1 elements in production order."""
        deps = [dep(i) for i in self.dependent_order]
        return tuple(
            deps[: self.head_position - 1] + [HEAD] + deps[self.head_position - 1 :]
        )


@dataclass(frozen=True)
class StageView:
    """The split of a placement after ``k`` elements have been produced, each
    part in production order."""

    placement: Placement
    k: int
    produced: tuple[Variable, ...]
    pending: tuple[Variable, ...]


def stage_view(placement: Placement, k: int) -> StageView:
    """Stage ``k`` of a placement, for ``0 <= k <= n + 1``."""
    total = placement.n + 1
    if not 0 <= k <= total:
        raise ValidationError(f"stage k={k} outside 0..{total}")
    seq = placement.sequence()
    return StageView(
        placement=placement,
        k=k,
        produced=seq[:k],
        pending=seq[k:],
    )


def remainder_predictability(joint: JointTable, view: StageView) -> Nats:
    """I(produced; pending) at a mid-sequence stage (``1 <= k <= n``).

    Depends only on the produced *set*, so permuting the prefix cannot change
    the value.
    """
    if not 1 <= view.k <= view.placement.n:
        raise ValidationError(
            f"remainder predictability needs 1 <= k <= n, got k={view.k} "
            f"with n={view.placement.n}"
        )
    return mutual_information(joint, view.produced, view.pending)


# ---------------------------------------------------------------------------
# Relation checks
# ---------------------------------------------------------------------------


class Relation(enum.Enum):
    LE = "<="
    GE = ">="
    EQ = "=="


#: A Markov chain X -> Y -> Z as three axis bitmasks.  Each group is the head,
#: one dependent or a contiguous range of dependents.
Chain = tuple[int, int, int]

_LE, _GE = Relation.LE, Relation.GE  # read by RelationCheck.slack without a class lookup


def _label(mask: int) -> str:
    """Display name of a chain group: ``head``, ``dep3`` or ``dep1..4``."""
    first, last = (mask & -mask).bit_length() - 1, mask.bit_length() - 1
    name = Variable(first).name
    return name if first == last else f"{name}..{last}"


@dataclass(frozen=True, slots=True)
class RelationCheck:
    """One verified order relation between two exact information quantities.

    ``slack`` measures how comfortably the relation holds (negative means
    violated): ``rhs - lhs`` for LE, ``lhs - rhs`` for GE and ``-|lhs - rhs|``
    for EQ; the relation ``holds`` when ``slack >= -tolerance``.  Both are
    derived from the sides, so a check cannot contradict itself.  ``chain`` is
    the Markov chain, as axis bitmasks, whose truth makes the two sides equal,
    or None when the relation has none to diagnose (an identity, a bound, or a
    relation that is an equality outright).  When the two sides are within
    ``10 * tolerance`` of each other the chain is tested and the verdict
    stored in ``equality_diagnosis``; otherwise it is None.  A sweep keeps
    tens of thousands of checks, hence the slots.
    """

    name: str
    relation: Relation
    lhs: Nats
    rhs: Nats
    tolerance: float
    chain: Chain | None = None
    equality_diagnosis: MarkovVerdict | None = None

    @property
    def slack(self) -> float:
        if self.relation is _LE:
            return self.rhs - self.lhs
        if self.relation is _GE:
            return self.lhs - self.rhs
        return -abs(self.lhs - self.rhs)

    @property
    def holds(self) -> bool:
        return self.slack >= -self.tolerance

    @property
    def equality_condition(self) -> str:
        """The chain as text, e.g. ``head -> dep1 -> dep2..3``; empty without one."""
        return " -> ".join(_label(g) for g in self.chain) if self.chain else ""

    def __reduce__(self):
        # Pool workers pickle every check; the default frozen-slots state is ~3x slower.
        return (RelationCheck, (self.name, self.relation, self.lhs, self.rhs, self.tolerance,
                                self.chain, self.equality_diagnosis))


def relation_check(
    name: str,
    relation: Relation,
    lhs: Nats,
    rhs: Nats,
    tol: float,
    source: EntropySource | None = None,
    chain: Chain | None = None,
) -> RelationCheck:
    """The one way to build a ``RelationCheck``.

    ``tol = 0.0`` makes an exact check (EQ then holds only on ``lhs == rhs``);
    a bound ``|value| <= tol`` is EQ of ``value`` against ``0.0``.  A
    ``chain`` is diagnosed on ``source``'s entropies when the two sides are
    within ``10 * tol``.  ``tol`` must be a finite number >= 0.
    """
    check_tolerance(tol)
    diagnosis = None
    if chain is not None and abs(lhs - rhs) <= 10.0 * tol:
        diagnosis = markov_of(source, *chain, tol)
    return RelationCheck(name, relation, lhs, rhs, tol, chain, diagnosis)


# ---------------------------------------------------------------------------
# Relation plans
# ---------------------------------------------------------------------------

#: Axis bitmask of the head; dependent ``i`` is ``1 << i``.
HEAD_MASK = 1


def deps_mask(first: int, last: int) -> int:
    """Axis bitmask of dependents ``first..last``; 0 when ``first > last``."""
    return (1 << last + 1) - (1 << first) if first <= last else 0


class PlanEntry(NamedTuple):
    """One relation of a plan.  Each side is the masks ``(x, y)`` of I(X; Y)
    or ``(x, y, z)`` of I(X; Y | Z), and ``(0, 0)`` is 0.0.  ``tol`` None is
    the evaluation's tolerance.  ``cross_slot`` marks a relation that compares
    different dependent slots, guaranteed only under identical channels; the
    other fields pass to ``relation_check``."""

    theorem: str
    name: str
    relation: Relation
    lhs: tuple[int, ...]
    rhs: tuple[int, ...]
    tol: float | None = None
    chain: Chain | None = None
    cross_slot: bool = False


def _evaluate(sources: Sequence[EntropySource], plan: Sequence[PlanEntry], tol: float,
              sides: Sequence[tuple[int, ...]] = ()) -> list[tuple[list[RelationCheck], list]]:
    """Per source, whose axes must be head, dep1..n for the plan's ``n``: the
    checks of ``plan`` and the values of ``sides``, from one ``mi_rows`` call."""
    count = len(plan)
    rows = mi_rows(sources, [e.lhs for e in plan] + [e.rhs for e in plan] + [*sides])
    return [([relation_check(e.name, e.relation, lhs, rhs, tol if e.tol is None else e.tol,
                             source, e.chain) for e, lhs, rhs in zip(plan, values, values[count:])],
             values[2 * count:]) for source, values in zip(sources, rows)]


def _dependents(source: EntropySource) -> int:
    """``n`` of a source over head, dep1..n in that axis order, the order plan
    masks assume.  A model's axes always are; any other joint is refused
    rather than misread."""
    if isinstance(source, FactoredModel):
        return source.n
    n = len(source.variables) - 1
    if n < 1 or [v.index for v in source.variables] != list(range(n + 1)):
        raise ValidationError(
            "relation checks need a joint over head, dep1..n in that axis order, "
            f"got {[v.name for v in source.variables]}"
        )
    return n


# ---------------------------------------------------------------------------
# Remainder predictability relations (hold for every factored model)
# ---------------------------------------------------------------------------


def remainder_plan(n: int) -> list[PlanEntry]:
    """The plan of ``remainder_relation_checks`` for ``n`` dependents."""
    all_deps, rest, lead = deps_mask(1, n), deps_mask(2, n), deps_mask(1, n - 1)
    return [
        PlanEntry("remainder", "remainder k=1 (head first)", Relation.GE, (HEAD_MASK, all_deps),
                  (1 << 1, HEAD_MASK | rest), chain=(HEAD_MASK, 1 << 1, rest)),
        PlanEntry("remainder", f"remainder k={n} (head last)", Relation.GE, (all_deps, HEAD_MASK),
                  (HEAD_MASK | lead, 1 << n), chain=(lead, 1 << n, HEAD_MASK)),
    ] if n > 1 else []


def remainder_relation_checks(
    source: EntropySource, tol: float = DEFAULT_TOLERANCE
) -> tuple[RelationCheck, ...]:
    """The two boundary remainder relations, evaluated on a factored model or
    on any joint over head, dep1..n (in that axis order).

    Head-first: producing the head first tells you at least as much about the
    rest as producing the first dependent would, I(head; deps) >=
    I(dep1; head + other deps).  Head-last: the mirror image at the final
    stage.  For n = 1 both read I(head; dep1) against I(dep1; head), the same
    entropies, so there is no check.  On a non-factored joint either relation
    can fail, which is exactly what these checks are for.
    """
    return tuple(_evaluate([source], remainder_plan(_dependents(source)), tol)[0][0])


def verify_remainder_theorem(
    model: FactoredModel, tol: float = DEFAULT_TOLERANCE
) -> tuple[RelationCheck, ...]:
    """Remainder relations on the exact entropies of a factored model."""
    return remainder_relation_checks(model, tol)


# ---------------------------------------------------------------------------
# Pending-element relations
# ---------------------------------------------------------------------------


def pending_plan(k: int, j: int) -> list[PlanEntry]:
    """The plan of ``verify_pending_theorem(model, k, j)``."""
    first_k, lead, target = deps_mask(1, k), deps_mask(1, k - 1), 1 << j
    with_head, without_head = (HEAD_MASK | lead, target), (first_k, target)
    head_pred = (first_k, HEAD_MASK)
    rows = [
        # part, relation, lhs, rhs, chain, cross_slot.  At k = 1 part 1 reads
        # I(head; dep j) <= I(dep1; head): MI symmetry when j = 1, and with no
        # produced dependent there is no chain to diagnose.
        ("part1", Relation.EQ if k == j == 1 else Relation.LE, with_head, head_pred,
         None if k == 1 else (HEAD_MASK, target, lead), j > k),
        ("part2", Relation.LE, without_head, head_pred, (first_k, target, HEAD_MASK), False),
        ("part3", Relation.LE, without_head, with_head, (HEAD_MASK, first_k, target), False),
    ]
    return [
        PlanEntry("pending", f"pending {part} k={k} j={j}", relation, lhs, rhs,
                  chain=chain, cross_slot=cross_slot)
        for part, relation, lhs, rhs, chain, cross_slot in rows[: 3 if j > k else 1]
    ]


def verify_pending_theorem(
    model: FactoredModel, k: int, j: int, tol: float = DEFAULT_TOLERANCE
) -> tuple[RelationCheck, ...]:
    """Relations between head predictability and pending-dependent predictability.

    With ``k`` produced elements and a pending dependent ``j`` (``k <= j <= n``):

    * part 1: producing the head early cannot beat knowing the first ``k``
      dependents about the head, I(head + dep1..k-1; dep j) <= I(dep1..k; head).
      Guaranteed for every factored model at ``j == k``; for ``j > k`` it
      additionally needs the pending slots to share the produced slots'
      conditional table (identical channels).
    * part 2 (``j > k`` only): without the head produced, a pending dependent
      is never more predictable than the head, I(dep1..k; dep j) <=
      I(dep1..k; head).  Holds for every factored model.
    * part 3 (``j > k`` only): trading the most recent dependent for the head
      never hurts when predicting a pending dependent, I(dep1..k; dep j) <=
      I(head + dep1..k-1; dep j).  Holds for every factored model.
    """
    n = model.n
    if not 1 <= k <= n:
        raise ValidationError(f"k={k} outside 1..{n}")
    if not k <= j <= n:
        raise ValidationError(f"j={j} outside the pending range {k}..{n}")
    return tuple(_evaluate([model], pending_plan(k, j), tol)[0][0])


def irrelevance_plan(k: int, j: int) -> list[PlanEntry]:
    """The plan of ``verify_irrelevance(model, k, j)``."""
    lhs, rhs = (HEAD_MASK | deps_mask(1, k), 1 << j), (HEAD_MASK, 1 << j)
    return [PlanEntry("irrelevance", f"irrelevance k={k} j={j}", Relation.EQ, lhs, rhs)]


def verify_irrelevance(
    model: FactoredModel, k: int, j: int, tol: float = DEFAULT_TOLERANCE
) -> RelationCheck:
    """Produced dependents add nothing about a pending one beyond the head.

    I(head + dep1..k; dep j) == I(head; dep j) for ``1 <= k < j <= n``.  An
    exact equality on every factored model: given the head, dependents are
    independent, so the produced ones cannot inform a pending one.
    """
    n = model.n
    if not 1 <= k < j <= n:
        raise ValidationError(f"need 1 <= k < j <= n, got k={k}, j={j}, n={n}")
    return _evaluate([model], irrelevance_plan(k, j), tol)[0][0][0]


# ---------------------------------------------------------------------------
# The stage-k lattice
# ---------------------------------------------------------------------------


def lattice_plan(n: int, k: int) -> list[PlanEntry]:
    """The plan of ``lattice_report(model, k)`` for ``n`` dependents.

    The relations compare six predictability cells around stage ``k``
    (``*_k1`` means "at stage k + 1"):

    * ``head_pred_k``:      I(dep1..k; head)
    * ``head_pred_k1``:     I(dep1..k+1; head)
    * ``dep_with_head_k``:  I(head + dep1..k-1; dep k)
    * ``dep_with_head_k1``: I(head + dep1..k; dep k+1)
    * ``dep_without_head_k``:  I(dep1..k; dep k+1)
    * ``dep_without_head_k1``: I(dep1..k+1; dep k+2), read only when k + 2 <= n
    """
    first_k, lead, dep_k, dep_k1, dep_k2 = (
        deps_mask(1, k), deps_mask(1, k - 1), 1 << k, 1 << k + 1, 1 << k + 2)
    cell = {
        "head_pred_k": (first_k, HEAD_MASK),
        "head_pred_k1": (first_k | dep_k1, HEAD_MASK),
        "dep_with_head_k": (HEAD_MASK | lead, dep_k),
        "dep_with_head_k1": (HEAD_MASK | first_k, dep_k1),
        "dep_without_head_k": (first_k, dep_k1),
        "dep_without_head_k1": (first_k | dep_k1, dep_k2),
    }
    rows = [
        # number, title, relation, lhs cell, rhs cell, chain, cross_slot
        (1, "head-predictability-grows", Relation.LE, "head_pred_k", "head_pred_k1",
         (dep_k1, first_k, HEAD_MASK), False),
        (2, "head-beats-dep-at-k", Relation.LE, "dep_with_head_k", "head_pred_k",
         (HEAD_MASK, dep_k, lead), False),
        (3, "head-beats-dep-at-k+1", Relation.LE, "dep_with_head_k1", "head_pred_k1",
         (HEAD_MASK, dep_k1, first_k), False),
        # Equal when the pending slots are identically distributed given the head.
        (4, "produced-deps-do-not-help", Relation.EQ, "dep_with_head_k", "dep_with_head_k1",
         None, True),
        (5, "early-head-helps-at-k", Relation.LE, "dep_without_head_k", "dep_with_head_k",
         (HEAD_MASK, first_k, dep_k1) if k > 1 else (dep_k, dep_k1, HEAD_MASK), k > 1),
        (6, "early-head-helps-at-k+1", Relation.LE, "dep_without_head_k1", "dep_with_head_k1",
         (HEAD_MASK, first_k | dep_k1, dep_k2), True),
        (7, "dep-predictability-grows", Relation.LE, "dep_without_head_k",
         "dep_without_head_k1", (dep_k1, first_k, dep_k2), True),
    ]
    return [
        PlanEntry("lattice", f"lattice k={k} ({number}) {title}", relation, cell[lhs], cell[rhs],
                  chain=chain, cross_slot=cross_slot)
        for number, title, relation, lhs, rhs, chain, cross_slot in rows[: 7 if k + 2 <= n else 5]
        if k > 1 or number != 2  # at k = 1, (2) reads I(head; dep1) <= I(dep1; head)
    ]


def lattice_report(
    model: FactoredModel, k: int, tol: float = DEFAULT_TOLERANCE
) -> tuple[RelationCheck, ...]:
    """Check the seven stage-``k`` relations of ``lattice_plan``.

    Relations (1) head predictability grows, (2)/(3) the produced head beats
    the produced dependents at the current slot, hold on every factored
    model; at ``k = 1``, (2) reads I(head; dep1) <= I(dep1; head) and has no
    row.  Relations (4) produced dependents do not help, (5)/(6) an early head
    helps pending dependents, and (7) pending-dependent predictability grows,
    compare different slots and are guaranteed under identical channels; (5)
    at ``k = 1`` has slack I(dep1; head | dep2).  (6) and (7) need a slot ``k + 2``.
    """
    n = model.n
    if not 1 <= k < n:
        raise ValidationError(f"lattice stage needs 1 <= k < n, got k={k}, n={n}")
    return tuple(_evaluate([model], lattice_plan(n, k), tol)[0][0])


# ---------------------------------------------------------------------------
# Profiles and head-position search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageRow:
    """Predictability figures after the first ``k`` elements of a placement."""

    k: int
    remainder: Nats
    pending_elements: tuple[tuple[Variable, Nats], ...]


def placement_profile(source: EntropySource, placement: Placement) -> tuple[StageRow, ...]:
    """Remainder and per-pending-element predictability at every stage, on a
    factored model or a joint over head, dep1..n.

    Row ``k = 0`` is all zeros by the empty-prefix convention; there is no row
    for ``k = n + 1`` because nothing is pending there.
    """
    n = _dependents(source)
    if n != placement.n:
        raise ValidationError(f"placement has {placement.n} dependents, the source has {n}")
    seq = placement.sequence()
    masks = [1 << v.index for v in seq]
    values = iter(mi_rows([source], [(sum(masks[:k]), m) for k in range(n + 1)
                                     for m in (sum(masks[k:]), *masks[k:])])[0])
    return tuple(StageRow(k, next(values), tuple((v, next(values)) for v in seq[k:]))
                 for k in range(n + 1))


class Objective(enum.Enum):
    """What a head position is optimised for."""

    HEAD_PREDICTABILITY = "head"
    DEPENDENT_PREDICTABILITY = "dependent"
    REMAINDER_AT_K = "remainder"


@dataclass(frozen=True)
class PlacementSearchResult:
    """Scores for every head position (1..n+1) and the tied argmax set.

    Per-stage detail for a position comes from ``placement_profile``.
    """

    scores: tuple[Nats, ...]
    best_positions: tuple[int, ...]


@cache
def _score_pairs(objective: Objective, n: int, k: int | None, order: tuple[int, ...]) -> tuple:
    """The (x, y) masks of the mutual informations that make each head
    position's score, for positions 1..n+1 with the dependents in ``order``."""
    masks = [1 << i for i in order]
    seqs = [masks[:p] + [HEAD_MASK] + masks[p:] for p in range(n + 1)]
    if objective is Objective.HEAD_PREDICTABILITY:
        return tuple(((sum(seq[:p]), HEAD_MASK),) for p, seq in enumerate(seqs))
    if objective is Objective.DEPENDENT_PREDICTABILITY:
        return tuple(tuple((seq[0], m) for m in seq[1:] if m != HEAD_MASK) for seq in seqs)
    return tuple(((sum(seq[:k]), sum(seq[k:])),) for seq in seqs)


def _scores(values: Iterator[Nats], positions: tuple, aggregate: str) -> list[Nats]:
    """Each position's score, from ``values`` read in ``_score_pairs`` order: the min or mean
    of its pairs' values, or 0.0 for none (n = 1 with the head second leaves none pending)."""
    if aggregate not in ("min", "mean"):
        raise ValidationError(f"aggregate must be 'min' or 'mean', got {aggregate!r}")
    taken = ([next(values) for _ in pairs] or [0.0] for pairs in positions)
    return [min(t) if aggregate == "min" else sum(t) / len(t) for t in taken]


def optimal_head_position(
    model: FactoredModel,
    objective: Objective | str,
    k: int | None = None,
    dependent_order: tuple[int, ...] = (),
    aggregate: str = "min",
    tol: float = DEFAULT_TOLERANCE,
) -> PlacementSearchResult:
    """Search head positions ``1..n+1`` for the best score under an objective.

    * ``HEAD_PREDICTABILITY``: information the dependents produced before the
      head carry about it.  Position ``n + 1`` always attains the maximum.
    * ``DEPENDENT_PREDICTABILITY``: at stage 1, the aggregated (min or mean)
      information the first element carries about each pending dependent.
      Position 1 always attains the maximum.
    * ``REMAINDER_AT_K``: I(produced; pending) at stage ``k``, the one objective that takes ``k``.

    Exact ties (within ``tol``, a finite number >= 0) are all returned, never
    broken arbitrarily.
    """
    objective = Objective(objective)
    check_tolerance(tol)
    n = model.n
    if objective is Objective.REMAINDER_AT_K:
        if k is None:
            raise ValidationError("REMAINDER_AT_K needs a stage k")
        if not 1 <= k <= n:
            raise ValidationError(f"stage k={k} outside 1..{n}")
    elif k is not None:
        raise ValidationError(f"a stage k is for the remainder objective only, got k={k}")
    positions = _score_pairs(objective, n, k, Placement(n, 1, dependent_order).dependent_order)
    (values,) = mi_rows([model], [pair for pairs in positions for pair in pairs])
    scores = _scores(iter(values), positions, aggregate)
    best = max(scores)
    return PlacementSearchResult(
        scores=tuple(scores),
        best_positions=tuple(p for p, s in enumerate(scores, start=1) if best - s <= tol),
    )
