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
diagnosed on the joint when the two sides are close, and its display text
(``head -> dep1 -> dep2..3``) is derived from it.

Two families of relations need different care:

* Relations that hold for every factored model: the remainder inequalities,
  the produced-head dominance at the current slot, the no-head dominance, the
  irrelevance of produced dependents for pending ones, and the growth of head
  predictability.
* Relations that compare *different* dependent slots against each other.
  Those hold when the dependents share one conditional table (identical
  channels) and can fail otherwise; each docstring says which regime it
  needs, and each such check carries ``cross_slot=True``.
  ``theorem_battery`` in :mod:`harmonia.sweep` selects on that field.

The functions that take a ``FactoredModel`` share its one cached joint
(``FactoredModel.joint``) and with it the joint's memoised subset entropies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .distributions import (
    HEAD,
    FactoredModel,
    JointTable,
    ValidationError,
    Variable,
    VarSet,
    dep,
    dep_range,
)
from .information import (
    DEFAULT_TOLERANCE,
    MarkovVerdict,
    Nats,
    is_markov_chain,
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

    def element_at(self, position: int) -> Variable:
        """The element produced at 1-based ``position``."""
        if not 1 <= position <= self.n + 1:
            raise ValidationError(f"position {position} outside 1..{self.n + 1}")
        return self.sequence()[position - 1]


@dataclass(frozen=True)
class StageView:
    """The split of a placement after ``k`` elements have been produced."""

    placement: Placement
    k: int
    produced: VarSet
    pending: VarSet


def stage_view(placement: Placement, k: int) -> StageView:
    """Stage ``k`` of a placement, for ``0 <= k <= n + 1``."""
    total = placement.n + 1
    if not 0 <= k <= total:
        raise ValidationError(f"stage k={k} outside 0..{total}")
    seq = placement.sequence()
    return StageView(
        placement=placement,
        k=k,
        produced=VarSet(seq[:k]),
        pending=VarSet(seq[k:]),
    )


def _mi_or_zero(joint: JointTable, x: VarSet, y: VarSet) -> Nats:
    """MI with the empty-set convention: an empty side carries no information."""
    if len(x) == 0 or len(y) == 0:
        return 0.0
    return mutual_information(joint, x, y)


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


#: A Markov chain X -> Y -> Z.  Each group is the head, one dependent or a
#: contiguous range of dependents.
Chain = tuple[VarSet, VarSet, VarSet]


def _label(group: VarSet) -> str:
    """Display name of a chain group: ``head``, ``dep3`` or ``dep1..4``."""
    vs = tuple(group)
    return vs[0].name if len(vs) == 1 else f"{vs[0].name}..{vs[-1].index}"


@dataclass(frozen=True)
class RelationCheck:
    """One verified order relation between two exact information quantities.

    ``slack`` measures how comfortably the relation holds (negative means
    violated): ``rhs - lhs`` for LE, ``lhs - rhs`` for GE and ``-|lhs - rhs|``
    for EQ.  ``chain`` is the Markov chain whose truth makes the two sides
    equal, or None when the relation has none to diagnose (an identity, a
    bound, or a relation that is an equality outright).  When the two sides
    are within ``10 * tolerance`` of each other the chain is tested and the
    verdict stored in ``equality_diagnosis``; otherwise it is None.
    ``cross_slot`` marks relations that compare different dependent slots and
    are guaranteed only under identical channels.
    """

    name: str
    relation: Relation
    lhs: Nats
    rhs: Nats
    tolerance: float
    holds: bool
    slack: float
    chain: Chain | None = None
    equality_diagnosis: MarkovVerdict | None = None
    cross_slot: bool = False

    @property
    def equality_condition(self) -> str:
        """The chain as text, e.g. ``head -> dep1 -> dep2..3``; empty without one."""
        return " -> ".join(_label(g) for g in self.chain) if self.chain else ""


def relation_check(
    name: str,
    relation: Relation,
    lhs: Nats,
    rhs: Nats,
    tol: float,
    joint: JointTable | None = None,
    chain: Chain | None = None,
    cross_slot: bool = False,
) -> RelationCheck:
    """The one way to build a ``RelationCheck``.

    ``tol = 0.0`` makes an exact check (EQ then holds only on ``lhs == rhs``);
    a bound ``|value| <= tol`` is EQ of ``value`` against ``0.0``.  A
    ``chain`` is diagnosed on ``joint`` when the two sides are within
    ``10 * tol``.
    """
    if relation is Relation.LE:
        slack = rhs - lhs
    elif relation is Relation.GE:
        slack = lhs - rhs
    else:
        slack = -abs(lhs - rhs)
    diagnosis = None
    if chain is not None and abs(lhs - rhs) <= 10.0 * tol:
        diagnosis = is_markov_chain(joint, *chain, tol=tol)
    return RelationCheck(
        name=name,
        relation=relation,
        lhs=lhs,
        rhs=rhs,
        tolerance=tol,
        holds=slack >= -tol,
        slack=slack,
        chain=chain,
        equality_diagnosis=diagnosis,
        cross_slot=cross_slot,
    )


def _deps_of(joint: JointTable) -> list[Variable]:
    deps = sorted(v for v in joint.variables if not v.is_head)
    if HEAD not in joint.varset:
        raise ValidationError("joint table has no head variable")
    if not deps:
        raise ValidationError("joint table has no dependents")
    if [v.index for v in deps] != list(range(1, len(deps) + 1)):
        raise ValidationError(
            f"dependents must be numbered 1..n, got {[v.name for v in deps]}"
        )
    return deps


# ---------------------------------------------------------------------------
# Remainder predictability relations (hold for every factored model)
# ---------------------------------------------------------------------------


def remainder_relation_checks(
    joint: JointTable, tol: float = DEFAULT_TOLERANCE
) -> tuple[RelationCheck, RelationCheck]:
    """The two boundary remainder relations, evaluated on any joint with a head.

    Head-first: producing the head first tells you at least as much about the
    rest as producing the first dependent would, I(head; deps) >=
    I(dep1; head + other deps).  Head-last: the mirror image at the final
    stage.  For n = 1 both reduce to plain MI symmetry and are reported as
    equalities.  On a non-factored joint either relation can fail, which is
    exactly what these checks are for.
    """
    deps = _deps_of(joint)
    n = len(deps)
    all_deps = VarSet(deps)
    head = VarSet((HEAD,))

    relation = Relation.EQ if n == 1 else Relation.GE
    dep1, rest1 = VarSet(deps[:1]), VarSet(deps[1:])
    first = relation_check(
        "remainder k=1 (head first)", relation,
        mutual_information(joint, head, all_deps),
        mutual_information(joint, dep1, head | rest1), tol,
        joint, chain=None if n == 1 else (head, dep1, rest1),
    )
    lead, dep_n = VarSet(deps[:-1]), VarSet(deps[-1:])
    last = relation_check(
        f"remainder k={n} (head last)", relation,
        mutual_information(joint, all_deps, head),
        mutual_information(joint, head | lead, dep_n), tol,
        joint, chain=None if n == 1 else (lead, dep_n, head),
    )
    return first, last


def verify_remainder_theorem(
    model: FactoredModel, tol: float = DEFAULT_TOLERANCE
) -> tuple[RelationCheck, RelationCheck]:
    """Remainder relations on the exact joint of a factored model."""
    return remainder_relation_checks(model.joint, tol)


# ---------------------------------------------------------------------------
# Pending-element relations
# ---------------------------------------------------------------------------


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
    joint = model.joint
    head = VarSet((HEAD,))
    first_k = dep_range(1, k)
    lead = dep_range(1, k - 1)  # empty when k == 1
    target = VarSet((dep(j),))

    lhs1 = mutual_information(joint, head | lead, target)
    rhs1 = mutual_information(joint, first_k, head)
    # At k = 1 part 1 reads I(head; dep j) <= I(dep1; head): MI symmetry when
    # j = 1, and with no produced dependent there is no chain to diagnose.
    checks = [
        relation_check(
            f"pending part1 k={k} j={j}",
            Relation.EQ if k == j == 1 else Relation.LE, lhs1, rhs1, tol,
            joint, chain=None if k == 1 else (head, target, lead),
            cross_slot=j > k,
        )
    ]
    if j > k:
        lhs23 = mutual_information(joint, first_k, target)
        checks.append(
            relation_check(
                f"pending part2 k={k} j={j}", Relation.LE, lhs23, rhs1, tol,
                joint, chain=(first_k, target, head),
            )
        )
        checks.append(
            relation_check(
                f"pending part3 k={k} j={j}", Relation.LE, lhs23, lhs1, tol,
                joint, chain=(head, first_k, target),
            )
        )
    return tuple(checks)


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
    joint = model.joint
    head = VarSet((HEAD,))
    target = VarSet((dep(j),))
    lhs = mutual_information(joint, head | dep_range(1, k), target)
    rhs = mutual_information(joint, head, target)
    return relation_check(f"irrelevance k={k} j={j}", Relation.EQ, lhs, rhs, tol)


# ---------------------------------------------------------------------------
# The stage-k lattice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatticeReport:
    """Six predictability cells around stage ``k`` and the relations between them.

    Cells (``*_k1`` means "at stage k + 1"):

    * ``head_pred_k``:      I(dep1..k; head)
    * ``head_pred_k1``:     I(dep1..k+1; head)
    * ``dep_with_head_k``:  I(head + dep1..k-1; dep k)
    * ``dep_with_head_k1``: I(head + dep1..k; dep k+1)
    * ``dep_without_head_k``:  I(dep1..k; dep k+1)
    * ``dep_without_head_k1``: I(dep1..k+1; dep k+2), absent when k = n - 1
    """

    k: int
    n: int
    cells: dict[str, Nats]
    checks: tuple[RelationCheck, ...]
    not_applicable: tuple[int, ...]

    @property
    def holds(self) -> bool:
        return all(c.holds for c in self.checks)


def lattice_report(
    model: FactoredModel, k: int, tol: float = DEFAULT_TOLERANCE
) -> LatticeReport:
    """Check the seven stage-``k`` relations between the six lattice cells.

    Relations (1) head predictability grows, (2)/(3) the produced head beats
    the produced dependents at the current slot, hold on every factored
    model.  Relations (4) produced dependents do not help, (5)/(6) an early
    head helps pending dependents, and (7) pending-dependent predictability
    grows, compare different dependent slots and are guaranteed under
    identical channels.  (6) and (7) need a slot ``k + 2`` and are marked not
    applicable at ``k = n - 1``.
    """
    n = model.n
    if not 1 <= k < n:
        raise ValidationError(f"lattice stage needs 1 <= k < n, got k={k}, n={n}")
    joint = model.joint
    head = VarSet((HEAD,))
    first_k, lead = dep_range(1, k), dep_range(1, k - 1)  # lead is empty when k == 1
    dep_k, dep_k1 = VarSet((dep(k),)), VarSet((dep(k + 1),))

    cells: dict[str, Nats] = {
        "head_pred_k": mutual_information(joint, first_k, head),
        "head_pred_k1": mutual_information(joint, first_k | dep_k1, head),
        "dep_with_head_k": mutual_information(joint, head | lead, dep_k),
        "dep_with_head_k1": mutual_information(joint, head | first_k, dep_k1),
        "dep_without_head_k": mutual_information(joint, first_k, dep_k1),
    }
    has_next = k + 2 <= n
    if has_next:
        dep_k2 = VarSet((dep(k + 2),))
        cells["dep_without_head_k1"] = mutual_information(joint, first_k | dep_k1, dep_k2)

    checks = [
        relation_check(
            f"lattice k={k} (1) head-predictability-grows",
            Relation.LE, cells["head_pred_k"], cells["head_pred_k1"], tol,
            joint, chain=(dep_k1, first_k, head),
        ),
        relation_check(
            f"lattice k={k} (2) head-beats-dep-at-k",
            Relation.LE, cells["dep_with_head_k"], cells["head_pred_k"], tol,
            joint, chain=None if k == 1 else (head, dep_k, lead),
        ),
        relation_check(
            f"lattice k={k} (3) head-beats-dep-at-k+1",
            Relation.LE, cells["dep_with_head_k1"], cells["head_pred_k1"], tol,
            joint, chain=(head, dep_k1, first_k),
        ),
        # Equal when the pending slots are identically distributed given the head.
        relation_check(
            f"lattice k={k} (4) produced-deps-do-not-help",
            Relation.EQ, cells["dep_with_head_k"], cells["dep_with_head_k1"], tol,
            cross_slot=True,
        ),
        relation_check(
            f"lattice k={k} (5) early-head-helps-at-k",
            Relation.LE, cells["dep_without_head_k"], cells["dep_with_head_k"], tol,
            joint, chain=(head, first_k, dep_k1), cross_slot=True,
        ),
    ]
    not_applicable: tuple[int, ...] = ()
    if has_next:
        checks += [
            relation_check(
                f"lattice k={k} (6) early-head-helps-at-k+1",
                Relation.LE, cells["dep_without_head_k1"], cells["dep_with_head_k1"], tol,
                joint, chain=(head, first_k | dep_k1, dep_k2), cross_slot=True,
            ),
            relation_check(
                f"lattice k={k} (7) dep-predictability-grows",
                Relation.LE, cells["dep_without_head_k"], cells["dep_without_head_k1"], tol,
                joint, chain=(dep_k1, first_k, dep_k2), cross_slot=True,
            ),
        ]
    else:
        not_applicable = (6, 7)
    return LatticeReport(
        k=k, n=n, cells=cells, checks=tuple(checks), not_applicable=not_applicable
    )


# ---------------------------------------------------------------------------
# Profiles and head-position search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageRow:
    """Predictability figures after ``k`` produced elements."""

    k: int
    produced: tuple[Variable, ...]
    remainder: Nats
    pending_elements: tuple[tuple[Variable, Nats], ...]


@dataclass(frozen=True)
class ProfileReport:
    """Stage-by-stage predictability for one placement (rows k = 0..n)."""

    placement: Placement
    rows: tuple[StageRow, ...]


def placement_profile(joint: JointTable, placement: Placement) -> ProfileReport:
    """Remainder and per-pending-element predictability at every stage.

    Row ``k = 0`` is all zeros by the empty-prefix convention; there is no row
    for ``k = n + 1`` because nothing is pending there.
    """
    seq = placement.sequence()
    rows = []
    for k in range(0, placement.n + 1):
        produced = VarSet(seq[:k])
        pending = seq[k:]
        remainder = _mi_or_zero(joint, produced, VarSet(pending))
        elements = tuple(
            (v, _mi_or_zero(joint, produced, VarSet((v,)))) for v in pending
        )
        rows.append(
            StageRow(k=k, produced=seq[:k], remainder=remainder, pending_elements=elements)
        )
    return ProfileReport(placement=placement, rows=tuple(rows))


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

    objective: Objective
    k: int | None
    aggregate: str
    scores: tuple[Nats, ...]
    best_positions: tuple[int, ...]


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
    * ``REMAINDER_AT_K``: I(produced; pending) at stage ``k`` (requires ``k``).

    Exact ties (within ``tol``) are all returned, never broken arbitrarily.
    """
    objective = Objective(objective)
    if aggregate not in ("min", "mean"):
        raise ValidationError(f"aggregate must be 'min' or 'mean', got {aggregate!r}")
    n = model.n
    if objective is Objective.REMAINDER_AT_K:
        if k is None:
            raise ValidationError("REMAINDER_AT_K needs a stage k")
        if not 1 <= k <= n:
            raise ValidationError(f"stage k={k} outside 1..{n}")
    joint = model.joint

    scores: list[Nats] = []
    for position in range(1, n + 2):
        placement = Placement(n=n, head_position=position, dependent_order=dependent_order)
        seq = placement.sequence()
        if objective is Objective.HEAD_PREDICTABILITY:
            before_head = VarSet(seq[: position - 1])
            score = _mi_or_zero(joint, before_head, VarSet((HEAD,)))
        elif objective is Objective.DEPENDENT_PREDICTABILITY:
            first = VarSet(seq[:1])
            values = [_mi_or_zero(joint, first, VarSet((v,))) for v in seq[1:] if not v.is_head]
            if not values:  # n = 1 with the head second: no dependent is pending
                score = 0.0
            else:
                score = min(values) if aggregate == "min" else sum(values) / len(values)
        else:
            view = stage_view(placement, k)
            score = _mi_or_zero(joint, view.produced, view.pending)
        scores.append(score)

    best = max(scores)
    return PlacementSearchResult(
        objective=objective,
        k=k if objective is Objective.REMAINDER_AT_K else None,
        aggregate=aggregate,
        scores=tuple(scores),
        best_positions=tuple(p for p, s in enumerate(scores, start=1) if best - s <= tol),
    )
