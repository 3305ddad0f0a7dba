"""Placements, stage views, remainder/pending relations, lattice, head search."""

import math
from dataclasses import replace

import numpy as np
import pytest

from harmonia import (
    HEAD,
    ModelSpec,
    Placement,
    ValidationError,
    build_joint,
    copy_model,
    dep,
    dep_range,
    independent_model,
    mutual_information,
    optimal_head_position,
    placement_profile,
    random_model,
)
from harmonia.distributions import Alphabet, FactoredModel, JointTable
from harmonia.generators import correlated_pair_counterexample
from harmonia.information import mi_of
from harmonia.placement import (
    HEAD_MASK,
    Objective,
    Relation,
    lattice_report,
    relation_check,
    remainder_predictability,
    remainder_relation_checks,
    stage_view,
    verify_irrelevance,
    verify_pending_theorem,
    verify_remainder_theorem,
)

LN2 = math.log(2.0)


def heterogeneous(seed, n=3, head_size=3, dep_sizes=(2, 3, 2)):
    return random_model(ModelSpec(n=n, head_size=head_size, dep_sizes=dep_sizes, seed=seed))


def shared_channel(seed, n=3, head_size=2, dep_size=3):
    return random_model(
        ModelSpec(n=n, head_size=head_size, dep_sizes=dep_size, seed=seed,
                  identical_channels=True)
    )


def mixed_copy_noise():
    """dep1 is pure noise, dep2 is an exact copy: breaks cross-slot relations."""
    return FactoredModel(
        head_alphabet=Alphabet(2),
        dep_alphabets=(Alphabet(2), Alphabet(2)),
        head_prior=np.array([0.5, 0.5]),
        cond_tables=(
            np.array([[0.5, 0.5], [0.5, 0.5]]),
            np.array([[1.0, 0.0], [0.0, 1.0]]),
        ),
    )


# -- placements and stage views ------------------------------------------------


def test_placement_sequences():
    assert [v.name for v in Placement.head_first(2).sequence()] == ["head", "dep1", "dep2"]
    assert [v.name for v in Placement.head_last(2).sequence()] == ["dep1", "dep2", "head"]
    medial = Placement(n=2, head_position=2, dependent_order=(2, 1))
    assert [v.name for v in medial.sequence()] == ["dep2", "head", "dep1"]


def test_placement_validation():
    with pytest.raises(ValidationError):
        Placement(n=2, head_position=4)
    with pytest.raises(ValidationError):
        Placement(n=2, head_position=1, dependent_order=(1, 1))
    with pytest.raises(ValidationError):
        Placement(n=2, head_position=1, dependent_order=(1, 2, 3))


@pytest.mark.parametrize("k", range(0, 4))
def test_stage_view_partitions_the_sequence(k):
    placement = Placement(n=2, head_position=2)
    view = stage_view(placement, k)
    assert len(view.produced) == k
    assert view.produced + view.pending == placement.sequence()
    assert set(view.produced).isdisjoint(view.pending)


def test_stage_view_bounds():
    with pytest.raises(ValidationError):
        stage_view(Placement.head_first(2), 4)


def test_remainder_predictability_values():
    model = copy_model(2, 2, 0.1)
    joint = build_joint(model)
    head_first = remainder_predictability(joint, stage_view(Placement.head_first(2), 1))
    dep_first = remainder_predictability(joint, stage_view(Placement.head_last(2), 1))
    assert head_first == pytest.approx(
        mutual_information(joint, HEAD, dep_range(1, 2)), abs=1e-15
    )
    # producing the head first beats producing a dependent first, strictly
    assert head_first - dep_first > 0.01


def test_remainder_predictability_is_permutation_invariant():
    joint = build_joint(copy_model(3, 2, 0.2))
    a = Placement(n=3, head_position=1, dependent_order=(1, 2, 3))
    b = Placement(n=3, head_position=2, dependent_order=(1, 3, 2))
    # After two elements both placements have produced {head, dep1}.
    va = remainder_predictability(joint, stage_view(a, 2))
    vb = remainder_predictability(joint, stage_view(b, 2))
    assert va == vb


def test_remainder_predictability_rejects_boundary_stages():
    joint = build_joint(copy_model(2, 2, 0.1))
    with pytest.raises(ValidationError):
        remainder_predictability(joint, stage_view(Placement.head_first(2), 0))
    with pytest.raises(ValidationError):
        remainder_predictability(joint, stage_view(Placement.head_first(2), 3))


# -- relation checks -------------------------------------------------------------

TINY = 2.0 ** -40  # ~9.1e-13: exact differences at 0.5, inside the 1e-9 tolerance


@pytest.mark.parametrize(
    "relation, lhs, rhs, tol, slack, holds",
    [
        (Relation.LE, 0.25, 0.5, 1e-9, 0.25, True),
        (Relation.LE, 0.5, 0.25, 1e-9, -0.25, False),
        (Relation.LE, 0.5 + TINY, 0.5, 1e-9, -TINY, True),
        (Relation.GE, 0.5, 0.25, 1e-9, 0.25, True),
        (Relation.GE, 0.25, 0.5, 1e-9, -0.25, False),
        (Relation.GE, 0.5, 0.5 + TINY, 1e-9, -TINY, True),
        (Relation.EQ, 0.5, 0.25, 1e-9, -0.25, False),
        (Relation.EQ, 0.25, 0.5, 1e-9, -0.25, False),
        (Relation.EQ, 0.5, 0.5 + TINY, 1e-9, -TINY, True),
        (Relation.EQ, 0.5, 0.5 + TINY, 0.0, -TINY, False),
        (Relation.EQ, 0.5, 0.5, 0.0, 0.0, True),
    ],
)
def test_slack_and_holds_follow_the_sides(relation, lhs, rhs, tol, slack, holds):
    check = relation_check("c", relation, lhs, rhs, tol)
    assert check.slack == slack
    assert check.holds is holds
    # Derived, not stored: moving a side moves the verdict with it.
    assert replace(check, rhs=lhs).holds
    assert replace(check, rhs=lhs).slack == 0.0
    assert not replace(check, lhs=lhs - 1.0 if relation is Relation.GE else lhs + 1.0,
                       rhs=lhs).holds


# -- remainder relations ---------------------------------------------------------


def test_remainder_single_dependent_has_no_check():
    """At n = 1 both relations read I(head; dep1) against I(dep1; head)."""
    assert verify_remainder_theorem(copy_model(1, 2, 0.3)) == ()
    assert all(c.relation is Relation.GE for c in verify_remainder_theorem(copy_model(2, 2, 0.3)))


def test_remainder_equality_model_diagnoses_the_chain():
    """Zero noise: equality holds and the diagnosed Markov chain agrees."""
    for check in verify_remainder_theorem(copy_model(3, 2, 0.0)):
        assert check.holds
        assert abs(check.lhs - check.rhs) <= 1e-9
        assert check.equality_diagnosis is not None
        assert check.equality_diagnosis.is_chain
        assert check.equality_diagnosis.residual <= 1e-9


def test_remainder_independent_model_is_degenerate_equality():
    for check in verify_remainder_theorem(independent_model(3)):
        assert check.holds
        assert abs(check.lhs - check.rhs) <= 1e-12
        assert check.equality_diagnosis is not None and check.equality_diagnosis.is_chain


def test_remainder_strict_on_noisy_copy():
    """At noise 0.1 both inequalities are strict and the chain genuinely fails."""
    from harmonia.information import is_markov_chain

    model = copy_model(3, 2, 0.1)
    joint = build_joint(model)
    first, last = verify_remainder_theorem(model)
    assert first.slack > 1e-3 and last.slack > 1e-3
    assert first.equality_diagnosis is None  # far from equality, not attempted
    assert not is_markov_chain(joint, HEAD, dep(1), dep_range(2, 3)).is_chain
    assert not is_markov_chain(joint, dep_range(1, 2), dep(3), HEAD).is_chain


@pytest.mark.parametrize("seed", range(30))
def test_remainder_holds_on_random_models(seed):
    n = 2 + seed % 3
    model = heterogeneous(seed, n=n, dep_sizes=(2, 3, 5, 2)[:n])
    for check in verify_remainder_theorem(model):
        assert check.holds, check


def test_relation_checks_refuse_a_joint_with_permuted_axes():
    """Plan masks read axis i as variable i, so another axis order is refused."""
    joint = correlated_pair_counterexample()
    permuted = JointTable(
        variables=(dep(1), HEAD, dep(2)),
        alphabets=joint.alphabets,
        probs=np.transpose(joint.probs, (1, 0, 2)),
    )
    with pytest.raises(ValidationError, match="head, dep1..n"):
        remainder_relation_checks(permuted)
    with pytest.raises(ValidationError, match="head, dep1..n"):
        placement_profile(permuted, Placement.head_first(2))
    with pytest.raises(ValidationError, match="dependents"):
        placement_profile(joint, Placement.head_first(3))


def test_remainder_reverses_on_the_counterexample():
    """Without the factorisation the head-first advantage flips sign."""
    first, last = remainder_relation_checks(correlated_pair_counterexample())
    assert not first.holds
    assert first.lhs == pytest.approx(0.0, abs=1e-15)
    assert first.rhs == pytest.approx(LN2, abs=1e-15)
    assert first.slack == pytest.approx(-LN2, abs=1e-15)
    assert not last.holds


# -- pending-element relations ----------------------------------------------------


def test_pending_validation_names_the_range():
    model = copy_model(3, 2, 0.1)
    with pytest.raises(ValidationError, match="pending range"):
        verify_pending_theorem(model, k=2, j=1)
    with pytest.raises(ValidationError, match="pending range"):
        verify_pending_theorem(model, k=1, j=4)
    with pytest.raises(ValidationError, match="outside"):
        verify_pending_theorem(model, k=0, j=1)


def test_pending_k1_j1_is_symmetry():
    checks = verify_pending_theorem(copy_model(2, 2, 0.1), 1, 1)
    assert len(checks) == 1
    assert checks[0].relation is Relation.EQ
    assert abs(checks[0].lhs - checks[0].rhs) <= 1e-12


def test_pending_parts_split_by_j():
    checks = verify_pending_theorem(copy_model(3, 2, 0.1), 1, 3)
    assert [c.name for c in checks] == [
        "pending part1 k=1 j=3",
        "pending part2 k=1 j=3",
        "pending part3 k=1 j=3",
    ]


@pytest.mark.parametrize("seed", range(20))
def test_pending_general_parts_hold_on_heterogeneous_models(seed):
    """Part 1 at j=k and parts 2/3 for all j hold without identical channels."""
    n = 2 + seed % 3
    model = heterogeneous(seed, n=n, dep_sizes=(3, 2, 4, 2)[:n])
    for k in range(1, n + 1):
        checks = verify_pending_theorem(model, k, k)
        assert checks[0].holds, checks[0]
        for j in range(k + 1, n + 1):
            for check in verify_pending_theorem(model, k, j)[1:]:
                assert check.holds, check


@pytest.mark.parametrize("seed", range(20))
def test_pending_full_range_holds_with_identical_channels(seed):
    n = 2 + seed % 3
    model = shared_channel(seed, n=n)
    for k in range(1, n + 1):
        for j in range(k, n + 1):
            for check in verify_pending_theorem(model, k, j):
                assert check.holds, check


def test_pending_part1_needs_identical_channels_beyond_jk():
    """A noise slot before a copy slot reverses part 1 at j > k."""
    checks = verify_pending_theorem(mixed_copy_noise(), k=1, j=2)
    part1 = checks[0]
    assert part1.lhs == pytest.approx(LN2, abs=1e-12)  # head predicts dep2 exactly
    assert part1.rhs == pytest.approx(0.0, abs=1e-12)  # dep1 says nothing about head
    assert not part1.holds


def test_pending_equality_diagnosis_on_equality_model():
    checks = verify_pending_theorem(copy_model(3, 2, 0.0), 2, 2)
    assert checks[0].holds and checks[0].equality_diagnosis.is_chain


def test_pending_part2_equality_case():
    """With an exact copy, dep j carries the head: dep1..k -> dep j -> head."""
    checks = verify_pending_theorem(copy_model(2, 2, 0.0), 1, 2)
    part2 = [c for c in checks if "part2" in c.name][0]
    assert abs(part2.lhs - part2.rhs) <= 1e-12
    assert part2.equality_diagnosis is not None and part2.equality_diagnosis.is_chain


def test_pending_part3_equality_on_independent_model():
    checks = verify_pending_theorem(independent_model(3), 1, 3)
    part3 = [c for c in checks if "part3" in c.name][0]
    assert abs(part3.lhs - part3.rhs) <= 1e-12
    assert part3.equality_diagnosis is not None and part3.equality_diagnosis.is_chain


# -- irrelevance -------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(15))
def test_irrelevance_exact_on_any_factored_model(seed):
    n = 2 + seed % 3
    model = heterogeneous(seed, n=n, dep_sizes=(2, 4, 3, 2)[:n])
    for k in range(1, n):
        for j in range(k + 1, n + 1):
            check = verify_irrelevance(model, k, j)
            assert check.relation is Relation.EQ
            assert abs(check.lhs - check.rhs) <= 1e-9, check


def test_irrelevance_range_validation():
    with pytest.raises(ValidationError):
        verify_irrelevance(copy_model(3, 2, 0.1), k=2, j=2)


# -- lattice -----------------------------------------------------------------------


def test_lattice_cells_and_na_relations():
    """Relations (6) and (7) need a slot k + 2, so k = n - 1 leaves them out;
    (2) reads I(head; dep1) <= I(dep1; head) at k = 1 and has no row there."""
    checks = lattice_report(copy_model(2, 2, 0.1), 1)
    assert [c.name.split()[2] for c in checks] == ["(1)", "(3)", "(4)", "(5)"]

    checks = lattice_report(copy_model(3, 2, 0.1), 1)
    assert [c.name.split()[2] for c in checks] == ["(1)"] + [f"({i})" for i in range(3, 8)]

    checks = lattice_report(copy_model(3, 2, 0.1), 2)
    assert [c.name.split()[2] for c in checks] == [f"({i})" for i in range(1, 6)]


def test_lattice_stage_bounds():
    with pytest.raises(ValidationError):
        lattice_report(copy_model(2, 2, 0.1), 2)
    with pytest.raises(ValidationError):
        lattice_report(copy_model(2, 2, 0.1), 0)


def test_lattice_produced_deps_do_not_help_with_shared_channel():
    """Relation (4): conditioned on the head, earlier dependents are useless."""
    checks = lattice_report(copy_model(3, 2, 0.1), 1)
    rel4 = [c for c in checks if "(4)" in c.name][0]
    assert abs(rel4.lhs - rel4.rhs) <= 1e-12


def test_lattice_relation4_fails_without_identical_channels():
    checks = lattice_report(mixed_copy_noise(), 1)
    rel4 = [c for c in checks if "(4)" in c.name][0]
    assert not rel4.holds
    assert rel4.lhs == pytest.approx(0.0, abs=1e-12)
    assert rel4.rhs == pytest.approx(LN2, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lattice_relation5_at_k1_holds_on_per_slot_models(n):
    """At k = 1, (5) reads I(dep1; dep2) <= I(head; dep1); dep1 -> head ->
    dep2 is a Markov chain, so the slack is I(dep1; head | dep2) >= 0 and the
    relation needs no shared table."""
    for seed in range(5):
        model = heterogeneous(seed, n=n, dep_sizes=(2, 3, 2, 3)[:n])
        (rel5,) = [c for c in lattice_report(model, 1) if "(5)" in c.name]
        assert rel5.holds and rel5.equality_condition == "dep1 -> dep2 -> head"
        assert rel5.slack == pytest.approx(mi_of(model, 1 << 1, HEAD_MASK, 1 << 2), abs=1e-12)


def test_lattice_relation5_at_k2_fails_without_identical_channels():
    model = random_model(ModelSpec(n=3, head_size=3, dep_sizes=3, seed=42))
    (rel5,) = [c for c in lattice_report(model, 2) if "(5)" in c.name]
    assert not model.has_identical_channels
    assert rel5.slack < -0.01


@pytest.mark.parametrize("seed", range(20))
def test_lattice_full_holds_with_identical_channels(seed):
    n = 3 + seed % 2
    model = shared_channel(seed, n=n)
    for k in range(1, n):
        checks = lattice_report(model, k)
        assert all(c.holds for c in checks), [c for c in checks if not c.holds]


@pytest.mark.parametrize("seed", range(20))
def test_lattice_first_three_hold_on_any_factored_model(seed):
    n = 3 + seed % 2
    model = heterogeneous(seed, n=n, dep_sizes=(2, 3, 2, 4)[:n])
    for k in range(1, n):
        for check in lattice_report(model, k):
            if any(f"({i})" in check.name for i in (1, 2, 3)):
                assert check.holds, check


def test_lattice_equalities_at_zero_noise():
    """Exact copies saturate every lattice relation."""
    for check in lattice_report(copy_model(3, 2, 0.0), 1):
        assert abs(check.lhs - check.rhs) <= 1e-12
        if check.equality_diagnosis is not None:
            assert check.equality_diagnosis.is_chain


# -- profiles and head-position search -----------------------------------------------


def test_profile_row_zero_is_all_zero():
    model = copy_model(2, 2, 0.1)
    rows = placement_profile(build_joint(model), Placement.head_first(2))
    row0 = rows[0]
    assert row0.remainder == 0.0
    assert all(v == 0.0 for _, v in row0.pending_elements)
    assert len(rows) == 3  # k = 0, 1, 2; no row at k = n + 1


def test_profile_remainder_matches_direct_mi():
    model = copy_model(2, 2, 0.1)
    joint = build_joint(model)
    rows = placement_profile(joint, Placement.head_first(2))
    assert rows[1].remainder == mutual_information(joint, HEAD, dep_range(1, 2))


def test_optimal_head_position_copy_model():
    model = copy_model(2, 2, 0.1)
    res = optimal_head_position(model, Objective.HEAD_PREDICTABILITY)
    assert res.best_positions == (3,)
    assert res.scores[0] == 0.0
    assert res.scores[1] < res.scores[2]

    dep_res = optimal_head_position(model, Objective.DEPENDENT_PREDICTABILITY)
    assert dep_res.best_positions == (1,)


def test_optimal_head_position_objective_from_string():
    model = copy_model(2, 2, 0.1)
    res = optimal_head_position(model, "head")
    assert res == optimal_head_position(model, Objective.HEAD_PREDICTABILITY)


def test_optimal_head_position_ties_on_independent_model():
    res = optimal_head_position(independent_model(2), Objective.REMAINDER_AT_K, k=1)
    assert res.best_positions == (1, 2, 3)
    assert all(s == 0.0 for s in res.scores)


def test_optimal_head_position_single_dependent_remainder_ties():
    res = optimal_head_position(copy_model(1, 2, 0.2), Objective.REMAINDER_AT_K, k=1)
    assert res.best_positions == (1, 2)


def test_optimal_head_position_requires_k_for_remainder():
    with pytest.raises(ValidationError, match="needs a stage k"):
        optimal_head_position(copy_model(2, 2, 0.1), Objective.REMAINDER_AT_K)


@pytest.mark.parametrize("objective", ["head", "dependent"])
def test_optimal_head_position_refuses_a_stage_outside_the_remainder_objective(objective):
    with pytest.raises(ValidationError, match="remainder objective only, got k=1"):
        optimal_head_position(copy_model(2, 2, 0.1), objective, k=1)


def test_optimal_head_position_rejects_bad_aggregate():
    with pytest.raises(ValidationError, match="aggregate"):
        optimal_head_position(copy_model(2, 2, 0.1), "dependent", aggregate="median")


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("identical", [True, False])
def test_head_position_contracts_on_random_models(seed, identical):
    """Head-last maximises head predictability; head-first maximises dependent predictability."""
    n = 2 + seed % 3
    if identical:
        model = shared_channel(seed, n=n)
    else:
        model = heterogeneous(seed, n=n, dep_sizes=(3, 2, 2, 4)[:n])
    head_res = optimal_head_position(model, Objective.HEAD_PREDICTABILITY)
    assert n + 1 in head_res.best_positions
    for aggregate in ("min", "mean"):
        dep_res = optimal_head_position(
            model, Objective.DEPENDENT_PREDICTABILITY, aggregate=aggregate
        )
        assert 1 in dep_res.best_positions


def test_dependent_predictability_all_late_positions_tie():
    """Any head position >= 2 produces the same first element, so they tie."""
    res = optimal_head_position(copy_model(3, 2, 0.1), Objective.DEPENDENT_PREDICTABILITY)
    late = res.scores[1:]
    assert max(late) - min(late) <= 1e-12
