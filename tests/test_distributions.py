"""Core distribution objects: alphabets, variables, joints, factorisation."""

import math

import numpy as np
import pytest

from harmonia import (
    HEAD,
    JointSizeError,
    Placement,
    ValidationError,
    ZeroProbabilityError,
    build_joint,
    copy_model,
    dep,
    dep_range,
    independent_model,
    mutual_information,
    sample,
)
from harmonia.distributions import Alphabet, FactoredModel, JointTable, check_factorization
from harmonia.estimation import empirical_joint, plug_in_mi
from harmonia.generators import correlated_pair_counterexample
from harmonia.information import conditional_mutual_information, entropy, is_markov_chain
from harmonia import distributions
from oracles import brute_marginal


def test_alphabet_labels_must_match_size():
    with pytest.raises(ValidationError):
        Alphabet(3, labels=("a", "b"))


def test_alphabet_label_lookup():
    a = Alphabet(2, labels=("verb", "noun"))
    assert a.label(1) == "noun"
    assert Alphabet(2).label(1) == "1"


def test_variable_ordering_is_head_first():
    vs = sorted((dep(2), HEAD, dep(1)))
    assert [v.name for v in vs] == ["head", "dep1", "dep2"]


#: Bad groups: (x, y) for the two-group measures, and the one group that the
#: one-group calls get.  Two overlapping groups make, together, a group that
#: repeats a variable.
BAD_GROUPS = {
    "repeated": ((dep(1), dep(1)), HEAD, (dep(1), dep(1))),
    "string-element": (("head",), dep(1), ("head",)),
    "int-element": ((HEAD, 1), dep(1), (HEAD, 1)),
    "not-a-group": (1, dep(1), 1),
    "empty": ((), dep(1), ()),
    "overlapping": ((HEAD, dep(1)), (dep(1),), (HEAD, dep(1), dep(1))),
}

GROUP_CALLS = {
    "entropy": lambda joint, samples, x, y, one: entropy(joint, one),
    "mutual_information": lambda joint, samples, x, y, one: mutual_information(joint, x, y),
    "conditional_mutual_information":
        lambda joint, samples, x, y, one: conditional_mutual_information(joint, x, y, dep(2)),
    "is_markov_chain": lambda joint, samples, x, y, one: is_markov_chain(joint, x, dep(2), y),
    "marginal": lambda joint, samples, x, y, one: joint.marginal(one),
    "empirical_joint": lambda joint, samples, x, y, one: empirical_joint(samples, one),
    "plug_in_mi": lambda joint, samples, x, y, one: plug_in_mi(samples, x, y),
}


@pytest.mark.parametrize("call", GROUP_CALLS)
@pytest.mark.parametrize("case", BAD_GROUPS)
def test_every_group_boundary_refuses_a_bad_group(case, call):
    """A group is one Variable or distinct Variables; anything else, an empty
    group where one is needed, or groups that overlap, is a ValidationError."""
    model = copy_model(n=2, size=2, noise=0.1)
    samples = sample(model, Placement.head_first(2), 50, seed=0)
    with pytest.raises(ValidationError):
        GROUP_CALLS[call](model.joint, samples, *BAD_GROUPS[case])


def test_dep_range_empty_and_bounds():
    assert len(dep_range(3, 2)) == 0
    assert tuple(v.name for v in dep_range(2, 4)) == ("dep2", "dep3", "dep4")
    with pytest.raises(ValidationError):
        dep_range(0, 2)


def test_model_row_validation_names_the_offender():
    bad = np.array([[0.6, 0.3], [0.5, 0.5]])  # row 0 sums to 0.9
    with pytest.raises(ValidationError, match=r"dep1, row 0"):
        FactoredModel(
            head_alphabet=Alphabet(2),
            dep_alphabets=(Alphabet(2),),
            head_prior=np.array([0.5, 0.5]),
            cond_tables=(bad,),
        )


@pytest.mark.parametrize("prior, table, message", [
    ([0.5, 0.5], [[0.5, 0.5], [0.6, 0.3]],
     "conditional table for dep1, row 1 sums to 0.8999999999999999, expected 1 within 1e-12"),
    ([0.5, 0.5], [[0.5, 0.5], [1.5, -0.5]],
     "conditional table for dep1, row 1: entry 0 is 1.5, outside [0, 1]"),
    ([0.5, 0.5], [[0.5, 0.5], [0.5, math.nan]],
     "conditional table for dep1, row 1: entry 1 is nan, outside [0, 1]"),
    ([0.5, 0.5], [[0.6, 0.3], [1.5, -0.5]],  # the first bad row is named, whatever its fault
     "conditional table for dep1, row 0 sums to 0.8999999999999999, expected 1 within 1e-12"),
    ([0.5, 0.5], [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]],
     "conditional table for dep1 has shape (2, 3), expected (2, 2)"),
    ([0.5, -0.5], [[0.5, 0.5], [0.5, 0.5]], "head prior: entry 1 is -0.5, outside [0, 1]"),
    ([0.7, 0.7], [[0.5, 0.5], [0.5, 0.5]],
     "head prior sums to 1.4, expected 1 within 1e-12"),
])
def test_model_validation_names_the_first_bad_row(prior, table, message):
    """A table is checked whole, and the error names the row a row-by-row check would."""
    with pytest.raises(ValidationError) as err:
        FactoredModel(head_alphabet=Alphabet(2), dep_alphabets=(Alphabet(2),),
                      head_prior=np.array(prior), cond_tables=(np.array(table),))
    assert str(err.value) == message


def test_model_prior_validation():
    with pytest.raises(ValidationError, match="head prior"):
        FactoredModel(
            head_alphabet=Alphabet(2),
            dep_alphabets=(Alphabet(2),),
            head_prior=np.array([0.7, 0.7]),
            cond_tables=(np.array([[0.5, 0.5], [0.5, 0.5]]),),
        )


def test_model_shape_mismatch():
    with pytest.raises(ValidationError, match="shape"):
        FactoredModel(
            head_alphabet=Alphabet(3),
            dep_alphabets=(Alphabet(2),),
            head_prior=np.array([0.5, 0.25, 0.25]),
            cond_tables=(np.array([[0.5, 0.5], [0.5, 0.5]]),),
        )


def test_build_joint_uniform_independent():
    """Independent binary model: every cell is 1/8."""
    joint = build_joint(independent_model(2))
    assert joint.probs.shape == (2, 2, 2)
    assert np.allclose(joint.probs, 0.125)


def test_build_joint_noisy_copy_entries():
    joint = build_joint(copy_model(n=1, size=2, noise=0.1))
    expected = np.array([[0.45, 0.05], [0.05, 0.45]])
    assert np.array_equal(joint.probs, expected)


def test_build_joint_matches_brute_force_product():
    model = copy_model(n=3, size=3, noise=0.2)
    joint = build_joint(model)
    for l in range(3):
        for m in range(3):
            expected = (
                model.head_prior[l]
                * model.cond_tables[0][l, m]
                * model.cond_tables[1][l, 1]
                * model.cond_tables[2][l, 2]
            )
            assert joint.probs[l, m, 1, 2] == pytest.approx(expected, abs=1e-15)


def test_joint_variable_order_is_canonical():
    joint = build_joint(independent_model(3))
    assert tuple(v.name for v in joint.variables) == ("head", "dep1", "dep2", "dep3")


def test_marginal_axis_order_follows_keep():
    joint = build_joint(copy_model(n=2, size=2, noise=0.1))
    m = joint.marginal((dep(2), HEAD))
    assert tuple(v.name for v in m.variables) == ("dep2", "head")
    swapped = joint.marginal((HEAD, dep(2)))
    assert np.array_equal(m.probs, swapped.probs.T)


def test_marginal_matches_oracle():
    joint = build_joint(copy_model(n=2, size=3, noise=0.25))
    got = joint.marginal((HEAD, dep(2)))
    want = brute_marginal(joint, [HEAD, dep(2)])
    for (l, m2), p in want.items():
        assert got.probs[l, m2] == pytest.approx(p, abs=1e-15)


def test_marginal_of_everything_is_identity():
    joint = build_joint(copy_model(n=2, size=2, noise=0.3))
    again = joint.marginal(joint.variables)
    assert np.array_equal(again.probs, joint.probs)


def test_marginal_is_idempotent():
    joint = build_joint(copy_model(n=3, size=2, noise=0.2))
    once = joint.marginal((HEAD, dep(1)))
    twice = once.marginal((HEAD, dep(1)))
    assert np.array_equal(once.probs, twice.probs)


def test_marginal_rejects_empty_and_foreign_variables():
    joint = build_joint(independent_model(2))
    with pytest.raises(ValidationError):
        joint.marginal(())
    with pytest.raises(ValidationError, match="dep9"):
        joint.marginal((dep(9),))


def test_condition_renormalises():
    joint = build_joint(copy_model(n=1, size=2, noise=0.1))
    given = joint.condition(HEAD, 0)
    assert given.probs == pytest.approx(np.array([0.9, 0.1]))
    assert tuple(v.name for v in given.variables) == ("dep1",)


def test_condition_reconstructs_the_joint():
    """p(head) * p(deps | head) stitched back equals the joint."""
    joint = build_joint(copy_model(n=2, size=2, noise=0.15))
    head_marg = joint.marginal(HEAD).probs
    rebuilt = np.stack(
        [head_marg[l] * joint.condition(HEAD, l).probs for l in range(2)]
    )
    assert np.allclose(rebuilt, joint.probs, atol=1e-15)


def test_condition_on_zero_probability_event_raises():
    model = FactoredModel(
        head_alphabet=Alphabet(2),
        dep_alphabets=(Alphabet(2),),
        head_prior=np.array([1.0, 0.0]),
        cond_tables=(np.array([[0.5, 0.5], [0.5, 0.5]]),),
    )
    joint = build_joint(model)
    with pytest.raises(ZeroProbabilityError):
        joint.condition(HEAD, 1)


def test_joint_cell_cap_enforced(monkeypatch):
    """The cap binds the dense joint and the model's own marginal over every axis."""
    model = independent_model(3, sizes=(10, 10, 10, 10))
    for dense in (build_joint, lambda m: m.entropy_of(0b1111)):
        monkeypatch.setattr(distributions, "MAX_JOINT_CELLS", 9_999)
        with pytest.raises(JointSizeError, match="would need 10000 cells, cap is 9999"):
            dense(model)
        monkeypatch.setattr(distributions, "MAX_JOINT_CELLS", 10_000)
        dense(model)
    assert build_joint(model).probs.size == 10_000
    assert model.entropy_of(0b1111) == pytest.approx(4 * math.log(10), abs=1e-12)


def test_joint_table_rejects_bad_mass():
    with pytest.raises(ValidationError, match="sums to"):
        JointTable(
            variables=(HEAD,),
            alphabets=(Alphabet(2),),
            probs=np.array([0.6, 0.6]),
        )
    with pytest.raises(ValidationError, match="negative"):
        JointTable(
            variables=(HEAD,),
            alphabets=(Alphabet(2),),
            probs=np.array([1.2, -0.2]),
        )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_probabilities_are_rejected(bad):
    """NaN fails every comparison, so a check written as `p < 0` lets it through."""
    with pytest.raises(ValidationError):
        JointTable(
            variables=(HEAD, dep(1)),
            alphabets=(Alphabet(2), Alphabet(2)),
            probs=np.array([[bad, 0.25], [0.25, 0.5]]),
        )
    with pytest.raises(ValidationError, match="head prior"):
        FactoredModel(
            head_alphabet=Alphabet(2),
            dep_alphabets=(Alphabet(2),),
            head_prior=np.array([bad, 0.5]),
            cond_tables=(np.array([[0.5, 0.5], [0.5, 0.5]]),),
        )


def test_joint_probs_are_read_only():
    joint = build_joint(independent_model(1))
    with pytest.raises(ValueError):
        joint.probs[0, 0] = 0.9


def test_check_factorization_passes_on_factored_models():
    for model in (copy_model(3, 2, 0.1), independent_model(3), copy_model(2, 5, 0.4)):
        assert check_factorization(build_joint(model)) <= 1e-12


def test_check_factorization_single_dependent_is_vacuous():
    assert check_factorization(build_joint(copy_model(1, 2, 0.2))) == 0.0


def test_check_factorization_counterexample():
    violation = check_factorization(correlated_pair_counterexample())
    assert violation == pytest.approx(math.log(2.0), abs=1e-15)


def test_check_factorization_catches_a_xor_of_two_dependents():
    """Each pair of dependents is independent given the head, yet dep3 = dep1 xor dep2."""
    from harmonia.sweep import checks_for_joint

    probs = np.zeros((2, 2, 2, 2))
    for h in (0, 1):
        for a in (0, 1):
            for b in (0, 1):
                probs[h, a, b, a ^ b] = 1 / 8
    joint = JointTable(
        variables=(HEAD, dep(1), dep(2), dep(3)), alphabets=(Alphabet(2),) * 4, probs=probs
    )
    violation = check_factorization(joint)
    assert violation == pytest.approx(math.log(2.0), abs=1e-15)
    row = {c.name: c for _, c in checks_for_joint(joint)}["dependents independent given head"]
    assert not row.holds
    assert row.lhs == violation


def test_entropy_table_keeps_floats_only():
    joint = build_joint(copy_model(2, 3, 0.2))
    full = joint.entropy_of(0b111)
    assert joint.entropy_of(0b111) == full
    assert joint.entropy_of(0) == 0.0
    assert all(type(h) is float for h in joint._entropies.values())


def test_factored_model_builds_its_joint_once():
    model = copy_model(2, 2, 0.1)
    assert model.joint is model.joint
    assert np.array_equal(model.joint.probs, build_joint(model).probs)


def test_check_factorization_needs_a_head():
    joint = build_joint(independent_model(2)).marginal(dep_range(1, 2))
    with pytest.raises(ValidationError, match="head"):
        check_factorization(joint)


def test_has_identical_channels():
    assert copy_model(3, 2, 0.1).has_identical_channels
    mixed = FactoredModel(
        head_alphabet=Alphabet(2),
        dep_alphabets=(Alphabet(2), Alphabet(2)),
        head_prior=np.array([0.5, 0.5]),
        cond_tables=(
            np.array([[0.9, 0.1], [0.1, 0.9]]),
            np.array([[0.8, 0.2], [0.2, 0.8]]),
        ),
    )
    assert not mixed.has_identical_channels
