"""Entropy, mutual information, conditional MI, chain rule, Markov tests."""

import math

import numpy as np
import pytest

from harmonia import (
    HEAD,
    ModelSpec,
    ValidationError,
    build_joint,
    copy_model,
    dep,
    dep_range,
    independent_model,
    mutual_information,
    random_model,
)
from harmonia.distributions import Alphabet, FactoredModel, JointTable
from harmonia.generators import correlated_pair_counterexample
from harmonia.information import (
    chain_rule_residual,
    conditional_mutual_information,
    data_processing_gap,
    direct_mi_of,
    entropy,
    is_markov_chain,
    to_bits,
)
from oracles import brute_cmi, brute_entropy, brute_mi

LN2 = math.log(2.0)
H_BERN_01 = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))  # 0.325083...


def random_joint(seed, n=3, head_size=3, dep_sizes=(2, 3, 2), concentration=1.0):
    spec = ModelSpec(n=n, head_size=head_size, dep_sizes=dep_sizes,
                     concentration=concentration, seed=seed)
    return build_joint(random_model(spec))


# -- entropy ----------------------------------------------------------------


def test_entropy_uniform_binary_is_ln2():
    joint = build_joint(independent_model(1))
    assert entropy(joint, HEAD) == pytest.approx(LN2, abs=1e-15)


def test_entropy_deterministic_is_zero():
    joint = build_joint(copy_model(1, 2, 0.0))
    given = joint.condition(HEAD, 0)
    assert entropy(given, dep(1)) == 0.0


def test_entropy_bernoulli_point_nine():
    joint = build_joint(copy_model(1, 2, 0.1)).condition(HEAD, 0)
    assert entropy(joint, dep(1)) == pytest.approx(0.3250829733914482, abs=1e-12)
    assert entropy(joint, dep(1)) == pytest.approx(H_BERN_01, abs=1e-15)


@pytest.mark.parametrize("seed", range(6))
def test_entropy_matches_oracle(seed):
    joint = random_joint(seed)
    for subset in ([HEAD], [dep(1), dep(3)], [HEAD, dep(2)]):
        assert entropy(joint, subset) == pytest.approx(
            brute_entropy(joint, subset), abs=1e-12
        )


# -- mutual information -----------------------------------------------------


def test_mi_of_independent_variables_is_zero():
    joint = build_joint(independent_model(2))
    assert mutual_information(joint, HEAD, dep_range(1, 2)) <= 1e-12


def test_mi_of_perfect_copy_is_ln2():
    joint = build_joint(copy_model(1, 2, 0.0))
    assert mutual_information(joint, HEAD, dep(1)) == pytest.approx(LN2, abs=1e-15)


def test_mi_noisy_copy_closed_form():
    """Binary symmetric channel at noise 0.1: ln 2 minus the noise entropy."""
    joint = build_joint(copy_model(1, 2, 0.1))
    got = mutual_information(joint, HEAD, dep(1))
    assert got == pytest.approx(LN2 - H_BERN_01, abs=1e-15)
    assert got == pytest.approx(0.3680642071684971, abs=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_mi_matches_oracle(seed):
    joint = random_joint(seed)
    pairs = [
        ([HEAD], [dep(1)]),
        ([HEAD], [dep(1), dep(2), dep(3)]),
        ([dep(1)], [HEAD, dep(3)]),
        ([dep(1), dep(2)], [dep(3)]),
    ]
    for x, y in pairs:
        assert mutual_information(joint, x, y) == pytest.approx(
            brute_mi(joint, x, y), abs=1e-12
        )


@pytest.mark.parametrize("seed", range(20))
def test_mi_symmetry_is_bit_exact(seed):
    joint = random_joint(seed, concentration=0.5)
    groups = [
        ((HEAD,), dep_range(1, 3)),
        (dep_range(1, 1), (HEAD,) + dep_range(2, 3)),
        (dep_range(1, 2), dep_range(3, 3)),
    ]
    for x, y in groups:
        assert mutual_information(joint, x, y) == mutual_information(joint, y, x)
        mx, my = (sum(1 << joint.axis_of(v) for v in group) for group in (x, y))
        assert direct_mi_of(joint, mx, my) == direct_mi_of(joint, my, mx)


def test_direct_mi_survives_an_underflowing_product():
    """Cells of mass near 1e-200 give px * py = 0 while p > 0; the direct sum
    stays finite, bit-symmetric and on its closed form -(a + b) log(a + b)."""
    a, b = 1e-200, 1e-201
    probs = np.zeros((2, 3))
    probs[0, 0], probs[0, 1], probs[1, 2] = a, b, 1.0 - a - b
    joint = JointTable((HEAD, dep(1)), (Alphabet(2), Alphabet(3)), probs)
    forward, backward = direct_mi_of(joint, 0b01, 0b10), direct_mi_of(joint, 0b10, 0b01)
    assert math.isfinite(forward)
    assert forward == backward
    assert forward == pytest.approx(-(a + b) * math.log(a + b), rel=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_mi_never_meaningfully_negative(seed):
    """Raw summation noise stays within the clamp band; clamped value is >= 0."""
    joint = random_joint(seed, concentration=5.0)
    h = joint.entropy_of  # axis 0 is the head, axis 2 is dep2
    raw = h(0b001) + h(0b100) - h(0b101)
    assert raw >= -1e-12
    assert mutual_information(joint, HEAD, dep(2)) >= 0.0


def test_mi_requires_disjoint_nonempty_sets():
    joint = build_joint(independent_model(2))
    with pytest.raises(ValidationError, match="disjoint"):
        mutual_information(joint, (HEAD, dep(1)), dep(1))
    with pytest.raises(ValidationError, match="non-empty"):
        mutual_information(joint, (), dep(1))


# -- conditional mutual information ------------------------------------------


def test_cmi_given_head_is_zero_for_factored_models():
    joint = build_joint(copy_model(3, 2, 0.1))
    assert conditional_mutual_information(joint, dep(1), dep(2), HEAD) <= 1e-15
    assert conditional_mutual_information(
        joint, dep_range(1, 2), dep(3), HEAD
    ) <= 1e-15


def test_cmi_with_empty_conditioner_is_mi():
    joint = build_joint(copy_model(2, 2, 0.1))
    assert conditional_mutual_information(joint, HEAD, dep(1)) == mutual_information(
        joint, HEAD, dep(1)
    )


def test_cmi_reads_a_one_shot_conditioner_once():
    """A generator is a group too; the conditioner is read once, not emptied
    by a first look and then refused as empty."""
    joint = build_joint(copy_model(3, 2, 0.1))
    given = conditional_mutual_information(joint, dep(1), dep(2), (v for v in (HEAD, dep(3))))
    assert given == conditional_mutual_information(joint, dep(1), dep(2), (HEAD, dep(3)))


def test_cmi_counterexample_deps_share_a_bit():
    joint = correlated_pair_counterexample()
    got = conditional_mutual_information(joint, dep(1), dep(2), HEAD)
    assert got == pytest.approx(LN2, abs=1e-15)


def test_cmi_skips_zero_probability_slices():
    """A structurally impossible head value must not poison the sum."""
    model = FactoredModel(
        head_alphabet=Alphabet(3),
        dep_alphabets=(Alphabet(2), Alphabet(2)),
        head_prior=np.array([0.5, 0.5, 0.0]),
        cond_tables=(
            np.array([[0.9, 0.1], [0.1, 0.9], [0.5, 0.5]]),
            np.array([[0.8, 0.2], [0.2, 0.8], [0.5, 0.5]]),
        ),
    )
    joint = build_joint(model)
    assert conditional_mutual_information(joint, dep(1), dep(2), HEAD) <= 1e-15


@pytest.mark.parametrize("seed", range(8))
def test_cmi_matches_oracle(seed):
    joint = random_joint(seed)
    cases = [
        ([HEAD], [dep(2)], [dep(1)]),
        ([dep(1)], [dep(3)], [HEAD, dep(2)]),
        ([HEAD, dep(1)], [dep(3)], [dep(2)]),
    ]
    for x, y, z in cases:
        assert conditional_mutual_information(joint, x, y, z) == pytest.approx(
            brute_cmi(joint, x, y, z), abs=1e-12
        )


# -- chain rule ---------------------------------------------------------------


@pytest.mark.parametrize("seed", range(25))
def test_chain_rule_residual_is_tiny(seed):
    joint = random_joint(seed, concentration=0.8)
    partitions = [
        (dep_range(1, 1), dep_range(2, 3), (HEAD,)),
        ((HEAD,), dep_range(1, 1), dep_range(2, 3)),
        (dep_range(2, 2), (HEAD,) + dep_range(3, 3), dep_range(1, 1)),
    ]
    for x1, x2, y in partitions:
        assert chain_rule_residual(joint, x1, x2, y) <= 1e-9


# -- Markov chains and data processing ----------------------------------------


def test_copy_noise_zero_makes_each_dependent_sufficient():
    """An exact copy of the head screens it off from everything else."""
    joint = build_joint(copy_model(3, 2, 0.0))
    for i in (1, 2, 3):
        others = tuple(dep(j) for j in (1, 2, 3) if j != i)
        verdict = is_markov_chain(joint, HEAD, dep(i), others)
        assert verdict.is_chain
        assert verdict.residual <= 1e-12


def test_noisy_copy_is_not_a_chain_through_one_dependent():
    joint = build_joint(copy_model(2, 2, 0.1))
    verdict = is_markov_chain(joint, HEAD, dep(1), dep(2))
    assert not verdict.is_chain
    assert verdict.residual > 1e-3


def test_markov_verdict_is_reversal_invariant_bitwise():
    joint = build_joint(copy_model(2, 2, 0.1))
    fwd = is_markov_chain(joint, HEAD, dep(1), dep(2))
    rev = is_markov_chain(joint, dep(2), dep(1), HEAD)
    assert fwd.residual == rev.residual
    assert fwd.is_chain == rev.is_chain


def test_factored_models_are_chains_dep_head_dep():
    """dep1 -> head -> dep2 always holds when dependents are independent given the head."""
    joint = random_joint(3)
    verdict = is_markov_chain(joint, dep(1), HEAD, dep(2))
    assert verdict.is_chain


def test_data_processing_gap_nonnegative_and_exact_cases():
    joint = build_joint(copy_model(2, 2, 0.0))
    gap = data_processing_gap(joint, dep(1), HEAD, dep(2))
    assert gap == pytest.approx(0.0, abs=1e-12)  # copying preserves everything

    noisy = build_joint(copy_model(2, 2, 0.1))
    gap = data_processing_gap(noisy, dep(1), HEAD, dep(2))
    assert gap > 1e-3  # the second noisy channel loses information


@pytest.mark.parametrize("seed", range(10))
def test_data_processing_gap_never_negative_on_factored_models(seed):
    joint = random_joint(seed)
    gap = data_processing_gap(joint, dep(1), HEAD, dep_range(2, 3))
    assert gap >= -1e-9


def test_data_processing_gap_rejects_non_chains():
    joint = correlated_pair_counterexample()
    with pytest.raises(ValidationError, match="not a Markov chain"):
        data_processing_gap(joint, dep(1), HEAD, dep(2))


# -- units ---------------------------------------------------------------------


def test_to_bits():
    assert to_bits(LN2) == pytest.approx(1.0, abs=1e-15)
    assert to_bits(0.0) == 0.0
