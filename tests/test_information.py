"""Entropy, mutual information, conditional MI, chain rule, Markov tests."""

import itertools
import json
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
    mi_of,
    mi_rows,
    to_bits,
)
from harmonia.modelio import load_joint, save_joint
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


# -- mi_rows: the batched evaluator -------------------------------------------------


def every_side(n):
    """Every (x, y) and (x, y, z) on head, dep1..n: each axis in X, Y, Z or none."""
    sides = []
    for roles in itertools.product(range(4), repeat=n + 1):
        x, y, z = (sum(1 << axis for axis, r in enumerate(roles) if r == role) for role in (1, 2, 3))
        sides.append((x, y, z) if z else (x, y))
    return sides


def assert_rows_are_mi_of(rows, fresh, sides):
    """``rows`` is ``mi_of`` on ``fresh`` sources, bit for bit, as Python floats."""
    assert len(rows) == len(fresh)
    for row, source in zip(rows, fresh):
        assert [type(value) for value in row] == [float] * len(sides)
        assert row == [mi_of(source, *side) for side in sides]


@pytest.mark.parametrize("identical", [True, False])
@pytest.mark.parametrize("n, head_size, dep_size, concentration, zeros", [
    (1, 2, 3, 1.0, False), (1, 1, 1, 1.0, False), (2, 1, 3, 1.0, False), (2, 3, 1, 0.02, False),
    (3, 1, 3, 0.3, False), (3, 3, 3, 0.01, True), (4, 3, 2, 1.0, False), (4, 5, 5, 0.02, True),
])
def test_mi_rows_is_mi_of_on_a_batch_of_models(n, head_size, dep_size, concentration, zeros,
                                               identical):
    """A batch of 20 models, against scalar ``mi_of`` on fresh copies that
    memoise each entropy on their own, on every side of n dependents."""
    specs = [ModelSpec(n=n, head_size=head_size, dep_sizes=dep_size, seed=seed,
                       concentration=concentration, identical_channels=identical)
             for seed in range(20)]
    batch = [random_model(spec) for spec in specs]
    assert zeros == any(build_joint(model).probs.min() == 0.0 for model in batch)
    sides = every_side(n)
    assert_rows_are_mi_of(mi_rows(batch, sides), [random_model(spec) for spec in specs], sides)


def test_mi_rows_is_mi_of_on_joint_tables(tmp_path):
    """The counterexample joint, a random joint and that joint read from a file
    that lists its axes in another order, in one call."""
    canonical, permuted = random_joint(3), tmp_path / "permuted.json"
    save_joint(canonical, permuted)
    document = json.loads(permuted.read_text())
    order = (2, 0, 3, 1)  # dep2, head, dep3, dep1
    document["variables"] = [document["variables"][a] for a in order]
    document["alphabets"] = [document["alphabets"][a] for a in order]
    document["probabilities"] = np.transpose(canonical.probs, order).tolist()
    permuted.write_text(json.dumps(document))
    for sources, fresh, n in (
        ([correlated_pair_counterexample()], [correlated_pair_counterexample()], 2),
        ([load_joint(permuted), canonical], [load_joint(permuted), random_joint(3)], 3),
    ):
        sides = every_side(n)
        assert_rows_are_mi_of(mi_rows(sources, sides), fresh, sides)


@pytest.mark.parametrize("source", [random_model(ModelSpec(n=2, seed=1)),
                                    correlated_pair_counterexample()], ids=["model", "joint"])
def test_mi_rows_on_no_side_and_on_the_zero_side(source):
    """No side gives an empty row per source; ``(0, 0)`` is exactly 0.0."""
    assert mi_rows([source], []) == [[]]
    assert mi_rows([source, source], ()) == [[], []]
    assert mi_rows([source], [(0, 0)]) == [[0.0]]
    assert mi_rows([source], [(0, 0), (1, 2), (0, 0, 1)]) == [[0.0, mi_of(source, 1, 2), 0.0]]


@pytest.mark.parametrize("make", [lambda: random_model(ModelSpec(n=2, seed=1)),
                                  correlated_pair_counterexample], ids=["model", "joint"])
def test_mi_rows_refuses_a_side_past_the_axes(make):
    """A side with an axis the source does not have is refused, as ``mi_of``
    refuses it, and leaves no entropy behind that a later query would read."""
    source = make()
    with pytest.raises(ValidationError, match="axes"):
        mi_rows([source], [(1, 2), (1 << 5, 1)])
    with pytest.raises(ValidationError, match="axes"):
        mi_of(source, 1 << 5, 1)
    assert mi_rows([source], [(1, 2)]) == [[mi_of(make(), 1, 2)]]
