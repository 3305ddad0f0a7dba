"""Property tests: the memoised entropy sources against the brute-force oracles.

Joints are drawn both from factored models (including spiky Dirichlet rows
with low concentration) and as arbitrary non-factored tables with zero cells;
alphabets may have a single value and n may be 1.  Every information measure
must agree with ``tests/oracles.py`` within 1e-12 nats, and a model's own
entropies, read off its factors, must agree with its dense joint's.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonia import (
    HEAD,
    ModelSpec,
    ValidationError,
    build_joint,
    copy_model,
    dep,
    mutual_information,
    random_model,
)
from harmonia.distributions import Alphabet, FactoredModel, JointTable
from harmonia.information import conditional_mutual_information, entropy
from oracles import brute_cmi, brute_entropy, brute_mi

TOL = 1e-12

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)

sizes = st.integers(min_value=1, max_value=3)


@st.composite
def factored_joints(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    spec = ModelSpec(
        n=n,
        head_size=draw(sizes),
        dep_sizes=tuple(draw(sizes) for _ in range(n)),
        concentration=draw(st.sampled_from([0.02, 0.1, 1.0, 5.0])),
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        identical_channels=False,
    )
    return build_joint(random_model(spec))


@st.composite
def arbitrary_joints(draw):
    """A joint with no factorisation at all; about a third of its cells are zero."""
    n = draw(st.integers(min_value=1, max_value=3))
    shape = tuple(draw(sizes) for _ in range(n + 1))
    weights = draw(
        st.lists(
            st.one_of(st.just(0.0), st.just(0.0), st.floats(min_value=1e-3, max_value=1.0)),
            min_size=math.prod(shape),
            max_size=math.prod(shape),
        ).filter(lambda w: sum(w) > 0.0)
    )
    probs = np.array(weights).reshape(shape)
    return JointTable(
        variables=(HEAD,) + tuple(dep(i) for i in range(1, n + 1)),
        alphabets=tuple(Alphabet(s) for s in shape),
        probs=probs / probs.sum(),
    )


joints = st.one_of(factored_joints(), arbitrary_joints())


@st.composite
def factored_models(draw):
    """Either regime, n = 1..3, alphabets of size 1..3: spiky or smooth
    Dirichlet tables, or hand-drawn ones in which about half of the cells,
    head values included, are zero."""
    n = draw(st.integers(min_value=1, max_value=3))
    identical = draw(st.booleans())
    head_size = draw(sizes)
    dep_sizes = (draw(sizes),) * n if identical else tuple(draw(sizes) for _ in range(n))
    if draw(st.booleans()):
        return random_model(ModelSpec(
            n=n,
            head_size=head_size,
            dep_sizes=dep_sizes,
            concentration=draw(st.sampled_from([0.02, 0.1, 1.0])),
            seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
            identical_channels=identical,
        ))

    def distribution(size):
        weights = draw(
            st.lists(st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1.0)),
                     min_size=size, max_size=size).filter(lambda w: sum(w) > 0.0)
        )
        return np.array(weights) / sum(weights)

    def table(size):
        return np.array([distribution(size) for _ in range(head_size)])

    shared = table(dep_sizes[0])
    return FactoredModel(
        head_alphabet=Alphabet(head_size),
        dep_alphabets=tuple(Alphabet(s) for s in dep_sizes),
        head_prior=distribution(head_size),
        cond_tables=tuple(shared if identical else table(s) for s in dep_sizes),
    )


@st.composite
def joint_and_groups(draw):
    """A joint and disjoint groups X, Y (non-empty) and Z (possibly empty)."""
    joint = draw(joints)
    variables = list(joint.variables)
    roles = draw(st.permutations(variables))
    cut_x = draw(st.integers(min_value=1, max_value=len(roles) - 1))
    cut_y = draw(st.integers(min_value=cut_x + 1, max_value=len(roles)))
    x, y, z = roles[:cut_x], roles[cut_x:cut_y], roles[cut_y:]
    return joint, x, y, z


@PROPERTY
@given(joints, st.data())
def test_entropy_matches_oracle(joint, data):
    subset = data.draw(
        st.lists(st.sampled_from(joint.variables), min_size=1, unique=True)
    )
    assert abs(entropy(joint, subset) - brute_entropy(joint, subset)) <= TOL


@PROPERTY
@given(joint_and_groups())
def test_mutual_information_matches_oracle(case):
    joint, x, y, _ = case
    assert abs(mutual_information(joint, x, y) - brute_mi(joint, x, y)) <= TOL


@PROPERTY
@given(joint_and_groups())
def test_conditional_mutual_information_matches_oracle(case):
    joint, x, y, z = case
    got = conditional_mutual_information(joint, x, y, z)
    assert abs(got - brute_cmi(joint, x, y, z)) <= TOL


@PROPERTY
@given(joints, st.data())
def test_query_order_does_not_change_a_single_bit(joint, data):
    """A subset's entropy is the same float however and whenever it is asked for."""
    subsets = data.draw(
        st.lists(
            st.lists(st.sampled_from(joint.variables), min_size=1, unique=True),
            min_size=1,
            max_size=6,
        )
    )
    fresh = JointTable(joint.variables, joint.alphabets, joint.probs)
    forward = [entropy(joint, s) for s in subsets]
    backward = [entropy(fresh, s[::-1]) for s in reversed(subsets)][::-1]
    assert forward == backward


@PROPERTY
@given(factored_models())
def test_model_entropies_match_its_dense_joint_on_every_mask(model):
    """The factors' marginals and the dense joint's sums agree on every subset."""
    joint = build_joint(model)
    for mask in range(1 << model.n + 1):
        assert abs(model.entropy_of(mask) - joint.entropy_of(mask)) <= TOL


@PROPERTY
@given(factored_models(), st.data())
def test_model_query_order_does_not_change_a_single_bit(model, data):
    """A model's subset entropy is the same float whenever it is asked for."""
    masks = data.draw(
        st.lists(st.integers(min_value=0, max_value=(1 << model.n + 1) - 1),
                 min_size=1, max_size=6)
    )
    fresh = FactoredModel(model.head_alphabet, model.dep_alphabets, model.head_prior,
                          model.cond_tables)
    forward = [model.entropy_of(m) for m in masks]
    backward = [fresh.entropy_of(m) for m in reversed(masks)][::-1]
    assert forward == backward


def test_single_value_alphabets_carry_no_information():
    joint = build_joint(random_model(ModelSpec(n=1, head_size=1, dep_sizes=1, seed=3)))
    assert entropy(joint, [HEAD, dep(1)]) == 0.0
    assert mutual_information(joint, HEAD, dep(1)) == 0.0


def test_a_mask_beyond_the_axes_is_refused():
    """A mask for more dependents than the joint or model has must not be read silently."""
    model = copy_model(2, 2, 0.1)
    for source in (build_joint(model), model):
        with pytest.raises(ValidationError, match="axes"):
            source.entropy_of(1 << 3)


def _alone(model, mask):
    """H of ``mask`` from this model's own product, summed as one model alone
    would be: the prior times the masked tables in axis order, the head axis
    summed away without the head bit, then the cells in C order without zeros."""
    p = model.head_prior
    chosen = [t for i, t in enumerate(model.cond_tables, 1) if mask >> i & 1]
    for i, table in enumerate(chosen):
        p = p[..., np.newaxis] * table.reshape((table.shape[0],) + (1,) * i + (table.shape[1],))
    if not mask & 1:
        p = p.sum(axis=0)
    q = p.ravel() if p.min() > 0.0 else p[p > 0.0]
    return -float((np.log(q) * q).sum())


@pytest.mark.parametrize("identical", [True, False])
@pytest.mark.parametrize("n, head_size, dep_size, concentration, zeros", [
    (1, 2, 3, 1.0, False), (1, 1, 1, 1.0, False), (2, 3, 1, 0.02, False),
    (3, 1, 3, 0.3, False), (4, 3, 2, 1.0, False), (4, 5, 5, 0.02, True),
])
def test_batched_entropies_equal_single_model_ones_bit_for_bit(
        n, head_size, dep_size, concentration, zeros, identical):
    """``memoise_entropies`` over a batch of 20 and over each model alone gives,
    on every mask of the compiled plan, the bits of the model's own product;
    spiky rows put zero cells in some of the batch's products."""
    from harmonia.distributions import memoise_entropies
    from oracles import battery_masks

    masks = battery_masks(n, identical)
    specs = [ModelSpec(n=n, head_size=head_size, dep_sizes=dep_size, seed=seed,
                       concentration=concentration, identical_channels=identical)
             for seed in range(20)]
    batched, alone = [random_model(s) for s in specs], [random_model(s) for s in specs]
    assert zeros == any(build_joint(model).probs.min() == 0.0 for model in batched)
    memoise_entropies(batched, masks)
    for model in alone:
        memoise_entropies([model], masks)
    for one, other in zip(batched, alone):
        for mask in masks:
            expected = _alone(one, mask) if mask else 0.0
            assert one._entropies[mask] == other._entropies[mask] == expected, mask
            assert type(one._entropies[mask]) is float
