"""Property tests: the memoised entropy table against the brute-force oracles.

Joints are drawn both from factored models (including spiky Dirichlet rows
with low concentration) and as arbitrary non-factored tables with zero cells;
alphabets may have a single value and n may be 1.  Every information measure
must agree with ``tests/oracles.py`` within 1e-12 nats.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonia import (
    HEAD,
    Alphabet,
    JointTable,
    ModelSpec,
    ValidationError,
    build_joint,
    conditional_mutual_information,
    copy_model,
    dep,
    entropy,
    mutual_information,
    random_model,
)
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


def test_single_value_alphabets_carry_no_information():
    joint = build_joint(random_model(ModelSpec(n=1, head_size=1, dep_sizes=1, seed=3)))
    assert entropy(joint, [HEAD, dep(1)]) == 0.0
    assert mutual_information(joint, HEAD, dep(1)) == 0.0


def test_a_mask_beyond_the_axes_is_refused():
    """A mask for more dependents than the joint has must not be read silently."""
    joint = build_joint(copy_model(2, 2, 0.1))
    with pytest.raises(ValidationError, match="axes"):
        joint.entropy_of(1 << 3)
