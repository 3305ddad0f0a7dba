"""Seeded model generators and the deliberately broken joint."""

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
from harmonia.distributions import check_factorization
from harmonia.generators import correlated_pair_counterexample, derive_seed

LN2 = math.log(2.0)


# -- seed derivation --------------------------------------------------------------


def test_derive_seed_known_value():
    # splitmix64 of state 0: a published reference output.
    assert derive_seed(0, 0) == 0xE220A8397B1DCDAF


def test_derive_seed_is_symmetric_in_its_arguments():
    assert derive_seed(20260814, 7) == derive_seed(7, 20260814)


def test_derive_seed_spreads_without_collisions():
    seeds = {derive_seed(20260814, i) for i in range(5000)}
    assert len(seeds) == 5000
    assert all(0 <= s < 2**64 for s in seeds)


def test_derive_seed_rejects_negatives():
    with pytest.raises(ValidationError):
        derive_seed(-1, 0)
    with pytest.raises(ValidationError):
        derive_seed(0, -2)


# -- ModelSpec --------------------------------------------------------------------


def test_spec_normalises_scalar_dep_sizes():
    spec = ModelSpec(n=3, dep_sizes=4)
    assert spec.dep_sizes == (4, 4, 4)


def test_spec_validation():
    with pytest.raises(ValidationError):
        ModelSpec(n=0)
    with pytest.raises(ValidationError):
        ModelSpec(n=2, dep_sizes=(2, 3, 4))
    with pytest.raises(ValidationError):
        ModelSpec(n=2, head_size=0)
    with pytest.raises(ValidationError):
        ModelSpec(n=2, concentration=0.0)
    with pytest.raises(ValidationError, match="identical channels"):
        ModelSpec(n=2, dep_sizes=(2, 3), identical_channels=True)


# -- random models ----------------------------------------------------------------


def test_random_model_is_reproducible():
    spec = ModelSpec(n=2, head_size=3, dep_sizes=(2, 4), seed=99)
    a, b = random_model(spec), random_model(spec)
    assert np.array_equal(a.head_prior, b.head_prior)
    for ta, tb in zip(a.cond_tables, b.cond_tables):
        assert np.array_equal(ta, tb)


def test_random_model_rows_are_distributions():
    model = random_model(ModelSpec(n=3, head_size=4, dep_sizes=(2, 3, 5), seed=5))
    assert model.head_prior.sum() == pytest.approx(1.0, abs=1e-12)
    for table in model.cond_tables:
        assert np.all(table >= 0)
        np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-12)


def test_random_model_seeds_differ():
    a = random_model(ModelSpec(n=1, head_size=3, dep_sizes=3, seed=1))
    b = random_model(ModelSpec(n=1, head_size=3, dep_sizes=3, seed=2))
    assert not np.array_equal(a.head_prior, b.head_prior)


def test_identical_channels_flag_round_trips():
    shared = random_model(ModelSpec(n=3, dep_sizes=3, seed=4, identical_channels=True))
    assert shared.has_identical_channels
    free = random_model(ModelSpec(n=3, dep_sizes=3, seed=4))
    assert not free.has_identical_channels


def test_concentration_controls_spikiness():
    """Low concentration puts most row mass on one value, high spreads it."""
    spiky = random_model(ModelSpec(n=1, head_size=20, dep_sizes=8, seed=0, concentration=0.05))
    flat = random_model(ModelSpec(n=1, head_size=20, dep_sizes=8, seed=0, concentration=50.0))
    assert spiky.cond_tables[0].max(axis=1).mean() > 0.8
    assert flat.cond_tables[0].max(axis=1).mean() < 0.3


def test_tiny_concentration_still_yields_distributions():
    model = random_model(ModelSpec(n=1, head_size=2, dep_sizes=4, seed=3, concentration=1e-3))
    np.testing.assert_allclose(model.cond_tables[0].sum(axis=1), 1.0, atol=1e-12)


# -- constructed models -----------------------------------------------------------


def test_copy_model_frozen_joint():
    joint = build_joint(copy_model(1, 2, 0.1))
    assert np.array_equal(joint.probs, np.array([[0.45, 0.05], [0.05, 0.45]]))


def test_copy_model_exact_copy_at_zero_noise():
    model = copy_model(2, 3, 0.0)
    for table in model.cond_tables:
        assert np.array_equal(table, np.eye(3))
    assert model.has_identical_channels


def test_copy_model_noise_spreads_evenly():
    table = copy_model(1, 4, 0.3).cond_tables[0]
    off_diag = table[~np.eye(4, dtype=bool)]
    np.testing.assert_allclose(off_diag, 0.1)
    np.testing.assert_allclose(np.diag(table), 0.7)


def test_copy_model_validation():
    with pytest.raises(ValidationError):
        copy_model(0)
    with pytest.raises(ValidationError):
        copy_model(1, size=1)
    with pytest.raises(ValidationError):
        copy_model(1, noise=0.6)
    with pytest.raises(ValidationError):
        copy_model(1, noise=-0.1)


def test_independent_model_has_no_information_anywhere():
    joint = build_joint(independent_model(2, sizes=(2, 3, 4)))
    assert mutual_information(joint, HEAD, dep_range(1, 2)) <= 1e-12
    assert mutual_information(joint, dep(1), dep(2)) <= 1e-12


def test_independent_model_sizes():
    model = independent_model(2, sizes=(3, 2, 4))
    assert model.head_alphabet.size == 3
    assert tuple(a.size for a in model.dep_alphabets) == (2, 4)
    with pytest.raises(ValidationError):
        independent_model(2, sizes=(3, 2))


# -- the counterexample -----------------------------------------------------------


def test_counterexample_masses():
    joint = correlated_pair_counterexample()
    assert joint.variables == (HEAD, dep(1), dep(2))
    assert float(joint.probs[0, 1, 1]) == 0.25
    assert float(joint.probs[0, 0, 1]) == 0.0
    assert float(joint.probs.sum()) == 1.0


def test_counterexample_breaks_the_factorisation():
    assert check_factorization(correlated_pair_counterexample()) == pytest.approx(LN2, abs=1e-15)


def test_counterexample_information_pattern():
    joint = correlated_pair_counterexample()
    assert mutual_information(joint, HEAD, dep_range(1, 2)) == pytest.approx(0.0, abs=1e-15)
    assert mutual_information(joint, dep(1), dep(2)) == pytest.approx(LN2, abs=1e-15)
