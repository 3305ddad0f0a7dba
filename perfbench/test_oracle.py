"""The benchmark's oracle against closed forms, and its sample-CSV reader
against the program's writer.  Run with ``PYTHONPATH=src python -m pytest perfbench``."""

from __future__ import annotations

import io
import math

import numpy as np
import pytest

from harmonia import (
    ModelSpec,
    Placement,
    build_joint,
    copy_model,
    independent_model,
    random_model,
    sample,
)

import checks
import oracle


def _entropies(model):
    return oracle.Entropies(oracle.joint(model.head_prior, model.cond_tables))


@pytest.mark.parametrize("size", [2, 3, 5])
@pytest.mark.parametrize("noise", [0.0, 0.1, 0.3])
def test_noisy_copy_mi_is_log_size_minus_noise_entropy(size, noise):
    e = _entropies(copy_model(n=2, size=size, noise=noise))
    row = [1.0 - noise] + [noise / (size - 1)] * (size - 1)
    expected = math.log(size) - oracle.shannon(np.array(row))
    for j in (1, 2):
        assert e.mi({oracle.HEAD}, {j}) == pytest.approx(expected, abs=1e-12)


def test_independent_model_has_no_information_anywhere():
    e = _entropies(independent_model(n=3, sizes=(2, 3, 4, 5)))
    assert abs(e.mi({oracle.HEAD}, {1, 2, 3})) < 1e-12
    assert abs(e.mi({1}, {2, 3})) < 1e-12
    assert abs(e.mi({oracle.HEAD, 1}, {3})) < 1e-12


def test_factored_dependents_are_independent_given_the_head():
    model = random_model(ModelSpec(n=3, head_size=3, dep_sizes=4, seed=5))
    e = _entropies(model)
    assert abs(e.cmi({1}, {2, 3}, {oracle.HEAD})) < 1e-12
    assert e.mi({1}, {2}) > 1e-6  # ...but not independent without it


def test_joint_agrees_with_the_program_cell_by_cell():
    model = random_model(ModelSpec(n=3, head_size=3, dep_sizes=(2, 3, 4), seed=9))
    mine = oracle.joint(model.head_prior, model.cond_tables)
    np.testing.assert_allclose(mine, build_joint(model).probs, rtol=1e-14, atol=0)


def test_xor_dependents_carry_ln2_given_the_head():
    # Uniform head independent of everything, dep3 = dep1 xor dep2: every
    # pair of dependents is independent given the head, the triple is not.
    p = np.zeros((2, 2, 2, 2))
    for h in (0, 1):
        for a in (0, 1):
            for b in (0, 1):
                p[h, a, b, a ^ b] = 1 / 8
    e = oracle.Entropies(p)
    assert e.cmi({1}, {2, 3}, {oracle.HEAD}) == pytest.approx(math.log(2), abs=1e-12)
    for x, y in ((1, 2), (1, 3), (2, 3)):
        assert abs(e.cmi({x}, {y}, {oracle.HEAD})) < 1e-12


def test_sufficient_statistic_makes_head_first_an_equality():
    e = _entropies(copy_model(n=3, size=3, noise=0.0))
    lhs, rhs, sense = oracle.relation_sides("remainder k=1 (head first)", 3, e)
    assert sense == ">=" and lhs == pytest.approx(rhs, abs=1e-12) and lhs > 0.5


def test_unknown_relation_is_refused():
    e = _entropies(copy_model(n=2))
    with pytest.raises(KeyError):
        oracle.relation_sides("pending part4 k=1 j=2", 2, e)


def test_fitted_rule_never_beats_bayes():
    rng = np.random.default_rng(3)
    p = rng.dirichlet(np.ones(27)).reshape(3, 3, 3)
    counts = rng.multinomial(50, p.reshape(-1)).reshape(p.shape)
    assert oracle.rule_accuracy(p, counts) <= oracle.bayes_accuracy(p) + 1e-15


def test_sample_reader_reads_what_the_program_writes(tmp_path):
    model = random_model(ModelSpec(n=3, head_size=4, dep_sizes=5, seed=2))
    samples = sample(model, Placement(n=3, head_position=2), count=200, seed=4)
    buffer = io.StringIO()
    samples.to_csv(buffer)
    path = tmp_path / "samples.csv"
    path.write_bytes(buffer.getvalue().encode("ascii"))
    header, rows = checks.read_samples(path, 4)
    assert header == ["dep1", "head", "dep2", "dep3"]
    np.testing.assert_array_equal(rows, samples.rows)
