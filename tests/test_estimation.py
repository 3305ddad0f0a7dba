"""Sampling, plug-in estimation and next-element prediction scores."""

import csv
import io
import math

import numpy as np
import pytest

from harmonia import (
    HEAD,
    Placement,
    ValidationError,
    build_joint,
    copy_model,
    dep,
    independent_model,
    mutual_information,
    sample,
)
from harmonia import distributions, estimation
from harmonia.distributions import Alphabet, FactoredModel
from harmonia.estimation import SampleSet, empirical_joint, next_element_score, plug_in_mi
from harmonia.information import entropy
from oracles import brute_bayes_accuracy, brute_mi

LN2 = math.log(2.0)
H_BERN_01 = 0.3250829733914482  # binary entropy of 0.1 in nats
EXACT_MI_COPY_01 = LN2 - H_BERN_01

#: Seeds frozen for the estimator-convergence study (and its acceptance check).
CONVERGENCE_SEEDS = tuple(range(101, 121))
SAMPLE_COUNTS = (100, 1_000, 10_000, 100_000)

#: Mean absolute deviation of plug-in MI from the exact value over the seeds
#: above, on the 2-dependent noisy-copy model; recorded from this code.
FROZEN_MAE = {100: 0.047293, 1_000: 0.013862, 10_000: 0.005134, 100_000: 0.001562}


def study_model():
    return copy_model(2, 2, 0.1)


# -- sampling ----------------------------------------------------------------------


def test_sample_shape_and_determinism():
    model = study_model()
    placement = Placement.head_first(2)
    a = sample(model, placement, 500, seed=7)
    b = sample(model, placement, 500, seed=7)
    assert a.count == 500
    assert a.rows.shape == (500, 3)
    assert np.array_equal(a.rows, b.rows)
    assert not np.array_equal(a.rows, sample(model, placement, 500, seed=8).rows)


def test_sample_columns_follow_the_placement():
    model = study_model()
    head_last = sample(model, Placement.head_last(2), 200, seed=3)
    assert [v.name for v in head_last.variables] == ["dep1", "dep2", "head"]
    assert head_last.column_of(HEAD) == 2
    # Same seed, same draws: the head-first ordering is a column permutation.
    head_first = sample(model, Placement.head_first(2), 200, seed=3)
    assert np.array_equal(head_first.rows[:, 0], head_last.rows[:, 2])


def test_sample_validation():
    model = study_model()
    with pytest.raises(ValidationError):
        sample(model, Placement.head_first(2), 0, seed=1)
    with pytest.raises(ValidationError):
        sample(model, Placement.head_first(3), 10, seed=1)


def test_sample_set_rejects_mismatched_columns():
    good = sample(study_model(), Placement.head_first(2), 10, seed=0)
    with pytest.raises(ValidationError):
        SampleSet(
            placement=good.placement,
            variables=good.variables[::-1],
            alphabets=good.alphabets,
            rows=good.rows,
            seed=0,
        )
    with pytest.raises(ValidationError, match="outside"):
        SampleSet(
            placement=good.placement,
            variables=good.variables,
            alphabets=good.alphabets,
            rows=np.full((4, 3), 5),
            seed=0,
        )


def test_sample_frequencies_approach_the_joint():
    model = study_model()
    joint = build_joint(model)
    samples = sample(model, Placement.head_first(2), 200_000, seed=11)
    emp = empirical_joint(samples, joint.variables)
    assert float(np.abs(emp.probs - joint.probs).max()) < 0.005


def test_to_csv_plain_and_labelled():
    model = study_model()
    samples = sample(model, Placement.head_first(2), 3, seed=2)
    plain = io.StringIO()
    samples.to_csv(plain)
    lines = plain.getvalue().strip().splitlines()
    assert lines[0] == "head,dep1,dep2"
    assert len(lines) == 4
    assert all(c in "01," for c in lines[1])

    labelled = io.StringIO()
    samples.to_csv(labelled, labels=True)
    assert labelled.getvalue().splitlines()[1:] == plain.getvalue().splitlines()[1:]

    # Labelled and unlabelled alphabets mixed, with labels CSV must quote.
    mixed = FactoredModel(
        head_alphabet=Alphabet(3, labels=("N, x", 'q"q', "v")),
        dep_alphabets=(Alphabet(2), Alphabet(2, labels=("", "a\nb"))),
        head_prior=[0.2, 0.3, 0.5],
        cond_tables=([[0.6, 0.4], [0.1, 0.9], [0.5, 0.5]],) * 2,
    )
    samples = sample(mixed, Placement(n=2, head_position=2), 200, seed=4)
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(v.name for v in samples.variables)
    for row in samples.rows:
        writer.writerow(alpha.label(int(v)) for alpha, v in zip(samples.alphabets, row))
    labelled = io.StringIO()
    samples.to_csv(labelled, labels=True)
    assert labelled.getvalue() == expected.getvalue()
    assert '"N, x"' in labelled.getvalue() and '"q""q"' in labelled.getvalue()

    plain = io.StringIO()
    samples.to_csv(plain)
    assert list(csv.reader(io.StringIO(plain.getvalue())))[1:] == [
        [str(v) for v in row] for row in samples.rows.tolist()
    ]


# -- empirical tables and plug-in MI -------------------------------------------------


def test_empirical_joint_counts():
    rows = np.array([[0, 0, 0], [0, 0, 0], [1, 1, 1], [0, 1, 1]])
    base = sample(study_model(), Placement.head_first(2), 4, seed=0)
    samples = SampleSet(
        placement=base.placement,
        variables=base.variables,
        alphabets=base.alphabets,
        rows=rows,
        seed=0,
    )
    table = empirical_joint(samples, (HEAD, dep(1)))
    assert np.array_equal(table.probs, np.array([[0.5, 0.25], [0.0, 0.25]]))


def test_empirical_joint_marginal_consistency():
    samples = sample(study_model(), Placement.head_last(2), 5_000, seed=21)
    full = empirical_joint(samples, samples.placement.sequence())
    pair = empirical_joint(samples, (HEAD, dep(2)))
    np.testing.assert_allclose(
        full.marginal((HEAD, dep(2))).probs, pair.probs, atol=1e-12
    )


def test_plug_in_mi_matches_brute_force_on_the_empirical_table():
    samples = sample(study_model(), Placement.head_first(2), 1_000, seed=13)
    table = empirical_joint(samples, (HEAD, dep(1)))
    expected = brute_mi(table, [HEAD], [dep(1)])
    assert plug_in_mi(samples, HEAD, dep(1)) == pytest.approx(expected, abs=1e-12)


def test_plug_in_mi_requires_disjoint_sets():
    samples = sample(study_model(), Placement.head_first(2), 10, seed=0)
    with pytest.raises(ValidationError):
        plug_in_mi(samples, HEAD, HEAD)


def test_plug_in_mi_is_biased_up_on_independent_data():
    """On independent variables the plug-in estimate is positive, never negative."""
    samples = sample(independent_model(1), Placement.head_first(1), 200, seed=17)
    est = plug_in_mi(samples, HEAD, dep(1))
    assert est > 0.0
    assert est < 0.05


def test_plug_in_mi_convergence_study():
    """Mean |plug-in - exact| over 20 fixed seeds shrinks with sample size."""
    model = study_model()
    placement = Placement.head_first(2)
    mae = {}
    for count in SAMPLE_COUNTS:
        devs = [
            abs(
                plug_in_mi(sample(model, placement, count, seed=s), HEAD, dep(1))
                - EXACT_MI_COPY_01
            )
            for s in CONVERGENCE_SEEDS
        ]
        mae[count] = sum(devs) / len(devs)
    assert mae[100] > mae[1_000] > mae[10_000] > mae[100_000]
    for count in SAMPLE_COUNTS:
        assert mae[count] == pytest.approx(FROZEN_MAE[count], abs=1e-4)
    assert mae[100_000] <= 0.02


# -- next-element prediction ---------------------------------------------------------


def test_exact_bayes_accuracy_head_last():
    """Predicting the head from both noisy copies: right unless both flip."""
    score = next_element_score(study_model(), Placement.head_last(2), k=2)
    assert score.target == HEAD
    assert score.exact_bayes_accuracy == pytest.approx(0.9, abs=1e-12)
    assert score.exact_mi == pytest.approx(
        mutual_information(build_joint(study_model()), (dep(1), dep(2)), HEAD),
        abs=1e-15,
    )
    assert score.empirical_accuracy is None and score.plug_in_mi is None


@pytest.mark.parametrize("k", [0, 1, 2])
def test_exact_bayes_accuracy_matches_brute_force(k):
    model = copy_model(2, 3, 0.25)
    placement = Placement(n=2, head_position=2)
    joint = build_joint(model)
    seq = placement.sequence()
    score = next_element_score(model, placement, k=k)
    expected = brute_bayes_accuracy(joint, list(seq[:k]), seq[k])
    assert score.exact_bayes_accuracy == pytest.approx(expected, abs=1e-12)


def test_stage_zero_accuracy_is_the_mode_mass():
    score = next_element_score(study_model(), Placement.head_first(2), k=0)
    assert score.exact_bayes_accuracy == pytest.approx(0.5, abs=1e-15)
    assert score.exact_mi == 0.0


def test_prediction_accuracy_bounds():
    with pytest.raises(ValidationError):
        next_element_score(study_model(), Placement.head_first(2), k=3)


@pytest.mark.parametrize("seed", range(40, 50))
def test_empirical_rule_never_beats_bayes(seed):
    """The Bayes rule is optimal, so a count-fit rule evaluated exactly can't exceed it."""
    model = study_model()
    placement = Placement.head_last(2)
    samples = sample(model, placement, 50, seed=seed)
    score = next_element_score(model, placement, k=2, samples=samples)
    assert score.empirical_accuracy <= score.exact_bayes_accuracy + 1e-12


def test_empirical_rule_recovers_bayes_with_enough_data():
    model = study_model()
    placement = Placement.head_last(2)
    samples = sample(model, placement, 10_000, seed=5)
    score = next_element_score(model, placement, k=2, samples=samples)
    assert score.empirical_accuracy == pytest.approx(score.exact_bayes_accuracy, abs=1e-12)
    assert score.plug_in_mi == pytest.approx(score.exact_mi, abs=0.05)


def test_unseen_prefixes_fall_back_to_target_mode():
    """A single observed row leaves prefixes unseen; the score must stay defined."""
    model = copy_model(2, 3, 0.2)
    placement = Placement.head_last(2)
    samples = sample(model, placement, 1, seed=9)
    score = next_element_score(model, placement, k=2, samples=samples)
    assert 0.0 < score.empirical_accuracy <= score.exact_bayes_accuracy
    # With one sample the empirical table is degenerate but still a distribution.
    emp = empirical_joint(samples, (HEAD,))
    assert entropy(emp, (HEAD,)) == 0.0


def test_samples_must_match_the_scored_placement():
    model = study_model()
    samples = sample(model, Placement.head_first(2), 10, seed=0)
    with pytest.raises(ValidationError, match="different placement"):
        next_element_score(model, Placement.head_last(2), k=1, samples=samples)


def test_score_checks_its_arguments_before_building_the_joint(monkeypatch):
    def refuse(model):
        raise AssertionError("dense joint built")

    model = study_model()  # its joint is not built yet
    samples = sample(study_model(), Placement.head_first(2), 10, seed=0)
    monkeypatch.setattr(distributions, "build_joint", refuse)
    with pytest.raises(ValidationError, match="placement has n=3"):
        next_element_score(model, Placement.head_first(3), k=1)
    with pytest.raises(ValidationError, match="different placement"):
        next_element_score(model, Placement.head_last(2), k=1, samples=samples)


def test_sample_and_score_share_one_joint(monkeypatch):
    """`sample --score-k` builds the model's joint once, not once per step."""

    calls = []
    real = distributions.build_joint

    def counting(model):
        calls.append(model)
        return real(model)

    monkeypatch.setattr(distributions, "build_joint", counting)
    monkeypatch.setattr(estimation, "build_joint", counting, raising=False)
    model = copy_model(3, 2, 0.1)
    placement = Placement(n=3, head_position=2)
    samples = sample(model, placement, count=200, seed=5)
    next_element_score(model, placement, 2, samples=samples)
    assert calls == [model]
