"""Acceptance gate: the eight criteria this package must meet.

Each test prints exactly one PASS/FAIL line (with its tolerance) to the real
terminal, then asserts.  The full default sweep runs once and is shared by
the criteria that consume its rows.
"""

import math
import time

import pytest

from harmonia import (
    HEAD,
    ModelSpec,
    Placement,
    build_joint,
    copy_model,
    dep,
    dep_range,
    independent_model,
    mutual_information,
    optimal_head_position,
    random_model,
    sample,
    theorem_battery,
)
from harmonia.distributions import check_factorization
from harmonia.estimation import plug_in_mi
from harmonia.generators import correlated_pair_counterexample
from harmonia.information import is_markov_chain
from harmonia.modelio import save_joint
from harmonia.placement import Objective, remainder_relation_checks, verify_remainder_theorem
from harmonia.sweep import RunConfig, run_sweep
from harmonia.typology import load_typology, typology_report
from harmonia.cli import main

LN2 = math.log(2.0)


@pytest.fixture(scope="module")
def full_sweep():
    return run_sweep(RunConfig())


def verdict(capsys, number, ok, description, tolerance):
    line = (
        f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description} "
        f"[tolerance: {tolerance}]"
    )
    with capsys.disabled():
        print(line, flush=True)
    return ok


def test_criterion_1_default_sweep_is_clean(capsys, full_sweep):
    """>= 1000 random models over the default grid, zero failures, under a minute."""
    result = full_sweep
    config = result.config
    ok = (
        result.model_count >= 1000
        and config.n_values == (2, 3, 4)
        and config.head_sizes == (2, 3, 5)
        and config.dep_sizes == (2, 3, 5)
        and result.failures == []
        and result.elapsed_seconds < 60.0
    )
    assert verdict(
        capsys, 1, ok,
        f"{result.model_count} models, {len(result.rows)} relation checks, "
        f"{len(result.failures)} failures in {result.elapsed_seconds:.1f}s",
        "inequalities at 1e-9 nats; wall clock < 60 s",
    )


def test_criterion_2_equalities_come_with_markov_chains(capsys):
    """Constructed equality models are diagnosed as chains; noise breaks both sides."""
    problems = []

    for label, model in (("exact-copy", copy_model(3, 2, 0.0)),
                         ("independent", independent_model(3))):
        for check in verify_remainder_theorem(model):
            if abs(check.lhs - check.rhs) > 1e-9:
                problems.append(f"{label}: {check.name} not an equality")
            if check.equality_diagnosis is None or not check.equality_diagnosis.is_chain:
                problems.append(f"{label}: {check.name} equality without a chain verdict")
            elif check.equality_diagnosis.residual > 1e-9:
                problems.append(f"{label}: {check.name} chain residual too large")
        for _, check in theorem_battery(model):
            if check.equality_diagnosis is not None and not check.equality_diagnosis.is_chain:
                problems.append(f"{label}: {check.name} diagnosed non-chain at equality")

    noisy = copy_model(3, 2, 0.1)
    joint = build_joint(noisy)
    first, last = verify_remainder_theorem(noisy)
    if not (first.slack > 1e-3 and last.slack > 1e-3):
        problems.append("noisy copy: remainder inequalities not strict")
    if is_markov_chain(joint, HEAD, dep(1), dep_range(2, 3)).is_chain:
        problems.append("noisy copy: head-first chain should fail")
    if is_markov_chain(joint, dep_range(1, 2), dep(3), HEAD).is_chain:
        problems.append("noisy copy: head-last chain should fail")

    ok = not problems
    assert verdict(
        capsys, 2, ok,
        problems[0] if problems else
        "equality models diagnosed as Markov chains, noisy model strict both ways",
        "equality at 1e-9 nats, strictness margin > 1e-3 nats",
    ), problems


def test_criterion_3_counterexample_reverses_the_relation(capsys, tmp_path):
    """Dropping the factorisation flips the head-first advantage, and the CLI says no."""
    joint = correlated_pair_counterexample()
    violation = check_factorization(joint)
    first, last = remainder_relation_checks(joint)

    path = tmp_path / "counterexample.json"
    save_joint(joint, path)
    exit_code = main(["verify", "--input", str(path), "--out", str(tmp_path / "r.csv")])
    capsys.readouterr()  # swallow the CLI's own stderr summary

    ok = (
        abs(violation - LN2) <= 1e-12
        and abs(first.lhs - 0.0) <= 1e-15
        and abs(first.rhs - LN2) <= 1e-15
        and not first.holds
        and not last.holds
        and exit_code == 1
    )
    assert verdict(
        capsys, 3, ok,
        f"factorisation violated by {violation:.3f} nats, "
        f"I(head; deps)={first.lhs:.3f} < I(dep1; head+dep2)={first.rhs:.3f}, "
        f"verify exit code {exit_code}",
        "exact values at 1e-12/1e-15 nats; CLI must exit 1",
    )


def test_criterion_4_harmony_argmax_contracts(capsys, full_sweep):
    """Head-last maximises head predictability, head-first dependent predictability."""
    problems = []

    harmony = [check for _, theorem, check in full_sweep.rows if theorem == "harmony"]
    if len(harmony) < 2 * full_sweep.model_count:
        problems.append("missing harmony rows in the sweep")
    if any(not check.holds for check in harmony):
        problems.append("a harmony row failed in the sweep")

    for seed in (1, 2, 3):
        for identical in (False, True):
            n = 1 + seed
            model = random_model(
                ModelSpec(n=n, head_size=3, dep_sizes=2, seed=seed,
                          identical_channels=identical)
            )
            head_best = optimal_head_position(
                model, Objective.HEAD_PREDICTABILITY
            ).best_positions
            dep_best = optimal_head_position(
                model, Objective.DEPENDENT_PREDICTABILITY
            ).best_positions
            if n + 1 not in head_best:
                problems.append(f"seed {seed}: head-last not optimal for the head")
            if 1 not in dep_best:
                problems.append(f"seed {seed}: head-first not optimal for dependents")

    single = optimal_head_position(copy_model(1, 2, 0.2), Objective.REMAINDER_AT_K, k=1)
    if single.best_positions != (1, 2):
        problems.append("n=1: head-first and head-last should tie")
    if abs(single.scores[0] - single.scores[1]) > 1e-12:
        problems.append("n=1: remainder scores differ beyond 1e-12")

    ok = not problems
    assert verdict(
        capsys, 4, ok,
        problems[0] if problems else
        f"{len(harmony)} sweep harmony rows hold; argmax membership on 6 models; "
        "n=1 positions tie",
        "argmax ties at 1e-9 nats; n=1 symmetry at 1e-12 nats",
    ), problems


def test_criterion_5_monotone_growth_and_irrelevance(capsys, full_sweep):
    """More produced dependents never hurt the head; produced deps never help pending ones."""
    growth = [
        check for _, theorem, check in full_sweep.rows
        if theorem == "lattice" and "(1) head-predictability-grows" in check.name
    ]
    irrelevance = [check for _, theorem, check in full_sweep.rows if theorem == "irrelevance"]
    ok = (
        len(growth) >= 2000
        and len(irrelevance) >= 3000
        and all(r.holds for r in growth)
        and all(r.holds for r in irrelevance)
        and max(abs(r.slack) for r in irrelevance) <= 1e-9
    )
    assert verdict(
        capsys, 5, ok,
        f"{len(growth)} growth rows and {len(irrelevance)} irrelevance rows hold "
        f"(worst irrelevance gap {max(abs(r.slack) for r in irrelevance):.2e} nats)",
        "1e-9 nats",
    )


def test_criterion_6_typology_table_reproduced(capsys):
    """Bundled counts and stored percentages match the published table; counts rise."""
    report = typology_report(load_typology())
    by_key = {(g.source, g.unit): g for g in report.groups}

    expected = {
        ("wals", "languages"): ((111, 444, 501), (10.5, 42.0, 47.4), 1056),
        ("hammarstrom", "languages"): ((677, 2157, 2294), (13.2, 41.3, 44.7), 5128),
        ("hammarstrom", "families"): ((42, 58, 240), (12.4, 17.0, 70.6), 340),
    }
    problems = []
    for key, (counts, stored, total) in expected.items():
        group = by_key.get(key)
        if group is None:
            problems.append(f"missing group {key}")
            continue
        if tuple(r.frequency for r in group.rows) != counts:
            problems.append(f"{key}: counts differ")
        if tuple(r.percentage for r in group.rows) != stored:
            problems.append(f"{key}: stored percentages differ")
        if group.total != total:
            problems.append(f"{key}: total differs")
    inconsistent = sum(
        1 for g in report.groups for ok_flag in g.consistent if not ok_flag
    )
    if inconsistent != 2:
        problems.append(f"expected exactly 2 inconsistent rows, found {inconsistent}")
    if not report.all_counts_monotonic:
        problems.append("counts are not monotone in some group")

    ok = not problems
    assert verdict(
        capsys, 6, ok,
        problems[0] if problems else
        "three groups match the published counts; verb-final largest everywhere; "
        "2 stored percentages flagged against recomputation",
        "percentages compared at 0.05 percentage points",
    ), problems


def test_criterion_7_plug_in_mi_converges(capsys):
    """Plug-in MI approaches the exact value as samples grow, at the documented rate."""
    model = copy_model(2, 2, 0.1)
    placement = Placement.head_first(2)
    exact = mutual_information(build_joint(model), HEAD, dep(1))
    closed_form = LN2 + 0.9 * math.log(0.9) + 0.1 * math.log(0.1)

    seeds = range(101, 121)
    mae = {}
    for count in (100, 1_000, 10_000, 100_000):
        devs = [
            abs(plug_in_mi(sample(model, placement, count, seed=s), HEAD, dep(1)) - exact)
            for s in seeds
        ]
        mae[count] = sum(devs) / len(devs)

    ok = (
        abs(exact - closed_form) <= 1e-9
        and mae[100] > mae[1_000] > mae[10_000] > mae[100_000]
        and mae[100_000] <= 0.02
    )
    assert verdict(
        capsys, 7, ok,
        f"exact I = ln2 - H(0.1) = {exact:.6f} nats; mean |plug-in - exact| over "
        f"20 seeds: {mae[100]:.4f} -> {mae[1_000]:.4f} -> {mae[10_000]:.4f} -> "
        f"{mae[100_000]:.4f} nats",
        "exact value at 1e-9 nats; mean deviation at 1e5 samples <= 0.02 nats",
    )


def test_criterion_8_exact_identities_hold_everywhere(capsys, full_sweep):
    """Symmetry is bit-exact; chain rule and conditional independence are numeric zeros."""
    symmetry = [
        check for _, theorem, check in full_sweep.rows
        if theorem == "identity" and check.name.startswith("symmetry")
    ]
    chain = [
        check for _, theorem, check in full_sweep.rows
        if theorem == "identity" and check.name.startswith("chain-rule")
    ]
    indep = [check for _, theorem, check in full_sweep.rows
             if theorem == "given-head-independence"]

    ok = (
        len(symmetry) >= 2000
        and len(chain) >= 2000
        and len(indep) >= 5000
        and all(r.slack == 0.0 for r in symmetry)
        and all(abs(r.slack) <= 1e-9 for r in chain)
        and all(abs(r.slack) <= 1e-12 for r in indep)
    )
    assert verdict(
        capsys, 8, ok,
        f"{len(symmetry)} symmetry rows bit-exact; {len(chain)} chain-rule rows and "
        f"{len(indep)} conditional-independence rows at numeric zero",
        "symmetry exact (0 ulp); chain rule 1e-9; independence 1e-12 nats",
    )
