"""Sweep configuration, the per-model battery, and report output."""

import collections
import gc
import io
import itertools
import json
import math
import os
import pickle
import re
import weakref

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
    optimal_head_position,
    placement_profile,
    random_model,
    theorem_battery,
)
from harmonia.distributions import Alphabet, FactoredModel, JointTable
from harmonia.generators import correlated_pair_counterexample
from harmonia.information import direct_mi_of, is_markov_chain, mi_of
from harmonia.placement import (
    Objective,
    Relation,
    RelationCheck,
    _evaluate,
    lattice_report,
    remainder_relation_checks,
    verify_irrelevance,
    verify_pending_theorem,
    verify_remainder_theorem,
)
import harmonia.distributions
import harmonia.information
import harmonia.placement
import harmonia.sweep
from harmonia.sweep import (
    CSV_HEADER,
    RunConfig,
    SweepResult,
    battery_plan,
    checks_for_joint,
    resolve_workers,
    run_sweep,
    sweep_tasks,
    write_report,
    write_witnesses,
)

from oracles import battery_masks, brute_mi

SMALL = RunConfig(
    sweep_size=4,
    n_values=(2, 3),
    head_sizes=(2, 3),
    dep_sizes=(2,),
    seed=90125,
)


# -- configuration -------------------------------------------------------------------


def test_config_defaults_give_a_thousand_models():
    config = RunConfig()
    assert config.model_count == 3 * 3 * 3 * 40 == 1080
    assert config.tolerance == 1e-9


def test_config_validation():
    with pytest.raises(ValidationError):
        RunConfig(sweep_size=0)
    assert RunConfig(tolerance=0.0).tolerance == 0.0  # an exact sweep
    with pytest.raises(ValidationError):
        RunConfig(n_values=())
    with pytest.raises(ValidationError):
        RunConfig(head_sizes=(2, 0))
    with pytest.raises(ValidationError):
        RunConfig(aggregate="median")
    with pytest.raises(ValidationError):
        RunConfig(workers=0)
    for name in ("n_values", "head_sizes", "dep_sizes"):
        with pytest.raises(ValidationError, match="repeat"):
            RunConfig(**{name: (2, 3, 2)})


def test_config_from_dict_rejects_unknown_keys():
    assert RunConfig.from_dict({"sweep_size": 2}).sweep_size == 2
    with pytest.raises(ValidationError, match="unknown config key"):
        RunConfig.from_dict({"sweep_sizes": 2})


def test_resolve_workers_caps_at_the_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert resolve_workers(None) == 1
    assert resolve_workers(3) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert resolve_workers(10_000) == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: run serially
    assert resolve_workers(10_000) == 1


def test_run_sweep_starts_no_pool_for_a_single_model(monkeypatch):
    import harmonia.sweep

    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(
        harmonia.sweep, "get_context", lambda: pytest.fail("a pool was started")
    )
    config = RunConfig(sweep_size=1, n_values=(2,), head_sizes=(2,), dep_sizes=(2,), workers=4)
    result = run_sweep(config)
    assert config.model_count == 1
    assert not result.failures


def test_sweep_tasks_alternate_regimes_and_are_deterministic():
    tasks = sweep_tasks(SMALL)
    assert len(tasks) == SMALL.model_count == 16
    assert tasks[0].model_id == "n2-h2-d2-id-0000"
    assert tasks[1].model_id == "n2-h2-d2-ps-0001"
    assert tasks[0].spec.identical_channels
    assert not tasks[1].spec.identical_channels
    assert [t.spec.seed for t in tasks] == [t.spec.seed for t in sweep_tasks(SMALL)]
    assert len({t.spec.seed for t in tasks}) == len(tasks)


# -- the battery ----------------------------------------------------------------------


def test_battery_covers_every_theorem_family():
    pairs = theorem_battery(copy_model(3, 2, 0.1))
    families = {theorem for theorem, _ in pairs}
    assert families == {
        "identity",
        "given-head-independence",
        "remainder",
        "pending",
        "irrelevance",
        "lattice",
        "harmony",
    }
    assert all(check.holds for _, check in pairs)


def test_battery_excludes_cross_slot_relations_by_default():
    """Per-slot models must not be scored on relations that need identical channels."""
    from harmonia import ModelSpec, random_model

    model = random_model(ModelSpec(n=3, head_size=2, dep_sizes=(2, 3, 2), seed=8))
    assert not model.has_identical_channels
    names = [check.name for _, check in theorem_battery(model)]
    for name in names:
        if "part1" in name:
            k = int(name.split("k=")[1].split(" ")[0])
            j = int(name.split("j=")[1])
            assert j == k
        assert "(4)" not in name and ("(5)" not in name or "k=1 " in name)
        assert "(6)" not in name and "(7)" not in name
    assert "lattice k=1 (5) early-head-helps-at-k" in names
    assert all(check.holds for _, check in theorem_battery(model))


def test_battery_includes_cross_slot_relations_for_shared_channels():
    names = [check.name for _, check in theorem_battery(copy_model(3, 2, 0.1))]
    assert any("part1 k=2 j=3" in n for n in names)
    assert any("(4)" in n for n in names)
    assert any("(7)" in n for n in names)


def test_cross_slot_marks_exactly_the_slot_comparing_relations():
    """The field set where a plan entry is built agrees with the relations' names;
    (5) compares different slots only past k = 1."""
    for entry in battery_plan(4, True):
        name = entry.name
        slot_comparing = any(f"({num})" in name for num in (4, 6, 7)) or (
            "(5)" in name and "k=1 " not in name)
        if "part1" in name:
            slot_comparing = name.split("k=")[1].split(" ")[0] != name.split("j=")[1]
        assert entry.cross_slot == slot_comparing, name


def _terms(side, identical):
    """The signed entropy terms of one plan side: I(X; Y | Z) is
    H(XZ) + H(YZ) - H(XYZ) - H(Z), with H of the empty set dropped.  Under
    identical channels an entropy depends only on the head bit and the number
    of dependents, so a mask is keyed by that pair."""
    x, y, z = (*side, 0)[:3]
    terms = collections.Counter()
    for mask, sign in ((x | z, 1), (y | z, 1), (x | y | z, -1), (z, -1)):
        if mask:
            terms[(mask & 1, (mask >> 1).bit_count()) if identical else mask] += sign
    return {key: count for key, count in terms.items() if count}


@pytest.mark.parametrize("identical", [True, False])
def test_no_battery_row_compares_the_same_entropy_terms(identical):
    """A row whose sides are the same entropies equals itself bit for bit and
    can catch no error."""
    for n in range(1, 7):
        same = [e.name for e in battery_plan(n, identical)
                if _terms(e.lhs, identical) == _terms(e.rhs, identical)]
        # The one exemption: perfbench/checks.py::check_exact reads I(head; dep1) off it.
        assert same == ["pending part1 k=1 j=1"], n


@pytest.mark.parametrize("identical", [True, False])
def test_every_reversed_inequality_fails_on_a_seeded_model(identical):
    """The mutation gate: each LE/GE entry of the plan, reversed, fails
    (slack < -1e-9) on at least one of 20 seeded models, so each row could
    catch a wrong relation."""
    flipped = {Relation.LE: Relation.GE, Relation.GE: Relation.LE}
    for n in range(2, 5):
        mutants = [e._replace(relation=flipped[e.relation])
                   for e in battery_plan(n, identical) if e.relation in flipped]
        caught = set()
        for seed, concentration in itertools.product(range(10), (1.0, 0.3)):
            model = random_model(ModelSpec(n=n, head_size=3, dep_sizes=3, seed=seed,
                                           concentration=concentration,
                                           identical_channels=identical))
            caught |= {c.name for c in _evaluate([model], mutants, 1e-9)[0][0] if not c.holds}
        assert sorted({e.name for e in mutants} - caught) == [], n


def test_battery_n1_has_no_row_true_by_construction():
    """At n = 1 the remainder rows and the head-first/head-last comparison
    were MI symmetry on the same entropies; symmetry is now checked across
    the two paths."""
    pairs = theorem_battery(copy_model(1, 2, 0.2))
    assert [(theorem, check.name) for theorem, check in pairs] == [
        ("harmony", "head-first attains dependent-predictability max"),
        ("harmony", "head-last attains head-predictability max"),
        ("identity", "symmetry head-vs-deps"),
        ("pending", "pending part1 k=1 j=1"),
    ]
    assert all(check.holds for _, check in pairs)


def test_battery_symmetry_rows_compare_the_two_paths():
    """lhs is I(X; Y) from the model's entropies, rhs I(Y; X) summed directly
    on the dense joint; they agree within rounding, at the sweep tolerance."""
    model = random_model(ModelSpec(n=3, head_size=3, dep_sizes=2, seed=4))
    masks = {"symmetry head-vs-deps": (1, 0b1110), "symmetry dep1-vs-rest": (0b10, 0b1101)}
    rows = [check for _, check in theorem_battery(model, tol=1e-10)
            if check.name.startswith("symmetry")]
    assert sorted(check.name for check in rows) == sorted(masks)
    for check in rows:
        x, y = masks[check.name]
        assert check.tolerance == 1e-10
        assert check.lhs == mi_of(model, x, y)
        assert check.rhs == direct_mi_of(model.joint, y, x)
        assert abs(check.slack) <= 1e-12


def test_battery_sums_each_direct_mi_once(monkeypatch):
    """The chain-rule row deps-about-head sums the rhs of symmetry
    head-vs-deps; the battery sums it once, so 3 direct sums at n >= 2 and 1
    at n = 1, with the same rows."""
    for n, sums in ((1, 1), (2, 3), (3, 3)):
        model = random_model(ModelSpec(n=n, head_size=3, dep_sizes=2, seed=n))
        expected = theorem_battery(model)
        calls = []

        def counted(*args, original=harmonia.information.direct_mi_of):
            calls.append(args[1:])
            return original(*args)

        for module in (harmonia.sweep, harmonia.information):
            monkeypatch.setattr(module, "direct_mi_of", counted)
        assert theorem_battery(model) == expected
        monkeypatch.undo()
        assert len(calls) == len(set(calls)) == sums


# -- the tolerance rule ----------------------------------------------------------------


def test_an_exact_check_takes_tolerance_zero():
    """tol = 0.0 is an exact check, from every entry point."""
    model = copy_model(3, 2, 0.0)
    for checks in (verify_pending_theorem(model, 1, 2, tol=0.0), lattice_report(model, 1, tol=0.0),
                   [check for _, check in theorem_battery(model, tol=0.0)]):
        assert checks and all(isinstance(check, RelationCheck) for check in checks)
        assert {check.tolerance for check in checks} <= {0.0, 1e-12}
    verdict = is_markov_chain(model.joint, HEAD, dep(1), (dep(2), dep(3)), tol=0.0)
    assert verdict.is_chain == (verdict.residual == 0.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_every_check_refuses_a_tolerance_that_is_not_finite_and_non_negative(tol):
    model = copy_model(3, 2, 0.1)
    calls = [
        lambda: RunConfig(tolerance=tol),
        lambda: theorem_battery(model, tol=tol),
        lambda: checks_for_joint(correlated_pair_counterexample(), tol),
        lambda: remainder_relation_checks(model, tol),
        lambda: verify_irrelevance(model, 1, 2, tol=tol),
        lambda: lattice_report(model, 1, tol=tol),
        lambda: optimal_head_position(model, Objective.HEAD_PREDICTABILITY, tol=tol),
        lambda: is_markov_chain(model.joint, HEAD, dep(1), dep(2), tol=tol),
    ]
    for call in calls:
        with pytest.raises(ValidationError) as info:
            call()
        assert str(info.value) == f"tolerance must be a finite number >= 0, got {tol}"


# -- the battery against the brute-force oracle ------------------------------------


def _deps(first, last):
    return [dep(i) for i in range(first, last + 1)]


def _lattice_cells(n, k, mi):
    """The cells of ``lattice_plan``'s docstring."""
    head = [HEAD]
    cells = {
        "head_pred_k": mi(_deps(1, k), head),
        "head_pred_k1": mi(_deps(1, k + 1), head),
        "dep_with_head_k": mi(head + _deps(1, k - 1), [dep(k)]),
        "dep_with_head_k1": mi(head + _deps(1, k), [dep(k + 1)]),
        "dep_without_head_k": mi(_deps(1, k), [dep(k + 1)]),
    }
    if k + 2 <= n:
        cells["dep_without_head_k1"] = mi(_deps(1, k + 1), [dep(k + 2)])
    return cells


#: Lattice relation number -> (lhs cell, rhs cell), read from the docstrings of
#: ``lattice_report`` and ``lattice_plan``.
LATTICE_SIDES = {
    1: ("head_pred_k", "head_pred_k1"),
    2: ("dep_with_head_k", "head_pred_k"),
    3: ("dep_with_head_k1", "head_pred_k1"),
    4: ("dep_with_head_k", "dep_with_head_k1"),
    5: ("dep_without_head_k", "dep_with_head_k"),
    6: ("dep_without_head_k1", "dep_with_head_k1"),
    7: ("dep_without_head_k", "dep_without_head_k1"),
}


def _expected_sides(name, joint, n):
    """Both sides of a battery row, stated as the docstrings state them and
    summed by brute force; None for the families the oracle does not cover."""
    head = [HEAD]

    def mi(x, y):
        return brute_mi(joint, x, y)

    stage = {key: int(value) for key, value in re.findall(r"\b([kj])=(\d+)", name)}
    k, j = stage.get("k"), stage.get("j")
    if name == "remainder k=1 (head first)":
        return mi(head, _deps(1, n)), mi([dep(1)], head + _deps(2, n))
    if name == f"remainder k={n} (head last)":
        return mi(_deps(1, n), head), mi(head + _deps(1, n - 1), [dep(n)])
    if "part1" in name:
        return mi(head + _deps(1, k - 1), [dep(j)]), mi(_deps(1, k), head)
    if "part2" in name:
        return mi(_deps(1, k), [dep(j)]), mi(_deps(1, k), head)
    if "part3" in name:
        return mi(_deps(1, k), [dep(j)]), mi(head + _deps(1, k - 1), [dep(j)])
    if name.startswith("irrelevance"):
        return mi(head + _deps(1, k), [dep(j)]), mi(head, [dep(j)])
    if name.startswith("lattice"):
        cells = _lattice_cells(n, k, mi)
        lhs, rhs = LATTICE_SIDES[int(re.search(r"\((\d)\)", name).group(1))]
        return cells[lhs], cells[rhs]
    if name == "head-last attains head-predictability max":
        # Position p produces dep1..p-1 before the head.
        scores = [mi(_deps(1, p - 1), head) for p in range(1, n + 2)]
        return max(scores), scores[n]
    if name == "head-first attains dependent-predictability max":
        # The first element is the head at position 1 and dep1 after it; the
        # score is the least it says about a dependent still pending.
        first = min(mi(head, [dep(i)]) for i in range(1, n + 1))
        later = min((mi([dep(1)], [dep(i)]) for i in range(2, n + 1)), default=0.0)
        return max(first, later), first
    return None


def _spiky(identical):
    """Zero cells everywhere: a head value of probability 0 and rows with zeros."""
    table = np.array([[1.0, 0.0, 0.0], [0.0, 0.25, 0.75], [0.5, 0.5, 0.0]])
    other = np.array([[0.0, 1.0, 0.0], [0.9, 0.0, 0.1], [0.0, 0.0, 1.0]])
    tables = (table,) * 3 if identical else (table, other, table[::-1])
    return FactoredModel(
        head_alphabet=Alphabet(3),
        dep_alphabets=(Alphabet(3),) * 3,
        head_prior=np.array([0.7, 0.3, 0.0]),
        cond_tables=tables,
    )


ORACLE_MODELS = [
    pytest.param(
        random_model(ModelSpec(n=n, head_size=3, dep_sizes=2 if identical else (2, 3, 2, 3)[:n],
                               seed=40 + n, identical_channels=identical)),
        id=f"n{n}-{'id' if identical else 'ps'}",
    )
    for n in range(1, 5)
    for identical in (True, False)
] + [pytest.param(_spiky(True), id="spiky-id"), pytest.param(_spiky(False), id="spiky-ps")]


@pytest.mark.parametrize("model", ORACLE_MODELS)
def test_battery_sides_match_the_brute_force_oracle(model):
    """Remainder, pending, irrelevance, lattice and harmony rows against brute_mi."""
    joint = build_joint(model)
    checked = set()
    for theorem, check in theorem_battery(model):
        expected = _expected_sides(check.name, joint, model.n)
        if theorem in ("identity", "given-head-independence"):
            assert expected is None
            continue
        assert expected is not None, check.name
        assert check.lhs == pytest.approx(expected[0], abs=1e-12), check.name
        assert check.rhs == pytest.approx(expected[1], abs=1e-12), check.name
        checked.add(theorem)
    families = {"pending", "harmony"}
    assert checked == families | ({"remainder", "irrelevance", "lattice"} if model.n > 1 else set())


def test_models_of_one_n_and_regime_share_one_plan(monkeypatch):
    plans = []
    build = harmonia.sweep.battery_plan

    def recording(n, identical_channels):
        plans.append(build(n, identical_channels))
        return plans[-1]

    monkeypatch.setattr(harmonia.sweep, "battery_plan", recording)
    for seed, head_size in ((1, 2), (2, 5)):
        spec = ModelSpec(n=3, head_size=head_size, dep_sizes=3, seed=seed,
                         identical_channels=True)
        theorem_battery(random_model(spec))
    assert len(plans) == 2 and plans[0] is plans[1]
    assert build(3, False) is not plans[0]


def test_battery_builds_no_variable_sets_per_model(monkeypatch):
    """Per model the battery only looks entropies up: no group of variables,
    no mask validation, no search for a variable's axis."""
    first = random_model(ModelSpec(n=4, head_size=3, dep_sizes=2, seed=5))
    second = random_model(ModelSpec(n=4, head_size=2, dep_sizes=3, seed=6))
    theorem_battery(first)
    second.joint

    def refuse(*args, **kwargs):
        raise AssertionError("called on the battery path")

    monkeypatch.setattr(harmonia.distributions, "variables_of", refuse)
    monkeypatch.setattr(harmonia.information, "variables_of", refuse)
    monkeypatch.setattr(JointTable, "axis_of", refuse)
    monkeypatch.setattr(harmonia.information, "_masks", refuse)
    assert all(check.holds for _, check in theorem_battery(second))


@pytest.mark.parametrize("identical", [True, False])
def test_plan_harmony_and_profiles_never_build_the_dense_joint(monkeypatch, identical):
    """The model's own entropies serve every relation, score and profile."""

    def refuse(model):
        raise AssertionError("dense joint built")

    monkeypatch.setattr(harmonia.distributions, "build_joint", refuse)
    model = random_model(ModelSpec(n=4, head_size=3, dep_sizes=2, seed=7,
                                   identical_channels=identical))
    checks = _evaluate([model], battery_plan(4, identical), 1e-9)[0][0]
    assert checks and all(check.holds for check in checks)
    for objective, k in ((Objective.HEAD_PREDICTABILITY, None),
                         (Objective.DEPENDENT_PREDICTABILITY, None),
                         (Objective.REMAINDER_AT_K, 2)):
        optimal_head_position(model, objective, k=k)
    for position in range(1, 6):
        placement_profile(model, Placement(n=4, head_position=position))
    assert "joint" not in vars(model)


def test_identity_rows_compare_the_dense_joint_with_the_model_entropies():
    """Wrong model entropies fail every identity row: each compares them with
    a sum made directly on the dense joint."""
    model = random_model(ModelSpec(n=3, head_size=3, dep_sizes=2, seed=11))
    theorem_battery(model)
    rng = np.random.default_rng(0)
    for mask in list(model._entropies):
        if mask:
            model._entropies[mask] += rng.uniform(1e-6, 1e-5)
    identity = {check.name: check for theorem, check in theorem_battery(model)
                if theorem == "identity"}
    assert len(identity) == 4 and not any(check.holds for check in identity.values())


def test_dropping_a_model_frees_its_joint_without_the_cycle_collector():
    gc.disable()
    try:
        model = random_model(ModelSpec(n=3, head_size=2, dep_sizes=2, seed=8))
        theorem_battery(model)
        placement_profile(model, Placement.head_first(3))
        joint = weakref.ref(model.joint)
        del model
        assert joint() is None
    finally:
        gc.enable()


def test_checks_for_joint_flags_the_counterexample():
    pairs = checks_for_joint(correlated_pair_counterexample())
    by_name = {check.name: check for _, check in pairs}
    fact = by_name["dependents independent given head"]
    assert not fact.holds
    assert fact.lhs == pytest.approx(math.log(2.0), abs=1e-15)
    remainder_fails = [c for _, c in pairs if c.name.startswith("remainder") and not c.holds]
    assert len(remainder_fails) == 2


def test_checks_for_joint_passes_a_factored_joint():
    pairs = checks_for_joint(build_joint(copy_model(2, 2, 0.1)))
    assert all(check.holds for _, check in pairs)


# -- running and reporting ---------------------------------------------------------


def test_small_sweep_has_zero_failures():
    result = run_sweep(SMALL)
    assert SMALL.model_count == 16
    assert not result.failures
    assert result.failures == []
    assert len(result.rows) > 300


def test_sweep_rows_are_sorted():
    rows = run_sweep(SMALL).rows
    keys = [(model_id, theorem, check.name) for model_id, theorem, check in rows]
    assert keys == sorted(keys)


@pytest.mark.parametrize("identical", [True, False])
def test_battery_rows_come_in_theorem_relation_order(identical):
    """``verify --input`` writes one model's rows as the battery returns them."""
    model = random_model(ModelSpec(n=4, head_size=3, dep_sizes=2, seed=11,
                                   identical_channels=identical))
    keys = [(theorem, check.name) for theorem, check in theorem_battery(model)]
    assert keys == sorted(keys)


def test_report_is_byte_identical_without_timestamp():
    result = run_sweep(SMALL)
    a, b = io.StringIO(), io.StringIO()
    write_report(result.rows, a, timestamp=False)
    write_report(result.rows, b, timestamp=False)
    assert a.getvalue() == b.getvalue()
    header = a.getvalue().splitlines()[0]
    assert header == ",".join(CSV_HEADER)


def test_report_timestamp_is_a_comment_line():
    result = run_sweep(RunConfig(sweep_size=1, n_values=(1,), head_sizes=(2,), dep_sizes=(2,)))
    out = io.StringIO()
    write_report(result.rows, out, timestamp=True)
    first, second = out.getvalue().splitlines()[:2]
    assert first.startswith("# generated-at: ")
    assert second == ",".join(CSV_HEADER)


def test_parallel_sweep_matches_serial():
    from dataclasses import replace

    serial = run_sweep(SMALL)
    parallel = run_sweep(replace(SMALL, workers=2))
    sa, pa = io.StringIO(), io.StringIO()
    write_report(serial.rows, sa, timestamp=False)
    write_report(parallel.rows, pa, timestamp=False)
    assert sa.getvalue() == pa.getvalue()


def test_checks_round_trip_through_pickle():
    """Pool workers send every check to the parent; each field must survive."""
    checks = [check for _, check in theorem_battery(copy_model(3, 2, 0.0))]
    assert any(check.equality_diagnosis is not None for check in checks)
    assert pickle.loads(pickle.dumps(checks)) == checks


def test_float_fields_round_trip_through_repr():
    result = run_sweep(RunConfig(sweep_size=2, n_values=(2,), head_sizes=(3,), dep_sizes=(2,)))
    out = io.StringIO()
    write_report(result.rows, out, timestamp=False)
    lines = out.getvalue().splitlines()[1:]
    import csv as csv_mod

    parsed = list(csv_mod.reader(lines))
    for row, (_, _, check) in zip(parsed, result.rows):
        assert float(row[3]) == check.lhs
        assert float(row[4]) == check.rhs
        assert float(row[5]) == check.slack


def test_witnesses_written_only_for_failures(tmp_path):
    clean = run_sweep(SMALL)
    assert write_witnesses(clean, tmp_path) == []
    assert list(tmp_path.iterdir()) == []


def test_witnesses_read_each_verdict_once(tmp_path, monkeypatch):
    """The failing rows are gathered once, not once per failing model."""
    from collections import Counter
    from dataclasses import replace

    def failing(check):
        return replace(check, lhs=check.rhs + (-1.0 if check.relation is Relation.GE else 1.0))

    config = RunConfig(sweep_size=2, n_values=(2,), head_sizes=(2,), dep_sizes=(2,))
    rows = [(model_id, theorem, failing(check))
            for model_id, theorem, check in run_sweep(config).rows]
    reads, holds = Counter(), RelationCheck.holds

    def counted(check):
        reads[id(check)] += 1
        return holds.fget(check)

    monkeypatch.setattr(RelationCheck, "holds", property(counted))
    paths = write_witnesses(SweepResult(config, rows, 0.0), tmp_path)
    assert len(paths) == 2
    assert len(reads) == len(rows) and max(reads.values()) == 1


def test_witnesses_name_the_failing_model(tmp_path):
    from dataclasses import replace

    result = run_sweep(RunConfig(sweep_size=2, n_values=(2,), head_sizes=(2,), dep_sizes=(2,)))
    # Forge one failing row through a side to exercise the writer without a real failure.
    model_id, theorem, check = result.rows[0]
    forged = replace(check, lhs=check.rhs + (-1.0 if check.relation is Relation.GE else 1.0))
    assert not forged.holds
    result.rows[0] = (model_id, theorem, forged)
    paths = write_witnesses(result, tmp_path)
    assert len(paths) == 1
    assert paths[0].name == f"witness-{model_id}.json"
    from harmonia.modelio import load_model

    meta = json.loads(paths[0].read_text())["metadata"]
    assert meta["model_id"] == model_id
    assert forged.name in meta["failing_relations"]
    load_model(paths[0])  # the witness is a valid model file


# -- a grid cell as the unit of work ---------------------------------------------------

#: Cells with n = 1, one-valued alphabets, spiky rows with zero cells and both
#: regimes; at concentration 0.001 the per-slot cell n2-h1-d2-ps draws
#: identical tables for one of its models, so that cell mixes regimes.
CELLS = [RunConfig(sweep_size=6, n_values=(1, 3), head_sizes=(1, 3), dep_sizes=(1, 2),
                   concentration=0.05, seed=7),
         RunConfig(sweep_size=8, n_values=(2,), head_sizes=(1, 2), dep_sizes=(2,),
                   concentration=0.001, seed=0)]


@pytest.mark.parametrize("config", CELLS, ids=["small-alphabets", "mixed-regimes"])
def test_theorem_battery_equals_the_models_rows_in_the_sweep(config):
    """The sweep's cell path and ``theorem_battery`` on one model give the same
    checks, field for field."""
    rows = collections.defaultdict(list)
    for model_id, theorem, check in run_sweep(config).rows:
        rows[model_id].append((theorem, check))
    tasks = sweep_tasks(config)
    assert sorted(rows) == sorted(t.model_id for t in tasks)
    regimes = collections.defaultdict(set)
    for task in tasks:
        model = random_model(task.spec)
        regimes[task.model_id.rsplit("-", 1)[0]].add(model.has_identical_channels)
        assert theorem_battery(model) == rows[task.model_id], task.model_id
    assert any(len(cell) == 2 for cell in regimes.values()) == (config.concentration == 0.001)


def _recorded_products(monkeypatch):
    """Record (models in the batch, or None without a models axis; number of
    tables; cells) of every call of the product primitive."""
    calls = []

    def recording(head_prior, tables, original=harmonia.distributions._product):
        p = original(head_prior, tables)
        calls.append((len(head_prior) if head_prior.ndim == 2 else None, len(tables), p.size))
        return p

    monkeypatch.setattr(harmonia.distributions, "_product", recording)
    return calls


def test_a_batch_never_holds_more_than_the_bound(monkeypatch):
    """With the bound patched down, a cell's products split into batches of at
    most the bound, a model above it is batched alone, and no row changes."""
    config = RunConfig(sweep_size=8, n_values=(3,), head_sizes=(3,), dep_sizes=(2,), seed=5)
    expected = run_sweep(config).rows
    monkeypatch.setattr(harmonia.distributions, "_BATCH_CELLS", 20)
    calls = _recorded_products(monkeypatch)
    assert run_sweep(config).rows == expected
    batches = [(models, cells) for models, _, cells in calls if models is not None]
    assert all(cells <= 20 or models == 1 for models, cells in batches)
    assert (1, 24) in batches  # head and three dependents: 24 cells, alone
    assert (3, 18) in batches and (1, 6) in batches  # one dependent: 4 models in 3 + 1
    assert max(models for models, _ in batches) == 4  # no dependent: the whole cell


def test_a_sweep_makes_one_product_per_batch_and_dependent_set(monkeypatch):
    """The mechanism, guarded: each cell computes each dependent set of its
    compiled plan once, with all its models on the leading axis; the only
    per-model products are the dense joints of the identity rows."""
    config = RunConfig(sweep_size=6, n_values=(3,), head_sizes=(2,), dep_sizes=(3,), seed=3)
    calls = _recorded_products(monkeypatch)
    run_sweep(config)
    sets = {identical: {mask >> 1 for mask in battery_masks(3, identical)}
            for identical in (True, False)}
    batched = [(models, tables) for models, tables, _ in calls if models is not None]
    assert len(batched) == len(sets[True]) + len(sets[False]) == 2 * 2 ** 3
    assert all(models == 3 for models, _ in batched)
    joints = [tables for models, tables, _ in calls if models is None]
    assert joints == [3] * config.model_count


@pytest.mark.parametrize("identical", [True, False])
def test_the_compiled_masks_serve_the_chains_and_the_identity_rows(identical):
    """A chain's diagnosis and the identity rows read only dependent sets that
    the compiled plan computes, so after the batch they are lookups."""
    for n in range(1, 9):
        plan = battery_plan(n, identical)
        sets = {mask | 1 for mask in battery_masks(n, identical)}
        everything = (1 << n + 1) - 1
        read = [1, everything, everything & ~2, 2 | 1, everything & ~3]
        for x, y, z in (e.chain for e in plan if e.chain):
            read += [x | y, z | y, x | y | z, y]
        assert {mask | 1 for mask in read} <= sets, n


def test_a_second_battery_recomputes_no_memoised_entropy(monkeypatch):
    """``memoise_entropies`` skips a mask that every model holds: a second
    battery on the same n = 8 model makes one product, the identity rows'
    dense joint, where it made one per dependent set."""
    model = random_model(ModelSpec(n=8, head_size=5, dep_sizes=5, seed=1))
    expected = theorem_battery(model)
    calls = _recorded_products(monkeypatch)
    assert theorem_battery(model) == expected
    assert [(models, tables) for models, tables, _ in calls] == [(None, 8)]


# -- one evaluator ---------------------------------------------------------------------


def _counted_mi_rows(monkeypatch):
    """Record the number of sources of every call of the primitive where
    ``placement`` binds it."""
    calls = []

    def counted(sources, sides, original=harmonia.information.mi_rows):
        calls.append(len(sources))
        return original(sources, sides)

    monkeypatch.setattr(harmonia.placement, "mi_rows", counted)
    return calls


def test_each_checker_score_and_profile_is_one_call_of_the_primitive(monkeypatch):
    """Every plan side, head-position score and profile value of one source
    comes from a single ``mi_rows`` call; ``placement`` has no scalar path."""
    model = random_model(ModelSpec(n=4, head_size=3, dep_sizes=2, seed=2))
    joint = correlated_pair_counterexample()
    calls = _counted_mi_rows(monkeypatch)
    for evaluate in (lambda: verify_pending_theorem(model, 2, 3),
                     lambda: verify_irrelevance(model, 1, 3),
                     lambda: lattice_report(model, 2),
                     lambda: verify_remainder_theorem(model),
                     lambda: remainder_relation_checks(joint),
                     lambda: optimal_head_position(model, "dependent", aggregate="mean"),
                     lambda: optimal_head_position(model, "remainder", k=2, dependent_order=(2, 1, 4, 3)),
                     lambda: placement_profile(model, Placement(n=4, head_position=3)),
                     lambda: placement_profile(joint, Placement(n=2, head_position=2))):
        calls.clear()
        evaluate()
        assert calls == [1]
    assert not hasattr(harmonia.placement, "mi_of")


def test_a_sweep_calls_the_primitive_once_per_cell_and_regime(monkeypatch):
    """Two cells, each with two models per regime: four calls of two models,
    and the only scalar MI of the sweep is each model's two symmetry rows."""
    config = RunConfig(sweep_size=4, n_values=(3,), head_sizes=(2,), dep_sizes=(2, 3), seed=3)
    calls = _counted_mi_rows(monkeypatch)
    scalar = []

    def counted(*args, original=harmonia.information.mi_of):
        scalar.append(args[1:])
        return original(*args)

    monkeypatch.setattr(harmonia.sweep, "mi_of", counted)
    assert all(check.holds for _, _, check in run_sweep(config).rows)
    assert calls == [2] * 4
    assert len(scalar) == 2 * config.model_count
