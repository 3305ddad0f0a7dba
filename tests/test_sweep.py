"""Sweep configuration, the per-model battery, and report output."""

import io
import math
import os

import pytest

from harmonia import (
    RunConfig,
    ValidationError,
    build_joint,
    copy_model,
    correlated_pair_counterexample,
    independent_model,
    run_sweep,
    theorem_battery,
    write_report,
)
from harmonia.sweep import (
    CSV_HEADER,
    checks_for_joint,
    resolve_workers,
    sweep_tasks,
    write_witnesses,
)

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
    with pytest.raises(ValidationError):
        RunConfig(tolerance=0.0)
    with pytest.raises(ValidationError):
        RunConfig(n_values=())
    with pytest.raises(ValidationError):
        RunConfig(head_sizes=(2, 0))
    with pytest.raises(ValidationError):
        RunConfig(aggregate="median")
    with pytest.raises(ValidationError):
        RunConfig(workers=0)


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
    assert result.model_count == 1
    assert result.holds


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
        assert "(4)" not in name and "(5)" not in name
        assert "(6)" not in name and "(7)" not in name
    assert all(check.holds for _, check in theorem_battery(model))


def test_battery_includes_cross_slot_relations_for_shared_channels():
    names = [check.name for _, check in theorem_battery(copy_model(3, 2, 0.1))]
    assert any("part1 k=1 j=3" in n for n in names)
    assert any("(4)" in n for n in names)
    assert any("(7)" in n for n in names)


def test_cross_slot_marks_exactly_the_slot_comparing_relations():
    """The field set where a check is built agrees with the relations' names."""
    for _, check in theorem_battery(copy_model(4, 2, 0.1)):
        name = check.name
        slot_comparing = any(f"({num})" in name for num in (4, 5, 6, 7))
        if "part1" in name:
            slot_comparing = name.split("k=")[1].split(" ")[0] != name.split("j=")[1]
        assert check.cross_slot == slot_comparing, name


def test_battery_n1_has_the_symmetry_harmony_check():
    pairs = theorem_battery(copy_model(1, 2, 0.2))
    names = [check.name for _, check in pairs]
    assert "n=1 head-first equals head-last" in names
    assert all(check.holds for _, check in pairs)


def test_battery_identity_checks_are_bit_exact():
    for _, check in theorem_battery(independent_model(3)):
        if check.name.startswith("symmetry"):
            assert check.tolerance == 0.0
            assert check.lhs == check.rhs


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
    assert result.model_count == 16
    assert result.holds
    assert result.failures == []
    assert len(result.rows) > 300


def test_sweep_rows_are_sorted():
    rows = run_sweep(SMALL).rows
    keys = [(r.model_id, r.theorem, r.relation) for r in rows]
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


def test_float_fields_round_trip_through_repr():
    result = run_sweep(RunConfig(sweep_size=2, n_values=(2,), head_sizes=(3,), dep_sizes=(2,)))
    out = io.StringIO()
    write_report(result.rows, out, timestamp=False)
    lines = out.getvalue().splitlines()[1:]
    import csv as csv_mod

    parsed = list(csv_mod.reader(lines))
    for row, original in zip(parsed, result.rows):
        assert float(row[3]) == original.lhs_nats
        assert float(row[4]) == original.rhs_nats
        assert float(row[5]) == original.slack


def test_witnesses_written_only_for_failures(tmp_path):
    clean = run_sweep(SMALL)
    assert write_witnesses(clean, tmp_path) == []
    assert list(tmp_path.iterdir()) == []


def test_witnesses_name_the_failing_model(tmp_path):
    from dataclasses import replace

    result = run_sweep(RunConfig(sweep_size=2, n_values=(2,), head_sizes=(2,), dep_sizes=(2,)))
    # Forge one failing row to exercise the writer without a real failure.
    forged = replace(result.rows[0], holds=False)
    result.rows[0] = forged
    paths = write_witnesses(result, tmp_path)
    assert len(paths) == 1
    assert paths[0].name == f"witness-{forged.model_id}.json"
    from harmonia import file_metadata, load_model

    meta = file_metadata(paths[0])
    assert meta["model_id"] == forged.model_id
    assert forged.relation in meta["failing_relations"]
    load_model(paths[0])  # the witness is a valid model file
