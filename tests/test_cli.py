"""End-to-end command-line behaviour, driven in-process through main()."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import harmonia
from harmonia import ModelSpec, random_model
from harmonia.modelio import load_model, save_joint, save_model
from harmonia.cli import _config_from_args, build_parser, main
from harmonia.sweep import RunConfig


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def metadata(path):
    return json.loads(Path(path).read_text())["metadata"]


def gen_copy(capsys, tmp_path, name="copy.json", n=2, noise=0.1):
    path = tmp_path / name
    code, _, _ = run(
        capsys, "gen", "copy", "--n", str(n), "--noise", str(noise), "--out", str(path)
    )
    assert code == 0
    return path


# -- gen ------------------------------------------------------------------------------


def test_gen_copy_writes_a_loadable_model(capsys, tmp_path):
    path = tmp_path / "m.json"
    code, out, err = run(capsys, "gen", "copy", "--n", "2", "--noise", "0.1", "--out", str(path))
    assert code == 0
    assert f"wrote {path}" in err
    assert "I(head; dep1) = 0.368064 nats" in err
    assert "I(head; all dependents)" in err
    model = load_model(path)
    assert model.n == 2
    assert metadata(path) == {"generator": "copy", "n": 2, "size": 2, "noise": 0.1}


def test_gen_random_records_its_spec(capsys, tmp_path):
    path = tmp_path / "r.json"
    code, _, _ = run(
        capsys, "gen", "random", "--n", "3", "--head-size", "3", "--dep-size", "2",
        "--seed", "17", "--identical-channels", "--out", str(path),
    )
    assert code == 0
    meta = metadata(path)
    assert meta["seed"] == 17
    assert meta["identical_channels"] is True
    assert load_model(path).has_identical_channels


def test_gen_counterexample_writes_a_joint(capsys, tmp_path):
    path = tmp_path / "c.json"
    code, _, err = run(capsys, "gen", "counterexample", "--out", str(path))
    assert code == 0
    assert "non-factored joint" in err
    assert "I(head; dependents) = 0.000000 nats" in err
    assert "I(dep1; head+dep2) = 0.693147 nats" in err
    assert "max factorization violation = 0.693147" in err
    meta = metadata(path)
    assert meta["factored"] is False
    assert meta["factorization_max_violation"] == pytest.approx(math.log(2.0), abs=1e-15)


@pytest.mark.parametrize(
    "argv",
    [
        ("copy", "--n", "3", "--noise", "0.1"),
        ("random", "--n", "3", "--head-size", "3", "--dep-size", "2"),
        ("independent", "--n", "2"),
    ],
    ids=["copy", "random", "independent"],
)
def test_gen_summary_reads_the_model_not_its_dense_joint(capsys, tmp_path, monkeypatch, argv):
    def refuse(model):
        raise AssertionError("dense joint built")

    monkeypatch.setattr(harmonia.distributions, "build_joint", refuse)
    code, _, err = run(capsys, "gen", *argv, "--out", str(tmp_path / "m.json"))
    assert code == 0
    assert "I(head; all dependents) = " in err


def test_gen_writes_a_model_past_the_cell_cap(capsys, tmp_path, monkeypatch):
    """gen writes the file and the per-dependent lines; the all-dependents
    line, whose marginal is past the cap, names the cap instead of a value."""
    monkeypatch.setattr(harmonia.distributions, "MAX_JOINT_CELLS", 100)
    path = tmp_path / "m.json"
    code, _, err = run(capsys, "gen", "random", "--n", "4", "--head-size", "3",
                       "--dep-size", "3", "--out", str(path))
    assert code == 0
    assert load_model(path).n == 4
    lines = err.splitlines()
    assert lines[0] == f"wrote {path}"
    assert [line.split(" = ")[0] for line in lines[1:5]] == [f"I(head; dep{i})" for i in range(1, 5)]
    assert lines[5:] == [
        "I(head; all dependents) = not computed "
        "(joint table would need 243 cells, cap is 100)"
    ]


@pytest.mark.parametrize("argv", [["profile"], ["verify", "--no-timestamp", "--input"]],
                         ids=["profile", "verify"])
def test_model_marginals_past_the_cell_cap_exit_2(capsys, tmp_path, monkeypatch, argv):
    """The first product past the cap refuses, before any output and before
    the dense joint is built."""
    path = tmp_path / "m.json"
    save_model(random_model(ModelSpec(n=4, head_size=3, dep_sizes=3, seed=1)), path)
    monkeypatch.setattr(harmonia.distributions, "MAX_JOINT_CELLS", 100)
    monkeypatch.setattr(harmonia.distributions, "build_joint",
                        lambda model: pytest.fail("dense joint built"))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2
    assert out == ""
    assert err == "error: joint table would need 243 cells, cap is 100\n"


def test_profile_past_the_cell_cap_writes_nothing(capsys, tmp_path, monkeypatch):
    """Every position's rows are computed before --out is opened: the
    dependent objective refuses no marginal, the profile does."""
    path, out_path = tmp_path / "m.json", tmp_path / "f.csv"
    save_model(random_model(ModelSpec(n=4, head_size=3, dep_sizes=3, seed=1)), path)
    monkeypatch.setattr(harmonia.distributions, "MAX_JOINT_CELLS", 100)
    code, out, err = run(capsys, "profile", str(path), "--objective", "dependent",
                         "--out", str(out_path))
    assert code == 2
    assert out == ""
    assert not out_path.exists()
    assert err.startswith("error: joint table would need")


def test_gen_bits_flag(capsys, tmp_path):
    path = tmp_path / "m.json"
    _, _, err = run(
        capsys, "gen", "copy", "--n", "1", "--noise", "0.0", "--out", str(path), "--bits"
    )
    assert "0.693147 nats (1.000000 bits)" in err


# -- verify ---------------------------------------------------------------------------


def test_spiky_sweep_with_underflowing_products_passes(capsys, tmp_path):
    """At concentration 0.02 one model's direct MI meets px * py = 0 with p > 0;
    the reference path stays finite, so the sweep passes and writes no witness."""
    report = tmp_path / "report.csv"
    code, _, err = run(
        capsys, "verify", "--no-timestamp", "--concentration", "0.02", "--aggregate", "mean",
        "--models", "10", "--out", str(report),
    )
    assert code == 0, err
    assert err.startswith("OK: 270 models, 9495 relation checks, 0 failures")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.csv"]


def test_verify_small_sweep_passes(capsys, tmp_path):
    report = tmp_path / "report.csv"
    code, out, err = run(
        capsys, "verify", "--models", "2", "--n", "2", "--head-sizes", "2",
        "--dep-sizes", "2", "--out", str(report), "--no-timestamp",
    )
    assert code == 0
    assert err.startswith("OK: 2 models")
    assert out == ""
    lines = report.read_text().splitlines()
    assert lines[0].startswith("model_id,theorem,relation")
    assert all(",true," in line for line in lines[1:])


def test_verify_report_is_deterministic(capsys, tmp_path):
    argv = ["verify", "--models", "2", "--n", "2", "--head-sizes", "3",
            "--dep-sizes", "2", "--no-timestamp"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(capsys, *argv, "--out", str(a))[0] == 0
    assert run(capsys, *argv, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_stdout_when_no_out(capsys):
    code, out, err = run(
        capsys, "verify", "--models", "1", "--n", "1", "--head-sizes", "2",
        "--dep-sizes", "2", "--no-timestamp",
    )
    assert code == 0
    assert out.splitlines()[0].startswith("model_id,")
    assert "OK:" in err


def test_verify_config_file_with_cli_override(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"sweep_size": 1, "n_values": [1], "head_sizes": [2],
                                  "dep_sizes": [2], "seed": 5}))
    report = tmp_path / "r.csv"
    code, _, err = run(
        capsys, "verify", "--config", str(config), "--models", "2",
        "--out", str(report), "--no-timestamp",
    )
    assert code == 0
    assert "OK: 2 models" in err  # --models overrode sweep_size 1


def test_verify_flags_are_run_config_fields():
    """Each verify setting's destination is the RunConfig field it sets."""
    parser = build_parser()
    args = parser.parse_args(["verify"])
    assert {f.name for f in fields(RunConfig)} <= set(vars(args))
    assert _config_from_args(args) == RunConfig()
    args = parser.parse_args(["verify", "--tol", "1e-6", "--models", "3", "--n", "1,2",
                              "--no-timestamp"])
    assert _config_from_args(args) == RunConfig(tolerance=1e-6, sweep_size=3,
                                                n_values=(1, 2), timestamp=False)


@pytest.mark.parametrize("flag, value, message", [
    ("--n", "0", "need n >= 1 dependents, got 0"),
    ("--head-sizes", "0", "alphabet sizes must be >= 1"),
    ("--dep-sizes", "2,0", "alphabet sizes must be >= 1"),
    ("--concentration", "0", "concentration must be a positive finite number, got 0.0"),
    ("--seed", "-1", "seed must be >= 0, got -1"),
])
def test_verify_grid_errors_come_from_the_model_spec(capsys, tmp_path, flag, value, message):
    code, out, err = run(capsys, "verify", flag, value)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_values": [0]}))
    code, out, err = run(capsys, "verify", "--config", str(config))
    assert (code, out, err) == (2, "", f"error: {config}: need n >= 1 dependents, got 0\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"sweep_size": 2,}',
         "not valid JSON (line 1, column 18): Expecting property name enclosed in double quotes"),
        ("[1, 2]", "expected a JSON object at the top level"),
    ],
    ids=["not-json", "top-level-list"],
)
def test_config_file_json_messages_are_the_loaders(capsys, tmp_path, text, message):
    """A config file is read like a model file, so its JSON complaints are the same."""
    config = tmp_path / "config.json"
    config.write_text(text)
    assert run(capsys, "verify", "--config", str(config)) == (2, "", f"error: {config}: {message}\n")


@pytest.mark.parametrize("command", ["verify", "typology"])
def test_input_that_is_not_utf8_exits_2(capsys, tmp_path, command):
    """A config file or typology CSV that is not UTF-8 is a usage error, not a traceback."""
    path = tmp_path / "utf16.txt"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    argv = ["verify", "--config", str(path)] if command == "verify" else ["typology", str(path)]
    assert run(capsys, *argv) == (
        2, "", f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 0: "
               "invalid start byte\n")


def test_verify_rejects_unknown_config_key(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"sweep": 1}))
    code, _, err = run(capsys, "verify", "--config", str(config))
    assert code == 2
    assert "error:" in err and "unknown config key" in err


def test_verify_input_model_passes(capsys, tmp_path):
    path = gen_copy(capsys, tmp_path)
    code, out, err = run(capsys, "verify", "--input", str(path), "--no-timestamp")
    assert code == 0
    assert "0 violation(s)" in err
    assert out.splitlines()[0].startswith("model_id,")
    assert f"{path.stem}," in out


def test_verify_input_counterexample_fails(capsys, tmp_path):
    path = tmp_path / "counter.json"
    assert run(capsys, "gen", "counterexample", "--out", str(path))[0] == 0
    code, out, err = run(capsys, "verify", "--input", str(path), "--no-timestamp")
    assert code == 1
    assert "3 violation(s)" in err
    assert out.count(",false") == 3


def test_verify_missing_input_is_a_clean_error(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--input", str(tmp_path / "nope.json"))
    assert code == 2
    assert "error:" in err


SWEEP_ONLY = [("--models", "3"), ("--n", "5"), ("--head-sizes", "2"), ("--dep-sizes", "2"),
              ("--concentration", "0.5"), ("--seed", "1"), ("--workers", "2"),
              ("--witness-dir", "w")]


@pytest.mark.parametrize("flag,value", SWEEP_ONLY, ids=[flag for flag, _ in SWEEP_ONLY])
def test_verify_input_refuses_a_sweep_only_flag(capsys, tmp_path, flag, value):
    path = tmp_path / "counter.json"
    assert run(capsys, "gen", "counterexample", "--out", str(path))[0] == 0
    out = tmp_path / "report.csv"
    code, _, err = run(capsys, "verify", "--input", str(path), flag, value, "--out", str(out))
    assert (code, err) == (2, f"error: {flag} is for sweeps; --input checks one file\n")
    assert not out.exists()


def test_verify_input_names_the_first_sweep_only_flag_and_writes_nothing(capsys, tmp_path):
    path = tmp_path / "counter.json"
    assert run(capsys, "gen", "counterexample", "--out", str(path))[0] == 0
    witnesses = tmp_path / "d"
    code, out, err = run(capsys, "verify", "--input", str(path), "--n", "5", "--models", "3",
                         "--witness-dir", str(witnesses))
    assert (code, out) == (2, "")
    assert err == "error: --models is for sweeps; --input checks one file\n"
    assert not witnesses.exists()


def test_out_of_memory_exits_2_with_one_line(tmp_path):
    """A request that does not fit under the address-space limit is a usage
    error, not a traceback with exit 1 (which means a violated relation).
    The limit is set in the child, so nothing large is allocated."""
    resource = pytest.importorskip("resource")
    model, out = tmp_path / "model.json", tmp_path / "samples.csv"
    save_model(random_model(ModelSpec(n=7, head_size=5, dep_sizes=5, seed=7)), model)
    limit = 1_500_000_000

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(harmonia.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "harmonia.cli", "sample", str(model), "--count", "10000000000",
         "--out", str(out)],
        capture_output=True, text=True, timeout=60, preexec_fn=cap,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: out of memory: ")
    assert done.stderr.count("\n") == 1
    assert not out.exists()


#: The equality_diagnosis cells of `verify --input` on copy_model(3, 2, 0.0):
#: every relation whose two sides meet, with the Markov chain that explains it.
COPY3_DIAGNOSES = {
    "lattice k=1 (1) head-predictability-grows": "dep2 -> dep1 -> head",
    "lattice k=1 (3) head-beats-dep-at-k+1": "head -> dep2 -> dep1",
    "lattice k=1 (5) early-head-helps-at-k": "dep1 -> dep2 -> head",
    "lattice k=1 (6) early-head-helps-at-k+1": "head -> dep1..2 -> dep3",
    "lattice k=1 (7) dep-predictability-grows": "dep2 -> dep1 -> dep3",
    "lattice k=2 (1) head-predictability-grows": "dep3 -> dep1..2 -> head",
    "lattice k=2 (2) head-beats-dep-at-k": "head -> dep2 -> dep1",
    "lattice k=2 (3) head-beats-dep-at-k+1": "head -> dep3 -> dep1..2",
    "lattice k=2 (5) early-head-helps-at-k": "head -> dep1..2 -> dep3",
    "pending part1 k=2 j=2": "head -> dep2 -> dep1",
    "pending part1 k=2 j=3": "head -> dep3 -> dep1",
    "pending part1 k=3 j=3": "head -> dep3 -> dep1..2",
    "pending part2 k=1 j=2": "dep1 -> dep2 -> head",
    "pending part2 k=1 j=3": "dep1 -> dep3 -> head",
    "pending part2 k=2 j=3": "dep1..2 -> dep3 -> head",
    "pending part3 k=1 j=2": "head -> dep1 -> dep2",
    "pending part3 k=1 j=3": "head -> dep1 -> dep3",
    "pending part3 k=2 j=3": "head -> dep1..2 -> dep3",
    "remainder k=1 (head first)": "head -> dep1 -> dep2..3",
    "remainder k=3 (head last)": "dep1..2 -> dep3 -> head",
}


def test_verify_input_pins_the_diagnosis_text(capsys, tmp_path):
    path = gen_copy(capsys, tmp_path, n=3, noise=0.0)
    code, out, _ = run(capsys, "verify", "--input", str(path), "--no-timestamp")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    diagnoses = {r["relation"]: r["equality_diagnosis"] for r in rows if r["equality_diagnosis"]}
    assert diagnoses == {
        relation: f"{chain} [residual=0.000000e+00 chain=yes]"
        for relation, chain in COPY3_DIAGNOSES.items()
    }


def test_verify_input_reads_a_permuted_joint_like_the_canonical_one(capsys, tmp_path):
    """A joint file may list its axes in any order; it is read as head, dep1..n."""
    joint = random_model(ModelSpec(n=3, head_size=3, dep_sizes=(2, 3, 2), seed=0)).joint
    canonical, permuted = tmp_path / "a" / "joint.json", tmp_path / "b" / "joint.json"
    canonical.parent.mkdir()
    permuted.parent.mkdir()
    save_joint(joint, canonical)
    document = json.loads(canonical.read_text())
    order = (2, 0, 3, 1)  # dep2, head, dep3, dep1
    document["variables"] = [document["variables"][a] for a in order]
    document["alphabets"] = [document["alphabets"][a] for a in order]
    document["probabilities"] = np.transpose(joint.probs, order).tolist()
    permuted.write_text(json.dumps(document))
    reports = [run(capsys, "verify", "--input", str(p), "--no-timestamp") for p in (canonical, permuted)]
    assert reports[0][0] == 0
    assert reports[1][:2] == reports[0][:2]


def _copy_model_json(**changes):
    obj = {
        "format": "harmonia-model", "version": 1,
        "head_alphabet": {"size": 2}, "dep_alphabets": [{"size": 2}],
        "head_prior": [0.5, 0.5], "cond_tables": [[[0.9, 0.1], [0.1, 0.9]]],
    }
    obj.update(changes)
    return obj


@pytest.mark.parametrize(
    "document",
    [
        # joint cells [[nan, .25], [.25, .5]]: NaN must not pass as a probability
        {"format": "harmonia-joint", "version": 1, "variables": ["head", "dep1"],
         "alphabets": [{"size": 2}, {"size": 2}],
         "probabilities": [[math.nan, 0.25], [0.25, 0.5]]},
        _copy_model_json(head_prior=[math.nan, 0.5]),
    ],
    ids=["nan-joint-cell", "nan-head-prior"],
)
def test_verify_input_rejects_nan_probabilities(capsys, tmp_path, document):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(document))
    code, _, err = run(capsys, "verify", "--input", str(path), "--no-timestamp")
    assert code == 2
    assert err.startswith(f"error: {path}:")


@pytest.mark.parametrize(
    "kind, content",
    [
        ("config", {"sweep_size": "ten"}),
        ("config", {"n_values": 3}),
        ("config", {"tolerance": "x"}),
        ("config", {"seed": 1.5}),
        ("config", {"workers": 1.5}),
        ("config", {"timestamp": "no"}),
        ("config", {"n_values": [2, 2]}),
        ("config", {"head_sizes": [2, 3, 2]}),
        ("config", {"dep_sizes": [5, 5]}),
        ("config", {"head_sizes": []}),
        # JSON true/false where a number belongs, each run on a small grid.
        ("config", {"tolerance": True, "sweep_size": 1, "n_values": [1]}),
        ("config", {"seed": False, "sweep_size": 1, "n_values": [1]}),
        ("config", {"sweep_size": True, "n_values": [1]}),
        ("config", {"n_values": [True], "sweep_size": 1}),
        ("config", {"workers": True, "sweep_size": 1, "n_values": [1]}),
        ("config", {"concentration": True, "sweep_size": 1, "n_values": [1]}),
        ("model", _copy_model_json(head_prior=[True, False])),
        ("model", _copy_model_json(head_alphabet={"size": True}, head_prior=[1.0],
                                   cond_tables=[[[0.9, 0.1]]])),
        ("joint", {"format": "harmonia-joint", "version": 1, "variables": ["head", "dep1"],
                   "alphabets": [{"size": 2}, {"size": 2}],
                   "probabilities": [[True, False], [False, False]]}),
        ("model", _copy_model_json(head_prior="ab")),
        ("model", _copy_model_json(cond_tables=[[[0.9, 0.1], [1.0]]])),
        ("model", _copy_model_json(head_alphabet={"size": "two"})),
        ("model", _copy_model_json(dep_alphabets=5)),
        ("model", _copy_model_json(head_alphabet={"size": 2, "labels": "ab"})),
        ("model", _copy_model_json(dep_alphabets=[{"size": 2, "labels": [1, True]}])),
        ("model", _copy_model_json(dep_alphabets=[{"size": 2, "labels": ["x", "x"]}])),
        ("gen", None),
        ("profile", "-1"),
        ("profile", "nan"),
        ("verify", ["--tol", "inf"]),
        ("verify", ["--head-sizes", ""]),
        ("verify", ["--dep-sizes", ","]),
        # An empty label list is a count mismatch, not "no labels".
        ("model", _copy_model_json(dep_alphabets=[{"size": 2, "labels": []}])),
    ],
    ids=["sweep-size-text", "n-values-scalar", "tolerance-text", "seed-float",
         "workers-float", "timestamp-text", "n-values-repeated", "head-sizes-repeated",
         "dep-sizes-repeated", "head-sizes-empty", "tolerance-true", "seed-false",
         "sweep-size-true", "n-values-true", "workers-true", "concentration-true",
         "head-prior-bools", "size-true", "joint-bools", "head-prior-text", "ragged-table", "size-text",
         "dep-alphabets-scalar", "labels-text", "labels-not-strings", "labels-repeated",
         "gen-negative-seed", "profile-tol-negative",
         "profile-tol-nan", "verify-tol-inf", "verify-head-sizes-empty",
         "verify-dep-sizes-empty", "labels-empty"],
)
def test_malformed_input_exits_2(capsys, tmp_path, kind, content):
    """A broken input is a usage error (exit 2), never a traceback or exit 1."""
    path = tmp_path / f"{kind}.json"
    if kind == "gen":
        argv = ["gen", "random", "--n", "2", "--seed", "-1", "--out", str(path)]
    elif kind == "profile":
        path.write_text(json.dumps(_copy_model_json()))
        argv = ["profile", str(path), "--tol", content]
    elif kind == "verify":
        argv = ["verify", "--models", "1", "--n", "1", *content, "--no-timestamp"]
    else:
        path.write_text(json.dumps(content))
        flag = "--config" if kind == "config" else "--input"
        argv = ["verify", flag, str(path), "--no-timestamp"]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    if kind in ("config", "model", "joint"):
        assert err.startswith(f"error: {path}: ")
    if "labels" in json.dumps(content):
        # A label error names its alphabet, as a bad size does.
        where = "head_alphabet" if "labels" in content["head_alphabet"] else "dep_alphabets[0]"
        assert err.startswith(f"error: {path}: {where}: ")


def test_a_config_may_still_set_timestamp_false(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"timestamp": False, "sweep_size": 1, "n_values": [1],
                                  "head_sizes": [2], "dep_sizes": [2]}))
    code, out, _ = run(capsys, "verify", "--config", str(config))
    assert code == 0 and out.startswith("model_id,")


@pytest.mark.parametrize(
    "argv",
    [
        ["--models", "3", "--n", "1,2,5", "--head-sizes", "2,3", "--dep-sizes", "2",
         "--concentration", "0.05", "--aggregate", "mean"],
        ["--n", "3", "--head-sizes", "1", "--dep-sizes", "4", "--models", "4",
         "--concentration", "0.3"],
    ],
    ids=["spiky-mean", "one-valued-head"],
)
def test_verify_forgives_rounding_noise_in_the_harmony_rows(capsys, tmp_path, argv):
    """Sweeps whose head-last harmony sides differ only by rounding noise pass."""
    code, _, err = run(capsys, "verify", *argv, "--no-timestamp",
                       "--out", str(tmp_path / "report.csv"))
    assert code == 0, err
    assert not list(tmp_path.glob("witness-*"))


def test_extreme_concentrations_exit_2_promptly():
    """Concentrations whose Dirichlet rows never come out finite are refused.

    The commands run in a child process with a timeout, so that a draw loop
    that never ends fails this test instead of hanging the suite.
    """
    argvs = [
        argv + ["--concentration", concentration]
        for concentration in ("inf", "nan", "1e308", "1e-10")
        for argv in (["gen", "random", "--n", "2", "--out", os.devnull],
                     ["verify", "--models", "1", "--n", "1", "--no-timestamp"])
    ]
    script = "import json, sys\nfrom harmonia.cli import main\n" \
             "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))"
    src = str(Path(harmonia.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert json.loads(done.stdout) == [2] * len(argvs)
    assert done.stderr.count("error: ") == len(argvs)


def test_no_command_imports_numpy_ma(tmp_path):
    """``numpy.ma``, which ``np.unique`` imports lazily, costs every run memory;
    a sweep, ``verify --input``, ``profile`` and ``sample --score-k`` run
    without it, in one child process."""
    model = tmp_path / "model.json"
    save_model(random_model(ModelSpec(n=3, head_size=3, dep_sizes=2, seed=5)), model)
    out = str(tmp_path / "out.csv")
    argvs = [["verify", "--n", "2,3", "--models", "2", "--no-timestamp", "--out", out],
             ["verify", "--input", str(model), "--no-timestamp", "--out", out],
             ["profile", str(model), "--out", out],
             ["sample", str(model), "--count", "100", "--score-k", "2", "--out", out]]
    script = "import json, sys\nfrom harmonia.cli import main\n" \
             "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n" \
             "print(json.dumps([codes, 'numpy.ma' in sys.modules]))"
    src = str(Path(harmonia.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert json.loads(done.stdout) == [[0, 0, 0, 0], False], done.stderr


# -- profile --------------------------------------------------------------------------


def test_profile_head_objective(capsys, tmp_path):
    path = gen_copy(capsys, tmp_path)
    out_csv = tmp_path / "profile.csv"
    code, _, err = run(capsys, "profile", str(path), "--out", str(out_csv))
    assert code == 0
    assert "objective head: best head position(s) 3" in err
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "head_position,k,measure,target,nats"
    # 3 placements, each with rows k=0..2: remainder + per-pending-element lines.
    assert sum(1 for l in lines[1:] if ",remainder,," in l) == 9
    assert any(l.startswith("1,1,element,dep1,") for l in lines)


def test_profile_remainder_needs_k(capsys, tmp_path):
    path = gen_copy(capsys, tmp_path)
    code, _, err = run(capsys, "profile", str(path), "--objective", "remainder")
    assert code == 2
    assert "needs a stage k" in err


@pytest.mark.parametrize("objective", ["head", "dependent"])
def test_profile_k_outside_the_remainder_objective_exits_2(capsys, tmp_path, objective):
    path = gen_copy(capsys, tmp_path)
    out_csv = tmp_path / "profile.csv"
    for out in ([], ["--out", str(out_csv)]):
        code, stdout, err = run(capsys, "profile", str(path), "--objective", objective,
                                "--k", "99", *out)
        assert (code, stdout) == (2, "")
        assert "remainder objective only, got k=99" in err
    assert not out_csv.exists()


def test_profile_bits_summary(capsys, tmp_path):
    path = gen_copy(capsys, tmp_path)
    code, _, err = run(capsys, "profile", str(path), "--bits")
    assert code == 0
    assert "bits)" in err


def test_profile_dependent_objective(capsys, tmp_path):
    path = gen_copy(capsys, tmp_path)
    code, _, err = run(capsys, "profile", str(path), "--objective", "dependent")
    assert code == 0
    assert "objective dependent: best head position(s) 1" in err


# -- typology -------------------------------------------------------------------------


def test_typology_bundled_output(capsys, tmp_path):
    out_csv = tmp_path / "t.csv"
    code, _, err = run(capsys, "typology", "--out", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0].endswith("recomputed_percentage,consistent")
    assert len(lines) == 10
    assert sum(1 for l in lines if l.endswith(",false")) == 2
    assert err.count("stored percentage disagrees with counts") == 2
    assert err.count("increasing with later head position") == 3
    assert "NOT increasing" not in err


def test_typology_custom_file(capsys, tmp_path):
    data = tmp_path / "d.csv"
    data.write_text(
        "source,unit,order_position,frequency,percentage\n"
        "x,langs,1,1,25.0\nx,langs,2,1,25.0\nx,langs,3,2,50.0\n"
    )
    code, out, err = run(capsys, "typology", str(data))
    assert code == 0
    assert "x,langs,1,1,25.0,25.0000,true" in out
    assert "x/langs: total 4" in err


def test_typology_output_quotes_fields(capsys, tmp_path):
    data = tmp_path / "d.csv"
    data.write_text(
        "source,unit,order_position,frequency,percentage\n"
        + "".join(f'"WALS, 2013 ""ed. 2""",langs,{p},1,33.3\n' for p in (1, 2, 3))
    )
    out_csv = tmp_path / "o.csv"
    code, _, _ = run(capsys, "typology", str(data), "--out", str(out_csv))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out_csv.read_text())))
    assert len(rows) == 4
    assert all(len(row) == 7 for row in rows)
    assert [row[0] for row in rows[1:]] == ['WALS, 2013 "ed. 2"'] * 3


def test_typology_bad_file(capsys, tmp_path):
    data = tmp_path / "bad.csv"
    data.write_text("source,unit\nx,y\n")
    code, _, err = run(capsys, "typology", str(data))
    assert code == 2
    assert "missing column" in err


# -- sample ---------------------------------------------------------------------------


def test_sample_writes_csv_rows(capsys, tmp_path):
    path = gen_copy(capsys, tmp_path)
    out_csv = tmp_path / "rows.csv"
    code, _, err = run(
        capsys, "sample", str(path), "--count", "50", "--seed", "3",
        "--head-position", "3", "--out", str(out_csv),
    )
    assert code == 0
    assert "wrote 50 rows" in err
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "dep1,dep2,head"
    assert len(lines) == 51


def test_sample_is_seed_deterministic(capsys, tmp_path):
    path = gen_copy(capsys, tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "sample", str(path), "--count", "20", "--seed", "9", "--out", str(a))
    run(capsys, "sample", str(path), "--count", "20", "--seed", "9", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_sample_score_summary(capsys, tmp_path):
    path = gen_copy(capsys, tmp_path)
    code, out, err = run(
        capsys, "sample", str(path), "--count", "5000", "--seed", "1",
        "--head-position", "3", "--score-k", "2",
    )
    assert code == 0
    assert "next element after k=2: head" in err
    assert "exact Bayes accuracy 0.9000" in err
    assert out.splitlines()[0] == "dep1,dep2,head"


@pytest.mark.parametrize("to_file", [True, False])
def test_sample_checks_score_k_before_drawing(capsys, tmp_path, to_file):
    path = gen_copy(capsys, tmp_path, n=3)
    out_csv = tmp_path / "rows.csv"
    extra = ("--out", str(out_csv)) if to_file else ()
    code, out, err = run(
        capsys, "sample", str(path), "--count", "10", "--score-k", "4", *extra
    )
    assert code == 2
    assert err == "error: stage k=4 outside 0..3: no element is pending\n"
    assert out == ""
    assert not out_csv.exists()


def test_sample_rejects_bad_count(capsys, tmp_path):
    path = gen_copy(capsys, tmp_path)
    code, _, err = run(capsys, "sample", str(path), "--count", "0")
    assert code == 2
    assert "error:" in err
