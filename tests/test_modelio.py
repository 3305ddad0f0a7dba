"""JSON round-trips and loader diagnostics."""

import json

import numpy as np
import pytest

from harmonia import ModelSpec, ValidationError, build_joint, copy_model, random_model
from harmonia.generators import correlated_pair_counterexample
from harmonia.modelio import (
    file_metadata,
    load_any,
    load_joint,
    load_model,
    save_joint,
    save_model,
)
from harmonia.modelio import FORMAT_VERSION, MODEL_FORMAT, model_to_json


def test_model_round_trip_is_bit_exact(tmp_path):
    model = random_model(ModelSpec(n=2, head_size=3, dep_sizes=(2, 4), seed=42))
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.head_prior, model.head_prior)
    for a, b in zip(loaded.cond_tables, model.cond_tables):
        assert np.array_equal(a, b)
    assert loaded.head_alphabet == model.head_alphabet


def test_joint_round_trip_is_bit_exact(tmp_path):
    joint = build_joint(copy_model(2, 2, 0.1))
    path = tmp_path / "joint.json"
    save_joint(joint, path)
    loaded = load_joint(path)
    assert loaded.variables == joint.variables
    assert np.array_equal(loaded.probs, joint.probs)


def test_labels_survive_round_trip(tmp_path):
    from harmonia.distributions import Alphabet, FactoredModel

    model = FactoredModel(
        head_alphabet=Alphabet(2, labels=("verb", "noun")),
        dep_alphabets=(Alphabet(2, labels=("early", "late")),),
        head_prior=np.array([0.5, 0.5]),
        cond_tables=(np.array([[0.9, 0.1], [0.2, 0.8]]),),
    )
    path = tmp_path / "labelled.json"
    save_model(model, path)
    assert load_model(path).head_alphabet.labels == ("verb", "noun")


def test_metadata_block(tmp_path):
    path = tmp_path / "meta.json"
    save_model(copy_model(1, 2, 0.0), path, metadata={"generator": "copy", "noise": 0.0})
    meta = file_metadata(path)
    assert meta == {"generator": "copy", "noise": 0.0}


def test_load_any_dispatches_on_format(tmp_path):
    from harmonia.distributions import FactoredModel, JointTable

    mpath, jpath = tmp_path / "m.json", tmp_path / "j.json"
    save_model(copy_model(1, 2, 0.1), mpath)
    save_joint(correlated_pair_counterexample(), jpath)
    assert isinstance(load_any(mpath), FactoredModel)
    assert isinstance(load_any(jpath), JointTable)


def test_load_any_rejects_unknown_format(tmp_path):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(ValidationError, match="format field"):
        load_any(path)


def test_loader_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"format": "harmonia-model",\n  "version": }')
    with pytest.raises(ValidationError, match=r"line 2"):
        load_model(path)


def test_loader_rejects_wrong_version(tmp_path):
    obj = model_to_json(copy_model(1, 2, 0.1))
    obj["version"] = FORMAT_VERSION + 1
    path = tmp_path / "future.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ValidationError, match="unsupported version"):
        load_model(path)


def test_loader_rejects_missing_field(tmp_path):
    obj = model_to_json(copy_model(1, 2, 0.1))
    del obj["cond_tables"]
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ValidationError, match="missing field 'cond_tables'"):
        load_model(path)


def test_loader_revalidates_rows_with_file_context(tmp_path):
    obj = model_to_json(copy_model(1, 2, 0.1))
    obj["cond_tables"][0][1] = [0.3, 0.3]  # row no longer sums to one
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ValidationError, match=r"corrupt\.json.*dep1, row 1"):
        load_model(path)


def test_loader_checks_declared_n(tmp_path):
    obj = model_to_json(copy_model(2, 2, 0.1))
    obj["n"] = 3
    path = tmp_path / "n.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ValidationError, match="header says n=3"):
        load_model(path)


def test_loader_rejects_joint_as_model(tmp_path):
    path = tmp_path / "j.json"
    save_joint(correlated_pair_counterexample(), path)
    with pytest.raises(ValidationError, match=MODEL_FORMAT):
        load_model(path)


def test_saved_file_ends_with_newline(tmp_path):
    path = tmp_path / "m.json"
    save_model(copy_model(1, 2, 0.1), path)
    assert path.read_text().endswith("}\n")
