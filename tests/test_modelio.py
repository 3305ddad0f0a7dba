"""JSON round-trips and loader diagnostics."""

import json

import numpy as np
import pytest

from harmonia import ModelSpec, ValidationError, build_joint, copy_model, random_model
from harmonia.generators import correlated_pair_counterexample
from harmonia.modelio import (
    load_any,
    load_joint,
    load_model,
    save_joint,
    save_model,
)
from harmonia.modelio import FORMAT_VERSION, MODEL_FORMAT, joint_to_json, model_to_json


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
    meta = json.loads(path.read_text())["metadata"]
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


# -- loader messages, pinned ----------------------------------------------------

_MODEL = model_to_json(copy_model(2, 2, 0.1))
_JOINT = joint_to_json(correlated_pair_counterexample())
_NOT_MODEL = "format field is 'harmonia-joint', expected 'harmonia-model'"
_NOT_JOINT = "format field is 'harmonia-model', expected 'harmonia-joint'"


def _edited(base, **changes):
    obj = dict(base)
    for key, value in changes.items():
        if value is None:
            del obj[key]
        else:
            obj[key] = value
    return json.dumps(obj)


def _both(message):
    """The same message from every loader."""
    return {"load_model": message, "load_joint": message, "load_any": message}


def _model_file(message):
    """A model file's message from load_model and load_any; load_joint refuses the format."""
    return {"load_model": message, "load_joint": _NOT_JOINT, "load_any": message}


def _joint_file(message):
    """A joint file's message from load_joint and load_any; load_model refuses the format."""
    return {"load_model": _NOT_MODEL, "load_joint": message, "load_any": message}


def _other_format(fmt):
    return {
        "load_model": f"format field is {fmt}, expected 'harmonia-model'",
        "load_joint": f"format field is {fmt}, expected 'harmonia-joint'",
        "load_any": f"format field is {fmt}, expected 'harmonia-model' or 'harmonia-joint'",
    }


MALFORMED = {
    "not-json": ('{"format": "harmonia-model",\n  "version": }',
                 _both("not valid JSON (line 2, column 14): Expecting value")),
    "top-level-list": ("[1, 2]", _both("expected a JSON object at the top level")),
    "other-format": (json.dumps({"format": "something-else", "version": 1}),
                     _other_format("'something-else'")),
    "no-format": (_edited(_MODEL, format=None), _other_format("None")),
    "future-version": (_edited(_MODEL, version=2),
                       _model_file("unsupported version 2 (this build reads 1)")),
    "missing-field": (_edited(_MODEL, cond_tables=None),
                      _model_file("missing field 'cond_tables'")),
    "row-sum": (_edited(_MODEL, cond_tables=[[[0.9, 0.1], [0.3, 0.3]], [[0.9, 0.1], [0.1, 0.9]]]),
                _model_file("conditional table for dep1, row 1 sums to 0.6, expected 1 within 1e-12")),
    "declared-n": (_edited(_MODEL, n=3),
                   _model_file("header says n=3 but file has 2 conditional tables")),
    "alphabet-not-object": (_edited(_MODEL, head_alphabet=2),
                            _model_file("head_alphabet: expected an object with a 'size' field")),
    "size-not-integer": (_edited(_MODEL, head_alphabet={"size": "two"}),
                         _model_file("head_alphabet: size must be an integer, got 'two'")),
    "ragged-prior": (_edited(_MODEL, head_prior=[0.5, [0.5]]),
                     _model_file("head_prior: expected a regular array of numbers")),
    # JSON true/false is not a number, even where it would read as 1 or 0.
    "bool-prior": (_edited(_MODEL, head_prior=[True, False]),
                   _model_file("head_prior: expected a regular array of numbers")),
    "bool-row": (_edited(_MODEL, cond_tables=[[[0.9, 0.1], [False, True]]] * 2),
                 _model_file("cond_tables[0]: expected a regular array of numbers")),
    "size-bool": (_edited(_MODEL, head_alphabet={"size": True}),
                  _model_file("head_alphabet: size must be an integer, got True")),
    "joint-bools": (_edited(_JOINT, probabilities=[[[True, False], [False, False]]] * 2),
                    _joint_file("probabilities: expected a regular array of numbers")),
    "alphabets-not-list": (_edited(_MODEL, dep_alphabets=5),
                           _model_file("'int' object is not iterable")),
    "joint-missing-field": (_edited(_JOINT, probabilities=None),
                            _joint_file("missing field 'probabilities'")),
    "joint-bad-variable": (_edited(_JOINT, variables=["head", "verb", "dep2"]),
                           _joint_file("unrecognised variable name 'verb'")),
    "joint-not-numbers": (_edited(_JOINT, probabilities="abc"),
                          _joint_file("probabilities: expected a regular array of numbers")),
    "joint-wrong-shape": (_edited(_JOINT, probabilities=[[0.5, 0.5], [0.0, 0.0]]),
                          _joint_file("probability array has shape (2, 2), expected (2, 2, 2)")),
}
LOADERS = {"load_model": load_model, "load_joint": load_joint, "load_any": load_any}


@pytest.mark.parametrize("loader", sorted(LOADERS))
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_loader_messages_are_pinned(tmp_path, case, loader):
    text, messages = MALFORMED[case]
    path = tmp_path / f"{case}.json"
    path.write_text(text)
    with pytest.raises(ValidationError) as info:
        LOADERS[loader](path)
    assert str(info.value) == f"{path}: {messages[loader]}"


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_loader_refuses_text_that_is_not_utf8(tmp_path, loader):
    """A file that is not UTF-8 is a ValidationError naming the file, so the
    command line exits 2 instead of printing a UnicodeDecodeError traceback."""
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"format": "harmonia-model", "labels": ["\xe9t\xe9"]}')
    with pytest.raises(ValidationError) as info:
        LOADERS[loader](path)
    assert str(info.value) == (
        f"{path}: 'utf-8' codec can't decode byte 0xe9 in position 41: invalid continuation byte")
