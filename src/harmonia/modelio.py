"""JSON persistence for factored models and raw joint tables.

Two single-object formats, both versioned, each with a free-form ``metadata``
object that the loaders ignore (read it as the file's JSON ``metadata`` field):

* ``harmonia-model``: head prior plus per-dependent conditional tables.
* ``harmonia-joint``: a dense table over named variables, for distributions
  that are not (or deliberately fail to be) factored.  The variables may come
  in any order; the loader transposes the table to head, dep1..n, the axis
  order the relation checks read.

Floats round-trip exactly (JSON uses repr), so save/load is lossless.  The
loader re-runs full validation and prefixes any complaint with the file path,
so a corrupt row is reported as e.g.
``model.json: conditional table for dep2, row 1 sums to 0.7...``.  A field of
the wrong type (a string where numbers belong, a ragged table, a non-integer
size) is a ``ValidationError`` too, never a bare ``TypeError``.
"""

from __future__ import annotations

import json
import operator
from pathlib import Path
from typing import Any

import numpy as np

from .distributions import (
    Alphabet,
    FactoredModel,
    JointTable,
    ValidationError,
    parse_variable,
)

MODEL_FORMAT = "harmonia-model"
JOINT_FORMAT = "harmonia-joint"
FORMAT_VERSION = 1


def _alphabet_to_json(a: Alphabet) -> dict[str, Any]:
    return {"size": a.size, "labels": list(a.labels) if a.labels else None}


def _alphabet_from_json(obj: Any, where: str) -> Alphabet:
    if not isinstance(obj, dict) or "size" not in obj:
        raise ValidationError(f"{where}: expected an object with a 'size' field")
    try:
        size = operator.index(obj["size"])
    except TypeError:
        raise ValidationError(f"{where}: size must be an integer, got {obj['size']!r}") from None
    labels = obj.get("labels")
    return Alphabet(size=size, labels=tuple(labels) if labels else None)


def _floats(value: Any, where: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValidationError(f"{where}: expected a regular array of numbers") from None


def model_to_json(model: FactoredModel, metadata: dict[str, Any] | None = None) -> dict[str, Any]:
    return {
        "format": MODEL_FORMAT,
        "version": FORMAT_VERSION,
        "n": model.n,
        "head_alphabet": _alphabet_to_json(model.head_alphabet),
        "dep_alphabets": [_alphabet_to_json(a) for a in model.dep_alphabets],
        "head_prior": model.head_prior.tolist(),
        "cond_tables": [t.tolist() for t in model.cond_tables],
        "metadata": metadata or {},
    }


def joint_to_json(joint: JointTable, metadata: dict[str, Any] | None = None) -> dict[str, Any]:
    return {
        "format": JOINT_FORMAT,
        "version": FORMAT_VERSION,
        "variables": [v.name for v in joint.variables],
        "alphabets": [_alphabet_to_json(a) for a in joint.alphabets],
        "probabilities": joint.probs.tolist(),
        "metadata": metadata or {},
    }


def save_model(model: FactoredModel, path: str | Path, metadata: dict[str, Any] | None = None) -> None:
    _dump(model_to_json(model, metadata), path)


def save_joint(joint: JointTable, path: str | Path, metadata: dict[str, Any] | None = None) -> None:
    _dump(joint_to_json(joint, metadata), path)


def _dump(obj: dict[str, Any], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2)
        f.write("\n")


def _load_json(path: str | Path) -> dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as f:
            obj = json.load(f)
    except json.JSONDecodeError as err:
        raise ValidationError(
            f"{path}: not valid JSON (line {err.lineno}, column {err.colno}): {err.msg}"
        ) from None
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: expected a JSON object at the top level")
    return obj


def _check_header(
    obj: dict[str, Any], path: str | Path, expected: str, fields: tuple[str, ...]
) -> None:
    fmt = obj.get("format")
    if fmt != expected:
        raise ValidationError(
            f"{path}: format field is {fmt!r}, expected {expected!r}"
        )
    version = obj.get("version")
    if version != FORMAT_VERSION:
        raise ValidationError(
            f"{path}: unsupported version {version!r} (this build reads {FORMAT_VERSION})"
        )
    for field in fields:
        if field not in obj:
            raise ValidationError(f"{path}: missing field {field!r}")


def _model_from_json(obj: dict[str, Any], path: str | Path) -> FactoredModel:
    _check_header(obj, path, MODEL_FORMAT,
                  ("head_alphabet", "dep_alphabets", "head_prior", "cond_tables"))
    try:
        model = FactoredModel(
            head_alphabet=_alphabet_from_json(obj["head_alphabet"], "head_alphabet"),
            dep_alphabets=tuple(
                _alphabet_from_json(a, f"dep_alphabets[{i}]")
                for i, a in enumerate(obj["dep_alphabets"])
            ),
            head_prior=_floats(obj["head_prior"], "head_prior"),
            cond_tables=tuple(
                _floats(t, f"cond_tables[{i}]") for i, t in enumerate(obj["cond_tables"])
            ),
        )
    except (TypeError, ValueError) as err:  # ValidationError is a ValueError
        raise ValidationError(f"{path}: {err}") from None
    declared_n = obj.get("n")
    if declared_n is not None and declared_n != model.n:
        raise ValidationError(
            f"{path}: header says n={declared_n} but file has {model.n} conditional tables"
        )
    return model


def _joint_from_json(obj: dict[str, Any], path: str | Path) -> JointTable:
    _check_header(obj, path, JOINT_FORMAT, ("variables", "alphabets", "probabilities"))
    try:
        variables = tuple(parse_variable(name) for name in obj["variables"])
        alphabets = tuple(
            _alphabet_from_json(a, f"alphabets[{i}]") for i, a in enumerate(obj["alphabets"])
        )
        return JointTable(
            variables=variables,
            alphabets=alphabets,
            probs=_floats(obj["probabilities"], "probabilities"),
        ).marginal(sorted(variables))
    except (TypeError, ValueError) as err:  # ValidationError is a ValueError
        raise ValidationError(f"{path}: {err}") from None


def load_model(path: str | Path) -> FactoredModel:
    """Load a ``harmonia-model`` file, re-validating every row."""
    return _model_from_json(_load_json(path), path)


def load_joint(path: str | Path) -> JointTable:
    """Load a ``harmonia-joint`` file, re-validating the table."""
    return _joint_from_json(_load_json(path), path)


def load_any(path: str | Path) -> FactoredModel | JointTable:
    """Load either format, dispatching on the ``format`` header field."""
    obj = _load_json(path)
    fmt = obj.get("format")
    if fmt == MODEL_FORMAT:
        return _model_from_json(obj, path)
    if fmt == JOINT_FORMAT:
        return _joint_from_json(obj, path)
    raise ValidationError(
        f"{path}: format field is {fmt!r}, expected {MODEL_FORMAT!r} or {JOINT_FORMAT!r}"
    )
