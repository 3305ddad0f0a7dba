"""JSON persistence for factored models and raw joint tables.

Two single-object formats, both versioned, each with a free-form ``metadata``
object that the loaders ignore (read it as the file's JSON ``metadata`` field):

* ``harmonia-model``: head prior plus per-dependent conditional tables.
* ``harmonia-joint``: a dense table over named variables, for distributions
  that are not (or deliberately fail to be) factored.  The variables may come
  in any order; the loader transposes the table to head, dep1..n, the axis
  order the relation checks read.

Floats round-trip exactly (JSON uses repr), so save/load is lossless.
``read_json`` reads every JSON input, the ``verify`` config file too: it parses
one JSON object from UTF-8 text, hands it to a ``build`` function and prefixes
any complaint with the path, e.g. ``model.json: conditional table for dep2, row 1
sums to 0.7...``.  A loader's ``build`` checks the header (format, version and
the format's fields) and runs the format's reader, which re-validates everything.
A field of the wrong type (a string or ``true`` where numbers belong, a ragged
table, a non-integer size) is a ``ValidationError`` too, and so is non-UTF-8 text.
"""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .distributions import (
    Alphabet,
    FactoredModel,
    JointTable,
    ValidationError,
    as_integer,
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
        size = as_integer(obj["size"])
    except TypeError:
        raise ValidationError(f"{where}: size must be an integer, got {obj['size']!r}") from None
    labels = obj.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise ValidationError(f"{where}: labels must be a list or null, got {labels!r}")
    return Alphabet(size=size, labels=tuple(labels) if labels else None)


def _floats(value: Any, where: str) -> np.ndarray:
    try:
        if bool in map(type, np.asarray(value, dtype=object).flat):
            raise TypeError  # JSON true/false is not a number
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


def _model_from_json(obj: dict[str, Any]) -> FactoredModel:
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
    declared_n = obj.get("n")
    if declared_n is not None and declared_n != model.n:
        raise ValidationError(
            f"header says n={declared_n} but file has {model.n} conditional tables"
        )
    return model


def _joint_from_json(obj: dict[str, Any]) -> JointTable:
    variables = tuple(parse_variable(name) for name in obj["variables"])
    alphabets = tuple(
        _alphabet_from_json(a, f"alphabets[{i}]") for i, a in enumerate(obj["alphabets"])
    )
    return JointTable(
        variables=variables,
        alphabets=alphabets,
        probs=_floats(obj["probabilities"], "probabilities"),
    ).marginal(sorted(variables))


#: Each format's reader and the fields it needs.
_READERS = {
    MODEL_FORMAT: (_model_from_json,
                   ("head_alphabet", "dep_alphabets", "head_prior", "cond_tables")),
    JOINT_FORMAT: (_joint_from_json, ("variables", "alphabets", "probabilities")),
}


def read_json(path: str | Path, build: Callable[[dict[str, Any]], Any]) -> Any:
    """``build`` of the JSON object in the UTF-8 file at ``path``; any complaint
    (the decoder's, the parser's or ``build``'s) is a ``ValidationError`` starting with the path."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            obj = json.load(f)
        if not isinstance(obj, dict):
            raise ValidationError("expected a JSON object at the top level")
        return build(obj)
    except json.JSONDecodeError as err:
        raise ValidationError(
            f"{path}: not valid JSON (line {err.lineno}, column {err.colno}): {err.msg}") from None
    except (TypeError, ValueError) as err:  # ValidationError and UnicodeDecodeError are ValueErrors
        raise ValidationError(f"{path}: {err}") from None


def _from_json(formats: tuple[str, ...], obj: dict[str, Any]) -> FactoredModel | JointTable:
    """``obj`` read as one of ``formats``: the header is checked, then the
    format's reader re-validates the body."""
    fmt = obj.get("format")
    if fmt not in formats:
        raise ValidationError(
            f"format field is {fmt!r}, expected {' or '.join(map(repr, formats))}")
    version = obj.get("version")
    if version != FORMAT_VERSION:
        raise ValidationError(
            f"unsupported version {version!r} (this build reads {FORMAT_VERSION})")
    reader, needed = _READERS[fmt]
    for field in needed:
        if field not in obj:
            raise ValidationError(f"missing field {field!r}")
    return reader(obj)


def load_model(path: str | Path) -> FactoredModel:
    """Load a ``harmonia-model`` file, re-validating every row."""
    return read_json(path, partial(_from_json, (MODEL_FORMAT,)))


def load_joint(path: str | Path) -> JointTable:
    """Load a ``harmonia-joint`` file, re-validating the table."""
    return read_json(path, partial(_from_json, (JOINT_FORMAT,)))


def load_any(path: str | Path) -> FactoredModel | JointTable:
    """Load either format, dispatching on the ``format`` header field."""
    return read_json(path, partial(_from_json, (MODEL_FORMAT, JOINT_FORMAT)))
