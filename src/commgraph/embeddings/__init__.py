"""The seven gap-instance constructions, their kind registry and their
JSON round-trip.  ``EMBEDDING_CLASSES`` is the one place that maps a kind
name to its construction; each class declares its flags, claims and witnesses."""

from __future__ import annotations

import json
import re
from typing import Optional

from ..bits import BitVec
from ..promises import PromisePair, promise_from_json
from .base import (
    Embedding,
    MaterializationCapExceeded,
    ParameterError,
    UnsupportedQuery,
)
from .clique_hiding import (
    CliqueHidingEmbedding,
    CliqueHidingParams,
    edge_counting_block_side,
    triangle_freeness_block_side,
)
from .connectivity import ConnectivityEmbedding, ConnectivityParams
from .degree_only import DegreeOnlyEmbedding, DegreeOnlyParams
from .moments_block import MomentsBlockEmbedding, MomentsBlockParams
from .moments_hiding import MomentsHidingEmbedding, MomentsHidingParams
from .rclique import RCliqueEmbedding, RCliqueParams, TriangleEmbedding, TriangleParams

EMBEDDING_CLASSES: dict[str, type[Embedding]] = {
    cls.kind: cls
    for cls in (
        CliqueHidingEmbedding,
        TriangleEmbedding,
        RCliqueEmbedding,
        ConnectivityEmbedding,
        DegreeOnlyEmbedding,
        MomentsHidingEmbedding,
        MomentsBlockEmbedding,
    )
}

ALL_KINDS = tuple(EMBEDDING_CLASSES)


def instance_to_json(inst: Embedding) -> dict:
    """Self-contained description: same JSON always rebuilds the same graph."""
    return {
        "kind": inst.kind,
        "params": inst.params_json(),
        "x": inst.pp.x.to_hex(),
        "y": inst.pp.y.to_hex(),
        "n_bits": inst.pp.n_bits,
        "promise": inst.pp.promise.to_json(),
        "seed": inst.seed,
    }


# The JSON type of every instance field that ``instance_to_json`` does not
# write as an integer; "[]" stands for any entry of a list.
_JSON_TYPES = {
    "": dict,
    "kind": str,
    "x": str,
    "y": str,
    "seed": (int, type(None)),
    "promise": dict,
    "promise.kind": str,
    "params": dict,
    "params.active_sizes": list,
    "params.augment_connect": bool,
    "params.base": dict,
    "params.base.adj": list,
    "params.base.adj[]": list,
    "params.base.kind": str,
    "params.case": str,
    "params.s_clique_budget": (int, type(None)),
}

_TYPE_NAMES = {dict: "an object", list: "a list", str: "a string", bool: "a boolean",
               int: "an integer", float: "a number", type(None): "null"}


def _type_mismatch(value, path: str) -> Optional[str]:
    """The first field, ``value`` or inside it, whose JSON type is not the
    one ``instance_to_json`` writes there."""
    want = _JSON_TYPES.get(re.sub(r"\[\d+\]", "[]", path), int)
    if not isinstance(value, want):
        wanted = " or ".join(_TYPE_NAMES[t] for t in (want if isinstance(want, tuple) else (want,)))
        where = f"field {path!r}" if path else "top level"
        return f"{where} must be {wanted}, not {_TYPE_NAMES.get(type(value), type(value).__name__)}"
    if isinstance(value, dict):
        entries = ((f"{path}.{key}" if path else key, entry) for key, entry in value.items())
    elif isinstance(value, list):
        entries = ((f"{path}[{i}]", entry) for i, entry in enumerate(value))
    else:
        return None
    for field, entry in entries:
        problem = _type_mismatch(entry, field)
        if problem:
            return problem
    return None


def instance_from_json(obj: dict) -> Embedding:
    """Rebuild an instance from its JSON, which must be exactly what
    ``instance_to_json`` writes for the rebuilt instance: a field of the
    wrong JSON type, a derived field that disagrees with its recomputed
    value, a missing field or an unknown key raises ``ParameterError``
    naming the field.  ``seed`` may be left out."""
    problem = _type_mismatch(obj, "")
    if problem:
        raise ParameterError(f"instance JSON {problem}")
    try:
        kind = obj["kind"]
        if kind not in EMBEDDING_CLASSES:
            raise ParameterError(f"unknown embedding kind {kind!r}")
        n_bits = obj["n_bits"]
        pp = PromisePair(
            BitVec.from_hex(obj["x"], n_bits),
            BitVec.from_hex(obj["y"], n_bits),
            promise_from_json(obj["promise"]),
        )
        inst = EMBEDDING_CLASSES[kind].from_params_json(obj["params"], pp, obj.get("seed"))
    except KeyError as exc:
        raise ParameterError(f"instance JSON lacks field {exc.args[0]!r}") from None
    rebuilt = json.loads(json.dumps(instance_to_json(inst)))
    if "seed" not in obj:
        del rebuilt["seed"]
    problem = _json_mismatch(obj, rebuilt, "")
    if problem:
        raise ParameterError(f"instance JSON {problem}")
    return inst


def _json_mismatch(given, rebuilt, path: str) -> Optional[str]:
    """The first difference between two JSON values, naming its field."""
    if isinstance(given, dict) and isinstance(rebuilt, dict):
        for key in sorted(given.keys() | rebuilt.keys()):
            field = f"{path}{key}"
            if key not in rebuilt:
                return f"has unknown key {field!r}"
            if key not in given:
                return f"lacks field {field!r}"
            problem = _json_mismatch(given[key], rebuilt[key], f"{field}.")
            if problem:
                return problem
        return None
    if json.dumps(given) != json.dumps(rebuilt):
        return f"field {path[:-1]!r} is {given!r}, but its parameters give {rebuilt!r}"
    return None


__all__ = [
    "ALL_KINDS",
    "CliqueHidingEmbedding",
    "CliqueHidingParams",
    "ConnectivityEmbedding",
    "ConnectivityParams",
    "DegreeOnlyEmbedding",
    "DegreeOnlyParams",
    "EMBEDDING_CLASSES",
    "Embedding",
    "MaterializationCapExceeded",
    "MomentsBlockEmbedding",
    "MomentsBlockParams",
    "MomentsHidingEmbedding",
    "MomentsHidingParams",
    "ParameterError",
    "RCliqueEmbedding",
    "RCliqueParams",
    "TriangleEmbedding",
    "TriangleParams",
    "UnsupportedQuery",
    "edge_counting_block_side",
    "instance_from_json",
    "instance_to_json",
    "triangle_freeness_block_side",
]
