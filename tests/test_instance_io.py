import json
import random

import pytest

from commgraph.embeddings import (
    instance_from_json,
    instance_to_json,
)
from commgraph.embeddings.base import ParameterError

from helpers import SMALL_KIND_FLAGS, random_instance

KINDS = [
    "clique-hiding",
    "triangle",
    "r-clique",
    "connectivity",
    "degree-only",
    "moments-hiding",
    "moments-block",
]


@pytest.mark.parametrize("kind", KINDS)
def test_round_trip_rebuilds_identical_graph(kind):
    rng = random.Random(sum(map(ord, kind)) * 7)
    for _ in range(10):
        inst = random_instance(kind, rng.getrandbits(64))
        blob = json.dumps(instance_to_json(inst), sort_keys=True)
        again = instance_from_json(json.loads(blob))
        assert again.kind == inst.kind
        assert again.pp == inst.pp
        assert again.n == inst.n
        assert again.materialize() == inst.materialize()
        # serialization is a fixed point
        assert json.dumps(instance_to_json(again), sort_keys=True) == blob


def test_params_carry_derived_integers():
    inst = random_instance("moments-block", 4)
    params = instance_to_json(inst)["params"]
    for key in ("d", "l", "w_size", "blocks", "chunk_size", "case", "subcase"):
        assert key in params
    inst = random_instance("triangle", 5)
    params = instance_to_json(inst)["params"]
    for key in ("l", "k", "n", "s_size", "blocks", "pad"):
        assert key in params


def test_unknown_kind_rejected():
    inst = random_instance("triangle", 1)
    blob = instance_to_json(inst)
    blob["kind"] = "nonsense"
    with pytest.raises(ParameterError):
        instance_from_json(blob)


def test_hex_inputs_msb_first():
    inst = random_instance("clique-hiding", 2)
    blob = instance_to_json(inst)
    assert len(blob["x"]) == (blob["n_bits"] + 3) // 4
    assert all(ch in "0123456789abcdef" for ch in blob["x"])


# The params fields each kind derives from its other fields.  A grid or
# degree-only "n" is derived only below its minimum, so it is set to 1.
DERIVED = {
    "clique-hiding": ["n", "base_m"],
    "triangle": ["n", "blocks", "pad"],
    "r-clique": ["n", "active_sizes", "blocks", "pad"],
    "connectivity": ["n", "blocks", "pad"],
    "degree-only": ["n", "blocks", "pad"],
    "moments-hiding": ["p", "block_size", "n"],
    "moments-block": ["case", "subcase", "d", "l", "w_size", "blocks", "chunk_size", "n"],
}


def _mutated(field: str, value):
    if field == "n":
        return 1
    if field == "pad":
        return -1
    if isinstance(value, list):
        return [value[0] + 1, *value[1:]]
    if isinstance(value, str):
        return value + "-x"
    return value + 1


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """Each kind's instance JSON as gen writes it, with its edge list."""
    from commgraph.cli import main

    d = tmp_path_factory.mktemp("gen")
    out = {}
    for kind, flags in SMALL_KIND_FLAGS.items():
        path = d / f"{kind}.json"
        assert main(["gen", "--kind", kind, *flags, "--seed", "1", "--out", str(path)]) == 0
        out[kind] = (json.loads(path.read_text()), path.with_suffix(".edges"))
    return out


def _verify_exit(tmp_path, obj, edges) -> int:
    from commgraph.cli import main

    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(obj))
    return main(["verify", "--instance", str(path), "--edges", str(edges),
                 "--out", str(tmp_path / "report.jsonl")])


@pytest.mark.parametrize("kind", KINDS)
def test_generated_json_verifies_and_is_a_fixed_point(kind, generated, tmp_path):
    obj, edges = generated[kind]
    assert json.loads(json.dumps(instance_to_json(instance_from_json(obj)))) == obj
    assert _verify_exit(tmp_path, obj, edges) == 0
    unseeded = {key: value for key, value in obj.items() if key != "seed"}
    assert _verify_exit(tmp_path, unseeded, edges) == 0  # the seed stays optional


@pytest.mark.parametrize(
    "kind, field", [(kind, field) for kind in KINDS for field in DERIVED[kind]]
)
def test_verify_rejects_a_mutated_derived_field(kind, field, generated, tmp_path, capsys):
    obj, edges = generated[kind]
    obj = json.loads(json.dumps(obj))
    obj["params"][field] = _mutated(field, obj["params"][field])
    assert _verify_exit(tmp_path, obj, edges) == 2
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("where", ["top", "params", "n_bits"])
def test_verify_rejects_unknown_keys_and_a_wrong_input_length(
    kind, where, generated, tmp_path, capsys
):
    obj, edges = generated[kind]
    obj = json.loads(json.dumps(obj))
    if where == "top":
        obj["bogus"] = 1
    elif where == "params":
        obj["params"]["bogus"] = 1
    else:
        obj["n_bits"] += 1
    assert _verify_exit(tmp_path, obj, edges) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if where != "n_bits":
        assert "bogus" in err


@pytest.mark.parametrize("kind", ["clique-hiding", "moments-hiding"])
def test_verify_rejects_an_unknown_base_graph_key(kind, generated, tmp_path, capsys):
    obj, edges = generated[kind]
    obj = json.loads(json.dumps(obj))
    obj["params"]["base"]["bogus"] = 1
    assert _verify_exit(tmp_path, obj, edges) == 2
    assert "'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, field",
    [
        ({"p": 15}, "params.p"),
        ({"n": 7, "block_size": 99}, "params.block_size"),
    ],
)
def test_moments_hiding_edits_name_the_field(edit, field, tmp_path):
    from commgraph.cli import main

    path = tmp_path / "mh.json"
    assert main(["gen", "--kind", "moments-hiding", "--s", "2", "--alpha", "4", "--c", "1",
                 "--m-tilde", "400", "--blocks", "8", "--seed", "1", "--out", str(path)]) == 0
    obj = json.loads(path.read_text())
    obj["params"].update(edit)
    with pytest.raises(ParameterError, match=f"'{field}'"):
        instance_from_json(obj)
    assert _verify_exit(tmp_path, obj, path.with_suffix(".edges")) == 2


@pytest.mark.parametrize("edit, field", [
    (lambda obj: [], "top level"),
    (lambda obj: {**obj, "params": []}, "'params'"),
    (lambda obj: {**obj, "promise": []}, "'promise'"),
    (lambda obj: {**obj, "params": {**obj["params"], "l": "4"}}, "'params.l'"),
    (lambda obj: {**obj, "n_bits": "16"}, "'n_bits'"),
    (lambda obj: {**obj, "x": 5}, "'x'"),
    (lambda obj: {**obj, "params": {**obj["params"], "l": 4.0}}, "'params.l'"),
    (lambda obj: {**obj, "promise": {**obj["promise"], "k": None}}, "'promise.k'"),
], ids=["top", "params", "promise", "params.l", "n_bits", "x", "float", "promise.k"])
def test_wrongly_typed_field_is_a_parameter_error(edit, field, tmp_path, capsys):
    from commgraph.cli import main

    path = tmp_path / "t.json"
    assert main(["gen", "--kind", "triangle", "--l", "4", "--k", "1", "--seed", "1",
                 "--out", str(path)]) == 0
    obj = edit(json.loads(path.read_text()))
    with pytest.raises(ParameterError, match=field):
        instance_from_json(obj)
    capsys.readouterr()
    assert _verify_exit(tmp_path, obj, path.with_suffix(".edges")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: instance JSON ") and field in err


@pytest.mark.parametrize("kind", ["clique-hiding", "moments-hiding"])
def test_wrongly_typed_base_graph_field_is_a_parameter_error(kind, generated):
    obj = json.loads(json.dumps(generated[kind][0]))
    base = obj["params"]["base"]
    field = next(key for key in base if key != "kind")
    base[field] = str(base[field])
    with pytest.raises(ParameterError, match=f"'params.base.{field}'"):
        instance_from_json(obj)
    obj["params"]["base"] = {"kind": "explicit", "n": 2, "adj": [[1], ["0"]]}
    with pytest.raises(ParameterError, match=r"'params\.base\.adj\[1\]\[0\]'"):
        instance_from_json(obj)


def test_missing_field_is_a_parameter_error():
    blob = instance_to_json(random_instance("connectivity", 3))
    del blob["params"]["l"]
    with pytest.raises(ParameterError, match="'l'"):
        instance_from_json(blob)
    blob = instance_to_json(random_instance("moments-hiding", 3))
    del blob["params"]["p"]
    with pytest.raises(ParameterError, match="'params.p'"):
        instance_from_json(blob)


@pytest.mark.parametrize("kind", KINDS)
def test_every_accepted_json_is_what_gen_writes(kind):
    """Changing any one params field either is refused or describes another
    valid instance exactly: an accepted JSON is always a fixed point."""
    rng = random.Random(sum(map(ord, kind)) * 11)
    for _ in range(5):
        blob = json.loads(json.dumps(instance_to_json(random_instance(kind, rng.getrandbits(64)))))
        for field, value in blob["params"].items():
            if isinstance(value, bool):
                changed = not value
            elif isinstance(value, int):
                changed = value + 1
            elif value is None:
                changed = 1
            else:
                continue
            mutated = json.loads(json.dumps(blob))
            mutated["params"][field] = changed
            try:
                inst = instance_from_json(mutated)
            except ValueError:
                continue
            assert json.loads(json.dumps(instance_to_json(inst))) == mutated, (kind, field)
