"""Instance families built from a kind's declared flags, shared by the CLI
and the harnesses."""

from __future__ import annotations

from functools import partial

from .embeddings import EMBEDDING_CLASSES
from .embeddings.base import ParameterError
from .experiments import InstanceFamily
from .promises import DISJ_PROMISES, KIntersectOrDisjoint


def family(kind: str, **flags) -> InstanceFamily:
    """The construction ``kind`` with the parameters its flags set,
    buildable per input pair."""
    if kind not in EMBEDDING_CLASSES:
        raise ParameterError(f"unknown embedding kind {kind!r}")
    cls = EMBEDDING_CLASSES[kind]
    cls.check_flags(flags)
    if cls.comm_function == "disj":
        name = flags.pop("promise", "unique-intersection")
        if name not in DISJ_PROMISES:
            raise ParameterError(f"promise must be disjoint or unique-intersection, got {name!r}")
        promise = DISJ_PROMISES[name]()
    params = cls.params_from_flags(**flags)
    if cls.comm_function == "inter_k":
        promise = KIntersectOrDisjoint(params.k)
    return InstanceFamily(
        kind=kind,
        n_bits=cls.n_bits_for(params),
        promise=promise,
        build=lambda pp: cls(params, pp),
    )


clique_hiding_family = partial(family, "clique-hiding")
triangle_family = partial(family, "triangle")
r_clique_family = partial(family, "r-clique")
connectivity_family = partial(family, "connectivity")
degree_only_family = partial(family, "degree-only")
moments_hiding_family = partial(family, "moments-hiding")
moments_block_family = partial(family, "moments-block")
