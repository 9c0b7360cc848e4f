"""JSON serialization with exact double round-trips.

Floats are written with Python's shortest round-trip repr, so dumping and
re-loading reproduces every double bit-exactly.  Complex matrices are
stored as row-major interleaved [re, im, re, im, ...] lists.
"""

from __future__ import annotations

import json

import numpy as np

from .manifold import DiscreteManifold


def dumps(payload):
    return json.dumps(payload, indent=1, sort_keys=True)


def loads(text):
    return json.loads(text)


def complex_to_list(arr):
    """Row-major interleaved real/imag flattening of a complex array."""
    flat = np.asarray(arr, dtype=np.complex128).reshape(-1)
    out = np.empty(2 * flat.size, dtype=np.float64)
    out[0::2] = flat.real
    out[1::2] = flat.imag
    return out.tolist()


def complex_from_list(data, shape):
    arr = np.asarray(data, dtype=np.float64)
    flat = arr[0::2] + 1j * arr[1::2]
    return flat.reshape(shape)


def real_to_list(arr):
    return np.asarray(arr, dtype=np.float64).reshape(-1).tolist()


def manifold_to_payload(m: DiscreteManifold):
    return {
        "schema": "manifold@1",
        "num_vertices": m.num_vertices,
        "dimension": m.dimension,
        "edges": [[int(a), int(b)] for a, b in m.edges],
        "lengths": real_to_list(m.lengths),
        "weights": real_to_list(m.weights),
        "volumes": real_to_list(m.volumes),
        "meta": {k: v for k, v in m.meta.items()},
    }


def manifold_from_payload(p):
    return DiscreteManifold(
        num_vertices=int(p["num_vertices"]),
        edges=np.asarray(p["edges"], dtype=np.int64),
        lengths=np.asarray(p["lengths"], dtype=np.float64),
        weights=np.asarray(p["weights"], dtype=np.float64),
        volumes=np.asarray(p["volumes"], dtype=np.float64),
        dimension=int(p["dimension"]),
        meta=dict(p.get("meta", {})),
    )


def bundle_to_payload(b):
    r = b.rank
    return {
        "schema": "hermitian_bundle@1",
        "rank": r,
        "manifold": manifold_to_payload(b.manifold),
        "transport": [
            {"edge": [int(a), int(bb)], "matrix": complex_to_list(b.transport[i])}
            for i, (a, bb) in enumerate(b.manifold.edges)
        ],
        "potential": [complex_to_list(b.potential[v]) for v in range(b.manifold.num_vertices)],
    }


def bundle_from_payload(p):
    from .bundle import HermitianBundle

    m = manifold_from_payload(p["manifold"])
    r = int(p["rank"])
    E = len(m.edges)
    tr = np.empty((E, r, r), dtype=np.complex128)
    for i, entry in enumerate(p["transport"]):
        if [int(v) for v in entry["edge"]] != [int(m.edges[i][0]), int(m.edges[i][1])]:
            raise ValueError("transport edge order does not match the manifold edge list")
        tr[i] = complex_from_list(entry["matrix"], (r, r))
    pot = np.array([complex_from_list(row, (r, r)) for row in p["potential"]])
    return HermitianBundle(manifold=m, rank=r, transport=tr, potential=pot)
