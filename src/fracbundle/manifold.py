"""Discrete closed manifolds as weighted graphs, observation regions, and
shortest-path distances from given sources.

The distances are the ground-truth metric that experiments score recovered
distances against.  A region's induced metric (s2s.local_structure) and the
connectivity check of DiscreteManifold come from the same rule,
shortest_paths.  The reconstruction layer never imports this module: it
reads only the local metric data frozen into the map objects of s2s.

Conventions
-----------
A manifold is a connected weighted graph.  Edge lengths carry the metric,
edge weights are the finite-difference conductances, and vertex volumes
stand in for the Riemannian volume element.  Canonical builders (cycle,
torus grid) use w = 1/h^2 per axis and mu = prod(h_axis) so the assembled
Bochner operator is the standard finite-difference approximation with unit
wave speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError


@dataclass(frozen=True)
class DiscreteManifold:
    """Connected weighted graph standing in for a closed Riemannian manifold.

    edges: (E, 2) int array of undirected vertex pairs.  A vertex pair is at
        most one edge: a pair listed twice, in either orientation, is refused,
        and edge_index maps each pair to its one edge.
    lengths: (E,) edge lengths (length units).
    weights: (E,) edge conductances (1/length^2 units for canonical builders).
    volumes: (V,) vertex volumes (length^dim units).
    """

    num_vertices: int
    edges: np.ndarray
    lengths: np.ndarray
    weights: np.ndarray
    volumes: np.ndarray
    dimension: int
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        lengths = np.asarray(self.lengths, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        volumes = np.asarray(self.volumes, dtype=np.float64)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "volumes", volumes)
        if self.num_vertices < 1:
            raise GeometryError("manifold needs at least one vertex")
        if len(lengths) != len(edges) or len(weights) != len(edges):
            raise GeometryError("edge attribute arrays must match the edge list")
        if len(volumes) != self.num_vertices:
            raise GeometryError("one volume per vertex required")
        for name, arr in (("lengths", lengths), ("weights", weights), ("volumes", volumes)):
            if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
                raise GeometryError(f"{name} must be strictly positive and finite")
        if edges.size and (edges.min() < 0 or edges.max() >= self.num_vertices):
            raise GeometryError("edge endpoint out of range")
        if np.any(edges[:, 0] == edges[:, 1]):
            raise GeometryError("self loops are not allowed")
        if self.dimension < 1:
            raise GeometryError("dimension tag must be >= 1")
        keys = np.sort(_pair_keys(edges, self.num_vertices))
        repeated = keys[1:][keys[1:] == keys[:-1]]
        if repeated.size:
            a, b = divmod(int(repeated[0]), self.num_vertices)
            raise GeometryError(f"vertex pair ({a}, {b}) is listed more than once; "
                                "a pair is at most one edge")
        if not np.all(np.isfinite(shortest_paths(self.num_vertices, edges, lengths, [0]))):
            raise GeometryError("graph must be connected")


@dataclass(frozen=True)
class Region:
    """Nonempty ordered vertex subset of a host manifold."""

    manifold: DiscreteManifold
    vertices: tuple

    def __post_init__(self):
        verts = tuple(int(v) for v in self.vertices)
        object.__setattr__(self, "vertices", verts)
        if len(verts) == 0:
            raise GeometryError("region must be nonempty")
        if len(set(verts)) != len(verts):
            raise GeometryError("region vertices must be distinct")
        if min(verts) < 0 or max(verts) >= self.manifold.num_vertices:
            raise GeometryError("region vertex out of range")

    def __len__(self):
        return len(self.vertices)

    def inner_edges(self):
        """The manifold edges with both ends in the region: a mask over
        manifold.edges, and those edges as pairs of region positions."""
        pos = np.full(self.manifold.num_vertices, -1)
        pos[list(self.vertices)] = np.arange(len(self.vertices))
        ends = pos[self.manifold.edges]
        inside = np.all(ends >= 0, axis=1)
        return inside, ends[inside]


def _pair_keys(pairs, num_vertices):
    """One key per undirected vertex pair: min * num_vertices + max."""
    return pairs.min(axis=1) * num_vertices + pairs.max(axis=1)


def edge_index(edges, num_vertices, pairs):
    """The edge that joins each vertex pair: the one pair-to-edge rule.

    edges: (E, 2) int edge array of a graph on num_vertices vertices, no pair
    listed twice (DiscreteManifold refuses one); pairs: (n, 2) vertex pairs.
    Returns (ids, reversed): edges[ids[k]] joins pairs[k], and reversed[k] is
    True where pairs[k] lists that edge as (edges[ids[k]][1], edges[ids[k]][0]).
    A pair that is not an edge raises GeometryError.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    keys = _pair_keys(edges, num_vertices)
    order = np.argsort(keys)
    # a sentinel past the last key keeps every searchsorted position in range
    sorted_keys = np.append(keys[order], -1)
    wanted = _pair_keys(pairs, num_vertices)
    pos = np.searchsorted(sorted_keys[:-1], wanted)
    found = (sorted_keys[pos] == wanted) & np.all((pairs >= 0) & (pairs < num_vertices), axis=1)
    if not found.all():
        a, b = pairs[np.argmin(found)]
        raise GeometryError(f"vertex pair ({a}, {b}) is not an edge")
    ids = order[pos]
    return ids, pairs[:, 0] != edges[ids, 0]


def lattice(counts):
    """Vertex ids of the canonical lattice with these axis counts, as an array
    of shape counts: row-major, so the last axis varies fastest."""
    return np.arange(math.prod(counts)).reshape(counts)


def build_manifold(spec):
    """Build a canonical discrete closed manifold from a descriptor.

    spec for a circle: {"kind": "cycle", "count": N, "length": L}
    spec for a flat torus: {"kind": "torus_grid", "counts": [n1, n2, ...],
    "lengths": [L1, L2, ...]}  (vertex ids from lattice(counts)).

    A cycle is the one-axis torus.  Vertex v has one edge per axis, to its
    successor along that axis; edges are listed vertex-major, axis-minor.
    meta holds the kind and the lattice's axis counts, lengths and mesh
    lengths h.
    """
    kind = spec.get("kind")
    if kind == "cycle":
        counts, totals = [int(spec["count"])], [float(spec["length"])]
    elif kind == "torus_grid":
        counts = [int(c) for c in spec["counts"]]
        totals = [float(L) for L in spec["lengths"]]
    else:
        raise GeometryError(f"unknown manifold kind: {kind!r}")
    if len(counts) != len(totals) or len(counts) < 1:
        raise GeometryError("counts and lengths must align")
    if any(c < 3 for c in counts):
        raise GeometryError("each axis needs at least 3 vertices")
    if any(L <= 0 for L in totals):
        raise GeometryError("axis lengths must be positive")
    hs = [L / c for L, c in zip(totals, counts)]
    dim = len(counts)
    ids = lattice(counts)
    successors = np.stack([np.roll(ids, -1, axis=a).ravel() for a in range(dim)], axis=1)
    return DiscreteManifold(
        num_vertices=ids.size,
        edges=np.stack([np.repeat(ids.ravel(), dim), successors.ravel()], axis=1),
        lengths=np.tile(hs, ids.size),
        weights=np.tile([1.0 / h**2 for h in hs], ids.size),
        volumes=np.full(ids.size, math.prod(hs)),
        dimension=dim,
        meta={"kind": kind, "counts": counts, "lengths": totals, "h": hs},
    )


def shortest_paths(num_vertices, edges, lengths, sources):
    """Shortest-path lengths of an undirected graph from the given sources:
    the one shortest-path rule.

    edges: (E, 2) vertex pairs, read both ways; lengths: (E,) positive edge
    lengths; sources: vertex ids.  Returns (len(sources), V): row k holds the
    lengths from sources[k].  Relaxes d[k, v] = min(d[k, v], d[k, u] + w_uv)
    for every source at once; each round follows only the out-edges of the
    (source, vertex) pairs that improved in the round before.  A path is
    summed from its source outward, as Dijkstra sums it, so row k is
    Dijkstra from sources[k], bit for bit.  The length from a to b and the
    length from b to a can differ in the last bit.  Unreachable vertices are
    inf.  A source outside 0..V-1 raises GeometryError.
    """
    V = num_vertices
    sources = np.asarray(sources, dtype=np.int64).reshape(-1)
    off = (sources < 0) | (sources >= V)
    if off.any():
        raise GeometryError(f"source {sources[np.argmax(off)]} is not a vertex of 0..{V - 1}")
    arcs = np.concatenate([edges, edges[:, ::-1]])
    # stable: each row keeps edge-list order, so the keys a round relaxes
    # stay close together in memory
    order = np.argsort(arcs[:, 0], kind="stable")
    tails, heads = arcs[order].T
    deg = np.bincount(tails, minlength=V)
    # out-edges of each vertex in one row, padded with inf-length self loops
    slot = np.arange(len(tails)) - np.repeat(np.cumsum(deg) - deg, deg)
    nbr = np.repeat(np.arange(V)[:, None], deg.max(initial=0), axis=1)
    wts = np.full(nbr.shape, np.inf)
    nbr[tails, slot] = heads
    wts[tails, slot] = np.tile(lengths, 2)[order]
    d = np.full(len(sources) * V, np.inf)
    frontier = np.arange(len(sources)) * V + sources  # the (k, sources[k]) pairs
    d[frontier] = 0.0
    improved = np.zeros(d.size, dtype=bool)
    while frontier.size:
        k, u = np.divmod(frontier, V)
        cand = (d[frontier][:, None] + wts[u]).ravel()
        key = (k[:, None] * V + nbr[u]).ravel()
        better = cand < d[key]
        key = key[better]
        np.minimum.at(d, key, cand[better])
        improved[key] = True
        frontier = np.flatnonzero(improved)
        improved[frontier] = False
    return d.reshape(len(sources), V)


def shortest_distances(m: DiscreteManifold, sources) -> np.ndarray:
    """Shortest-path distances over edge lengths from the given vertices:
    shortest_paths on the manifold's edges, one row per source.  Finite,
    since a manifold is connected."""
    return shortest_paths(m.num_vertices, m.edges, m.lengths, sources)
