"""Discrete closed manifolds as weighted graphs, observation regions, and
all-pairs shortest-path distances.

The distances are the ground-truth metric that experiments score recovered
distances against.  The reconstruction layer never imports this module: it
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
        # breadth-first search from vertex 0, one frontier per pass over the edges
        seen = np.zeros(self.num_vertices, dtype=bool)
        seen[0] = True
        frontier = seen.copy()
        while frontier.any():
            reached = np.zeros_like(seen)
            reached[edges[frontier[edges[:, 0]], 1]] = True
            reached[edges[frontier[edges[:, 1]], 0]] = True
            frontier = reached & ~seen
            seen |= frontier
        if not seen.all():
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

    def __contains__(self, v):
        return int(v) in set(self.vertices)

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
    """
    kind = spec.get("kind")
    if kind == "cycle":
        counts, totals = [int(spec["count"])], [float(spec["length"])]
        if counts[0] < 3:
            raise GeometryError("cycle needs at least 3 vertices")
        if totals[0] <= 0:
            raise GeometryError("cycle length must be positive")
    elif kind == "torus_grid":
        counts = [int(c) for c in spec["counts"]]
        totals = [float(L) for L in spec["lengths"]]
        if len(counts) != len(totals) or len(counts) < 1:
            raise GeometryError("counts and lengths must align")
        if any(c < 3 for c in counts):
            raise GeometryError("each torus axis needs at least 3 vertices")
        if any(L <= 0 for L in totals):
            raise GeometryError("axis lengths must be positive")
    else:
        raise GeometryError(f"unknown manifold kind: {kind!r}")
    hs = [L / c for L, c in zip(totals, counts)]
    dim = len(counts)
    ids = lattice(counts)
    successors = np.stack([np.roll(ids, -1, axis=a).ravel() for a in range(dim)], axis=1)
    if kind == "cycle":
        meta = {"kind": "cycle", "count": counts[0], "length": totals[0], "h": hs[0]}
    else:
        meta = {"kind": "torus_grid", "counts": counts, "lengths": totals, "h": hs}
    return DiscreteManifold(
        num_vertices=ids.size,
        edges=np.stack([np.repeat(ids.ravel(), dim), successors.ravel()], axis=1),
        lengths=np.tile(hs, ids.size),
        weights=np.tile([1.0 / h**2 for h in hs], ids.size),
        volumes=np.full(ids.size, math.prod(hs)),
        dimension=dim,
        meta=meta,
    )


def shortest_distances(m: DiscreteManifold) -> np.ndarray:
    """All-pairs shortest-path distances over edge lengths."""
    # scipy loads here, not at import: only the distance task needs it
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    # one entry per edge: the undirected search reads it both ways
    graph = csr_matrix((m.lengths, (m.edges[:, 0], m.edges[:, 1])),
                       shape=(m.num_vertices, m.num_vertices))
    dist = dijkstra(graph, directed=False)
    if not np.all(np.isfinite(dist)):
        raise GeometryError("graph must be connected")
    # exact zero diagonal and exact symmetry (dijkstra already gives both,
    # the symmetrization guards against accumulation-order noise)
    dist = np.minimum(dist, dist.T)
    np.fill_diagonal(dist, 0.0)
    return dist

