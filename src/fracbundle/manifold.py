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

from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError


@dataclass(frozen=True)
class DiscreteManifold:
    """Connected weighted graph standing in for a closed Riemannian manifold.

    edges: (E, 2) int array of undirected vertex pairs.  A pair listed more
        than once is a parallel edge: assemble adds the conductances, and
        shortest_distances uses the shorter length.
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

    def neighbors(self, v):
        """Sorted neighbor list of vertex v."""
        nbrs = set()
        for a, b in self.edges:
            if a == v:
                nbrs.add(int(b))
            elif b == v:
                nbrs.add(int(a))
        return sorted(nbrs)


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


def build_manifold(spec):
    """Build a canonical discrete closed manifold from a descriptor.

    spec for a circle: {"kind": "cycle", "count": N, "length": L}
    spec for a flat torus: {"kind": "torus_grid", "counts": [n1, n2, ...],
    "lengths": [L1, L2, ...]}  (row-major vertex indexing).
    """
    kind = spec.get("kind")
    if kind == "cycle":
        n = int(spec["count"])
        total = float(spec["length"])
        if n < 3:
            raise GeometryError("cycle needs at least 3 vertices")
        if total <= 0:
            raise GeometryError("cycle length must be positive")
        h = total / n
        edges = np.array([[i, (i + 1) % n] for i in range(n)])
        return DiscreteManifold(
            num_vertices=n,
            edges=edges,
            lengths=np.full(n, h),
            weights=np.full(n, 1.0 / h**2),
            volumes=np.full(n, h),
            dimension=1,
            meta={"kind": "cycle", "count": n, "length": total, "h": h},
        )
    if kind == "torus_grid":
        counts = [int(c) for c in spec["counts"]]
        totals = [float(L) for L in spec["lengths"]]
        if len(counts) != len(totals) or len(counts) < 1:
            raise GeometryError("counts and lengths must align")
        if any(c < 3 for c in counts):
            raise GeometryError("each torus axis needs at least 3 vertices")
        if any(L <= 0 for L in totals):
            raise GeometryError("axis lengths must be positive")
        hs = [L / c for L, c in zip(totals, counts)]
        dim = len(counts)
        nv = int(np.prod(counts))
        strides = np.ones(dim, dtype=np.int64)
        for a in range(dim - 2, -1, -1):
            strides[a] = strides[a + 1] * counts[a + 1]
        edges, lens, wts = [], [], []
        for v in range(nv):
            coords = [(v // strides[a]) % counts[a] for a in range(dim)]
            for a in range(dim):
                nxt = list(coords)
                nxt[a] = (coords[a] + 1) % counts[a]
                u = int(sum(nxt[b] * strides[b] for b in range(dim)))
                edges.append([v, u])
                lens.append(hs[a])
                wts.append(1.0 / hs[a] ** 2)
        vol = float(np.prod(hs))
        return DiscreteManifold(
            num_vertices=nv,
            edges=np.array(edges),
            lengths=np.array(lens),
            weights=np.array(wts),
            volumes=np.full(nv, vol),
            dimension=dim,
            meta={"kind": "torus_grid", "counts": counts, "lengths": totals, "h": hs},
        )
    raise GeometryError(f"unknown manifold kind: {kind!r}")


def shortest_distances(m: DiscreteManifold) -> np.ndarray:
    """All-pairs shortest-path distances over edge lengths; parallel edges count
    at their shortest."""
    # scipy loads here, not at import: only the distance task needs it
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    # the sparse matrix would sum the lengths of a repeated pair
    e, inverse = np.unique(np.sort(m.edges, axis=1), axis=0, return_inverse=True)
    lengths = np.full(len(e), np.inf)
    np.minimum.at(lengths, inverse, m.lengths)
    graph = csr_matrix(
        (np.concatenate([lengths, lengths]),
         (np.concatenate([e[:, 0], e[:, 1]]), np.concatenate([e[:, 1], e[:, 0]]))),
        shape=(m.num_vertices, m.num_vertices),
    )
    dist = dijkstra(graph, directed=False)
    if not np.all(np.isfinite(dist)):
        raise GeometryError("graph must be connected")
    # exact zero diagonal and exact symmetry (dijkstra already gives both,
    # the symmetrization guards against accumulation-order noise)
    dist = np.minimum(dist, dist.T)
    np.fill_diagonal(dist, 0.0)
    return dist

