"""Metric-geometry primitives: builders, distances, regions, open balls."""

import numpy as np
import pytest

from fracbundle.bundle import build_bundle
from fracbundle.config import build_region
from fracbundle.errors import GeometryError
from fracbundle.manifold import (
    DiscreteManifold,
    Region,
    build_manifold,
    lattice,
    shortest_distances,
)
from fracbundle.operator import assemble
from fracbundle.s2s import local_structure


def cycle(n=8, length=None):
    return build_manifold({"kind": "cycle", "count": n, "length": float(length if length is not None else n)})


def torus(n1=4, n2=4, L1=None, L2=None):
    return build_manifold({
        "kind": "torus_grid",
        "counts": [n1, n2],
        "lengths": [float(L1 if L1 is not None else n1), float(L2 if L2 is not None else n2)],
    })


def bfs_distances(m):
    """Breadth-first oracle, valid when all edge lengths are equal."""
    h = m.lengths[0]
    assert np.allclose(m.lengths, h)
    V = m.num_vertices
    adj = [[] for _ in range(V)]
    for a, b in m.edges:
        adj[a].append(b)
        adj[b].append(a)
    dist = np.full((V, V), np.inf)
    for s in range(V):
        dist[s, s] = 0.0
        frontier = [s]
        d = 0.0
        seen = {s}
        while frontier:
            d += h
            nxt = []
            for v in frontier:
                for u in adj[v]:
                    if u not in seen:
                        seen.add(u)
                        dist[s, u] = d
                        nxt.append(u)
            frontier = nxt
    return dist


# -- builders ---------------------------------------------------------------

def test_cycle_canonical_weights_unit_spacing():
    m = cycle(8, 8.0)
    assert m.num_vertices == 8
    assert np.allclose(m.lengths, 1.0)
    assert np.allclose(m.weights, 1.0)
    assert np.allclose(m.volumes, 1.0)


def test_torus_4x4_counts():
    m = torus(4, 4)
    assert m.num_vertices == 16
    assert len(m.edges) == 32
    assert np.allclose(m.volumes, 1.0)


def test_cycle_64_mesh_scaling():
    L = 2 * np.pi
    m = cycle(64, L)
    h = L / 64
    assert np.allclose(m.lengths, h)
    assert np.allclose(m.weights, 1.0 / h**2)
    assert np.allclose(m.volumes, h)


@pytest.mark.parametrize("spec", [
    {"kind": "cycle", "count": 64, "length": 6.4},
    {"kind": "torus_grid", "counts": [5, 7, 3], "lengths": [5.0, 7.0, 3.0]},
])
def test_edges_match_the_stride_formula(spec):
    # vertex v = sum_a c_a * stride_a has one edge per axis a, to the vertex
    # whose coordinate c_a is one further, wrapping; listed vertex-major
    counts = spec.get("counts", [spec.get("count")])
    strides = [int(np.prod(counts[a + 1:])) for a in range(len(counts))]
    want = []
    for v in range(int(np.prod(counts))):
        coords = [(v // strides[a]) % counts[a] for a in range(len(counts))]
        for a in range(len(counts)):
            nxt = list(coords)
            nxt[a] = (nxt[a] + 1) % counts[a]
            want.append([v, sum(c * st for c, st in zip(nxt, strides))])
    m = build_manifold(spec)
    assert np.array_equal(m.edges, np.array(want))
    assert np.array_equal(lattice(counts).ravel(), np.arange(m.num_vertices))
    assert lattice(counts)[tuple(c - 1 for c in counts)] == m.num_vertices - 1


@pytest.mark.parametrize("rows, cols, r0, c0", [(4, 4, 0, 0), (3, 5, 4, 5), (2, 3, -1, -7)])
def test_block_region_ids_match_the_row_major_formula(rows, cols, r0, c0):
    # rows outer, cols inner, each wrapping around its axis
    m = torus(6, 7)
    spec = {"type": "block", "rows": rows, "cols": cols, "row_start": r0, "col_start": c0}
    want = tuple(((r0 + i) % 6) * 7 + (c0 + j) % 7 for i in range(rows) for j in range(cols))
    assert build_region(m, spec).vertices == want


def test_builder_rejects_degenerate():
    with pytest.raises(GeometryError):
        build_manifold({"kind": "cycle", "count": 2, "length": 1.0})
    with pytest.raises(GeometryError):
        build_manifold({"kind": "cycle", "count": 8, "length": -1.0})
    with pytest.raises(GeometryError):
        build_manifold({"kind": "torus_grid", "counts": [2, 4], "lengths": [2.0, 4.0]})
    with pytest.raises(GeometryError):
        build_manifold({"kind": "nonsense"})


def test_manifold_invariants_checked():
    with pytest.raises(GeometryError):
        DiscreteManifold(
            num_vertices=4,
            edges=np.array([[0, 1], [2, 3]]),  # disconnected
            lengths=np.ones(2),
            weights=np.ones(2),
            volumes=np.ones(4),
            dimension=1,
        )
    with pytest.raises(GeometryError):
        DiscreteManifold(
            num_vertices=3,
            edges=np.array([[0, 1], [1, 2], [2, 0]]),
            lengths=np.array([1.0, -1.0, 1.0]),
            weights=np.ones(3),
            volumes=np.ones(3),
            dimension=1,
        )


def graph(num_vertices, edges):
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    ones = np.ones(len(edges))
    return DiscreteManifold(num_vertices=num_vertices, edges=edges, lengths=ones,
                            weights=ones, volumes=np.ones(num_vertices), dimension=1)


@pytest.mark.parametrize("num_vertices, edges, connected", [
    (6, [[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]], False),  # two disjoint cycles
    (3, [], False),                                                 # isolated vertices
    (4, [[1, 2]], False),                                           # isolated vertex 0
    (1, [], True),                                                  # one vertex, no edges
    (3, [[0, 1], [1, 0], [0, 1], [1, 2], [2, 1]], True),            # repeated edges
    (4, [[0, 1], [0, 1], [2, 3], [3, 2]], False),
])
def test_connectivity_cases(num_vertices, edges, connected):
    if connected:
        m = graph(num_vertices, edges)
        assert np.all(np.isfinite(shortest_distances(m)))
    else:
        with pytest.raises(GeometryError, match="graph must be connected"):
            graph(num_vertices, edges)


def test_connectivity_matches_connected_components():
    # the frontier search agrees with scipy's component count on random graphs
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    rng = np.random.default_rng(3)
    outcomes = set()
    for _ in range(200):
        n = int(rng.integers(1, 12))
        e = rng.integers(0, n, size=(int(rng.integers(0, 2 * n)), 2))
        e = e[e[:, 0] != e[:, 1]]
        adj = coo_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(n, n))
        expected = connected_components(adj, directed=False)[0] == 1
        try:
            graph(n, e)
            connected = True
        except GeometryError as exc:
            assert str(exc) == "graph must be connected"
            connected = False
        assert connected == expected
        outcomes.add(connected)
    assert outcomes == {True, False}


# -- distances --------------------------------------------------------------

def test_cycle_distances_closed_form():
    m = cycle(8)
    d = shortest_distances(m)
    assert d[0, 3] == pytest.approx(3.0)
    assert d[0, 5] == pytest.approx(3.0)
    n = 8
    for i in range(n):
        for j in range(n):
            k = abs(i - j)
            assert d[i, j] == pytest.approx(min(k, n - k))


def test_distance_is_metric():
    m = torus(4, 5, 4.0, 5.0)
    d = shortest_distances(m)
    assert np.allclose(d, d.T)
    assert np.allclose(np.diag(d), 0.0)
    V = m.num_vertices
    # triangle inequality on the full matrix
    for k in range(V):
        assert np.all(d <= d[:, [k]] + d[[k], :] + 1e-12)


def test_torus_distance_bfs_oracle():
    m = torus(4, 4)
    d = shortest_distances(m)
    oracle = bfs_distances(m)
    assert np.allclose(d, oracle)
    v_a = 0 * 4 + 0
    v_b = 2 * 4 + 2
    assert oracle[v_a, v_b] == pytest.approx(4.0)  # frozen from the BFS oracle
    assert d[v_a, v_b] == pytest.approx(4.0)


def test_repeated_edge_is_a_parallel_edge():
    # the distance takes the shorter of two parallel edges, in either listing
    # order, and assemble adds their conductances
    for edges in ([[0, 1], [0, 1], [1, 2], [2, 0]], [[1, 0], [0, 1], [1, 2], [2, 0]]):
        m = DiscreteManifold(num_vertices=3, edges=edges, lengths=[1.0, 3.0, 1.0, 1.0],
                             weights=[1.0, 2.0, 1.0, 1.0], volumes=np.ones(3), dimension=1)
        d = shortest_distances(m)
        assert d[0, 1] == 1.0 and d[1, 0] == 1.0
        assert d[0, 2] == 1.0 and d[1, 2] == 1.0
        assert assemble(build_bundle(m, 1)).matrix[0, 1] == -3.0


# -- open balls ---------------------------------------------------------------
# The probe boxes of the containment engine are open balls of the region's
# local metric (LocalStructure.local_ball).  With every vertex observed, in
# vertex order, local indices are vertex ids and the local metric is the
# manifold's.

def ball(m, center, radius):
    return set(local_structure(Region(m, tuple(range(m.num_vertices))), 1).local_ball(center, radius))


def test_ball_on_cycle():
    m = cycle(8)
    assert ball(m, 0, 1.5) == {7, 0, 1}


def test_ball_zero_radius_empty():
    m = cycle(8)
    assert ball(m, 0, 0.0) == set()


def test_ball_open_convention_excludes_boundary():
    m = cycle(8)
    assert ball(m, 0, 1.0) == {0}


def test_torus_ball_enumeration_oracle():
    m = torus(4, 4)
    d = bfs_distances(m)
    expect = {v for v in range(16) if d[0, v] < 2.1}
    assert len(expect) == 11  # frozen from the enumeration oracle
    assert ball(m, 0, 2.1) == expect


def test_ball_monotone_in_radius():
    m = torus(5, 4, 5.0, 4.0)
    assert ball(m, 3, 1.5) <= ball(m, 3, 2.5)


def test_region_validation():
    m = cycle(8)
    with pytest.raises(GeometryError):
        Region(m, ())
    with pytest.raises(GeometryError):
        Region(m, (0, 0))
    with pytest.raises(GeometryError):
        Region(m, (9,))
