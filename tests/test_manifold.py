"""Metric-geometry primitives: builders, distances, regions, open balls."""

import numpy as np
import pytest

from fracbundle.config import build_region
from fracbundle.errors import GeometryError
from fracbundle.manifold import (
    DiscreteManifold,
    Region,
    build_manifold,
    edge_index,
    lattice,
    shortest_distances,
    shortest_paths,
)
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
    (3, [[0, 1], [1, 0], [0, 1], [1, 2], [2, 1]], True),            # repeated pairs
    (4, [[0, 1], [0, 1], [2, 3], [3, 2]], False),                   # repeated pairs
])
def test_connectivity_cases(num_vertices, edges, connected):
    # a repeated pair is refused before connectivity is judged
    if len({frozenset(p) for p in edges}) < len(edges):
        with pytest.raises(GeometryError, match=r"vertex pair \(0, 1\) is listed more than once"):
            graph(num_vertices, edges)
    elif connected:
        m = graph(num_vertices, edges)
        assert np.all(np.isfinite(shortest_distances(m, range(num_vertices))))
    else:
        with pytest.raises(GeometryError, match="graph must be connected"):
            graph(num_vertices, edges)


def test_connectivity_matches_connected_components():
    # the frontier search agrees with scipy's component count on random graphs;
    # a graph that lists a pair twice is refused instead
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
        repeats = len({frozenset(p) for p in e.tolist()}) < len(e)
        try:
            graph(n, e)
            outcome = "connected"
        except GeometryError as exc:
            outcome = "repeated" if "listed more than once" in str(exc) else str(exc)
        if repeats:
            assert outcome == "repeated"
        else:
            assert outcome == ("connected" if expected else "graph must be connected")
        outcomes.add(outcome)
    assert outcomes == {"connected", "graph must be connected", "repeated"}


# -- distances --------------------------------------------------------------

def test_cycle_distances_closed_form():
    m = cycle(8)
    d = shortest_distances(m, range(8))
    assert d[0, 3] == pytest.approx(3.0)
    assert d[0, 5] == pytest.approx(3.0)
    n = 8
    for i in range(n):
        for j in range(n):
            k = abs(i - j)
            assert d[i, j] == pytest.approx(min(k, n - k))


def test_distance_is_metric():
    m = torus(4, 5, 4.0, 5.0)
    d = shortest_distances(m, range(m.num_vertices))
    assert np.allclose(d, d.T)
    assert np.allclose(np.diag(d), 0.0)
    V = m.num_vertices
    # triangle inequality on the full matrix
    for k in range(V):
        assert np.all(d <= d[:, [k]] + d[[k], :] + 1e-12)


def test_torus_distance_bfs_oracle():
    m = torus(4, 4)
    d = shortest_distances(m, range(m.num_vertices))
    oracle = bfs_distances(m)
    assert np.allclose(d, oracle)
    v_a = 0 * 4 + 0
    v_b = 2 * 4 + 2
    assert oracle[v_a, v_b] == pytest.approx(4.0)  # frozen from the BFS oracle
    assert d[v_a, v_b] == pytest.approx(4.0)


def dijkstra_distances(num_vertices, edges, lengths, sources):
    """scipy's Dijkstra on the undirected graph from the given sources: the
    independent reference."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    graph = csr_matrix((lengths, (edges[:, 0], edges[:, 1])), shape=(num_vertices, num_vertices))
    return dijkstra(graph, directed=False, indices=sources)


LATTICES = {
    "cycle64": {"kind": "cycle", "count": 64, "length": 2 * np.pi},
    "cycle97": {"kind": "cycle", "count": 97, "length": 3.7},
    "torus16x16": {"kind": "torus_grid", "counts": [16, 16], "lengths": [5.3, 2.9]},
    "torus12x9": {"kind": "torus_grid", "counts": [12, 9], "lengths": [5.3, 2.9]},
    "torus7x5": {"kind": "torus_grid", "counts": [7, 5], "lengths": [1.7, 4.1]},
}


@pytest.mark.parametrize("name", LATTICES)
def test_shortest_distances_match_dijkstra_on_lattices(name):
    # on a lattice every ordering of a path's steps is a path too, so
    # Dijkstra's sums are symmetric and the relaxation meets them bit for bit,
    # from every vertex and from any subset of them
    m = build_manifold(LATTICES[name])
    V = m.num_vertices
    want = dijkstra_distances(V, m.edges, m.lengths, np.arange(V))
    assert np.array_equal(want, want.T)
    assert np.array_equal(shortest_distances(m, range(V)), want)
    some = np.random.default_rng(V).choice(V, size=5, replace=False)
    assert np.array_equal(shortest_distances(m, some), dijkstra_distances(V, m.edges, m.lengths, some))


def random_connected_graph(rng):
    """A random spanning tree plus random extra edges, no pair twice, with
    random lengths: (num_vertices, edges, lengths)."""
    n = int(rng.integers(2, 40))
    tree = [(int(rng.integers(0, k)), k) for k in range(1, n)]
    pairs = {frozenset(p) for p in tree}
    extra = [(int(a), int(b)) for a, b in rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))
             if a != b and not (frozenset((a, b)) in pairs or pairs.add(frozenset((a, b))))]
    edges = np.array(tree + extra).reshape(-1, 2)
    return n, edges, rng.uniform(0.05, 3.0, len(edges))


def test_shortest_paths_match_dijkstra_on_random_graphs():
    # random connected graphs with random lengths: row k is Dijkstra from
    # sources[k] bit for bit, though a path's sum can depend on its direction
    # in the last bit, so the rows need not be symmetric
    rng = np.random.default_rng(11)
    asymmetric = 0
    for _ in range(120):
        n, edges, lengths = random_connected_graph(rng)
        want = dijkstra_distances(n, edges, lengths, np.arange(n))
        asymmetric += not np.array_equal(want, want.T)
        assert np.array_equal(shortest_paths(n, edges, lengths, range(n)), want)
        some = rng.integers(0, n, size=5)
        m = DiscreteManifold(num_vertices=n, edges=edges, lengths=lengths, weights=np.ones(len(edges)),
                             volumes=np.ones(n), dimension=1)
        assert np.array_equal(shortest_distances(m, some), dijkstra_distances(n, edges, lengths, some))
    assert asymmetric > 0


def test_shortest_paths_leave_unreachable_pairs_infinite():
    # a region's inner edges need not connect it
    d = shortest_paths(5, np.array([[0, 1], [3, 4]]), np.array([0.5, 2.0]), range(5))
    assert np.array_equal(d, [[0, 0.5, np.inf, np.inf, np.inf], [0.5, 0, np.inf, np.inf, np.inf],
                              [np.inf, np.inf, 0, np.inf, np.inf], [np.inf, np.inf, np.inf, 0, 2],
                              [np.inf, np.inf, np.inf, 2, 0]])
    assert np.array_equal(shortest_paths(5, np.array([[0, 1], [3, 4]]), np.array([0.5, 2.0]), [4, 0]),
                          d[[4, 0]])
    assert np.array_equal(shortest_paths(1, np.zeros((0, 2), dtype=np.int64), np.zeros(0), [0]), [[0.0]])


@pytest.mark.parametrize("sources, named", [([-1], -1), ([4], 4), ([0, 2, 7, -1], 7)],
                         ids=["minus_one", "V", "mixed"])
def test_shortest_paths_refuse_sources_off_the_vertices(sources, named):
    # a source outside 0..V-1 would wrap to another row's keys or fall off the
    # end; it is refused by name instead
    edges = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
    with pytest.raises(GeometryError, match=rf"source {named} is not a vertex"):
        shortest_paths(4, edges, np.ones(4), sources)


def test_shortest_distances_from_sixteen_sources_hold_under_two_mib():
    # the oracle rows of a 16-vertex region on a 45 x 45 torus: the working
    # set is the 16 x V rows, their frontier mask and the frontier's edge
    # arrays, where all pairs would hold V x V floats (31 MiB)
    import tracemalloc

    m = build_manifold({"kind": "torus_grid", "counts": [45, 45], "lengths": [5.3, 2.9]})
    sources = lattice([45, 45])[:4, :4].ravel()
    tracemalloc.start()
    try:
        shortest_distances(m, sources)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_region_metric_is_exactly_symmetric_on_random_graphs():
    # Dijkstra's rows can differ from their transpose in the last bit;
    # local_structure keeps the smaller direction of each pair
    rng = np.random.default_rng(4)
    for _ in range(30):
        n, edges, lengths = random_connected_graph(rng)
        m = DiscreteManifold(num_vertices=n, edges=edges, lengths=lengths, weights=np.ones(len(edges)),
                             volumes=np.ones(n), dimension=1)
        verts = rng.permutation(n)
        want = dijkstra_distances(n, edges, lengths, verts)[:, verts]
        assert np.array_equal(local_structure(Region(m, tuple(verts)), 1).distances,
                              np.minimum(want, want.T))


@pytest.mark.parametrize("order", ["natural", "shuffled"])
def test_region_metric_of_the_whole_torus_is_the_oracle(order):
    # one shortest-path rule: the induced metric of a region covering the
    # manifold is the oracle exactly, in any vertex order
    m = build_manifold(LATTICES["torus12x9"])
    verts = np.arange(m.num_vertices)
    if order == "shuffled":
        verts = np.random.default_rng(2).permutation(verts)
    local = local_structure(Region(m, tuple(verts)), 1)
    assert np.array_equal(local.distances, shortest_distances(m, verts)[:, verts])


def test_repeated_pair_is_refused():
    # a vertex pair is at most one edge, in either listing order
    for edges in ([[0, 1], [0, 1], [1, 2], [2, 0]], [[1, 0], [0, 1], [1, 2], [2, 0]]):
        with pytest.raises(GeometryError, match=r"vertex pair \(0, 1\) is listed more than once"):
            DiscreteManifold(num_vertices=3, edges=edges, lengths=[1.0, 3.0, 1.0, 1.0],
                             weights=[1.0, 2.0, 1.0, 1.0], volumes=np.ones(3), dimension=1)


def test_edge_index_maps_every_pair_to_its_one_edge():
    for m in (cycle(64), torus(8, 8), torus(16, 16),
              build_manifold({"kind": "torus_grid", "counts": [5, 7, 3],
                              "lengths": [5.0, 7.0, 3.0]})):
        E = len(m.edges)
        ids, rev = edge_index(m.edges, m.num_vertices, m.edges)
        assert np.array_equal(ids, np.arange(E)) and not rev.any()
        ids, rev = edge_index(m.edges, m.num_vertices, m.edges[:, ::-1])
        assert np.array_equal(ids, np.arange(E)) and rev.all()
    m = torus(4, 4)
    # a diagonal, a loop, and two out-of-range pairs whose keys are edge keys
    for pair in ([0, 5], [3, 3], [0, 18], [-1, 17]):
        with pytest.raises(GeometryError, match="is not an edge"):
            edge_index(m.edges, m.num_vertices, [pair])


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
