"""Property tests over randomized structures: random parent arrays for
trees, random monotone height profiles for staircases, random products of
small trees and median graphs, and random pair data for the profile
fold."""

import collections
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from medembed import metrics, sparse
from medembed.cube import (
    CubeSpec,
    MedianGraph,
    gen_cube,
    key_property,
    median_from_tree,
    tree_product_graph,
)
from medembed.factors import FactorPairs, tree_factors
from medembed.keysets import degree_groups, proves_distances
from medembed.metrics import _entries_from_pairs
from medembed.spacefile import SpaceFile, build_space
from medembed.sparse import (
    adjacency,
    bfs_distances,
    csr_matrices,
    root_distances,
    vec_distance,
    vectors,
)
from medembed.tree import RootedTree, TreeSpec, gen_tree
from medembed.weights import WeightFunction, diff_sq_sum
import oracles
from oracles import (
    _exhaustive_entries,
    depth_triples,
    geodesic_edges,
    meeting_point,
    normal_cube_path,
    preorder_by_levels,
    square_closure_classes,
    triple_entries,
    validate_median,
)
from test_metrics import assert_entries_agree, counted_blocks, tree_fold
from test_sparse import _key_sets

UNIT = WeightFunction.unit()
PAPER = WeightFunction.paper(18)
# nonzero at every index, so no forest entry is dropped
POWER = WeightFunction.power(0.25)


# parent[i] < i makes any integer list a valid rooted tree
random_trees = st.lists(
    st.integers(min_value=0, max_value=10**6), min_size=1, max_size=40
).map(lambda raw: RootedTree([0] + [raw[i] % (i + 1) for i in range(len(raw))]))


def _shaped_tree(kind, size, seed):
    """A path, star, spider, caterpillar, binary sample or random tree of
    about ``size`` vertices, relabelled at random, so its root is any
    vertex."""
    rng = np.random.default_rng(seed)
    if kind == "path":
        parent = [0, *range(size - 1)]
    elif kind == "star":
        parent = [0] * size
    elif kind == "spider":
        legs = int(rng.integers(1, 5))
        parent = gen_tree(TreeSpec.spider(legs, max(1, size // legs))).parent
    elif kind == "caterpillar":
        hair = int(rng.integers(0, 4))
        parent = gen_tree(TreeSpec.caterpillar(max(1, size // (hair + 1) - 1), hair)).parent
    elif kind == "binary":
        depth = int(rng.integers(1, 9))
        rays = int(rng.integers(1, min(8, 2 ** depth) + 1))
        parent = gen_tree(TreeSpec.binary_sample(depth, rays, seed=seed)).parent
    else:
        parent = [0] + [int(rng.integers(0, i)) for i in range(1, size)]
    label = rng.permutation(len(parent))
    relabelled = np.empty(len(parent), dtype=np.int64)
    relabelled[label] = label[np.asarray(parent)]
    return RootedTree(relabelled, root=int(label[0]))


shaped_trees = st.builds(
    _shaped_tree,
    st.sampled_from(["path", "star", "spider", "caterpillar", "binary", "random"]),
    st.integers(min_value=2, max_value=36),
    st.integers(min_value=0, max_value=10**6),
)


generated_trees = st.sampled_from([
    TreeSpec.path(1000),
    TreeSpec.spider(7, 60),
    TreeSpec.caterpillar(40, 3),
    TreeSpec.binary_sample(60, 20, seed=5),
]).map(gen_tree)


generated_tree_specs = st.sampled_from([
    TreeSpec.path(12),
    TreeSpec.spider(3, 4),
    TreeSpec.caterpillar(5, 2),
    TreeSpec.binary_sample(6, 5, seed=3),
])


staircase_heights = st.lists(
    st.integers(min_value=1, max_value=7), min_size=1, max_size=5
).map(lambda hs: tuple(sorted(hs, reverse=True)))


@given(random_trees)
@settings(max_examples=60, deadline=None)
def test_random_tree_unit_identity(tree):
    dist = tree.distances_from(range(tree.vertex_count)).astype(np.int64)
    vecs = vectors(tree.embedding_matrix(UNIT, range(tree.vertex_count)))
    for u, v in itertools.combinations(range(tree.vertex_count), 2):
        emb_sq = vec_distance(vecs[u], vecs[v]) ** 2
        assert abs(emb_sq - dist[u][v]) <= 1e-9 * dist[u][v]


@given(st.one_of(shaped_trees, generated_trees))
@settings(max_examples=200, deadline=None)
def test_tree_depths_match_root_bfs(tree):
    bfs = tree.distances_from([tree.root])[0].astype(np.int64)
    assert tree.depth.dtype == np.int64
    np.testing.assert_array_equal(tree.depth, bfs)


def _rerooted(spec, seed):
    """The median graph of ``spec`` with its base vertex moved to a random
    vertex."""
    g = gen_cube(spec)
    root = int(np.random.default_rng(seed).integers(g.vertex_count))
    return MedianGraph(g.vertex_count, np.stack([g.eu, g.ev], axis=1), root=root)


def _q5_subgraph(seed, size):
    """Connected induced subgraph of the 5-cube: grown from a random corner
    by random neighbours, relabelled at random, based at a random vertex."""
    rng = np.random.default_rng(seed)
    labels = [int(rng.integers(32))]
    while len(labels) < size:
        v = labels[int(rng.integers(len(labels)))] ^ 1 << int(rng.integers(5))
        if v not in labels:
            labels.append(v)
    ids = dict(zip(labels, rng.permutation(size).tolist()))
    edges = [(ids[u], ids[u ^ 1 << b]) for u in labels for b in range(5)
             if u < u ^ 1 << b and u ^ 1 << b in ids]
    return MedianGraph(size, edges, root=int(rng.integers(size)))


rerooted_median_graphs = st.one_of(
    st.builds(_rerooted, st.one_of(
        st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3)
        .map(lambda dims: CubeSpec.grid(*dims)),
        staircase_heights.map(CubeSpec.staircase_heights),
        st.tuples(generated_tree_specs, generated_tree_specs)
        .map(lambda lr: CubeSpec.tree_product(*lr)),
        generated_tree_specs.map(CubeSpec.from_tree),
    ), st.integers(min_value=0, max_value=10**6)),
    st.builds(_q5_subgraph, st.integers(min_value=0, max_value=10**6),
              st.integers(min_value=1, max_value=32)),
)


def _dijkstra(n, eu, ev, sources):
    """scipy's unweighted csgraph Dijkstra, the reference for the numpy BFS."""
    import scipy.sparse as sp
    from scipy.sparse import csgraph

    ones = np.ones(len(eu), dtype=np.int8)
    adj = sp.csr_matrix((ones, (eu, ev)), shape=(n, n))
    return csgraph.dijkstra(adj, directed=False, unweighted=True,
                            indices=np.asarray(sources, dtype=np.int64))


@given(rerooted_median_graphs, st.lists(st.integers(min_value=0, max_value=10**6),
                                        max_size=6))
@settings(max_examples=150, deadline=None)
def test_root_distances_match_csgraph_bfs(g, picks):
    assert g.dist_root.dtype == np.int64
    ref = _dijkstra(g.n, g.eu, g.ev, [g.root])[0]
    np.testing.assert_array_equal(g.dist_root, ref)
    sources = [g.root, *(p % g.n for p in picks)]
    block = g.distances_from(sources)
    assert block.dtype == np.int32 and block.shape == (len(sources), g.n)
    np.testing.assert_array_equal(block, _dijkstra(g.n, g.eu, g.ev, sources))


@st.composite
def connected_graphs(draw, min_parts=1):
    """(n, eu, ev): a random forest of ``min_parts`` or more trees (parent
    of i below i within its part), relabelled and with extra edges inside
    the parts, repeats and self-loops among them, in shuffled order and
    orientation."""
    n = draw(st.integers(min_value=min_parts, max_value=30))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.choice(np.arange(1, n), size=min_parts - 1, replace=False))
    part = np.zeros(n, dtype=np.int64)
    part[cuts] = 1
    part = np.cumsum(part)
    first = np.searchsorted(part, part)
    v = np.flatnonzero(np.arange(n) != first)
    edges = [np.stack([v, first[v] + rng.integers(0, v - first[v])], axis=1)]
    extra = rng.integers(0, n, size=(int(rng.integers(0, 2 * n)), 2))
    edges.append(extra[part[extra[:, 0]] == part[extra[:, 1]]])
    edges = np.concatenate(edges)
    edges = edges[rng.permutation(len(edges))]
    flip = rng.random(len(edges)) < 0.5
    edges[flip] = edges[flip][:, ::-1]
    label = rng.permutation(n)
    return n, label[edges[:, 0]], label[edges[:, 1]]


@given(connected_graphs(), st.lists(st.integers(min_value=0, max_value=10**6),
                                    max_size=8))
@settings(max_examples=200, deadline=None)
def test_bfs_matches_csgraph_dijkstra(graph, picks):
    n, eu, ev = graph
    sources = [0, *(p % n for p in picks), 0]
    block = bfs_distances(adjacency(n, eu, ev), sources)
    assert block.dtype == np.int32
    np.testing.assert_array_equal(block, _dijkstra(n, eu, ev, sources))
    # the one-source call takes no vertex-of-code split, and must agree
    for row, s in zip(block, sources):
        np.testing.assert_array_equal(root_distances(n, eu, ev, s), row)
    assert bfs_distances(adjacency(n, eu, ev), []).shape == (0, n)


@given(connected_graphs(min_parts=2), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=100, deadline=None)
def test_bfs_rejects_a_disconnected_graph(graph, pick):
    n, eu, ev = graph
    with pytest.raises(ValueError, match="^graph is not connected$"):
        bfs_distances(adjacency(n, eu, ev), [pick % n, 0])
    with pytest.raises(ValueError, match="^graph is not connected$"):
        root_distances(n, eu, ev, pick % n)


@given(random_trees, st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_parents_from_shuffled_edges_match_breadth_first_order(tree, seed):
    from scipy.sparse import coo_matrix, csgraph

    rng = np.random.default_rng(seed)
    n = tree.vertex_count
    edges = np.stack([tree.eu, tree.ev], axis=1)
    edges = edges[rng.permutation(len(edges))]
    flip = rng.random(len(edges)) < 0.5
    edges[flip] = edges[flip][:, ::-1]
    root = int(rng.integers(n))
    got = build_space(SpaceFile(type="tree", n=n, root=root,
                                edges=edges.tolist())).parent
    graph = coo_matrix((np.ones(len(edges)), edges.T), shape=(n, n))
    order, parent = csgraph.breadth_first_order(
        graph, root, directed=False, return_predecessors=True)
    assert len(order) == n
    parent[root] = root
    np.testing.assert_array_equal(got, parent)


def test_root_distances_fixed_cases():
    single = MedianGraph(1, [])
    assert single.dist_root.dtype == np.int64
    assert single.dist_root.tolist() == [0]
    # a 4-cycle with a pendant vertex, based away from vertex 0
    g = MedianGraph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)], root=2)
    assert g.dist_root.tolist() == [2, 1, 0, 1, 2]
    np.testing.assert_array_equal(g.dist_root, g.distances_from([2])[0])
    assert g.distances_from(4).tolist() == [[2, 3, 2, 1, 0]]
    for bad in (5, -1):
        with pytest.raises(ValueError, match=f"^unknown vertex {bad}$"):
            g.distances_from([0, bad])
    # n - 1 edges, enough to pass the edge count, and still two parts
    for n, edges in ((5, [(0, 1), (1, 2), (2, 3), (3, 0)]),
                     (6, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)])):
        for root in (0, n - 1):
            with pytest.raises(ValueError, match="^graph is not connected$"):
                MedianGraph(n, edges, root=root)


@given(random_trees)
@settings(max_examples=60, deadline=None)
def test_random_tree_meet_distance_identity(tree):
    dist = tree.distances_from(range(tree.vertex_count)).astype(np.int64)
    for u in range(tree.vertex_count):
        for v in range(tree.vertex_count):
            s = meeting_point(tree, u, v)
            assert dist[u][v] == tree.depth[u] + tree.depth[v] - 2 * tree.depth[s]
            assert dist[u][v] == dist[u][s] + dist[s][v]


@given(random_trees)
@settings(max_examples=40, deadline=None)
def test_random_tree_edge_dilatation(tree):
    bound_sq = PAPER.value(18) ** 2 + diff_sq_sum(PAPER, 10**4)
    vecs = vectors(tree.embedding_matrix(PAPER, range(tree.vertex_count)))
    for v in range(tree.vertex_count):
        if v == tree.root:
            continue
        d = vec_distance(vecs[v], vecs[int(tree.parent[v])])
        assert d * d <= bound_sq + 1e-9


@given(staircase_heights)
@settings(max_examples=30, deadline=None)
def test_random_staircase_is_median_with_key_property(heights):
    g = gen_cube(CubeSpec.staircase_heights(heights))
    assert validate_median(g).valid
    dist = g.distances_from(range(g.vertex_count)).astype(np.int64)
    # distance equals separating count
    assert np.array_equal(g.separating_counts(np.arange(g.vertex_count)), dist)
    # cube paths partition the separators and stay within dimension
    for v in range(g.vertex_count):
        path = normal_cube_path(g, v)
        assert sum(len(s.crossed) for s in path.steps) == int(g.dist_root[v])
        assert all(len(s.crossed) <= g.dimension for s in path.steps)
    assert key_property(g).index_deltas.max() <= 1


def _rows(mat):
    return [dict(zip(mat[r].indices.tolist(), mat[r].data.tolist()))
            for r in range(mat.shape[0])]


def assert_forest_rows_match(space, index_maps):
    """The forest's index and embedding rows equal the per-vertex walks."""
    forest = space.forest()
    n = space.vertex_count
    steps = np.arange(int(forest.length.max()) + 1, dtype=np.float64)
    table = forest.weight_table(POWER)
    index, = csr_matrices(*forest.rows(range(n), [steps]), forest.key_count)
    assert _rows(index) == index_maps
    assert _rows(space.embedding_matrix(POWER, range(n))) == [
        {key: table[i] for key, i in m.items()} for m in index_maps]


@given(random_trees)
@settings(max_examples=60, deadline=None)
def test_random_tree_forest_matches_geodesics(tree):
    assert_forest_rows_match(tree, [
        {key: i for i, key in enumerate(geodesic_edges(tree, v), start=1)}
        for v in range(tree.vertex_count)
    ])


@given(random_trees, st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_tree_edge_list_loads_back_to_its_parents(tree, rnd):
    # relabel so the root is any vertex, then write the edges shuffled
    # and with random ends first
    n = tree.vertex_count
    label = list(range(n))
    rnd.shuffle(label)
    parent = [0] * n
    for v in range(n):
        parent[label[v]] = label[int(tree.parent[v])]
    edges = [(label[v], label[int(tree.parent[v])]) for v in range(1, n)]
    rnd.shuffle(edges)
    edges = tuple((v, u) if rnd.random() < 0.5 else (u, v) for u, v in edges)
    root = label[tree.root]
    t = build_space(SpaceFile(type="tree", n=n, root=root, edges=edges))
    assert t.root == root
    assert t.parent.tolist() == parent


@given(staircase_heights)
@settings(max_examples=30, deadline=None)
def test_random_staircase_forest_matches_cube_paths(heights):
    g = gen_cube(CubeSpec.staircase_heights(heights))
    maps = [normal_cube_path(g, v).index_map for v in range(g.vertex_count)]
    assert_forest_rows_match(g, maps)
    # per-edge index gaps, read off the walks one edge at a time
    gaps = [
        max((abs(i - maps[v][k]) for k, i in maps[u].items() if k in maps[v]),
            default=0)
        for u, v in zip(g.eu, g.ev)
    ]
    assert key_property(g).index_deltas.tolist() == gaps


@given(staircase_heights)
@settings(max_examples=20, deadline=None)
def test_random_staircase_class_oracle(heights):
    g = gen_cube(CubeSpec.staircase_heights(heights))
    primary = g.hyp_of_edge
    oracle = square_closure_classes(g)
    remap = {}
    for a, b in zip(primary, oracle):
        assert remap.setdefault(int(a), int(b)) == int(b)
    assert len(set(remap.values())) == len(remap)


@given(staircase_heights)
@settings(max_examples=20, deadline=None)
def test_random_staircase_unit_embedding(heights):
    g = gen_cube(CubeSpec.staircase_heights(heights))
    dist = g.distances_from(range(g.vertex_count)).astype(np.int64)
    vecs = vectors(g.embedding_matrix(UNIT, range(g.vertex_count)))
    for u, v in itertools.combinations(range(g.vertex_count), 2):
        emb_sq = vec_distance(vecs[u], vecs[v]) ** 2
        assert abs(emb_sq - dist[u][v]) <= 1e-9 * dist[u][v]


product_factors = st.one_of(
    st.builds(_shaped_tree, st.sampled_from(["path", "star", "spider", "caterpillar", "random"]),
              st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10**6)),
    st.builds(_rerooted, st.one_of(
        st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=2)
        .map(lambda dims: CubeSpec.grid(*dims)),
        st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3)
        .map(lambda hs: CubeSpec.staircase_heights(sorted(hs, reverse=True)))),
        st.integers(min_value=0, max_value=10**6)),
)


def _spliced_rows(prod, weights, rows):
    """The product's rows as the factors' rows side by side, each shifted
    to its factor's offset: the reference for the product forest."""
    coords = np.unravel_index(rows, prod.sizes)
    parts = [f.embedding_rows(weights, c) for f, c in zip(prod.factors, coords)]
    counts = [np.diff(ptr) for ptr, _, _ in parts]
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(sum(counts), out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int64)
    data = [np.empty(indptr[-1]) for _ in weights]
    fill = indptr[:-1].copy()
    for (ptr, keys, values), count, offset in zip(parts, counts, prod.offsets):
        dst = np.arange(len(keys)) + (fill - ptr[:-1]).repeat(count)
        indices[dst] = keys + offset
        for d, v in zip(data, values):
            d[dst] = v
        fill += count
    return indptr, indices, data


@given(st.lists(product_factors, min_size=2, max_size=3),
       st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=5))
@settings(max_examples=80, deadline=None)
def test_product_forest_is_the_factor_splice(factors, picks):
    prod = metrics.ProductSpace(factors)
    n = prod.vertex_count
    weights = [UNIT, PAPER, WeightFunction.power(0.3)]
    ptr, keys, data = prod.embedding_rows(weights, np.arange(n))
    want_ptr, want_keys, want_data = _spliced_rows(prod, weights, np.arange(n))
    for got, want in zip([ptr, keys, *data], [want_ptr, want_keys, *want_data]):
        np.testing.assert_array_equal(got, want)
    # distances: the sum of the factors' BFS rows, and proved
    sources = np.asarray(picks) % n
    block = prod.forest_distances(sources)
    src, cols = np.unravel_index(sources, prod.sizes), np.unravel_index(np.arange(n), prod.sizes)
    want = sum(f.distances_from(s)[:, c] for f, s, c in zip(factors, src, cols))
    np.testing.assert_array_equal(block, want)
    assert proves_distances(degree_groups(prod), sources, block)
    assert prod.edge_count == sum(
        f.edge_count * n // f.vertex_count for f in factors)


@given(st.one_of(
    shaped_trees,
    shaped_trees.map(lambda t: MedianGraph(t.vertex_count, np.stack([t.eu, t.ev], axis=1),
                                           root=t.root)),
    st.builds(_rerooted, staircase_heights.map(CubeSpec.staircase_heights),
              st.integers(min_value=0, max_value=10**6)),
    generated_tree_specs.map(lambda spec: gen_cube(CubeSpec.from_tree(spec))),
    st.lists(product_factors, min_size=2, max_size=3).map(metrics.ProductSpace)),
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=6))
@settings(max_examples=120, deadline=None)
def test_forest_distances_count_the_keys_on_one_path(space, picks):
    # rerooted trees, staircases, from-tree spaces and products, whose
    # steps cross several keys, with the level pieces as small as one
    # vertex
    sources = np.asarray(picks) % space.vertex_count
    sets = _key_sets(space.forest())
    want = np.array([[len(sets[s] ^ q) for q in sets] for s in sources])
    np.testing.assert_array_equal(space.forest_distances(sources), want)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sparse, "LEVEL_ENTRIES", 1)
        np.testing.assert_array_equal(space.forest().distances(sources), want)


pair_data = st.lists(
    st.tuples(st.integers(min_value=1, max_value=30),
              st.floats(min_value=0, max_value=100)),
    min_size=1, max_size=120,
)


@given(pair_data)
@settings(max_examples=150)
def test_profile_fold_matches_bruteforce(pairs):
    ts = np.asarray([t for t, _ in pairs], dtype=np.int64)
    emb = np.asarray([e for _, e in pairs])
    entries = _entries_from_pairs(ts, emb)
    realized = sorted(set(int(t) for t in ts))
    assert [e.t for e in entries] == realized
    for entry in entries:
        suffix = emb[ts >= entry.t]
        prefix = emb[ts <= entry.t]
        assert entry.rho_hat == suffix.min()
        assert entry.delta_hat == prefix.max()
        assert entry.pair_count == int((ts == entry.t).sum())
    rho = [e.rho_hat for e in entries]
    delta = [e.delta_hat for e in entries]
    assert rho == sorted(rho)
    assert delta == sorted(delta)
    assert all(r <= d for r, d in zip(rho, delta))


@given(st.integers(min_value=16, max_value=80),
       st.integers(min_value=1, max_value=200))
@settings(max_examples=80, deadline=None)
def test_weight_nonnegative_and_truncated(m, t):
    w = WeightFunction.paper(m) if m >= 18 else PAPER
    val = w.value(t)
    assert val >= 0.0
    if t < w.cutoff:
        assert val == 0.0


@given(st.integers(min_value=2, max_value=12),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_binary_sample_prefix_sharing(depth, seed):
    t = gen_tree(TreeSpec.binary_sample(depth, 4, seed=seed))
    # a trie over 4 rays shares at least the root and never exceeds the
    # declared ceiling; every leaf sits at the full depth
    assert t.vertex_count <= 4 * depth + 1
    leaves = np.setdiff1d(np.arange(t.vertex_count), t.ev)
    assert all(int(t.depth[v]) == depth for v in leaves)
    assert 1 <= len(leaves) <= 4


@given(shaped_trees)
@settings(max_examples=80, deadline=None)
def test_tree_profile_from_depth_triples_matches_gram_oracle(tree):
    n = tree.vertex_count
    dist = tree.distances_from(range(n)).astype(np.int64)
    want = collections.Counter()
    for u, v in itertools.combinations(range(n), 2):
        s = int(tree.depth[meeting_point(tree, u, v)])
        a, b = sorted((int(tree.depth[u]) - s, int(tree.depth[v]) - s))
        assert a + b == dist[u][v]
        want[a, b, s] += 1
    got = collections.Counter()
    for c, a, s, count in depth_triples(tree):
        assert (count > 0).all()
        for ai, si, k in zip(a.tolist(), s.tolist(), count.tolist()):
            got[ai, ai + c, si] += k
    assert got == want
    for w in (UNIT, PAPER, WeightFunction.power(0.3)):
        with pytest.MonkeyPatch.context() as mp:
            # Gram blocks of 7 rows: several per tree of more than 7 vertices
            mp.setattr(oracles, "BLOCK_ENTRIES", 7 * n)
            sizes = counted_blocks(mp)
            fast, oracle = tree_fold(tree, w), _exhaustive_entries(tree, w)
        assert sizes == [7] * ((n - 1) // 7) + [n - 7 * ((n - 1) // 7)]
        assert [(e.t, e.pair_count) for e in fast] == [
            (e.t, e.pair_count) for e in oracle]
        assert sum(e.pair_count for e in fast) == n * (n - 1) // 2
        # compared squared: the oracle's |u|^2 + |v|^2 - 2 u.v errs by a
        # few ulp of |u|^2, which is most of a distance near zero
        for x, y in zip(fast, oracle):
            assert x.rho_hat ** 2 == pytest.approx(y.rho_hat ** 2, rel=1e-12, abs=1e-12)
            assert x.delta_hat ** 2 == pytest.approx(y.delta_hat ** 2, rel=1e-12, abs=1e-12)


_EXTREME_TREES = [
    TreeSpec.path(1),
    TreeSpec.spider(5, 1),
    TreeSpec.binary_sample(8, 256, seed=1),
    TreeSpec.caterpillar(40, 3),
]


@given(st.one_of(shaped_trees, st.sampled_from(_EXTREME_TREES).map(gen_tree)))
@settings(max_examples=80, deadline=None)
def test_tree_profile_from_meeting_extremes_matches_triple_fold(tree):
    # the fold by extreme meeting depths and exact per-distance counts
    # gives the per-triple fold's entries bit for bit
    for w in (UNIT, PAPER, WeightFunction.power(0.3)):
        assert tree_fold(tree, w) == triple_entries(tree, w)
    want, least, most = collections.Counter(), {}, {}
    for c, a, s, count in depth_triples(tree):
        for ai, si, k in zip(a.tolist(), s.tolist(), count.tolist()):
            want[2 * ai + c] += k
            least[ai, c] = min(least.get((ai, c), si), si)
            most[ai, c] = max(most.get((ai, c), si), si)
    for got, ref in zip(tree._preorder(), preorder_by_levels(tree)):
        assert np.array_equal(got, ref)
    counts = tree.distance_counts()
    assert {t: int(k) for t, k in enumerate(counts) if k} == dict(want)
    got_least, got_most = {}, {}
    for c, a, lo, hi in tree.meeting_extremes():
        # a runs through 0.. (1.. at c = 0) with no gap
        assert a.tolist() == list(range(int(c == 0), int(c == 0) + len(a)))
        for ai, x, y in zip(a.tolist(), lo.tolist(), hi.tolist()):
            got_least[ai, c], got_most[ai, c] = x, y
    assert got_least == least and got_most == most


def _tree_product(trees, graph):
    """The product of one to three trees: a ``ProductSpace`` of them, or
    as a graph: the tree itself or its median graph, the tree-product
    graph of two, or of three a ``ProductSpace`` of the first two's graph
    and the third."""
    if not graph:
        return metrics.ProductSpace(trees)
    if len(trees) == 1:
        return trees[0] if trees[0].root % 2 else median_from_tree(trees[0])
    left = tree_product_graph(trees[0], trees[1])
    return left if len(trees) == 2 else metrics.ProductSpace([left, trees[2]])


@given(st.lists(shaped_trees, min_size=1, max_size=3), st.booleans())
@settings(max_examples=40, deadline=None)
def test_product_profile_by_convolution_matches_every_pair(trees, graph):
    # the convolution of the factor trees' folds gives, bit for bit, the
    # entries of the factor route's squares of every pair folded one pair
    # at a time; against the Gram oracle, t and the counts are equal and
    # the squared distances agree to 1e-12
    assume(math.prod(t.vertex_count for t in trees) <= 600)
    space = _tree_product(trees, graph)
    product = tree_factors(space.forest())
    assert product is not None and len(product.trees) == len(trees)
    n = space.vertex_count
    us, vs = np.triu_indices(n, 1)
    ts = space.forest_distances(np.arange(n))[us, vs]
    for w in (UNIT, PAPER, WeightFunction.power(0.3)):
        got = metrics.profile(space, w, metrics.PairSampler.exhaustive()).entries
        emb_sq = FactorPairs(product, w, np.arange(n)).sq_distances(us, vs, ts)
        assert got == _entries_from_pairs(ts, np.sqrt(np.clip(emb_sq, 0.0, None)))
        assert_entries_agree(got, _exhaustive_entries(space, w))
