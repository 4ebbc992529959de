"""Property tests over randomized structures: random parent arrays for
trees, random monotone height profiles for staircases, and random pair
data for the profile fold."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from medembed.cube import (
    CubeSpec,
    gen_cube,
    key_property,
    normal_cube_path,
    square_closure_classes,
    validate_median,
)
from medembed.metrics import _entries_from_pairs
from medembed.spacefile import SpaceFile, build_space
from medembed.sparse import vec_distance, vectors
from medembed.tree import (
    RootedTree,
    TreeSpec,
    gen_tree,
    geodesic_edges,
    meeting_point,
)
from medembed.weights import WeightFunction, diff_sq_sum

UNIT = WeightFunction.unit()
PAPER = WeightFunction.paper(18)
# nonzero at every index, so no forest entry is dropped
POWER = WeightFunction.power(0.25)


# parent[i] < i makes any integer list a valid rooted tree
random_trees = st.lists(
    st.integers(min_value=0, max_value=10**6), min_size=1, max_size=40
).map(lambda raw: RootedTree([0] + [raw[i] % (i + 1) for i in range(len(raw))]))

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
    assert _rows(forest.matrix(range(n), steps)) == index_maps
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
