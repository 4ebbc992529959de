import itertools
import math

import numpy as np
import pytest

from medembed.errors import BudgetExceededError
from medembed.sparse import csr_matrices, vec_distance, vectors
from medembed.tree import RootedTree, TreeSpec, gen_tree
from medembed.weights import WeightFunction, diff_sq_tail_bound
from oracles import geodesic_edges, meeting_point, sq_partial_sums

XI_SQ_18_19_20 = 16.6069717014757
UNIT = WeightFunction.unit()
PAPER = WeightFunction.paper(18)


def bfs_distances(tree):
    """All-pairs BFS distances, fetched max(1, 2**18 // n) sources at a
    time: one BFS from all n sources touches its n x n block at random and
    is slower."""
    n = tree.vertex_count
    step = max(1, 2**18 // n)
    return np.concatenate([tree.distances_from(range(lo, min(lo + step, n)))
                           for lo in range(0, n, step)]).astype(np.int64)


# -- generators ------------------------------------------------------------


def test_path_generator():
    t = gen_tree(TreeSpec.path(5))
    assert t.vertex_count == 6
    assert t.edge_count == 5
    assert bfs_distances(t).max() == 5


def test_spider_generator():
    t = gen_tree(TreeSpec.spider(3, 100))
    assert t.vertex_count == 301
    assert bfs_distances(t).max() == 200
    legs = sum(1 for v in range(t.vertex_count) if t.parent[v] == 0 and v != 0)
    assert legs == 3


def test_caterpillar_generator():
    spec = TreeSpec.caterpillar(4, 3)
    t = gen_tree(spec)
    assert t.vertex_count == spec.max_vertex_count() == 5 * 4
    leaves = len(np.setdiff1d(np.arange(t.vertex_count), t.ev))
    assert leaves == 5 * 3  # every leaf is a hair; the spine tip has hairs


def test_binary_sample_deterministic_and_bounded():
    spec = TreeSpec.binary_sample(200, 50, seed=42)
    t1 = gen_tree(spec)
    t2 = gen_tree(spec)
    assert t1.vertex_count <= 200 * 50 + 1
    assert np.array_equal(t1.parent, t2.parent)
    assert int(t1.depth.max()) == 200


def _binary_sample_walk(depth, rays, seed):
    """Parent array of a binary sample built ray by ray, bit by bit."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(rays, depth))
    parents = [0]
    node_child = {}
    for ray in bits:
        at = 0
        for b in ray:
            step = (at, int(b))
            nxt = node_child.get(step)
            if nxt is None:
                nxt = len(parents)
                parents.append(at)
                node_child[step] = nxt
            at = nxt
    return np.asarray(parents)


@pytest.mark.parametrize("depth,rays,seed", [
    (1, 1, 0), (1, 2, 5), (3, 8, 9), (5, 3, 1), (10, 1024, 3), (64, 500, 7),
    (200, 32, 42)])
def test_binary_sample_matches_ray_walk(depth, rays, seed):
    parent = gen_tree(TreeSpec.binary_sample(depth, rays, seed)).parent
    expected = _binary_sample_walk(depth, rays, seed)
    assert parent.dtype == expected.dtype and np.array_equal(parent, expected)


def test_binary_sample_needs_seed():
    with pytest.raises(ValueError):
        gen_tree(TreeSpec(kind="binary_sample", depth=5, rays=2, seed=None))


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        gen_tree(TreeSpec.path(100), max_vertices=50)


def test_invalid_parent_arrays():
    with pytest.raises(ValueError, match="^root must be its own parent$"):
        RootedTree([1, 0], root=0)
    with pytest.raises(ValueError, match="^vertex 1 is its own parent but not root$"):
        RootedTree([0, 1], root=0)  # vertex 1 detached self-parent
    with pytest.raises(ValueError, match="^vertex 2 is its own parent but not root$"):
        RootedTree([0, 0, 2, 3], root=0)  # the first of two is named
    with pytest.raises(ValueError, match="^parent array is not a connected tree$"):
        RootedTree([0, 2, 1], root=0)  # 2-cycle unreachable from root
    with pytest.raises(ValueError, match="^parent array is not a connected tree$"):
        RootedTree([0, 0, 3, 4, 2], root=0)  # 3-cycle away from the root
    with pytest.raises(ValueError, match="^parent array is not a connected tree$"):
        RootedTree([0, 2, 3, 4, 5, 3], root=0)  # a chain into a 3-cycle
    with pytest.raises(ValueError, match="^parent ids out of range$"):
        RootedTree([0, 0, 5], root=0)
    with pytest.raises(ValueError, match="^root out of range$"):
        RootedTree([0, 0], root=2)


# -- geodesics and meets -----------------------------------------------------


def test_geodesic_edges_at_root_empty():
    t = gen_tree(TreeSpec.path(5))
    assert geodesic_edges(t, 0) == []


def test_geodesic_edges_on_path():
    t = gen_tree(TreeSpec.path(5))
    keys = geodesic_edges(t, 5)
    assert len(keys) == 5
    assert keys[0] == t.edge_key(5)  # first edge incident to the far end
    assert keys == [t.edge_key(v) for v in (5, 4, 3, 2, 1)]


def test_geodesic_edges_length_is_depth():
    t = gen_tree(TreeSpec.spider(3, 7))
    for v in range(t.vertex_count):
        assert len(geodesic_edges(t, v)) == int(t.depth[v])


def test_meeting_point_cases():
    t = gen_tree(TreeSpec.spider(2, 4))
    # legs: 1..4 and 5..8
    assert meeting_point(t, 3, 3) == 3
    assert meeting_point(t, 2, 6) == 0
    assert meeting_point(t, 1, 3) == 1  # ancestor
    assert meeting_point(t, 4, 2) == 2


def test_distance_identity_against_bfs():
    t = gen_tree(TreeSpec.binary_sample(12, 6, seed=3))
    dist = bfs_distances(t)
    for u in range(t.vertex_count):
        for v in range(u, t.vertex_count):
            s = meeting_point(t, u, v)
            d = int(t.depth[u] + t.depth[v] - 2 * t.depth[s])
            assert d == dist[u][v]


def test_unknown_vertex_rejected():
    t = gen_tree(TreeSpec.path(3))
    with pytest.raises(ValueError):
        geodesic_edges(t, 9)
    with pytest.raises(ValueError):
        meeting_point(t, 0, 9)


# -- embedding ----------------------------------------------------------------


def test_root_embeds_to_zero():
    t = gen_tree(TreeSpec.spider(3, 5))
    for w in (PAPER, UNIT):
        root, = vectors(t.embedding_matrix(w, [0]))
        assert root.coords == {}


def test_unit_norm_is_sqrt_depth():
    t = gen_tree(TreeSpec.caterpillar(6, 2))
    vecs = vectors(t.embedding_matrix(UNIT, range(t.vertex_count)))
    for v in range(t.vertex_count):
        assert vecs[v].norm() == pytest.approx(
            math.sqrt(t.depth[v]), rel=1e-12)


def test_unit_pairwise_identity_brute_force():
    t = gen_tree(TreeSpec.path(30))
    dist = bfs_distances(t)
    vecs = vectors(t.embedding_matrix(UNIT, range(t.vertex_count)))
    for u, v in itertools.combinations(range(t.vertex_count), 2):
        assert vec_distance(vecs[u], vecs[v]) ** 2 == pytest.approx(
            dist[u][v], rel=1e-9)


def test_paper_norm_on_deep_path_vertex():
    t = gen_tree(TreeSpec.path(30))
    # depth 20: only indices 18, 19, 20 remain
    vec, = vectors(t.embedding_matrix(PAPER, [20]))
    assert vec.support_size == 3
    assert vec.norm() ** 2 == pytest.approx(XI_SQ_18_19_20, rel=1e-9)


def test_embedding_support_is_root_path():
    t = gen_tree(TreeSpec.spider(2, 25))
    rows = (5, 25, 40)
    for v, vec in zip(rows, vectors(t.embedding_matrix(PAPER, rows))):
        keys = set(geodesic_edges(t, v))
        assert set(vec.coords) <= keys


def test_per_pair_compression_inequality_exhaustive():
    t = gen_tree(TreeSpec.spider(3, 30))
    cum = np.concatenate([[0.0], sq_partial_sums(PAPER, 60)])
    vecs = vectors(t.embedding_matrix(PAPER, range(t.vertex_count)))
    dist = bfs_distances(t)
    for u, v in itertools.combinations(range(t.vertex_count), 2):
        s_vertex = meeting_point(t, u, v)
        s = int(max(t.depth[u], t.depth[v]) - t.depth[s_vertex])
        d = dist[u][v]
        assert s >= math.ceil(d / 2)
        emb_sq = vec_distance(vecs[u], vecs[v]) ** 2
        assert emb_sq >= cum[s] * (1 - 1e-9) - 1e-9


def test_edge_dilatation_exact_bound():
    t = gen_tree(TreeSpec.path(60))
    bound_sq = PAPER.value(18) ** 2 + diff_sq_tail_bound(PAPER)
    vecs = vectors(t.embedding_matrix(PAPER, range(t.vertex_count)))
    for v in range(1, t.vertex_count):
        d = vec_distance(vecs[v], vecs[int(t.parent[v])])
        assert d * d <= bound_sq + 1e-9


def test_lipschitz_up_to_edge_constant():
    t = gen_tree(TreeSpec.binary_sample(40, 8, seed=1))
    c_edge = math.sqrt(PAPER.value(18) ** 2 + diff_sq_tail_bound(PAPER))
    dist = bfs_distances(t)
    vecs = vectors(t.embedding_matrix(PAPER, range(t.vertex_count)))
    rng = np.random.default_rng(0)
    for _ in range(300):
        u, v = rng.integers(0, t.vertex_count, 2)
        assert vec_distance(vecs[u], vecs[v]) <= (
            c_edge * dist[u][v] + 1e-9)


def test_injectivity_patch():
    t = gen_tree(TreeSpec.spider(2, 10))
    eps = 0.5
    forest = t.forest()
    rows = range(t.vertex_count)
    patched = csr_matrices(*forest.rows(rows, [forest.weight_table(PAPER) + eps]),
                           forest.key_count)[0].toarray()
    plain = t.embedding_matrix(PAPER, rows).toarray()
    assert len({tuple(row) for row in patched}) == t.vertex_count
    dist = bfs_distances(t)
    for u in range(t.vertex_count):
        for v in range(t.vertex_count):
            raw = np.linalg.norm(plain[u] - plain[v])
            moved = np.linalg.norm(patched[u] - patched[v])
            assert abs(moved - raw) <= eps * math.sqrt(dist[u][v]) + 1e-12
