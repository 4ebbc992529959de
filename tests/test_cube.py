import itertools

import numpy as np
import pytest

from medembed.cube import (
    CubeSpec,
    MedianGraph,
    MedianVerdict,
    dimension_by_cliques,
    gen_cube,
    key_property,
    median_from_tree,
    normal_cube_path,
    square_closure_classes,
    tree_product_graph,
    validate_median,
)
from medembed.errors import (
    BudgetExceededError,
    CubeSpanError,
    NonTerminationError,
    SideComputationError,
)
from medembed.sparse import Graph, vec_distance, vectors
from medembed.tree import RootedTree, TreeSpec, gen_tree
from medembed.weights import WeightFunction

UNIT = WeightFunction.unit()
PAPER = WeightFunction.paper(18)


def all_distances(g):
    return g.distances_from(range(g.vertex_count)).astype(np.int64)


def triangle():
    return MedianGraph(3, [(0, 1), (1, 2), (0, 2)])


def four_cycle():
    return MedianGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def six_cycle():
    return MedianGraph(6, [(i, (i + 1) % 6) for i in range(6)])


def three_cube():
    return gen_cube(CubeSpec.grid(1, 1, 1))


def far_sides(g):
    """Bool matrix, row c True on the far side of hyperplane c."""
    return np.unpackbits(g.hyperplanes(), axis=1, count=g.vertex_count).view(bool)


# -- construction and generators -----------------------------------------------


def test_grid_2x3_counts():
    g = gen_cube(CubeSpec.grid(2, 3))
    assert g.vertex_count == 12
    assert g.edge_count == 17


def test_grid_hyperplane_count():
    g = gen_cube(CubeSpec.grid(2, 3))
    assert len(g.hyperplanes()) == 5
    g2 = gen_cube(CubeSpec.grid(4, 6))
    assert len(g2.hyperplanes()) == 10


def test_from_tree_keeps_metric():
    t = gen_tree(TreeSpec.path(5))
    g = median_from_tree(t)
    assert g.vertex_count == t.vertex_count
    dist_t = t.distances_from(range(t.vertex_count))
    dist_g = g.distances_from(range(g.vertex_count))
    assert np.array_equal(dist_t, dist_g)
    assert len(g.hyperplanes()) == 5  # singleton classes on a path
    assert np.bincount(g.hyp_of_edge).tolist() == [1] * 5


def test_tree_product_of_paths_is_grid():
    g1 = gen_cube(CubeSpec.tree_product(TreeSpec.path(2), TreeSpec.path(2)))
    g2 = gen_cube(CubeSpec.grid(2, 2))
    assert g1.vertex_count == g2.vertex_count == 9
    assert g1.edge_count == g2.edge_count == 12
    assert sorted(all_distances(g1).ravel()) == sorted(all_distances(g2).ravel())


def test_staircase_counts_and_median():
    g = gen_cube(CubeSpec.staircase(4))  # heights 4,3,2,1
    assert g.vertex_count == 4 + 1 + 10 + 4
    assert validate_median(g).valid
    assert g.dimension == 2


def test_staircase_heights_must_decrease():
    with pytest.raises(ValueError):
        gen_cube(CubeSpec.staircase_heights([2, 3]))


def test_cube_budget():
    with pytest.raises(BudgetExceededError):
        gen_cube(CubeSpec.grid(100, 100), max_vertices=100)


def test_rejects_bad_edges():
    with pytest.raises(ValueError, match=r"^duplicate edge \(0, 1\)$"):
        MedianGraph(3, [(0, 1), (0, 1)])
    with pytest.raises(ValueError, match="^self-loop at 0$"):
        MedianGraph(3, [(0, 0)])
    with pytest.raises(ValueError, match="^graph is not connected$"):
        MedianGraph(4, [(0, 1), (2, 3)])  # disconnected
    with pytest.raises(ValueError, match="^graph is not connected$"):
        MedianGraph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])  # n - 1 edges, two parts
    with pytest.raises(ValueError):
        MedianGraph(3, [(0, 1, 2)])  # not a pair


def test_edge_errors_name_the_first_bad_edge():
    # the first offending edge in edge order is reported; within one edge
    # out of range comes before a self-loop, a self-loop before a repeat
    cases = [
        ([(0, 1), (1, 7), (0, 1)], r"^edge \(1,7\) out of range$"),
        ([(0, 1), (-1, 2), (0, 0)], r"^edge \(-1,2\) out of range$"),
        ([(0, 1), (9, 9), (1, 0)], r"^edge \(9,9\) out of range$"),
        ([(0, 1), (2, 2 ** 70)], rf"^edge \(2,{2 ** 70}\) out of range$"),
        ([(0, 1), (1, 1), (0, 1)], "^self-loop at 1$"),
        ([(0, 1), (2, 1), (1, 2), (3, 3)], r"^duplicate edge \(1, 2\)$"),
        ([(3, 1), (1, 0), (1, 3), (9, 0)], r"^duplicate edge \(1, 3\)$"),
    ]
    for edges, message in cases:
        with pytest.raises(ValueError, match=message):
            MedianGraph(4, edges)
    # the root is checked before any edge
    with pytest.raises(ValueError, match="^root out of range$"):
        MedianGraph(4, [(0, 9), (1, 1)], root=7)
    with pytest.raises(ValueError, match="^root out of range$"):
        MedianGraph(4, [(0, 1)], root=-1)


def test_single_vertex_graph():
    g = MedianGraph(1, [])
    assert (g.vertex_count, g.edge_count, g.dimension) == (1, 0, 0)
    assert g.dist_root.tolist() == [0]
    assert g.eu.dtype == g.ev.dtype == np.int64


def _grid_edges_by_loops(dims):
    sizes = [d + 1 for d in dims]
    strides = [int(np.prod(sizes[a + 1:])) for a in range(len(sizes))]
    edges = []
    for coords in itertools.product(*(range(s) for s in sizes)):
        base = sum(c * st for c, st in zip(coords, strides))
        for axis, s in enumerate(sizes):
            if coords[axis] + 1 < s:
                edges.append((base, base + strides[axis]))
    return edges


def test_generator_edge_arrays_match_loops():
    # edge order fixes the class ids, the keys ``medembed embed`` prints
    for dims in ((1,), (7,), (3, 2), (1, 4), (2, 3, 4), (1, 1, 1)):
        g = gen_cube(CubeSpec.grid(*dims))
        assert list(zip(g.eu.tolist(), g.ev.tolist())) == _grid_edges_by_loops(dims)
    for left, right in ((TreeSpec.path(3), TreeSpec.spider(2, 2)),
                        (TreeSpec.caterpillar(2, 1), TreeSpec.path(1))):
        t1, t2 = gen_tree(left), gen_tree(right)
        g = tree_product_graph(t1, t2)
        n2 = t2.vertex_count
        expected = [(v * n2 + i2, int(t1.parent[v]) * n2 + i2)
                    for v in range(t1.vertex_count) if v != t1.root
                    for i2 in range(n2)]
        expected += [(i1 * n2 + u, i1 * n2 + int(t2.parent[u]))
                     for u in range(n2) if u != t2.root
                     for i1 in range(t1.vertex_count)]
        assert list(zip(g.eu.tolist(), g.ev.tolist())) == expected
    t = RootedTree([2, 2, 2, 0, 3, 1], root=2)
    g = median_from_tree(t)
    assert list(zip(g.eu.tolist(), g.ev.tolist())) == [
        (v, int(t.parent[v])) for v in range(t.vertex_count) if v != t.root]
    assert g.root == 2


def test_one_graph_core():
    # trees and median graphs inherit BFS and the embedding matrix; a
    # per-kind copy of either is a second code path to keep in step
    for name in ("distances_from", "embedding_matrix"):
        assert name in Graph.__dict__
        assert name not in RootedTree.__dict__
        assert name not in MedianGraph.__dict__


# -- median validation -----------------------------------------------------------


def test_triangle_fails_median():
    verdict = validate_median(triangle())
    assert not verdict.valid
    assert verdict.median_count == 0
    assert verdict.violation is not None


def test_four_cycle_and_three_cube_are_median():
    assert validate_median(four_cycle()).valid
    v = validate_median(three_cube())
    assert v.valid
    assert v.triples_checked == 56  # C(8,3), exhaustive


def test_generated_spaces_are_median():
    for spec in (
        CubeSpec.grid(3, 3),
        CubeSpec.staircase(3),
        CubeSpec.from_tree(TreeSpec.spider(3, 3)),
        CubeSpec.tree_product(TreeSpec.path(3), TreeSpec.spider(2, 2)),
    ):
        assert validate_median(gen_cube(spec)).valid, spec.label()


def test_validate_median_budget_sampling_deterministic():
    g = gen_cube(CubeSpec.grid(6, 6))
    a = validate_median(g, triple_budget=500, seed=9)
    b = validate_median(g, triple_budget=500, seed=9)
    assert a == b
    assert a.valid
    assert a.triples_checked <= 500


def _median_loop(g, triple_budget, seed=0):
    """validate_median one triple at a time: the per-triple oracle."""
    n = g.vertex_count
    if n < 3:
        return MedianVerdict(valid=True, triples_checked=0)
    total = n * (n - 1) * (n - 2) // 6
    if total <= triple_budget:
        pool = np.arange(n)
        triple_iter = itertools.combinations(range(n), 3)
    else:
        rng = np.random.default_rng(seed)
        p = min(n, max(8, int(round((6.0 * triple_budget) ** (1.0 / 3.0))) + 2))
        pool = np.sort(rng.choice(n, size=p, replace=False))
        draws = rng.integers(0, p, size=(int(triple_budget * 1.3), 3))
        distinct = ((draws[:, 0] != draws[:, 1]) & (draws[:, 1] != draws[:, 2])
                    & (draws[:, 0] != draws[:, 2]))
        triple_iter = map(tuple, draws[distinct][:triple_budget])
    rows = g.distances_from(pool)
    assert rows.max() < 2 ** 14  # so int16 sums are exact; int64 takes twice as long
    rows = rows.astype(np.int16)
    checked = 0
    for i, j, k in triple_iter:
        du, dv, dw = rows[i], rows[j], rows[k]
        medians = np.count_nonzero((du + dv == du[pool[j]]) & (dv + dw == dv[pool[k]])
                                   & (du + dw == du[pool[k]]))
        checked += 1
        if medians != 1:
            return MedianVerdict(False, checked,
                                 (int(pool[i]), int(pool[j]), int(pool[k])), int(medians))
    return MedianVerdict(valid=True, triples_checked=checked)


def _median_check_graphs():
    """Median graphs, near misses one edge away from a grid, and
    connected induced subgraphs of the 5-cube."""
    yield six_cycle()
    yield MedianGraph(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])  # K_{2,3}
    yield MedianGraph(10, [(i, (i + 1) % 5) for i in range(5)]  # Petersen
                      + [(i, i + 5) for i in range(5)]
                      + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    for spec in (CubeSpec.grid(100, 100), CubeSpec.grid(20, 20),
                 CubeSpec.grid(4, 5, 6), CubeSpec.staircase(25),
                 CubeSpec.tree_product(TreeSpec.spider(3, 4), TreeSpec.path(6))):
        yield gen_cube(spec)
    for side in (8, 30, 60):
        g = gen_cube(CubeSpec.grid(side, side))
        edges = list(zip(g.eu.tolist(), g.ev.tolist()))
        mid = (side // 2) * (side + 1) + side // 2
        yield MedianGraph(g.vertex_count, edges + [(mid, mid + side + 2)])  # diagonal
        yield MedianGraph(g.vertex_count, [e for e in edges if e != (mid, mid + 1)])
    rng = np.random.default_rng(5)
    found = 0
    while found < 14:
        keep = np.flatnonzero(rng.random(32) < rng.uniform(0.3, 0.8))
        ids = {int(v): i for i, v in enumerate(keep)}
        edges = [(ids[u], ids[u | 1 << b]) for u in ids for b in range(5)
                 if u | 1 << b != u and u | 1 << b in ids]
        try:
            g = MedianGraph(len(ids), edges)
        except ValueError:  # not connected
            continue
        found += 1
        yield g


def test_validate_median_matches_per_triple_loop():
    verdicts = []
    for g in _median_check_graphs():
        for budget in (200_000, 2_000, 50):
            verdict = validate_median(g, triple_budget=budget)
            assert verdict == _median_loop(g, budget), (g.vertex_count, budget)
            verdicts.append(verdict)
    assert len(verdicts) == 84
    assert 0 < sum(not v.valid for v in verdicts) < 84  # both kinds are checked
    assert any(not v.valid and v.triples_checked > 1 for v in verdicts)


# -- hyperplanes ------------------------------------------------------------------


def test_three_cube_hyperplanes():
    g = three_cube()
    hyps = g.hyperplanes()
    assert len(hyps) == 3
    assert np.bincount(g.hyp_of_edge).tolist() == [4, 4, 4]


def test_near_side_contains_root():
    g = gen_cube(CubeSpec.grid(3, 2))
    far = far_sides(g)
    assert len(far) == 5
    for c, row in enumerate(far):
        assert not row[g.root]
        eid = np.flatnonzero(g.hyp_of_edge == c)[0]
        assert row[g.eu[eid]] != row[g.ev[eid]]


def test_far_rows_match_bfs_sides():
    for g in (gen_cube(CubeSpec.grid(3, 2)), gen_cube(CubeSpec.staircase(5)),
              three_cube(), six_cycle(), MedianGraph(1, [])):
        n = g.vertex_count
        packed = g.hyperplanes()
        k = len(np.unique(g.hyp_of_edge))
        assert packed.dtype == np.uint8 and packed.shape == (k, (n + 7) // 8)
        far = np.zeros((k, n), dtype=bool)
        for c in range(k):
            # the far side is the halfspace of the class's first edge whose
            # end is the farther one from the base vertex
            eid = np.flatnonzero(g.hyp_of_edge == c)[0]
            a, b = int(g.eu[eid]), int(g.ev[eid])
            if g.dist_root[a] < g.dist_root[b]:
                a, b = b, a
            da, db = g.distances_from([a, b])
            far[c] = da < db
        assert np.array_equal(np.packbits(far, axis=1), packed)
        assert np.array_equal(g.separators.toarray(), far.T)


def test_triangle_hyperplanes_error():
    five_cycle = MedianGraph(5, [(i, (i + 1) % 5) for i in range(5)])
    k4 = MedianGraph(4, list(itertools.combinations(range(4), 2)))
    k23 = MedianGraph(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
    for g in (triangle(), five_cycle, k4, k23):
        with pytest.raises(SideComputationError):
            g.hyperplanes()


def test_square_closure_oracle_agrees():
    for spec in (
        CubeSpec.grid(3, 4),
        CubeSpec.staircase(4),
        CubeSpec.from_tree(TreeSpec.spider(3, 5)),
        CubeSpec.tree_product(TreeSpec.path(3), TreeSpec.spider(2, 2)),
        CubeSpec.grid(2, 2, 2),
    ):
        g = gen_cube(spec)
        primary = g.hyp_of_edge
        oracle = square_closure_classes(g)
        # same partition of the edge set, labels may differ
        remap = {}
        for a, b in zip(primary, oracle):
            assert remap.setdefault(int(a), int(b)) == int(b), spec.label()
        assert len(set(remap.values())) == len(remap)


def test_separates_cases():
    g = gen_cube(CubeSpec.grid(2, 3))
    sep = g.separators.toarray()
    assert sep.shape == (g.vertex_count, 5)
    assert not (sep[5] != sep[5]).any()
    # adjacent pair crosses exactly its own hyperplane
    u, v = int(g.eu[0]), int(g.ev[0])
    crossing = np.flatnonzero(sep[u] != sep[v])
    assert crossing.tolist() == [g.hyp_of_edge[0]]
    # opposite corners cross all five
    far = g.vertex_count - 1
    assert (sep[g.root] != sep[far]).sum() == 5


def test_distance_equals_separating_count():
    for spec in (
        CubeSpec.grid(4, 5),
        CubeSpec.grid(2, 3, 2),
        CubeSpec.staircase_heights([5, 3, 2]),
        CubeSpec.tree_product(TreeSpec.path(3), TreeSpec.path(4)),
    ):
        g = gen_cube(spec)
        seps = g.separating_counts(np.arange(g.vertex_count))
        assert np.array_equal(seps, all_distances(g)), spec.label()
        assert np.array_equal(g.separating_counts([3, 1]), seps[[3, 1]])


def test_dimension_against_clique_oracle():
    cases = [
        (CubeSpec.grid(3, 3), 2),
        (CubeSpec.grid(2, 2, 2), 3),
        (CubeSpec.staircase(4), 2),
        (CubeSpec.from_tree(TreeSpec.spider(3, 4)), 1),
        (CubeSpec.tree_product(TreeSpec.path(2), TreeSpec.spider(2, 2)), 2),
    ]
    for spec, expected in cases:
        g = gen_cube(spec)
        assert g.dimension == expected, spec.label()
        assert dimension_by_cliques(g) == expected, spec.label()


# -- cube paths -------------------------------------------------------------------


def test_three_cube_single_step_path():
    g = three_cube()
    far = g.vertex_count - 1
    assert int(g.dist_root[far]) == 3
    path = normal_cube_path(g, far)
    assert path.length == 1
    assert len(path.steps[0].crossed) == 3
    assert all(i == 1 for i in path.index_map.values())
    assert len(path.index_map) == 3


def test_from_tree_path_degenerates_to_geodesic():
    t = gen_tree(TreeSpec.path(6))
    g = median_from_tree(t)
    path = normal_cube_path(g, 6)
    assert path.length == 6
    assert all(len(s.crossed) == 1 for s in path.steps)
    # i-th crossed hyperplane is the class of the i-th root-path edge
    for i, step in enumerate(path.steps):
        (key,) = step.crossed
        (eid,) = np.flatnonzero(g.hyp_of_edge == key)
        assert {int(g.eu[eid]), int(g.ev[eid])} == {6 - i, 5 - i}


def test_grid_2x2_two_steps():
    g = gen_cube(CubeSpec.grid(2, 2))
    far = g.vertex_count - 1
    path = normal_cube_path(g, far)
    assert path.length == 2
    assert [len(s.crossed) for s in path.steps] == [2, 2]
    assert path.steps[0].entry == far
    assert path.steps[1].exit == g.root


def test_path_partitions_separators():
    g = gen_cube(CubeSpec.staircase(5))
    far = far_sides(g)
    for v in range(g.vertex_count):
        path = normal_cube_path(g, v)
        total = sum(len(s.crossed) for s in path.steps)
        assert total == int(g.dist_root[v])
        crossed = set()
        for s in path.steps:
            assert not (crossed & s.crossed)
            crossed |= s.crossed
        separating = {
            int(i) for i in np.flatnonzero(far[:, v] != far[:, g.root])
        }
        assert crossed == separating


def test_step_sets_bounded_by_dimension():
    for spec in (CubeSpec.grid(4, 4), CubeSpec.grid(2, 2, 2),
                 CubeSpec.staircase(5)):
        g = gen_cube(spec)
        n_dim = g.dimension
        for v in range(g.vertex_count):
            for s in normal_cube_path(g, v).steps:
                assert len(s.crossed) <= n_dim


def test_step_order_independence():
    # crossing the first step's hyperplanes in any order lands on the exit
    g = gen_cube(CubeSpec.grid(2, 2, 2))
    far = g.vertex_count - 1
    step = normal_cube_path(g, far).steps[0]
    hoe = g.hyp_of_edge
    for order in itertools.permutations(step.crossed):
        at = far
        for key in order:
            nxt = [nbr for nbr, eid in g.adj[at] if hoe[eid] == key]
            assert len(nxt) == 1
            at = nxt[0]
        assert at == step.exit


def test_cube_path_step_must_shorten_path():
    g = gen_cube(CubeSpec.grid(2, 2))
    far = g.vertex_count - 1
    g._step = lambda x: ((0,), x)  # a step that stays put never ends
    with pytest.raises(NonTerminationError):
        normal_cube_path(g, far)


def test_six_cycle_has_no_spanning_cube():
    g = six_cycle()
    g.hyperplanes()  # opposite-edge classes are fine
    with pytest.raises(CubeSpanError):
        normal_cube_path(g, 3)


# -- embedding --------------------------------------------------------------------


def test_root_embeds_to_zero():
    g = gen_cube(CubeSpec.grid(3, 3))
    root, = vectors(g.embedding_matrix(PAPER, [g.root]))
    assert root.coords == {}


def test_unit_identity_exhaustive_small_grids():
    for spec in (CubeSpec.grid(6, 6), CubeSpec.grid(2, 3, 2)):
        g = gen_cube(spec)
        dist = all_distances(g)
        vecs = vectors(g.embedding_matrix(UNIT, range(g.vertex_count)))
        for u, v in itertools.combinations(range(g.vertex_count), 2):
            assert vec_distance(vecs[u], vecs[v]) ** 2 == pytest.approx(
                dist[u][v], rel=1e-9)


def test_embedding_support_is_separating_set():
    g = gen_cube(CubeSpec.staircase(5))
    vecs = vectors(g.embedding_matrix(UNIT, range(g.vertex_count)))
    far = far_sides(g)
    for v in range(g.vertex_count):
        support = set(vecs[v].coords)
        separating = {
            int(i) for i in np.flatnonzero(far[:, v] != far[:, g.root])
        }
        assert support == separating


def test_cube_embed_matches_tree_embed_on_from_tree():
    t = gen_tree(TreeSpec.spider(3, 8))
    g = median_from_tree(t)
    vecs_g = vectors(g.embedding_matrix(PAPER, range(t.vertex_count)))
    vecs_t = vectors(t.embedding_matrix(PAPER, range(t.vertex_count)))
    # shared key assignment: hyperplane of edge (child, parent) <-> tree key
    assert (np.bincount(g.hyp_of_edge) == 1).all()  # one edge per class
    key_map = {}
    for eid, key in enumerate(g.hyp_of_edge.tolist()):
        u, v = int(g.eu[eid]), int(g.ev[eid])
        child = u if t.depth[u] > t.depth[v] else v
        key_map[key] = t.edge_key(child)
    for v in range(t.vertex_count):
        got = {key_map[k]: val for k, val in vecs_g[v].coords.items()}
        want = vecs_t[v].coords
        assert got.keys() == want.keys()
        for k in want:
            assert got[k] == pytest.approx(want[k], rel=1e-12)


def test_per_pair_compression_inequality_on_grid():
    # diameter 80 makes the floor pass the cutoff, so the bound is live
    from medembed.metrics import sq_row_norms
    from medembed.weights import sq_partial_sums

    g = gen_cube(CubeSpec.grid(40, 40))
    n = g.vertex_count
    n_dim = g.dimension
    cum = np.concatenate([[0.0], sq_partial_sums(PAPER, 100)])
    mat = g.embedding_matrix(PAPER, range(n))
    norms_sq = sq_row_norms(mat)
    cols = np.arange(n)[None, :]
    live = 0
    for start in range(0, n, 512):
        block = np.arange(start, min(start + 512, n))
        d = g.distances_from(block).astype(np.int64)
        gram = np.asarray((mat[block] @ mat.T).todense())
        emb_sq = norms_sq[block][:, None] + norms_sq[None, :] - 2.0 * gram
        mask = cols > block[:, None]
        lower = cum[d[mask] // (2 * n_dim)]
        assert np.all(emb_sq[mask] >= lower * (1 - 1e-9) - 1e-9)
        live += int((lower > 0).sum())
    assert live > 0  # the check was not vacuous


# -- index maps -------------------------------------------------------------------


def test_index_delta_bounded_on_edges():
    for spec in (CubeSpec.grid(5, 5), CubeSpec.grid(2, 2, 3),
                 CubeSpec.staircase(5),
                 CubeSpec.from_tree(TreeSpec.spider(3, 6))):
        g = gen_cube(spec)
        deltas = key_property(g).index_deltas
        assert len(deltas) == g.edge_count
        assert deltas.max() <= 1, spec.label()


def test_edge_own_hyperplane_indices():
    g = gen_cube(CubeSpec.grid(4, 3))
    hoe = g.hyp_of_edge
    dist = g.dist_root
    for eid in range(g.edge_count):
        u, v = int(g.eu[eid]), int(g.ev[eid])
        deeper, shallower = (u, v) if dist[u] > dist[v] else (v, u)
        key = int(hoe[eid])
        assert normal_cube_path(g, deeper).index_map[key] == 1
        assert key not in normal_cube_path(g, shallower).index_map
    assert key_property(g).own_key_ok


def test_index_multiplicity_bounded():
    g = gen_cube(CubeSpec.grid(4, 4))
    n_dim = g.dimension
    for v in range(g.vertex_count):
        counts = {}
        for _, i in normal_cube_path(g, v).index_map.items():
            counts[i] = counts.get(i, 0) + 1
        assert all(c <= n_dim for c in counts.values())
    assert key_property(g).max_step_size <= n_dim


def test_vacuous_index_delta_is_zero():
    # edge at the root: its own hyperplane is the only separator, the
    # common separating set is empty
    t = gen_tree(TreeSpec.path(2))
    g = median_from_tree(t)
    (eid,) = [e for e in range(g.edge_count)
              if {int(g.eu[e]), int(g.ev[e])} == {0, 1}]
    assert key_property(g).index_deltas[eid] == 0


# -- changing the root -------------------------------------------------------------


def test_invariants_survive_root_change():
    base_spec = CubeSpec.grid(4, 4)
    reference = gen_cube(base_spec)
    for root in (reference.vertex_count - 1, 12):
        g = MedianGraph(
            reference.vertex_count,
            list(zip(reference.eu, reference.ev)),
            root=root,
        )
        dist = all_distances(g)
        # distance oracle
        assert np.array_equal(g.separating_counts(range(g.vertex_count)), dist)
        # unit identity
        vecs = vectors(g.embedding_matrix(UNIT, range(g.vertex_count)))
        for u, v in itertools.combinations(range(g.vertex_count), 2):
            assert vec_distance(vecs[u], vecs[v]) ** 2 == pytest.approx(
                dist[u][v], rel=1e-9)
        # key property
        assert key_property(g).index_deltas.max() <= 1
