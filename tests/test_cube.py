import ast
import dataclasses
import inspect
import itertools
import re
import textwrap
import traceback
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medembed.cube import (
    CubeSpec,
    MedianGraph,
    _Across,
    _link_check,
    _square_opposites,
    gen_cube,
    key_property,
    median_from_tree,
    tree_product_graph,
)
from medembed.errors import (
    BudgetExceededError,
    CubeSpanError,
    MedEmbedError,
    NonTerminationError,
    SideComputationError,
)
from medembed.sparse import Graph, vec_distance, vectors
from medembed.tree import RootedTree, TreeSpec, gen_tree
from medembed.weights import WeightFunction
import oracles
from oracles import (
    MedianVerdict,
    adj,
    dimension_by_cliques,
    distance_condition_sides,
    normal_cube_path,
    separators,
    square_closure_classes,
    validate_median,
)

UNIT = WeightFunction.unit()
PAPER = WeightFunction.paper(18)


def all_distances(g):
    """All-pairs BFS distances, fetched max(1, 2**18 // n) sources at a
    time: one BFS from all n sources touches its n x n block at random and
    is slower."""
    n = g.vertex_count
    step = max(1, 2**18 // n)
    return np.concatenate([g.distances_from(range(lo, min(lo + step, n)))
                           for lo in range(0, n, step)]).astype(np.int64)


def triangle():
    return MedianGraph(3, [(0, 1), (1, 2), (0, 2)])


def four_cycle():
    return MedianGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def six_cycle():
    return MedianGraph(6, [(i, (i + 1) % 6) for i in range(6)])


def three_cube():
    return gen_cube(CubeSpec.grid(1, 1, 1))


def _petersen():
    return MedianGraph(10, [(i, (i + 1) % 5) for i in range(5)]
                       + [(i, i + 5) for i in range(5)]
                       + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def packed_sides(g):
    """Far-side rows packed as ``distance_condition_sides`` packs them,
    from ``separators``: row v holds the classes separating v from the base."""
    return np.packbits(separators(g).toarray().astype(bool), axis=1)


def far_sides(g):
    """Bool matrix, row c True on the far side of hyperplane c."""
    k = g.forest().key_count
    return np.unpackbits(packed_sides(g), axis=1, count=k).T.view(bool)


# -- construction and generators -----------------------------------------------


def test_grid_2x3_counts():
    g = gen_cube(CubeSpec.grid(2, 3))
    assert g.vertex_count == 12
    assert g.edge_count == 17


def test_grid_hyperplane_count():
    g = gen_cube(CubeSpec.grid(2, 3))
    assert g.forest().key_count == 5
    g2 = gen_cube(CubeSpec.grid(4, 6))
    assert g2.forest().key_count == 10


def test_from_tree_keeps_metric():
    t = gen_tree(TreeSpec.path(5))
    g = median_from_tree(t)
    assert g.vertex_count == t.vertex_count
    dist_t = t.distances_from(range(t.vertex_count))
    dist_g = g.distances_from(range(g.vertex_count))
    assert np.array_equal(dist_t, dist_g)
    assert g.forest().key_count == 5  # singleton classes on a path
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
    # ids so large that low * n + high overflows int64 take the sort by both
    # ends; the first repeat is still the one reported
    big = 4 * 10**9
    for edges, message in (
            ([(big - 1, big - 2), (big - 3, 1), (big - 2, big - 1), (1, big - 3)],
             rf"^duplicate edge \({big - 2}, {big - 1}\)$"),
            ([(big - 1, 0), (0, big - 1), (2, 3)], rf"^duplicate edge \(0, {big - 1}\)$"),
            ([(big - 1, big - 2), (big - 2, 0)], "^graph is not connected$")):
        with pytest.raises(ValueError, match=message):
            MedianGraph(big, edges)
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
    yield _petersen()
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


def _same_partition(a, b):
    a, b = a.tolist(), b.tolist()
    return len(set(zip(a, b))) == len(set(a)) == len(set(b))


def _sweep_against_oracles(g, median=None):
    """The level sweep of ``forest()`` against exhaustive validate_median
    (``median``, computed when None) and the distance-condition and
    square-closure classes. The sweep accepts exactly the median graphs,
    so it rejects whatever the distance condition rejects; on a median
    graph all three agree (far rows, read off ``separators``, and class
    ids byte for byte). Returns (median, sweep ok, oracle ok)."""
    if median is None:
        n = g.vertex_count
        median = validate_median(g, triple_budget=max(1, n * (n - 1) * (n - 2) // 6)).valid
    try:
        g.forest()
    except MedEmbedError:
        fast = None
    else:
        fast = packed_sides(g), g.hyp_of_edge
    try:
        slow = distance_condition_sides(g)
    except SideComputationError:
        slow = None
    assert (fast is not None) == median
    assert fast is None or slow is not None
    if median:
        assert all(np.array_equal(a, b) and a.dtype == b.dtype
                   for a, b in zip(fast, slow))
        assert _same_partition(g.hyp_of_edge, square_closure_classes(g))
    return median, fast is not None, slow is not None


def _forest_against_walks(g):
    """On a median graph the forest and the walks of normal_cube_path
    agree on every step."""
    forest = g.forest()
    for step in (s for v in range(g.vertex_count) for s in normal_cube_path(g, v).steps):
        lo, hi = forest.step_ptr[step.entry], forest.step_ptr[step.entry + 1]
        assert forest.step_keys[lo:hi].tolist() == sorted(step.crossed)
        assert forest.exit[step.entry] == step.exit


def _rerooted(g, root):
    return MedianGraph(g.vertex_count, np.column_stack([g.eu, g.ev]),
                       root=root % g.vertex_count)


def _grown_q5(start, picks):
    """Connected induced subgraph of the 5-cube grown from ``start`` by
    adding, for each pick, a vertex of the current frontier."""
    keep = [start]
    for pick in picks:
        frontier = sorted({u ^ 1 << b for u in keep for b in range(5)} - set(keep))
        if not frontier:
            break
        keep.append(frontier[pick % len(frontier)])
    ids = {v: i for i, v in enumerate(keep)}
    return MedianGraph(len(keep), [(ids[u], ids[u ^ 1 << b]) for u in keep for b in range(5)
                                   if u < u ^ 1 << b and u ^ 1 << b in ids])


_small_trees = st.lists(st.integers(min_value=0, max_value=10**6), max_size=9).map(
    lambda raw: RootedTree([0] + [r % (i + 1) for i, r in enumerate(raw)]))

generated_medians = st.tuples(st.one_of(
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3).map(
        lambda dims: gen_cube(CubeSpec.grid(*dims))),
    st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5).map(
        lambda hs: gen_cube(CubeSpec.staircase_heights(sorted(hs, reverse=True)))),
    st.tuples(_small_trees, _small_trees).map(lambda ts: tree_product_graph(*ts)),
    _small_trees.map(median_from_tree),
), st.integers(min_value=0, max_value=10**6)).map(lambda gr: _rerooted(*gr))


@given(generated_medians)
@settings(max_examples=60, deadline=None)
def test_sweep_matches_oracles_on_generated_spaces(g):
    # grids, staircases, tree products and trees are median by construction
    assert _sweep_against_oracles(g, median=True) == (True, True, True)


@given(st.integers(min_value=0, max_value=31),
       st.lists(st.integers(min_value=0, max_value=10**6), max_size=31))
@settings(max_examples=150, deadline=None)
def test_sweep_matches_oracles_on_q5_subgraphs(start, picks):
    g = _grown_q5(start, picks)
    if _sweep_against_oracles(g)[0]:
        _forest_against_walks(g)


def _near_median(g, x, picks, root):
    """``g`` with one more vertex, joined to 2 to 4 neighbours of vertex x
    (taken from its sorted neighbours by ``picks``), based at ``root``."""
    n = g.vertex_count
    nbrs = sorted(v for v, _ in adj(g)[x % n])
    joined = [nbrs.pop(p % len(nbrs)) for p in picks[:len(nbrs)]]
    edges = np.concatenate([np.column_stack([g.eu, g.ev]), [[n, v] for v in joined]])
    return MedianGraph(n + 1, edges, root=root % (n + 1))


near_medians = st.tuples(
    st.sampled_from([CubeSpec.grid(5, 5), CubeSpec.grid(3, 3, 3), CubeSpec.staircase(6),
                     CubeSpec.tree_product(TreeSpec.spider(3, 2), TreeSpec.spider(2, 3))]),
    st.integers(min_value=0, max_value=10**6),
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=2, max_size=4),
    st.integers(min_value=0, max_value=10**6),
).map(lambda a: _near_median(gen_cube(a[0]), *a[1:]))


@given(near_medians)
@settings(max_examples=150, deadline=None)
def test_sweep_matches_oracles_on_near_medians(g):
    # a vertex added beside a vertex of a median graph closes squares that
    # are not opposite in one class, which the cube walk rejects; few of
    # these graphs are median
    _sweep_against_oracles(g)


def test_sweep_matches_oracles_on_median_check_graphs():
    seen = set()
    for g in _median_check_graphs():
        # exhaustive up to 100 vertices; above, the sampled check (which the
        # defect grids on 961 and 3721 vertices fail)
        median = None if g.vertex_count <= 100 else validate_median(g).valid
        verdicts = _sweep_against_oracles(g, median)
        seen.add(verdicts)
        if g.vertex_count <= 32 and verdicts[0]:
            _forest_against_walks(g)
    # medians, non-medians both routes reject, and partial cubes (C6 and
    # some subgraphs of Q5) that only the sweep rejects
    assert {(True, True, True), (False, False, False), (False, False, True)} <= seen


def _k2m_with_tail(m, tail):
    """K_{2,m} on the sides 0, 1 and 2..m+1, with a path of ``tail``
    edges hung at vertex 0."""
    n = m + 2 + tail
    edges = [(a, b) for a in (0, 1) for b in range(2, m + 2)]
    return MedianGraph(n, edges + [(v - 1 if v > m + 2 else 0, v)
                                   for v in range(m + 2, n)])


@pytest.mark.parametrize("m, tail", [(3, 3), (3, 6), (4, 10)])
def test_sweep_rejects_tailed_k2m_by_the_cube_walk(m, tail):
    # with n >= 2**m vertices the corner count cannot reject the m legs of
    # a vertex first: at every root, _Across or the cube walk does
    g = _k2m_with_tail(m, tail)
    assert g.vertex_count >= 2 ** m
    for root in range(g.vertex_count):
        h = _rerooted(g, root)
        assert _sweep_against_oracles(h)[:2] == (False, False)
        with pytest.raises(CubeSpanError) as info:
            h.forest()
        assert traceback.extract_tb(info.tb)[-1].name in ("__init__", "corners")


def test_three_cube_hyperplanes():
    g = three_cube()
    assert len(far_sides(g)) == 3
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
    medians = [gen_cube(CubeSpec.grid(3, 2)), gen_cube(CubeSpec.staircase(5)),
               three_cube(), MedianGraph(1, []),
               gen_cube(CubeSpec.grid(2, 500))]  # long chains of square links
    # the level sweep on median graphs; the distance-condition oracle on
    # those and on C6, a partial cube the sweep rejects
    routes = [(g, lambda g: (packed_sides(g), g.hyp_of_edge)) for g in medians]
    routes += [(g, distance_condition_sides) for g in medians + [six_cycle()]]
    for g, route in routes:
        n = g.vertex_count
        packed, hoe = route(g)
        k = len(np.unique(hoe))
        assert packed.dtype == np.uint8 and packed.shape == (n, (k + 7) // 8)
        # the far side is the halfspace of the class's first edge whose end
        # is the farther one from the base vertex; one BFS for all classes
        first = np.unique(hoe, return_index=True)[1]
        a, b = g.eu[first], g.ev[first]
        swap = g.dist_root[a] < g.dist_root[b]
        a, b = np.where(swap, b, a), np.where(swap, a, b)
        rows = g.distances_from(np.stack([a, b], axis=1).ravel()).reshape(k, 2, n)
        far = rows[:, 0] < rows[:, 1]
        assert np.array_equal(np.packbits(far.T, axis=1), packed)
        # a vertex lies on the far side of exactly d(base, v) classes
        assert np.array_equal(np.bitwise_count(packed).sum(axis=1), g.dist_root)
    for g in medians:
        k = g.forest().key_count
        assert np.array_equal(separators(g).toarray(), np.unpackbits(
            distance_condition_sides(g)[0], axis=1, count=k))


def test_median_hot_path_runs_one_bfs(monkeypatch):
    # forest() reads dist_root, the constructor's numpy BFS; construction,
    # the forest and the embedding never call distances_from, the oracles'
    # BFS from many sources
    calls = []
    bfs = MedianGraph.distances_from

    def counted(self, sources):
        calls.append(np.atleast_1d(sources).tolist())
        return bfs(self, sources)

    monkeypatch.setattr(MedianGraph, "distances_from", counted)
    for spec in (CubeSpec.grid(30, 30), CubeSpec.staircase(12),
                 CubeSpec.tree_product(TreeSpec.spider(3, 4), TreeSpec.path(6))):
        calls.clear()
        g = gen_cube(spec)
        g.forest()
        g.embedding_matrix(PAPER, range(g.vertex_count))
        assert calls == [], spec.label()


def test_triangle_hyperplanes_error():
    five_cycle = MedianGraph(5, [(i, (i + 1) % 5) for i in range(5)])
    k4 = MedianGraph(4, list(itertools.combinations(range(4), 2)))
    for g in (triangle(), five_cycle, k4, _petersen()):
        with pytest.raises(SideComputationError, match="between equal levels"):
            g.forest()
    # C6: the bottom vertex's two down-neighbours have no common lower neighbour
    with pytest.raises(SideComputationError, match="0 common lower neighbours"):
        six_cycle().forest()
    # K_{2,3} passes the common-neighbour check (any two of 2, 3, 4 meet at
    # 0 below vertex 1); its three legs at vertex 1 would need 8 corners
    k23 = MedianGraph(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
    with pytest.raises(CubeSpanError, match=re.escape(
            "downward edges at vertex 1 do not span a cube")):
        k23.forest()


def _cube_subgraph(labels, dim):
    """Subgraph of the dim-cube induced by the vertex labels, numbered in
    the order given; the first is the base vertex."""
    ids = {v: i for i, v in enumerate(labels)}
    return MedianGraph(len(labels), [(ids[u], ids[u ^ 1 << b]) for u in labels
                                     for b in range(dim) if u < u ^ 1 << b and u ^ 1 << b in ids])


def test_sweep_rejects_squares_outside_cubes():
    # Q3 without 7: the squares at 0 on its three up-edges lie in no cube
    # (the triangle listing); a partial cube the distance condition accepts
    no_top = _cube_subgraph([0, 1, 2, 3, 4, 5, 6], 3)
    # Q3 without 3: at 4 (id 3), the down-edge to 0 and the up-edges to 5
    # and 6 pairwise span squares; 5 and 6 go down across bit 2, their top 7 does not
    no_side = _cube_subgraph([0, 1, 2, 4, 5, 6, 7], 3)
    # An induced subgraph of Q5 that passes every other check of the sweep
    # and is not a partial cube: vertex 6 (label 19) fails as 4 does above
    q5 = _cube_subgraph([3, 11, 7, 23, 22, 2, 19, 31, 10, 6, 18, 29, 25, 17, 5,
                         24, 28, 27, 4, 26, 16, 14], 5)
    with pytest.raises(SideComputationError, match="not a partial cube"):
        distance_condition_sides(q5)
    for g, w in ((no_top, 0), (no_side, 3), (q5, 6)):
        assert not validate_median(g).valid
        with pytest.raises(CubeSpanError, match=f"^three squares at vertex {w} lie in no cube$"):
            g.forest()
        with pytest.raises(CubeSpanError):
            g.embedding_matrix(UNIT, [1])


def _small_graphs():
    """Every graph on 2 to 5 vertices, then a seeded sample on 6 to 8."""
    for n in range(2, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield n, [p for i, p in enumerate(pairs) if mask >> i & 1]
    rng = np.random.default_rng(3)
    for _ in range(2000):
        n = int(rng.integers(6, 9))
        pairs = list(itertools.combinations(range(n), 2))
        keep = rng.random(len(pairs)) < rng.uniform(0.2, 0.6)
        yield n, [p for p, k in zip(pairs, keep) if k]


def test_sweep_accepts_exactly_the_median_graphs():
    # the local characterization forest() relies on, against
    # exhaustive validate_median on every connected graph it is given
    verdicts = []
    for n, edges in _small_graphs():
        try:
            g = MedianGraph(n, edges)
        except ValueError:  # not connected
            continue
        try:
            g.forest()
        except MedEmbedError:
            accepted = False
        else:
            accepted = True
        assert accepted == validate_median(g).valid, (n, edges)
        verdicts.append(accepted)
    assert 0 < sum(verdicts) < len(verdicts)


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
    sep = separators(g).toarray()
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


def test_partition_check_sees_a_doctored_forest():
    g = gen_cube(CubeSpec.grid(3, 3))
    forest = g.forest()
    assert key_property(g).partition_ok
    # swap the steps of (1, 1) and (3, 3), which cross two classes each:
    # every path still crosses d(base, v) distinct keys, but the ends of an
    # edge at either vertex no longer differ in just its own class
    a, b = np.flatnonzero(np.diff(forest.step_ptr) == 2)[[0, -1]]
    keys = forest.step_keys.copy()
    at_a = slice(forest.step_ptr[a], forest.step_ptr[a + 1])
    at_b = slice(forest.step_ptr[b], forest.step_ptr[b + 1])
    keys[at_a], keys[at_b] = forest.step_keys[at_b], forest.step_keys[at_a]
    assert set(keys[at_a].tolist()).isdisjoint(forest.step_keys[at_a].tolist())
    g._forest = dataclasses.replace(forest, step_keys=keys)
    indptr, crossed, _ = g._forest.rows(np.arange(g.vertex_count), [])
    assert np.array_equal(np.diff(indptr), g.dist_root)
    assert all(len(set(crossed[i:j].tolist())) == j - i
               for i, j in zip(indptr[:-1], indptr[1:]))
    assert not key_property(g).partition_ok


def test_forest_memory_stays_linear_on_a_long_path():
    # K = n classes: a side row per vertex would hold n * K / 8 bytes
    # (50 MB here); the forest holds a few arrays of n or m entries
    g = gen_cube(CubeSpec.from_tree(TreeSpec.path(20_000)))
    tracemalloc.start()
    try:
        g.forest()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 << 20


def test_forest_build_holds_narrow_ids_on_a_grid():
    # grid 100x100 (10,201 vertices, 20,200 edges): the build holds its
    # vertex and edge ids in int16 and frees each working array once used,
    # so it traces at most 3 MiB, about 300 bytes per vertex
    g = gen_cube(CubeSpec.grid(100, 100))
    tracemalloc.start()
    try:
        forest = g.forest()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert forest.key_count == 200 and g.hyp_of_edge.dtype == np.int64
    assert peak <= 3 << 20


def test_key_property_memory_is_a_multiple_of_the_rows():
    # the rows of all vertices hold sum(length) entries; the per-edge
    # lookups go in pieces of LEVEL_ENTRIES keys, so the peak stays a fixed
    # multiple of the rows
    for spec in (CubeSpec.grid(60, 60), CubeSpec.from_tree(TreeSpec.path(600))):
        g = gen_cube(spec)
        entries = int(g.forest().length.sum())
        tracemalloc.start()
        try:
            keys = key_property(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert keys.partition_ok and keys.index_deltas.max() <= 1
        assert peak <= 80 * entries + (4 << 20), spec.label()


def test_key_property_memory_does_not_grow_with_depth():
    # from-tree path:2000 has 2,001,000 path entries (about 120 MiB as the
    # rows of all vertices); the edges go in chunks of about LEVEL_ENTRIES
    # keys, each with the rows of its own ends only
    from medembed.sparse import LEVEL_ENTRIES

    g = gen_cube(CubeSpec.from_tree(TreeSpec.path(2000)))
    g.forest()
    tracemalloc.start()
    try:
        keys = key_property(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert keys.partition_ok and keys.own_key_ok and keys.index_deltas.max() == 1
    assert peak <= 128 * LEVEL_ENTRIES


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
            nxt = [nbr for nbr, eid in adj(g)[at] if hoe[eid] == key]
            assert len(nxt) == 1
            at = nxt[0]
        assert at == step.exit


def test_cube_path_step_must_shorten_path(monkeypatch):
    g = gen_cube(CubeSpec.grid(2, 2))
    far = g.vertex_count - 1
    # a step that stays put never ends
    monkeypatch.setattr(oracles, "_step", lambda g, x, hoe: ((0,), x))
    with pytest.raises(NonTerminationError):
        normal_cube_path(g, far)


def test_forest_rejects_classes_that_do_not_span_cubes():
    def forest_with(g, hoe):
        return g._cube_forest(np.asarray(hoe), int(max(hoe)) + 1)

    square = [(0, 1), (0, 2), (1, 3), (2, 3)]
    cases = [
        # both down-edges at 3 in one class (and both edges at 0)
        (MedianGraph(4, square), [0, 0, 0, 0],
         "^two edges at vertex 0 cross the same hyperplane$"),
        # at 3, class(3, 1) = class(2, 0), but 1 is joined to 0 in class 0,
        # not in class(3, 2): the cube walk finds no neighbour of 1 across 2
        (MedianGraph(4, square), [0, 1, 1, 2],
         "^downward edges at vertex 3 do not span a cube$"),
        # (0, 1) and (1, 3) in one class
        (MedianGraph(4, square), [0, 1, 0, 1],
         "^two edges at vertex 1 cross the same hyperplane$"),
        # the distance-condition classes of C6: nothing crosses class 0 at 2
        (six_cycle(), distance_condition_sides(six_cycle())[1],
         "^downward edges at vertex 3 do not span a cube$"),
        # C6 again: 2 and 4 lead across the other leg to 1 and to 5
        (six_cycle(), [2, 1, 0, 1, 0, 3], "^cube at vertex 3 does not close up$"),
        # three legs at vertex 1 would need 8 corners
        (MedianGraph(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)]), [0, 1, 2, 1, 2, 0],
         "^downward edges at vertex 1 do not span a cube$"),
    ]
    for g, hoe, message in cases:
        with pytest.raises(CubeSpanError, match=message):
            forest_with(g, hoe)


def _raise_lines(fn):
    """Line numbers of the raise statements in the source of fn, in order."""
    lines, start = inspect.getsourcelines(fn)
    tree = ast.parse(textwrap.dedent("".join(lines)))
    return sorted(start + node.lineno - 1 for node in ast.walk(tree)
                  if isinstance(node, ast.Raise))


# the checks of forest(), and a graph that reaches each of their raises:
# (graph, check, index of the raise in it, error type, message)
FOREST_CHECKS = {"_down_edges": MedianGraph._down_edges,
                 "_square_opposites": _square_opposites,
                 "_cube_forest": MedianGraph._cube_forest,
                 "_Across": _Across, "_link_check": _link_check}
FOREST_RAISES = [
    (triangle, "_down_edges", 0, SideComputationError,
     "graph has an edge between equal levels; not bipartite"),
    (six_cycle, "_square_opposites", 0, SideComputationError,
     "down-neighbours 2 and 4 of vertex 3 have 0 common lower neighbours; "
     "not a median graph"),
    # K_{2,3}: three legs at vertex 1 would need 8 corners
    (lambda: _k2m_with_tail(3, 0), "_cube_forest", 0, CubeSpanError,
     "downward edges at vertex 1 do not span a cube"),
    # K_{2,3} based at 2: the edges (3, 0) and (4, 0) both take the class
    # of (1, 2)
    (lambda: _rerooted(_k2m_with_tail(3, 0), 2), "_Across", 0, CubeSpanError,
     "two edges at vertex 0 cross the same hyperplane"),
    # K_{2,3} with a tail of 3 edges: 8 vertices, so 8 corners may fit,
    # but the cube walk misses one
    (lambda: _k2m_with_tail(3, 3), "_Across", 1, CubeSpanError,
     "downward edges at vertex 1 do not span a cube"),
    # from the near-median corpus: a vertex beside vertex 5 of the 3x3x3 grid
    (lambda: _near_median(gen_cube(CubeSpec.grid(3, 3, 3)), 5, [1, 3], 25), "_Across", 2,
     CubeSpanError, "cube at vertex 0 does not close up"),
    # Q3 without 3 and without 7, as in test_sweep_rejects_squares_outside_cubes
    (lambda: _cube_subgraph([0, 1, 2, 4, 5, 6, 7], 3), "_link_check", 0, CubeSpanError,
     "three squares at vertex 3 lie in no cube"),
    (lambda: _cube_subgraph([0, 1, 2, 3, 4, 5, 6], 3), "_link_check", 1, CubeSpanError,
     "three squares at vertex 0 lie in no cube"),
]


@pytest.mark.parametrize("graph, check, index, error, message", FOREST_RAISES,
                         ids=[f"{row[1]}-{row[2]}" for row in FOREST_RAISES])
def test_forest_reaches_each_raise(graph, check, index, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        graph().forest()
    assert traceback.extract_tb(info.tb)[-1].lineno == _raise_lines(FOREST_CHECKS[check])[index]


def test_forest_raises_are_all_in_the_table():
    assert sorted((check, index) for _, check, index, _, _ in FOREST_RAISES) == sorted(
        (check, index) for check, fn in FOREST_CHECKS.items()
        for index in range(len(_raise_lines(fn))))


def test_six_cycle_has_no_spanning_cube():
    g = six_cycle()
    far, hoe = distance_condition_sides(g)  # opposite-edge classes are fine
    assert far.shape == (6, 1) and hoe.tolist() == [0, 1, 2, 0, 1, 2]
    assert np.unpackbits(far, axis=1, count=3).tolist() == [
        [0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 1, 1], [0, 1, 1], [0, 0, 1]]
    with pytest.raises(SideComputationError):
        g.forest()
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
    from oracles import sq_partial_sums, sq_row_norms

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
