import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medembed.cube import CubeSpec, MedianGraph, gen_cube
from medembed.errors import NonTerminationError
from medembed.metrics import ProductSpace
from medembed import sparse
from medembed.keysets import degree_groups, proves_distances
from medembed.sparse import (
    SparseVector,
    adjacency,
    bfs_distances,
    vec_distance,
    vectors,
)
from medembed.tree import RootedTree, TreeSpec, gen_tree
from medembed.weights import WeightFunction

XI_18 = 2.35118282830013

# coefficient magnitudes bounded away from zero so that squared
# differences cannot underflow to exactly zero
coeffs = st.dictionaries(
    st.integers(min_value=0, max_value=50),
    st.one_of(
        st.just(0.0),
        st.floats(min_value=0.01, max_value=100),
        st.floats(min_value=-100, max_value=-0.01),
    ),
    max_size=12,
)


def test_zero_coefficients_dropped():
    v = SparseVector({1: 0.0, 2: 3.0, 3: -0.0})
    assert v.coords == {2: 3.0}
    assert v.support_size == 1


def test_identity_distance():
    v = SparseVector({4: 1.5, 9: -2.0})
    assert vec_distance(v, v) == 0.0


def test_orthogonal_3_4_5():
    a = SparseVector({1: 3.0})
    b = SparseVector({2: 4.0})
    assert vec_distance(a, b) == 5.0


def test_single_coordinate_norm():
    v = SparseVector({7: XI_18})
    assert vec_distance(v, SparseVector()) == XI_18
    assert v.norm() == XI_18


def test_dot_and_norm():
    a = SparseVector({1: 2.0, 2: 1.0})
    b = SparseVector({2: 3.0, 5: 4.0})
    assert a.dot(b) == 3.0
    assert a.norm() == math.sqrt(5.0)


def test_as_arrays_sorted():
    keys, vals = SparseVector({9: 1.0, 2: 2.0, 5: 3.0}).as_arrays()
    assert list(keys) == [2, 5, 9]
    assert list(vals) == [2.0, 3.0, 1.0]


@given(coeffs, coeffs)
@settings(max_examples=150)
def test_distance_symmetric(ca, cb):
    a, b = SparseVector(ca), SparseVector(cb)
    assert vec_distance(a, b) == vec_distance(b, a)


@given(coeffs, coeffs)
@settings(max_examples=150)
def test_distance_zero_iff_equal(ca, cb):
    a, b = SparseVector(ca), SparseVector(cb)
    if a == b:
        assert vec_distance(a, b) == 0.0
    else:
        assert vec_distance(a, b) > 0.0


@given(coeffs, coeffs, coeffs)
@settings(max_examples=200)
def test_triangle_inequality(ca, cb, cc):
    a, b, c = SparseVector(ca), SparseVector(cb), SparseVector(cc)
    assert vec_distance(a, c) <= vec_distance(a, b) + vec_distance(b, c) + 1e-9


def test_doctored_forest_raises_non_termination():
    forest = gen_tree(TreeSpec.path(4)).forest()
    longer = forest.length.copy()
    longer[2] += 1  # the step out of 3 now shortens the path by two keys
    with pytest.raises(NonTerminationError):
        dataclasses.replace(forest, length=longer)
    loop = forest.exit.copy()
    loop[3] = 4  # 3 -> 4 -> 3 never reaches the root
    with pytest.raises(NonTerminationError):
        dataclasses.replace(forest, exit=loop)


def test_vectors_are_the_matrix_rows():
    # one call over all rows gives each vertex the row it gets on its own
    w = WeightFunction.paper(18)
    spaces = [
        gen_tree(TreeSpec.spider(3, 25)),
        gen_cube(CubeSpec.staircase(6)),
        ProductSpace([gen_tree(TreeSpec.path(20)), gen_cube(CubeSpec.grid(3, 2))]),
    ]
    for space in spaces:
        n = space.vertex_count
        mat = space.embedding_matrix(w, range(n))
        vecs = vectors(mat)
        assert len(vecs) == n
        for v in range(n):
            for row in (mat[v], space.embedding_matrix(w, [v])):
                assert vecs[v].coords == dict(zip(row.indices.tolist(),
                                                  row.data.tolist()))


def _walked_row(forest, v, table, offset=0):
    # v's path walked one exit at a time: key -> table[step], zeros dropped
    coords, step = {}, 0
    while v != forest.root:
        step += 1
        for k in forest.step_keys[forest.step_ptr[v]:forest.step_ptr[v + 1]]:
            if table[step] != 0.0:
                coords[int(k) + offset] = float(table[step])
        v = int(forest.exit[v])
    return coords


def test_embedding_matrices_match_a_walk_per_weight():
    # one lockstep walk for several weights gives each weight its own
    # canonical matrix: the keys of each row sorted, zeros dropped
    weights = (WeightFunction.unit(), WeightFunction.paper(18),
               WeightFunction.power(0.3))
    product = ProductSpace([gen_tree(TreeSpec.path(20)), gen_cube(CubeSpec.grid(3, 2))])
    for space in (gen_tree(TreeSpec.spider(3, 25)), gen_cube(CubeSpec.staircase(6)),
                  product):
        n = space.vertex_count
        rows = [n - 1, 0, n // 2, n // 2, 3]
        factors = getattr(space, "factors", [space])
        for w, mat in zip(weights, space.embedding_matrices(weights, rows)):
            assert mat.has_sorted_indices and (mat.data != 0.0).all()
            for r, v in enumerate(rows):
                want = {}
                coords = [int(c) for c in
                          np.unravel_index(v, [f.vertex_count for f in factors])]
                offsets = product.offsets if space is product else [0]
                for f, c, off in zip(factors, coords, offsets):
                    forest = f.forest()
                    want.update(_walked_row(forest, c, forest.weight_table(w), off))
                row = mat[r]
                assert list(row.indices) == sorted(want)
                assert dict(zip(row.indices.tolist(), row.data.tolist())) == want


def test_rows_refuse_sort_keys_wider_than_63_bits():
    # (row, key, step) must fit one int64: 2 + 60 + 2 bits does not
    forest = gen_tree(TreeSpec.path(3)).forest()
    table = forest.weight_table(WeightFunction.unit())
    wide = dataclasses.replace(forest, key_count=2**60)
    with pytest.raises(ValueError, match="63-bit sort key"):
        wide.rows([0, 1, 2, 3], [table])
    # 1 + 60 + 2 bits fit, and give the rows of the true key count
    got, want = wide.rows([3, 2], [table]), forest.rows([3, 2], [table])
    assert all(np.array_equal(a, b) for a, b in zip(got[:2], want[:2]))
    assert np.array_equal(got[2][0], want[2][0])


class _Keyed(sparse.Graph):
    """A graph with the edges (eu[i], ev[i]), self-loops and repeats
    allowed, whose key sets are those of any given forest."""

    def __init__(self, n, eu, ev, forest):
        super().__init__(n, forest.root)
        self.eu, self.ev = np.asarray(eu, dtype=np.int64), np.asarray(ev, dtype=np.int64)
        self._forest = forest

    def forest(self):
        return self._forest


def _key_sets(forest):
    """P(v) of every vertex, walked one exit at a time."""
    sets = []
    for v in range(len(forest.exit)):
        keys = set()
        while v != forest.root:
            keys.update(forest.step_keys[forest.step_ptr[v]:forest.step_ptr[v + 1]].tolist())
            v = int(forest.exit[v])
        sets.append(keys)
    return sets


def _random_forest(n, rng, n_keys):
    """Exits toward vertex 0 and steps of one or two random keys, which
    may repeat along a path."""
    exit_ = np.array([0] + [int(rng.integers(0, v)) for v in range(1, n)])
    sizes = np.array([0] + rng.integers(1, min(2, n_keys) + 1, size=n - 1).tolist())
    step_ptr = np.concatenate([[0], np.cumsum(sizes)])
    keys = [np.sort(rng.choice(n_keys, size=int(c), replace=False)) for c in sizes]
    length = np.zeros(n, dtype=np.int64)
    for v in range(1, n):
        length[v] = length[exit_[v]] + sizes[v]
    return sparse.PathForest(0, exit_, step_ptr, np.concatenate(keys).astype(np.int64),
                             n_keys, length)


def _perturbed(forest, rng):
    """The forest with one step key replaced by a random key."""
    keys = forest.step_keys.copy()
    if len(keys):
        keys[rng.integers(len(keys))] = rng.integers(max(forest.key_count, 1))
    for v in range(len(forest.exit)):  # keep each step's keys ascending
        lo, hi = forest.step_ptr[v], forest.step_ptr[v + 1]
        keys[lo:hi] = np.sort(keys[lo:hi])
    return dataclasses.replace(forest, step_keys=keys)


def _median_graph(kind, a, b, seed):
    if kind == "grid":
        return gen_cube(CubeSpec.grid(a, b))
    if kind == "staircase":
        heights = np.random.default_rng(seed).integers(1, a + 1, size=b)
        return gen_cube(CubeSpec.staircase_heights(sorted(heights.tolist(), reverse=True)))
    if kind == "from-tree":
        return gen_cube(CubeSpec.from_tree(TreeSpec.binary_sample(a + 2, b, seed=seed)))
    if kind == "wide":  # a star, or a caterpillar: one degree group of wide rows
        return gen_tree(TreeSpec.spider(8 * a, 1) if seed % 2 else TreeSpec.caterpillar(a, 4 * b))
    rng = np.random.default_rng(seed)
    return gen_tree(TreeSpec.caterpillar(a, b % 3)) if rng.integers(2) else \
        ProductSpace([gen_tree(TreeSpec.path(a)), gen_cube(CubeSpec.grid(1, b % 3 + 1))])


def test_dimension_is_the_widest_forest_step():
    # a tree's steps cross one key, one vertex's none, and a product's the
    # keys of a step of every factor; on median graphs it is the most
    # down-edges at a vertex
    assert gen_tree(TreeSpec.binary_sample(9, 5, seed=2)).dimension == 1
    assert gen_tree(TreeSpec.spider(4, 3)).dimension == 1
    assert RootedTree([0]).dimension == 0
    assert MedianGraph(1, []).dimension == 0
    assert ProductSpace([RootedTree([0])]).dimension == 0
    factors = [gen_cube(CubeSpec.grid(2, 3)), gen_tree(TreeSpec.path(4)),
               gen_cube(CubeSpec.grid(1, 1, 1)), RootedTree([0])]
    assert ProductSpace(factors).dimension == 2 + 1 + 3 + 0
    for g in (gen_cube(CubeSpec.grid(3, 2, 2)), gen_cube(CubeSpec.staircase(5)),
              gen_cube(CubeSpec.tree_product(TreeSpec.spider(3, 2), TreeSpec.path(3)))):
        assert g.dimension == np.bincount(g._down_edges()[0], minlength=g.vertex_count).max()


def _proves(graph, block, t) -> bool:
    return proves_distances(degree_groups(graph), block, t)


@given(st.sampled_from(["grid", "staircase", "from-tree", "tree", "wide", "one"]),
       st.sampled_from(["partial cube", "perturbed", "random"]),
       st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=10**6), st.booleans(), st.booleans(),
       st.sampled_from([7, 1 << 16]))
@settings(max_examples=250, deadline=None)
def test_certificate_accepts_exactly_the_bfs_rows(kind, keys, a, b, seed, loop, repeat, entries):
    # a block of forest distances is proved exactly when it equals the BFS
    # rows, at any block size and in pieces of 7 entries or of the default;
    # the BFS rows with one entry moved by 1 or 2 never are. Graphs: median
    # graphs and trees with their own key sets, those key sets perturbed,
    # or random key sets on a random connected graph; each maybe with a
    # self-loop and a repeated edge
    rng = np.random.default_rng(seed)
    if kind == "one":
        base = gen_tree(TreeSpec.path(1))
        n, eu, ev, forest = 1, [], [], dataclasses.replace(
            base.forest(), exit=np.array([0]), step_ptr=np.array([0, 0]),
            length=np.array([0]), step_keys=np.zeros(0, dtype=np.int64))
    elif keys == "random":
        n = a * b + 1
        eu = list(range(1, n)) + rng.integers(0, n, size=n // 3).tolist()
        ev = [int(rng.integers(0, v)) for v in range(1, n)] + rng.integers(0, n, size=n // 3).tolist()
        keep = [i for i, (u, v) in enumerate(zip(eu, ev)) if u != v]
        eu, ev = [eu[i] for i in keep], [ev[i] for i in keep]
        forest = _random_forest(n, rng, int(rng.integers(1, n + 2)))
    else:
        space = _median_graph(kind, a, b, seed)
        n, eu, ev, forest = space.vertex_count, space.eu.tolist(), space.ev.tolist(), space.forest()
        if keys == "perturbed":
            forest = _perturbed(forest, rng)
    if loop:
        v = int(rng.integers(n))
        eu, ev = eu + [v], ev + [v]
    if repeat and len(eu):
        i = int(rng.integers(len(eu)))
        eu, ev = eu + [ev[i]], ev + [eu[i]]
    graph = _Keyed(n, eu, ev, forest)
    groups = degree_groups(graph)
    bfs = bfs_distances(adjacency(n, graph.eu, graph.ev), np.arange(n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sparse, "LEVEL_ENTRIES", entries)
        for size in (1, 3, 64, n + 1):
            for lo in range(0, n, size):
                block = np.arange(lo, min(lo + size, n))
                t = forest.distances(block)
                assert proves_distances(groups, block, t) == bool((t == bfs[block]).all())
                d = np.asfortranarray(bfs[block])
                assert proves_distances(groups, block, d)
                d[rng.integers(len(block)), rng.integers(n)] += int(rng.choice([-2, -1, 1, 2]))
                assert not proves_distances(groups, block, d)


def test_certificate_on_one_vertex_and_disconnected_graphs():
    one = gen_tree(TreeSpec.path(1))
    one = _Keyed(1, [], [], dataclasses.replace(
        one.forest(), exit=np.array([0]), step_ptr=np.array([0, 0]),
        length=np.array([0]), step_keys=np.zeros(0, dtype=np.int64)))
    for graph in (one, _Keyed(1, [0], [0], one.forest())):
        assert _proves(graph, [0], np.zeros((1, 1), dtype=np.int32))
        assert not _proves(graph, [0], np.ones((1, 1), dtype=np.int32))
    # the path 0 - 1 - 2 - 3 crossing keys 1, 2 and 3, on two components
    # (edges 0 - 1 and 2 - 3), and with vertex 3 on no edge: no block of
    # distances is proved, the forest's or any other
    path = gen_tree(TreeSpec.path(3)).forest()
    everyone = np.arange(4)
    t = path.distances(everyone)
    assert _proves(_Keyed(4, [0, 1, 2], [1, 2, 3], path), everyone, t)
    for eu, ev in (([0, 2], [1, 3]), ([0, 1], [1, 2])):
        disconnected = _Keyed(4, eu, ev, path)
        for block in ([0], [3], everyone):
            assert not _proves(disconnected, block, t[block])
            assert not _proves(disconnected, block, np.minimum(t[block], 1))
    # an edge that skips a vertex: the forest's distances are not the
    # graph's, whose BFS rows are proved
    chord = _Keyed(4, [0, 1, 2, 0], [1, 2, 3, 2], path)
    assert not _proves(chord, everyone, t)
    assert _proves(chord, everyone, chord.distances_from(everyone))


@pytest.mark.parametrize("space", [gen_cube(CubeSpec.grid(9, 9)), gen_tree(TreeSpec.path(150)),
                                   gen_cube(CubeSpec.from_tree(TreeSpec.binary_sample(9, 12, 5)))],
                         ids=["grid", "path", "from-tree"])
def test_certificate_pieces_give_one_verdict(space, monkeypatch):
    # pieces of one row up to all of them; a doctored forest, where the
    # deepest vertex's step crosses a key of its exit's step again, fails
    # at every piece size, on the blocks of its deepest vertex's rows
    forest = space.forest()
    v = int(np.argmax(forest.length))
    keys = forest.step_keys.copy()
    keys[forest.step_ptr[v]] = keys[forest.step_ptr[forest.exit[v]]]
    lo, hi = forest.step_ptr[v], forest.step_ptr[v + 1]
    keys[lo:hi] = np.sort(keys[lo:hi])
    doctored = dataclasses.replace(forest, step_keys=keys)
    groups = degree_groups(space)
    n = space.vertex_count
    bfs = space.distances_from(np.arange(n))
    blocks = [np.arange(lo, min(lo + 16, n)) for lo in range(0, n, 16)]
    for entries in (1, 16, 16 * n, 1 << 16):
        monkeypatch.setattr(sparse, "LEVEL_ENTRIES", entries)
        for block in blocks:
            assert proves_distances(groups, block, forest.distances(block))
            t = doctored.distances(block)
            assert proves_distances(groups, block, t) == bool((t == bfs[block]).all())
        assert not all(proves_distances(groups, b, doctored.distances(b)) for b in blocks)
