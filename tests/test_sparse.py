import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medembed.cube import CubeSpec, gen_cube
from medembed.errors import NonTerminationError
from medembed.metrics import ProductSpace
from medembed import sparse
from medembed.sparse import (
    SparseVector,
    adjacency,
    bfs_distances,
    is_graph_metric,
    vec_distance,
    vectors,
)
from medembed.tree import TreeSpec, gen_tree
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


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=3))
@settings(max_examples=150, deadline=None)
def test_certificate_accepts_exactly_the_bfs_rows(n, seed, n_sources, chunk):
    # a random connected graph (a random tree and a few more edges, odd
    # cycles too), BFS rows from random sources, some of them perturbed by
    # +-1 or +-2 at a random entry, taken ``chunk`` sources at a time
    rng = np.random.default_rng(seed)
    eu = list(range(1, n)) + rng.integers(0, n, size=n // 3).tolist()
    ev = [int(rng.integers(0, v)) for v in range(1, n)] + rng.integers(0, n, size=n // 3).tolist()
    keep = [i for i, (u, v) in enumerate(zip(eu, ev)) if u != v]
    adj = adjacency(n, np.array(eu)[keep], np.array(ev)[keep])
    sources = rng.integers(0, n, size=n_sources)
    true = bfs_distances(adj, sources)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sparse, "LEVEL_ENTRIES", chunk * len(adj[1]))
        assert is_graph_metric(adj, sources, true)
        for _ in range(8):
            f = true.copy()
            f[rng.integers(0, n_sources), rng.integers(0, n)] += rng.choice([-2, -1, 1, 2])
            assert is_graph_metric(adj, sources, f) == bool((f == true).all())
            for i in range(n_sources):  # single-source blocks
                assert is_graph_metric(adj, sources[i:i + 1], f[i:i + 1]) == bool(
                    (f[i] == true[i]).all())


def test_certificate_on_one_vertex_and_disconnected_graphs():
    one = adjacency(1, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    assert is_graph_metric(one, [0], np.zeros((1, 1), dtype=np.int32))
    assert is_graph_metric(one, [0, 0], np.zeros((2, 1), dtype=np.int32))
    assert not is_graph_metric(one, [0], np.ones((1, 1), dtype=np.int32))
    # two components: no row reaches the far one by unit steps down
    two = adjacency(4, np.array([0, 2]), np.array([1, 3]))
    for far in (np.array([[0, 1, 5, 6]]), np.array([[0, 1, 1, 2]]), np.array([[0, 1, 0, 1]])):
        assert not is_graph_metric(two, [0], far)
    path = adjacency(3, np.array([0, 1]), np.array([1, 2]))
    assert is_graph_metric(path, [1, 2], np.array([[1, 0, 1], [2, 1, 0]]))
    assert not is_graph_metric(path, [1, 2], np.array([[1, 0, 1], [2, 1, 1]]))
    assert not is_graph_metric(path, [1], np.array([[-1, 0, 1]]))
