import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medembed.cube import CubeSpec, gen_cube
from medembed.errors import NonTerminationError
from medembed.metrics import ProductSpace
from medembed.sparse import SparseVector, vec_distance, vectors
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
