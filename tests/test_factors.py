"""The stratified sampler's factor route: spaces found to be products of
rooted trees embed their drawn pairs from the factors' depth triples, with
the same draw as the pair kernel and the kernel's squared distances to
1e-9 relative (exactly at the unit weight); every other space, and the
uniform sampler, keep the kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medembed import factors, metrics
from medembed.cube import CubeSpec, MedianGraph, gen_cube
from medembed.metrics import PairSampler, ProductSpace
from medembed.sparse import PathForest
from medembed.tree import TreeSpec, gen_tree
from medembed.weights import WeightFunction

WEIGHTS = [WeightFunction.unit(), WeightFunction.paper(18), WeightFunction.power(0.3)]


def tree_spec(kind, a, b, seed):
    if kind == "path":
        return TreeSpec.path(a * b)
    if kind == "spider":
        return TreeSpec.spider(a, b)
    if kind == "binary-sample":
        return TreeSpec.binary_sample(a + 2, b, seed=seed)
    return TreeSpec.caterpillar(a, b - 1)


def permuted(graph, seed):
    """``graph`` with its vertex ids and its edge order shuffled, as a
    space file lists them: other ids and other class numbers."""
    rng = np.random.default_rng(seed)
    ids = rng.permutation(graph.vertex_count)
    edges = np.column_stack([ids[graph.eu], ids[graph.ev]])[rng.permutation(graph.edge_count)]
    return MedianGraph(graph.vertex_count, edges, root=int(ids[graph.root]))


trees = st.builds(tree_spec, st.sampled_from(["path", "spider", "binary-sample", "caterpillar"]),
                  st.integers(1, 6), st.integers(1, 6), st.integers(0, 10**6))
grids = st.lists(st.integers(1, 7), min_size=1, max_size=3).map(
    lambda dims: CubeSpec.grid(*dims))
product_spaces = st.one_of(
    trees.map(gen_tree),
    grids.map(gen_cube),
    st.builds(CubeSpec.tree_product, trees, trees).map(gen_cube),
    trees.map(CubeSpec.from_tree).map(gen_cube),
    st.lists(trees.map(gen_tree), min_size=2, max_size=3).map(ProductSpace),
    st.builds(permuted, grids.map(gen_cube), st.integers(0, 10**6)),
)


def kernel_pairs(space, w, sampler):
    """The stratified sampler with the factor route off: every pair's
    emb² from the pair kernel."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(factors, "tree_factors", lambda forest: None)
        return metrics._stratified_pairs(space, w, sampler)


@settings(max_examples=150, deadline=None)
@given(product_spaces, st.sampled_from(WEIGHTS), st.integers(1, 60), st.integers(0, 10**6))
def test_factor_route_matches_the_kernel(space, w, count, seed):
    sampler = PairSampler.stratified(count, seed)
    assert factors.tree_factors(space.forest()) is not None
    *drawn, emb_sq = metrics._stratified_pairs(space, w, sampler)
    *want, ref = kernel_pairs(space, w, sampler)
    for got, expected in zip(drawn, want):
        np.testing.assert_array_equal(got, expected)
    if w.kind == "unit":
        np.testing.assert_array_equal(emb_sq, ref)
    else:
        assert (np.abs(emb_sq - ref) <= 1e-9 * np.abs(ref)).all()


def test_factors_are_the_trees_of_the_product():
    # a tree is one factor; a grid's sides, a tree product's trees and a
    # product space's trees are its factors, each of 1 + |keys| vertices
    spider, path = gen_tree(TreeSpec.spider(3, 4)), gen_tree(TreeSpec.path(6))
    cases = [
        (spider, [13]),
        (gen_cube(CubeSpec.from_tree(TreeSpec.spider(3, 4))), [13]),
        (gen_cube(CubeSpec.grid(3, 4, 5)), [4, 5, 6]),
        (gen_cube(CubeSpec.tree_product(TreeSpec.spider(3, 4), TreeSpec.path(6))), [13, 7]),
        (ProductSpace([path, spider]), [7, 13]),
        (permuted(gen_cube(CubeSpec.grid(2, 5)), 3), [3, 6]),
    ]
    for space, sizes in cases:
        found = factors.tree_factors(space.forest())
        assert sorted(t.vertex_count for t in found.trees) == sorted(sizes)
        code = np.ravel_multi_index(found.coords, [t.vertex_count for t in found.trees])
        assert sorted(code.tolist()) == list(range(space.vertex_count))


def doctored_grid():
    """Grid 4x4 whose vertex (4, 0), which no vertex exits to, exits to
    (0, 3), not (3, 0): a forest whose paths still cross distinct keys,
    and whose lengths still add up, but which is no product."""
    grid = gen_cube(CubeSpec.grid(4, 4))
    f = grid.forest()
    exit = f.exit.copy()
    assert exit[20] == 15 and 20 not in exit[exit != 20]
    assert f.length[3] == f.length[20] - 1
    exit[20] = 3
    grid._forest = PathForest(f.root, exit, f.step_ptr, f.step_keys, f.key_count, f.length)
    return grid


@pytest.mark.parametrize("make, mode, kernel", [
    (lambda: gen_tree(TreeSpec.binary_sample(12, 5, seed=2)), "stratified", False),
    (lambda: gen_cube(CubeSpec.grid(6, 7)), "stratified", False),
    (lambda: gen_cube(CubeSpec.grid(2, 3, 4)), "stratified", False),
    (lambda: gen_cube(CubeSpec.from_tree(TreeSpec.caterpillar(5, 2))), "stratified", False),
    (lambda: gen_cube(CubeSpec.tree_product(TreeSpec.spider(3, 4), TreeSpec.path(6))),
     "stratified", False),
    (lambda: ProductSpace([gen_tree(TreeSpec.path(5)), gen_tree(TreeSpec.spider(2, 3))]),
     "stratified", False),
    (lambda: permuted(gen_cube(CubeSpec.grid(5, 6)), 1), "stratified", False),
    (lambda: gen_cube(CubeSpec.staircase(7)), "stratified", True),
    (lambda: ProductSpace([gen_tree(TreeSpec.path(4)), gen_cube(CubeSpec.staircase(4))]),
     "stratified", True),
    (doctored_grid, "stratified", True),
    (lambda: gen_cube(CubeSpec.grid(6, 7)), "uniform", True),
    (lambda: gen_tree(TreeSpec.binary_sample(12, 5, seed=2)), "uniform", True),
], ids=["tree", "grid", "grid-3d", "from-tree", "tree-product", "product-space",
        "permuted-grid", "staircase", "tree-x-staircase", "doctored-exit",
        "uniform-grid", "uniform-tree"])
def test_route_pins(monkeypatch, make, mode, kernel):
    # products of trees take the factor route, with no pair kernel call;
    # a staircase, a product with one, a forest that fails the product
    # check and the uniform sampler call the kernel
    space = make()
    if mode == "stratified":
        assert (factors.tree_factors(space.forest()) is None) == kernel
    calls = []
    pair_kernel = metrics._pair_sq_distances

    def spy(*args):
        calls.append(len(args[2]))
        return pair_kernel(*args)

    monkeypatch.setattr(metrics, "_pair_sq_distances", spy)
    sampler = getattr(PairSampler, mode)(20, seed=4)
    metrics.profile(space, WeightFunction.paper(18), sampler)
    assert bool(calls) == kernel


def test_factor_rows_are_wide_enough_for_their_sum():
    # spider 2,16383 has depth 16383, so its distances fit int16, and so do
    # path 2's; their sum reaches 32768, which does not
    space = gen_cube(CubeSpec.tree_product(TreeSpec.spider(2, 16383), TreeSpec.path(2)))
    product = factors.tree_factors(space.forest())
    assert product is not None and len(product.trees) == 2
    far = int(np.argmax(space.forest().length))
    sources = np.array([0, far, space.vertex_count - 1])
    rows = factors.FactorPairs(product, WeightFunction.paper(18), sources)
    want = space.forest_distances(sources)
    assert want.max() >= 2**15
    for i in range(len(sources)):
        np.testing.assert_array_equal(rows.row(i), want[i])
