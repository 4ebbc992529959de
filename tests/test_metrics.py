import itertools
import math
import tracemalloc
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medembed import factors, metrics
from medembed.cube import CubeSpec, MedianGraph, gen_cube, median_from_tree
from medembed.errors import BudgetExceededError
from medembed.metrics import (
    BoundCurve,
    CompressionProfile,
    PairSampler,
    ProductSpace,
    ProfileEntry,
    bourgain_consistency,
    check_profile_against,
    default_bound_curves,
    edge_dilatation_bound,
    l1_l2_compare,
    oracle_deviations,
    profile,
)
from medembed.sparse import vec_distance, vectors
from medembed.tree import RootedTree, TreeSpec, gen_tree
from medembed.weights import WeightFunction
import oracles
from oracles import (
    _exhaustive_entries,
    _sq_distance_blocks,
    deficit_constant,
    depth_triples,
    geodesic_edges,
    separators,
    sq_row_norms,
    triple_entries,
)

XI_18 = 2.35118282830013
XI_18_SQ = 5.52806069209341
INV_LNLN_18 = 0.942165074601011

UNIT = WeightFunction.unit()
PAPER = WeightFunction.paper(18)


# -- profiles --------------------------------------------------------------------


def test_unit_profile_is_sqrt_t():
    for spec in (TreeSpec.path(12), TreeSpec.spider(3, 5)):
        t = gen_tree(spec)
        prof = profile(t, UNIT, PairSampler.exhaustive())
        for e in prof.entries:
            assert e.rho_hat == pytest.approx(math.sqrt(e.t), rel=1e-9)
            assert e.delta_hat == pytest.approx(math.sqrt(e.t), rel=1e-9)


def test_single_edge_space():
    t = gen_tree(TreeSpec.path(1))
    prof = profile(t, UNIT, PairSampler.exhaustive())
    assert len(prof.entries) == 1
    e = prof.entries[0]
    assert e.t == 1 and e.pair_count == 1
    assert e.rho_hat == e.delta_hat == pytest.approx(1.0)


def test_profile_monotone_columns():
    t = gen_tree(TreeSpec.binary_sample(15, 6, seed=4))
    prof = profile(t, PAPER, PairSampler.exhaustive())
    rho = prof.rho()
    delta = prof.delta()
    assert np.all(np.diff(rho) >= 0)
    assert np.all(np.diff(delta) >= 0)
    both = prof.pair_counts() > 0
    assert np.all(rho[both] <= delta[both] + 1e-12)


def test_profile_requires_pairs():
    t = gen_tree(TreeSpec.path(1))

    class Tiny:
        vertex_count = 1

        def distances_from(self, s):
            return np.zeros((len(s), 1))

    with pytest.raises(ValueError):
        profile(Tiny(), UNIT, PairSampler.exhaustive())


def test_sampler_determinism():
    t = gen_tree(TreeSpec.spider(4, 8))
    for sampler in (PairSampler.uniform(50, seed=7),
                    PairSampler.stratified(5, seed=7)):
        p1 = profile(t, PAPER, sampler)
        p2 = profile(t, PAPER, sampler)
        assert p1.entries == p2.entries


def test_sampled_profile_is_inside_exhaustive():
    t = gen_tree(TreeSpec.spider(4, 8))
    exh = profile(t, UNIT, PairSampler.exhaustive())
    exh_rho = {e.t: e.rho_hat for e in exh.entries}
    exh_delta = {e.t: e.delta_hat for e in exh.entries}
    for sampler in (PairSampler.uniform(60, seed=3),
                    PairSampler.stratified(3, seed=11)):
        sub = profile(t, UNIT, sampler)
        for e in sub.entries:
            assert e.t in exh_rho
            assert e.rho_hat >= exh_rho[e.t] - 1e-12
            assert e.delta_hat <= exh_delta[e.t] + 1e-12


def test_exhaustive_matches_pairwise_bruteforce():
    # t is read off the unit-weight rows; the reference takes it from BFS
    t = gen_tree(TreeSpec.caterpillar(5, 2))
    g = gen_cube(CubeSpec.staircase(6))
    t1, t2 = gen_tree(TreeSpec.path(4)), gen_tree(TreeSpec.spider(2, 3))
    prod = ProductSpace([t1, t2])
    from itertools import combinations
    for space in (t, g, prod):
        vecs = vectors(space.embedding_matrix(PAPER, range(space.vertex_count)))
        prof = profile(space, PAPER, PairSampler.exhaustive())
        dist = space.distances_from(range(space.vertex_count)).astype(int)
        by_t = {}
        for u, v in combinations(range(space.vertex_count), 2):
            d = int(dist[u][v])
            by_t.setdefault(d, []).append(vec_distance(vecs[u], vecs[v]))
        assert prof.ts().tolist() == sorted(by_t)
        for e in prof.entries:
            suffix = [x for d, xs in by_t.items() if d >= e.t for x in xs]
            prefix = [x for d, xs in by_t.items() if d <= e.t for x in xs]
            assert e.rho_hat == pytest.approx(min(suffix), rel=1e-9, abs=1e-12)
            assert e.delta_hat == pytest.approx(max(prefix), rel=1e-9, abs=1e-12)
            assert e.pair_count == len(by_t[e.t])


def test_embedding_matrix_rejects_unknown_rows():
    path = gen_tree(TreeSpec.path(5))
    grid = gen_cube(CubeSpec.grid(2, 2))
    prod = ProductSpace([gen_tree(TreeSpec.path(2)), grid])  # 27 vertices
    for space, rows, bad in ((path, [-1], -1), (path, [0, 6, -1], 6), (grid, [9], 9),
                             (prod, [26, 27], 27), (prod, [3, -2], -2),
                             (grid, [2**70], 2**70)):
        with pytest.raises(ValueError, match=rf"^unknown vertex {bad}$"):
            space.embedding_matrix(UNIT, rows)
    for space in (path, grid, prod):
        last = space.vertex_count - 1
        assert space.embedding_matrix(UNIT, [0, last]).shape[0] == 2


def test_exhaustive_profile_runs_without_bfs(monkeypatch):
    # every sampler reads t off the unit rows
    spaces = [
        gen_tree(TreeSpec.spider(3, 6)),
        gen_cube(CubeSpec.staircase(5)),
        ProductSpace([gen_tree(TreeSpec.path(3)), gen_cube(CubeSpec.grid(2, 2))]),
    ]
    for space in spaces:
        space.embedding_matrix(UNIT, [0])  # hyperplanes and forests first

    def no_bfs(self, sources):
        raise AssertionError("profiles must not run BFS")

    for cls in (RootedTree, MedianGraph, ProductSpace):
        monkeypatch.setattr(cls, "distances_from", no_bfs)
    exh_ts = []
    for space in spaces:
        exh = profile(space, UNIT, PairSampler.exhaustive())
        uni = profile(space, UNIT, PairSampler.uniform(60, seed=2))
        strat = profile(space, UNIT, PairSampler.stratified(5, seed=2))
        exh_ts.append(exh.ts().tolist())
        assert set(uni.ts().tolist()) <= set(exh_ts[-1])
        assert set(strat.ts().tolist()) <= set(exh_ts[-1])
        for prof in (exh, uni, strat):
            for e in prof.entries:
                assert e.rho_hat == pytest.approx(math.sqrt(e.t), rel=1e-12)
    assert exh_ts[0] == list(range(1, 13))  # spider(3, 6)


def test_pair_sq_distances_match_bruteforce(monkeypatch):
    # the pair kernel of both samplers against fsum, with the uniform
    # sampler's source blocks and the kernel's chunks a few rows each; these
    # spaces are products of trees, so the factor route is pinned off
    # (test_factor_route_matches_bruteforce runs it on them)
    from medembed.metrics import _stratified_pairs, _uniform_pairs

    monkeypatch.setattr(factors, "tree_factors", lambda forest: None)
    monkeypatch.setattr(metrics, "CHUNK_ENTRIES", 60)
    monkeypatch.setattr(metrics, "CHUNK_ROWS", 1)
    monkeypatch.setattr(metrics, "DENSE_ENTRIES", 60)
    cases = [
        (gen_cube(CubeSpec.grid(8, 7)), UNIT),
        # paper weight on a spider: sources near the root embed to zero,
        # deep targets carry keys outside the sources' dense window
        (gen_tree(TreeSpec.spider(3, 25)), PAPER),
        (ProductSpace([gen_tree(TreeSpec.path(6)), gen_cube(CubeSpec.grid(2, 3))]),
         PAPER),
    ]
    for space, w in cases:
        vecs = vectors(space.embedding_matrix(w, range(space.vertex_count)))
        dist = space.distances_from(range(space.vertex_count)).astype(int)
        for us, vs, ts, emb_sq in (
            _stratified_pairs(space, w, PairSampler.stratified(7, seed=5)),
            _uniform_pairs(space, w, PairSampler.uniform(80, seed=6)),
        ):
            emb = np.sqrt(np.clip(emb_sq, 0.0, None))
            for u, v, t, e in zip(us, vs, ts, emb):
                assert t == dist[u][v]
                want = vec_distance(vecs[u], vecs[v])
                assert e == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_factor_route_matches_bruteforce(monkeypatch):
    # the stratified sampler's factor route against fsum, in blocks of 60
    # pairs: one tree, two factors of a grid with a path, three of a 3-grid
    from medembed.metrics import _stratified_pairs

    monkeypatch.setattr(metrics, "CHUNK_ENTRIES", 60)
    cases = [
        (gen_tree(TreeSpec.spider(3, 25)), PAPER, 1),
        (ProductSpace([gen_tree(TreeSpec.path(6)), gen_cube(CubeSpec.grid(2, 3))]),
         PAPER, 3),
        (gen_cube(CubeSpec.grid(3, 4, 5)), WeightFunction.power(0.3), 3),
    ]
    for space, w, width in cases:
        assert len(factors.tree_factors(space.forest()).trees) == width
        vecs = vectors(space.embedding_matrix(w, range(space.vertex_count)))
        us, vs, _, emb_sq = _stratified_pairs(space, w, PairSampler.stratified(7, seed=5))
        assert len(us) > 60
        for u, v, e in zip(us, vs, np.sqrt(np.clip(emb_sq, 0.0, None))):
            assert e == pytest.approx(vec_distance(vecs[u], vecs[v]), rel=1e-12, abs=1e-12)


def _two_pass_uniform_pairs(space, w, sampler):
    """The uniform sampler with t and emb² from two walks of the pair
    kernel, at the unit weight and at w: the reference for the one walk at
    both weights."""
    us, vs = metrics._draw_pairs(space.vertex_count, sampler)
    unit_sq, = metrics._uniform_sq_distances(space, [UNIT], us, vs)
    emb_sq, = metrics._uniform_sq_distances(space, [w], us, vs)
    return us, vs, np.rint(unit_sq).astype(np.int64), emb_sq


@pytest.mark.parametrize("small", [False, True], ids=["default", "small-chunks"])
def test_uniform_pairs_walk_their_rows_once(monkeypatch, small):
    # the one walk gives the two walks' pairs, t and emb² bit for bit, at
    # weights whose steps are all weighed or not; with the default chunks,
    # or with source blocks and chunks a few rows each
    if small:
        monkeypatch.setattr(metrics, "CHUNK_ENTRIES", 60)
        monkeypatch.setattr(metrics, "CHUNK_ROWS", 1)
        monkeypatch.setattr(metrics, "DENSE_ENTRIES", 60)
    spaces = [gen_cube(CubeSpec.grid(9, 8)), gen_cube(CubeSpec.staircase(8)),
              gen_tree(TreeSpec.binary_sample(30, 6, seed=3)),
              ProductSpace([gen_tree(TreeSpec.path(12)), gen_tree(TreeSpec.spider(3, 4))])]
    sampler = PairSampler.uniform(300, seed=1)
    for space in spaces:
        for w in (UNIT, PAPER, WeightFunction.power(0.3)):
            us, vs, ts, emb_sq = metrics._uniform_pairs(space, w, sampler)
            want = _two_pass_uniform_pairs(space, w, sampler)
            for got, ref in zip((us, vs, ts, emb_sq.view(np.int64)),
                                (*want[:3], want[3].view(np.int64))):
                np.testing.assert_array_equal(got, ref)


def test_in_order_sums_add_row_by_row():
    # numpy's reduction against the loop it replaced, bit for bit: blocks
    # of one column (which numpy would sum in pairs), Fortran-ordered
    # blocks (as [:, b] gathers give them) and an empty block
    from medembed.metrics import _in_order_sums

    rng = np.random.default_rng(4)
    for rows, cols in ((0, 3), (1, 1), (9, 1), (300, 1), (2, 7), (17, 2), (300, 65)):
        scale = 10.0 ** rng.integers(-9, 9, (rows, cols))
        block = rng.standard_normal((rows, cols)) * scale
        want = np.zeros(cols)
        for row in block:
            want += row
        for b in (block, np.asfortranarray(block)):
            np.testing.assert_array_equal(_in_order_sums(b).view(np.int64),
                                          want.view(np.int64))


def _bfs_candidates(space, sampler):
    # the stratified sampler's rng after it drew the sources, and its
    # candidates (source, vertex, t) in (source, vertex) order, t off a BFS
    # from every source
    n = space.vertex_count
    rng = np.random.default_rng(sampler.seed)
    n_sources = min(n, max(16, math.isqrt(4 * sampler.count)))
    sources = np.sort(rng.choice(n, size=n_sources, replace=False))
    rows = space.distances_from(sources).astype(np.int64)
    rank = np.full(n, n_sources)
    rank[sources] = np.arange(n_sources)
    i, cv = np.nonzero((rows > 0) & (rank[None, :] > np.arange(n_sources)[:, None]))
    return rng, sources[i], cv, rows[i, cv]


def _bfs_stratified_pairs(space, sampler):
    # the stratified sampler as it sorted every candidate by t
    rng, cu, cv, ct = _bfs_candidates(space, sampler)
    order = np.argsort(ct, kind="stable")
    picks = []
    for idx in np.split(order, np.flatnonzero(np.diff(ct[order])) + 1):
        if len(idx) > sampler.count:
            idx = rng.choice(idx, size=sampler.count, replace=False)
        picks.append(idx)
    sel = np.concatenate(picks)
    return cu[sel], cv[sel], ct[sel]


def test_stratified_pairs_match_the_bfs_sampler(monkeypatch):
    # the same pairs as the BFS sampler, and fsum's distances. Count n^2
    # takes every vertex as a source (S = n) and keeps every pair once,
    # through the mirrored source-source exclusion. On grid 40x40 under
    # paper:18, hundreds of sampled pairs of distinct vertices have the same
    # nonzero vector; their distance must be exactly 0. Chunks of 100 entries hold a few rows at
    # S = 16 and one row at S = n; grid 40x40 takes about 40 rows a chunk.
    from medembed.metrics import _stratified_pairs

    small = ((1, 3), (7, 5), (1000, 11), (None, 2))
    # from 16 sources of the spider: at seed 3 one bucket holds exactly 20
    # candidates (kept whole, no rng call) while larger ones are drawn from,
    # and 40 is at or above every bucket
    edges = ((20, 3), (40, 3))
    cases = [
        (gen_cube(CubeSpec.grid(8, 7)), UNIT, small),
        (gen_cube(CubeSpec.grid(5, 9)), PAPER, small),
        (gen_cube(CubeSpec.staircase(7)), PAPER, small),
        (gen_tree(TreeSpec.spider(3, 25)), PAPER, small + edges),
        (gen_tree(TreeSpec.binary_sample(20, 6, seed=3)), WeightFunction.power(0.3),
         small),
        (ProductSpace([gen_tree(TreeSpec.path(6)), gen_cube(CubeSpec.grid(2, 3))]),
         PAPER, small),
        (gen_cube(CubeSpec.grid(40, 40)), PAPER, ((7, 5), (1000, 11))),
    ]
    coinciding = 0
    for space, w, counts in cases:
        n = space.vertex_count
        monkeypatch.setattr(metrics, "CHUNK_ENTRIES", 100 if n < 200 else 4000)
        monkeypatch.setattr(metrics, "CHUNK_ROWS", 1)
        vecs = vectors(space.embedding_matrix(w, range(n)))
        for count, seed in counts:
            sampler = PairSampler.stratified(count or n * n, seed=seed)
            us, vs, ts, emb_sq = _stratified_pairs(space, w, sampler)
            want = _bfs_stratified_pairs(space, sampler)
            for got, ref in zip((us, vs, ts), want):
                np.testing.assert_array_equal(got, ref)
            if (count, seed) in edges:  # the inputs are what they claim
                sizes = np.bincount(_bfs_candidates(space, sampler)[3])
                if count == 20:
                    assert count in sizes and sizes.max() > count
                else:
                    assert metrics._stratified_need(space, count)[0] == 16 < n
                    assert sizes.max() <= count
            if count is None:
                codes = np.minimum(us, vs) * n + np.maximum(us, vs)
                assert len(np.unique(codes)) == len(codes) == n * (n - 1) // 2
            for u, v, e in zip(us, vs, np.sqrt(np.clip(emb_sq, 0.0, None))):
                exact = vec_distance(vecs[u], vecs[v])
                assert e == pytest.approx(exact, rel=1e-12, abs=1e-12)
                if exact == 0.0:
                    assert e == 0.0
                    coinciding += vecs[u].support_size > 0
    assert coinciding > 100


def test_stratified_pairs_of_zero_vectors_are_exactly_zero():
    # paper:18 gives steps 1..17 weight 0 and no path of grid 8x7 has more
    # than 15 steps, so every vertex embeds to the zero vector
    from medembed.metrics import _stratified_pairs

    grid = gen_cube(CubeSpec.grid(8, 7))
    for count in (1, 7, 1000):
        *_, emb_sq = _stratified_pairs(grid, PAPER, PairSampler.stratified(count, 5))
        assert len(emb_sq) and (emb_sq == 0.0).all()


def _scipy_stratified_pairs(space, w, sampler):
    # the stratified sampler as it read every candidate's t and emb^2 off
    # scipy's products of all vertex rows with the sources' rows held
    # dense, each norm summed in stored key order like the dots
    n = space.vertex_count
    rng = np.random.default_rng(sampler.seed)
    n_sources = min(n, max(16, math.isqrt(4 * sampler.count)))
    sources = np.sort(rng.choice(n, size=n_sources, replace=False))
    d2s = []
    for mat, src in zip(space.embedding_matrices((UNIT, w), range(n)),
                        space.embedding_matrices((UNIT, w), sources)):
        d2 = mat @ np.ascontiguousarray(src.T.toarray())
        d2 *= -2.0
        d2 += ((mat.power(2) @ np.ones(mat.shape[1]))[:, None]
               + (src.power(2) @ np.ones(src.shape[1]))[None, :])
        d2s.append(d2.T)
    ts, emb_sq = np.rint(d2s[0]).astype(np.int64), d2s[1]
    rank = np.full(n, n_sources)
    rank[sources] = np.arange(n_sources)
    flat = np.flatnonzero((ts > 0) & (rank[None, :] > np.arange(n_sources)[:, None]))
    ct = ts.ravel()[flat]
    order = np.argsort(ct, kind="stable")
    picks = []
    for idx in np.split(order, np.flatnonzero(np.diff(ct[order])) + 1):
        if len(idx) > sampler.count:
            idx = rng.choice(idx, size=sampler.count, replace=False)
        picks.append(idx)
    sel = np.concatenate(picks)
    cand = flat[sel]
    return sources[cand // n], cand % n, ct[sel], emb_sq.ravel()[cand]


def test_stratified_pairs_match_the_scipy_route(monkeypatch):
    # t from the forests and emb^2 only at the drawn pairs give the same
    # pairs and, bit for bit, the same squared distances as the products
    # over every candidate; chunks of 100 entries split the targets' rows
    # and the pairs' terms into many pieces. The pair kernel's sums are
    # under test, so the factor route, which adds in another order, is
    # pinned off (tests/test_factors.py compares it with the kernel)
    from medembed.metrics import _stratified_pairs

    monkeypatch.setattr(factors, "tree_factors", lambda forest: None)
    monkeypatch.setattr(metrics, "CHUNK_ENTRIES", 100)
    monkeypatch.setattr(metrics, "CHUNK_ROWS", 1)
    small = ((1, 3), (7, 5), (1000, 11), (None, 2))
    cases = [
        (gen_cube(CubeSpec.grid(8, 7)), UNIT),
        (gen_cube(CubeSpec.grid(5, 9)), PAPER),
        (gen_cube(CubeSpec.grid(3, 4, 3)), WeightFunction.power(0.3)),
        (gen_cube(CubeSpec.staircase(7)), PAPER),
        (gen_tree(TreeSpec.spider(3, 25)), PAPER),
        (gen_tree(TreeSpec.binary_sample(20, 6, seed=3)), WeightFunction.power(0.3)),
        (gen_cube(CubeSpec.from_tree(TreeSpec.binary_sample(12, 6, seed=5))), PAPER),
        (gen_cube(CubeSpec.tree_product(TreeSpec.spider(3, 4), TreeSpec.path(6))),
         PAPER),
        (ProductSpace([gen_tree(TreeSpec.path(6)), gen_cube(CubeSpec.grid(2, 3))]),
         PAPER),
    ]
    for space, w in cases:
        n = space.vertex_count
        for count, seed in small:
            sampler = PairSampler.stratified(count or n * n, seed=seed)
            got = _stratified_pairs(space, w, sampler)
            want = _scipy_stratified_pairs(space, w, sampler)
            for g, ref in zip(got[:3], want[:3]):
                np.testing.assert_array_equal(g, ref)
            np.testing.assert_array_equal(got[3].view(np.int64), want[3].view(np.int64))


def test_stratified_pairs_stay_within_their_plan(monkeypatch):
    # a stratified profile's traced peak is within the bytes its plan checks
    # against the budget, with few pairs drawn and with most: on grid 60x60
    # by the pair kernel (the factor route pinned off) and by the factor
    # route, and by the factor route on a tree product, on a tree and on grid
    # 100x100; on a RootedTree, and by the kernel on staircase 12 and on a
    # ProductSpace with a staircase factor. The profile folds one group of
    # sources at a time; _stratified_pairs holds the whole sample at once
    from medembed.metrics import _stratified_need

    grid = gen_cube(CubeSpec.grid(60, 60))
    product = gen_cube(CubeSpec.tree_product(TreeSpec.spider(3, 20),
                                             TreeSpec.binary_sample(40, 10, seed=3)))
    tree = gen_tree(TreeSpec.binary_sample(200, 32, seed=42))
    others = [gen_cube(CubeSpec.grid(100, 100)), gen_tree(TreeSpec.spider(4, 500)),
              gen_cube(CubeSpec.staircase(12)),
              ProductSpace([gen_cube(CubeSpec.staircase(8)), gen_tree(TreeSpec.path(5))])]
    cases = [(grid, True), (grid, False), (product, False), (tree, False)]
    for space, kernel in cases + [(space, None) for space in others]:
        with monkeypatch.context() as m:
            if kernel:
                m.setattr(factors, "tree_factors", lambda forest: None)
            if kernel is not None:
                assert (factors.tree_factors(space.forest()) is None) == kernel
            for count in (1000, 5000):
                _, planned = _stratified_need(space, count)
                peak = _traced_peak(
                    lambda: profile(space, PAPER, PairSampler.stratified(count, 11)))
                assert peak <= planned
    # many groups, with the picks over most of the peak: stratified:20000 on
    # grid 60x60 by the factor route draws 1,009,419 pairs from 282 sources
    # in 16 groups of 18, and each group's picks are selected among all
    assert metrics._group_size(grid.vertex_count, 282, metrics.GROUP_ENTRIES) == 18
    sampler = PairSampler.stratified(20000, 11)
    _, planned = _stratified_need(grid, sampler.count)
    peak = _traced_peak(lambda: profile(grid, PAPER, sampler))
    assert 1_009_419 * 8 < peak <= planned


def test_stratified_pairs_of_one_vertex_are_empty():
    # no distance is realized, so no group is drawn
    us, vs, ts, emb_sq = metrics._stratified_pairs(
        MedianGraph(1, []), PAPER, PairSampler.stratified(5, seed=1))
    assert len(us) == len(vs) == len(ts) == len(emb_sq) == 0


def test_factor_route_holds_no_more_than_the_kernel_did():
    # on the grid-stratified workload's grid at stratified:1000, the
    # sampler's traced peak stays within the 8,356,525 bytes it held when
    # every pair took the pair kernel
    from medembed.metrics import _stratified_pairs

    grid = gen_cube(CubeSpec.grid(100, 100))
    grid.forest()
    sampler = PairSampler.stratified(1000, 11)
    _stratified_pairs(grid, PAPER, sampler)
    assert _traced_peak(lambda: _stratified_pairs(grid, PAPER, sampler)) <= 8_356_525


def test_stratified_profile_holds_no_block_of_all_sources():
    # stratified:1000 on grid 100x100 draws 156,534 pairs from 63 sources:
    # the profile traces less than the 63 x 10,201 int32 block of all the
    # sources' rows (2.6 MB) and two int32 ends per pair, as it holds the
    # rows and the embedded pairs of one group of sources at a time
    grid = gen_cube(CubeSpec.grid(100, 100))
    grid.forest()
    sampler = PairSampler.stratified(1000, 11)
    n_sources, _ = metrics._stratified_need(grid, 1000)
    pairs = len(metrics._stratified_pairs(grid, PAPER, sampler)[0])
    assert (n_sources, pairs) == (63, 156534)
    peak = _traced_peak(lambda: profile(grid, PAPER, sampler))
    assert peak < n_sources * grid.vertex_count * 4 + pairs * 8


def test_stratified_draw_holds_under_8_bytes_per_candidate(monkeypatch):
    # with the factor route and the pair kernel patched out, the draw at
    # stratified:5 on grid 100x100 (16 sources x 10,201 vertices) holds the
    # int32 distance block and a few arrays per vertex, not a sort of all
    # candidates; a first draw loads numpy's random modules before the trace
    from medembed.metrics import _stratified_need, _stratified_pairs

    grid = gen_cube(CubeSpec.grid(100, 100))
    grid.forest()
    monkeypatch.setattr(factors, "tree_factors", lambda forest: None)
    monkeypatch.setattr(metrics, "_pair_sq_distances",
                        lambda space, weights, us, vs: [np.zeros(len(us))])
    sampler = PairSampler.stratified(5, 11)
    _stratified_pairs(grid, PAPER, sampler)
    n_sources, _ = _stratified_need(grid, 5)
    assert n_sources == 16
    peak = _traced_peak(lambda: _stratified_pairs(grid, PAPER, sampler))
    assert peak <= n_sources * grid.vertex_count * 8


def test_stratified_budget_admits_the_benchmark_spaces():
    # stratified:1000 on the benchmark's three spaces and criterion 07's
    # grid fits; taking all 90,601 vertices of grid 300x300 as sources
    # (their 4.1e9 picks are 33 GB alone) does not, and fails before any
    # source is drawn
    from medembed.errors import BudgetExceededError
    from medembed.metrics import _stratified_plan

    grid300 = gen_cube(CubeSpec.grid(300, 300))
    for space in (gen_cube(CubeSpec.grid(100, 100)),
                  gen_tree(TreeSpec.binary_sample(200, 32, seed=42)),
                  gen_cube(CubeSpec.grid(45, 45)), grid300):
        assert _stratified_plan(space, 1000) == 63
    with pytest.raises(BudgetExceededError, match=r"needs \d+ bytes for 90601 sources"):
        metrics._stratified_pairs(grid300, PAPER, PairSampler.stratified(10**10, seed=1))


def test_tree_triples_give_the_exact_pair_distances():
    # every pair of a spider deep enough for paper:18's nonzero steps:
    # the closed form at the pair's (a, b, s) against fsum
    from medembed.metrics import _triple_sq_distances
    from oracles import meeting_point

    t = gen_tree(TreeSpec.spider(3, 24))
    for w in (UNIT, PAPER, WeightFunction.power(0.3)):
        table = t.forest().weight_table(w)
        vecs = vectors(t.embedding_matrix(w, range(t.vertex_count)))
        for u, v in itertools.combinations(range(t.vertex_count), 2):
            s = int(t.depth[meeting_point(t, u, v)])
            a, b = sorted((int(t.depth[u]) - s, int(t.depth[v]) - s))
            got = _triple_sq_distances(table, np.cumsum(table * table), b - a,
                                       np.array([a]), np.array([s]))[0]
            assert got == pytest.approx(vec_distance(vecs[u], vecs[v]) ** 2,
                                        rel=1e-12, abs=1e-300)


def tree_fold(tree, w):
    """The exhaustive profile of a tree from its fold alone, with no
    convolution step."""
    return metrics._product_entries([metrics._tree_entries(tree, w)])


def assert_entries_agree(got, want):
    """t and the pair counts equal, the squared distances to 1e-12."""
    assert [(e.t, e.pair_count) for e in got] == [(e.t, e.pair_count) for e in want]
    for x, y in zip(got, want):
        assert x.rho_hat ** 2 == pytest.approx(y.rho_hat ** 2, rel=1e-12, abs=1e-12)
        assert x.delta_hat ** 2 == pytest.approx(y.delta_hat ** 2, rel=1e-12, abs=1e-12)


def test_tree_profile_split_into_chunks(monkeypatch):
    # a budget below one child's histograms gives each child its own chunk,
    # splits the product of its histograms into blocks of a row or two and
    # gives each offset its own table of extremes; the oracle's triples
    # split as well
    import medembed.tree as tree_mod

    t = gen_tree(TreeSpec.binary_sample(40, 12, seed=5))
    whole = tree_fold(t, PAPER)
    assert whole == triple_entries(t, PAPER)
    offsets = sum(1 for _ in depth_triples(t))
    calls = {"_diagonal_sums": 0, "_extreme_tables": 0}
    for name in calls:
        def counted(*args, _fn=getattr(tree_mod, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(tree_mod, name, counted)
    assert tree_fold(t, PAPER) == whole
    blocks, tables = calls["_diagonal_sums"], calls["_extreme_tables"]
    assert tables == 1
    monkeypatch.setattr(tree_mod, "CHUNK_BYTES", 64)
    assert sum(1 for _ in depth_triples(t)) > offsets
    calls.update(dict.fromkeys(calls, 0))
    assert tree_fold(t, PAPER) == whole
    assert calls["_diagonal_sums"] > blocks
    assert calls["_extreme_tables"] == int(t.depth.max()) + 1


def test_exhaustive_profile_takes_the_fold_or_the_kernel(monkeypatch):
    # the route is decided by tree_factors, as in the stratified sampler.
    # A space whose forest is a product of rooted trees (a tree, the tree as
    # a median graph rooted at its root or at vertex 7, a grid, a tree
    # product, ProductSpaces of trees) folds each factor tree once and
    # convolves the folds, with no convolution for one factor, and runs no
    # pair kernel; a staircase and a product with a staircase factor take
    # the kernel, one call per block of sources. Neither route imports
    # scipy. t and the pair counts equal the Gram oracle's, the squared
    # distances agree to 1e-12
    import sys

    tree = gen_tree(TreeSpec.binary_sample(30, 6, seed=3))
    edges = np.column_stack([tree.eu, tree.ev])
    spider, path = gen_tree(TreeSpec.spider(3, 2)), gen_tree(TreeSpec.path(4))
    folds = [(tree, 1), (median_from_tree(tree), 1),
             (MedianGraph(tree.vertex_count, edges, root=7), 1), (ProductSpace([tree]), 1),
             (gen_cube(CubeSpec.grid(4, 5)), 2), (gen_cube(CubeSpec.grid(2, 3, 4)), 3),
             (gen_cube(CubeSpec.tree_product(TreeSpec.spider(3, 3), TreeSpec.path(4))), 2),
             (ProductSpace([path, spider]), 2), (ProductSpace([path, spider, path]), 3)]
    staircase = gen_cube(CubeSpec.staircase(6))
    kernels = [staircase, ProductSpace([staircase, spider])]
    for space, factor_count in [*folds, *((s, 0) for s in kernels)]:
        space.forest()
        for w in (UNIT, PAPER, WeightFunction.power(0.3)):
            want = _exhaustive_entries(space, w)
            calls = {"_tree_entries": 0, "_convolve": 0, "_pair_sq_distances": 0}
            with monkeypatch.context() as m:
                for name in calls:
                    def counted(*args, _fn=getattr(metrics, name), _name=name):
                        calls[_name] += 1
                        return _fn(*args)
                    m.setattr(metrics, name, counted)
                for name in [k for k in sys.modules if k.split(".")[0] == "scipy"]:
                    m.setitem(sys.modules, name, None)
                m.setitem(sys.modules, "scipy", None)
                got = profile(space, w, PairSampler.exhaustive()).entries
            n = space.vertex_count
            blocks = -(-n // max(1, metrics.BLOCK_ENTRIES // n))
            assert calls == {"_tree_entries": factor_count,
                             "_convolve": max(0, factor_count - 1),
                             "_pair_sq_distances": 0 if factor_count else blocks}
            assert_entries_agree(got, want)


def _uniform_pairs_by_loop(n, sampler):
    """The pair draw as a loop over the drawn pairs, one at a time."""
    rng = np.random.default_rng(sampler.seed)
    got = set()
    while len(got) < sampler.count:
        need = sampler.count - len(got)
        draw = rng.integers(0, n, size=(max(16, int(need * 1.5)), 2))
        for a, b in draw:
            if a == b:
                continue
            got.add((int(min(a, b)), int(max(a, b))))
            if len(got) >= sampler.count:
                break
        if len(got) >= n * (n - 1) // 2:
            break
    return sorted(got)


def test_uniform_draw_matches_loop():
    from medembed.metrics import _draw_pairs

    # (2, 5), (5, 10), (5, 11) and (30, 435) ask for all pairs or more
    for n, count in ((2, 1), (2, 5), (5, 10), (5, 11), (7, 15), (30, 200),
                     (30, 435), (100, 3000), (2000, 5000)):
        for seed in range(4):
            sampler = PairSampler.uniform(count, seed=seed)
            us, vs = _draw_pairs(n, sampler)
            assert list(zip(us.tolist(), vs.tolist())) == _uniform_pairs_by_loop(n, sampler)
    # (10, 10**12) would make the loop size its first draw by the count
    for seed in range(4):
        us, vs = _draw_pairs(10, PairSampler.uniform(10**12, seed=seed))
        assert list(zip(us.tolist(), vs.tolist())) == list(
            itertools.combinations(range(10), 2))


def test_profile_metadata_recorded():
    t = gen_tree(TreeSpec.path(4))
    prof = profile(t, UNIT, PairSampler.exhaustive(),
                   metadata={"space": "path:4", "weight": "unit"})
    assert prof.metadata["space"] == "path:4"
    assert prof.metadata["sampler"] == "exhaustive"


# -- bound curves ------------------------------------------------------------------


def test_paper_lower_curve_values():
    c = 44.2244855367473
    lower = BoundCurve.paper_lower(PAPER, 2, c)
    # at t=72 the floor hits the cutoff: value is exactly xi(18)
    assert lower.value(72) == pytest.approx(XI_18, rel=1e-9)
    assert lower.value(3) == 0.0  # below domain
    assert lower.value(71) == 0.0  # bound still negative


def test_linear_and_ceiling_curves():
    up = BoundCurve.linear_upper(2.5)
    assert up.value(8) == 20.0
    ceil = BoundCurve.bourgain_ceiling(1.0)
    assert ceil.value(1) == 0.0
    t = math.exp(4)
    assert ceil.value(t) == pytest.approx(t / 2.0, rel=1e-12)


def test_edge_dilatation_bound_values():
    assert edge_dilatation_bound(UNIT, 1) == 1.0
    assert edge_dilatation_bound(UNIT, 3) == 1.0
    want = math.sqrt(2 * (XI_18_SQ + INV_LNLN_18))
    assert edge_dilatation_bound(PAPER, 1) == pytest.approx(want, rel=1e-9)
    assert edge_dilatation_bound(PAPER, 2) == pytest.approx(
        want * math.sqrt(2), rel=1e-9)
    p = edge_dilatation_bound(WeightFunction.power(0.25), 1)
    assert 1.0 < p < 10.0


def test_check_profile_against_tree():
    t = gen_tree(TreeSpec.spider(3, 40))
    prof = profile(t, PAPER, PairSampler.exhaustive())
    lower, upper = default_bound_curves(PAPER, 1)
    check = check_profile_against(prof, lower, upper, t_min=36)
    assert check.passed
    assert check.min_slack >= 0


def test_check_profile_adversarial_lower_fails():
    t = gen_tree(TreeSpec.spider(3, 40))
    prof = profile(t, PAPER, PairSampler.exhaustive())
    _, upper = default_bound_curves(PAPER, 1)
    hostile = BoundCurve.linear_upper(10.0)  # far above any compression
    check = check_profile_against(prof, hostile, upper, t_min=36)
    assert not check.passed
    assert check.min_slack < 0
    assert check.side == "lower"


def test_check_profile_needs_sane_args():
    t = gen_tree(TreeSpec.path(4))
    prof = profile(t, UNIT, PairSampler.exhaustive())
    lower, upper = default_bound_curves(UNIT, 1)
    with pytest.raises(ValueError):
        check_profile_against(prof, lower, upper, t_min=1)
    empty = CompressionProfile(entries=())
    with pytest.raises(ValueError):
        check_profile_against(empty, lower, upper, t_min=2)


# -- consistency ceiling ------------------------------------------------------------


def test_bourgain_unit_profile_passes():
    t = gen_tree(TreeSpec.binary_sample(40, 6, seed=1))
    prof = profile(t, UNIT, PairSampler.exhaustive())
    verdict = bourgain_consistency(prof)
    assert verdict.passed
    # ratio sqrt(ln t / t) peaks next to e and decreases from there
    assert verdict.argmax_t <= 3


def test_bourgain_paper_profile_passes():
    t = gen_tree(TreeSpec.binary_sample(100, 8, seed=2))
    prof = profile(t, PAPER, PairSampler.exhaustive())
    verdict = bourgain_consistency(prof)
    assert verdict.passed
    assert 0 < verdict.fitted_c < 1.0
    assert verdict.argmax_t < verdict.max_t


def test_bourgain_fabricated_linear_fails():
    entries = tuple(
        ProfileEntry(t, float(t), float(t), 1) for t in range(2, 201)
    )
    prof = CompressionProfile(entries=entries)
    verdict = bourgain_consistency(prof)
    assert not verdict.passed
    assert verdict.argmax_t == verdict.max_t  # ratio grows like sqrt(ln t)


def test_bourgain_short_profile_inconclusive():
    entries = (ProfileEntry(5, 2.0, 2.0, 1), ProfileEntry(9, 3.0, 3.0, 1))
    verdict = bourgain_consistency(CompressionProfile(entries=entries))
    assert verdict.passed
    assert verdict.note == "insufficient range"


# -- products ------------------------------------------------------------------------


def test_product_single_factor_identity():
    t = gen_tree(TreeSpec.path(9))
    rows = range(t.vertex_count)
    vecs = vectors(t.embedding_matrix(PAPER, rows))
    merged = vectors(ProductSpace([t]).embedding_matrix(PAPER, rows))
    for v in range(t.vertex_count):
        assert merged[v] == vecs[v]


def test_product_unit_distance_is_l1():
    t1 = gen_tree(TreeSpec.path(6))
    t2 = gen_tree(TreeSpec.path(7))
    prod = ProductSpace([t1, t2])
    vecs = vectors(prod.embedding_matrix(UNIT, range(prod.vertex_count)))
    rng = np.random.default_rng(0)
    d1 = t1.distances_from(range(t1.vertex_count)).astype(int)
    d2 = t2.distances_from(range(t2.vertex_count)).astype(int)
    for _ in range(200):
        a, b = rng.integers(0, prod.vertex_count, 2)
        (xa, xb), (ya, yb) = np.unravel_index([a, b], prod.sizes)
        want = d1[xa][xb] + d2[ya][yb]
        assert vec_distance(vecs[a], vecs[b]) ** 2 == pytest.approx(
            float(want), rel=1e-9, abs=1e-12)


def test_product_space_metric_rows():
    factors = [gen_tree(TreeSpec.path(3)), gen_tree(TreeSpec.spider(2, 2)),
               gen_cube(CubeSpec.grid(1, 2))]
    prod = ProductSpace(factors)
    dists = [f.distances_from(range(f.vertex_count)).astype(int) for f in factors]
    sources = [int(np.ravel_multi_index((1, 2, 3), prod.sizes)), 0,
               prod.vertex_count - 1, 7, 7]
    rows = prod.distances_from(sources)
    assert rows.shape == (len(sources), prod.vertex_count)
    for s, row in zip(sources, rows):
        cs = np.unravel_index(s, prod.sizes)
        for idx in range(prod.vertex_count):
            cv = np.unravel_index(idx, prod.sizes)
            assert row[idx] == sum(d[a][b] for d, a, b in zip(dists, cs, cv))


def test_product_distance_identity_three_factors():
    trees = [gen_tree(TreeSpec.path(10)),
             gen_tree(TreeSpec.spider(2, 5)),
             gen_tree(TreeSpec.path(4))]
    prod = ProductSpace(trees)
    factors = [vectors(t.embedding_matrix(PAPER, range(t.vertex_count)))
               for t in trees]
    vecs = vectors(prod.embedding_matrix(PAPER, range(prod.vertex_count)))
    rng = np.random.default_rng(5)
    for _ in range(300):
        a, b = (int(x) for x in rng.integers(0, prod.vertex_count, 2))
        ca, cb = (np.unravel_index(x, prod.sizes) for x in (a, b))
        lhs = vec_distance(vecs[a], vecs[b]) ** 2
        rhs = sum(
            vec_distance(factors[i][ca[i]], factors[i][cb[i]]) ** 2
            for i in range(3)
        )
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_product_factor_blocks_disjoint():
    t1 = gen_tree(TreeSpec.path(6))
    t2 = gen_tree(TreeSpec.spider(2, 3))
    prod = ProductSpace([t1, t2])
    assert prod.offsets == [0, t1.vertex_count]
    mat = prod.embedding_matrix(UNIT, range(prod.vertex_count))
    assert mat.shape[1] == t1.vertex_count + t2.vertex_count
    # each factor's block holds that factor's own matrix and nothing else
    coords = np.unravel_index(np.arange(prod.vertex_count), prod.sizes)
    for f, start, c in zip(prod.factors, prod.offsets, coords):
        block = mat[:, start:start + f.vertex_count]
        assert (block != f.embedding_matrix(UNIT, c)).nnz == 0
    vecs = vectors(mat)
    for idx in range(prod.vertex_count):
        x, y = np.unravel_index(idx, prod.sizes)
        want = geodesic_edges(t1, x) + [
            t1.vertex_count + k for k in geodesic_edges(t2, y)]
        assert sorted(mat[idx].indices) == sorted(want)
        assert sorted(vecs[idx].coords) == sorted(want)
    # keys are local to each space: building another space between the
    # factors leaves the product's profile as it was
    sampler = PairSampler.stratified(40, seed=13)
    a1, a2 = gen_tree(TreeSpec.path(40)), gen_tree(TreeSpec.path(40))
    before = profile(ProductSpace([a1, a2]), PAPER, sampler)
    b1 = gen_tree(TreeSpec.path(40))
    gen_cube(CubeSpec.grid(3, 3)).forest()
    b2 = gen_tree(TreeSpec.path(40))
    after = profile(ProductSpace([b1, b2]), PAPER, sampler)
    assert before.entries == after.entries


def test_product_vertex_count_is_exact_and_budgeted(monkeypatch):
    # five path:9999 factors have 10**20 vertices, beyond int64; the count
    # is refused before any edge or forest array is built
    def no_arrays(*args):
        raise AssertionError("an over-budget product must allocate nothing")

    path = gen_tree(TreeSpec.path(9999))
    with monkeypatch.context() as patched:
        patched.setattr(metrics, "product_edges", no_arrays)
        with pytest.raises(BudgetExceededError,
                           match=r"^the product has 100000000000000000000 vertices, "
                                 r"budget is 5000000$"):
            ProductSpace([path] * 5)
    pair = [gen_tree(TreeSpec.path(2)), gen_tree(TreeSpec.path(6))]  # 21 vertices
    monkeypatch.setattr(metrics, "DEFAULT_VERTEX_BUDGET", 21)
    assert ProductSpace(pair).vertex_count == 21
    monkeypatch.setattr(metrics, "DEFAULT_VERTEX_BUDGET", 20)
    with pytest.raises(BudgetExceededError, match="the product has 21 vertices"):
        ProductSpace(pair)


def test_nested_product_is_the_flat_product():
    a, b = gen_tree(TreeSpec.spider(2, 3)), gen_cube(CubeSpec.staircase(3))
    c = gen_tree(TreeSpec.path(4))
    nested, flat = ProductSpace([ProductSpace([a, b]), c]), ProductSpace([a, b, c])
    n = flat.vertex_count
    assert nested.vertex_count == n
    assert nested.offsets == [0, a.forest().key_count + b.forest().key_count]
    weights = [UNIT, PAPER, WeightFunction.power(0.3)]
    (ptr, keys, data), (flat_ptr, flat_keys, flat_data) = (
        space.embedding_rows(weights, np.arange(n)) for space in (nested, flat))
    for got, want in zip([ptr, keys, *data], [flat_ptr, flat_keys, *flat_data]):
        np.testing.assert_array_equal(got, want)
    sources = [0, 7, n - 1]
    np.testing.assert_array_equal(nested.forest_distances(sources),
                                  flat.forest_distances(sources))
    for w in weights:
        assert (profile(nested, w, PairSampler.exhaustive()).entries
                == profile(flat, w, PairSampler.exhaustive()).entries)
    assert profile(nested, PAPER, PairSampler.stratified(9, seed=4)).entries == profile(
        flat, PAPER, PairSampler.stratified(9, seed=4)).entries


def test_product_profile_against_lower_bound():
    # two paths under the combined metric; lower curve for two dimensions
    t1 = gen_tree(TreeSpec.path(80))
    t2 = gen_tree(TreeSpec.path(80))
    prod = ProductSpace([t1, t2])
    prof = profile(prod, PAPER, PairSampler.stratified(40, seed=13))
    c = deficit_constant(PAPER, 10**5)
    lower = BoundCurve.paper_lower(PAPER, 2, c)
    upper = BoundCurve.linear_upper(edge_dilatation_bound(PAPER, 2))
    check = check_profile_against(prof, lower, upper, t_min=36)
    assert check.passed


def test_product_l2_metric_lower_bound():
    # per-pair check against the two-dimensional lower curve, with pair
    # distances combined the Euclidean way across the two factors
    t1 = gen_tree(TreeSpec.path(200))
    t2 = gen_tree(TreeSpec.path(200))
    prod = ProductSpace([t1, t2])
    c = deficit_constant(PAPER, 10**5)
    lower = BoundCurve.paper_lower(PAPER, 2, c)
    d1 = t1.distances_from(range(t1.vertex_count)).astype(int)
    rng = np.random.default_rng(17)
    # the pairs first, drawn as before; then all their rows in one call
    xa, ya, xb, yb = np.array([rng.integers(0, 201, 4) for _ in range(4000)]).T
    a = np.ravel_multi_index((xa, ya), prod.sizes)
    b = np.ravel_multi_index((xb, yb), prod.sizes)
    merged = vectors(prod.embedding_matrix(PAPER, np.concatenate([a, b])))
    for i in range(4000):
        da, db = d1[xa[i]][xb[i]], d1[ya[i]][yb[i]]
        d_l2 = math.hypot(da, db)
        emb = vec_distance(merged[i], merged[4000 + i])
        assert emb >= lower.value(math.floor(d_l2)) - 1e-9


def test_tree_profile_rho_bounded_below_by_partial_sums():
    from oracles import sq_partial_sums
    t = gen_tree(TreeSpec.spider(3, 40))
    prof = profile(t, PAPER, PairSampler.exhaustive())
    cum = np.concatenate([[0.0], sq_partial_sums(PAPER, 100)])
    for e in prof.entries:
        want = cum[(e.t + 1) // 2]
        assert e.rho_hat ** 2 >= want * (1 - 1e-9) - 1e-9


def test_l1_l2_compare_cases():
    d1, d2 = l1_l2_compare(2, (3.0, 4.0))
    assert (d1, d2) == (7.0, 5.0)
    assert d2 <= d1 <= math.sqrt(2) * d2
    d1, d2 = l1_l2_compare(3, (2.0, 2.0, 2.0))
    assert d1 == pytest.approx(math.sqrt(3) * d2, rel=1e-12)
    d1, d2 = l1_l2_compare(4, (0.0, 0.0, 9.0, 0.0))
    assert d1 == d2 == 9.0
    with pytest.raises(ValueError):
        l1_l2_compare(2, (1.0,))
    with pytest.raises(ValueError):
        l1_l2_compare(1, (-1.0,))


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=8))
@settings(max_examples=200)
def test_l1_l2_bounds_hold(ds):
    k = len(ds)
    d1, d2 = l1_l2_compare(k, ds)
    assert d2 <= d1 + 1e-9 * max(1.0, d2)
    assert d1 <= math.sqrt(k) * d2 + 1e-9 * max(1.0, d1)


# -- helpers -------------------------------------------------------------------------


def test_embedding_matrix_round_trip():
    t = gen_tree(TreeSpec.spider(3, 4))
    mat = t.embedding_matrix(UNIT, range(t.vertex_count))
    norms = sq_row_norms(mat)
    assert mat.shape[0] == t.vertex_count
    for v, vec in enumerate(vectors(mat)):
        assert norms[v] == pytest.approx(vec.norm() ** 2, rel=1e-12)


def counted_blocks(monkeypatch) -> list[int]:
    """Wraps the Gram oracle's ``_sq_distance_blocks``; the returned list
    gets the row count of each block it yields."""
    sizes = []
    blocks = oracles._sq_distance_blocks

    def counting(mat):
        for block, mask, d2 in blocks(mat):
            sizes.append(len(block))
            yield block, mask, d2

    monkeypatch.setattr(oracles, "_sq_distance_blocks", counting)
    return sizes


def test_unit_identity_helper(monkeypatch):
    g = gen_cube(CubeSpec.grid(5, 4))
    err, sep_dev = oracle_deviations(g)
    assert err <= 1e-9
    assert sep_dev == 0
    t = gen_tree(TreeSpec.spider(3, 4))
    # 5 rows of 13 per block, each read once off the forest
    monkeypatch.setattr(metrics, "BLOCK_ENTRIES", 5 * t.vertex_count)
    sizes = []
    read = t.forest_distances

    def counting(block):
        sizes.append(len(block))
        return read(block)

    monkeypatch.setattr(t, "forest_distances", counting)
    err, sep_dev = oracle_deviations(t)
    assert err <= 1e-9
    assert sep_dev is None
    assert sizes == [5, 5, 3]


def separator_gram_counts(g, sources):
    """Separating counts as a Gram of separator rows, |S_u| + |S_v| -
    2 S_u . S_v: the reference for ``separating_counts``."""
    sep = separators(g)
    sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    sizes = np.diff(sep.indptr)
    gram = sep[sources].toarray() @ sep.T
    return sizes[sources, None] + sizes[None, :] - 2 * gram


def gram_oracle_deviations(space):
    """The reference for ``oracle_deviations``: unit-weight Gram blocks
    (``_sq_distance_blocks``) and separator Grams against one BFS block
    per Gram block."""
    unit = space.embedding_matrix(WeightFunction.unit(), np.arange(space.vertex_count))
    seps = partial(separator_gram_counts, space) if isinstance(space, MedianGraph) else None
    worst, sep_worst = 0.0, None if seps is None else 0
    for block, mask, unit_sq in _sq_distance_blocks(unit):
        d = space.distances_from(block)[:, block[0]:][mask]
        nz = d > 0
        err = np.abs(np.subtract(unit_sq, d, out=unit_sq), out=unit_sq)
        np.divide(err, d, out=err, where=nz)
        worst = max(worst, float(err.max(initial=0.0, where=nz)))
        del unit_sq, err, nz
        if seps is not None:
            sep = seps(block)[:, block[0]:][mask]
            sep_worst = max(sep_worst, int(np.abs(sep - d).max(initial=0)))
            del sep
        del block, mask, d  # before the next block allocates
    return worst, sep_worst


def unit_gram_entries(space, w):
    """The exhaustive profile with t the rounded squared distance of the
    unit-weight rows, from a Gram of its own: the reference for the
    exhaustive routes, which read t off the forest or convolve the factor
    trees' distances. The rounding is exact, as the unit Gram sums
    products of 0/1 entries."""
    acc = metrics._ProfileAccumulator()
    unit, emb = (space.embedding_matrix(weight, np.arange(space.vertex_count))
                 for weight in (UNIT, w))
    for (_, _, unit_sq), (_, _, emb_sq) in zip(_sq_distance_blocks(unit),
                                               _sq_distance_blocks(emb)):
        acc.add(np.rint(unit_sq).astype(np.int64), np.sqrt(np.clip(emb_sq, 0.0, None)))
    return acc.entries()


@pytest.mark.parametrize("space", [
    gen_cube(CubeSpec.grid(45, 45)), gen_cube(CubeSpec.grid(4, 5, 6)),
    gen_cube(CubeSpec.staircase(30)), gen_cube(CubeSpec.staircase(60)),
    gen_cube(CubeSpec.tree_product(TreeSpec.spider(3, 4),
                                   TreeSpec.binary_sample(6, 5, seed=42))),
    gen_cube(CubeSpec.from_tree(TreeSpec.binary_sample(30, 10, seed=42))),
    ProductSpace([gen_tree(TreeSpec.path(12)), gen_tree(TreeSpec.spider(3, 4))]),
], ids=["grid45x45", "grid4x5x6", "staircase30", "staircase60", "tree-product",
        "from-tree", "product"])
def test_exhaustive_t_off_the_forest_matches_the_unit_gram(space):
    # the staircases take the pair kernel, every other space the fold
    for w in (UNIT, PAPER, WeightFunction.power(0.3)):
        assert_entries_agree(profile(space, w, PairSampler.exhaustive()).entries,
                             unit_gram_entries(space, w))


def _oracle_space(kind, a, b, seed):
    """A random tree, grid, staircase, median graph of a tree or product
    of two trees, of a few hundred vertices at most."""
    rng = np.random.default_rng(seed)
    if kind == "tree":
        n = a * b + 1
        return RootedTree([0] + [int(rng.integers(0, i)) for i in range(1, n)])
    if kind == "grid":
        return gen_cube(CubeSpec.grid(a, b))
    if kind == "staircase":
        heights = sorted(rng.integers(1, a + 1, size=b).tolist(), reverse=True)
        return gen_cube(CubeSpec.staircase_heights(heights))
    tree = TreeSpec.binary_sample(a + 2, b, seed=seed)
    if kind == "from-tree":
        return gen_cube(CubeSpec.from_tree(tree))
    return gen_cube(CubeSpec.tree_product(tree, TreeSpec.spider(2, a)))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["tree", "grid", "staircase", "from-tree", "tree-product"]),
       st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=9))
def test_oracle_deviations_match_the_gram_reference(kind, a, b, seed, rows):
    # several blocks of ``rows`` rows, every one certified
    space = _oracle_space(kind, a, b, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "BLOCK_ENTRIES", rows * space.vertex_count)
        got = oracle_deviations(space)
    assert got == gram_oracle_deviations(space) == (0.0, got[1])


def counted_bfs(monkeypatch) -> list[int]:
    """Wraps ``sparse.bfs_distances``; the returned list gets the source
    count of each call."""
    from medembed import sparse

    calls = []
    bfs = sparse.bfs_distances

    def counting(adj, sources):
        calls.append(len(sources))
        return bfs(adj, sources)

    monkeypatch.setattr(sparse, "bfs_distances", counting)
    return calls


def test_oracle_runs_no_bfs_on_a_passing_space(monkeypatch):
    g = gen_cube(CubeSpec.grid(45, 45))
    g.forest()
    calls = counted_bfs(monkeypatch)
    assert oracle_deviations(g) == (0.0, 0)
    assert calls == []


def test_oracle_walks_each_block_of_rows_once(monkeypatch):
    # the unit rows of all vertices once, then one walk per block, for its
    # forest distances: the proof walks no rows
    from medembed.sparse import PathForest

    g = gen_cube(CubeSpec.grid(45, 45))
    g.forest()
    calls = []
    rows = PathForest.rows

    def counting(self, *args):
        calls.append(len(args[0]))
        return rows(self, *args)

    monkeypatch.setattr(PathForest, "rows", counting)
    assert oracle_deviations(g) == (0.0, 0)
    n = g.vertex_count
    blocks = -(-n // max(1, metrics.BLOCK_ENTRIES // n))
    assert len(calls) == 1 + blocks and calls[0] == sum(calls[1:]) == n


@pytest.mark.parametrize("space", [gen_cube(CubeSpec.grid(4, 5)),
                                   gen_tree(TreeSpec.caterpillar(5, 2))],
                         ids=["grid", "tree"])
def test_oracle_reports_the_bfs_deviation_of_a_doctored_forest(monkeypatch, space):
    # one forest distance off by one at the pair (2, 9): the certificate
    # refuses the block, and the BFS shows the deviation in both identities
    n = space.vertex_count
    monkeypatch.setattr(metrics, "BLOCK_ENTRIES", 4 * n)
    read = space.forest_distances

    def doctored(block):
        t = read(block)
        t[np.asarray(block) == 2, 9] += 1
        return t

    monkeypatch.setattr(space, "forest_distances", doctored)
    calls = counted_bfs(monkeypatch)
    d = int(space.distances_from([2])[0, 9])
    calls.clear()
    err, sep_dev = oracle_deviations(space)
    assert calls == [4]  # block 0..3 only
    assert err == 1 / d
    assert sep_dev == (None if isinstance(space, RootedTree) else 1)


def _doctored_row(indptr, keys, data, r, kind):
    """The CSR triple with row r changed: its first value doubled to 2.0
    ("two"), or its first key dropped ("drop")."""
    i = indptr[r]
    if kind == "two":
        data[0][i] = 2.0
        return indptr, keys, data
    indptr = indptr.copy()
    indptr[r + 1:] -= 1
    return indptr, np.delete(keys, i), [np.delete(d, i) for d in data]


@pytest.mark.parametrize("kind", ["two", "drop"])
@pytest.mark.parametrize("space", [gen_cube(CubeSpec.staircase(5)),
                                   gen_tree(TreeSpec.spider(3, 4))],
                         ids=["staircase", "tree"])
def test_oracle_weighs_unit_rows_that_leave_the_forest(monkeypatch, space, kind):
    # vertex 7's unit row holds one integer 2.0, or misses a key of its
    # path: the rows no longer follow the forest, every block's squared
    # distances come from the pair kernel, and the deviation is the Gram
    # reference's
    monkeypatch.setattr(metrics, "BLOCK_ENTRIES", 3 * space.vertex_count)
    rows = space.embedding_rows

    def doctored(weights, vertices):
        triple = rows(weights, vertices)
        at = np.flatnonzero(np.asarray(vertices) == 7)
        return _doctored_row(*triple, at[0], kind) if len(at) else triple

    monkeypatch.setattr(space, "embedding_rows", doctored)
    assert not metrics._unit_rows_follow_forest(space)
    pairs = []
    kernel = metrics._pair_sq_distances

    def counting(space, weights, us, vs):
        pairs.append(len(us))
        return kernel(space, weights, us, vs)

    monkeypatch.setattr(metrics, "_pair_sq_distances", counting)
    got = oracle_deviations(space)
    n = space.vertex_count
    assert sum(pairs) == n * (n - 1) // 2
    assert got == gram_oracle_deviations(space)
    assert got[0] > 0 and got[1] in (None, 0)


def test_oracle_takes_graphs_and_passes_products():
    # a product is a Graph with a forest, so both identities hold on it;
    # it has no separating counts
    with pytest.raises(TypeError, match="takes a Graph, not SimpleNamespace"):
        oracle_deviations(SimpleNamespace(vertex_count=4))
    prod = ProductSpace([gen_tree(TreeSpec.path(3)), gen_tree(TreeSpec.path(2)),
                         gen_cube(CubeSpec.grid(2, 3))])
    assert oracle_deviations(prod) == (0.0, None)
    assert gram_oracle_deviations(prod) == (0.0, None)


def _traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc (numpy's buffers included) while
    fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tree_profile_holds_bounded_chunks():
    # the root of spider 4,3000 has two child subtrees that reach depth
    # 3000, so a whole table of extreme meeting depths over its depth pairs
    # (a, b) would hold 9M cells; the fold sweeps them in chunks
    import medembed.tree as tree_mod

    t = gen_tree(TreeSpec.spider(4, 3000))
    t.forest()
    assert _traced_peak(lambda: metrics._tree_entries(t, PAPER)) < 2 * tree_mod.CHUNK_BYTES


def test_gram_routes_hold_a_bounded_block():
    # 123 rows of 2,116 per block of the oracle on grid 45x45 at the default
    # BLOCK_ENTRIES, and as many pairs per block of the pair kernel on
    # staircase 60. The forests are built first: neither is a block
    bound = 8 * metrics.BLOCK_ENTRIES * 8
    g = gen_cube(CubeSpec.grid(45, 45))
    g.forest()
    assert _traced_peak(lambda: oracle_deviations(g)) < bound
    s = gen_cube(CubeSpec.staircase(60))
    s.forest()
    assert _traced_peak(lambda: profile(s, PAPER, PairSampler.exhaustive())) < bound
