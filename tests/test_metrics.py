import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medembed.cube import CubeSpec, MedianGraph, gen_cube
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
    sq_row_norms,
)
from medembed.sparse import vec_distance, vectors
from medembed.tree import RootedTree, TreeSpec, gen_tree, geodesic_edges
from medembed.weights import WeightFunction, deficit_constant

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


def test_exhaustive_profile_runs_without_bfs(monkeypatch):
    # the exhaustive and the uniform sampler read t off the unit rows
    spaces = [
        gen_tree(TreeSpec.spider(3, 6)),
        gen_cube(CubeSpec.staircase(5)),
        ProductSpace([gen_tree(TreeSpec.path(3)), gen_cube(CubeSpec.grid(2, 2))]),
    ]
    for space in spaces:
        space.embedding_matrix(UNIT, [0])  # hyperplanes and forests first

    def no_bfs(self, sources):
        raise AssertionError("exhaustive and uniform profiles must not run BFS")

    for cls in (RootedTree, MedianGraph, ProductSpace):
        monkeypatch.setattr(cls, "distances_from", no_bfs)
    exh_ts = []
    for space in spaces:
        exh = profile(space, UNIT, PairSampler.exhaustive())
        uni = profile(space, UNIT, PairSampler.uniform(60, seed=2))
        exh_ts.append(exh.ts().tolist())
        assert set(uni.ts().tolist()) <= set(exh_ts[-1])
        for prof in (exh, uni):
            for e in prof.entries:
                assert e.rho_hat == pytest.approx(math.sqrt(e.t), rel=1e-12)
    assert exh_ts[0] == list(range(1, 13))  # spider(3, 6)


def test_grouped_pair_evaluator_matches_bruteforce():
    from medembed.metrics import _grouped_pairs, _stratified_pairs, _uniform_pairs

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
        for us, vs, ts in (
            _stratified_pairs(space, PairSampler.stratified(7, seed=5)),
            _uniform_pairs(space, PairSampler.uniform(80, seed=6)),
        ):
            emb = np.sqrt(np.clip(_grouped_pairs(space, w, us, vs), 0.0, None))
            for u, v, t, e in zip(us, vs, ts, emb):
                assert t == dist[u][v]
                want = vec_distance(vecs[u], vecs[v])
                assert e == pytest.approx(want, rel=1e-12, abs=1e-12)


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
    from medembed.weights import sq_partial_sums
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


def test_unit_identity_helper():
    g = gen_cube(CubeSpec.grid(5, 4))
    err, sep_dev = oracle_deviations(g)
    assert err <= 1e-9
    assert sep_dev == 0
    t = gen_tree(TreeSpec.spider(3, 4))
    err, sep_dev = oracle_deviations(t, block_size=5)
    assert err <= 1e-9
    assert sep_dev is None
