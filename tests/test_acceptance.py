"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line. Run with ``pytest tests/test_acceptance.py -v -s`` to see
the lines as they happen; the whole suite takes a few minutes.
"""

import math

import numpy as np
import pytest

from medembed.cube import (
    CubeSpec,
    gen_cube,
    key_property,
    median_from_tree,
)
from medembed.metrics import (
    BoundCurve,
    PairSampler,
    ProductSpace,
    bourgain_consistency,
    check_profile_against,
    edge_dilatation_bound,
    l1_l2_compare,
    oracle_deviations,
    profile,
)
from medembed.sparse import vec_distance, vectors
from medembed.tree import TreeSpec, gen_tree
from medembed.weights import WeightFunction, diff_sq_sum, diff_sq_tail_bound
from oracles import deficit_scan, separators, sq_partial_sums, sq_row_norms

PAPER = WeightFunction.paper(18)
XI_18_SQ = 5.52806069209341


def report(num: int, ok: bool, desc: str):
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {desc}")


# -- shared spaces (built once per test run) ---------------------------------


@pytest.fixture(scope="module")
def trees_c1():
    return [
        gen_tree(TreeSpec.path(1000)),
        gen_tree(TreeSpec.spider(5, 200)),
        gen_tree(TreeSpec.binary_sample(200, 50, seed=42)),
    ]


@pytest.fixture(scope="module")
def cubes_c2():
    return [
        gen_cube(CubeSpec.grid(20, 20)),
        gen_cube(CubeSpec.staircase(20)),
        gen_cube(CubeSpec.tree_product(TreeSpec.path(15), TreeSpec.path(15))),
    ]


@pytest.fixture(scope="module")
def cubes_c8():
    return [
        gen_cube(CubeSpec.grid(10, 10)),
        gen_cube(CubeSpec.staircase(10)),
        gen_cube(CubeSpec.tree_product(TreeSpec.path(8), TreeSpec.path(8))),
    ]


@pytest.fixture(scope="module")
def trees_c6():
    return [
        gen_tree(TreeSpec.spider(4, 500)),
        gen_tree(TreeSpec.binary_sample(300, 40, seed=7)),
    ]


@pytest.fixture(scope="module")
def trees_c10():
    # depths 100 and 200; criterion leaves the seed open, fixed here at 42
    return [
        gen_tree(TreeSpec.binary_sample(100, 60, seed=42)),
        gen_tree(TreeSpec.binary_sample(200, 60, seed=42)),
    ]


@pytest.fixture(scope="module")
def from_tree_spider():
    tree = gen_tree(TreeSpec.spider(3, 40))
    return tree, median_from_tree(tree)


@pytest.fixture(scope="module")
def grid300():
    g = gen_cube(CubeSpec.grid(300, 300))
    g.forest()
    return g


# -- criteria -----------------------------------------------------------------


def test_criterion_01_unit_oracle_trees(trees_c1):
    worst = 0.0
    for t in trees_c1:
        err, _ = oracle_deviations(t)
        worst = max(worst, err)
    ok = worst <= 1e-9
    report(1, ok, f"unit-weight tree oracle, max rel error {worst:.3e}")
    assert ok


def test_criterion_02_unit_oracle_complexes(cubes_c2):
    worst = 0.0
    max_dev = 0
    for g in cubes_c2:
        err, sep_dev = oracle_deviations(g)
        worst = max(worst, err)
        max_dev = max(max_dev, sep_dev)
        n = g.vertex_count
        # far sides: two vertices differ on one side exactly when they
        # differ on the other
        far = separators(g).toarray().astype(bool).T
        for start in range(0, n, 256):
            block = np.arange(start, min(start + 256, n))
            dist = g.distances_from(block).astype(np.int64)
            for i, u in enumerate(block):
                vs = np.arange(u + 1, n)
                if len(vs) == 0:
                    continue
                seps = (far[:, u][:, None] != far[:, vs]).sum(axis=0)
                max_dev = max(max_dev, int(np.abs(seps - dist[i][vs]).max()))
    ok = worst <= 1e-9 and max_dev == 0
    report(2, ok, f"unit-weight complex oracle, max rel error {worst:.3e}, "
                  f"distance vs separator count deviation {max_dev}")
    assert ok


def test_criterion_03_increment_tail():
    checkpoints = [10**3, 10**4, 10**5, 10**6]
    sums = [diff_sq_sum(PAPER, n) for n in checkpoints]
    monotone = all(a <= b + 1e-15 for a, b in zip(sums, sums[1:]))
    tail = sums[-1] - diff_sq_sum(PAPER, 17)
    bound = diff_sq_tail_bound(PAPER)
    vals = PAPER.values(np.arange(18, 10**6 + 2, dtype=np.float64))
    weight_monotone = bool(np.all(np.diff(vals) >= 0.0))
    ok = monotone and weight_monotone and tail <= bound + 1e-6
    report(3, ok, f"increment tail {tail:.6f} <= {bound:.6f}, monotone "
                  f"checkpoints {monotone}, weight monotone past cutoff "
                  f"{weight_monotone}")
    assert ok


def test_criterion_04_partial_sum_deficit():
    c_full, at_full = deficit_scan(PAPER, 10**6)
    c_tenth, _ = deficit_scan(PAPER, 10**5)
    idx = np.arange(1, 10**6 + 1, dtype=np.float64)
    vals = PAPER.values(idx)
    sq = vals * vals
    candidates = 0.5 * idx * sq - np.cumsum(sq)
    holds_everywhere = bool(np.all(candidates <= c_full))
    stabilized = c_full == c_tenth
    finite = at_full < 10**6
    ok = holds_everywhere and stabilized and finite
    report(4, ok, f"deficit constant {c_full:.6f} attained at N={at_full}, "
                  f"stabilized {stabilized}")
    assert ok
    assert at_full == 18
    assert c_full == pytest.approx(8 * XI_18_SQ, rel=1e-9)


def _edge_sq_norms(mat, us, vs):
    diff = mat[us] - mat[vs]
    return np.asarray(diff.multiply(diff).sum(axis=1)).ravel()


def test_criterion_05_edge_dilatation(trees_c1, trees_c6, trees_c10,
                                      cubes_c2, cubes_c8, from_tree_spider):
    budget = XI_18_SQ + diff_sq_tail_bound(PAPER)
    worst_ratio = 0.0
    trees = list(trees_c1) + list(trees_c6) + list(trees_c10) + [
        from_tree_spider[0], gen_tree(TreeSpec.caterpillar(40, 3))]
    for t in trees:
        mat = t.embedding_matrix(PAPER, range(t.vertex_count))
        children = np.asarray(
            [v for v in range(t.vertex_count) if v != t.root])
        norms = _edge_sq_norms(mat, children, t.parent[children])
        bound = 2 * 1 * budget
        worst_ratio = max(worst_ratio, float(norms.max()) / bound)
    cubes = list(cubes_c2) + list(cubes_c8) + [from_tree_spider[1]]
    for g in cubes:
        mat = g.embedding_matrix(PAPER, range(g.vertex_count))
        norms = _edge_sq_norms(mat, g.eu, g.ev)
        bound = 2 * g.dimension * budget
        worst_ratio = max(worst_ratio, float(norms.max()) / bound)
    ok = worst_ratio <= 1.0 + 1e-9
    report(5, ok, f"edge dilatation, worst squared-length/bound ratio "
                  f"{worst_ratio:.4f} over {len(trees)} trees and "
                  f"{len(cubes)} complexes")
    assert ok


def test_criterion_06_tree_pair_lower_bound(trees_c6):
    violations = 0
    pairs = 0
    for t in trees_c6:
        n = t.vertex_count
        max_depth = int(t.depth.max())
        cum = np.concatenate([[0.0], sq_partial_sums(PAPER, max_depth)])
        mat = t.embedding_matrix(PAPER, range(n))
        norms_sq = sq_row_norms(mat)
        depth = t.depth
        cols = np.arange(n)[None, :]
        for start in range(0, n, 1024):
            block = np.arange(start, min(start + 1024, n))
            d = t.distances_from(block).astype(np.int64)
            gram = np.asarray((mat[block] @ mat.T).todense())
            emb_sq = norms_sq[block][:, None] + norms_sq[None, :] - 2.0 * gram
            du = depth[block][:, None]
            dv = depth[None, :]
            s = np.maximum(du, dv) - (du + dv - d) // 2
            mask = cols > block[:, None]
            lower = cum[s[mask]]
            bad_bound = emb_sq[mask] < lower * (1 - 1e-9) - 1e-9
            bad_branch = s[mask] < (d[mask] + 1) // 2
            violations += int(bad_bound.sum()) + int(bad_branch.sum())
            pairs += int(mask.sum())
    ok = violations == 0
    report(6, ok, f"tree per-pair compression bound, {violations} violations "
                  f"over {pairs} pairs")
    assert ok


def test_criterion_07_complex_compression_bound(grid300):
    g = grid300
    assert g.dimension == 2
    c_full, _ = deficit_scan(PAPER, 10**6)
    prof = profile(g, PAPER, PairSampler.stratified(1000, seed=11),
                   metadata={"space": g.label, "weight": PAPER.label()})
    lower = BoundCurve.paper_lower(PAPER, 2, c_full)
    upper = BoundCurve.linear_upper(edge_dilatation_bound(PAPER, 2))
    check = check_profile_against(prof, lower, upper, t_min=36)
    ok = check.passed
    report(7, ok, f"grid 300x300 compression bound, min slack "
                  f"{check.min_slack:.4f} at t={check.at_t} "
                  f"({check.points_checked} distances)")
    assert ok


def test_criterion_07_curves_hold_on_every_pair_of_the_grid(grid300):
    # criterion 07's curves and t_min over all n(n-1)/2 pairs of grid
    # 300x300, not a sample: the exhaustive profile convolves the folds of
    # its two factor paths
    g = grid300
    c_full, _ = deficit_scan(PAPER, 10**6)
    prof = profile(g, PAPER, PairSampler.exhaustive())
    n = g.vertex_count
    assert prof.pair_counts().sum() == n * (n - 1) // 2
    assert prof.ts().tolist() == list(range(1, 601))
    lower = BoundCurve.paper_lower(PAPER, 2, c_full)
    upper = BoundCurve.linear_upper(edge_dilatation_bound(PAPER, 2))
    assert check_profile_against(prof, lower, upper, t_min=36).passed


def test_criterion_08_key_property(cubes_c8):
    max_dev = 0
    norm_ok = True
    mult_ok = True
    edges = 0
    for g in cubes_c8:
        keys = key_property(g)
        max_dev = max(max_dev, int(keys.index_deltas.max()))
        norm_ok = norm_ok and keys.own_key_ok
        mult_ok = mult_ok and keys.max_step_size <= g.dimension
        edges += g.edge_count
    ok = max_dev <= 1 and norm_ok and mult_ok
    report(8, ok, f"key property over {edges} edges: max index deviation "
                  f"{max_dev}, own-hyperplane normalization {norm_ok}, "
                  f"index multiplicity within dimension {mult_ok}")
    assert ok


def test_criterion_09_cross_module_consistency(from_tree_spider):
    tree, g = from_tree_spider
    vecs_g = vectors(g.embedding_matrix(PAPER, range(tree.vertex_count)))
    vecs_t = vectors(tree.embedding_matrix(PAPER, range(tree.vertex_count)))
    assert (np.bincount(g.hyp_of_edge) == 1).all()  # every class is one edge
    key_map = {}
    for eid, key in enumerate(g.hyp_of_edge.tolist()):
        u, v = int(g.eu[eid]), int(g.ev[eid])
        child = u if tree.depth[u] > tree.depth[v] else v
        key_map[key] = tree.edge_key(child)
    worst = 0.0
    for v in range(tree.vertex_count):
        got = {key_map[k]: val for k, val in vecs_g[v].coords.items()}
        want = vecs_t[v].coords
        if got.keys() != want.keys():
            worst = math.inf
            break
        for k, val in want.items():
            denom = max(1.0, abs(val))
            worst = max(worst, abs(got[k] - val) / denom)
    ok = worst <= 1e-12
    report(9, ok, f"tree vs complex embedding on a shared key assignment, "
                  f"max coordinate deviation {worst:.3e}")
    assert ok


def test_criterion_10_ceiling_stability(trees_c10):
    verdicts = []
    for t in trees_c10:
        prof = profile(t, PAPER, PairSampler.exhaustive())
        verdicts.append(bourgain_consistency(prof))
    cs = [v.fitted_c for v in verdicts]
    ratio = max(cs) / min(cs)
    ok = ratio <= 2.0 and all(v.passed for v in verdicts)
    report(10, ok, f"ceiling constants {cs[0]:.4f} vs {cs[1]:.4f} across "
                   f"depths 100/200, ratio {ratio:.3f} <= 2")
    assert ok


def test_criterion_11_product_identities():
    rng = np.random.default_rng(2026)
    worst_rel = 0.0
    for _ in range(10_000):
        k = int(rng.integers(1, 7))
        ds = rng.uniform(0.0, 1000.0, size=k)
        d1, d2 = l1_l2_compare(k, ds)
        scale = max(1.0, d1)
        if d2 > d1 + 1e-9 * scale or d1 > math.sqrt(k) * d2 + 1e-9 * scale:
            worst_rel = math.inf
    t1 = gen_tree(TreeSpec.path(60))
    t2 = gen_tree(TreeSpec.spider(3, 20))
    prod = ProductSpace([t1, t2])
    factors = [vectors(t.embedding_matrix(PAPER, range(t.vertex_count)))
               for t in (t1, t2)]
    merged = vectors(prod.embedding_matrix(PAPER, range(prod.vertex_count)))
    for _ in range(10_000):
        a, b = (int(x) for x in rng.integers(0, prod.vertex_count, 2))
        ca, cb = (np.unravel_index(x, prod.sizes) for x in (a, b))
        lhs = vec_distance(merged[a], merged[b]) ** 2
        rhs = sum(vec_distance(factors[i][ca[i]], factors[i][cb[i]]) ** 2
                  for i in range(2))
        worst_rel = max(worst_rel, abs(lhs - rhs) / max(1.0, rhs))
    ok = worst_rel <= 1e-9
    report(11, ok, f"product identities on 10^4 tuples and 10^4 pairs, "
                   f"max relative error {worst_rel:.3e}")
    assert ok
