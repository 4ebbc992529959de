"""Independent slow oracles the tests compare the package against.

None of this runs outside the tests, so none of it ships in ``medembed``:

* median graphs: the edge classes by the distance condition (two BFS rows
  per class, ``distance_condition_sides``) and by the closure of square
  opposition (``square_closure_classes``), unique medians of vertex
  triples (``validate_median``), the cube path walked one step at a time
  on the distance-condition classes (``normal_cube_path``), the largest
  pairwise square-closing set of edges at a vertex
  (``dimension_by_cliques``), the vertex-by-class separator matrix
  (``separators``) and (neighbour, edge id) lists (``adj``);
* trees: the root path's keys (``geodesic_edges``) and the meeting point
  of two vertices (``meeting_point``), by walking the parent array; the
  heights, subtree sizes and preorder, one depth level at a time
  (``preorder_by_levels``); every pair's depth triple with pair counts
  (``depth_triples``) and the exhaustive profile folded from the closed
  form of every distinct triple (``triple_entries``), the reference of
  the package's fold by extreme meeting depths;
* the Gram: squared row norms of a scipy CSR matrix (``sq_row_norms``),
  squared distances of all row pairs as Gram blocks of about
  BLOCK_ENTRIES pairs (``_sq_distance_blocks``) and the exhaustive
  profile folded from them (``_exhaustive_entries``), the reference of
  the package's fold and pair-kernel routes;
* weights: the least integer past which the paper formula increases
  (``find_monotone_cutoff``, by root finding), partial sums of w^2
  (``sq_partial_sum``, ``sq_partial_sums``) and the deficit scan on its
  own (``deficit_scan``, ``deficit_constant``).

None of the median-graph oracles reads the cube-path forest: they use the
BFS of ``Graph.distances_from``, ``dist_root`` and the edge arrays.
``adj``, ``separators`` and the walk classes are computed once per graph
and dropped with it.
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from medembed import tree as tree_module
from medembed.cube import CHUNK_BYTES, MedianGraph
from medembed.errors import CubeSpanError, NonTerminationError, SideComputationError
from medembed.metrics import _ProfileAccumulator, _triple_sq_distances
from medembed.sparse import BLOCK_ENTRIES, LEVEL_ENTRIES, ranges
from medembed.tree import RootedTree
from medembed.weights import WeightFunction, _deficit_maxima, paper_formula

if TYPE_CHECKING:
    import scipy.sparse as sp


def _per_graph(fn):
    """``fn(g)``, computed once per graph and dropped with the graph."""
    cache: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    @functools.wraps(fn)
    def cached(g):
        if g not in cache:
            cache[g] = fn(g)
        return cache[g]

    return cached


# -- median graphs -------------------------------------------------------------


@dataclass(frozen=True)
class CubeStep:
    entry: int
    crossed: frozenset[int]  # hyperplane basis keys
    exit: int


@dataclass(frozen=True)
class NormalCubePath:
    """Cube path from ``start`` to the base vertex; length is the step
    count and index_map sends each crossed hyperplane key to its step."""

    start: int
    steps: tuple[CubeStep, ...]
    index_map: dict[int, int] = field(repr=False)

    @property
    def length(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class MedianVerdict:
    valid: bool
    triples_checked: int
    violation: Optional[tuple[int, int, int]] = None
    median_count: Optional[int] = None


@_per_graph
def adj(g: MedianGraph) -> list[list[tuple[int, int]]]:
    """(neighbour, edge id) lists in edge-id order, for the oracles'
    walks."""
    out: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for eid, (u, v) in enumerate(zip(g.eu.tolist(), g.ev.tolist())):
        out[u].append((v, eid))
        out[v].append((u, eid))
    return out


@_per_graph
def separators(g: MedianGraph):
    """0/1 matrix with a row per vertex and a column per hyperplane:
    1 where the hyperplane separates the vertex from the base vertex,
    the keys its cube path crosses."""
    import scipy.sparse as sp  # slow to import, so only callers pay for it

    forest = g.forest()
    indptr, cls, _ = forest.rows(np.arange(g.n), [])
    return sp.csr_matrix((np.ones(len(cls), dtype=np.int32), cls, indptr),
                         shape=(g.n, forest.key_count))


@_per_graph
def _walk_classes(g: MedianGraph) -> np.ndarray:
    """The classes of ``distance_condition_sides``, computed once per
    graph for the walks of ``normal_cube_path``; ``forest()`` never
    reads them."""
    return distance_condition_sides(g)[1]


def _neighbor_across(g: MedianGraph, v: int, hyp: int, hoe) -> Optional[int]:
    found = None
    for nbr, eid in adj(g)[v]:
        if hoe[eid] == hyp:
            if found is not None:
                raise CubeSpanError(
                    f"two edges at vertex {v} cross the same hyperplane")
            found = nbr
    return found


def _cross_cube(g: MedianGraph, x: int, legs: list[tuple[int, int]], hoe) -> int:
    """Verify that the legs (hyperplane id, neighbor) span a cube at x
    and return the diagonally opposite corner."""
    if len(legs) == 1:
        return legs[0][1]
    hyps = [h for h, _ in legs]
    if len(set(hyps)) != len(hyps):
        raise CubeSpanError(f"parallel downward edges at vertex {x}")
    corner: dict[frozenset, int] = {frozenset(): x}
    for h, nbr in legs:
        corner[frozenset([h])] = nbr
    for size in range(2, len(hyps) + 1):
        for combo in itertools.combinations(hyps, size):
            fs = frozenset(combo)
            target = None
            for h in combo:
                base = corner[fs - {h}]
                nb = _neighbor_across(g, base, h, hoe)
                if nb is None:
                    raise CubeSpanError(
                        f"downward edges at vertex {x} do not span a cube")
                if target is None:
                    target = nb
                elif target != nb:
                    raise CubeSpanError(
                        f"cube at vertex {x} does not close up")
            corner[fs] = target
    return corner[frozenset(hyps)]


def _step(g: MedianGraph, x: int, hoe) -> tuple[tuple[int, ...], int]:
    """Crossed hyperplane ids and exit corner of the cube-path step
    leaving x toward the root, with edge classes ``hoe``."""
    dist = g.dist_root
    legs = [
        (int(hoe[eid]), nbr)
        for nbr, eid in adj(g)[x]
        if dist[nbr] < dist[x]
    ]
    if not legs:
        raise NonTerminationError(f"no downward edge at vertex {x}")
    exit_vertex = _cross_cube(g, x, legs, hoe)
    return tuple(sorted(h for h, _ in legs)), exit_vertex


def validate_median(
    g: MedianGraph, triple_budget: int = 200_000, seed: int = 0
) -> MedianVerdict:
    """Check unique-median existence over vertex triples.

    Exhaustive when the triple count fits the budget, otherwise a seeded
    sample drawn from a vertex pool sized so the pool's triples cover the
    budget. The median of (u, v, w) is the intersection of the three
    pairwise intervals I(p, q) = {x : d(p,x) + d(x,q) = d(p,q)}, one packed
    bit row per pool pair. Triples are checked in order, CHUNK_BYTES of
    rows at a time; the first whose median count is not 1 is a violation.
    """
    n = g.vertex_count
    if n < 3:
        return MedianVerdict(valid=True, triples_checked=0)
    total = n * (n - 1) * (n - 2) // 6
    if total <= triple_budget:
        pool = np.arange(n)
        triples = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(n), 3)),
            dtype=np.int64, count=3 * total).reshape(-1, 3)
    else:
        rng = np.random.default_rng(seed)
        p = min(n, max(8, int(round((6.0 * triple_budget) ** (1.0 / 3.0))) + 2))
        pool = np.sort(rng.choice(n, size=p, replace=False))
        draws = rng.integers(0, p, size=(int(triple_budget * 1.3), 3))
        distinct = (
            (draws[:, 0] != draws[:, 1])
            & (draws[:, 1] != draws[:, 2])
            & (draws[:, 0] != draws[:, 2])
        )
        triples = draws[distinct][:triple_budget]
    rows = g.distances_from(pool).astype(np.int64)
    # slot[i, j] is the interval row of pool pair {i, j}
    a, b = np.triu_indices(len(pool), 1)
    slot = np.zeros((len(pool), len(pool)), dtype=np.int64)
    slot[a, b] = slot[b, a] = np.arange(len(a))
    intervals = np.empty((len(a), (n + 7) // 8), dtype=np.uint8)
    step = max(1, CHUNK_BYTES // (8 * n))
    for s in range(0, len(a), step):
        i, j = a[s:s + step], b[s:s + step]
        between = rows[i] + rows[j] == rows[i, pool[j]][:, None]
        intervals[s:s + step] = np.packbits(between, axis=1)
    step = max(1, CHUNK_BYTES // (3 * intervals.shape[1]))
    for s in range(0, len(triples), step):
        i, j, k = triples[s:s + step].T
        medians = np.bitwise_count(intervals[slot[i, j]] & intervals[slot[j, k]]
                                   & intervals[slot[i, k]]).sum(axis=1)
        bad = np.flatnonzero(medians != 1)
        if len(bad):
            t = int(bad[0])
            return MedianVerdict(valid=False, triples_checked=s + t + 1,
                                 violation=tuple(pool[triples[s + t]].tolist()),
                                 median_count=int(medians[t]))
    return MedianVerdict(valid=True, triples_checked=len(triples))


def normal_cube_path(g: MedianGraph, v: int) -> NormalCubePath:
    """Greedy maximal cube path from v to the base vertex, walked one
    step at a time on the classes of ``distance_condition_sides`` (found
    once per graph); the oracle for the forest, which it does not read.

    Each step crosses every hyperplane that is adjacent at the current
    vertex and has it on its far side; the crossed set must span a
    cube (verified constructively) and the walk exits at its opposite
    corner, which must be as many edges nearer the base as the step
    crosses hyperplanes.
    """
    if not 0 <= v < g.vertex_count:
        raise ValueError(f"unknown vertex {v}")
    hoe = _walk_classes(g)
    dist = g.dist_root
    steps = []
    index_map: dict[int, int] = {}
    x = v
    while x != g.root:
        hyps, exit_vertex = _step(g, x, hoe)
        if dist[exit_vertex] != dist[x] - len(hyps):
            raise NonTerminationError(
                f"cube path step from {x} does not shorten the path by "
                f"the {len(hyps)} hyperplanes it crosses")
        keys = frozenset(hyps)
        for key in keys:
            index_map[key] = len(steps) + 1
        steps.append(CubeStep(entry=x, crossed=keys, exit=exit_vertex))
        x = exit_vertex
    return NormalCubePath(start=v, steps=tuple(steps), index_map=index_map)


def distance_condition_sides(g: MedianGraph) -> tuple[np.ndarray, np.ndarray]:
    """Far-side rows, one per vertex with the classes separating it from
    the base vertex packed eight a byte (``np.packbits``), and the class of
    every edge, by the distance condition with two BFS rows per class.

    The BFS rows da, db of a representative edge (a, b) split the
    vertices into the halfspaces W_ab = {da < db} and W_ba; the class
    is the set of edges crossing between them, numbered in order of
    its first edge. Each halfspace is connected (a shortest path to a
    stays in W_ab). A vertex with da == db (not bipartite) or
    overlapping classes raise SideComputationError. Independent of the
    forest; the cache of ``g`` is left as it is.

    A BFS pays a few numpy calls per level whatever its number of sources,
    so the rows come in batches: those of the next unassigned edges, about
    LEVEL_ENTRIES entries at a time, of which an edge assigned by the time
    its turn comes is skipped.
    """
    eu, ev = g.eu, g.ev
    assigned = np.full(g.edge_count, -1, dtype=np.int64)
    sides: list[np.ndarray] = []
    batch = max(1, LEVEL_ENTRIES // (2 * g.vertex_count))
    rows: dict[int, np.ndarray] = {}
    for e0 in range(g.edge_count):
        if assigned[e0] >= 0:
            continue
        if e0 not in rows:
            edges = e0 + np.flatnonzero(assigned[e0:] < 0)[:batch]
            block = g.distances_from(np.stack([eu[edges], ev[edges]], axis=1).ravel())
            rows = dict(zip(edges.tolist(), block.reshape(len(edges), 2, -1)))
        da, db = rows[e0]
        if (da == db).any():
            raise SideComputationError(
                f"a vertex is equidistant from the ends of edge {e0}; not bipartite")
        far = (da < db) != (da[g.root] < db[g.root])
        members = np.flatnonzero(far[eu] != far[ev])
        if (assigned[members] >= 0).any():
            raise SideComputationError(
                "edge classes overlap; graph is not a partial cube")
        assigned[members] = len(sides)
        sides.append(far)
    far = np.asarray(sides, dtype=bool).reshape(-1, g.vertex_count)
    return np.packbits(far.T, axis=1), assigned


def square_closure_classes(g: MedianGraph) -> np.ndarray:
    """Edge classes as the transitive closure of square opposition.

    Independent of the distance-condition route; quadratic in local
    degree, intended for desk-scale cross-checks.
    """
    m = g.edge_count
    parent = list(range(m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    nbr_edge = [dict(adj(g)[v]) for v in range(g.vertex_count)]
    dist = g.dist_root
    for v in range(g.vertex_count):
        up = [(nbr, eid) for nbr, eid in adj(g)[v] if dist[nbr] > dist[v]]
        for (a, ea), (b, eb) in itertools.combinations(up, 2):
            for w_vertex, ew in adj(g)[a]:
                if w_vertex == v or dist[w_vertex] != dist[v] + 2:
                    continue
                eb2 = nbr_edge[b].get(w_vertex)
                if eb2 is not None:
                    union(ea, eb2)
                    union(eb, ew)
    labels = np.asarray([find(e) for e in range(m)])
    _, canonical = np.unique(labels, return_inverse=True)
    return canonical


def dimension_by_cliques(g: MedianGraph) -> int:
    """Largest set of edges at one vertex that pairwise close squares.

    Exponential in local degree; cross-check oracle for ``dimension``.
    """
    best = 0
    adj_sets = [set(nbr for nbr, _ in adj(g)[v]) for v in range(g.vertex_count)]
    for v in range(g.vertex_count):
        nbrs = [nbr for nbr, _ in adj(g)[v]]
        k = len(nbrs)
        square = [[False] * k for _ in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                common = (adj_sets[nbrs[i]] & adj_sets[nbrs[j]]) - {v}
                square[i][j] = square[j][i] = bool(common)
        for mask in range(1, 1 << k):
            members = [i for i in range(k) if mask >> i & 1]
            if len(members) <= best:
                continue
            if all(square[a][b] for a, b in itertools.combinations(members, 2)):
                best = len(members)
    return best


# -- trees ----------------------------------------------------------------------


def geodesic_edges(tree: RootedTree, v: int) -> list[int]:
    """Basis keys of the edges of the path from v to the root, in order
    starting at v. The list length equals depth(v)."""
    if not 0 <= v < tree.vertex_count:
        raise ValueError(f"unknown vertex {v}")
    keys = []
    while v != tree.root:
        keys.append(tree.edge_key(v))
        v = int(tree.parent[v])
    return keys


def meeting_point(tree: RootedTree, u: int, v: int) -> int:
    """Deepest common ancestor of u and v (simultaneous upward walk)."""
    n = tree.vertex_count
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError("unknown vertex id")
    du, dv = int(tree.depth[u]), int(tree.depth[v])
    while du > dv:
        u = int(tree.parent[u]); du -= 1
    while dv > du:
        v = int(tree.parent[v]); dv -= 1
    while u != v:
        u = int(tree.parent[u])
        v = int(tree.parent[v])
    return u


# int64 words held per entry of h_k, q_k (``depth_triples``) while they are
# built, and per entry of q_k's support, which gives up to two rows per
# offset of (a, s, count) and of the profile fold's arrays over them
_ENTRY_WORDS, _ROW_WORDS = 8, 24


def preorder_by_levels(tree: RootedTree):
    """Height, subtree size and preorder position of every vertex, in a
    preorder that visits the children of a vertex by height, then id: one
    pass up the depth levels for heights and sizes, one pass down for the
    positions."""
    order = np.argsort(tree.depth, kind="stable")
    ptr = np.searchsorted(tree.depth[order], np.arange(tree.depth.max() + 2))
    levels = [order[lo:hi] for lo, hi in zip(ptr[1:-1], ptr[2:])]
    height = np.zeros(tree.n, dtype=np.int64)
    size = np.ones(tree.n, dtype=np.int64)
    for vs in reversed(levels):
        np.maximum.at(height, tree.parent[vs], height[vs] + 1)
        np.add.at(size, tree.parent[vs], size[vs])
    tin = np.zeros(tree.n, dtype=np.int64)
    for vs in levels:
        vs = vs[np.lexsort((vs, height[vs], tree.parent[vs]))]
        p = tree.parent[vs]
        before = np.cumsum(size[vs]) - size[vs]
        first = np.flatnonzero(np.r_[True, p[1:] != p[:-1]])
        before -= np.repeat(before[first], np.diff(np.r_[first, len(vs)]))
        tin[vs] = tin[p] + 1 + before
    return height, size, tin


def depth_triples(tree: RootedTree):
    """Every pair of distinct vertices as a triple (a, b, s): the pair
    meets at depth s and lies a <= b edges below its meeting point.
    Yields, one offset c = b - a at a time, arrays (a, s, count):
    count pairs have the triple (a, a + c, s). Counts are positive; a
    triple may take several rows.

    A vertex at depth s and a descendant at depth s + c are (0, c, s);
    each of the N[s + c] vertices at that depth has one such ancestor.
    The other pairs meet at a vertex m with two or more children. With
    the children in order of height, the pairs with one end at depth a
    below m in child k's subtree and the other at depth b in an earlier
    child's number h_k[a] * q_k[b]: h_k counts k's subtree by depth below
    m and q_k the earlier children's subtrees, which form one interval of
    a preorder that visits children in that order. The h_k, q_k rows are
    built for ``medembed.tree.CHUNK_BYTES`` worth of children at a time,
    and each chunk runs through its offsets.
    """
    n_at = np.bincount(tree.depth)
    top = len(n_at) - 1
    for c in range(1, top + 1):
        yield (c, np.zeros(top + 1 - c, dtype=np.int64),
               np.arange(top + 1 - c), n_at[c:])
    height, size, tin = preorder_by_levels(tree)
    kids = np.bincount(tree.parent[tree.eu], minlength=tree.n)
    child = tree.eu[kids[tree.ev] >= 2]
    child = child[np.lexsort((child, height[child], tree.parent[child]))]
    later = np.flatnonzero(tree.parent[child][1:] == tree.parent[child][:-1]) + 1
    k, prev = child[later], child[later - 1]
    m = tree.parent[k]
    seg_len, seg_plen = height[k] + 1, height[prev] + 1
    # vertices by (depth, preorder position): those at depth d in the
    # preorder interval [lo, hi) lie between the insertion points of
    # d*n + lo and d*n + hi
    keys = np.sort(tree.depth * tree.n + tin)
    words = _ENTRY_WORDS * seg_len + _ROW_WORDS * seg_plen
    chunk = (np.cumsum(words) - words) // max(1, tree_module.CHUNK_BYTES // 8)
    for g in np.split(np.arange(len(k)), np.flatnonzero(np.diff(chunk)) + 1):
        if not len(g):
            continue
        # one entry per child k and depth a = 1..height(k) + 1 below m;
        # q_k is zero below the earlier children's depth plen
        lens, plens = seg_len[g], seg_plen[g]
        start = np.cumsum(lens) - lens
        seg = np.repeat(np.arange(len(g)), lens)
        a = np.arange(len(seg)) - start[seg] + 1
        s = tree.depth[m[g]][seg]
        base = (s + a) * tree.n
        at = np.searchsorted(keys, base + tin[k[g]][seg])
        h = np.searchsorted(keys, base + (tin[k[g]] + size[k[g]])[seg]) - at
        q = at - np.searchsorted(keys, base + tin[m[g]][seg])
        for c in range(int(lens.max())):
            # k's end at depth a, the other at a + c (up) or a - c (down)
            up = ranges(start, plens - c)
            down = ranges(start + c, np.minimum(lens - c, plens)) if c else up[:0]
            yield (c, np.concatenate([a[up], a[down] - c]),
                   np.concatenate([s[up], s[down]]),
                   np.concatenate([h[up] * q[up + c], h[down] * q[down - c]]))


def triple_entries(tree: RootedTree, w: WeightFunction):
    """All pairs of a tree, folded one offset at a time from its depth
    triples (``depth_triples``) at t = a + b: the closed form of every
    distinct triple, weighted by its pair count."""
    table = tree.forest().weight_table(w)
    sq = np.cumsum(table * table)
    acc = _ProfileAccumulator()
    for c, a, s, count in depth_triples(tree):
        acc.add(2 * a + c, np.sqrt(_triple_sq_distances(table, sq, c, a, s)), count)
    return acc.entries()


# -- the Gram -------------------------------------------------------------------


def sq_row_norms(mat: sp.csr_matrix) -> np.ndarray:
    """Squared Euclidean norm of each row."""
    return np.asarray(mat.multiply(mat).sum(axis=1)).ravel()


def _sq_distance_blocks(mat):
    """Squared distances between the rows of the CSR matrix ``mat`` for
    all pairs u < v, max(1, BLOCK_ENTRIES // n) rows u at a time: yields
    the block, the mask of pairs v > u in the block x [block[0], n)
    window, and the flat array of their squared distances in mask order.
    Each block's dots are ``mat[block] @ mat[block[0]:].T``. A block spans
    at most max(BLOCK_ENTRIES, n) pairs."""
    n = mat.shape[0]
    rows = max(1, BLOCK_ENTRIES // n)
    nsq = sq_row_norms(mat)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        block = np.arange(start, stop)
        mask = np.arange(start, n)[None, :] > block[:, None]
        d2 = (mat[start:stop] @ mat[start:].T).toarray()
        d2 *= -2.0  # in place, bit for bit (|u|^2 + |v|^2) - 2 u.v
        d2 += nsq[start:stop, None] + nsq[None, start:]
        d2 = d2[mask]  # frees the dense block
        yield block, mask, d2
        del d2  # before the next product allocates


def _exhaustive_entries(space, w: WeightFunction):
    """All pairs by Gram blocks of the weight-w rows; each block's t is
    read off the cube-path forest (``forest_distances``). On trees this
    is the tests' oracle of ``_tree_entries``."""
    mat = space.embedding_matrix(w, np.arange(space.vertex_count))
    acc = _ProfileAccumulator()
    for block, mask, emb_sq in _sq_distance_blocks(mat):
        t = space.forest_distances(block)[:, block[0]:][mask]
        acc.add(t, np.sqrt(np.clip(emb_sq, 0.0, None, out=emb_sq), out=emb_sq))
        del t, emb_sq  # before the next block is computed
    return acc.entries()


# -- weights --------------------------------------------------------------------


def find_monotone_cutoff() -> int:
    """Least integer M such that the raw weight formula increases on [M, inf).

    The derivative is positive exactly when u - 1 - 2/ln(u) > 0 for
    u = ln t; the unique root of that expression gives the threshold.
    """
    from scipy.optimize import brentq

    u = brentq(lambda u: u - 1.0 - 2.0 / math.log(u), 1.0 + 1e-9, 10.0)
    m = math.ceil(math.exp(u))
    # Sanity: decreasing into m, increasing from m on (short scan).
    ts = np.arange(m - 1, m + 64, dtype=np.float64)
    vals = paper_formula(ts)
    if not (vals[1] < vals[0] and np.all(np.diff(vals[1:]) > 0)):
        raise RuntimeError("monotone cutoff scan disagrees with the root")
    return m


def sq_partial_sum(w: WeightFunction, n: int) -> float:
    """Sum of w(i)^2 for i = 1 .. n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    vals = w.values(np.arange(1, n + 1, dtype=np.float64))
    return float(np.dot(vals, vals))


def sq_partial_sums(w: WeightFunction, n: int) -> np.ndarray:
    """Vector of partial sums of w(i)^2; entry k-1 holds the sum to k."""
    vals = w.values(np.arange(1, n + 1, dtype=np.float64))
    return np.cumsum(vals * vals)


def deficit_scan(w: WeightFunction, n_max: int) -> tuple[float, int]:
    """Scan the deficit N*w(N)^2/2 - sum_{i<=N} w(i)^2 over N <= n_max.

    Returns (max deficit clamped at 0, index attaining the maximum).  The
    returned constant C makes sum_{i<=N} w(i)^2 >= N*w(N)^2/2 - C hold for
    every N in the scanned range.  Runs ``weights.SCAN_CHUNK`` points at a
    time (``weights._deficit_maxima``); each chunk's cumulative sum starts
    from the last one's, so the sums, the constant and the first index
    attaining it are those of one whole-array scan.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return _deficit_maxima(w, (n_max,))[0]


def deficit_constant(w: WeightFunction, n_max: int) -> float:
    """Verified constant for the partial-sum lower bound on [1, n_max]."""
    return deficit_scan(w, n_max)[0]
