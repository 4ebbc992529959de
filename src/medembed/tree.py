"""Rooted locally finite trees with unit edges and their weighted embedding.

A tree is stored as a parent array over vertex ids 0..n-1; the edge from a
non-root vertex v to parent(v) carries the basis key v.  As a ``sparse.Graph``
its edges are the non-root vertices and their parents, and its depths come
from the parent array by pointer doubling, without a BFS or scipy.  The
embedding of a vertex V places weight w(i) on the i-th edge of the path
from V back to the root, counted from V.  As a cube-path forest, a tree
exits each vertex to its parent and crosses the single key of that edge.

A pair's embedded distance depends only on its depth triple: the depth
of its meeting point and the lengths a <= b of the two branches below
it. An exhaustive profile needs, per distance t = a + b, the pair count
(``distance_counts``, exact, from subtree depth histograms) and, per
(a, b), only the least and greatest meeting depth (``meeting_extremes``,
read off the heights of each branching vertex's two tallest children),
since the distance grows with the meeting depth.

Trees are immutable after generation and all operations here are pure, so
vertex pairs may be evaluated concurrently without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BudgetExceededError
from .sparse import Graph, PathForest, id_array, step_depths

DEFAULT_VERTEX_BUDGET = 5_000_000
# bytes of work arrays per chunk of the pair fold: the padded depth
# histograms of a chunk of children (``distance_counts``), a row block of
# their product, and the tables of extreme meeting depths over a chunk of
# offsets (``meeting_extremes``)
CHUNK_BYTES = 16 << 20
# int64 words held per histogram entry while it is built, per entry of a
# product block with its sheared copy, and per cell of the extremes'
# tables and of the class placements
_HIST_WORDS, _PRODUCT_WORDS, _EXTREME_WORDS = 6, 3, 6


@dataclass(frozen=True)
class TreeSpec:
    """Generator recipe for a desk-scale tree."""

    kind: str
    length: int = 0       # path
    legs: int = 0         # spider
    leg_len: int = 0      # spider
    depth: int = 0        # binary_sample
    rays: int = 0         # binary_sample
    seed: Optional[int] = None
    spine: int = 0        # caterpillar
    hair: int = 0         # caterpillar

    @classmethod
    def path(cls, length: int) -> "TreeSpec":
        return cls(kind="path", length=length)

    @classmethod
    def spider(cls, legs: int, leg_len: int) -> "TreeSpec":
        return cls(kind="spider", legs=legs, leg_len=leg_len)

    @classmethod
    def binary_sample(cls, depth: int, rays: int, seed: int) -> "TreeSpec":
        return cls(kind="binary_sample", depth=depth, rays=rays, seed=seed)

    @classmethod
    def caterpillar(cls, spine: int, hair: int) -> "TreeSpec":
        return cls(kind="caterpillar", spine=spine, hair=hair)

    def max_vertex_count(self) -> int:
        """Exact vertex count for deterministic kinds, an upper bound for
        binary_sample (rays may share prefixes)."""
        if self.kind == "path":
            return self.length + 1
        if self.kind == "spider":
            return self.legs * self.leg_len + 1
        if self.kind == "binary_sample":
            return self.depth * self.rays + 1
        if self.kind == "caterpillar":
            return (self.spine + 1) * (self.hair + 1)
        raise ValueError(f"unknown tree kind {self.kind!r}")

    def label(self) -> str:
        if self.kind == "path":
            return f"path:{self.length}"
        if self.kind == "spider":
            return f"spider:{self.legs},{self.leg_len}"
        if self.kind == "binary_sample":
            return f"binary-sample:{self.depth},{self.rays},seed{self.seed}"
        return f"caterpillar:{self.spine},{self.hair}"


class RootedTree(Graph):
    """Locally finite rooted tree over vertices 0..n-1, unit edge lengths.

    Edge i joins the non-root vertex ``eu[i]`` (in id order) to its parent
    ``ev[i]`` and carries the key ``eu[i]``.
    """

    def __init__(self, parent, root: int = 0, label: str = ""):
        self.parent = id_array(parent, len(parent))
        super().__init__(len(self.parent), root, label)
        if self.parent[self.root] != self.root:
            raise ValueError("root must be its own parent")
        if ((self.parent < 0) | (self.parent >= self.n)).any():
            raise ValueError("parent ids out of range")
        self.eu = np.flatnonzero(np.arange(self.n) != self.root)
        self.ev = self.parent[self.eu]
        loops = self.eu[self.ev == self.eu]
        if len(loops):
            raise ValueError(f"vertex {loops[0]} is its own parent but not root")
        self.depth = step_depths(self.parent, self.root)
        self._branch_cache = None

    def edge_key(self, v: int) -> int:
        """Basis key of the edge (v, parent(v))."""
        if v == self.root:
            raise ValueError("the root has no parent edge")
        return v

    def forest(self) -> PathForest:
        """The tree as a cube-path forest: exit is the parent, and the
        step out of v crosses the single key v."""
        if self._forest is None:
            self._forest = PathForest(
                root=self.root,
                exit=self.parent,
                step_ptr=np.searchsorted(self.eu, np.arange(self.n + 1)),
                step_keys=self.eu,
                key_count=self.n,
                length=self.depth,
            )
        return self._forest

    def distance_counts(self) -> np.ndarray:
        """Entry t is the number of pairs of distinct vertices at distance
        t, for t = 0..2 * depth.

        A vertex at depth s + c and its ancestor at depth s are c apart, so
        distance c counts every vertex at depth c or more once. The other
        pairs meet at a vertex m with two or more children. With the
        children in order of height, the pairs with one end at depth a below
        m in child k's subtree and the other at depth b in an earlier
        child's number h_k[a] * q_k[b]: h_k counts k's subtree by depth
        below m and q_k the earlier children's subtrees, which form one
        interval of a preorder that visits children in that order. So
        distance t counts the sum over k of the anti-diagonal a + b = t of
        h_k q_k^T, taken for children of like height at once as one integer
        product of their histograms, padded to the longest: sum_k h_k q_k^T
        has (a, b) entry the pairs at (a, b), so every partial sum is a count
        of pairs and exact.
        """
        n_at = np.bincount(self.depth)
        top = len(n_at) - 1
        total = np.zeros(2 * top + 1, dtype=np.int64)
        total[1:top + 1] = np.cumsum(n_at[::-1])[::-1][1:]
        height, size, tin, k, prev = self._branches()
        m, lens, plens = self.parent[k], height[k] + 1, height[prev] + 1
        # vertices by (depth, preorder position): those at depth d in the
        # preorder interval [lo, hi) lie between the insertion points of
        # d*n + lo and d*n + hi
        keys = np.sort(self.depth * self.n + tin)

        def histograms(g, lo, hi, width):
            """Row a - 1 counts, for each child k of g, the vertices at
            depth a below m whose preorder position lies in [lo, hi)."""
            base = (np.arange(1, width + 1)[:, None] + self.depth[m[g]]) * self.n
            return np.searchsorted(keys, base + hi[g]) - np.searchsorted(keys, base + lo[g])

        budget = max(1, CHUNK_BYTES // 8)
        # children of like height, lengths within a factor of two, each
        # group by (depth of m, preorder of k), so that the insertion points
        # of every depth a ascend
        group = np.frexp(lens)[1]
        order = np.lexsort((tin[k], self.depth[m], group))
        k, m, lens, plens, group = k[order], m[order], lens[order], plens[order], group[order]
        for like in np.split(np.arange(len(k)), np.flatnonzero(np.diff(group)) + 1):
            if not len(like):
                continue
            width, pwidth = int(lens[like].max()), int(plens[like].max())
            step = max(1, budget // (_HIST_WORDS * (width + pwidth)))
            for g in np.split(like, range(step, len(like), step)):
                h = histograms(g, tin[k], tin[k] + size[k], width)
                q = histograms(g, tin[m], tin[k], pwidth)
                rows = max(1, budget // (_PRODUCT_WORDS * pwidth))
                for r in range(0, width, rows):
                    # depths a = r + 1.. and b = 1.. below m, so t = a + b
                    sums = _diagonal_sums(h[r:r + rows] @ q.T)
                    total[r + 2:r + 2 + len(sums)] += sums
        return total

    def meeting_extremes(self):
        """The least and greatest meeting depth of the pairs of distinct
        vertices that lie a and a + c edges below their meeting point, one
        offset c = 0..depth at a time. Yields (c, a, lo, hi): a ascends from
        0 (from 1 at c = 0) through every a that some pair takes with offset
        c, and lo[i], hi[i] are the least and greatest meeting depth at
        a[i].

        A vertex at depth s + c and its ancestor at depth s are (0, c, s)
        for every s = 0..depth - c. Two ends at depths 1 <= a <= b below a
        vertex m, in different child subtrees, exist exactly when the two
        tallest child subtrees of m reach depths x <= y below m with a <= x
        and b <= y. So with r = min(x, y - c), the meeting depths at
        (a, a + c) are the depths of the vertices m with r >= a: lo and hi
        are a suffix minimum and maximum over a of the depths placed at r,
        taken over the distinct (x, y) of the branching vertices, each with
        its least and greatest depth. The tables over (c, a) are built for
        CHUNK_BYTES worth of offsets at a time, and only classes with
        y > c take part in offset c.
        """
        top = int(self.depth.max())
        height, _, _, k, prev = self._branches()
        tallest = np.append(np.diff(self.parent[k]) != 0, True)[:len(k)]
        x, y = height[prev[tallest]] + 1, height[k[tallest]] + 1
        depth = self.depth[self.parent[k[tallest]]]
        cls, inv = np.unique(x * (top + 2) + y, return_inverse=True)
        x, y = cls // (top + 2), cls % (top + 2)
        least, most = np.full(len(cls), top + 1), np.full(len(cls), -1)
        np.minimum.at(least, inv, depth)
        np.maximum.at(most, inv, depth)
        by_y = np.argsort(-y, kind="stable")
        x, y, least, most = x[by_y], y[by_y], least[by_y], most[by_y]
        budget = max(1, CHUNK_BYTES // 8)
        ramp = np.arange(top + 2)
        c0 = 0
        while c0 <= top:
            live = int(np.searchsorted(-y, -c0))  # the classes with y > c0
            width = 1 + int(np.minimum(x[:live], y[:live] - c0).max(initial=0))
            step = max(1, budget // (_EXTREME_WORDS * (live + width)))
            cs = np.arange(c0, min(top + 1, c0 + step))
            lo, hi, last = _extreme_tables(x[:live], y[:live], least[:live], most[:live], cs)
            lo[:, 0], hi[:, 0] = 0, top - cs  # the ancestor pairs
            for i, (c, end) in enumerate(zip(cs.tolist(), (last + 1).tolist())):
                first = 0 if c else 1
                if end > first:
                    yield c, ramp[first:end], lo[i, first:end], hi[i, first:end]
            c0 += len(cs)

    def _branches(self):
        """Height, subtree size and preorder position of every vertex
        (``_preorder``), and each child k of a vertex with an earlier
        sibling, with the sibling prev just before it, the children of a
        vertex in order of height, then id; computed once per tree."""
        if self._branch_cache is None:
            height, size, tin = self._preorder()
            kids = np.bincount(self.parent[self.eu], minlength=self.n)
            child = self.eu[kids[self.ev] >= 2]
            child = child[np.lexsort((child, height[child], self.parent[child]))]
            later = np.flatnonzero(self.parent[child][1:] == self.parent[child][:-1]) + 1
            self._branch_cache = (height, size, tin, child[later], child[later - 1])
        return self._branch_cache

    def _preorder(self):
        """Height, subtree size and preorder position of every vertex, in a
        preorder that visits the children of a vertex by height, then id.
        Each is folded along the parent array by pointer doubling, so the
        rounds number about log2 of the depth: after the round for j,
        ``anc[v]`` is v's 2j-th ancestor (or the root), and ``height`` and
        ``size`` cover the descendants fewer than 2j edges below."""
        top = int(self.depth.max())
        deepest = self.depth.copy()
        size = np.ones(self.n, dtype=np.int64)
        anc, j = self.parent, 1
        while j <= top:
            below = self.depth >= j  # v's j-th ancestor anc[v] exists
            np.maximum.at(deepest, anc[below], deepest[below])
            np.add.at(size, anc[below], size[below])
            anc, j = anc[anc], 2 * j
        height = deepest - self.depth
        # tin[v] = tin[parent] + 1 + the sizes of v's earlier siblings,
        # summed along the root path
        vs = self.eu[np.lexsort((self.eu, height[self.eu], self.ev))]
        p = self.parent[vs]
        before = np.cumsum(size[vs]) - size[vs]
        first = np.flatnonzero(np.r_[True, p[1:] != p[:-1]])
        before -= np.repeat(before[first], np.diff(np.r_[first, len(vs)]))
        tin = np.zeros(self.n, dtype=np.int64)
        tin[vs] = before
        anc, j = self.parent, 1
        while j <= top:
            tin += tin[anc]
            anc, j = anc[anc], 2 * j
        return height, size, tin + self.depth


def _extreme_tables(x, y, least, most, cs):
    """Over the classes (x, y) with least and greatest depths ``least``,
    ``most``: row i of (lo, hi) holds at column a >= 1 the least and the
    greatest depth of the classes with min(x, y - cs[i]) >= a, and last[i]
    is the largest such a (0 if there is none). Column 0 is left unset."""
    r = np.maximum(np.minimum(x, y - cs[:, None]), 0)
    last = r.max(axis=1, initial=0)
    width = int(last.max(initial=0)) + 1
    at = (np.arange(len(cs))[:, None] * width + r).ravel()
    lo = np.full((len(cs), width), np.iinfo(np.int64).max)
    hi = np.full((len(cs), width), -1)
    np.minimum.at(lo.ravel(), at, np.broadcast_to(least, r.shape).ravel())
    np.maximum.at(hi.ravel(), at, np.broadcast_to(most, r.shape).ravel())
    # a class placed at r takes part at every a <= r
    lo = np.minimum.accumulate(lo[:, ::-1], axis=1)[:, ::-1]
    hi = np.maximum.accumulate(hi[:, ::-1], axis=1)[:, ::-1]
    return lo, hi, last


def _diagonal_sums(block: np.ndarray) -> np.ndarray:
    """The sums of the anti-diagonals i + j = 0, 1, .. of a 2-d integer
    array, exact: its rows are sheared one place each into a padded copy of
    the shorter side, whose columns are then summed."""
    if block.shape[0] > block.shape[1]:
        block = block.T
    rows, cols = block.shape
    sheared = np.zeros((rows, cols + rows), dtype=block.dtype)
    sheared[:, :cols] = block
    return sheared.ravel()[:rows * (cols + rows - 1)].reshape(rows, -1).sum(axis=0)


def gen_tree(spec: TreeSpec, max_vertices: int = DEFAULT_VERTEX_BUDGET) -> RootedTree:
    """Build the tree described by ``spec``; deterministic given its seed."""
    declared = spec.max_vertex_count()
    if declared > max_vertices:
        raise BudgetExceededError(
            f"{spec.label()} declares up to {declared} vertices, "
            f"budget is {max_vertices}")
    if spec.kind == "path":
        if spec.length < 1:
            raise ValueError("path length must be positive")
        parent = np.arange(-1, spec.length)
        parent[0] = 0
    elif spec.kind == "spider":
        if spec.legs < 1 or spec.leg_len < 1:
            raise ValueError("spider parameters must be positive")
        parent = np.arange(-1, declared - 1)
        parent[0] = 0
        parent[1::spec.leg_len] = 0  # the first vertex of each leg
    elif spec.kind == "caterpillar":
        if spec.spine < 1 or spec.hair < 0:
            raise ValueError("caterpillar parameters must be positive")
        spine = np.arange(spec.spine + 1)
        parent = np.concatenate([[0], spine[:-1], np.repeat(spine, spec.hair)])
    elif spec.kind == "binary_sample":
        if spec.depth < 1 or spec.rays < 1:
            raise ValueError("binary_sample parameters must be positive")
        if spec.rays > 2 ** min(spec.depth, 62):
            raise ValueError("more rays than root-to-leaf paths")
        if spec.seed is None:
            raise ValueError("binary_sample requires a seed")
        rng = np.random.default_rng(spec.seed)
        bits = rng.integers(0, 2, size=(spec.rays, spec.depth))
        # The ray prefixes, one depth at a time: node (parent, bit), first
        # reached by ray ``first``; node 0 is the root, the rest by depth.
        node = np.zeros(spec.rays, dtype=np.int64)
        ups, firsts = [], []
        count = 1
        for d in range(spec.depth):
            key, first, inverse = np.unique(node * 2 + bits[:, d], return_index=True,
                                            return_inverse=True)
            ups.append(key // 2)
            firsts.append(first)
            node = count + inverse
            count += len(key)
        # Vertex ids in the order a ray-by-ray walk creates the nodes: by
        # first ray, then by depth.
        level = np.repeat(np.arange(spec.depth), [len(f) for f in firsts])
        vid = np.zeros(count, dtype=np.int64)
        vid[1 + np.lexsort((level, np.concatenate(firsts)))] = np.arange(1, count)
        parent = np.zeros(count, dtype=np.int64)
        parent[vid[1:]] = vid[np.concatenate(ups)]
    else:
        raise ValueError(f"unknown tree kind {spec.kind!r}")
    return RootedTree(parent, root=0, label=spec.label())
