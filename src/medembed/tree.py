"""Rooted locally finite trees with unit edges and their weighted embedding.

A tree is stored as a parent array over vertex ids 0..n-1; the edge from a
non-root vertex v to parent(v) carries the basis key v.  As a ``sparse.Graph``
its edges are the non-root vertices and their parents, and its depths come
from the parent array by pointer doubling, without a BFS or scipy.  The
embedding of a vertex V places weight w(i) on the i-th edge of the path
from V back to the root, counted from V.  As a cube-path forest, a tree
exits each vertex to its parent and crosses the single key of that edge.

A pair's embedded distance depends only on its depth triple: the depth
of its meeting point and the lengths of the two branches below it.
``depth_triples`` lists the triples of all pairs, with pair counts, and
an exhaustive profile is folded from them.

Trees are immutable after generation and all operations here are pure, so
vertex pairs may be evaluated concurrently without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BudgetExceededError
from .sparse import Graph, PathForest, id_array, ranges, step_depths

DEFAULT_VERTEX_BUDGET = 5_000_000
CHUNK_BYTES = 16 << 20  # bytes of depth histograms and their rows per chunk
# int64 words held per entry of h_k, q_k (depth_triples) while they are
# built, and per entry of q_k's support, which gives up to two rows per
# offset of (a, s, count) and of the profile fold's arrays over them
_ENTRY_WORDS, _ROW_WORDS = 8, 24


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

    def depth_triples(self):
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
        child's number h_k[a] * q_k[b]: h_k counts k's subtree by depth
        below m and q_k the earlier children's subtrees, which form one
        interval of a preorder that visits children in that order. The
        h_k, q_k rows are built for CHUNK_BYTES worth of children at a
        time, and each chunk runs through its offsets.
        """
        n_at = np.bincount(self.depth)
        top = len(n_at) - 1
        for c in range(1, top + 1):
            yield (c, np.zeros(top + 1 - c, dtype=np.int64),
                   np.arange(top + 1 - c), n_at[c:])
        height, size, tin = self._preorder()
        kids = np.bincount(self.parent[self.eu], minlength=self.n)
        child = self.eu[kids[self.ev] >= 2]
        child = child[np.lexsort((child, height[child], self.parent[child]))]
        later = np.flatnonzero(self.parent[child][1:] == self.parent[child][:-1]) + 1
        k, prev = child[later], child[later - 1]
        m = self.parent[k]
        seg_len, seg_plen = height[k] + 1, height[prev] + 1
        # vertices by (depth, preorder position): those at depth d in the
        # preorder interval [lo, hi) lie between the insertion points of
        # d*n + lo and d*n + hi
        keys = np.sort(self.depth * self.n + tin)
        words = _ENTRY_WORDS * seg_len + _ROW_WORDS * seg_plen
        chunk = (np.cumsum(words) - words) // max(1, CHUNK_BYTES // 8)
        for g in np.split(np.arange(len(k)), np.flatnonzero(np.diff(chunk)) + 1):
            if not len(g):
                continue
            # one entry per child k and depth a = 1..height(k) + 1 below m;
            # q_k is zero below the earlier children's depth plen
            lens, plens = seg_len[g], seg_plen[g]
            start = np.cumsum(lens) - lens
            seg = np.repeat(np.arange(len(g)), lens)
            a = np.arange(len(seg)) - start[seg] + 1
            s = self.depth[m[g]][seg]
            base = (s + a) * self.n
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

    def _preorder(self):
        """Height, subtree size and preorder position of every vertex, in a
        preorder that visits the children of a vertex by height, then id."""
        order = np.argsort(self.depth, kind="stable")
        ptr = np.searchsorted(self.depth[order], np.arange(self.depth.max() + 2))
        levels = [order[lo:hi] for lo, hi in zip(ptr[1:-1], ptr[2:])]
        height = np.zeros(self.n, dtype=np.int64)
        size = np.ones(self.n, dtype=np.int64)
        for vs in reversed(levels):
            np.maximum.at(height, self.parent[vs], height[vs] + 1)
            np.add.at(size, self.parent[vs], size[vs])
        tin = np.zeros(self.n, dtype=np.int64)
        for vs in levels:
            vs = vs[np.lexsort((vs, height[vs], self.parent[vs]))]
            p = self.parent[vs]
            before = np.cumsum(size[vs]) - size[vs]
            first = np.flatnonzero(np.r_[True, p[1:] != p[:-1]])
            before -= np.repeat(before[first], np.diff(np.r_[first, len(vs)]))
            tin[vs] = tin[p] + 1 + before
        return height, size, tin


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
