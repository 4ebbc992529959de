"""Rooted locally finite trees with unit edges and their weighted embedding.

A tree is stored as a parent array over vertex ids 0..n-1; the edge from a
non-root vertex v to parent(v) carries the basis key v.  As a ``sparse.Graph``
its edges are the non-root vertices and their parents, and its depths are
the BFS row of the root.  The embedding of a vertex V places weight w(i) on
the i-th edge of the path from V back to the root, counted from V.  As a
cube-path forest, a tree exits each vertex to its parent and crosses the
single key of that edge.

Trees are immutable after generation and all operations here are pure, so
vertex pairs may be evaluated concurrently without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BudgetExceededError
from .sparse import Graph, PathForest, id_array

DEFAULT_VERTEX_BUDGET = 5_000_000


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
        # A parent array with a cycle leaves the cycle's vertices unreached.
        self.depth = self._root_distances("parent array is not a connected tree")

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
        parents = [0]
        node_child: dict[tuple[int, int], int] = {}
        for ray in bits:
            at = 0
            for b in ray:
                step = (at, int(b))
                nxt = node_child.get(step)
                if nxt is None:
                    nxt = len(parents)
                    parents.append(at)
                    node_child[step] = nxt
                at = nxt
        parent = np.asarray(parents)
    else:
        raise ValueError(f"unknown tree kind {spec.kind!r}")
    return RootedTree(parent, root=0, label=spec.label())


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

