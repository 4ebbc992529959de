"""Median graphs (1-skeleta of cube complexes) and their weighted embedding.

A finite median graph is a ``sparse.Graph``, built from an int64 edge
array whose order fixes the class ids.  Its hyperplanes are the Θ-classes
of edges: edges (a,b) and (c,d) fall together exactly when
d(a,c)+d(b,d) != d(a,d)+d(b,c).
Removing a class splits the graph into a near side (containing the base
vertex) and a far side; for vertices, graph distance equals the number of
classes separating them.  The classes separating a vertex from the base
are the keys its cube path crosses, so the cube-path forest holds them
once and ``separating_counts`` are the forest distances.

The classes (linked across squares, one level down) and the cube paths
come from the levels of the base vertex's BFS row
(``sparse.root_distances``, a numpy level BFS, so building a median graph
and its forest loads no scipy). ``forest()`` relies on two facts about
median graphs (Bénéteau, Chalopin, Chepoi and Vaxès, "Medians in median
graphs and their cube complexes in linear time", ICALP 2020): the vertex
of a far side nearest the base is the one vertex there with a single
down-edge, and any two down-neighbours of a vertex have exactly one
common lower neighbour, so the down-edges of every vertex span a cube.
It checks enough local conditions (one common lower neighbour for any
two down-neighbours, the cube walk and a 3-cube test) to accept exactly
the median graphs (Chepoi's local characterization of median graphs; see
``forest()`` and ``_link_check``). The independent oracles the tests
compare with (the distance-condition classes with two BFS rows per
class, the square closure, the cube path walked one step at a time and
unique medians of vertex triples) live beside the tests, in
``tests/oracles.py``, and do not ship in the package.

The cube path from a vertex V to the base vertex repeatedly crosses, in
one diagonal step, the full set of hyperplanes that are adjacent at the
current vertex and separate it from the base.  The step index at which a
hyperplane is crossed drives the embedding: coordinate w(index) on that
hyperplane's basis vector, whose key is the hyperplane's class id.

The steps of all vertices form one cube-path forest, computed once per
graph; embeddings and index maps of any set of vertices are built from
it, and ``key_property`` checks the index facts of every edge on its
numpy rows, loading no scipy.  Graphs, hyperplanes and the forest are
immutable once computed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BudgetExceededError, CubeSpanError, SideComputationError
from .sparse import (Graph, PathForest, edge_array, lookup, narrowest, product_edges,
                     ranges, root_distances)
from .tree import DEFAULT_VERTEX_BUDGET, RootedTree, TreeSpec, gen_tree

CHUNK_BYTES = 4 << 20  # bytes per chunk of the row-sized work arrays


@dataclass(frozen=True)
class CubeSpec:
    """Generator recipe for a desk-scale median graph."""

    kind: str
    dims: tuple[int, ...] = ()
    heights: tuple[int, ...] = ()
    tree: Optional[TreeSpec] = None
    left: Optional[TreeSpec] = None
    right: Optional[TreeSpec] = None

    @classmethod
    def grid(cls, *dims: int) -> "CubeSpec":
        return cls(kind="grid", dims=tuple(int(d) for d in dims))

    @classmethod
    def staircase(cls, columns: int) -> "CubeSpec":
        """Canonical staircase with column heights columns, columns-1, .., 1."""
        return cls(kind="staircase", heights=tuple(range(int(columns), 0, -1)))

    @classmethod
    def staircase_heights(cls, heights: Sequence[int]) -> "CubeSpec":
        return cls(kind="staircase", heights=tuple(int(h) for h in heights))

    @classmethod
    def from_tree(cls, tree: TreeSpec) -> "CubeSpec":
        return cls(kind="from_tree", tree=tree)

    @classmethod
    def tree_product(cls, left: TreeSpec, right: TreeSpec) -> "CubeSpec":
        return cls(kind="tree_product", left=left, right=right)

    def max_vertex_count(self) -> int:
        if self.kind == "grid":
            out = 1
            for d in self.dims:
                out *= d + 1
            return out
        if self.kind == "staircase":
            h = self.heights
            return h[0] + 1 + sum(h) + len(h)
        if self.kind == "from_tree":
            return self.tree.max_vertex_count()
        if self.kind == "tree_product":
            return self.left.max_vertex_count() * self.right.max_vertex_count()
        raise ValueError(f"unknown cube kind {self.kind!r}")

    def label(self) -> str:
        if self.kind == "grid":
            return "grid:" + "x".join(str(d) for d in self.dims)
        if self.kind == "staircase":
            return "staircase:" + ",".join(str(h) for h in self.heights)
        if self.kind == "from_tree":
            return f"from-tree({self.tree.label()})"
        return f"tree-product({self.left.label()},{self.right.label()})"


class MedianGraph(Graph):
    """Undirected simple connected graph with a base vertex ``root``."""

    def __init__(self, n: int, edges, root: int = 0, label: str = ""):
        super().__init__(n, root, label)
        e, out = edge_array(edges, self.n)
        # The first offending edge in edge order raises; within one edge,
        # out of range comes before a self-loop, a self-loop before a repeat.
        loop = int(np.flatnonzero(e[:out, 0] == e[:out, 1]).min(initial=out))
        # a repeat follows its first in the stable order of the edges' ends
        low, high = np.minimum(e[:loop, 0], e[:loop, 1]), np.maximum(e[:loop, 0], e[:loop, 1])
        order = np.lexsort((high, low))
        low, high = low[order], high[order]
        same = (low[1:] == low[:-1]) & (high[1:] == high[:-1])
        repeats = order[1:][same]
        del low, high, order, same
        dup = int(repeats.min(initial=loop))
        if dup < loop:
            raise ValueError(f"duplicate edge {tuple(np.sort(e[dup]).tolist())}")
        if loop < out:
            raise ValueError(f"self-loop at {e[loop, 0]}")
        if out < len(e):
            u, v = edges[out]
            raise ValueError(f"edge ({int(u)},{int(v)}) out of range")
        # Fewer than n - 1 edges cannot connect n vertices: fail before allocating.
        if self.n > len(e) + 1:
            raise ValueError("graph is not connected")
        self.eu, self.ev = np.ascontiguousarray(e.T)
        self.dist_root = root_distances(self.n, self.eu, self.ev, self.root)

    def _down_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Deeper and shallower end of every edge, in edge order, in the
        narrowest integer type that holds 0..n."""
        gap = self.dist_root[self.eu]
        gap -= self.dist_root[self.ev]
        if not gap.all():
            raise SideComputationError(
                "graph has an edge between equal levels; not bipartite")
        down = gap > 0
        del gap
        deeper, shallower = (ends.astype(narrowest(self.n + 1)) for ends in (self.ev, self.eu))
        np.copyto(deeper, self.eu, where=down, casting="same_kind")
        np.copyto(shallower, self.ev, where=down, casting="same_kind")
        return deeper, shallower

    # -- hyperplanes and cube paths ---------------------------------------------

    def forest(self) -> PathForest:
        """Cube-path forest, computed once and cached, with the edge
        classes ``hyp_of_edge``: one step per vertex, crossing the classes
        of its down-edges, its legs, in sorted order, and exiting at the
        corner opposite x of the cube the legs span. Classes are numbered
        in order of their first edge.

        The classes come from the levels of ``dist_root``, after Bénéteau,
        Chalopin, Chepoi and Vaxès, "Medians in median graphs and their
        cube complexes in linear time" (ICALP 2020). Orient each edge
        down, toward the base vertex. In a median graph the far side of a
        class is convex, and its vertex nearest the base is the one vertex
        of it whose only down-edge is in the class. So a vertex with one
        down-edge opens a class. Any other down-edge (x, u) is opposite,
        in the square x, u, y, u', to the edge (u', y), where u' is the
        next down-neighbour of x and y the one common lower neighbour of u
        and u', and takes its class. These links descend one level each,
        so pointer doubling finds every edge's opening edge.

        The checks of ``_cube_forest`` make every edge's ends separated by
        exactly its own class (the cut condition), by induction on the
        level: a vertex with one down-edge opens its class, whose opening
        edge is its lowest edge, so the lower end lies on no far side of
        it. At a vertex x with several down-edges, the ends of (u, y) and
        (u', y) are cut by their own classes by induction, so x, reached
        through u or through u', has one set of far sides exactly when
        class(x, u) = class(u', y) and class(x, u') = class(u, y), given
        that no two edges at a vertex share a class (which ``_Across``
        checks). The first holds by construction, so y is the one
        neighbour of u' across class(x, u). The cube walk
        (``_Across.corners``) requires the neighbour of u across
        class(x, u') to exist and to be that same y. As no edge is
        repeated, the edge joining them is (u, y), which is thus in
        class(x, u'): the second holds too.

        So the checks accept exactly the median graphs (see
        ``_link_check``), and the classes are right whenever they are
        returned. Raises SideComputationError for an edge between equal
        levels (not bipartite) and for two down-neighbours without exactly
        one common lower neighbour; ``_cube_forest`` raises CubeSpanError
        for the rest (a K_{2,3} among them: its cube walk fails).

        Memory: the build holds vertex and edge ids in the narrowest
        integer types of ``sparse.narrowest`` and frees each working array
        once it is used, the class numbering takes a ``np.minimum.at``
        over the edges, not a sort, and only the forest and the classes
        stay held, in int64. Grid 100x100 traces at most 3 MiB.
        """
        if self._forest is not None:
            return self._forest
        n, m, dist = self.n, len(self.eu), self.dist_root
        edge = narrowest(m + 1)
        child, par = self._down_edges()
        # Position j: the down-edges grouped by deeper end (``below`` holds
        # the group bounds), each group ordered by its shallower end.
        order = np.lexsort((par, child))
        v, u = child[order], par[order]
        del child, par
        below = np.searchsorted(v, np.arange(n + 1, dtype=v.dtype))
        multi, across = _square_opposites(v, u, below, n)
        del v, u, below
        # Every edge's class-opening edge: at most max(dist) - 1 links down.
        opener = np.arange(m, dtype=edge)
        opener[multi] = across[multi]
        del multi, across
        for _ in range(int(dist.max()).bit_length()):
            opener = opener[opener]
        hoe = np.empty_like(opener)
        hoe[order] = opener
        del order, opener
        # Number the classes by first edge: a class's number counts the
        # first edges of the classes before its own.
        first = np.full(m, m, dtype=edge)
        np.minimum.at(first, hoe, np.arange(m, dtype=edge))
        first = first[hoe]
        del hoe
        opens = first == np.arange(m, dtype=edge)
        n_keys = int(np.count_nonzero(opens))
        number = np.cumsum(opens, dtype=narrowest(n_keys + 1))
        del opens
        number -= 1
        hoe = number[first]
        del number, first
        self._forest = self._cube_forest(hoe, n_keys)
        self._hyp_of_edge = hoe.astype(np.int64)
        return self._forest

    @property
    def hyp_of_edge(self) -> np.ndarray:
        self.forest()
        return self._hyp_of_edge

    def separating_counts(self, sources) -> np.ndarray:
        """Number of hyperplanes separating each source from each vertex,
        a len(sources) x n int32 block like ``distances_from``: the
        hyperplanes that separate exactly one of the two from the base
        vertex, the keys on exactly one of their cube paths, so
        ``forest_distances``."""
        return self.forest_distances(sources)

    def _cube_forest(self, hoe: np.ndarray, n_keys: int) -> PathForest:
        """The forest for the edge classes ``hoe``, and the checks that
        make the graph median (see ``forest()``).

        In a median graph the legs of x span a cube below x (the
        characterization ``forest()`` relies on), and the step exits at
        the corner opposite x. Every face of every such cube is walked,
        all vertices with k legs at once, and must close up. Then
        ``_link_check`` runs on the squares and 3-cubes the walk found.

        Raises CubeSpanError for two edges at one vertex in one class,
        legs that do not span a cube or whose cube does not close up, and
        three squares at a vertex that lie in no cube. Every vertex but
        the base has a down-edge, its parent in the BFS of ``dist_root``.
        """
        child, par = self._down_edges()
        order = np.lexsort((hoe, child))
        child, par, keys = child[order], par[order], hoe[order]
        del order
        sizes = np.bincount(child, minlength=self.n)
        across = _Across(self, hoe, n_keys)
        step_ptr = np.concatenate([[0], np.cumsum(sizes)])
        exits = np.arange(self.n)
        single = sizes[child] == 1
        exits[child[single]] = par[single]
        del single
        squares, cubes = [], []
        ids = narrowest(max(self.n, n_keys) + 1)  # of the squares' vertices and classes
        # the leg counts above 1 that occur, in order; a plain np.unique
        # would import numpy.ma, a tenth of a median-graph generate
        for k in (np.flatnonzero(np.bincount(sizes)[2:]) + 2).tolist():
            x = np.flatnonzero(sizes == k)
            if 1 << k > self.n:  # a k-cube has 2**k corners
                raise CubeSpanError(
                    f"downward edges at vertex {x[0]} do not span a cube")
            i, j = np.array(list(itertools.combinations(range(k), 2))).T
            trios = np.array(list(itertools.combinations(range(k), 3)),
                             dtype=np.int64).reshape(-1, 3)
            step = max(1, CHUNK_BYTES // (32 * k << k))
            for s in range(0, len(x), step):
                legs = step_ptr[x[s:s + step], None] + np.arange(k)
                corner = across.corners(x[s:s + step], keys[legs], par[legs])
                exits[x[s:s + step]] = corner[:, -1]
                # rows: top, its two legs' lower ends, bottom, the two classes
                squares.append(np.stack(np.broadcast_arrays(
                    x[s:s + step, None], corner[:, 1 << i], corner[:, 1 << j],
                    corner[:, 1 << i | 1 << j], keys[legs][:, i],
                    keys[legs][:, j]), axis=-1).reshape(-1, 6).astype(ids))
                # rows: bottom, the three classes
                cubes.append(np.concatenate([
                    corner[:, (1 << trios).sum(axis=1)][..., None],
                    keys[legs][:, trios]], axis=-1).reshape(-1, 4))
            del x, legs, corner  # before the next leg count
        down_key = child.astype(np.int64)
        down_key *= n_keys
        down_key += keys
        ends_key = across.key
        del child, par, across, sizes
        squares = np.concatenate(squares or [np.empty((0, 6), ids)])
        cubes = np.concatenate(cubes or [np.empty((0, 4), np.int64)])
        _link_check(n_keys, down_key, step_ptr, keys, ends_key, squares, cubes)
        del down_key, ends_key, squares, cubes
        return PathForest(
            root=self.root,
            exit=exits,
            step_ptr=step_ptr,
            step_keys=keys.astype(np.int64),
            key_count=n_keys,
            length=self.dist_root,
        )

def _square_opposites(v, u, below, n: int) -> tuple[np.ndarray, np.ndarray]:
    """For the down-edges (v[j], u[j]), grouped by v with group bounds
    ``below``: the positions j whose vertex has another down-edge, and
    across[j], the position of the edge (u', y) opposite j in the square
    v[j], u[j], y, u', where (v[j], u') is the next down-edge of v[j]
    (cyclic within the group). SideComputationError unless u[j] and u'
    have exactly one common lower neighbour y."""
    count = np.diff(below)
    edge_key = v.astype(np.int64)
    edge_key *= n
    edge_key += u  # ascending
    multi = np.flatnonzero(count[v] > 1)
    other = multi + 1
    wrap = other == below[v[multi] + 1]
    other[wrap] = below[v[multi[wrap]]]
    across = np.full(len(v), -1, dtype=narrowest(len(v) + 1))
    step = max(1, CHUNK_BYTES // (32 * max(1, int(count.max()))))
    for s in range(0, len(multi), step):
        a, b = u[multi[s:s + step]], u[other[s:s + step]]
        # candidates: every down-edge (u', x) of u', kept where (u, x) is one
        owner = np.repeat(np.arange(len(b)), count[b])
        cand = ranges(below[b], count[b])
        hit = lookup(edge_key, a[owner].astype(np.int64) * n + u[cand]) >= 0
        common = np.bincount(owner[hit], minlength=len(a))
        bad = np.flatnonzero(common != 1)
        if len(bad):
            i = int(bad[0])
            raise SideComputationError(
                f"down-neighbours {a[i]} and {b[i]} of vertex {v[multi[s + i]]} "
                f"have {common[i]} common lower neighbours; not a median graph")
        across[multi[s:s + step]] = cand[hit]
    return multi, across


def _link_check(n_keys: int, down_key, step_ptr, keys, ends_key,
                squares: np.ndarray, cubes: np.ndarray) -> None:
    """CubeSpanError unless any three squares at a vertex that pairwise
    share an edge lie in a 3-cube.

    ``squares`` holds a row (top, lower end of leg i, of leg j, bottom,
    class i, class j) per pair of legs of each vertex, ``cubes`` a row
    (bottom, three classes) per three legs; ``down_key`` is the sorted
    v * n_keys + class of every down-edge, whose classes ``keys`` are
    grouped by v with bounds ``step_ptr``, and ``ends_key`` the sorted
    v * n_keys + class of every edge end (``_Across.key``), by which the
    nodes of the links are numbered.

    This is the last of the local conditions that make the graph median.
    Every two down-neighbours have a common lower neighbour, so every
    cycle is a sum of squares (shorten it at its vertex farthest from the
    base) and the square complex is simply connected. By Chepoi ("Graphs
    of some CAT(0) complexes", Adv. Appl. Math. 24, 2000) such a graph is
    median if it has no K_{2,3} and satisfies this 3-cube condition. A
    K_{2,3} would give two vertices two common legs; by the cut condition
    (which ``forest()`` derives from ``_Across`` and the cube walk) both
    would lie on the far sides of exactly the classes of the two legs, so
    two edges at a leg would share a class, which ``_Across`` rejects.
    Three squares at w with two or three edges going down lie in the cube
    of w's legs or of the top of a square through the up-edge. With one
    down-edge, the top of the square of the two up-edges must go down in
    every class in which both of them do. With none, the three classes
    must be those of a 3-cube with bottom w; the triangles of squares at w
    are listed in degree order.
    """
    if not len(squares):
        return
    top, b, c, w, p, q = squares.T
    count = np.diff(step_ptr)
    step = max(1, CHUNK_BYTES // (32 * int(count.max())))
    for s in range(0, len(top), step):
        # every down-class of b, kept where c goes down in it and top not
        cnt = count[b[s:s + step]]
        owner = s + np.repeat(np.arange(len(cnt)), cnt)
        alpha = keys[ranges(step_ptr[b[s:s + step]], cnt)]
        bad = np.flatnonzero(
            (lookup(down_key, c[owner].astype(np.int64) * n_keys + alpha) >= 0)
            & (lookup(down_key, top[owner].astype(np.int64) * n_keys + alpha) < 0))
        if len(bad):
            raise CubeSpanError(
                f"three squares at vertex {w[owner[bad[0]]]} lie in no cube")
        del cnt, owner, alpha, bad  # before the next chunk, and the link
    # The link of each bottom w: a node (w, class) per up-edge in a square,
    # numbered by its place among the edge ends, a link edge per square;
    # each points away from its end of lower (degree, node), so a triangle
    # is found once, at its lowest node.
    nodes, m = ends_key, len(ends_key)
    ends = np.concatenate([w, w], dtype=np.int64)
    ends *= n_keys
    ends += np.concatenate([p, q])
    ends = lookup(nodes, ends.astype(nodes.dtype)).reshape(2, -1)
    degree = np.bincount(ends.ravel(), minlength=m).astype(np.int32)
    d0, d1 = degree[ends[0]], degree[ends[1]]
    del degree
    src, dst = np.where((d0 < d1) | ((d0 == d1) & (ends[0] < ends[1])), ends, ends[::-1])
    del ends, d0, d1
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    del order
    link = np.sort(np.minimum(src, dst) * m + np.maximum(src, dst))
    # the 3-cubes, keyed by the link edge of their two lower classes
    lo = lookup(nodes, (cubes[:, 0] * n_keys + cubes[:, 1]).astype(nodes.dtype))
    hi = lookup(nodes, (cubes[:, 0] * n_keys + cubes[:, 2]).astype(nodes.dtype))
    edge = lookup(link, lo * m + hi)
    known = (lo >= 0) & (hi >= 0) & (edge >= 0)
    solid = np.sort(edge[known] * n_keys + cubes[known, 3])
    del lo, hi, edge, known
    pairs = np.searchsorted(src, src, side="right") - np.arange(len(src)) - 1
    step = max(1, CHUNK_BYTES // (32 * max(1, int(pairs.max()))))
    for s in range(0, len(src), step):
        cnt = pairs[s:s + step]
        first = s + np.repeat(np.arange(len(cnt)), cnt)
        second = ranges(s + 1 + np.arange(len(cnt)), cnt)
        a, z = np.sort(np.stack([dst[first], dst[second]]), axis=0)
        tri = lookup(link, a * m + z) >= 0
        t = np.sort(np.stack([src[first][tri], a[tri], z[tri]]), axis=0)
        cube = lookup(link, t[0] * m + t[1]) * n_keys + nodes[t[2]].astype(np.int64) % n_keys
        bad = np.flatnonzero(lookup(solid, cube) < 0)
        if len(bad):
            raise CubeSpanError(
                f"three squares at vertex {nodes[t[0, bad[0]]] // n_keys} lie in no cube")


class _Across:
    """The neighbour across class c from vertex v, for arrays of (v, c):
    one sorted key v * K + c per edge end. Two edges at a vertex in one
    class raise CubeSpanError."""

    def __init__(self, g: MedianGraph, hoe: np.ndarray, n_keys: int):
        code = np.int32 if g.n * n_keys < 2**31 else np.int64
        key = np.concatenate([g.eu, g.ev], dtype=code)
        key *= n_keys
        key += np.concatenate([hoe, hoe])
        order = np.argsort(key, kind="stable")
        self.key = key[order]
        del key
        self.nbr = np.concatenate([g.ev, g.eu], dtype=narrowest(g.n + 1))[order]
        del order
        self.n_keys = n_keys
        twin = np.flatnonzero(self.key[1:] == self.key[:-1])
        if len(twin):
            raise CubeSpanError(f"two edges at vertex {self.key[twin[0]] // n_keys} "
                                "cross the same hyperplane")

    def __call__(self, v: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Neighbour of each v across class c, -1 where there is none."""
        i = lookup(self.key, (v * self.n_keys + c).astype(self.key.dtype))
        return np.where(i >= 0, self.nbr[i], -1)

    def corners(self, x: np.ndarray, legs: np.ndarray,
                ends: np.ndarray) -> np.ndarray:
        """Corners of the cube spanned by x's k legs, one row of 2**k per
        x: row i of ``legs`` holds the classes and row i of ``ends`` the
        lower ends. Corner ``mask`` is reached by crossing the legs in
        ``mask``; each corner is reached from every corner one leg short
        of it, and all those ways must exist and agree."""
        g, k = legs.shape
        corner = np.empty((g, 1 << k), dtype=np.int64)
        corner[:, 0] = x
        corner[:, 1 << np.arange(k)] = ends
        masks = np.arange(1 << k)
        size = np.bitwise_count(masks)
        for p in range(2, k + 1):
            face = masks[size == p]
            bits = np.nonzero(face[:, None] >> np.arange(k) & 1)[1].reshape(-1, p)
            nb = self(corner[:, face[:, None] ^ (1 << bits)], legs[:, bits])
            gap = (nb < 0).any(axis=(1, 2))
            if gap.any():
                raise CubeSpanError(
                    f"downward edges at vertex {x[gap][0]} do not span a cube")
            split = (nb != nb[..., :1]).any(axis=(1, 2))
            if split.any():
                raise CubeSpanError(f"cube at vertex {x[split][0]} does not close up")
            corner[:, face] = nb[..., 0]
        return corner


# -- generators --------------------------------------------------------------


def median_from_tree(tree: RootedTree) -> MedianGraph:
    """The tree itself as a one-dimensional median graph (ids preserved)."""
    edges = np.column_stack([tree.eu, tree.ev])
    return MedianGraph(tree.vertex_count, edges, root=tree.root,
                       label=f"from-tree({tree.label})" if tree.label else "from-tree")


def tree_product_graph(t1: RootedTree, t2: RootedTree, label: str = "") -> MedianGraph:
    """Cartesian product of two trees; vertex (i1, i2) gets id i1*n2 + i2."""
    n1, n2 = t1.vertex_count, t2.vertex_count
    # All t1 edges (by t1 edge, then i2), then all t2 edges (by t2 edge,
    # then i1): edge order fixes the class ids, which are the printed keys.
    edges = np.column_stack(product_edges(n1, t1.eu, t1.ev, n2, t2.eu, t2.ev))
    return MedianGraph(n1 * n2, edges, root=t1.root * n2 + t2.root, label=label)


def gen_cube(spec: CubeSpec, max_vertices: int = DEFAULT_VERTEX_BUDGET) -> MedianGraph:
    """Build the median graph described by ``spec``."""
    declared = spec.max_vertex_count()
    if declared > max_vertices:
        raise BudgetExceededError(
            f"{spec.label()} declares up to {declared} vertices, "
            f"budget is {max_vertices}")
    if spec.kind == "grid":
        dims = spec.dims
        if not dims or any(d < 1 for d in dims):
            raise ValueError("grid needs positive side lengths")
        sizes = [d + 1 for d in dims]
        strides = np.cumprod([1] + sizes[::-1][:-1])[::-1]
        v = np.arange(int(np.prod(sizes)))
        # Edges (v, v + stride) ordered by v, then by axis (-1: no edge):
        # edge order fixes the class ids, which are the keys embed prints.
        up = np.stack([np.where(v // st % k < k - 1, v + st, -1)
                       for st, k in zip(strides, sizes)], axis=1).ravel()
        edges = np.column_stack([np.repeat(v, len(sizes)), up])[up >= 0]
        return MedianGraph(len(v), edges, root=0, label=spec.label())
    if spec.kind == "staircase":
        h = spec.heights
        if not h or any(x < 1 for x in h):
            raise ValueError("staircase heights must be positive")
        if any(h[i] < h[i + 1] for i in range(len(h) - 1)):
            raise ValueError("staircase heights must be non-increasing")
        m = len(h)

        def top(x):
            return h[0] if x == 0 else h[x - 1]

        ids: dict[tuple[int, int], int] = {}
        for x in range(m + 1):
            for y in range(top(x) + 1):
                ids[(x, y)] = len(ids)
        edges = []
        for (x, y), i in ids.items():
            if (x + 1, y) in ids:
                edges.append((i, ids[(x + 1, y)]))
            if (x, y + 1) in ids:
                edges.append((i, ids[(x, y + 1)]))
        return MedianGraph(len(ids), edges, root=ids[(0, 0)], label=spec.label())
    if spec.kind == "from_tree":
        return median_from_tree(gen_tree(spec.tree, max_vertices))
    if spec.kind == "tree_product":
        t1 = gen_tree(spec.left, max_vertices)
        t2 = gen_tree(spec.right, max_vertices)
        return tree_product_graph(t1, t2, label=spec.label())
    raise ValueError(f"unknown cube kind {spec.kind!r}")


# -- spec operations -----------------------------------------------------------


@dataclass(frozen=True)
class KeyProperty:
    """Cube-path index facts over every vertex and edge of a graph.

    ``index_deltas[e]`` is, for edge e = (u, v), the largest gap between
    the steps at which the paths of u and v cross a common hyperplane
    (zero when they share none).  ``own_key_ok`` says that each edge's own
    hyperplane is crossed at step 1 from its deeper end and not at all
    from its shallower end.  ``max_step_size`` is the most hyperplanes
    crossed at one step of any path.  ``partition_ok`` says that each
    path crosses exactly the hyperplanes separating its start from the
    base vertex, each once: it crosses d(base, start) keys, each once, and
    the crossed sets of the ends of every edge differ in exactly the
    edge's own hyperplane, which, as the base crosses none and the graph
    is connected, holds exactly when each crossed set is the start's
    separating set.
    """

    index_deltas: np.ndarray
    own_key_ok: bool
    max_step_size: int
    partition_ok: bool


def key_property(g: MedianGraph) -> KeyProperty:
    """Read the key property of every edge off the forest's key sets of
    its two ends (``keysets.edge_diffs``, which walks the edges in
    chunks of about LEVEL_ENTRIES keys and builds only the rows of each
    chunk's end vertices, so memory stays near LEVEL_ENTRIES entries
    however deep the paths): the index gaps of their common keys, the
    steps at which each end crosses the edge's own class, and the cut,
    that the ends differ in exactly that class. numpy only."""
    if not g.edge_count:
        return KeyProperty(np.zeros(0, dtype=np.int64), True, 0, True)
    from .keysets import edge_diffs

    deeper, shallower = g._down_edges()
    own = g.hyp_of_edge
    diffs = edge_diffs(g.forest(), deeper, shallower, probe=own)
    own_ok = bool((diffs.probe_u == 1).all() and not diffs.probe_v.any())
    # the ends of every edge differ in exactly its own class
    partition_ok = bool(np.array_equal(diffs.distinct, g.dist_root)
                        and (diffs.count == 1).all() and (diffs.key == own).all())
    return KeyProperty(
        index_deltas=diffs.gap,
        own_key_ok=own_ok,
        max_step_size=int(np.diff(g.forest().step_ptr).max()),
        partition_ok=partition_ok,
    )
