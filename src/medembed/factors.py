"""A space's cube-path forest as a product of rooted trees, and the
squared embedded distances of sampled pairs from the factors' depth
triples.

Two keys cross when one step of the forest crosses both. In a product of
trees each step crosses at most one key of each factor, so the keys of a
factor never cross, and the keys of two factors always do: at the vertex
whose coordinates are their edges' lower ends. So the factors are the
components of the relation "does not cross" (Imrich and Klavžar,
*Product Graphs*, 2000; Bandelt and Chepoi, "Metric graph theory and
geometry: a survey", 2008). ``tree_factors`` proposes them and accepts
the proposal only after an exact check: the coordinates map the vertices
one to one onto the product of the factor trees, and every vertex exits
and steps as in the product of the factor trees' forests. Then the
forest is that product up to the names of the vertices and keys, so,
however the space was built, each pair's distance is the sum of its
factor distances and its squared embedded distance the sum of the
factors' (``PathForest.product``). A ``RootedTree``, a grid, a median
graph built from a tree or from a product of trees, and a
``ProductSpace`` of trees all pass; a staircase, a factor that is not a
tree, or a forest that is not a product gives None.

On a tree a pair's squared embedded distance is a closed form of its
depth triple (``metrics._triple_sq_distances``), so ``FactorPairs``
embeds a product's pairs with no walk of their rows, and an exhaustive
profile folds each factor tree once from its pair counts and extreme
meeting depths and convolves the folds, adding the factors' squares in
the order ``FactorPairs.sq_distances`` adds them. numpy only; imported
only by the stratified sampler and the exhaustive profile, so no other
command compiles it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import metrics
from .sparse import PathForest, narrowest, ranges
from .tree import RootedTree


@dataclass(frozen=True, eq=False)
class TreeFactors:
    """A forest as a product of the rooted ``trees``, each rooted at its
    vertex 0: ``coords[P][v]`` is vertex v's coordinate in factor P."""

    trees: list[RootedTree]
    coords: list[np.ndarray]


class FactorPairs:
    """A product of trees seen from a few ``sources`` at weight w, built
    once per profile: per factor P its weight table, the prefix sums of
    its squares and its depths, and, where there are two factors or more,
    the factor tree's distances from the distinct coordinates of the
    sources, a C-ordered block of rows, one per coordinate. Depths and
    distances are int16 where twice the factor's depth fits, and a row of
    distances from a source where the sum of the factors' twice depths
    does. The sums P_c of each offset c are kept once built, as many per
    factor as hold at most CHUNK_ENTRIES floats in all at the factor's
    depth."""

    def __init__(self, product: TreeFactors, w, sources):
        self.sources = np.asarray(sources)
        self.factors = []
        for tree, coord in zip(product.trees, product.coords):
            depth = tree.depth.astype(np.int16 if 2 * int(tree.depth.max()) < 2**15
                                      else np.int32)
            dist = slot = None
            if len(product.trees) > 1:
                # the distinct coordinates, sorted, with no np.unique: a
                # plain one would import numpy.ma
                held = np.zeros(tree.vertex_count, dtype=bool)
                held[coord[self.sources]] = True
                held = np.flatnonzero(held)
                dist = tree.forest().distances(held).astype(depth.dtype, order="C")
                slot = np.zeros(tree.vertex_count, dtype=narrowest(len(held)))
                slot[held] = np.arange(len(held))
            table = tree.forest().weight_table(w)
            self.factors.append((table, np.cumsum(table * table), depth, coord, dist, slot, {}))
        # no two vertices lie further apart than the sum of the factors' twice depths
        reach = sum(2 * int(tree.depth.max()) for tree in product.trees)
        self.row_type = np.int16 if reach < 2**15 else np.int32

    def row(self, i: int) -> np.ndarray:
        """Distance from ``sources[i]`` to every vertex (two factors or
        more): the sum of its factor trees' rows at the coordinates."""
        row = None
        for *_, coord, dist, slot, _ in self.factors:
            part = dist[slot[coord[self.sources[i]]]].take(coord)
            row = part.astype(self.row_type, copy=False) if row is None else np.add(
                row, part, out=row)
        return row

    def sq_distances(self, us, vs, ts) -> np.ndarray:
        """Squared embedded distances of the pairs (us[i], vs[i]), at
        distances ts, whose first ends are among the sources.

        The pairs go CHUNK_ENTRIES at a time, in int32 and narrower. Per
        factor, a pair's distance t_P is read off the factor's block (with
        one factor t_P is ts), its meeting depth is s = (d_P(u) + d_P(v) -
        t_P) / 2, and its squared distance comes from the triple, one call
        per distinct offset c = |d_P(u) - d_P(v)| in the chunk. The
        factors' squares are added in factor order."""
        out = np.empty(len(us))
        chunk = metrics.CHUNK_ENTRIES
        for lo in range(0, len(us), chunk):
            u, v, block = us[lo:lo + chunk], vs[lo:lo + chunk], out[lo:lo + chunk]
            for i, (table, sums, depth, coord, dist, slot, kept) in enumerate(self.factors):
                cu, cv = coord[u], coord[v]
                t = ts[lo:lo + chunk] if dist is None else dist[slot[cu], cv]
                du, dv = depth[cu], depth[cv]
                del cu, cv
                s = du + dv
                s -= t
                s >>= 1
                a = np.minimum(du, dv)
                a -= s
                c = du
                c -= dv
                np.abs(c, out=c)
                del du, dv, t
                sq = block if i == 0 else np.empty(len(block))
                order = np.argsort(c.astype(narrowest(len(table))), kind="stable")
                cuts = np.flatnonzero(np.diff(c[order])) + 1
                for start, stop in zip([0, *cuts.tolist()], [*cuts.tolist(), len(order)]):
                    pairs = order[start:stop]
                    offset = int(c[pairs[0]])
                    p = kept.get(offset)
                    if p is None:
                        p = metrics._offset_sums(table, offset)
                        if (len(kept) + 1) * len(table) * len(self.factors) <= chunk:
                            kept[offset] = p
                    sq[pairs] = metrics._triple_sq_distances(
                        table, sums, offset, a[pairs], s[pairs], p)
                if i:
                    block += sq
                del a, s, c, order, sq
        return out


def tree_factors(forest: PathForest) -> Optional[TreeFactors]:
    """``forest`` as a product of rooted trees, or None if it is not one.

    The keys that some step crosses are split into factors: the first key
    left, and every key left that shares no step with it, form the next
    factor. In a product of trees that is exactly a factor; more factors
    than the widest step crosses keys cannot be one. A vertex's coordinate
    in factor P is the P-key of its own step (numbered from 1 in key
    order), or 0, the factor's root, if the step crosses none. The
    proposal is accepted only if no step crosses two keys of one factor,
    the coordinates map the n vertices one to one onto the product of the
    factors' 1 + |P| coordinates, and in every factor the coordinate of
    each vertex's exit is the parent of its coordinate, one parent array
    for all vertices: then every vertex exits and steps as in the product
    of the factor trees' forests."""
    n, ptr, keys = len(forest.exit), forest.step_ptr, forest.step_keys
    sizes = np.diff(ptr)
    left = np.zeros(forest.key_count, dtype=bool)
    left[keys] = True
    widest = int(sizes.max(initial=0))
    parts = []
    while left.any():
        if len(parts) == widest:
            return None
        first = int(np.argmax(left))
        steps = np.searchsorted(ptr, np.flatnonzero(keys == first), side="right") - 1
        crossed = np.zeros(forest.key_count, dtype=bool)
        crossed[keys[ranges(ptr[steps], sizes[steps])]] = True
        crossed[first] = False
        parts.append(np.flatnonzero(left & ~crossed))
        left &= crossed
    shape = [len(p) + 1 for p in parts]
    if not parts or math.prod(shape) != n:
        return None
    owner = np.arange(n, dtype=narrowest(n)).repeat(sizes)
    coords, crossing = [], np.zeros(n, dtype=sizes.dtype)
    for part in parts:
        number = np.zeros(forest.key_count, dtype=narrowest(len(part) + 1))
        number[part] = np.arange(1, len(part) + 1)
        coord = np.zeros(n, dtype=number.dtype)
        mine = number[keys] > 0
        coord[owner[mine]] = number[keys[mine]]
        crossing += coord > 0
        coords.append(coord)
    del owner, mine
    if not np.array_equal(crossing, sizes):
        return None  # a step crosses two keys of one factor
    code = np.zeros(n, dtype=np.int64)
    for coord, size in zip(coords, shape):
        code *= size
        code += coord
    seen = np.zeros(n, dtype=bool)
    seen[code] = True
    del code
    if not seen.all():
        return None
    trees = []
    for coord, size in zip(coords, shape):
        up = coord[forest.exit]
        parent = np.zeros(size, dtype=coord.dtype)
        parent[coord] = up
        parent[0] = 0
        if not np.array_equal(parent[coord], up):
            return None
        trees.append(RootedTree(parent))
    return TreeFactors(trees, coords)
