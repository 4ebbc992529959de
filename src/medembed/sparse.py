"""Finitely supported vectors in a Hilbert space with integer basis keys,
the cube-path forest every embedding is built from, and ``Graph``, what
trees, median graphs and their products share: edge arrays, adjacency,
BFS and embedding matrix. ``bfs_distances`` is the one BFS, a numpy level
BFS from many sources at once: the oracles' metric
(``Graph.distances_from``) and, from one source, ``root_distances``, a
median graph's base vertex's row and a tree file's parents. No BFS loads
scipy.

Keys are local to a space: a tree's edge (v, parent(v)) has key v, a
median graph's hyperplane has its class id as its key. These are the keys
``medembed embed`` prints. A Cartesian product of spaces is a ``Graph``
too, with the edges of ``product_edges`` and the forest of
``PathForest.product``: each factor's keys are shifted by the key counts
of the factors before it, so the factor blocks are disjoint.

``embedding_rows(weights, rows)`` is the one way to embed: numpy CSR
triples (``PathForest.rows``), the rows at several weights from one walk.
Its walk costs a few array operations per path step, whatever the number
of rows, so collect the rows and make one call. ``embedding_matrix`` and
``embedding_matrices`` wrap the triples in scipy CSR matrices (imported
only there), and ``vectors`` hands either to ``fsum``. A space's forest
also gives the graph distances from a few sources to every vertex
(``PathForest.distances``, a few whole-array operations per step depth)
with no BFS and no embedding; the oracle proves them equal to the BFS
metric by their layers across the edges (``keysets.proves_distances``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import NonTerminationError

# Entries (vertices x sources) of one piece of many-source distance work: a
# piece of a level in PathForest.distances, of a degree group in
# keysets.proves_distances and a batch of BFS rows in the tests'
# distance-condition oracle; and the keys of one chunk of keysets.edge_diffs.
LEVEL_ENTRIES = 1 << 16
# Pairs (u, v) per block of the all-pairs routes, which take max(1,
# BLOCK_ENTRIES // n) sources u at a time (metrics._source_blocks): the
# exhaustive pair kernel and metrics.oracle_deviations.
BLOCK_ENTRIES = 1 << 18


class SparseVector:
    """Immutable finitely supported vector: a map basis key -> coefficient.

    Zero coefficients are dropped at construction, so the stored support
    is exactly the set of nonzero coordinates.
    """

    __slots__ = ("coords",)

    def __init__(self, coords=None):
        self.coords = {
            int(k): float(v) for k, v in (coords or {}).items() if v != 0.0
        }

    def __eq__(self, other):
        return isinstance(other, SparseVector) and self.coords == other.coords

    def __repr__(self):
        items = ", ".join(f"{k}: {v:.6g}" for k, v in sorted(self.coords.items()))
        return f"SparseVector({{{items}}})"

    @property
    def support_size(self) -> int:
        return len(self.coords)

    def norm(self) -> float:
        return math.sqrt(math.fsum(v * v for v in self.coords.values()))

    def dot(self, other: "SparseVector") -> float:
        a, b = self.coords, other.coords
        if len(b) < len(a):
            a, b = b, a
        return math.fsum(v * b[k] for k, v in a.items() if k in b)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Support and values as parallel arrays, sorted by key."""
        if not self.coords:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        keys = np.fromiter(self.coords.keys(), dtype=np.int64, count=len(self.coords))
        vals = np.fromiter(self.coords.values(), dtype=np.float64, count=len(self.coords))
        order = np.argsort(keys)
        return keys[order], vals[order]


def vectors(rows) -> list[SparseVector]:
    """Embedding rows as SparseVectors for the ``fsum`` routines: a CSR
    matrix such as ``embedding_matrix(w, rows)``, or a CSR triple
    (indptr, indices, data) such as one weight's ``embedding_rows``."""
    if hasattr(rows, "indptr"):
        rows = rows.indptr, rows.indices, rows.data
    indptr, indices, data = (a.tolist() for a in rows)
    return [SparseVector(dict(zip(indices[lo:hi], data[lo:hi])))
            for lo, hi in itertools.pairwise(indptr)]


def vec_distance(a: SparseVector, b: SparseVector) -> float:
    """Euclidean distance over the union of the two supports.

    Terms are combined with exact summation, so the result is independent
    of argument order.
    """
    ca, cb = a.coords, b.coords
    terms = []
    for k, v in ca.items():
        diff = v - cb.get(k, 0.0)
        terms.append(diff * diff)
    terms.extend(v * v for k, v in cb.items() if k not in ca)
    return math.sqrt(math.fsum(terms))


@dataclass(frozen=True, eq=False)
class PathForest:
    """Canonical paths of every vertex to ``root`` as a forest.

    Vertex v leaves by one step to ``exit[v]`` and crosses the keys
    ``step_keys[step_ptr[v]:step_ptr[v + 1]]``; the root maps to itself
    and crosses nothing. ``length[v]`` counts the keys on v's whole path,
    which is v's graph distance to the root.
    """

    root: int
    exit: np.ndarray
    step_ptr: np.ndarray
    step_keys: np.ndarray
    key_count: int
    length: np.ndarray

    def __post_init__(self):
        # Every step shortens the remaining path by exactly the keys it
        # crosses, so every walk reaches the root within length[v] keys.
        sizes = np.diff(self.step_ptr)
        other = np.arange(len(self.exit)) != self.root
        if not (self.exit[self.root] == self.root
                and self.length[self.root] == 0
                and sizes[self.root] == 0
                and (sizes[other] >= 1).all()
                and (self.length[self.exit[other]]
                     == self.length[other] - sizes[other]).all()):
            raise NonTerminationError(
                "a path step does not shorten the path to the root "
                "by the number of keys it crosses")

    def weight_table(self, w) -> np.ndarray:
        """Entry i is w(i), the value of step i; entry 0 is unused."""
        table = np.zeros(int(self.length.max()) + 1)
        table[1:] = w.values(np.arange(1, len(table), dtype=np.float64))
        return table

    def rows(self, rows, tables) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """Row r holds ``table[i]`` on every key that the path of
        ``rows[r]`` crosses at step i, for each of ``tables``: one CSR
        triple (indptr, indices, [data per table]), keys ascending within
        each row, with no entry at a step that is zero in every table.
        numpy only.

        All rows walk in lockstep, one step per round, recording the
        vertex each row leaves at every step that some table weighs. Then
        the recorded steps' keys are packed as (row, key, step) into one
        integer each, int32 if that needs at most 31 bits and int64
        otherwise, and sorted at once, which groups the entries by row and
        orders each row by key; each table is read at the unpacked steps.
        ValueError if the row ids, keys and steps need more than 63 bits.
        """
        rows = np.asarray(rows, dtype=np.int64)
        top = int(self.length[rows].max(initial=0))
        step_bits, key_bits = top.bit_length(), max(self.key_count - 1, 1).bit_length()
        bits = max(len(rows) - 1, 0).bit_length() + key_bits + step_bits
        if bits > 63:
            raise ValueError(f"{len(rows)} rows with {key_bits}-bit keys and "
                             f"{step_bits}-bit steps do not fit one 63-bit sort key")
        weighed = np.full(top + 1, not tables)
        for table in tables:
            weighed |= table[:top + 1] != 0.0
        left, who, steps = [], [], []
        live = np.flatnonzero(rows != self.root)
        at = rows[live]
        for step in range(1, top + 1):
            if weighed[step]:
                left.append(at)
                who.append(live)
                steps.append(step)
            at = self.exit[at]
            # rows that arrived stay at the root, which crosses no key, and
            # are dropped every few steps
            if step % 8 == 0:
                more = at != self.root
                at, live = at[more], live[more]
                if not len(live):
                    break
        blocks = [len(a) for a in left]
        left = np.concatenate(left or [rows[:0]])
        first = self.step_ptr[left]
        count = self.step_ptr[left + 1]
        count -= first
        del left
        who = np.concatenate(who or [rows[:0]])
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        per_row = np.bincount(who, weights=count, minlength=len(rows))
        np.cumsum(per_row.astype(np.int64), out=indptr[1:])
        pack = np.int32 if bits <= 31 else np.int64
        tags = who.astype(pack)
        del who
        tags <<= key_bits + step_bits
        tags |= np.repeat(np.array(steps, dtype=pack), blocks)
        packed = self.step_keys[ranges(first, count)].astype(pack, copy=False)
        packed <<= step_bits
        packed |= tags.repeat(count)
        del first, count, tags
        packed.sort()
        at_step = (packed & ((1 << step_bits) - 1)).astype(np.intp, copy=False)
        packed >>= step_bits
        packed &= (1 << key_bits) - 1
        idx = np.int32 if max(self.key_count, indptr[-1]) < 2**31 else np.int64
        indices = packed.astype(idx, copy=False)
        del packed
        return indptr, indices, [table[at_step] for table in tables]

    @cached_property
    def _schedule(self) -> tuple[list[int], list[int], np.ndarray, np.ndarray, np.ndarray]:
        """The non-root vertices by step depth, the steps to the root (a
        vertex's exit is one step shallower than the vertex), found by
        ``step_depths``: the bounds of the depths among the vertices and
        among the keys, then the vertices, their exits and their padded
        step keys, in the narrowest integer types. A depth's padded keys
        are a width x count block, width its widest step: row j holds the
        j-th key of each vertex's step, or ``key_count`` past its last
        key."""
        n = len(self.exit)
        depth = step_depths(self.exit, self.root)
        order = np.argsort(depth, kind="stable")[1:]  # the root comes first
        level = depth[order] - 1
        count = np.bincount(level)
        sizes = np.diff(self.step_ptr)[order]
        width = np.zeros(len(count), dtype=np.int64)
        np.maximum.at(width, level, sizes)
        bounds = np.concatenate([[0], np.cumsum(count)])
        starts = np.concatenate([[0], np.cumsum(width * count)])
        # key j of the i-th vertex of a depth: row j, column i of its block
        cells = (starts[level] + np.arange(len(order)) - bounds[level]).repeat(sizes)
        cells += ranges(np.zeros_like(sizes), sizes) * count[level].repeat(sizes)
        pad = np.full(starts[-1], self.key_count, dtype=narrowest(self.key_count + 1))
        pad[cells] = self.step_keys[ranges(self.step_ptr[order], sizes)]
        ids = narrowest(n)
        return (bounds.tolist(), starts.tolist(), order.astype(ids),
                self.exit[order].astype(ids), pad)

    def _levels(self, piece: int):
        """(vertices, exits, padded keys) of each step depth in turn, at
        most ``piece`` vertices at a time, as views of ``_schedule``."""
        bounds, starts, x, up, pad = self._schedule
        for d, (lo, hi) in enumerate(itertools.pairwise(bounds)):
            keys = pad[starts[d]:starts[d + 1]].reshape(-1, hi - lo)
            for at in range(lo, hi, piece):
                cut = slice(at, min(at + piece, hi))
                yield x[cut], up[cut], keys[:, at - lo:cut.stop - lo]

    def distances(self, sources) -> np.ndarray:
        """Graph distance from each of ``sources`` to every vertex, as an
        S x n int32 block: len(s) + len(v) - 2 shared(v, s), where shared
        counts the keys on both paths, so this is the number of keys on
        exactly one of them.

        A vertex shares with s what its exit shares plus the keys of its
        own step on s's path. So shared fills in by step depth
        (``_schedule``, built once per forest), for all S sources at once,
        in an n x S block, from a (K + 1) x S int8 indicator of the
        sources' keys whose last row, the padding key K, is zero: each
        depth is a gather of its exits' rows, one gathered add per key of
        its widest step, and a scatter, at most max(1, LEVEL_ENTRIES // S)
        vertices at a time, so a wide depth's temporaries stay near
        LEVEL_ENTRIES entries. The block holds shared until it is turned
        into the distances in place, and its transpose is returned (S x n,
        in Fortran order: no copy).
        """
        sources = np.asarray(sources, dtype=np.int64)
        n, n_sources = len(self.exit), len(sources)
        indptr, indices, _ = self.rows(sources, [])
        on_path = np.zeros((self.key_count + 1, n_sources), dtype=np.int8)
        on_path[indices, np.arange(n_sources).repeat(np.diff(indptr))] = 1
        shared = np.zeros((n, n_sources), dtype=np.int32)
        for x, up, pad in self._levels(max(1, LEVEL_ENTRIES // max(1, n_sources))):
            own = shared.take(up, axis=0)
            for keys in pad:
                own += on_path.take(keys, axis=0)
            shared[x] = own
        dist = shared.T
        dist *= -2
        dist += self.length.astype(np.int32)
        dist += self.length[sources, None].astype(np.int32)
        return dist

    def product(self, other: "PathForest") -> "PathForest":
        """The forest of the Cartesian product, vertex (x, y) numbered
        x * n2 + y: its Θ-classes at (x, y) are those of x and of y, so one
        step exits to (exit x, exit y), crossing x's step keys, then y's
        shifted by ``key_count``, which keeps them ascending. numpy only."""
        n2 = len(other.exit)
        x, y = np.divmod(np.arange(len(self.exit) * n2), n2)
        ours, theirs = np.diff(self.step_ptr)[x], np.diff(other.step_ptr)[y]
        step_ptr = np.zeros(len(x) + 1, dtype=np.int64)
        np.cumsum(ours + theirs, out=step_ptr[1:])
        step_keys = np.empty(step_ptr[-1], dtype=np.int64)
        step_keys[ranges(step_ptr[:-1], ours)] = self.step_keys[ranges(self.step_ptr[x], ours)]
        step_keys[ranges(step_ptr[:-1] + ours, theirs)] = (
            other.step_keys[ranges(other.step_ptr[y], theirs)] + self.key_count)
        return PathForest(
            root=self.root * n2 + other.root,
            exit=self.exit[x] * n2 + other.exit[y],
            step_ptr=step_ptr,
            step_keys=step_keys,
            key_count=self.key_count + other.key_count,
            length=self.length[x] + other.length[y],
        )


def csr_matrices(indptr, indices, data, key_count: int) -> list:
    """A CSR triple with one data array per table, as ``PathForest.rows``
    gives it, as one scipy ``csr_matrix`` per table, each with its own
    zeros dropped."""
    import scipy.sparse as sp  # slow to import, so only callers pay for it

    indptr = indptr.astype(indices.dtype)
    shape = (len(indptr) - 1, key_count)
    mats = []
    for i, d in enumerate(data):
        # dropping zeros compacts the index arrays in place: copy them
        # for every table but the last
        share = i == len(data) - 1
        mat = sp.csr_matrix((d, indices if share else indices.copy(),
                             indptr if share else indptr.copy()), shape=shape)
        mat.has_sorted_indices = True
        mat.eliminate_zeros()
        mats.append(mat)
    return mats


def ranges(starts, counts) -> np.ndarray:
    """The concatenated ranges [start, start + count); counts below 1
    give empty ranges."""
    # ufunc and array methods: np.cumsum and np.repeat cost microseconds of
    # dispatch, which a BFS level pays on every call
    counts = np.maximum(counts, 0)
    ends = np.add.accumulate(counts, dtype=np.int64)
    total = int(ends[-1]) if len(ends) else 0
    out = np.arange(total)
    out += (starts - (ends - counts)).repeat(counts)
    return out


def step_depths(up: np.ndarray, root: int) -> np.ndarray:
    """Steps from every vertex to ``root`` along ``up`` (a parent array,
    ``up[root] == root``), by pointer doubling: after round k, ``anc[v]``
    is v's 2**k-th ancestor (or the root) and ``depth[v]`` the steps up to
    it. Within n.bit_length() rounds every ancestor is the root, unless
    some vertex's parents run into a cycle that never reaches it, which
    raises ValueError("parent array is not a connected tree")."""
    anc = up
    depth = (np.arange(len(up)) != root).astype(np.int64)
    for _ in range(len(up).bit_length() + 1):
        if (anc == root).all():
            return depth
        depth += depth[anc]
        anc = anc[anc]
    raise ValueError("parent array is not a connected tree")


def narrowest(size: int):
    """The integer type of indices into ``size`` items: int16, int32 or
    int64. Held narrow, widened to intp before they index."""
    return next(t for t in (np.int16, np.int32, np.int64)
                if size <= np.iinfo(t).max + 1)


def adjacency(n: int, eu, ev) -> tuple[np.ndarray, np.ndarray]:
    """CSR adjacency (start, nbr) of the graph with edges (eu[i], ev[i]) on
    vertices 0..n-1: the neighbours of v are ``nbr[start[v]:start[v + 1]]``,
    in edge order, int32 ids where they fit."""
    idx = np.int32 if n < 2**31 else np.int64
    ends = np.concatenate([eu, ev], dtype=idx)
    order = np.argsort(ends, kind="stable")
    nbr = np.concatenate([ev, eu], dtype=idx)[order]
    start = np.searchsorted(ends[order], np.arange(n + 1, dtype=idx))
    return start, nbr


def product_edges(n1: int, eu1, ev1, n2: int, eu2, ev2) -> tuple[np.ndarray, np.ndarray]:
    """Edges (eu, ev) of the Cartesian product of two graphs, vertex
    (x, y) numbered x * n2 + y: every first-factor edge (by edge, then y),
    then every second-factor edge (by edge, then x)."""
    x, y = np.arange(n1) * n2, np.arange(n2)
    return (np.concatenate([(eu1[:, None] * n2 + y).ravel(), (x + eu2[:, None]).ravel()]),
            np.concatenate([(ev1[:, None] * n2 + y).ravel(), (x + ev2[:, None]).ravel()]))


def bfs_distances(adj: tuple[np.ndarray, np.ndarray], sources) -> np.ndarray:
    """Graph distance from each of ``sources`` (vertices, repeats allowed)
    to every vertex of the graph with ``adjacency`` ``adj``, as an S x n
    block, int32 like ``PathForest.distances`` where the level stamps fit
    and int64 otherwise; ValueError("graph is not connected") if some
    vertex is unreachable.

    One level BFS for all sources at once, a fixed number of numpy calls
    per level. The frontier holds codes s * n + v, entries of the flat
    block. Each frontier's unseen neighbours are deduplicated without a
    sort: every copy writes its own stamp, and the copies whose stamp reads
    back are kept, one per entry whichever write won. The adjacency holds
    int32 ids where they fit; each level's ids are widened to intp once,
    since numpy converts every narrower index array it is given. With one
    source a code is its vertex, so the level takes no vertex-of-code
    split.
    """
    start, nbr = adj
    n = len(start) - 1
    sources = np.asarray(sources, dtype=np.intp)
    one = len(sources) == 1
    degree = np.diff(start)
    # a level writes at most len(sources) * len(nbr) stamps below -1
    wide = len(sources) * len(nbr) >= 2**31 - 2
    dtype = np.int64 if wide else np.int32
    dist = np.full(len(sources) * n, -1, dtype=dtype)
    frontier = sources + n * np.arange(len(sources))
    dist[frontier] = 0
    level = 0
    while len(frontier):
        level += 1
        at = frontier if one else frontier % n
        count = degree[at]
        seen = nbr[ranges(start[at], count)].astype(np.intp)
        if not one:
            seen += (frontier - at).repeat(count)
        seen = seen[dist[seen] < 0]
        stamp = np.arange(-2, -2 - len(seen), -1, dtype=dtype)
        dist[seen] = stamp
        frontier = seen[dist[seen] == stamp]
        dist[frontier] = level
    if (dist < 0).any():
        raise ValueError("graph is not connected")
    return dist.reshape(len(sources), n)


def root_distances(n: int, eu, ev, root: int) -> np.ndarray:
    """Graph distance from ``root`` to every vertex of the graph with edges
    (eu[i], ev[i]) on vertices 0..n-1, as an int64 row: ``bfs_distances``
    from the one source; ValueError("graph is not connected") if some
    vertex is unreachable."""
    return bfs_distances(adjacency(n, eu, ev), [root])[0].astype(np.int64)


def lookup(sorted_keys: np.ndarray, want) -> np.ndarray:
    """Index of each wanted key in ``sorted_keys``, -1 where absent."""
    if not len(sorted_keys):
        return np.full(np.shape(want), -1)
    i = np.minimum(np.searchsorted(sorted_keys, want), len(sorted_keys) - 1)
    return np.where(sorted_keys[i] == want, i, -1)


def id_array(ids, n: int) -> np.ndarray:
    """Vertex ids as an int64 array; if some id is beyond int64, every id
    outside 0..n-1 is stored as -1, which range checks still reject."""
    try:
        return np.asarray(ids, dtype=np.int64)
    except OverflowError:
        a = np.asarray(ids, dtype=object)
        return np.where((a < 0) | (a >= n), -1, a).astype(np.int64)


def vertex_rows(rows, n: int) -> np.ndarray:
    """``rows`` as ``id_array`` gives them; ValueError("unknown vertex v")
    for the first row v outside 0..n-1, printed as given."""
    a = id_array(rows, n)
    bad = np.flatnonzero((a < 0) | (a >= n))
    if len(bad):
        raise ValueError(f"unknown vertex {np.ravel(np.asarray(rows, dtype=object))[bad[0]]}")
    return a


def edge_array(edges, n: int) -> tuple[np.ndarray, int]:
    """``edges`` as an (m, 2) int64 array, and the index of the first edge
    with an end outside 0..n-1 (m when there is none)."""
    e = id_array(edges, n)
    if e.shape == (0,):
        e = e.reshape(0, 2)
    if e.ndim != 2 or e.shape[1] != 2:
        raise ValueError("edges must be (u, v) pairs")
    out = np.flatnonzero(((e < 0) | (e >= n)).any(axis=1))
    return e, int(out.min(initial=len(e)))


class Graph:
    """Undirected graph on vertices 0..n-1 with a base vertex ``root``.

    Edge i joins ``eu[i]`` and ``ev[i]``; a subclass (a tree, a median
    graph or a product of spaces) sets both arrays and ``forest()``, its
    cube-path forest to the root. ``distances_from``, the numpy BFS of
    ``bfs_distances`` from many sources, is the oracles' independent
    metric: the profiles and samplers read distances off the forest
    (``forest_distances``), and ``keysets.proves_distances`` proves a
    block of them equal to it with no BFS. A median graph's base row comes
    from ``root_distances``, the same BFS from one source, a tree reads
    its depths off its parent array, and a product adds its factors'
    depths. ``dimension`` is read off the forest too.
    """

    def __init__(self, n: int, root: int, label: str = ""):
        self.n = int(n)
        self.root = int(root)
        self.label = label
        if not 0 <= self.root < self.n:
            raise ValueError("root out of range")
        self._forest: Optional[PathForest] = None

    @property
    def vertex_count(self) -> int:
        return self.n

    @property
    def edge_count(self) -> int:
        return len(self.eu)

    @cached_property
    def dimension(self) -> int:
        """The most keys crossed at one step of the cube-path forest: a
        median graph's largest cube, 1 for a tree with an edge, 0 for one
        vertex and the sum of the factors' for a product."""
        return int(np.diff(self.forest().step_ptr).max())

    def distances_from(self, sources) -> np.ndarray:
        """Graph distances from the given vertices to every vertex, an
        S x n block by ``bfs_distances``: the independent metric of
        ``oracle_deviations`` for a block ``keysets.proves_distances``
        does not prove, and of the tests and their oracles
        (``tests/oracles.py``). No profile or sampler calls it. A source
        outside 0..n-1 raises ValueError("unknown vertex v")."""
        sources = np.atleast_1d(vertex_rows(sources, self.n))
        return bfs_distances(self._adjacency, sources)

    @cached_property
    def _adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        return adjacency(self.n, self.eu, self.ev)

    def forest_distances(self, sources) -> np.ndarray:
        """Graph distances from the given vertices to every vertex, read off
        the cube-path forest (``PathForest.distances``): numpy only, and
        what the samplers use."""
        return self.forest().distances(np.atleast_1d(vertex_rows(sources, self.n)))

    def embedding_matrix(self, w, rows):
        """scipy CSR rows of the embedding of ``rows``; column k is key k. A row
        outside 0..n-1 raises ValueError("unknown vertex v")."""
        return self.embedding_matrices([w], rows)[0]

    def embedding_matrices(self, weights, rows) -> list:
        """``embedding_matrix(w, rows)`` for each of ``weights``, from one
        walk of the rows' paths."""
        return csr_matrices(*self.embedding_rows(weights, rows),
                            self.forest().key_count)

    def embedding_rows(self, weights, rows):
        """``embedding_matrices(weights, rows)`` as the numpy CSR triple
        (indptr, indices, [data per weight]) of ``PathForest.rows``."""
        forest = self.forest()
        return forest.rows(vertex_rows(rows, self.n),
                           [forest.weight_table(w) for w in weights])
