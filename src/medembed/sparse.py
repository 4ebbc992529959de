"""Finitely supported vectors in a Hilbert space with integer basis keys,
the cube-path forest every embedding is built from, and ``Graph``, what
trees and median graphs share: edge arrays, CSR, BFS and embedding matrix.

Keys are local to a space: a tree's edge (v, parent(v)) has key v, a
median graph's hyperplane has its class id as its key. These are the keys
``medembed embed`` prints. A product of spaces places each factor's keys
at an explicit offset, so the factor blocks are disjoint.

``embedding_matrix(w, rows)`` is the one way to embed. Its walk costs a
few array operations per path step, whatever the number of rows, so
collect the rows and make one call; ``vectors`` hands them to ``fsum``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import NonTerminationError


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


def vectors(mat: sp.csr_matrix) -> list[SparseVector]:
    """The rows of a CSR matrix, such as ``embedding_matrix(w, rows)``,
    as SparseVectors for the ``fsum`` routines."""
    indices, data = mat.indices.tolist(), mat.data.tolist()
    return [SparseVector(dict(zip(indices[lo:hi], data[lo:hi])))
            for lo, hi in itertools.pairwise(mat.indptr.tolist())]


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

    def matrix(self, rows, table) -> sp.csr_matrix:
        """Row r holds ``table[i]`` on every key that the path of
        ``rows[r]`` crosses at step i; zeros are dropped.

        All rows walk in lockstep, one step per round, writing into
        arrays sized from ``length`` up front.
        """
        rows = np.asarray(rows, dtype=np.int64)
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(self.length[rows], out=indptr[1:])
        idx = np.int32 if max(self.key_count, indptr[-1]) < 2**31 else np.int64
        indices = np.empty(indptr[-1], dtype=idx)
        data = np.empty(indptr[-1])
        at = rows.copy()
        fill = indptr[:-1].copy()
        live = np.flatnonzero(at != self.root)
        step = 0
        while len(live):
            step += 1
            x = at[live]
            first = self.step_ptr[x]
            count = self.step_ptr[x + 1] - first
            offset = np.arange(int(count.sum())) - np.repeat(
                np.cumsum(count) - count, count)
            dst = np.repeat(fill[live], count) + offset
            indices[dst] = self.step_keys[np.repeat(first, count) + offset]
            data[dst] = table[step]
            fill[live] += count
            at[live] = self.exit[x]
            live = live[at[live] != self.root]
        mat = sp.csr_matrix((data, indices, indptr.astype(idx, copy=False)),
                            shape=(len(rows), self.key_count))
        mat.eliminate_zeros()
        mat.sort_indices()
        return mat


def id_array(ids, n: int) -> np.ndarray:
    """Vertex ids as an int64 array; if some id is beyond int64, every id
    outside 0..n-1 is stored as -1, which range checks still reject."""
    try:
        return np.asarray(ids, dtype=np.int64)
    except OverflowError:
        a = np.asarray(ids, dtype=object)
        return np.where((a < 0) | (a >= n), -1, a).astype(np.int64)


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

    Edge i joins ``eu[i]`` and ``ev[i]``; a subclass sets both arrays and
    ``forest()``, its cube-path forest to the root.
    """

    def __init__(self, n: int, root: int, label: str = ""):
        self.n = int(n)
        self.root = int(root)
        self.label = label
        if not 0 <= self.root < self.n:
            raise ValueError("root out of range")
        self._csr: Optional[sp.csr_matrix] = None
        self._forest: Optional[PathForest] = None

    @property
    def vertex_count(self) -> int:
        return self.n

    @property
    def edge_count(self) -> int:
        return len(self.eu)

    def distances_from(self, sources) -> np.ndarray:
        """Graph distances from the given vertices to every vertex."""
        if self._csr is None:
            ones = np.ones(2 * self.edge_count, dtype=np.int8)
            ends = (np.concatenate([self.eu, self.ev]),
                    np.concatenate([self.ev, self.eu]))
            self._csr = sp.csr_matrix((ones, ends), shape=(self.n, self.n))
        d = csgraph.dijkstra(self._csr, unweighted=True, indices=sources)
        return np.atleast_2d(d)

    def _root_distances(self, unreached: str) -> np.ndarray:
        """BFS row of the root; ValueError(unreached) if it misses a vertex."""
        row = self.distances_from([self.root])[0]
        if not np.isfinite(row).all():
            raise ValueError(unreached)
        return row.astype(np.int64)

    def embedding_matrix(self, w, rows) -> sp.csr_matrix:
        """CSR rows of the embedding of ``rows``; column k is key k."""
        forest = self.forest()
        return forest.matrix(rows, forest.weight_table(w))
