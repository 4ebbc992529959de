"""The key sets of cube paths, compared edge by edge.

P(v) is the set of keys on v's path in a space's cube-path forest, each
counted once. ``edge_diffs`` compares P(u) with P(v) across every edge
(u, v): ``cube.key_property`` reads the index gaps and the cut off it.
``forest_certificate`` proves from it, once per space and with no BFS,
that |P(s) Δ P(v)| is the graph distance of every pair, and
``certified_block`` proves a block of distances read off the forest equal
to that count by its signs across the edges: ``metrics.oracle_deviations``
reads its metric off the two. numpy only; imported only by those callers,
so a command that runs neither compiles none of it.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional

import numpy as np

from . import sparse
from .sparse import PathForest, lookup, ranges


class EdgeDiffs(NamedTuple):
    """``edge_diffs``: for every edge (u, v), its ends' key sets P(u) and
    P(v) compared, each key counted once at its first step.

    ``count``: the keys in exactly one of P(u) and P(v). ``key``: one of
    them, the only one where ``count`` is 1, and -1 where there is none;
    ``on_u`` whether it lies in P(u). ``gap``: the largest difference of
    the steps at which the two paths cross a common key, 0 if none.
    ``distinct``: |P(x)| for every vertex x at the end of some edge, -1
    for the others. ``probe_u`` and ``probe_v``: the step at which u's and
    v's paths first cross the edge's probe key, 0 where they do not.
    """

    count: np.ndarray
    key: np.ndarray
    on_u: np.ndarray
    gap: np.ndarray
    distinct: np.ndarray
    probe_u: np.ndarray
    probe_v: np.ndarray


def edge_diffs(forest: PathForest, eu, ev, probe=None) -> EdgeDiffs:
    """Compare P(u) and P(v) across every edge (eu[i], ev[i]);
    ``probe``, if given, holds one key per edge whose first steps on both
    paths are reported too.

    The edges go in chunks whose ends' paths hold about LEVEL_ENTRIES keys
    in all, and each chunk builds only the rows of its own end vertices
    (``PathForest.rows``, with the step of every key), so memory stays
    near LEVEL_ENTRIES entries however deep the paths. Within a chunk,
    edge i's keys are coded i * K + key, sorted, and u's codes are looked
    up among v's.
    """
    eu, ev = np.asarray(eu, dtype=np.int64), np.asarray(ev, dtype=np.int64)
    m, k = len(eu), max(forest.key_count, 1)
    count = np.zeros(m, dtype=np.int64)
    key = np.full(m, -1, dtype=np.int64)
    on_u = np.zeros(m, dtype=bool)
    gap = np.zeros(m, dtype=np.int64)
    probe_u = np.zeros(m, dtype=np.int64)
    probe_v = np.zeros(m, dtype=np.int64)
    distinct = np.full(len(forest.exit), -1, dtype=np.int64)
    steps = np.arange(int(forest.length.max(initial=0)) + 1)
    entries = forest.length[eu] + forest.length[ev]
    starts = np.cumsum(entries) - entries
    cuts = np.unique(np.searchsorted(
        starts, np.arange(0, int(entries.sum()) + 1, sparse.LEVEL_ENTRIES)))
    for a, b in itertools.pairwise([*cuts[cuts < m].tolist(), m]):
        ends, row = np.unique(np.concatenate([eu[a:b], ev[a:b]]), return_inverse=True)
        ptr, keys, (step,) = forest.rows(ends, [steps])
        # a key crossed twice counts once, at its first step
        code = np.arange(len(ends)).repeat(np.diff(ptr)) * k + keys
        first = np.ones(len(code), dtype=bool)
        first[1:] = code[1:] != code[:-1]
        keys, step = keys[first], step[first]
        size = np.bincount(code[first] // k, minlength=len(ends))
        ptr = np.concatenate([[0], np.cumsum(size)])
        distinct[ends] = size
        c = b - a
        sides = []
        for r in (row[:c], row[c:]):
            at = ranges(ptr[r], size[r])
            edge = np.arange(c).repeat(size[r])
            sides.append((edge, at, edge * k + keys[at]))
        (edge_u, at_u, code_u), (edge_v, at_v, code_v) = sides
        there = lookup(code_v, code_u)
        both = there >= 0
        np.maximum.at(gap, a + edge_u[both],
                      np.abs(step[at_u[both]] - step[at_v[there[both]]]))
        matched = np.zeros(len(code_v), dtype=bool)
        matched[there[both]] = True
        only_u, only_v = ~both, ~matched
        count[a:b] = (np.bincount(edge_u[only_u], minlength=c)
                      + np.bincount(edge_v[only_v], minlength=c))
        key[a + edge_v[only_v]] = keys[at_v[only_v]]
        key[a + edge_u[only_u]] = keys[at_u[only_u]]
        on_u[a + edge_u[only_u]] = True
        if probe is not None:
            want = np.arange(c) * k + np.asarray(probe[a:b])
            for out, codes, at in ((probe_u, code_u, at_u), (probe_v, code_v, at_v)):
                hit = lookup(codes, want)
                out[a:b][hit >= 0] = step[at[hit[hit >= 0]]]
    return EdgeDiffs(count, key, on_u, gap, distinct, probe_u, probe_v)


def forest_certificate(space) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Prove that |P(s) Δ P(v)| is the graph distance of every pair of
    vertices of ``space`` (a ``sparse.Graph``), with no BFS. Returns, for
    every edge that is not a self-loop, the one key k_e its ends differ
    in, the end whose path holds it and the other end, as three arrays; or
    None where the proof fails.

    Two checks. (A) The two ends of every edge differ in exactly one key
    k_e (``edge_diffs``). (B) Every vertex v is the only vertex that
    agrees with v on all the keys of v's own edges. By (A), the count
    changes by exactly 1 along every edge, so it is at most the distance.
    By (B), every v other than s disagrees with s on the key k_e of some
    edge e at v, and crossing e takes v one key closer to P(s); so the
    count is at least the distance. (B) also implies that the graph is
    connected (those steps reach s from every v) and that P is injective.
    A self-loop changes no distance and is skipped.

    (B) is tested on bitsets of the halfspaces {s : k ∈ P(s)}: for each v,
    the halfspaces of its edges' keys, complemented where v's path does
    not hold the key, are AND-ed, and a popcount must leave v alone. The
    bitsets are built in blocks of about BLOCK_ENTRIES 64-bit words (all
    K keys over a range of vertex words, from the rows of that range's
    vertices, about LEVEL_ENTRIES keys), and AND-ed in pieces of about as
    many words."""
    forest = space.forest()
    n, n_keys = space.vertex_count, forest.key_count
    loop = space.eu == space.ev
    eu, ev = space.eu[~loop], space.ev[~loop]
    diffs = edge_diffs(forest, eu, ev)
    if not (diffs.count == 1).all():
        return None
    holder = np.where(diffs.on_u, eu, ev)
    other = np.where(diffs.on_u, ev, eu)
    certificate = diffs.key, holder, other
    if n == 1:
        return certificate
    # each vertex's edge keys, grouped by vertex; the other end's copy is
    # complemented, since its path does not hold the key
    ends = np.concatenate([holder, other])
    order = np.argsort(ends, kind="stable")
    keys = np.concatenate([diffs.key, diffs.key])[order]
    flip = order >= len(holder)
    start = np.searchsorted(ends[order], np.arange(n + 1))
    del ends, order, diffs
    if (np.diff(start) == 0).any():
        return None  # a vertex on no edge: the graph is not connected
    # words per block: about BLOCK_ENTRIES in the bitsets, and about
    # LEVEL_ENTRIES keys in the rows they are built from
    n_words, words = -(-n // 64), sparse.BLOCK_ENTRIES
    per = min(n_words, max(1, words // max(1, n_keys)),
              max(1, sparse.LEVEL_ENTRIES * n_words // max(1, int(forest.length.sum()))))
    piece = max(1, words // per)
    cuts = np.unique(np.searchsorted(start[1:], np.arange(0, start[-1], piece),
                                     side="right"))
    agree = np.zeros(n, dtype=np.int64)
    for lo in range(0, n, 64 * per):
        hi = min(lo + 64 * per, n)
        ptr, on, _ = forest.rows(np.arange(lo, hi), [])
        bit = np.arange(hi - lo).repeat(np.diff(ptr))
        width = -(-(hi - lo) // 64)
        half = np.zeros((n_keys, width), dtype=np.uint64)
        np.bitwise_or.at(half.reshape(-1), on * width + bit // 64,
                         np.left_shift(np.uint64(1), (bit % 64).astype(np.uint64)))
        del ptr, on, bit
        # the last word's bits past vertex hi - 1 are no vertices
        tail = np.uint64((1 << ((hi - lo - 1) % 64 + 1)) - 1)
        for a, b in itertools.pairwise([*cuts.tolist(), n]):
            at = slice(start[a], start[b])
            sets = half[keys[at]]
            np.invert(sets, out=sets, where=flip[at, None])
            sets = np.bitwise_and.reduceat(sets, start[a:b] - start[a], axis=0)
            sets[:, -1] &= tail
            agree[a:b] += np.bitwise_count(sets).sum(axis=1, dtype=np.int64)
    return certificate if (agree == 1).all() else None


def certified_block(forest: PathForest, certificate, block, t) -> bool:
    """Whether the S x n block t of distances from the sources ``block``
    is |P(s) Δ P(·)|, given the ``forest_certificate`` of its space, by
    two checks: t(s, s) = 0, and across every edge t(s, holder) - t(s,
    other) = 1 - 2 [k_e ∈ P(s)], which the count satisfies. Then t(s, ·)
    minus the count is constant along every edge and zero at s, and the
    graph is connected: t is the distance. One pass over the S x m ends
    of the edges, O(S m), in pieces of n edges."""
    key, holder, other = certificate
    rows = np.arange(len(block))
    if (t[rows, block] != 0).any():
        return False
    ptr, on, _ = forest.rows(block, [])
    twice = np.zeros((len(block), forest.key_count), dtype=np.int8)
    twice[rows.repeat(np.diff(ptr)), on] = 2
    piece = t.shape[1]  # edges at a time: temporaries the size of t
    for at in range(0, len(key), piece):
        cut = slice(at, at + piece)
        step = t[:, holder[cut]]
        step -= t[:, other[cut]]
        step += twice[:, key[cut]]
        if (step != 1).any():
            return False
    return True
