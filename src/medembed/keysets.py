"""The key sets of cube paths compared edge by edge, and the proof that
a block of distances is the graph metric.

P(v) is the set of keys on v's path in a space's cube-path forest, each
counted once. ``edge_diffs`` compares P(u) with P(v) across every edge
(u, v): ``cube.key_property`` reads the index gaps and the cut off it.
``proves_distances`` proves a block of distances from a few sources equal
to the BFS metric by its layers across the edges, with no BFS, over the
neighbours grouped by degree (``degree_groups``, once per space):
``metrics.oracle_deviations`` reads its metric off it. numpy only;
imported only by those callers, so a command that runs neither compiles
none of it.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from . import sparse
from .sparse import PathForest, lookup, ranges


class EdgeDiffs(NamedTuple):
    """``edge_diffs``: for every edge (u, v), its ends' key sets P(u) and
    P(v) compared, each key counted once at its first step.

    ``count``: the keys in exactly one of P(u) and P(v). ``key``: one of
    them, the only one where ``count`` is 1, and -1 where there is none.
    ``gap``: the largest difference of the steps at which the two paths
    cross a common key, 0 if none. ``distinct``: |P(x)| for every vertex x
    at the end of some edge, -1 for the others. ``probe_u`` and
    ``probe_v``: the step at which u's and v's paths first cross the
    edge's probe key, 0 where they do not.
    """

    count: np.ndarray
    key: np.ndarray
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
    gap = np.zeros(m, dtype=np.int64)
    probe_u = np.zeros(m, dtype=np.int64)
    probe_v = np.zeros(m, dtype=np.int64)
    distinct = np.full(len(forest.exit), -1, dtype=np.int64)
    steps = np.arange(int(forest.length.max(initial=0)) + 1)
    entries = forest.length[eu] + forest.length[ev]
    starts = np.cumsum(entries) - entries
    # the distinct cuts of the ascending searchsorted: a plain np.unique
    # would import numpy.ma
    cuts = np.searchsorted(starts, np.arange(0, int(entries.sum()) + 1, sparse.LEVEL_ENTRIES))
    cuts = cuts[np.diff(cuts, prepend=-1) > 0]
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
        if probe is not None:
            want = np.arange(c) * k + np.asarray(probe[a:b])
            for out, codes, at in ((probe_u, code_u, at_u), (probe_v, code_v, at_v)):
                hit = lookup(codes, want)
                out[a:b][hit >= 0] = step[at[hit[hit >= 0]]]
    return EdgeDiffs(count, key, gap, distinct, probe_u, probe_v)


def degree_groups(space) -> list[tuple[np.ndarray, np.ndarray]]:
    """The vertices of ``space`` (a ``sparse.Graph``) grouped by degree,
    from its adjacency: one pair (vertices, neighbours) per degree k that
    occurs, the vertices ascending and neighbours[j] the j-th neighbour of
    each, a k x c block of intp ids. A self-loop lists its vertex twice,
    and a repeated edge its other end twice."""
    start, nbr = space._adjacency
    degree = np.diff(start)
    order = np.argsort(degree, kind="stable")
    count = np.bincount(degree)
    bounds = np.cumsum(count) - count
    groups = []
    for k in np.flatnonzero(count).tolist():
        vertices = order[bounds[k]:bounds[k] + count[k]]
        groups.append((vertices, nbr[start[vertices] + np.arange(k)[:, None]].astype(np.intp)))
    return groups


def proves_distances(groups, block, t) -> bool:
    """Whether the S x n block t holds the graph distances from the
    sources ``block``, given the ``degree_groups`` of the graph, by three
    checks for each source s (McConnell, Mehlhorn, Näher and Schweitzer,
    "Certifying algorithms", Computer Science Review 2011): t(s, s) = 0;
    no edge changes t(s, ·) by more than 1; and every vertex but s has a
    neighbour one step closer. The second gives t <= d along a shortest
    path. By the third, steps to a closer neighbour reach s from any v in
    exactly t(s, v) steps, as t drops by one each step and cannot drop
    below t(s, s) = 0, so d <= t. A disconnected graph fails.

    The checks read t.T, n x S and C-ordered for ``PathForest.distances``,
    with no copy. Each group's vertices go about LEVEL_ENTRIES entries at a
    time; their neighbours' rows are gathered one neighbour at a time (in
    a group of fewer vertices, as many neighbours as fill the piece) into
    a running min and max over each vertex and its neighbours. The max may
    exceed the vertex's own row by at most 1 (every edge is listed at both
    ends), and the min must fall below it, except at the source."""
    block = np.asarray(block)
    if (t[np.arange(len(block)), block] != 0).any():
        return False
    rows = t.T
    piece = max(1, sparse.LEVEL_ENTRIES // max(1, len(block)))
    for vertices, neighbours in groups:
        slot = lookup(vertices, block)
        at = np.flatnonzero(slot >= 0)  # the sources in the group
        src = slot[at]  # and their places in it
        for a in range(0, len(vertices), piece):
            own = rows.take(vertices[a:a + piece], axis=0)
            low, high = own.copy(), own.copy()
            width = max(1, piece // len(own))  # neighbours gathered at once
            for j in range(0, len(neighbours), width):
                near = rows.take(neighbours[j:j + width, a:a + piece], axis=0)
                np.minimum(low, near.min(axis=0) if width > 1 else near[0], out=low)
                np.maximum(high, near.max(axis=0) if width > 1 else near[0], out=high)
            high -= own
            if (high > 1).any():
                return False
            low -= own
            mine = (src >= a) & (src < a + piece)
            low[src[mine] - a, at[mine]] = -1  # the source has no closer neighbour
            if (low >= 0).any():
                return False
    return True
