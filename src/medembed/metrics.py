"""Empirical compression/dilatation profiles and the bound curves they face.

For an embedding f of a finite space, the profile records per realized
integer distance t the smallest embedded distance over sampled pairs at
metric distance >= t (``rho_hat``, a suffix minimum) and the largest
embedded distance over pairs at metric distance <= t (``delta_hat``, a
prefix maximum).  Exhaustive sampling makes both exact on the space;
random sampling can only raise rho_hat and lower delta_hat.

``profile`` takes a ``sparse.Graph``: a tree, a median graph or a
``ProductSpace`` of them. Every one has a cube-path forest, and the
profiles read the path lengths, the key count, the embedding rows
(``embedding_rows``, numpy CSR triples) and the distances
(``forest_distances``) off it. No profile loads scipy. The stratified
sampler reads the distances from a few sources to every vertex one group
of sources at a time, twice: once to count the candidates of each source
by distance, from which it draws its pairs with no sort of all
candidates, and once to turn the drawn ranks into vertices, embed the
group's pairs and fold them into the profile, so it holds no block of
all the sources' rows and no array of all pairs but the draw's narrow
picks; the uniform sampler reads its pairs' distances off their
unit-weight rows, from the walk that embeds them at the profile's
weight. Both embed with one kernel (``_pair_sq_distances``, at one or
more weights) that walks
the target rows in chunks of at least CHUNK_ROWS rows, sums in blocks of
at most CHUNK_ENTRIES entries and adds every sum in the same order as a
CSR x dense product. The stratified sampler skips the kernel where the
space's forest is a product of rooted trees (``factors.tree_factors``,
which checks that exactly): a tree, a grid, a median graph built from a
tree or a product of trees, or a ``ProductSpace`` of trees. There a
pair's squared distance is the sum of its factors', each the closed
form of its depth triple in the factor tree (``_triple_sq_distances``),
so it is exact up to rounding with no term that cancels; with two
factors or more, a source's distances are the sums of its factor trees'
too (``factors.FactorPairs``).

``oracle_deviations`` checks the two identities on any ``Graph``: each
block of sources reads its distances off the forest, and
``keysets.proves_distances`` proves them equal to the graph metric by
their layers across the edges. The unit-weight rows are checked once to
follow the forest. Only a block that is not proved runs the BFS
(``distances_from``).

An exhaustive profile takes one of two routes, chosen as the stratified
sampler chooses, by whether ``factors.tree_factors`` finds the forest a
product of rooted trees. There each factor tree is folded once from its
pair counts and the closed form at each (a, b)'s extreme meeting depths
(``_tree_entries``), and the folds are convolved (``_product_entries``),
at a cost of the product of the factors' distance ranges, not of the
n(n-1)/2 pairs. Every other space (a staircase, a product with a factor
that is not a tree) takes the pair kernel over the blocks of sources of
``_source_blocks``, whose t are read off the forest, as
``oracle_deviations`` reads them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import BudgetExceededError
from .sparse import BLOCK_ENTRIES, Graph, PathForest, narrowest, product_edges, ranges
from .tree import DEFAULT_VERTEX_BUDGET, RootedTree
from .weights import WeightFunction, deficit_bound, diff_sq_tail_bound

EXHAUSTIVE_DEFAULT_PAIR_LIMIT = 2_000_000
# _pair_sq_distances walks its target rows in chunks of at least CHUNK_ROWS
# rows, or as many as fit in CHUNK_ENTRIES entries, whichever is more
# (_runs), and pads them, and sums their pairs' terms, in blocks of at most
# CHUNK_ENTRIES entries (or one row, or one pair).
CHUNK_ENTRIES = 1 << 16
CHUNK_ROWS = 512
# Entries of the dense source rows, per weight, of one _pair_sq_distances
# call of the uniform sampler (_uniform_sq_distances).
DENSE_ENTRIES = 1 << 18
# The stratified sampler takes its sources in groups of at least 8 (all of
# them if fewer), in at most 16 groups, as each group looks its picks up
# among all, and otherwise as many as hold GROUP_ENTRIES (source, vertex)
# candidates where each row is built on its own, as a sum of factor rows, or
# BLOCK_GROUP_ENTRIES where a group's rows are read off the forest as one
# block, which each group walks again, as the pair kernel walks its targets.
# Small groups cost time only where rows come in blocks: blocks of 8 sources
# made stratified:1000 take 2.4 times as long on staircase 200 and, in place
# of the factor rows, 1.35 times as long on grid 100x100.
GROUP_ENTRIES = 1 << 16
BLOCK_GROUP_ENTRIES = 1 << 22
# Bytes the stratified sampler may hold: CANDIDATE_BYTES per (source,
# vertex) candidate of one group (its int32 distance, where the group's rows
# are read off the forest as one block, and the few arrays per vertex of one
# source's pass, spread over at least 8 sources), per drawn pair its source
# and rank and the two one-byte masks that select a group's picks (8 bytes
# with int16 sources and int32 ranks), PAIR_BYTES per drawn pair of one
# group, these included (its order by source, its ends, and the pair kernel's
# numbering of the ends, its indices and the embedded distance),
# SOURCE_KEY_BYTES per source of one group and key (a dense float64 row and
# an int8 indicator), and ENTRY_BYTES per path step of one walk of target
# rows (the walk's records and sort keys, then the rows and the cache-sized
# blocks of padded rows and pair terms). The factor route, for a product of
# trees, holds FACTOR_BYTES per vertex and per key of its step (finding and
# checking the factors, and the factor trees) and per pair of one block of
# CHUNK_ENTRIES pairs (their coordinates, depths, triples and squares, and the
# kept sums P_c, at most CHUNK_ENTRIES floats), and, with two factors or
# more, an int32 distance per source and factor vertex; the plan takes the
# larger of the two routes.
CANDIDATE_BYTES = 6
PAIR_BYTES = 48
SOURCE_KEY_BYTES = 9
ENTRY_BYTES = 56
FACTOR_BYTES = 48
SAMPLER_BUDGET = 3 << 30


@dataclass(frozen=True)
class PairSampler:
    """How vertex pairs are drawn: all of them, uniformly at random, or a
    fixed number per realized distance."""

    mode: str
    count: int = 0  # pairs (uniform) or pairs per distance (stratified)
    seed: Optional[int] = None

    def __post_init__(self):
        if self.mode == "uniform" and self.count < 1:
            raise ValueError("uniform sampler needs a pair count of at least 1")
        if self.mode == "stratified" and self.count < 1:
            raise ValueError(
                "stratified sampler needs a per-bucket count of at least 1")

    @classmethod
    def exhaustive(cls) -> "PairSampler":
        return cls(mode="exhaustive")

    @classmethod
    def uniform(cls, count: int, seed: int) -> "PairSampler":
        return cls(mode="uniform", count=int(count), seed=int(seed))

    @classmethod
    def stratified(cls, count: int, seed: int) -> "PairSampler":
        return cls(mode="stratified", count=int(count), seed=int(seed))

    def label(self) -> str:
        if self.mode == "exhaustive":
            return "exhaustive"
        return f"{self.mode}:{self.count},seed{self.seed}"


@dataclass(frozen=True)
class ProfileEntry:
    t: int
    rho_hat: float
    delta_hat: float
    pair_count: int


@dataclass(frozen=True)
class CompressionProfile:
    entries: tuple[ProfileEntry, ...]
    metadata: Mapping[str, object] = field(default_factory=dict)

    def ts(self) -> np.ndarray:
        return np.asarray([e.t for e in self.entries], dtype=np.int64)

    def rho(self) -> np.ndarray:
        return np.asarray([e.rho_hat for e in self.entries])

    def delta(self) -> np.ndarray:
        return np.asarray([e.delta_hat for e in self.entries])

    def pair_counts(self) -> np.ndarray:
        return np.asarray([e.pair_count for e in self.entries], dtype=np.int64)


class _ProfileAccumulator:
    """Streamed per-distance minima/maxima/counts over pair chunks."""

    def __init__(self):
        self.min_emb = np.full(1, np.inf)
        self.max_emb = np.zeros(1)
        self.counts = np.zeros(1, dtype=np.int64)

    def _grow(self, tmax: int):
        size = len(self.counts)
        if tmax < size:
            return
        new = tmax + 1
        self.min_emb = np.concatenate([self.min_emb, np.full(new - size, np.inf)])
        self.max_emb = np.concatenate([self.max_emb, np.zeros(new - size)])
        self.counts = np.concatenate(
            [self.counts, np.zeros(new - size, dtype=np.int64)])

    def add(self, ts: np.ndarray, emb: np.ndarray, counts=1):
        """Fold pairs at distances ``ts`` with embedded distances ``emb``;
        entry i stands for ``counts[i]`` pairs (one each by default)."""
        if len(ts) == 0:
            return
        self._grow(int(ts.max()))
        np.minimum.at(self.min_emb, ts, emb)
        np.maximum.at(self.max_emb, ts, emb)
        np.add.at(self.counts, ts, counts)

    def entries(self) -> tuple[ProfileEntry, ...]:
        return _fold_entries(self.counts, self.min_emb, self.max_emb)


def _fold_entries(counts, min_emb, max_emb) -> tuple[ProfileEntry, ...]:
    """Profile rows from per-distance pair counts and least and greatest
    embedded distances: a suffix minimum and a prefix maximum over the
    realized distances."""
    realized = np.flatnonzero(counts)
    if len(realized) == 0:
        raise ValueError("empty sample")
    rho = np.minimum.accumulate(min_emb[realized][::-1])[::-1]
    delta = np.maximum.accumulate(max_emb[realized])
    return tuple(
        ProfileEntry(int(t), float(r), float(d), int(c))
        for t, r, d, c in zip(realized, rho, delta, counts[realized])
    )


def _entries_from_pairs(ts: np.ndarray, emb: np.ndarray) -> tuple[ProfileEntry, ...]:
    """Aggregate per-pair data into profile rows (suffix min / prefix max)."""
    acc = _ProfileAccumulator()
    acc.add(np.asarray(ts, dtype=np.int64), np.asarray(emb))
    return acc.entries()


def _offset_sums(table: np.ndarray, c: int) -> np.ndarray:
    """P_c(0..depth - c) of ``_triple_sq_distances`` for the weight table."""
    step = table[1:len(table) - c] - table[1 + c:]
    return np.concatenate(([0.0], np.cumsum(step * step)))


def _triple_sq_distances(table: np.ndarray, sq: np.ndarray, c: int, a, s,
                         p: Optional[np.ndarray] = None) -> np.ndarray:
    """Squared embedded distance of tree pairs that meet at depth s and
    lie a and b = a + c edges below it, from the weight table w(0..depth)
    of ``PathForest.weight_table`` and its prefix sums of squares ``sq`` =
    ``np.cumsum(table * table)``, computed once per table by the caller:
    S(a) + S(b) + P_c(a + s) - P_c(a), where S(k) sums w(i)^2 and P_c(k)
    sums (w(i) - w(i + c))^2 over i <= k (``_offset_sums``, built here if
    ``p`` does not give it). No term cancels, unlike |u|^2 + |v|^2 -
    2 u.v."""
    if p is None:
        p = _offset_sums(table, c)
    return sq[a] + sq[a + c] + (p[a + s] - p[a])


def _tree_entries(tree: RootedTree, w: WeightFunction):
    """Per distance t = 0..2 * depth, the ordered pairs (u, v) of a tree:
    their count (n at t = 0, twice ``distance_counts`` after) and least and
    greatest squared embedded distance (+inf and -inf at no pair). For
    fixed (a, b), S(a) + S(b) + P_c(a + s) - P_c(a) is nondecreasing in s,
    in floats too: P_c is a cumulative sum of nonnegative terms and
    rounding is monotone. So the extremes at each t are among the values
    at each (a, b)'s least and greatest meeting depth s
    (``RootedTree.meeting_extremes``)."""
    table = tree.forest().weight_table(w)
    sq = np.cumsum(table * table)
    counts = 2 * tree.distance_counts()
    counts[0] = tree.vertex_count
    least, most = np.full(len(counts), np.inf), np.full(len(counts), -np.inf)
    least[0] = most[0] = 0.0
    for c, a, lo, hi in tree.meeting_extremes():
        emb_sq = _triple_sq_distances(table, sq, c, np.concatenate((a, a)),
                                      np.concatenate((lo, hi)))
        t = slice(2 * int(a[0]) + c, 2 * int(a[-1]) + c + 1, 2)
        np.minimum(least[t], emb_sq[:len(a)], out=least[t])
        np.maximum(most[t], emb_sq[len(a):], out=most[t])
    return counts, least, most


def _convolve(left, right):
    """``_tree_entries`` of a product from its two factors': a pair at t_1
    + t_2 has the square s_1 + s_2, so the counts convolve, the least
    squares by min-plus and the greatest by max-plus, which is exact as
    rounded addition is monotone in each term."""
    (c1, lo1, hi1), (c2, lo2, hi2) = left, right
    least, most = (np.full(len(c1) + len(c2) - 1, end) for end in (np.inf, -np.inf))
    for t in np.flatnonzero(c1).tolist():
        span = slice(t, t + len(c2))
        np.minimum(least[span], lo1[t] + lo2, out=least[span])
        np.maximum(most[span], hi1[t] + hi2, out=most[span])
    return np.convolve(c1, c2), least, most


def _product_entries(folds):
    """Profile rows of the product of the trees folded into ``folds``,
    convolved left to right (none for one tree), so the squares add in
    factor order, as in ``factors.FactorPairs.sq_distances``."""
    counts, least, most = functools.reduce(_convolve, folds)
    counts[0] = 0
    counts //= 2
    return _fold_entries(counts, np.sqrt(least), np.sqrt(np.maximum(most, 0.0)))


def _runs(lengths):
    """Bounds (lo, hi) of consecutive runs of the ascending ``lengths``
    that hold CHUNK_ROWS items, or more while their last length times
    their size stays within CHUNK_ENTRIES."""
    lo = 0
    while lo < len(lengths):
        size = max(CHUNK_ROWS, CHUNK_ENTRIES // max(1, int(lengths[lo])))
        size = min(size, len(lengths) - lo)
        fits = np.arange(1, size + 1)
        fits = (fits <= CHUNK_ROWS) | (lengths[lo:lo + size] * fits <= CHUNK_ENTRIES)
        hi = lo + int(np.count_nonzero(fits))
        yield lo, hi
        lo = hi


def _padded(ptr, *arrays) -> list[np.ndarray]:
    """The rows of a CSR triple as J x R blocks, one per array of entries,
    J the longest row: column r holds row r's entries in order, then
    zeros."""
    counts = np.diff(ptr)
    shape = (counts.max(initial=0), len(counts))
    # entry i of row r goes to (i - ptr[r]) * R + r
    at = np.arange(len(arrays[0])) * shape[1]
    at -= (ptr[:-1] * shape[1] - np.arange(shape[1])).repeat(counts)
    blocks = []
    for values in arrays:
        block = np.zeros(shape, dtype=values.dtype)
        block.ravel()[at] = values
        blocks.append(block)
    return blocks


def _in_order_sums(block) -> np.ndarray:
    """Column sums of a J x R block, added one row at a time from row 0,
    as a scalar loop (and scipy's sparse x dense product) adds them.
    numpy reduces axis 0 of a C-ordered block row by row when R > 1 (its
    inner loop runs along a row); one column it would sum in pairs, so that
    is accumulated, which adds in order. The first partial sum is row 0
    itself, not 0 + row 0, so only the sign of a zero sum can differ, and
    that vanishes once a norm is added."""
    block = np.ascontiguousarray(block)
    if block.shape[1] == 1:
        return np.add.accumulate(block[:, 0])[-1:] if len(block) else np.zeros(1)
    return np.add.reduce(block, axis=0)


def _distinct(ids, n: int):
    """``np.unique(ids, return_inverse=True)`` of vertex ids below n, the
    inverse held narrow. Where the ids are many, without their sort: a mask
    of the n vertices marks the distinct ids and numbers them."""
    if len(ids) < n // 8:
        distinct, inverse = np.unique(ids, return_inverse=True)
        return distinct, inverse.astype(narrowest(len(distinct)))
    seen = np.zeros(n, dtype=bool)
    seen[ids] = True
    distinct = np.flatnonzero(seen)
    slot = np.empty(n, dtype=narrowest(len(distinct)))
    slot[distinct] = np.arange(len(distinct))
    return distinct, slot[ids]


def _pair_sq_distances(space, weights, us, vs) -> list[np.ndarray]:
    """Squared embedded distances of the pairs (us[i], vs[i]) at each of
    ``weights``, one array per weight from one walk of the rows, computed
    for these pairs only. The distinct first ends' rows are held dense.
    The second ends are taken in order of path length and walked in chunks
    (``_runs``); each chunk's rows are padded to its longest, and their
    pairs summed, in blocks of at most CHUNK_ENTRIES entries, with one
    gather of the keys per block for all weights.

    Each dot sums value x dense source value over the target's row in
    ascending key order, one term at a time (``_in_order_sums``), and so
    does each norm. A zero term (padding, a step another weight weighs, or
    a key the source lacks) adds exactly 0, so every (-2 v.s) + (|v|^2 +
    |s|^2) is bit for bit what the CSR rows' product with the dense
    sources gives, and coinciding vectors give exactly 0."""
    forest = space.forest()
    sources, src_of = _distinct(us, space.vertex_count)
    key_count = forest.key_count
    s_ptr, s_keys, s_data = space.embedding_rows(weights, sources)
    dense, s_sq = [], []
    for data in s_data:
        rows = np.zeros((len(sources), key_count))
        rows[np.arange(len(sources)).repeat(np.diff(s_ptr)), s_keys] = data
        dense.append(rows.ravel())
        s_sq.append(_in_order_sums(np.square(*_padded(s_ptr, data))))
    targets, tgt_of = _distinct(vs, space.vertex_count)
    lengths = forest.length[targets]
    by_len = np.argsort(lengths, kind="stable")
    targets, lengths = targets[by_len], lengths[by_len]
    rank = np.empty(len(targets), dtype=narrowest(len(targets)))
    rank[by_len] = np.arange(len(targets))
    tgt_of = rank[tgt_of]  # each pair's target, in length order
    by_target = np.argsort(tgt_of, kind="stable")
    firsts = np.zeros(len(targets) + 1, dtype=np.int64)
    np.cumsum(np.bincount(tgt_of, minlength=len(targets)), out=firsts[1:])
    emb_sq = [np.empty(len(us)) for _ in weights]
    for lo, hi in _runs(lengths):
        t_ptr, t_keys, t_data = space.embedding_rows(weights, targets[lo:hi])
        # padded blocks and pair terms stay within CHUNK_ENTRIES entries
        width = max(1, CHUNK_ENTRIES // max(1, int(lengths[hi - 1])))
        for sub in range(lo, hi, width):
            end = min(sub + width, hi)
            ptr = t_ptr[sub - lo:end - lo + 1]
            keys, *values = _padded(ptr - ptr[0], t_keys[ptr[0]:ptr[-1]],
                                    *(data[ptr[0]:ptr[-1]] for data in t_data))
            t_sq = [_in_order_sums(np.square(v)) for v in values]
            block = max(1, CHUNK_ENTRIES // max(1, len(keys)))
            for at in range(firsts[sub], firsts[end], block):
                pairs = by_target[at:min(at + block, firsts[end])]
                b = tgt_of[pairs].astype(np.intp)
                b -= sub
                a = src_of[pairs].astype(np.intp)
                # take, not [:, b]: C-ordered, summed without a copy
                cells = keys.take(b, axis=1) + a * key_count
                gathered = [rows[cells] for rows in dense]
                del cells  # before the products allocate
                for terms, vals, t_norm, s_norm, out in zip(gathered, values, t_sq, s_sq, emb_sq):
                    terms *= vals.take(b, axis=1)
                    dots = _in_order_sums(terms)
                    dots *= -2.0
                    dots += t_norm[b] + s_norm[a]
                    out[pairs] = dots
                del gathered, terms  # before the next block is gathered
        del t_ptr, t_keys, t_data  # before the next chunk's rows are built
    return emb_sq


def _source_blocks(space):
    """Sources u, max(1, BLOCK_ENTRIES // n) at a time: yields each block,
    its S x n distances t off the forest (a median graph's through
    ``separating_counts``) and the mask of its pairs v > u in the block x
    [block[0], n) window, at most max(BLOCK_ENTRIES, n) pairs."""
    n = space.vertex_count
    read = getattr(space, "separating_counts", space.forest_distances)
    rows = max(1, BLOCK_ENTRIES // n)
    for start in range(0, n, rows):
        block = np.arange(start, min(start + rows, n))
        t = read(block)
        yield block, t, np.arange(start, n)[None, :] > block[:, None]
        del block, t  # before the next block is read


def _block_pairs(block, mask):
    """The pairs (u, v) of a ``_source_blocks`` mask, int32 ends in mask order."""
    return [(ends + block[0]).astype(np.int32) for ends in np.nonzero(mask)]


def _kernel_entries(space, w: WeightFunction):
    """All pairs u < v by ``_pair_sq_distances``, a ``_source_blocks`` at a time."""
    acc = _ProfileAccumulator()
    for block, t, mask in _source_blocks(space):
        emb_sq, = _pair_sq_distances(space, [w], *_block_pairs(block, mask))
        acc.add(t[:, block[0]:][mask],
                np.sqrt(np.clip(emb_sq, 0.0, None, out=emb_sq), out=emb_sq))
        del t, mask, emb_sq  # before the next block is read
    return acc.entries()


def _group_size(n: int, n_sources: int, entries: int) -> int:
    """Sources per group of the stratified sampler, for groups of about
    ``entries`` candidates (see GROUP_ENTRIES)."""
    return min(n_sources, max(8, entries // n, -(-n_sources // 16)))


def _pick_types(n: int, n_sources: int):
    """The stratified sampler's integer types of a pick's source and rank."""
    return narrowest(n_sources), np.int32 if n < 2**31 else np.int64


def _stratified_need(space, count: int) -> tuple[int, int]:
    """The stratified sampler's source count S and the bytes it may hold:
    the candidates of one group of sources, the picks it may draw
    (``count`` per distance, at most S x n) with the pairs of one group,
    and the larger of the two routes that embed them: the pair kernel's
    dense source rows and key indicators (a group x K, K the key count) and
    one walk of target rows, or the factor route's vertices, step keys and
    block of pairs, with the factor trees' distances from the sources. In a
    product of trees the factors' vertices are the K keys plus one root per
    factor, and there are at most as many factors as the widest step
    crosses keys. The groups are taken at their larger size, that of rows
    read as one block."""
    n = space.vertex_count
    n_sources = min(n, max(16, math.isqrt(4 * count)))
    group = _group_size(n, n_sources, BLOCK_GROUP_ENTRIES)
    pick = sum(np.dtype(t).itemsize for t in _pick_types(n, n_sources)) + 2
    forest = space.forest()
    # no two vertices lie further apart than twice the longest path
    longest = int(forest.length.max())
    pairs = min(n_sources * n, count * 2 * longest)
    entries = max(CHUNK_ENTRIES, CHUNK_ROWS * longest)  # rows of one walk
    kernel = group * forest.key_count * SOURCE_KEY_BYTES + entries * ENTRY_BYTES
    widest = int(np.diff(forest.step_ptr).max())
    blocks = n_sources * (forest.key_count + widest) * 4 if widest > 1 else 0
    factor = (n + len(forest.step_keys) + CHUNK_ENTRIES) * FACTOR_BYTES + blocks
    return n_sources, (group * n * CANDIDATE_BYTES + pairs * pick
                       + min(group * n, pairs) * (PAIR_BYTES - pick)
                       + max(kernel, factor))


def _stratified_plan(space, count: int) -> int:
    """The stratified sampler's source count S; raises BudgetExceededError,
    before anything is allocated, if ``_stratified_need`` is over
    SAMPLER_BUDGET bytes."""
    n_sources, need = _stratified_need(space, count)
    if need > SAMPLER_BUDGET:
        raise BudgetExceededError(
            f"stratified:{count} needs {need} bytes for {n_sources} sources x "
            f"{space.vertex_count} vertices, over the budget of {SAMPLER_BUDGET} bytes")
    return n_sources


def _stratified_groups(space, w: WeightFunction, sampler: PairSampler):
    """Pairs from a few random sources, at most ``count`` per distance,
    yielded one group of sources at a time (GROUP_ENTRIES) as (picks,
    us, vs, ts, emb_sq): each pair's place in the draw, its ends, its
    distance and its squared embedded distance.

    A source's row holds its distance to every vertex, with the sources
    before it (their pairs are kept from the other end) set to 0. Where
    the forest is a product of two trees or more, a row is the sum of its
    factor trees' rows (``factors.FactorPairs.row``); otherwise a group's
    rows are read off the cube-path forest (``forest_distances``) as one
    block. No block of all the sources' rows is held. The pairs are drawn
    in three passes, with no sort of all candidates:

    1. per source, count the kept candidates at each distance, group by
       group, keeping only the counts;
    2. for each realized t in ascending order, draw ``count`` positions in
       the bucket of all candidates at t, in (source, vertex) order, with
       the ``rng.choice`` call of a sort of all candidates by distance
       (only where the bucket holds more than ``count``); a position's
       source and rank follow from the bucket's counts per source;
    3. group by group, the rows are read again and one stable argsort of
       each turns its source's picks' ranks into vertices; then the
       group's pairs are embedded: by their factors' depth triples where
       the forest is a product of trees (``factors.FactorPairs``, built
       once per draw), by ``_pair_sq_distances`` otherwise.

    The picks are held as int32 vertex ranks and small source indices, in
    draw order, so in ascending t: a pick's t is read off the number of
    picks at each t."""
    from .factors import FactorPairs, tree_factors  # not compiled by the uniform sampler

    n = space.vertex_count
    n_sources = _stratified_plan(space, sampler.count)
    rng = np.random.default_rng(sampler.seed)
    sources = np.sort(rng.choice(n, size=n_sources, replace=False))
    product = tree_factors(space.forest())
    factored = None if product is None else FactorPairs(product, w, sources)
    by_factors = product is not None and len(product.trees) > 1
    group = _group_size(n, n_sources, GROUP_ENTRIES if by_factors else BLOCK_GROUP_ENTRIES)

    def rows(lo: int, hi: int):
        """The rows of sources lo..hi - 1, in turn."""
        block = None if by_factors else space.forest_distances(sources[lo:hi])
        for i in range(lo, hi):
            row = factored.row(i) if by_factors else block[i - lo]
            row[sources[:i]] = 0
            yield row

    groups = [(lo, min(lo + group, n_sources)) for lo in range(0, n_sources, group)]
    # pass 1: per_t[t, i] candidates of source i at distance t, and before
    # them below[t, i] entries of its row (the zeros included)
    counts = [np.bincount(row) for lo, hi in groups for row in rows(lo, hi)]
    top = len(max(counts, key=len)) - 1
    t_type = np.int16 if top < 2**15 else np.int32  # 16 bits: radix argsort
    per_t = np.zeros((top + 1, n_sources), dtype=np.int64)
    for i, c in enumerate(counts):
        per_t[:len(c), i] = c
    del counts
    below = np.cumsum(per_t, axis=0)
    below -= per_t
    per_t[0] = 0
    # pass 2: positions in each bucket, then their sources and ranks
    ends = np.cumsum(per_t, axis=1)  # bucket t's candidates up to source i
    src_type, at_type = _pick_types(n, n_sources)
    realized = np.flatnonzero(ends[:, -1])
    stops = np.cumsum(np.minimum(ends[realized, -1], sampler.count))
    src = np.empty(int(stops[-1:].sum()), dtype=src_type)
    at = np.empty(len(src), dtype=at_type)
    for t, lo, hi in zip(realized.tolist(), [0, *stops[:-1].tolist()], stops.tolist()):
        size = int(ends[t, -1])
        pos = (rng.choice(size, size=sampler.count, replace=False)
               if size > sampler.count else np.arange(size))
        i = np.searchsorted(ends[t], pos, side="right")
        pos += below[t, i] + per_t[t, i] - ends[t, i]  # place in i's order
        src[lo:hi] = i
        at[lo:hi] = pos
    del per_t, below, ends
    # pass 3: each group's picks by source, each source's ranks through one
    # stable argsort of its row, then the group's pairs embedded
    mask = np.empty(len(src), dtype=bool)
    for lo, hi in groups:
        np.greater_equal(src, lo, out=mask)
        mask &= src < hi
        picks = np.flatnonzero(mask)
        picks = picks[np.argsort(src[picks], kind="stable")]
        mine = src[picks]
        bounds = np.searchsorted(mine, np.arange(lo, hi + 1)).tolist()
        us = sources.astype(at_type)[mine.astype(np.intp)]
        vs = np.empty(len(picks), dtype=at_type)
        for i, row in zip(range(hi - lo), rows(lo, hi)):
            if bounds[i] < bounds[i + 1]:
                order = np.argsort(row.astype(t_type, copy=False), kind="stable")
                cut = slice(bounds[i], bounds[i + 1])
                vs[cut] = order[at[picks[cut]].astype(np.intp)]
                del order
            del row  # before the next row is built
        if len(picks):
            ts = realized[np.searchsorted(stops, picks, side="right")].astype(t_type)
            emb_sq = (_pair_sq_distances(space, [w], us, vs)[0] if product is None
                      else factored.sq_distances(us, vs, ts))
            yield picks, us, vs, ts, emb_sq
            del ts, emb_sq
        del picks, mine, us, vs  # before the next group's rows are read


def _stratified_pairs(space, w: WeightFunction, sampler: PairSampler):
    """The pairs of ``_stratified_groups`` in draw order, as (us, vs, ts,
    emb_sq): the whole sample at once, for inspection."""
    parts = list(_stratified_groups(space, w, sampler))
    if not parts:  # no realized distance: a one-vertex space
        at_type = _pick_types(space.vertex_count, 1)[1]
        return tuple(np.empty(0, dtype=t) for t in (at_type, at_type, np.int64, float))
    size = sum(len(part[0]) for part in parts)
    out = [np.empty(size, dtype=a.dtype) for a in parts[0][1:]]
    while parts:
        picks, *arrays = parts.pop()
        for whole, part in zip(out, arrays):
            whole[picks] = part
        del picks, arrays
    return tuple(out)


def _draw_pairs(n: int, sampler: PairSampler):
    """``count`` distinct random pairs u < v of 0..n-1 (all of them if
    there are fewer), sorted. Each round draws 1.5 times the pairs still
    needed and keeps the new ones in draw order, up to the count."""
    rng = np.random.default_rng(sampler.seed)
    count = min(sampler.count, n * (n - 1) // 2)  # before sizing any draw
    held = np.empty(0, dtype=np.int64)  # codes u * n + v, sorted
    while len(held) < count:
        need = count - len(held)
        draw = rng.integers(0, n, size=(max(16, int(need * 1.5)), 2))
        draw = draw[draw[:, 0] != draw[:, 1]]
        codes = draw.min(axis=1) * n + draw.max(axis=1)
        distinct, first = np.unique(codes, return_index=True)
        fresh = first[~np.isin(distinct, held, assume_unique=True)]
        held = np.sort(np.concatenate([held, codes[np.sort(fresh)[:need]]]))
    return held // n, held % n


def _uniform_sq_distances(space, weights, us, vs) -> list[np.ndarray]:
    """``_pair_sq_distances`` of pairs sorted by first end, taken
    max(1, DENSE_ENTRIES // K) distinct first ends at a time, so the dense
    rows of each weight stay within DENSE_ENTRIES entries."""
    per_call = max(1, DENSE_ENTRIES // space.forest().key_count)
    firsts = np.flatnonzero(np.diff(us, prepend=-1))[::per_call]
    parts = [_pair_sq_distances(space, weights, us[lo:hi], vs[lo:hi])
             for lo, hi in itertools.pairwise([*firsts.tolist(), len(us)])]
    return [np.concatenate(sq) for sq in zip(*parts)]


def _uniform_pairs(space, w: WeightFunction, sampler: PairSampler):
    """``count`` distinct random pairs (us, vs), their distances ts and
    their squared embedded distances at weight w, from one walk of their
    rows at the unit weight and at w: t is read off the unit-weight
    rows."""
    us, vs = _draw_pairs(space.vertex_count, sampler)
    # the unit weight once, if w is the unit weight
    sq = _uniform_sq_distances(space, list(dict.fromkeys([WeightFunction.unit(), w])), us, vs)
    return us, vs, np.rint(sq[0]).astype(np.int64), sq[-1]


def profile(
    space,
    w: WeightFunction,
    sampler: PairSampler,
    metadata: Optional[Mapping[str, object]] = None,
) -> CompressionProfile:
    """Measure the embedding with weight w over sampled pairs and fold
    into a profile. An exhaustive profile of a space whose forest is a
    product of rooted trees (``factors.tree_factors``) is folded from each
    factor tree's pair counts and extreme meeting depths, convolved; of
    any other space, by the pair kernel over blocks of sources, with t
    read off the forest."""
    if space.vertex_count < 2:
        raise ValueError("profile needs at least two vertices")
    if sampler.mode == "exhaustive":
        from .factors import tree_factors  # not compiled by the uniform sampler

        product = tree_factors(space.forest())
        entries = (_kernel_entries(space, w) if product is None
                   else _product_entries([_tree_entries(t, w) for t in product.trees]))
    elif sampler.mode == "stratified":
        acc = _ProfileAccumulator()
        for part in _stratified_groups(space, w, sampler):
            _, _, _, ts, emb_sq = part
            acc.add(ts, np.sqrt(np.clip(emb_sq, 0.0, None, out=emb_sq), out=emb_sq))
            del part, ts, emb_sq  # before the next group is drawn
        entries = acc.entries()
    elif sampler.mode == "uniform":
        _, _, ts, emb_sq = _uniform_pairs(space, w, sampler)
        entries = _entries_from_pairs(ts, np.sqrt(np.clip(emb_sq, 0.0, None)))
    else:
        raise ValueError(f"unknown sampler mode {sampler.mode!r}")
    meta = dict(metadata or {})
    meta.setdefault("sampler", sampler.label())
    return CompressionProfile(entries=entries, metadata=meta)


# -- bound curves ---------------------------------------------------------------


@dataclass(frozen=True)
class BoundCurve:
    """Evaluable comparison curve.

    * ``paper_lower``: sqrt(max(0, floor(t/2n) * w(floor(t/2n))^2 / 2 - C)),
      where C bounds the deficit N*w(N)^2/2 - sum_{i<=N} w(i)^2 over all N;
      ``default_bound_curves`` takes C = D(M), its value at the paper
      weight's cutoff (``weights.deficit_bound``), and 0 for other weights
    * ``linear_upper``: c_edge * t
    * ``bourgain_ceiling``: c * t / sqrt(ln t) for t >= 2, else 0
    """

    kind: str
    weight: Optional[WeightFunction] = None
    n: int = 1
    constant: float = 0.0

    @classmethod
    def paper_lower(cls, w: WeightFunction, n: int, constant: float) -> "BoundCurve":
        return cls(kind="paper_lower", weight=w, n=int(n), constant=float(constant))

    @classmethod
    def linear_upper(cls, c_edge: float) -> "BoundCurve":
        return cls(kind="linear_upper", constant=float(c_edge))

    @classmethod
    def bourgain_ceiling(cls, c: float) -> "BoundCurve":
        return cls(kind="bourgain_ceiling", constant=float(c))

    def values(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=np.float64)
        if self.kind == "linear_upper":
            return self.constant * ts
        if self.kind == "bourgain_ceiling":
            out = np.zeros_like(ts)
            mask = ts >= 2
            out[mask] = self.constant * ts[mask] / np.sqrt(np.log(ts[mask]))
            return out
        q = np.floor(ts / (2.0 * self.n))
        out = np.full_like(ts, -self.constant)
        mask = q >= 1
        if mask.any():
            wq = self.weight.values(q[mask])
            out[mask] = 0.5 * q[mask] * wq * wq - self.constant
        return np.sqrt(np.clip(out, 0.0, None))

    def value(self, t: float) -> float:
        return float(self.values([t])[0])


def edge_dilatation_bound(w: WeightFunction, n: int) -> float:
    """Upper bound on the embedded length of any edge in an n-dimensional
    space: sqrt(w(1)^2 + 2n * sum of squared consecutive increments)."""
    if w.kind == "unit":
        return 1.0
    if w.kind == "paper":
        wm = w.value(w.m)
        return math.sqrt(2.0 * n * (wm * wm + diff_sq_tail_bound(w)))
    # power: numeric increment sum plus the closed-form integral tail
    from .weights import diff_sq_sum

    n0 = 100_000
    a = w.alpha
    tail = (a - 0.5) ** 2 * n0 ** (2 * a - 2) / (2.0 - 2.0 * a) if a < 0.5 else 0.0
    return math.sqrt(1.0 + 2.0 * n * (diff_sq_sum(w, n0) + tail))


@dataclass(frozen=True)
class BoundCheck:
    passed: bool
    min_slack: float
    at_t: int
    side: str
    points_checked: int


def check_profile_against(
    profile: CompressionProfile,
    lower: BoundCurve,
    upper: BoundCurve,
    t_min: int,
) -> BoundCheck:
    """Assert rho_hat(t) >= lower(t) and delta_hat(t) <= upper(t) for all
    realized t >= t_min; reports the minimum slack and where it occurs."""
    if not profile.entries:
        raise ValueError("empty profile")
    if t_min < 2:
        raise ValueError("t_min must be >= 2")
    ts = profile.ts()
    sel = ts >= t_min
    ts = ts[sel]
    if len(ts) == 0:
        return BoundCheck(True, math.inf, -1, "none", 0)
    rho = profile.rho()[sel]
    delta = profile.delta()[sel]
    lo = lower.values(ts)
    up = upper.values(ts)
    slack_lo = rho - lo
    slack_up = up - delta
    tol_lo = 1e-9 * np.maximum(1.0, np.abs(lo))
    tol_up = 1e-9 * np.maximum(1.0, np.abs(up))
    ok = bool((slack_lo >= -tol_lo).all() and (slack_up >= -tol_up).all())
    i_lo = int(np.argmin(slack_lo))
    i_up = int(np.argmin(slack_up))
    if slack_lo[i_lo] <= slack_up[i_up]:
        min_slack, at_t, side = float(slack_lo[i_lo]), int(ts[i_lo]), "lower"
    else:
        min_slack, at_t, side = float(slack_up[i_up]), int(ts[i_up]), "upper"
    return BoundCheck(ok, min_slack, at_t, side, points_checked=int(len(ts)))


# -- products -------------------------------------------------------------------


class ProductSpace(Graph):
    """Cartesian product of spaces under the combined path metric (sum of
    factor distances), as a ``Graph``: vertices are flat indices in
    row-major order, the edges are ``product_edges`` and the cube-path
    forest is the ``PathForest.product`` of the factors' forests, so each
    factor's keys sit at its offset, after the keys of the factors before
    it. Over DEFAULT_VERTEX_BUDGET vertices raises BudgetExceededError
    before any array is allocated."""

    def __init__(self, factors: Sequence, label: str = ""):
        if not factors:
            raise ValueError("need at least one factor")
        self.factors = list(factors)
        self.sizes = [f.vertex_count for f in self.factors]
        n = math.prod(self.sizes)
        if n > DEFAULT_VERTEX_BUDGET:
            raise BudgetExceededError(f"the product has {n} vertices, "
                                      f"budget is {DEFAULT_VERTEX_BUDGET}")
        super().__init__(n, np.ravel_multi_index([f.root for f in self.factors],
                                                 self.sizes), label)
        self.eu = self.ev = np.empty(0, dtype=np.int64)  # the one-vertex graph
        size = 1
        for f in self.factors:
            self.eu, self.ev = product_edges(size, self.eu, self.ev, f.n, f.eu, f.ev)
            size *= f.n

    @property
    def offsets(self) -> list[int]:
        """First key of each factor's block."""
        widths = [f.forest().key_count for f in self.factors]
        return [0, *np.cumsum(widths[:-1]).tolist()]

    def forest(self) -> PathForest:
        """The factors' forests, multiplied left to right."""
        if self._forest is None:
            self._forest = functools.reduce(PathForest.product,
                                            [f.forest() for f in self.factors])
        return self._forest


def l1_l2_compare(k: int, distances: Sequence[float]) -> tuple[float, float]:
    """Sum and Euclidean combination of k per-factor distances.

    Always satisfies d2 <= d1 <= sqrt(k) * d2.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(distances) != k:
        raise ValueError("need exactly k distances")
    arr = np.asarray(distances, dtype=np.float64)
    if (arr < 0).any():
        raise ValueError("distances must be non-negative")
    return float(arr.sum()), float(math.sqrt(float(arr @ arr)))


# -- consistency with the sub-quasi-isometric ceiling -----------------------------


@dataclass(frozen=True)
class ConsistencyVerdict:
    fitted_c: float
    argmax_t: int
    max_t: int
    points: int
    passed: bool
    note: str = ""


def bourgain_consistency(
    profile: CompressionProfile, t_min: int = 2
) -> ConsistencyVerdict:
    """Fit the least c with rho_hat(t) <= c * t / sqrt(ln t) on realized
    t >= t_min and flag profiles whose ratio is still climbing at the top
    of the range (the signature of growth faster than t / sqrt(ln t))."""
    ts = profile.ts()
    rho = profile.rho()
    sel = (ts >= max(2, t_min)) & (rho > 0)
    ts, rho = ts[sel], rho[sel]
    if len(ts) == 0:
        return ConsistencyVerdict(0.0, -1, -1, 0, True, "no usable points")
    ratios = rho * np.sqrt(np.log(ts)) / ts
    k = int(np.argmax(ratios))
    fitted = float(ratios[k])
    argmax_t = int(ts[k])
    max_t = int(ts.max())
    if len(ts) < 5:
        return ConsistencyVerdict(fitted, argmax_t, max_t, len(ts), True,
                                  "insufficient range")
    passed = argmax_t <= 0.9 * max_t
    note = "" if passed else "ratio still climbing at the top of the range"
    return ConsistencyVerdict(fitted, argmax_t, max_t, len(ts), passed, note)


# -- convenience checks shared by the CLI and the test suite ----------------------


def _unit_rows_follow_forest(space) -> bool:
    """Whether the unit-weight rows of all vertices are the key sets of
    their cube paths: the root's row is empty, the keys of each row ascend
    strictly, every value is exactly 1.0, and row(v) is row(exit v) plus
    the keys of v's own step, compared as sorted v * K + key codes. Then,
    down the forest, row(v) holds each key of v's path once, so the
    squared unit-weight distance of two rows counts the keys on exactly
    one of their paths: their forest distance, exactly."""
    forest = space.forest()
    n, k = space.vertex_count, forest.key_count
    indptr, keys, (values,) = space.embedding_rows([WeightFunction.unit()], np.arange(n))
    count = np.diff(indptr)
    code = np.arange(n).repeat(count) * k + keys
    if count[forest.root] or not (values == 1.0).all() or (np.diff(code) <= 0).any():
        return False
    inherited = count[forest.exit]
    sizes = np.diff(forest.step_ptr)
    want = np.concatenate([
        code[ranges(indptr[forest.exit], inherited)]
        + ((np.arange(n) - forest.exit) * k).repeat(inherited),
        np.arange(n).repeat(sizes) * k
        + forest.step_keys[ranges(forest.step_ptr[:-1], sizes)]])
    want.sort()
    return np.array_equal(want, code)


def oracle_deviations(space) -> tuple[float, Optional[int]]:
    """Exact identities over all pairs u < v of a ``Graph`` (a tree, a
    median graph or a product of them) against its graph metric d: the
    largest relative deviation of the squared unit-weight embedded
    distance from d (zero for a square-root isometry) and the largest
    deviation of ``separating_counts`` from d (None on a space without
    them: a tree or a product). TypeError on anything that is not a
    ``Graph``.

    Sources u go in the blocks of ``_source_blocks``, with their distances
    t read off the forest: the fast path under test, on every pair.
    ``keysets.proves_distances`` proves t equal to d by its layers across
    the edges, over the neighbours grouped by degree once
    (``keysets.degree_groups``). Where t = d is proved and the unit rows
    follow the forest (``_unit_rows_follow_forest``, checked once), the
    block adds exactly 0 to both deviations, with no BFS. Otherwise d is
    t if proved and the BFS (``distances_from``) if not, and the squared
    unit-weight distances are t where the rows follow the forest and
    ``_pair_sq_distances`` of the block's pairs where they do not; every
    term is an integer, so both are exact."""
    if not isinstance(space, Graph):
        raise TypeError(f"oracle_deviations takes a Graph, not {type(space).__name__}")
    from .keysets import degree_groups, proves_distances

    seps = hasattr(space, "separating_counts")
    follows = _unit_rows_follow_forest(space)
    groups = degree_groups(space)
    worst, sep_worst = 0.0, 0 if seps else None
    for block, t, mask in _source_blocks(space):
        exact = proves_distances(groups, block, t)
        if exact and follows:
            continue
        d = t if exact else space.distances_from(block)
        t, d = t[:, block[0]:][mask], d[:, block[0]:][mask]
        if follows:
            unit_sq = t.astype(np.float64)
        else:
            unit_sq, = _pair_sq_distances(space, [WeightFunction.unit()],
                                          *_block_pairs(block, mask))
        nz = d > 0
        err = np.abs(np.subtract(unit_sq, d, out=unit_sq), out=unit_sq)
        np.divide(err, d, out=err, where=nz)
        worst = max(worst, float(err.max(initial=0.0, where=nz)))
        if seps:
            sep_worst = max(sep_worst, int(np.abs(t - d).max(initial=0)))
        del block, mask, t, d, unit_sq, err, nz  # before the next block allocates
    return worst, sep_worst


def default_bound_curves(w: WeightFunction, n: int) -> tuple[BoundCurve, BoundCurve]:
    """Lower and upper curves with constants tied to the weight family: the
    lower curve's C is ``deficit_bound(w)``, closed form with no scan of w,
    and the upper curve's slope is ``edge_dilatation_bound(w, n)``."""
    return (
        BoundCurve.paper_lower(w, n, deficit_bound(w)),
        BoundCurve.linear_upper(edge_dilatation_bound(w, n)),
    )
