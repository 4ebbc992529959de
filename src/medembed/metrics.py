"""Empirical compression/dilatation profiles and the bound curves they face.

For an embedding f of a finite space, the profile records per realized
integer distance t the smallest embedded distance over sampled pairs at
metric distance >= t (``rho_hat``, a suffix minimum) and the largest
embedded distance over pairs at metric distance <= t (``delta_hat``, a
prefix maximum).  Exhaustive sampling makes both exact on the space;
random sampling can only raise rho_hat and lower delta_hat.

``profile`` needs a space with ``vertex_count`` and
``embedding_matrix(w, rows) -> CSR rows``: every sampler reads the metric
off the unit-weight rows, whose squared distance is the graph distance.
The stratified sampler reads both distances of its candidates off one
product per chunk of vertex rows with its sources' rows held dense
(``_stratified_pairs``), and sizes its chunks from the spaces' forests.
Only the oracle needs ``distances_from(sources) -> 2d array``. Trees,
median graphs and products of them all qualify.

An exhaustive profile takes one of two routes. On a ``RootedTree`` a
pair's embedded distance depends only on its depth triple (a, b, s), so
the profile folds the distinct triples, weighted by their pair counts
(``_tree_entries``); its cost grows with the triples, not with the
n(n-1)/2 pairs. Median graphs and products take the Gram route
(``_exhaustive_entries``): squared distances of all pairs as blocks of
about BLOCK_ENTRIES pairs, which on trees is the tree route's oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

import numpy as np

from .errors import BudgetExceededError
from .sparse import vertex_rows
from .tree import RootedTree
from .weights import WeightFunction, deficit_constant, diff_sq_tail_bound

if TYPE_CHECKING:
    import scipy.sparse as sp

EXHAUSTIVE_DEFAULT_PAIR_LIMIT = 2_000_000
# Pairs (u, v) per block of the all-pairs Gram route (_sq_distance_blocks),
# which takes max(1, BLOCK_ENTRIES // n) rows u at a time.
BLOCK_ENTRIES = 1 << 18
# Pairs per chunk of row-wise dot products in _grouped_pairs.
PAIR_CHUNK = 8192
# Unit-weight nnz plus dense entries per chunk of vertex rows in
# _stratified_pairs; each chunk takes one product per weight.
CHUNK_ENTRIES = 1 << 20
# Bytes the stratified sampler may hold: CANDIDATE_BYTES per (source,
# vertex) candidate (int32 distance, float64 embedded distance, masks,
# flat index, int32 sort key, int64 order and the sort's buffer) plus
# its unit and w source rows, dense and float64.
CANDIDATE_BYTES = 40
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


def sq_row_norms(mat: sp.csr_matrix) -> np.ndarray:
    """Squared Euclidean norm of each row."""
    return np.asarray(mat.multiply(mat).sum(axis=1)).ravel()


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
        realized = np.flatnonzero(self.counts)
        if len(realized) == 0:
            raise ValueError("empty sample")
        rho = np.minimum.accumulate(self.min_emb[realized][::-1])[::-1]
        delta = np.maximum.accumulate(self.max_emb[realized])
        return tuple(
            ProfileEntry(int(t), float(r), float(d), int(c))
            for t, r, d, c in zip(realized, rho, delta, self.counts[realized])
        )


def _entries_from_pairs(ts: np.ndarray, emb: np.ndarray) -> tuple[ProfileEntry, ...]:
    """Aggregate per-pair data into profile rows (suffix min / prefix max)."""
    acc = _ProfileAccumulator()
    acc.add(np.asarray(ts, dtype=np.int64), np.asarray(emb))
    return acc.entries()


class _WindowGram:
    """Dot products of each block of rows u of a CSR matrix with the rows
    v of its window [block[0], n), for consecutive blocks from row 0 on.

    The matrix is transposed once, to key-major rows that list in ascending
    order the vertices holding each key. Key k's list is split in two rows
    of one CSR matrix without copying: row 2k holds the vertices before the
    window, row 2k + 1 the rest, and the cut moves up by the block's keys
    after each block. A block's rows, their keys moved to 2k + 1, multiply
    only the window's entries, with no pass over the whole window; each
    pair sums u's products in u's stored key order, as
    ``mat[block] @ mat[window].T`` does, so the dots are bit for bit
    the same. A method rather than a generator: its product is freed when
    ``dots`` returns, not held while the caller uses the block."""

    def __init__(self, mat: sp.csr_matrix):
        self.mat, self.keys = mat, mat.T.tocsr()
        # row bounds p0, c0, p1, c1, ..., pk of the split lists, with each
        # cut c at its list's start: no vertex lies before the first window
        self.split = np.repeat(self.keys.indptr, 2)[:-1]

    def dots(self, start: int, stop: int) -> np.ndarray:
        """Dense (stop - start) x (n - start) block of dot products."""
        import scipy.sparse as sp  # slow to import, so only callers pay for it

        mat, keys = self.mat, self.keys
        (n, k), lo, hi = mat.shape, mat.indptr[start], mat.indptr[stop]
        rows = sp.csr_matrix(
            (mat.data[lo:hi], 2 * mat.indices[lo:hi] + 1,
             mat.indptr[start:stop + 1] - lo), shape=(stop - start, 2 * k))
        prod = rows @ sp.csr_matrix((keys.data, keys.indices, self.split),
                                    shape=(2 * k, n))
        self.split[1::2] += np.bincount(mat.indices[lo:hi], minlength=k)
        prod.indices -= start  # every column lies in the window
        return sp.csr_matrix((prod.data, prod.indices, prod.indptr),
                             shape=(stop - start, n - start)).toarray()


def _sq_distance_blocks(mats):
    """Squared distances between the rows of each CSR matrix in ``mats``
    for all pairs u < v, max(1, BLOCK_ENTRIES // n) rows u at a time
    (``_WindowGram``): yields the block, the mask of pairs v > u in the
    block x [block[0], n) window, and one flat array per matrix in mask
    order. A block spans at most max(BLOCK_ENTRIES, n) pairs."""
    n = mats[0].shape[0]
    rows = max(1, BLOCK_ENTRIES // n)
    norms = [sq_row_norms(mat) for mat in mats]
    grams = [_WindowGram(mat) for mat in mats]
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        block = np.arange(start, stop)
        mask = np.arange(start, n)[None, :] > block[:, None]
        d2s = []
        for gram, nsq in zip(grams, norms):
            d2 = gram.dots(start, stop)
            d2 *= -2.0  # in place, bit for bit (|u|^2 + |v|^2) - 2 u.v
            d2 += nsq[start:stop, None] + nsq[None, start:]
            d2s.append(d2[mask])
            del d2  # before the next product allocates
        yield block, mask, d2s


def _exhaustive_entries(space, w: WeightFunction):
    """All pairs by Gram blocks; t is the unit-weight squared distance,
    rounded. That is exact: it sums products of 0/1 entries, far below
    2**53. On trees this is the oracle of ``_tree_entries``."""
    mats = [space.embedding_matrix(weight, np.arange(space.vertex_count))
            for weight in (WeightFunction.unit(), w)]
    acc = _ProfileAccumulator()
    for _, _, (unit_sq, emb_sq) in _sq_distance_blocks(mats):
        acc.add(np.rint(unit_sq, out=unit_sq).astype(np.int64),
                np.sqrt(np.clip(emb_sq, 0.0, None, out=emb_sq), out=emb_sq))
        del unit_sq, emb_sq  # before the next block is computed
    return acc.entries()


def _triple_sq_distances(table: np.ndarray, c: int, a, s) -> np.ndarray:
    """Squared embedded distance of tree pairs that meet at depth s and
    lie a and b = a + c edges below it, from the weight table w(0..depth)
    of ``PathForest.weight_table``: S(a) + S(b) + P_c(a + s) - P_c(a),
    where S(k) sums w(i)^2 and P_c(k) sums (w(i) - w(i + c))^2 over
    i <= k. No term cancels, unlike |u|^2 + |v|^2 - 2 u.v."""
    sq = np.cumsum(table * table)
    step = table[1:len(table) - c] - table[1 + c:]
    p = np.concatenate(([0.0], np.cumsum(step * step)))
    return sq[a] + sq[a + c] + (p[a + s] - p[a])


def _tree_entries(tree: RootedTree, w: WeightFunction):
    """All pairs of a tree, folded one offset at a time from its depth
    triples (``RootedTree.depth_triples``) at t = a + b."""
    table = tree.forest().weight_table(w)
    acc = _ProfileAccumulator()
    for c, a, s, count in tree.depth_triples():
        acc.add(2 * a + c, np.sqrt(_triple_sq_distances(table, c, a, s)), count)
    return acc.entries()


def _grouped_pairs(space, w: WeightFunction, us, vs) -> np.ndarray:
    """Squared embedded distances for explicit pairs, aligned with the
    input pair order. The distinct first endpoints give one source
    matrix; second endpoints stream through in target order, PAIR_CHUNK
    pairs at a time, each chunk building the matrix of its own distinct
    targets only."""
    sources, src_row = np.unique(us, return_inverse=True)
    src = space.embedding_matrix(w, sources)
    src_norms = sq_row_norms(src)
    emb_sq = np.empty(len(us))
    by_target = np.argsort(vs, kind="stable")
    for start in range(0, len(us), PAIR_CHUNK):
        chunk = by_target[start:start + PAIR_CHUNK]
        targets, b = np.unique(vs[chunk], return_inverse=True)
        tgt = space.embedding_matrix(w, targets)
        a = src_row[chunk]
        dots = np.asarray(src[a].multiply(tgt[b]).sum(axis=1)).ravel()
        emb_sq[chunk] = src_norms[a] + sq_row_norms(tgt)[b] - 2.0 * dots
    return emb_sq


def _stratified_plan(space, count: int) -> int:
    """The stratified sampler's source count S; raises BudgetExceededError
    if its S x n candidates and its dense source rows (S x K each, K the
    key count) would take more than SAMPLER_BUDGET bytes."""
    n = space.vertex_count
    n_sources = min(n, max(16, math.isqrt(4 * count)))
    key_count = sum(f.forest().key_count for f in getattr(space, "factors", [space]))
    need = n_sources * (n * CANDIDATE_BYTES + 2 * key_count * 8)
    if need > SAMPLER_BUDGET:
        raise BudgetExceededError(
            f"stratified:{count} needs {need} bytes for {n_sources} sources x "
            f"{n} vertices, over the budget of {SAMPLER_BUDGET} bytes")
    return n_sources


def _row_chunks(space, n_sources: int):
    """Bounds (lo, hi) of consecutive chunks of the vertex rows 0..n-1:
    each chunk's unit-weight nnz (the keys on its vertices' paths) plus
    n_sources dense entries per row stay within CHUNK_ENTRIES, unless the
    chunk is a single row."""
    factors = getattr(space, "factors", [space])
    coords = np.unravel_index(np.arange(space.vertex_count),
                              [f.vertex_count for f in factors])
    cost = np.cumsum(sum(f.forest().length[c] for f, c in zip(factors, coords))
                     + n_sources)
    cuts = np.searchsorted(cost, np.arange(CHUNK_ENTRIES, cost[-1], CHUNK_ENTRIES))
    bounds = np.unique(np.concatenate(([0], cuts, [space.vertex_count])))
    return itertools.pairwise(bounds.tolist())


def _stored_order_norms(mat: sp.csr_matrix) -> np.ndarray:
    """Squared row norms summed in stored key order, as ``mat @ dense``
    sums each row's dot products."""
    return mat.power(2) @ np.ones(mat.shape[1])


def _sq_distances_to(mat: sp.csr_matrix, src_t, src_norms) -> np.ndarray:
    """Squared embedded distances of the rows of ``mat`` (one per row) to
    the sources, held as a dense K x S block and their squared norms."""
    d2 = mat @ src_t
    d2 *= -2.0  # in place, bit for bit (|v|^2 + |s|^2) - 2 v.s
    d2 += _stored_order_norms(mat)[:, None] + src_norms[None, :]
    return d2


def _stratified_pairs(space, w: WeightFunction, sampler: PairSampler):
    """Pairs (us, vs) from a few random sources, at most ``count`` per
    distance, with their distances ts and squared embedded distances.

    Every (source, vertex) candidate's |s|^2 + |v|^2 - 2 v.s comes from
    one sparse x dense product per chunk of vertex rows and weight, against
    the sources' rows held dense. All three terms sum the same products in
    the rows' stored key order, so two coinciding vectors give exactly 0;
    at unit weight they sum 0/1 products, so t is exact."""
    n = space.vertex_count
    n_sources = _stratified_plan(space, sampler.count)
    rng = np.random.default_rng(sampler.seed)
    sources = np.sort(rng.choice(n, size=n_sources, replace=False))
    unit = WeightFunction.unit()
    blocks = [(np.ascontiguousarray(src.T.toarray()), _stored_order_norms(src))
              for src in space.embedding_matrices((unit, w), sources)]
    ts = np.empty((n_sources, n), dtype=np.int32)
    emb_sq = np.empty((n_sources, n))
    for lo, hi in _row_chunks(space, n_sources):
        unit_rows, w_rows = space.embedding_matrices((unit, w), np.arange(lo, hi))
        ts[:, lo:hi] = np.rint(_sq_distances_to(unit_rows, *blocks[0])).T
        emb_sq[:, lo:hi] = _sq_distances_to(w_rows, *blocks[1]).T
        del unit_rows, w_rows  # before the next chunk's walk allocates
    del blocks
    # every target at positive distance, except mirrored source-source pairs
    rank = np.full(n, n_sources)
    rank[sources] = np.arange(n_sources)
    flat = np.flatnonzero((ts > 0) & (rank[None, :] > np.arange(n_sources)[:, None]))
    ct = ts.ravel()[flat]
    del ts
    order = np.argsort(ct, kind="stable")
    picks = []
    for idx in np.split(order, np.flatnonzero(np.diff(ct[order])) + 1):
        if len(idx) > sampler.count:
            idx = rng.choice(idx, size=sampler.count, replace=False)
        picks.append(idx)
    sel = np.concatenate(picks)
    cand = flat[sel]
    return (sources[cand // n], cand % n, ct[sel].astype(np.int64),
            emb_sq.ravel()[cand])


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


def _uniform_pairs(space, sampler: PairSampler):
    """``count`` distinct random pairs (us, vs) and their distances ts,
    read off the unit-weight rows like the exhaustive route's t."""
    us, vs = _draw_pairs(space.vertex_count, sampler)
    unit_sq = _grouped_pairs(space, WeightFunction.unit(), us, vs)
    return us, vs, np.rint(unit_sq).astype(np.int64)


def profile(
    space,
    w: WeightFunction,
    sampler: PairSampler,
    metadata: Optional[Mapping[str, object]] = None,
) -> CompressionProfile:
    """Measure the embedding with weight w over sampled pairs and fold
    into a profile. An exhaustive profile of a ``RootedTree`` is folded
    from its depth triples; of any other space, from Gram blocks."""
    if space.vertex_count < 2:
        raise ValueError("profile needs at least two vertices")
    if sampler.mode == "exhaustive" and isinstance(space, RootedTree):
        entries = _tree_entries(space, w)
    elif sampler.mode == "exhaustive":
        entries = _exhaustive_entries(space, w)
    elif sampler.mode in ("stratified", "uniform"):
        if sampler.mode == "stratified":
            _, _, ts, emb_sq = _stratified_pairs(space, w, sampler)
        else:
            us, vs, ts = _uniform_pairs(space, sampler)
            emb_sq = _grouped_pairs(space, w, us, vs)
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

    * ``paper_lower``: sqrt(max(0, floor(t/2n) * w(floor(t/2n))^2 / 2 - C))
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


class ProductSpace:
    """Cartesian product of spaces under the combined path metric (sum of
    factor distances). Vertices are flat indices in row-major order; each
    factor's keys sit at its offset, after the keys of the factors before
    it."""

    def __init__(self, factors: Sequence, label: str = ""):
        if not factors:
            raise ValueError("need at least one factor")
        self.factors = list(factors)
        self.sizes = [f.vertex_count for f in self.factors]
        self.vertex_count = int(np.prod(self.sizes))
        self.label = label

    @property
    def offsets(self) -> list[int]:
        """First key of each factor's block."""
        widths = [f.forest().key_count for f in self.factors]
        return [0, *np.cumsum(widths[:-1]).tolist()]

    def distances_from(self, sources) -> np.ndarray:
        """Sum of the factor distances: one ``distances_from`` call per
        factor on its distinct source coordinates, read off at every
        vertex's coordinate in that factor."""
        sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
        src = np.unravel_index(sources, self.sizes)
        cols = np.unravel_index(np.arange(self.vertex_count), self.sizes)
        out = np.zeros((len(sources), self.vertex_count))
        for f, s, c in zip(self.factors, src, cols):
            distinct, row = np.unique(s, return_inverse=True)
            out += f.distances_from(distinct)[np.ix_(row, c)]
        return out

    def embedding_matrix(self, w: WeightFunction, rows) -> sp.csr_matrix:
        """Factor matrices side by side; each factor's key count is its
        width, so factor i's columns start at ``offsets[i]``. A row outside
        0..vertex_count-1 raises ValueError("unknown vertex v")."""
        return self.embedding_matrices([w], rows)[0]

    def embedding_matrices(self, weights, rows) -> list[sp.csr_matrix]:
        """``embedding_matrix(w, rows)`` for each of ``weights``, from one
        walk per factor."""
        import scipy.sparse as sp  # slow to import, so only callers pay for it

        coords = np.unravel_index(vertex_rows(rows, self.vertex_count), self.sizes)
        blocks = [f._embed(weights, c) for f, c in zip(self.factors, coords)]
        return [sp.hstack(row, format="csr") for row in zip(*blocks)]


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


def oracle_deviations(space) -> tuple[float, Optional[int]]:
    """Exact identities over all pairs against BFS distances d, with one
    BFS per vertex: the largest relative deviation of the squared
    unit-weight embedded distance from d (zero-ish for a square-root
    isometry) and the largest deviation of ``separating_counts`` from d
    (None on spaces without hyperplanes)."""
    unit = space.embedding_matrix(WeightFunction.unit(), np.arange(space.vertex_count))
    seps = getattr(space, "separating_counts", None)
    worst, sep_worst = 0.0, None if seps is None else 0
    for block, mask, (unit_sq,) in _sq_distance_blocks([unit]):
        d = space.distances_from(block)[:, block[0]:][mask]
        nz = d > 0
        err = np.abs(np.subtract(unit_sq, d, out=unit_sq), out=unit_sq)
        np.divide(err, d, out=err, where=nz)
        worst = max(worst, float(err.max(initial=0.0, where=nz)))
        del unit_sq, err, nz
        if seps is not None:
            sep = seps(block)[:, block[0]:][mask]
            sep_worst = max(sep_worst, int(np.abs(sep - d).max(initial=0)))
            del sep
        del block, mask, d  # before the next block allocates
    return worst, sep_worst


def default_bound_curves(w: WeightFunction, n: int) -> tuple[BoundCurve, BoundCurve]:
    """Lower and upper curves with constants tied to the weight family."""
    c = deficit_constant(w, 10**6)
    return (
        BoundCurve.paper_lower(w, n, c),
        BoundCurve.linear_upper(edge_dilatation_bound(w, n)),
    )
