"""Weight families for the embeddings and their summability numerics.

A weight function assigns the coefficient carried by the i-th edge (or
cube) on the path from a point back to the base vertex.  Three kinds are
supported:

* ``paper``: sqrt(t) / (sqrt(ln t) * ln ln t), truncated to 0 below an
  integer cutoff M and non-decreasing above it.  This is the family whose
  compression profile grows like t / (sqrt(ln t) * ln ln t).
* ``power``: t ** (alpha - 1/2) for alpha in (0, 1/2], so that
  sqrt(t) * w(t) = t ** alpha.
* ``unit``: constantly 1; embeddings become exact square-root isometries.

WeightFunction values are immutable and every function in this module is
pure, so concurrent use needs no coordination.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# Least cutoff at which the truncated formula is defined and positive
# (needs ln ln t > 0, comfortably true from 16 on).
MIN_CUTOFF = 16
DEFAULT_CUTOFF = 18

KINDS = ("paper", "power", "unit")


def paper_formula(t):
    """Raw sqrt(t)/(sqrt(ln t) * ln ln t), no cutoff. Requires t > e."""
    t = np.asarray(t, dtype=np.float64)
    lt = np.log(t)
    return np.sqrt(t) / (np.sqrt(lt) * np.log(lt))


@dataclass(frozen=True)
class WeightFunction:
    """Immutable description of one weight family member.

    Use the ``paper`` / ``power`` / ``unit`` constructors rather than
    calling the dataclass directly.
    """

    kind: str
    m: int = 0
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.kind == "paper":
            if self.m < MIN_CUTOFF:
                raise ValueError(
                    f"cutoff must be >= {MIN_CUTOFF}, got {self.m}")
            if self.m < DEFAULT_CUTOFF:
                warnings.warn(
                    f"cutoff {self.m} < {DEFAULT_CUTOFF}: weight is not "
                    f"monotone on [{self.m}, {DEFAULT_CUTOFF}]",
                    stacklevel=3,
                )
        if self.kind == "power" and not 0.0 < self.alpha <= 0.5:
            raise ValueError("power exponent must lie in (0, 1/2]")

    @classmethod
    def paper(cls, m: int = DEFAULT_CUTOFF) -> "WeightFunction":
        return cls(kind="paper", m=int(m))

    @classmethod
    def power(cls, alpha: float) -> "WeightFunction":
        return cls(kind="power", alpha=float(alpha))

    @classmethod
    def unit(cls) -> "WeightFunction":
        return cls(kind="unit")

    @property
    def cutoff(self) -> int:
        """First index with a nonzero value."""
        return self.m if self.kind == "paper" else 1

    def value(self, t: float) -> float:
        """Evaluate at a single argument t >= 1."""
        return float(self.values(np.asarray([t], dtype=np.float64))[0])

    def values(self, t: np.ndarray) -> np.ndarray:
        """Vectorized evaluation; every entry must satisfy t >= 1."""
        t = np.asarray(t, dtype=np.float64)
        if t.size and t.min() < 1.0:
            raise ValueError("weight functions are defined for t >= 1")
        if self.kind == "unit":
            return np.ones_like(t)
        if self.kind == "power":
            return t ** (self.alpha - 0.5)
        out = np.zeros_like(t)
        mask = t >= self.m
        if mask.any():
            out[mask] = paper_formula(t[mask])
        return out

    __call__ = value

    def label(self) -> str:
        if self.kind == "paper":
            return f"paper:{self.m}"
        if self.kind == "power":
            return f"power:{self.alpha:g}"
        return "unit"


def parse_weight(label: str) -> WeightFunction:
    """Parse 'unit', 'paper', 'paper:M' or 'power:ALPHA'."""
    name, _, arg = label.partition(":")
    if name == "unit" and arg:
        raise ValueError(f"cannot parse weight spec {label!r}")
    if name == "unit":
        return WeightFunction.unit()
    if name == "power" and not arg:
        raise ValueError("power weight needs an exponent, e.g. power:0.25")
    if name not in ("paper", "power"):
        raise ValueError(f"unknown weight spec {label!r}")
    try:
        number = float(arg) if name == "power" else int(arg or DEFAULT_CUTOFF)
    except ValueError:
        raise ValueError(f"cannot parse weight spec {label!r}") from None
    return (WeightFunction.paper if name == "paper" else WeightFunction.power)(number)


def diff_sq_sum(w: WeightFunction, n: int) -> float:
    """Sum of (w(j+1) - w(j))^2 for j = 1 .. n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    vals = w.values(np.arange(1, n + 2, dtype=np.float64))
    d = np.diff(vals)
    return float(np.dot(d, d))


def diff_sq_tail_bound(w: WeightFunction) -> float:
    """Closed-form bound 1 / ln ln M on the increment tail past the cutoff.

    Comes from (w')^2 <= 1 / (t ln t (ln ln t)^2) and the substitution
    u = ln ln t, which integrates to 1 / ln ln M.  Only meaningful for the
    ``paper`` kind.
    """
    if w.kind != "paper":
        raise ValueError("tail bound is specific to the paper weight family")
    return 1.0 / math.log(math.log(w.m))


SCAN_CHUNK = 1 << 13  # points of w held at once by the scans below


def _deficit_maxima(w: WeightFunction, stops, last=None,
                    tap=None) -> list[tuple[float, int]]:
    """Scan the deficit N*w(N)^2/2 - sum_{i<=N} w(i)^2 over N <= stop for
    each of the ascending ``stops``: (max deficit clamped at 0, the first
    index attaining the maximum), the constant C that makes
    sum_{i<=N} w(i)^2 >= N*w(N)^2/2 - C hold on [1, stop]. One pass over
    [1, last] (by default the last stop) evaluates w SCAN_CHUNK points at a
    time, and each chunk's cumulative sum starts from the last one's, so
    every number is that of one whole-array scan; ``tap(lo, vals)``, if
    given, is handed each chunk's values w(lo), w(lo + 1), ... A stop
    splits its chunk's argmax in two, which keeps the first index
    attaining the maximum."""
    last = stops[-1] if last is None else last
    out, best, at, carry = [], -math.inf, 0, 0.0
    for lo in range(1, last + 1, SCAN_CHUNK):
        hi = min(lo + SCAN_CHUNK, last + 1)
        ns = np.arange(lo, hi, dtype=np.float64)
        chunk = w.values(ns)
        if tap is not None:
            tap(lo, chunk)
        hi = min(hi, stops[-1] + 1)  # points past the last stop feed only the tap
        if hi <= lo:
            continue
        sq = chunk[:hi - lo] * chunk[:hi - lo]
        sums = np.cumsum(np.concatenate([[carry], sq]))[1:]
        cand = 0.5 * ns[:hi - lo] * sq - sums
        cut = lo
        for stop in sorted({hi - 1, *(s for s in stops if lo <= s < hi)}):
            k = cut + int(np.argmax(cand[cut - lo:stop - lo + 1]))
            if cand[k - lo] > best:
                best, at = float(cand[k - lo]), k
            cut = stop + 1
            if stop in stops:
                out.append((max(0.0, best), at))
        carry = sums[-1]
    return out


def deficit_bound(w: WeightFunction) -> float:
    """Closed-form constant C with sum_{i<=N} w(i)^2 >= N*w(N)^2/2 - C for
    every N >= 1: the least such C >= 0, and the one ``_deficit_maxima`` finds.

    Let D(N) = N*w(N)^2/2 - sum_{i<=N} w(i)^2, the deficit; then
    D(j+1) - D(j) = ((j-1)*w(j+1)^2 - j*w(j)^2) / 2.

    * paper weight, cutoff M: below M, w = 0 and D = 0. For j >= M,
      w(t)^2 = t / (ln t * (ln ln t)^2), whose denominator increases, so
      w(j+1)^2 / w(j)^2 < (j+1)/j < j/(j-1) and D falls from M on. Hence
      C = D(M) = M*w(M)^2/2 - w(M)^2.
    * unit and power weights are non-increasing, so
      D(N) <= N*w(N)^2/2 - N*w(N)^2 < 0 and C = 0.

    D(M) is computed as ``0.5 * M * sq - sq`` with sq = w(M)^2: at N = M
    the scan's running sum is exactly sq, so this equals the scan's
    constant bit for bit once its range reaches M.
    """
    if w.kind != "paper":
        return 0.0
    wm = w.value(w.m)
    sq = wm * wm
    return 0.5 * w.m * sq - sq


@dataclass(frozen=True)
class WeightReport:
    """Outcome of the numeric checks behind the two summability facts."""

    partial_sums: tuple[tuple[int, float], ...]
    tail_bound: float
    deficit_constant: float
    deficit_argmax: int
    monotone_ok: bool
    stabilized: bool
    passed: bool
    margin: float


def build_weight_report(
    w: WeightFunction,
    n_max: int = 10**6,
    checkpoints: tuple[int, ...] = (10**3, 10**4, 10**5, 10**6),
) -> WeightReport:
    """Run the increment-tail and partial-sum checks for a paper weight.

    Verifies, on [1, n_max]: values non-decreasing past the cutoff, the
    increment-square tail below the closed-form bound, and stabilization
    of the deficit constant between n_max/10 and n_max.  ``margin`` is the
    slack of the tail comparison.

    One pass over [1, n_max + 1], SCAN_CHUNK points at a time, evaluates
    each w(t) once and feeds every check; the increment sums carry from
    chunk to chunk like the deficit scan's, so every number is that of a
    whole-array scan and the memory held does not grow with n_max.
    """
    if w.kind != "paper":
        raise ValueError("the summability report applies to the paper weight")
    if n_max < w.m - 1:
        raise ValueError(f"n_max must be at least M - 1 = {w.m - 1} for weight "
                         f"{w.label()}, got {n_max}")
    checkpoints = tuple(c for c in checkpoints if c <= n_max)
    # increment j is w(j + 1) - w(j); dsq[j] sums their squares up to j
    wanted, dsq = {*checkpoints, w.m - 1, n_max}, {}
    monotone_ok, prev, carry = True, None, 0.0

    def increments(lo: int, vals: np.ndarray):
        """Folds the increments from w(lo - 1) on into dsq and monotone_ok."""
        nonlocal monotone_ok, prev, carry
        first = max(1, lo - 1)  # this chunk's first increment
        diffs = np.diff(vals) if prev is None else np.diff(vals, prepend=prev)
        prev = vals[-1]
        monotone_ok &= bool(np.all(diffs[max(0, w.m - first):] >= 0.0))
        sums = np.multiply(diffs, diffs, out=diffs)
        if len(sums):
            sums[0] += carry
            carry = np.cumsum(sums, out=sums)[-1]
        dsq.update((j, float(sums[j - first]))
                   for j in wanted if first <= j < first + len(sums))

    # the n_max/10 scan is a prefix of the full one, except at n_max = M - 1,
    # where it reaches M = n_max + 1, the last point of the pass
    tenth = max(w.m, n_max // 10)
    stops = sorted({tenth, n_max})
    scans = dict(zip(stops, _deficit_maxima(w, stops, n_max + 1, increments)))
    partial = tuple((c, dsq[c]) for c in checkpoints)
    tail_bound = diff_sq_tail_bound(w)
    tail = dsq[n_max] - dsq[w.m - 1]
    margin = tail_bound - tail
    c_full, argmax = scans[n_max]
    c_tenth = scans[tenth][0]
    stabilized = c_full == c_tenth and argmax < n_max
    passed = monotone_ok and stabilized and margin >= 0.0
    return WeightReport(
        partial_sums=partial,
        tail_bound=tail_bound,
        deficit_constant=c_full,
        deficit_argmax=argmax,
        monotone_ok=monotone_ok,
        stabilized=stabilized,
        passed=passed,
        margin=margin,
    )
