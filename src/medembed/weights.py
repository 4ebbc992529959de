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


def find_monotone_cutoff() -> int:
    """Least integer M such that the raw weight formula increases on [M, inf).

    The derivative is positive exactly when u - 1 - 2/ln(u) > 0 for
    u = ln t; the unique root of that expression gives the threshold.
    """
    from scipy.optimize import brentq  # slow to import; no CLI path needs it

    u = brentq(lambda u: u - 1.0 - 2.0 / math.log(u), 1.0 + 1e-9, 10.0)
    m = math.ceil(math.exp(u))
    # Sanity: decreasing into m, increasing from m on (short scan).
    ts = np.arange(m - 1, m + 64, dtype=np.float64)
    vals = paper_formula(ts)
    if not (vals[1] < vals[0] and np.all(np.diff(vals[1:]) > 0)):
        raise RuntimeError("monotone cutoff scan disagrees with the root")
    return m


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


def sq_partial_sum(w: WeightFunction, n: int) -> float:
    """Sum of w(i)^2 for i = 1 .. n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    vals = w.values(np.arange(1, n + 1, dtype=np.float64))
    return float(np.dot(vals, vals))


def sq_partial_sums(w: WeightFunction, n: int) -> np.ndarray:
    """Vector of partial sums of w(i)^2; entry k-1 holds the sum to k."""
    vals = w.values(np.arange(1, n + 1, dtype=np.float64))
    return np.cumsum(vals * vals)


def deficit_scan(w: WeightFunction, n_max: int) -> tuple[float, int]:
    """Scan the deficit N*w(N)^2/2 - sum_{i<=N} w(i)^2 over N <= n_max.

    Returns (max deficit clamped at 0, index attaining the maximum).  The
    returned constant C makes sum_{i<=N} w(i)^2 >= N*w(N)^2/2 - C hold for
    every N in the scanned range.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return _deficit_peak(w.values(np.arange(1, n_max + 1, dtype=np.float64)))


def _deficit_peak(vals: np.ndarray) -> tuple[float, int]:
    """``deficit_scan`` over N <= len(vals), from vals[i - 1] = w(i)."""
    sq = vals * vals
    cand = 0.5 * np.arange(1, len(vals) + 1, dtype=np.float64) * sq - np.cumsum(sq)
    k = int(np.argmax(cand))
    return max(0.0, float(cand[k])), k + 1


def deficit_constant(w: WeightFunction, n_max: int) -> float:
    """Verified constant for the partial-sum lower bound on [1, n_max]."""
    return deficit_scan(w, n_max)[0]


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
    """
    if w.kind != "paper":
        raise ValueError("the summability report applies to the paper weight")
    checkpoints = tuple(c for c in checkpoints if c <= n_max)
    vals = w.values(np.arange(1, n_max + 2, dtype=np.float64))
    diffs = np.diff(vals)
    monotone_ok = bool(np.all(diffs[w.m - 1:] >= 0.0))
    dsq = np.cumsum(diffs * diffs)
    partial = tuple((c, float(dsq[c - 1])) for c in checkpoints)
    tail_bound = diff_sq_tail_bound(w)
    tail = float(dsq[n_max - 1] - dsq[w.m - 2])
    margin = tail_bound - tail
    # vals runs to n_max + 1, so it covers the n_max/10 scan at n_max = M - 1
    c_full, argmax = _deficit_peak(vals[:n_max])
    c_tenth, _ = _deficit_peak(vals[:max(w.m, n_max // 10)])
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
