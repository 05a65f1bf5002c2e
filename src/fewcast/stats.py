"""Metrics and nonparametric comparison statistics.

The Vargha-Delaney A12 effect size with categorical thresholds (0.56 / 0.64
/ 0.71 above the 0.5 equivalence point), and a two-sided Wilcoxon
signed-rank test that is exact (full enumeration of sign assignments) up to
12 effective pairs and normally approximated with tie and continuity
corrections beyond that. The functions take numbers only; reading a
search's evaluation records is ``fewcast.search``'s job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SIGNIFICANCE_LEVEL = 0.05
EXACT_LIMIT = 12

CATEGORY_LARGE = 0.71
CATEGORY_MEDIUM = 0.64
CATEGORY_SMALL = 0.56
EQUAL_BAND = 0.06


@dataclass(frozen=True)
class EffectSize:
    value: float
    category: str  # equal | small | medium | large | below_half


@dataclass(frozen=True)
class TestOutcome:
    statistic: float
    p_value: float
    significant: bool
    n_effective: int


def categorize_a12(value: float) -> str:
    """Threshold category for an A12 value.

    Values inside the symmetric band |value - 0.5| < 0.06 count as equal;
    at or below 0.44 the comparison favors the second sample (report the
    mirrored magnitude by swapping the arguments).
    """
    if value >= CATEGORY_LARGE:
        return "large"
    if value >= CATEGORY_MEDIUM:
        return "medium"
    if value >= CATEGORY_SMALL:
        return "small"
    if value > 0.5 - EQUAL_BAND:
        return "equal"
    return "below_half"


def a12(a, b) -> EffectSize:
    """Probability that a draw from ``a`` exceeds a draw from ``b``, ties half.

    Orientation: higher values of ``a`` count as "a better". When comparing
    error metrics, negate them or swap the arguments.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValueError("a12 requires two nonempty samples")
    greater = int(np.sum(a[:, None] > b[None, :]))
    equal = int(np.sum(a[:, None] == b[None, :]))
    value = (greater + 0.5 * equal) / (a.size * b.size)
    return EffectSize(value=value, category=categorize_a12(value))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    ordered = np.sort(values)
    first, last = np.searchsorted(ordered, values, side="left"), np.searchsorted(ordered, values, side="right")
    return 0.5 * (first + last - 1) + 1.0  # the mean of the tie's 1-based ranks first + 1 .. last


def wilcoxon_signed_rank(a, b) -> TestOutcome:
    """Two-sided paired Wilcoxon signed-rank test of ``a`` versus ``b``.

    Zero differences are dropped; tied absolute differences get average
    ranks; the statistic is W = min(W+, W-). With n effective pairs <= 12
    the p-value is exact: the probability, over all 2^n equally likely sign
    assignments of the observed ranks, that min(W+, W-) <= W. Larger n uses
    the normal approximation with tie and continuity corrections. All pairs
    equal is a degenerate outcome with p = 1, not an error.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"need equal-length 1-D paired samples, got shapes {a.shape} and {b.shape}")
    if a.size == 0:
        raise ValueError("wilcoxon_signed_rank requires at least one pair")
    diffs = a - b
    nonzero = diffs[diffs != 0.0]
    n = nonzero.size
    if n == 0:
        return TestOutcome(statistic=0.0, p_value=1.0, significant=False, n_effective=0)
    ranks = _average_ranks(np.abs(nonzero))
    w_plus = float(ranks[nonzero > 0].sum())
    w_minus = float(ranks[nonzero < 0].sum())
    w = min(w_plus, w_minus)
    total = float(ranks.sum())

    if n <= EXACT_LIMIT:
        # W+ of all 2^n sign assignments (bit i of row m: pair i positive); sums of <= 12 half-integers are exact
        wp = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1) @ ranks
        p = int(np.count_nonzero(np.minimum(wp, total - wp) <= w)) / (1 << n)
    else:
        mean_w = n * (n + 1) / 4.0
        var_w = n * (n + 1) * (2 * n + 1) / 24.0
        _, counts = np.unique(np.abs(nonzero), return_counts=True)
        var_w -= float(np.sum(counts.astype(np.float64) ** 3 - counts)) / 48.0
        z = (w - mean_w + 0.5) / math.sqrt(var_w)  # +0.5: continuity, W <= mean
        p = min(1.0, math.erfc(-z / math.sqrt(2.0)))
    return TestOutcome(statistic=w, p_value=p, significant=p < SIGNIFICANCE_LEVEL, n_effective=n)


def _median(values: np.ndarray) -> float:
    """The median, with the two middle values of an even count halved before
    they are added, so that their sum cannot overflow. Halving is exact for
    normal floats, so a finite median keeps the bits of ``np.median``'s."""
    ordered = np.sort(values)
    mid = ordered.size // 2
    return float(ordered[mid] if ordered.size % 2 else ordered[mid - 1] / 2 + ordered[mid] / 2)


def compare_samples(errors_a, errors_b) -> dict:
    """Paired comparison of two error samples (lower is better).

    The reported a12 is the probability that sample A beats sample B, so the
    raw errors are negated before the effect-size computation.
    """
    errors_a = np.asarray(errors_a, dtype=np.float64)
    errors_b = np.asarray(errors_b, dtype=np.float64)
    outcome = wilcoxon_signed_rank(errors_a, errors_b)
    effect = a12(-errors_a, -errors_b)
    return {
        "mse_a": _median(errors_a),
        "mse_b": _median(errors_b),
        **vars(outcome),
        "a12": effect.value,
        "category": effect.category,
    }
