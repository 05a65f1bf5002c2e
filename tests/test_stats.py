import itertools
import math

import numpy as np
import pytest

from fewcast.stats import (
    EXACT_LIMIT,
    SIGNIFICANCE_LEVEL,
    _average_ranks,
    _median,
    a12,
    categorize_a12,
    compare_samples,
    wilcoxon_signed_rank,
)


def brute_force_a12(a, b):
    """Pair-counting oracle, written independently of the implementation."""
    more = sum(1 for x in a for y in b if x > y)
    same = sum(1 for x in a for y in b if x == y)
    return (more + 0.5 * same) / (len(a) * len(b))


def enumeration_wilcoxon(a, b):
    """Exact two-sided signed-rank p via itertools over sign assignments."""
    diffs = [x - y for x, y in zip(a, b)]
    nonzero = [d for d in diffs if d != 0.0]
    n = len(nonzero)
    if n == 0:
        return 0.0, 1.0
    absd = sorted(range(n), key=lambda i: abs(nonzero[i]))
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and abs(nonzero[absd[j + 1]]) == abs(nonzero[absd[i]]):
            j += 1
        for k in range(i, j + 1):
            ranks[absd[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    w_plus = sum(r for r, d in zip(ranks, nonzero) if d > 0)
    w_minus = sum(r for r, d in zip(ranks, nonzero) if d < 0)
    w = min(w_plus, w_minus)
    total = sum(ranks)
    hits = 0
    for signs in itertools.product((0, 1), repeat=n):
        wp = sum(r for r, s in zip(ranks, signs) if s)
        if min(wp, total - wp) <= w:
            hits += 1
    return w, hits / 2.0**n


def tie_scan_ranks(values):
    """Average ranks by a scan over the stable sort order: the loop that ``_average_ranks`` replaced."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0  # average of ranks i+1..j+1
        i = j + 1
    return ranks


def bit_loop_wilcoxon(a, b):
    """(statistic, p, significant, n_effective) as computed before the exact p became a matrix count:
    the tie-scan ranks and a loop over the bits of every sign assignment."""
    diffs = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    nonzero = diffs[diffs != 0.0]
    n = nonzero.size
    if n == 0:
        return 0.0, 1.0, False, 0
    ranks = tie_scan_ranks(np.abs(nonzero))
    w = min(float(ranks[nonzero > 0].sum()), float(ranks[nonzero < 0].sum()))
    total = float(ranks.sum())
    if n <= EXACT_LIMIT:
        hits = 0
        for mask in range(1 << n):
            wp = 0.0
            for i in range(n):
                if mask >> i & 1:
                    wp += ranks[i]
            if min(wp, total - wp) <= w:
                hits += 1
        p = hits / (1 << n)
    else:
        mean_w, var_w = n * (n + 1) / 4.0, n * (n + 1) * (2 * n + 1) / 24.0
        _, counts = np.unique(np.abs(nonzero), return_counts=True)
        var_w -= float(np.sum(counts.astype(np.float64) ** 3 - counts)) / 48.0
        p = min(1.0, math.erfc(-((w - mean_w + 0.5) / math.sqrt(var_w)) / math.sqrt(2.0)))
    return w, p, p < SIGNIFICANCE_LEVEL, n


def paired_case(rng):
    """n in 1..30 pairs: small integers (many ties and zero differences), differences rounded to one
    decimal (tied magnitudes of both signs, some zeros), or continuous draws."""
    n, style = int(rng.integers(1, 31)), int(rng.integers(3))
    if style == 0:
        return rng.integers(0, 6, size=n).astype(float), rng.integers(0, 6, size=n).astype(float)
    a = rng.normal(size=n)
    return a, (a + rng.normal(size=n).round(1) if style == 1 else rng.normal(size=n))


class TestA12:
    def test_total_dominance(self):
        out = a12([5.0, 6.0], [1.0, 2.0])
        assert out.value == 1.0 and out.category == "large"

    def test_identical_samples(self):
        out = a12([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert out.value == 0.5 and out.category == "equal"

    def test_brute_force_example(self):
        # pairs: (1>1? tie) (1>0 yes) (2>1 yes) (2>0 yes) -> (3 + 0.5)/4
        out = a12([1.0, 2.0], [1.0, 0.0])
        assert out.value == 0.875 and out.category == "large"

    def test_matches_brute_force_on_random_samples(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            na, nb = rng.integers(1, 12, size=2)
            # integer-valued samples force plenty of ties
            a_sample = rng.integers(0, 6, size=na).astype(float)
            b_sample = rng.integers(0, 6, size=nb).astype(float)
            out = a12(a_sample, b_sample)
            assert out.value == brute_force_a12(list(a_sample), list(b_sample))

    def test_complement_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a_sample = rng.integers(0, 5, size=6).astype(float)
            b_sample = rng.integers(0, 5, size=4).astype(float)
            assert a12(a_sample, b_sample).value + a12(b_sample, a_sample).value == pytest.approx(1.0)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        a_sample = rng.normal(size=8)
        b_sample = rng.normal(size=5)
        base = a12(a_sample, b_sample).value
        for transform in (np.exp, np.tanh, lambda v: 3 * v + 1):
            assert a12(transform(a_sample), transform(b_sample)).value == base

    def test_category_thresholds(self):
        assert categorize_a12(0.71) == "large"
        assert categorize_a12(0.7099) == "medium"
        assert categorize_a12(0.64) == "medium"
        assert categorize_a12(0.6399) == "small"
        assert categorize_a12(0.56) == "small"
        assert categorize_a12(0.5599) == "equal"
        assert categorize_a12(0.5) == "equal"
        assert categorize_a12(0.4401) == "equal"
        assert categorize_a12(0.44) == "below_half"
        assert categorize_a12(0.1) == "below_half"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            a12([], [1.0])


class TestWilcoxon:
    def test_identical_pairs_degenerate(self):
        out = wilcoxon_signed_rank([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert out.p_value == 1.0
        assert out.n_effective == 0
        assert not out.significant

    def test_six_positive_distinct(self):
        # W = 0; exact two-sided p = 2/2^6
        a = [2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        b = [1.0, 1.5, 2.5, 3.0, 4.0, 5.0]
        out = wilcoxon_signed_rank(a, b)
        assert out.statistic == 0.0
        assert out.p_value == pytest.approx(2.0 / 64.0, abs=1e-15)
        assert out.significant

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(1, 13))
            a = rng.integers(0, 8, size=n).astype(float)
            b = rng.integers(0, 8, size=n).astype(float)
            got = wilcoxon_signed_rank(a, b)
            w, p = enumeration_wilcoxon(list(a), list(b))
            assert got.p_value == pytest.approx(p, abs=1e-12)
            if got.n_effective:
                assert got.statistic == pytest.approx(w, abs=1e-12)

    def test_normal_approximation_branch(self):
        rng = np.random.default_rng(5)
        a = rng.normal(1.0, 1.0, size=40)
        b = rng.normal(0.0, 1.0, size=40)
        out = wilcoxon_signed_rank(a, b)
        assert out.n_effective > 12
        assert 0.0 <= out.p_value <= 1.0
        assert out.significant  # unit shift over 40 pairs is overwhelming

    def test_normal_approximation_null(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=60)
        b = rng.normal(size=60)
        out = wilcoxon_signed_rank(a, b)
        assert out.p_value > 0.05

    def test_significance_flag_matches_threshold(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            a = rng.integers(0, 5, size=n).astype(float)
            b = rng.integers(0, 5, size=n).astype(float)
            out = wilcoxon_signed_rank(a, b)
            assert out.significant == (out.p_value < 0.05)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1.0], [1.0, 2.0])


class TestAgainstTheLoops:
    """The numpy ranks and exact p keep the bits of the loops they replaced."""

    CASES = 2000

    def test_average_ranks_match_the_tie_scan(self):
        rng = np.random.default_rng(2301)
        for _ in range(self.CASES):
            a, b = paired_case(rng)
            values = np.abs(a - b)
            assert _average_ranks(values).tobytes() == tie_scan_ranks(values).tobytes()

    def test_wilcoxon_matches_the_bit_loop(self):
        rng = np.random.default_rng(2302)
        seen = set()
        for _ in range(self.CASES):
            a, b = paired_case(rng)
            got = wilcoxon_signed_rank(a, b)
            w, p, significant, n = bit_loop_wilcoxon(a, b)
            assert (got.statistic.hex(), got.p_value.hex(), got.significant, got.n_effective) == (
                w.hex(), p.hex(), significant, n), (a, b)
            assert type(got.p_value) is float and type(got.significant) is bool  # a report must stay JSON
            seen.add(0 if n == 0 else "exact" if n <= EXACT_LIMIT else "normal")
        assert seen == {0, "exact", "normal"}


class TestCompareSamples:
    def test_median_keeps_the_bits_of_np_median(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            n = int(rng.integers(1, 31))
            scale = 10.0 ** rng.integers(-8, 8)
            sample = rng.lognormal(sigma=5.0, size=n) if rng.integers(2) else rng.normal(scale=scale, size=n)
            assert _median(sample) == float(np.median(sample))

    def test_self_comparison(self):
        errors = [0.5, 0.4, 0.3]
        row = compare_samples(errors, errors)
        assert row["p_value"] == 1.0
        assert row["a12"] == 0.5
        assert row["category"] == "equal"

    def test_orientation_lower_error_wins(self):
        better = [0.1, 0.2, 0.15, 0.12]
        worse = [0.5, 0.6, 0.55, 0.52]
        row = compare_samples(better, worse)
        assert row["a12"] == 1.0  # probability that A beats B
        assert row["category"] == "large"
        assert row["mse_a"] < row["mse_b"]
