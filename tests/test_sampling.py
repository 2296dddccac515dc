"""Seeded sampling: reproducibility, uniformity, summaries, concentration."""

import hashlib
import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permstats.cli import run
from permstats.core import InvariantError, Permutation, average_displacement_exact, displacement
from permstats.sampling import (
    HISTOGRAM_BINS,
    ConcentrationBound,
    SampleStats,
    concentration_report,
    displacement_sums,
    empirical_stats,
    fraction_in_interval,
    lipschitz_check,
    sample_uniform,
)

# sample standard deviations of d(pi) measured once at 2*10^4 trials; the
# convergence tolerances below are 3*s/sqrt(trials)
PILOT_STD = {10: 0.7143, 100: 2.1207, 1000: 6.6589}

SEEDS = (0, 1, 2**63, 2**64 - 1)


def reference_word(n, seed, index):
    """Trial index of seed as the sampler first drew it: a fresh Philox per trial."""
    generator = np.random.Generator(np.random.Philox(key=seed, counter=index << 64))
    return generator.permutation(n) + 1


def reference_displacement_sums(n, trials, seed):
    """The original displacement_sums loop, kept as the oracle for the shared stream."""
    idx = np.arange(1, n + 1, dtype=np.int64)
    out = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        out[t] = np.abs(reference_word(n, seed, t) - idx).sum()
    return out


def reference_fraction(sums, n, median_sum, eps):
    """The original per-sample Fraction test of |s/n^2 - med/n^2| <= eps."""
    bound = Fraction(eps) * n * n
    hit = sum(
        1 for s in sums if abs(int(s) - median_sum) * bound.denominator <= bound.numerator
    )
    return Fraction(hit, len(sums))


class TestReferenceStream:
    # The shared, rewound Philox must reproduce the fresh-Philox-per-trial stream.

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n,trials", [(1, 50), (2, 500), (10, 500), (100, 500), (1000, 200)])
    def test_displacement_sums_match_reference(self, n, trials, seed):
        assert np.array_equal(
            displacement_sums(n, trials, seed), reference_displacement_sums(n, trials, seed)
        )

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", [1, 2, 10, 100])
    def test_sample_uniform_is_trial(self, n, seed):
        # indices past 2**64 spill into counter words 2 and 3, as index << 64 does
        for index in (0, 1, 499, 2**64 - 1, 2**64, 2**130 + 5, 2**192 - 1):
            want = tuple(int(v) for v in reference_word(n, seed, index))
            assert sample_uniform(n, seed, index).image == want

    def test_golden_cli_output(self, capsys):
        # stdout recorded from the fresh-Philox-per-trial sampler
        assert run(["sample", "--n", "10", "--trials", "2000", "--seed", "7",
                    "--format", "json"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "06770601f61c811a31a34a708b84d94e84df8245c7cc05530375bbdeadac4f88"

    @pytest.mark.parametrize("n,trials,seed", [(10, 2000, 7), (1000, 300, 2**64 - 1)])
    def test_edge_epsilons_match_fraction_loop(self, n, trials, seed):
        epsilons = (0, -1, 1e30, -1e30, Fraction(1, 10), Fraction(1, 3))
        stats = empirical_stats(n, trials, seed, epsilons=epsilons)
        sums = reference_displacement_sums(n, trials, seed)
        median_sum = int(np.sort(sums)[(trials - 1) // 2])
        for eps in epsilons:
            want = reference_fraction(sums, n, median_sum, eps)
            assert stats.fractions[Fraction(eps)] == want
        assert stats.fractions[Fraction(1e30)] == 1
        assert stats.fractions[Fraction(-1)] == 0

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.sampled_from([3, 10, 40]),
        eps=st.one_of(
            st.fractions(min_value=-1, max_value=1, max_denominator=10**6),
            st.integers(-5, 400).map(lambda k: Fraction(k, 1600)),  # eps*n^2 often integral
        ),
    )
    def test_epsilon_count_matches_fraction_loop(self, n, eps):
        trials, seed = 120, 11
        stats = empirical_stats(n, trials, seed, epsilons=(eps,))
        sums = reference_displacement_sums(n, trials, seed)
        median_sum = int(np.sort(sums)[(trials - 1) // 2])
        assert stats.fractions[eps] == reference_fraction(sums, n, median_sum, eps)


class TestSampleUniform:
    def test_deterministic(self):
        assert sample_uniform(8, 123, 5) == sample_uniform(8, 123, 5)

    def test_varies_with_index_and_seed(self):
        draws = {sample_uniform(12, 99, t) for t in range(12)}
        assert len(draws) > 1
        assert sample_uniform(12, 1, 0) != sample_uniform(12, 2, 0)

    def test_valid_permutation(self):
        p = sample_uniform(40, 7)
        assert sorted(p.image) == list(range(1, 41))

    def test_n1(self):
        assert sample_uniform(1, 0) == Permutation((1,))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sample_uniform(0, 1)
        with pytest.raises(ValueError):
            sample_uniform(3, -1)
        with pytest.raises(ValueError):
            sample_uniform(3, 2**64)
        with pytest.raises(ValueError):
            sample_uniform(3, 1, -2)
        with pytest.raises(ValueError):
            sample_uniform(3, 1, 2**192)

    def test_uniform_chi_square(self):
        # 6000 draws over S_3: chi-square on 6 cells, critical value 20.515
        # at the 0.1% level with 5 degrees of freedom
        counts = {w: 0 for w in permutations((1, 2, 3))}
        for t in range(6000):
            counts[sample_uniform(3, 2718, t).image] += 1
        expected = 1000
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 20.515


class TestDisplacementSums:
    def test_matches_single_draws(self):
        sums = displacement_sums(9, 25, 31)
        for t in range(25):
            p = sample_uniform(9, 31, t)
            assert sums[t] == displacement(p) * 9

    def test_bounds(self):
        sums = displacement_sums(11, 200, 5)
        assert all(0 <= s <= 11 * 11 // 2 for s in sums)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            displacement_sums(5, 0, 1)
        with pytest.raises(ValueError):
            displacement_sums(0, 10, 1)


class TestEmpiricalStats:
    def test_mean_is_exact_ratio(self):
        stats = empirical_stats(6, 400, 17)
        sums = displacement_sums(6, 400, 17)
        assert stats.mean == float(Fraction(int(sums.sum()), 400 * 6))

    def test_median_lower_middle(self):
        stats = empirical_stats(6, 4, 17)
        sums = sorted(displacement_sums(6, 4, 17))
        assert stats.median == sums[1] / 6  # (4-1)//2 = 1

    def test_histogram_shape(self):
        stats = empirical_stats(8, 500, 3)
        assert len(stats.histogram) == HISTOGRAM_BINS
        assert sum(c for _, _, c in stats.histogram) == 500
        for lo, hi, _ in stats.histogram:
            assert lo < hi

    def test_fractions_nondecreasing_and_exact(self):
        eps = (Fraction(1, 100), Fraction(1, 10), Fraction(1, 2), Fraction(1))
        stats = empirical_stats(10, 300, 8, epsilons=eps)
        vals = [stats.fractions[e] for e in eps]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] == 1  # eps = 1 covers the whole range of d/n
        assert all(isinstance(v, Fraction) for v in vals)

    def test_accepts_float_and_string_epsilons(self):
        stats = empirical_stats(10, 50, 8, epsilons=(0.25, "1/10"))
        assert set(stats.fractions) == {Fraction(1, 4), Fraction(1, 10)}

    def test_deterministic(self):
        a = empirical_stats(12, 200, 99, epsilons=(Fraction(1, 10),))
        b = empirical_stats(12, 200, 99, epsilons=(Fraction(1, 10),))
        assert a == b

    @pytest.mark.parametrize("n,trials,seed", [(10, 20000, 42), (100, 20000, 42)])
    def test_mean_converges(self, n, trials, seed):
        stats = empirical_stats(n, trials, seed)
        expected = float(average_displacement_exact(n))
        tol = 3 * PILOT_STD[n] / math.sqrt(trials)
        assert abs(stats.mean - expected) <= tol
        assert abs(stats.median - stats.mean) <= 1


class TestFractionInInterval:
    def test_strict_bounds_by_hand(self):
        n, trials, seed = 8, 60, 21
        sums = displacement_sums(n, trials, seed)
        lo, hi = Fraction(2), Fraction(4)
        expected = Fraction(
            sum(1 for s in sums if lo * n < int(s) < hi * n), trials
        )
        assert fraction_in_interval(n, trials, seed, lo, hi) == expected

    def test_empty_interval(self):
        assert fraction_in_interval(6, 40, 9, 100, 200) == 0

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 7, 30]),
        lo=st.one_of(
            st.fractions(min_value=-20, max_value=40, max_denominator=50),
            st.integers(-30, 900),  # used as lo*n = k: integral endpoints
        ),
        hi=st.one_of(
            st.fractions(min_value=-20, max_value=40, max_denominator=50),
            st.integers(-30, 900),
        ),
    )
    def test_matches_fraction_definition(self, n, lo, hi):
        if isinstance(lo, int):
            lo = Fraction(lo, n)
        if isinstance(hi, int):
            hi = Fraction(hi, n)
        trials, seed = 80, 4
        sums = displacement_sums(n, trials, seed)
        want = Fraction(sum(1 for s in sums if lo * n < int(s) < hi * n), trials)
        assert fraction_in_interval(n, trials, seed, lo, hi) == want
        if lo >= hi:
            assert want == 0


class TestConcentration:
    def test_bound_values(self):
        b = ConcentrationBound()
        assert b.c1 == 2 and b.c2 == Fraction(1, 64)
        got = b.bound(Fraction(1, 2), 1000)
        assert got == pytest.approx(1 - 4 * math.exp(-1000 / 256))
        assert b.bound(Fraction(1, 100), 10) == 0.0  # clipped at zero

    @pytest.mark.parametrize("eps", [Fraction(-1, 2), Fraction(-10**400), -0.5, -1e300])
    def test_negative_eps_bound_is_zero(self, eps):
        # |X - med| <= eps is empty for eps < 0, whatever n
        assert ConcentrationBound().bound(eps, 10**6) == 0.0

    @pytest.mark.parametrize("eps", [Fraction(10**200), Fraction(10**400), 1e200, 1e300])
    def test_huge_eps_bound_is_one(self, eps):
        assert ConcentrationBound().bound(eps, 10) == 1.0

    @pytest.mark.parametrize("eps", [Fraction(0), Fraction(1, 2), Fraction(3, 10), 12.5, 1e100])
    def test_bound_keeps_its_float_expression(self, eps):
        want = max(0.0, 1.0 - 4.0 * math.exp(-(1 / 64) * float(eps) ** 2 * 1000))
        assert ConcentrationBound().bound(eps, 1000) == want

    def test_report_accepts_negative_and_huge_eps(self):
        eps = (Fraction(-1, 2), Fraction(10**400))
        rows = concentration_report(empirical_stats(1000, 100, 0, epsilons=eps))
        assert rows == ((eps[0], Fraction(0), 0.0), (eps[1], Fraction(1), 1.0))

    def test_report_rows_sorted_and_consistent(self):
        eps = (Fraction(1, 2), Fraction(1, 50), Fraction(3, 10))
        stats = empirical_stats(1000, 400, 12, epsilons=eps)
        rows = concentration_report(stats)
        assert [r[0] for r in rows] == sorted(eps)
        for e, frac, guaranteed in rows:
            assert frac == stats.fractions[e]
            assert frac >= guaranteed

    def test_report_rejects_violation(self):
        fake = SampleStats(
            n=10**6,
            trials=10,
            seed=0,
            mean=0.0,
            median=0.0,
            histogram=((0.0, 1.0, 10),),
            fractions={Fraction(1, 2): Fraction(0)},
        )
        with pytest.raises(AssertionError):
            concentration_report(fake)
        with pytest.raises(InvariantError, match="below guaranteed bound"):
            concentration_report(fake)


class TestLipschitz:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_exhaustive_small(self, n):
        words = [Permutation(w) for w in permutations(range(1, n + 1))]
        assert lipschitz_check((p, q) for p in words for q in words)

    def test_random_pairs(self):
        pairs = [
            (sample_uniform(150, 4, 2 * t), sample_uniform(150, 4, 2 * t + 1))
            for t in range(200)
        ]
        assert lipschitz_check(pairs)

    def test_transposition_pairs(self):
        p = Permutation((2, 4, 1, 3))
        q = Permutation((4, 2, 1, 3))
        assert lipschitz_check([(p, q)])

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            lipschitz_check([(Permutation((1, 2)), Permutation((1, 2, 3)))])
