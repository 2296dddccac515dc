"""Seeded Monte Carlo over uniform random permutations.

Randomness comes from Philox4x64-10, a counter-based generator with a
published algorithm.  The 64-bit seed is the Philox key and the trial index
is planted in the second word of the 256-bit counter, so trial t draws from
its own block of 2^64 states: results are reproducible for a given (seed, n),
independent of evaluation order, and trials can be recomputed individually.
One Philox serves a whole call; before each trial its state is set to
counter [0, t, 0, 0] with an empty output buffer, the state a fresh
Philox(key=seed, counter=t << 64) starts in.  Permutations are produced by
numpy's `Generator.permutation` (a Fisher-Yates shuffle over bounded draws),
giving every one of the n! outcomes equal probability under an ideal source;
the seed-to-permutation map therefore also depends on that numpy routine.

Displacement samples are accumulated exactly (integer totals, `Fraction`
ratios); floating point appears only in reported summaries and in the
concentration bound, which involves exp.

The concentration side: normalized displacement d(pi)/n changes by at most
the normalized Hamming distance when the permutation changes
(`lipschitz_check`), and for such functions the uniform measure on S_n
concentrates around the median:

    fraction of pi with |d(pi)/n - median| <= eps   >=   1 - 4 exp(-eps^2 n / 64).

`concentration_report` tabulates that bound against the empirical fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import InvariantError, Permutation, hamming_distance, normalized_displacement

__all__ = [
    "SampleStats",
    "ConcentrationBound",
    "sample_uniform",
    "displacement_sums",
    "empirical_stats",
    "fraction_in_interval",
    "concentration_report",
    "lipschitz_check",
]

HISTOGRAM_BINS = 50
_WORD = 2**64 - 1


def _check_seed(seed: int) -> None:
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")


def _trial_stream(seed: int) -> Callable[[int], np.random.Generator]:
    """trial(t) returns one shared Generator in the state a fresh
    Philox(key=seed, counter=t << 64) starts in.

    A fresh Philox per trial would also read OS entropy for a SeedSequence
    it never uses, which cost more than the draws at small n.
    """
    bits = np.random.Philox(key=seed)
    generator = np.random.Generator(bits)
    state = bits.state
    state.update(buffer_pos=4, has_uint32=0, uinteger=0)  # empty output buffer
    counter = state["state"]["counter"]
    counter[:] = 0

    def trial(index: int) -> np.random.Generator:
        # counter = index << 64; word 0 counts the blocks drawn within the trial
        counter[1] = index & _WORD
        counter[2] = (index >> 64) & _WORD
        counter[3] = index >> 128
        bits.state = state  # the setter copies, so state stays as set above
        return generator

    return trial


def sample_uniform(n: int, seed: int, index: int = 0) -> Permutation:
    """Uniformly random permutation of {1..n}, pinned down by (seed, index).

    >>> sample_uniform(5, 1) == sample_uniform(5, 1)
    True
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    _check_seed(seed)
    if not 0 <= index < 2**192:
        raise ValueError(f"index must lie in [0, 2**192), got {index}")
    word = _trial_stream(seed)(index).permutation(n) + 1
    return Permutation(tuple(int(v) for v in word))


def displacement_sums(n: int, trials: int, seed: int) -> np.ndarray:
    """Integer totals sum_i |i - pi(i)| for trials independent samples.

    Trial t uses the same permutation as sample_uniform(n, seed, index=t).
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    _check_seed(seed)
    trial = _trial_stream(seed)
    idx = np.arange(n, dtype=np.int64)  # 0-based, as permutation(n) returns
    out = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        out[t] = np.abs(trial(t).permutation(n) - idx).sum()
    return out


@dataclass(frozen=True)
class SampleStats:
    """Summary of a displacement sample.

    mean and median are on the displacement scale d(pi); the median of an
    even trial count is the lower-middle order statistic.  histogram has
    HISTOGRAM_BINS equal-width (lo, hi, count) rows over the observed range.
    fractions maps eps to the exact fraction of samples whose normalized
    displacement lies within eps of the normalized median.
    """

    n: int
    trials: int
    seed: int
    mean: float
    median: float
    histogram: tuple[tuple[float, float, int], ...]
    fractions: dict[Fraction, Fraction]


def empirical_stats(
    n: int,
    trials: int,
    seed: int,
    epsilons: Sequence[Fraction | float | str] = (),
) -> SampleStats:
    """Sample trials permutations and summarize their displacements.

    Accumulation is exact; the mean and median fields are the only rounding
    step.  Deterministic for fixed (n, trials, seed).
    """
    sums = displacement_sums(n, trials, seed)
    total = int(sums.sum())
    mean = Fraction(total, trials * n)
    order = np.sort(sums)
    med_sum = int(order[(trials - 1) // 2])
    median = Fraction(med_sum, n)

    counts, edges = np.histogram(sums / n, bins=HISTOGRAM_BINS)
    histogram = tuple(
        (float(edges[k]), float(edges[k + 1]), int(counts[k]))
        for k in range(len(counts))
    )

    # |s/n^2 - med/n^2| <= eps  <=>  |s - med| <= floor(eps*n^2) for integer s;
    # the floor stays a Python int, so a huge or negative eps compares exactly.
    deltas = np.abs(sums - med_sum)
    fractions: dict[Fraction, Fraction] = {}
    for raw in epsilons:
        eps = Fraction(raw)
        hit = np.count_nonzero(deltas <= math.floor(eps * n * n))
        fractions[eps] = Fraction(int(hit), trials)

    return SampleStats(
        n=n,
        trials=trials,
        seed=seed,
        mean=float(mean),
        median=float(median),
        histogram=histogram,
        fractions=fractions,
    )


def fraction_in_interval(
    n: int, trials: int, seed: int, lo: Fraction | int, hi: Fraction | int
) -> Fraction:
    """Fraction of sampled displacements with lo < d(pi) < hi, exactly.

    Purely descriptive; nothing in the package asserts a particular value.
    """
    # For an integer s: lo*n < s < hi*n  <=>  floor(lo*n) < s < ceil(hi*n).
    low, high = math.floor(Fraction(lo) * n), math.ceil(Fraction(hi) * n)
    sums = displacement_sums(n, trials, seed)
    hit = np.count_nonzero((sums > low) & (sums < high))
    return Fraction(int(hit), trials)


@dataclass(frozen=True)
class ConcentrationBound:
    """Lower bound 1 - 2*c1*exp(-c2 * eps^2 * n) on measure within eps of the median."""

    c1: Fraction = Fraction(2)
    c2: Fraction = Fraction(1, 64)

    def bound(self, eps: Fraction | float, n: int) -> float:
        if eps < 0:
            return 0.0  # no sample lies within a negative distance of the median
        try:
            exponent = -float(self.c2) * float(eps) ** 2 * n
        except OverflowError:
            return 1.0  # eps beyond float range: exp(exponent) underflows to 0
        raw = 1.0 - 2.0 * float(self.c1) * math.exp(exponent)
        return max(0.0, raw)


def concentration_report(
    stats: SampleStats, bound: ConcentrationBound = ConcentrationBound()
) -> tuple[tuple[Fraction, Fraction, float], ...]:
    """Rows (eps, empirical fraction, guaranteed lower bound) per eps.

    The empirical fraction can never fall below the bound; a violation would
    mean a bug in the sampler or the bound, and raises InvariantError.
    """
    rows = []
    for eps, frac in sorted(stats.fractions.items()):
        guaranteed = bound.bound(eps, stats.n)
        if frac < guaranteed:
            raise InvariantError(
                f"measured fraction {frac} below guaranteed bound {guaranteed}"
                f" at eps={eps}, n={stats.n}"
            )
        rows.append((eps, frac, guaranteed))
    return tuple(rows)


def lipschitz_check(pairs: Iterable[tuple[Permutation, Permutation]]) -> bool:
    """Whether |d(p)/n - d(q)/n| <= normalized Hamming distance on every pair.

    Exact arithmetic throughout; raises ValueError when a pair mixes sizes.
    """
    for p, q in pairs:
        gap = abs(normalized_displacement(p) - normalized_displacement(q))
        if gap > hamming_distance(p, q):
            return False
    return True
