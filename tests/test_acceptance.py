"""Acceptance gate: eleven end-to-end checks, one test and one line each.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line per
criterion.  Each test also prints a one-line summary with the measured
numbers; tolerances and budgets are pinned inline.
"""

import math
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import permutations

from permstats.core import (
    Permutation,
    average_displacement_exact,
    displacement,
    hamming_distance,
    normalized_displacement,
)
from permstats.cycles import (
    CycleWithStart,
    cycle_stat,
    cycle_to_perm,
    find_improvement,
    perm_to_cycle,
    two_opt,
)
from permstats.extremal import (
    _crossing_by_image_sets,
    construct_prescribed,
    count_max_displacement,
    improve_noncrossing,
    is_crossing,
    max_displacement,
)
from permstats.oracle import brute_argmax, brute_average_displacement
from permstats.sampling import (
    concentration_report,
    empirical_stats,
    fraction_in_interval,
    sample_uniform,
)
from permstats.stretch import (
    ProductValue,
    is_additive_maximizer,
    max_additive_stretch,
    max_multiplicative_stretch,
    max_product_partition,
    multiplicative_maximizers,
)


def everyone(n):
    return (Permutation(w) for w in permutations(range(1, n + 1)))


def report(k, text):
    print(f"criterion {k:02d} PASS — {text}")


def test_criterion_01_average_displacement_closed_form():
    # exact match of the enumerated mean for every n up to 8, within 30 s
    t0 = time.monotonic()
    for n in range(1, 9):
        assert brute_average_displacement(n, limit=9) == average_displacement_exact(n)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(1, f"mean displacement matches enumeration for n=1..8 in {elapsed:.1f}s")


def test_criterion_02_extreme_displacement_and_crossing_sets():
    # closed-form max and count, and argmax set == crossing set under both
    # the interval-witness scan and the image-set test, for every n up to 8
    for n in range(1, 9):
        oracle = brute_argmax(n, "displacement", limit=9)
        m = n // 2
        if n % 2 == 0:
            assert oracle.max_value == Fraction(n, 2)
            formula = math.factorial(m) ** 2
        else:
            assert oracle.max_value == Fraction((n - 1) * (n + 1), 2 * n)
            formula = (2 * m + 1) * math.factorial(m) ** 2
        assert count_max_displacement(n) == oracle.count, (
            f"n={n}: count_max_displacement says {count_max_displacement(n)},"
            f" but the enumeration found {oracle.count} (the enumeration wins)"
        )
        assert formula == oracle.count, (
            f"n={n}: closed-form count {formula} disagrees with enumerated"
            f" count {oracle.count} (the enumeration wins)"
        )
        top = set(oracle.maximizers)
        for p in everyone(n):
            in_top = p in top
            assert is_crossing(p)[0] == in_top
            assert _crossing_by_image_sets(p) == in_top
    report(2, "extreme displacement values, counts, and crossing sets agree for n=1..8")


def test_criterion_03_additive_stretch_maximizers():
    t0 = time.monotonic()
    for n in range(2, 10):
        oracle = brute_argmax(n, "additive-stretch", limit=9)
        assert oracle.max_value == max_additive_stretch(n)
        top = set(oracle.maximizers)
        for p in everyone(n):
            assert is_additive_maximizer(p) == (p in top)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(3, f"additive-stretch maxima and maximizer sets agree for n=2..9 in {elapsed:.1f}s")


def test_criterion_04_multiplicative_stretch_maximizers():
    for n in range(2, 10):
        oracle = brute_argmax(n, "multiplicative-stretch", limit=9)
        assert oracle.max_value == max_multiplicative_stretch(n)
        constructed = multiplicative_maximizers(n)
        assert list(oracle.maximizers) == constructed
        if n % 2 == 0:
            assert len(constructed) == 2
        else:
            assert len(constructed) == 4
    four = brute_argmax(4, "multiplicative-stretch")
    assert four.max_value == ProductValue(12, 3)
    assert tuple(p.image for p in four.maximizers) == ((2, 4, 1, 3), (3, 1, 4, 2))
    five = brute_argmax(5, "multiplicative-stretch")
    assert five.max_value == ProductValue(48, 4)
    assert five.count == 4
    report(4, "multiplicative-stretch maxima and explicit maximizers agree for n=2..9")


def test_criterion_05_balanced_partitions():
    def brute(parts, total, low):
        if parts == 1:
            return total if total >= low else 0
        return max(
            (
                first * brute(parts - 1, total - first, first)
                for first in range(low, total - parts + 2)
            ),
            default=0,  # dead branch: remaining sum too small for ordered parts
        )

    for n in range(1, 7):
        previous = None
        for s in range(n, 37):
            value, parts = max_product_partition(n, s)
            assert value == brute(n, s, 1)
            assert len(parts) == n and sum(parts) == s
            if previous is not None:
                assert previous < value
            previous = value
    report(5, "balanced partitions match exhaustive search and grow strictly in s")


def test_criterion_06_noncrossing_improvement_exhaustive():
    for n in range(1, 8):
        for p in everyone(n):
            if is_crossing(p)[0]:
                assert improve_noncrossing(p) is None
            else:
                q = improve_noncrossing(p)
                assert displacement(q) > displacement(p)
    report(6, "one swap strictly improves every non-crossing permutation, n=1..7")


def test_criterion_07_cycle_rewiring_random():
    rng = random.Random(20240917)
    improved = 0
    for _ in range(10_000):
        n = rng.randrange(4, 11)
        word = list(range(1, n + 1))
        rng.shuffle(word)
        c = perm_to_cycle(Permutation(tuple(word)))

        better = find_improvement(c)
        if better is not None:
            improved += 1
            assert cycle_stat(better) > cycle_stat(c)

        a, b = rng.sample(range(1, n + 1), 2)
        ra, rb = c.successor_of(a), c.successor_of(b)
        if len({a, ra, b, rb}) == 4:
            d = two_opt(c, a, b)  # constructor verifies the single-cycle shape
            before = Counter(c.jump_lengths())
            before[abs(a - ra)] -= 1
            before[abs(b - rb)] -= 1
            before[abs(a - b)] += 1
            before[abs(ra - rb)] += 1
            assert before == Counter(d.jump_lengths())
    assert improved > 0
    report(7, f"10000 random cycles: {improved} guided rewirings, all strict gains")


def test_criterion_08_lipschitz_bound():
    for n in range(1, 6):
        words = [Permutation(w) for w in permutations(range(1, n + 1))]
        for p in words:
            dp = normalized_displacement(p)
            for q in words:
                assert abs(dp - normalized_displacement(q)) <= hamming_distance(p, q)
    for t in range(10_000):
        p = sample_uniform(200, 77, 2 * t)
        q = sample_uniform(200, 77, 2 * t + 1)
        gap = abs(normalized_displacement(p) - normalized_displacement(q))
        assert gap <= hamming_distance(p, q)
    report(8, "displacement is 1-Lipschitz in Hamming distance on all tested pairs")


def test_criterion_09_prescribed_displacement():
    n = 10_000
    targets = [Fraction(0), Fraction(1, 10), Fraction(1, 4), Fraction(2, 5), Fraction(1, 2)]
    achieved_all = []
    for d in targets:
        p = construct_prescribed(n, d)
        achieved = normalized_displacement(p)
        achieved_all.append(achieved)
        assert abs(achieved - d) <= Fraction(2, 10_000)
    pairs = ", ".join(
        f"{d}->{a.numerator}/{a.denominator}" for d, a in zip(targets, achieved_all)
    )
    report(9, f"n=10000 constructions within 2e-4 of target: {pairs}")


def test_criterion_10_sampling_at_n_1000():
    t0 = time.monotonic()
    n, trials, seed = 1000, 100_000, 42
    eps = (Fraction(1, 50), Fraction(1, 10), Fraction(3, 10), Fraction(1, 2))
    stats = empirical_stats(n, trials, seed, epsilons=eps)
    expected = float(average_displacement_exact(n))  # 333.333
    assert abs(stats.mean - expected) <= 0.5
    assert abs(stats.median - stats.mean) <= 1.0
    rows = concentration_report(stats)  # asserts fraction >= bound per eps
    assert [r[0] for r in rows] == sorted(eps)
    inside = fraction_in_interval(n, trials, seed, 330, 336)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(
        10,
        f"mean {stats.mean:.4f} vs {expected:.4f}, median {stats.median:.3f},"
        f" fraction in (330, 336) = {inside} ({float(inside):.4f}),"
        f" {elapsed:.1f}s",
    )


def test_criterion_11_cycle_correspondence():
    for n in range(1, 7):
        for p in everyone(n):
            assert cycle_to_perm(perm_to_cycle(p)) == p
        for rest in permutations(range(2, n + 1)):
            order = (1,) + rest
            mapping = {order[k]: order[(k + 1) % n] for k in range(n)}
            for start in range(1, n + 1):
                c = CycleWithStart.from_mapping(mapping, start)
                assert perm_to_cycle(cycle_to_perm(c)) == c
    for n in range(2, 8):
        words = brute_argmax(n, "multiplicative-stretch", limit=9).max_value
        cycles = brute_argmax(n, "cycle-stat", limit=9).max_value
        assert words == cycles == max_multiplicative_stretch(n)
    report(11, "cycle round trips are exact for n<=6; word and cycle maxima agree for n<=7")
