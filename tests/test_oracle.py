"""Exhaustive-enumeration reports: values, maximizer sets, caps."""

import math
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest

from permstats import oracle
from permstats.core import Permutation, displacement
from permstats.extremal import count_max_displacement, max_displacement
from permstats.oracle import (
    HARD_CAP,
    STATISTICS,
    ArgmaxReport,
    Check,
    brute_argmax,
    brute_average_displacement,
    verify,
)
from permstats.stretch import (
    ProductValue,
    max_additive_stretch,
    max_multiplicative_stretch,
    multiplicative_maximizers,
)

# Reference oracles: the statistics word by word, straight from their
# definitions, against which the blocked numpy walk is checked.


def _disp_total(word):
    return sum(abs(i - v) for i, v in enumerate(word, 1))


def _gap_sum(word):
    return sum(abs(a - b) for a, b in zip(word, word[1:]))


def _gap_product(word):
    return math.prod(abs(a - b) for a, b in zip(word, word[1:]))


REFERENCE_SCORES = {
    "displacement": _disp_total,
    "additive-stretch": _gap_sum,
    "multiplicative-stretch": _gap_product,
}


def _cycle_top(n):
    # (best score, successor tables attaining it) over all n-cycles, each
    # scored by its jump-length product divided by its shortest jump
    if n == 1:
        return 1, [(1,)]
    scored = []
    for rest in permutations(range(2, n + 1)):
        order = (1,) + rest
        succ = [0] * n
        for k in range(n):
            succ[order[k] - 1] = order[(k + 1) % n]
        jumps = [abs(i - v) for i, v in enumerate(succ, 1)]
        scored.append((math.prod(jumps) // min(jumps), tuple(succ)))
    best = max(score for score, _ in scored)
    return best, [succ for score, succ in scored if score == best]


def _partition_max(n, s):
    # max product of n positive parts with sum s, by walking the partitions
    def rec(parts_left, total, low):
        if parts_left == 1:
            return total
        best = 0
        for first in range(low, total - parts_left + 2):
            best = max(best, first * rec(parts_left - 1, total - first, first))
        return best

    return rec(n, s, 1)


def reference_argmax(n, statistic):
    if statistic == "cycle-stat":
        best, items = _cycle_top(n)
    else:
        score = REFERENCE_SCORES[statistic]
        scores = {word: score(word) for word in permutations(range(1, n + 1))}
        best = max(scores.values())
        items = [word for word, value in scores.items() if value == best]
    if statistic == "displacement":
        value = Fraction(best, n)
    elif statistic == "additive-stretch":
        value = Fraction(best, n - 1)
    else:
        value = ProductValue(Fraction(best), max(n - 1, 1))
    return ArgmaxReport(n, statistic, value, tuple(Permutation(w) for w in sorted(items)))


class TestAverage:
    def test_known_value(self):
        assert brute_average_displacement(3) == Fraction(8, 9)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_closed_form(self, n):
        assert brute_average_displacement(n) == Fraction(n * n - 1, 3 * n)


class TestDisplacementArgmax:
    def test_n4(self):
        report = brute_argmax(4, "displacement")
        assert report.max_value == Fraction(2)
        assert report.count == 4
        assert report.maximizers == tuple(sorted(report.maximizers))
        for p in report.maximizers:
            assert displacement(p) == Fraction(2)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_closed_forms(self, n):
        report = brute_argmax(n, "displacement")
        assert report.max_value == max_displacement(n)
        assert report.count == count_max_displacement(n)


class TestStretchArgmax:
    def test_additive_n5(self):
        report = brute_argmax(5, "additive-stretch")
        assert report.max_value == Fraction(11, 4)
        assert Permutation((3, 5, 1, 4, 2)) in report.maximizers

    @pytest.mark.parametrize("n", range(2, 8))
    def test_additive_matches_closed_form(self, n):
        assert brute_argmax(n, "additive-stretch").max_value == max_additive_stretch(n)

    def test_multiplicative_n4(self):
        report = brute_argmax(4, "multiplicative-stretch")
        assert report.max_value == ProductValue(12, 3)
        assert list(report.maximizers) == multiplicative_maximizers(4)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_multiplicative_matches_construction(self, n):
        report = brute_argmax(n, "multiplicative-stretch")
        assert report.max_value == max_multiplicative_stretch(n)
        assert list(report.maximizers) == multiplicative_maximizers(n)


class TestCycleArgmax:
    def test_n4_by_hand(self):
        # only two of the six 4-cycles reach full product 12: successor
        # tables (3,4,2,1) and (4,3,1,2)
        report = brute_argmax(4, "cycle-stat")
        assert report.max_value == ProductValue(12, 3)
        assert tuple(p.image for p in report.maximizers) == ((3, 4, 2, 1), (4, 3, 1, 2))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_word_maximum(self, n):
        # dropping the cheapest jump of a cycle is exactly a word, so the two
        # maxima agree
        report = brute_argmax(n, "cycle-stat")
        assert report.max_value == max_multiplicative_stretch(n)

    def test_n1(self):
        report = brute_argmax(1, "cycle-stat")
        assert report.max_value == ProductValue(1, 1)
        assert report.maximizers == (Permutation((1,)),)


class TestGuards:
    def test_statistics_tuple(self):
        assert set(STATISTICS) == {
            "displacement",
            "additive-stretch",
            "multiplicative-stretch",
            "cycle-stat",
        }

    def test_rejects_unknown_statistic(self):
        with pytest.raises(ValueError, match="unknown statistic"):
            brute_argmax(4, "entropy")

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            brute_argmax(0, "displacement")
        with pytest.raises(ValueError):
            brute_average_displacement(0)

    def test_default_limit_is_nine(self):
        with pytest.raises(ValueError, match="limit 9"):
            brute_argmax(10, "displacement")
        with pytest.raises(ValueError, match="limit 9"):
            brute_average_displacement(10)

    def test_hard_cap(self):
        assert HARD_CAP == 11
        with pytest.raises(ValueError, match="limit 11"):
            brute_argmax(12, "displacement", limit=99)

    def test_stretch_needs_two(self):
        with pytest.raises(ValueError, match="n >= 2"):
            brute_argmax(1, "additive-stretch")


class TestDeterminism:
    def test_reports_repeatable(self):
        a = brute_argmax(5, "multiplicative-stretch")
        b = brute_argmax(5, "multiplicative-stretch")
        assert a == b and isinstance(a, ArgmaxReport)

    def test_maximizers_sorted(self):
        for stat in STATISTICS:
            report = brute_argmax(5, stat)
            assert list(report.maximizers) == sorted(report.maximizers)


class TestVerify:
    def test_all_checks_pass(self):
        checks = verify(5)
        assert all(isinstance(c, Check) and c.ok for c in checks)
        assert [(c.name, c.detail) for c in checks] == [
            ("average-displacement", "n=1..5"),
            ("extreme-displacement", "n=1..5"),
            ("additive-stretch", "n=2..5"),
            ("multiplicative-stretch", "n=2..5"),
            ("cycle-correspondence", "n=2..5"),
            ("balanced-partition", "n=1..6, s=n..36"),
            ("noncrossing-improvement", "n=1..5"),
        ]

    def test_rejects_max_n_outside_cap(self):
        with pytest.raises(ValueError, match="positive"):
            verify(0)
        with pytest.raises(ValueError, match="limit 11"):
            verify(HARD_CAP + 1)

    def test_walks_each_group_once(self, monkeypatch):
        walks = Counter()

        def counting(items):
            walks[(items.start, items.stop)] += 1
            return permutations(items)

        monkeypatch.setattr(oracle, "permutations", counting)
        verify(6)
        words = Counter((1, n + 1) for n in range(1, 7))
        cycles = Counter((2, n + 1) for n in range(2, 7))
        assert walks == words + cycles


class TestAgainstReference:
    @pytest.mark.parametrize("statistic, n", [
        (stat, n) for stat in STATISTICS for n in range(2 if "stretch" in stat else 1, 8)
    ])
    def test_argmax(self, statistic, n):
        assert brute_argmax(n, statistic) == reference_argmax(n, statistic)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_average(self, n):
        total = sum(_disp_total(word) for word in permutations(range(1, n + 1)))
        assert brute_average_displacement(n) == Fraction(total, math.factorial(n) * n)

    def test_partition_table(self):
        table = oracle._partition_table(6, 36)
        for n in range(1, 7):
            for s in range(n, 37):
                assert table[n][s] == _partition_max(n, s), (n, s)


class TestBlocks:
    @pytest.mark.parametrize("block", [1, 11])  # 11 divides no n! for n <= 10
    def test_block_size_changes_nothing(self, monkeypatch, block):
        want = verify(7), [brute_argmax(7, stat) for stat in STATISTICS]
        monkeypatch.setattr(oracle, "_BLOCK", block)
        assert (verify(7), [brute_argmax(7, stat) for stat in STATISTICS]) == want

    def test_first_failure_past_first_block(self, monkeypatch):
        # the fault hits two words of the second and the last block; the
        # detail names the earlier one
        words = list(permutations(range(1, 8)))
        first = words[oracle._BLOCK + 1]
        test = oracle.is_additive_maximizer
        monkeypatch.setattr(oracle, "is_additive_maximizer",
                            lambda p: test(p) != (p.image in (first, words[-1])))
        failed = [c for c in verify(7) if not c.ok]
        detail = f"n=7: maximizer test disagrees with argmax at {first}"
        assert failed == [Check("additive-stretch", False, detail)]

    def test_block_scores_fit_int64(self):
        # A gap or jump product has at most HARD_CAP factors, each at most
        # HARD_CAP - 1; raising the cap past this needs exact products.
        assert (HARD_CAP - 1) ** HARD_CAP < 2**63
