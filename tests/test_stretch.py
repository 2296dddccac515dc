"""Stretch statistics over set families, exact geometric means, maximizers."""

from fractions import Fraction
from functools import lru_cache
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permstats.core import Permutation, complement, reverse
from permstats.stretch import (
    IntervalFamily,
    ProductValue,
    consecutive_pairs,
    is_additive_maximizer,
    max_additive_stretch,
    max_multiplicative_stretch,
    max_product_partition,
    multiplicative_maximizers,
    stretch_additive,
    stretch_multiplicative,
)


def perms(n):
    return (Permutation(w) for w in permutations(range(1, n + 1)))


def gap_sum(p):
    return sum(abs(p.image[k + 1] - p.image[k]) for k in range(p.n - 1))


def gap_product(p):
    out = 1
    for k in range(p.n - 1):
        out *= abs(p.image[k + 1] - p.image[k])
    return out


# Independent constructions of the maximizers, kept as oracles: the even pair
# written by hand, and the odd base word unrolled from the successor map of an
# n-cycle with hops of about m and m + 2.
def hand_even_maximizers(m):
    n = 2 * m
    first = [0] * n
    second = [0] * n
    for i in range(1, m + 1):
        first[2 * i - 2] = m - i + 1
        first[2 * i - 1] = n - i + 1
        second[2 * i - 2] = m + i
        second[2 * i - 1] = i
    return [Permutation(tuple(first)), Permutation(tuple(second))]


def unrolled_odd_base_word(m):
    n = 2 * m + 1
    succ = [0] * (n + 1)
    succ[m] = m + 1
    if m % 2 == 1:
        succ[m + 2] = 1
        for i in range(1, n + 1):
            if succ[i]:
                continue
            if i % 2 == 0:
                succ[i] = i + m if i < m + 2 else i - m
            else:
                succ[i] = i + m + 2 if i < m else i - m - 2
    else:
        succ[1] = m + 2
        for i in range(1, n + 1):
            if succ[i]:
                continue
            if i % 2 == 1:
                succ[i] = i + m if i < m + 2 else i - m - 2
            else:
                succ[i] = i + m + 2 if i < m else i - m
    img = [m + 1]
    while len(img) < n:
        img.append(succ[img[-1]])
    assert img[-1] == m
    return Permutation(tuple(img))


def reference_maximizers(n):
    m = n // 2
    if n % 2 == 0:
        return sorted(hand_even_maximizers(m))
    base = unrolled_odd_base_word(m)
    return sorted({base, reverse(base), complement(base), reverse(complement(base))})


random_perm = st.integers(2, 25).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(lambda w: Permutation(tuple(w)))


class TestFamilies:
    def test_consecutive_pairs(self):
        fam = consecutive_pairs(4)
        assert fam.n == 4 and len(fam) == 3
        assert fam.sets[0] == frozenset({1, 2})

    def test_validation(self):
        with pytest.raises(ValueError):
            consecutive_pairs(1)
        with pytest.raises(ValueError):
            IntervalFamily(3, ())
        with pytest.raises(ValueError):
            IntervalFamily(3, (frozenset({2}),))
        with pytest.raises(ValueError):
            IntervalFamily(3, (frozenset({1, 4}),))

    def test_general_family(self):
        fam = IntervalFamily(4, (frozenset({1, 4}), frozenset({1, 2, 3})))
        p = Permutation((2, 4, 1, 3))
        # factors: |3-2|/3 and (4-1)/2
        assert stretch_additive(fam, p) == (Fraction(1, 3) + Fraction(3, 2)) / 2
        assert stretch_multiplicative(fam, p) == ProductValue(Fraction(1, 2), 2)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            stretch_additive(consecutive_pairs(3), Permutation((2, 4, 1, 3)))


class TestProductValue:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProductValue(Fraction(0), 2)
        with pytest.raises(ValueError):
            ProductValue(Fraction(-3), 2)
        with pytest.raises(ValueError):
            ProductValue(Fraction(3), 0)

    def test_equality_across_roots(self):
        assert ProductValue(Fraction(4), 1) == ProductValue(Fraction(16), 2)
        assert ProductValue(Fraction(8), 3) == ProductValue(Fraction(4), 2)

    def test_ordering(self):
        a = ProductValue(Fraction(12), 3)  # ~2.289
        b = ProductValue(Fraction(48), 4)  # ~2.632
        assert a < b and b > a and a <= b and b >= a and a != b

    def test_ordering_is_exact_not_float(self):
        # cross-powering keeps these exact even though 2**903 overflows a double
        big = ProductValue(Fraction(2) ** 903, 903)
        assert big == ProductValue(Fraction(2), 1)
        assert ProductValue(Fraction(2) ** 903 + 1, 903) > big

    def test_float(self):
        assert float(ProductValue(Fraction(12), 3)) == pytest.approx(12 ** (1 / 3))
        huge = ProductValue(Fraction(10) ** 400, 400)
        assert float(huge) == pytest.approx(10.0)

    def test_repr(self):
        assert repr(ProductValue(Fraction(12), 3)) == "ProductValue(12, root=3)"


class TestAdditive:
    def test_known_values(self):
        fam = consecutive_pairs(4)
        assert stretch_additive(fam, Permutation((2, 4, 1, 3))) == Fraction(7, 3)
        assert stretch_additive(fam, Permutation.identity(4)) == 1

    def test_max_closed_forms(self):
        assert max_additive_stretch(2) == 1
        assert max_additive_stretch(3) == Fraction(3, 2)
        assert max_additive_stretch(4) == Fraction(7, 3)
        assert max_additive_stretch(5) == Fraction(11, 4)
        assert max_additive_stretch(6) == Fraction(17, 5)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_max_matches_enumeration(self, n):
        fam = consecutive_pairs(n)
        assert max_additive_stretch(n) == max(stretch_additive(fam, p) for p in perms(n))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_maximizer_predicate_matches_enumeration(self, n):
        fam = consecutive_pairs(n)
        best = max_additive_stretch(n)
        for p in perms(n):
            assert is_additive_maximizer(p) == (stretch_additive(fam, p) == best)

    def test_examples(self):
        assert is_additive_maximizer(Permutation((2, 4, 1, 3)))
        assert is_additive_maximizer(Permutation((3, 5, 1, 4, 2)))
        assert not is_additive_maximizer(Permutation.identity(4))

    @given(random_perm)
    def test_invariance_under_mirrors(self, p):
        fam = consecutive_pairs(p.n)
        s = stretch_additive(fam, p)
        assert stretch_additive(fam, reverse(p)) == s
        assert stretch_additive(fam, complement(p)) == s


@lru_cache(maxsize=None)
def brute_partition(n, s):
    if n == 1:
        return s
    return max(k * brute_partition(n - 1, s - k) for k in range(1, s - n + 2))


class TestPartition:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_exhaustive(self, n):
        for s in range(n, 37):
            value, parts = max_product_partition(n, s)
            assert value == brute_partition(n, s)
            assert len(parts) == n and sum(parts) == s
            assert all(x >= 1 for x in parts)
            prod = 1
            for x in parts:
                prod *= x
            assert prod == value

    @pytest.mark.parametrize("n", range(1, 7))
    def test_strictly_monotone_in_sum(self, n):
        values = [max_product_partition(n, s)[0] for s in range(n, 38)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_parts_nearly_equal(self):
        _, parts = max_product_partition(4, 14)
        assert parts == (3, 3, 4, 4)
        assert max(parts) - min(parts) <= 1

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            max_product_partition(0, 5)
        with pytest.raises(ValueError):
            max_product_partition(3, 2)

    def test_swap_inequality_grid(self):
        # widening a pair never helps: (x-1)(y+1) < xy whenever x <= y
        for x in range(1, 60):
            for y in range(x, 60):
                assert (x - 1) * (y + 1) < x * y

    @given(st.integers(1, 40), st.integers(0, 400))
    @settings(max_examples=200)
    def test_parts_balanced_property(self, n, extra):
        s = n + extra
        _, parts = max_product_partition(n, s)
        assert max(parts) - min(parts) <= 1 and sum(parts) == s


class TestMultiplicative:
    def test_known_values(self):
        fam = consecutive_pairs(4)
        assert stretch_multiplicative(fam, Permutation((2, 4, 1, 3))) == ProductValue(
            Fraction(12), 3
        )

    def test_max_closed_forms(self):
        assert max_multiplicative_stretch(2) == ProductValue(Fraction(1), 1)
        assert max_multiplicative_stretch(3) == ProductValue(Fraction(2), 2)
        assert max_multiplicative_stretch(4) == ProductValue(Fraction(12), 3)
        assert max_multiplicative_stretch(5) == ProductValue(Fraction(48), 4)
        assert max_multiplicative_stretch(6) == ProductValue(Fraction(432), 5)
        assert max_multiplicative_stretch(7) == ProductValue(Fraction(2700), 6)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_max_matches_enumeration(self, n):
        best = max(gap_product(p) for p in perms(n))
        assert max_multiplicative_stretch(n) == ProductValue(Fraction(best), n - 1)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_maximizers_match_enumeration(self, n):
        best = max(gap_product(p) for p in perms(n))
        expected = sorted(p for p in perms(n) if gap_product(p) == best)
        assert multiplicative_maximizers(n) == expected

    def test_counts(self):
        for n in range(2, 10):
            count = len(multiplicative_maximizers(n))
            assert count == (2 if n % 2 == 0 else 4)

    def test_explicit_words(self):
        assert [p.image for p in multiplicative_maximizers(4)] == [
            (2, 4, 1, 3),
            (3, 1, 4, 2),
        ]
        assert [p.image for p in multiplicative_maximizers(5)] == [
            (2, 4, 1, 5, 3),
            (3, 1, 5, 2, 4),
            (3, 5, 1, 4, 2),
            (4, 2, 5, 1, 3),
        ]

    @given(random_perm)
    def test_invariance_under_mirrors(self, p):
        fam = consecutive_pairs(p.n)
        s = stretch_multiplicative(fam, p)
        assert stretch_multiplicative(fam, reverse(p)) == s
        assert stretch_multiplicative(fam, complement(p)) == s

    @pytest.mark.parametrize("n", [10, 11, 20, 21, 51, 1400, 1401])
    def test_constructed_words_attain_maximum(self, n):
        fam = consecutive_pairs(n)
        best = max_multiplicative_stretch(n)
        for p in multiplicative_maximizers(n):
            assert stretch_multiplicative(fam, p) == best

    def test_equals_reference_constructions(self):
        for n in [*range(2, 601), 1400, 1401, 2000, 2001]:
            assert multiplicative_maximizers(n) == reference_maximizers(n), n
