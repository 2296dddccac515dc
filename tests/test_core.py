"""Core permutation type and exact statistics."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permstats.cli import _crossing_example
from permstats.core import (
    Permutation,
    average_displacement_exact,
    complement,
    dispersion,
    displacement,
    hamming_distance,
    inverse,
    min_delay,
    normalized_displacement,
    reverse,
    spread,
    transform,
)


def perms(n):
    return (Permutation(w) for w in permutations(range(1, n + 1)))


def reference_spread(p):
    # The O(n^2) pair scan that `spread` replaced, kept as its oracle.
    img = p.image
    return min(
        (j - i) + abs(img[i - 1] - img[j - 1])
        for i in range(1, p.n)
        for j in range(i + 1, p.n + 1)
    )


def reference_dispersion(p):
    # The set of all n(n-1)/2 difference pairs that `dispersion` replaced.
    img = p.image
    seen = {
        (i - j, img[i - 1] - img[j - 1])
        for i in range(1, p.n)
        for j in range(i + 1, p.n + 1)
    }
    return Fraction(len(seen), p.n * (p.n - 1) // 2)


random_perm = st.integers(1, 30).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(lambda w: Permutation(tuple(w)))


class TestPermutation:
    def test_identity(self):
        assert Permutation.identity(4).image == (1, 2, 3, 4)

    def test_call_is_one_indexed(self):
        p = Permutation((2, 4, 1, 3))
        assert [p(i) for i in (1, 2, 3, 4)] == [2, 4, 1, 3]

    def test_rejects_non_bijections(self):
        for bad in [(), (0,), (2,), (1, 1), (1, 3), (2, 3, 4)]:
            with pytest.raises(ValueError):
                Permutation(bad)

    @pytest.mark.parametrize("bad", [(1.0, 2.0), (True,), (1, 2.0)])
    def test_rejects_non_integer_elements(self, bad):
        # floats and bools compare equal to ints, so only a type check catches them
        with pytest.raises(ValueError, match="integers"):
            Permutation(bad)

    def test_call_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Permutation((1, 2))(3)

    def test_hashable_and_ordered(self):
        assert len({Permutation((1, 2)), Permutation((1, 2))}) == 1
        assert Permutation((1, 2, 3)) < Permutation((1, 3, 2))


class TestDisplacement:
    def test_known_values(self):
        assert displacement(Permutation((3, 1, 2))) == Fraction(4, 3)
        assert displacement(Permutation((2, 4, 1, 3))) == Fraction(3, 2)
        assert displacement(Permutation.identity(7)) == 0
        assert displacement(Permutation((1,))) == 0

    def test_normalized(self):
        assert normalized_displacement(Permutation((3, 1, 2))) == Fraction(4, 9)

    @given(random_perm)
    def test_normalized_range(self, p):
        assert 0 <= normalized_displacement(p) <= Fraction(1, 2)

    def test_average_closed_form(self):
        assert average_displacement_exact(1) == 0
        assert average_displacement_exact(3) == Fraction(8, 9)
        assert average_displacement_exact(1000) == Fraction(999999, 3000)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_average_matches_enumeration(self, n):
        total = sum(displacement(p) for p in perms(n))
        count = sum(1 for _ in perms(n))
        assert total / count == average_displacement_exact(n)

    def test_average_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            average_displacement_exact(0)


class TestSymmetries:
    def test_examples(self):
        assert reverse(Permutation((3, 5, 1, 4, 2))).image == (2, 4, 1, 5, 3)
        assert complement(Permutation((2, 4, 1, 3))).image == (3, 1, 4, 2)
        assert inverse(Permutation((3, 1, 2))).image == (2, 3, 1)

    @given(random_perm)
    def test_involutions(self, p):
        assert reverse(reverse(p)) == p
        assert complement(complement(p)) == p
        assert inverse(inverse(p)) == p

    @given(random_perm)
    def test_reverse_and_complement_commute(self, p):
        assert reverse(complement(p)) == complement(reverse(p))

    def test_transform_dispatch(self):
        p = Permutation((2, 1, 3))
        assert transform(p, "inverse") == inverse(p)
        with pytest.raises(ValueError):
            transform(p, "rotate")

    @pytest.mark.parametrize("n", range(1, 7))
    def test_displacement_symmetries_exhaustive(self, n):
        # The travel multiset survives inversion and the reverse-complement
        # conjugation; reverse or complement alone do not preserve it.
        for p in perms(n):
            assert displacement(inverse(p)) == displacement(p)
            assert displacement(reverse(complement(p))) == displacement(p)

    def test_complement_alone_changes_displacement(self):
        p = Permutation.identity(2)
        assert displacement(complement(p)) != displacement(p)
        assert displacement(reverse(p)) != displacement(p)

    @given(random_perm)
    def test_displacement_symmetries_random(self, p):
        assert displacement(inverse(p)) == displacement(p)
        assert displacement(reverse(complement(p))) == displacement(p)


class TestHamming:
    def test_example(self):
        a, b = Permutation((1, 2, 3)), Permutation((2, 1, 3))
        assert hamming_distance(a, b) == Fraction(2, 3)
        assert hamming_distance(a, a) == 0

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance(Permutation((1, 2)), Permutation((1, 2, 3)))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_never_exactly_one_point(self, n):
        # two permutations cannot disagree in exactly one position
        for p in perms(n):
            for q in perms(n):
                assert hamming_distance(p, q) != Fraction(1, n)


class TestCompanionStatistics:
    def test_min_delay(self):
        assert min_delay(Permutation((3, 5, 1, 4, 2))) == 0
        assert min_delay(Permutation((2, 4, 1, 3))) == 1

    def test_spread(self):
        assert spread(Permutation((2, 4, 1, 3))) == 3
        assert spread(Permutation.identity(2)) == 2

    def test_dispersion(self):
        assert dispersion(Permutation.identity(3)) == Fraction(2, 3)
        assert dispersion(Permutation((2, 4, 1, 3))) == Fraction(2, 3)

    @given(random_perm.filter(lambda p: p.n >= 2))
    def test_dispersion_range(self, p):
        assert 0 < dispersion(p) <= 1

    def test_undefined_below_two(self):
        single = Permutation((1,))
        with pytest.raises(ValueError):
            spread(single)
        with pytest.raises(ValueError):
            dispersion(single)


class TestOffsetScans:
    # `spread` and `dispersion` against the pair scans they replaced, with
    # exact return types, and at sizes the pair scans cannot reach
    @staticmethod
    def assert_matches_reference(p):
        got_spread, got_dispersion = spread(p), dispersion(p)
        assert type(got_spread) is int and got_spread == reference_spread(p), p.image
        assert type(got_dispersion) is Fraction
        assert got_dispersion == reference_dispersion(p), p.image

    @pytest.mark.parametrize("n", range(2, 9))
    def test_match_reference_on_all_of_sn(self, n):
        for p in perms(n):
            self.assert_matches_reference(p)

    @pytest.mark.parametrize("n", [100, 500, 1500, 2000])
    def test_match_reference_on_random_words(self, n, random_word):
        self.assert_matches_reference(random_word(0, n))

    @pytest.mark.parametrize("n", [2, 3, 9, 10, 101, 500])
    def test_match_reference_on_structured_words(self, n, structured_words):
        for p in structured_words(n):
            self.assert_matches_reference(p)

    @pytest.mark.parametrize("word", [Permutation.identity, _crossing_example])
    def test_match_reference_at_n_2000(self, word):
        # the reference takes about a second per word at this size, so only
        # two of the structured words run here; n = 500 runs all of them
        self.assert_matches_reference(word(2000))

    def test_spread_of_identity_at_n_100000(self):
        assert spread(Permutation.identity(100_000)) == 2

    def test_dispersion_of_identity_at_n_10000(self):
        assert dispersion(Permutation.identity(10_000)) == Fraction(2, 10_000)
