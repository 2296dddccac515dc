"""Extreme displacement: maxima, crossing structure, improvement, construction."""

import math
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permstats.core import Permutation, displacement, normalized_displacement
from permstats.extremal import (
    construct_prescribed,
    count_max_displacement,
    improve_noncrossing,
    is_crossing,
    max_displacement,
)


def perms(n):
    return (Permutation(w) for w in permutations(range(1, n + 1)))


class TestMaxDisplacement:
    def test_closed_forms(self):
        assert max_displacement(1) == 0
        assert max_displacement(2) == 1
        assert max_displacement(4) == 2
        assert max_displacement(5) == Fraction(24, 10)
        assert max_displacement(6) == 3
        assert max_displacement(7) == Fraction(48, 14)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_enumeration(self, n):
        assert max_displacement(n) == max(displacement(p) for p in perms(n))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_count_matches_enumeration(self, n):
        best = max_displacement(n)
        observed = sum(1 for p in perms(n) if displacement(p) == best)
        assert count_max_displacement(n) == observed

    def test_counts_small(self):
        assert [count_max_displacement(n) for n in range(1, 8)] == [
            1, 1, 3, 4, 20, 36, 252,
        ]


class TestCrossing:
    def test_maximal_example(self):
        ok, witness = is_crossing(Permutation((3, 4, 1, 2)))
        assert ok and witness is None

    def test_non_maximal_example(self):
        # (3,5,1,4,2) fixes position 4, so intervals [4,4] and [1,3] miss
        # each other: not crossing.
        ok, witness = is_crossing(Permutation((3, 5, 1, 4, 2)))
        assert not ok
        # first disjoint pair in scan order: [1,3] and [4,4]
        assert (witness.i, witness.j) == (1, 4)

    def test_witness_intervals_disjoint(self):
        p = Permutation((2, 1, 3, 5, 4))
        ok, witness = is_crossing(p)
        assert not ok
        a = sorted((witness.i, p(witness.i)))
        b = sorted((witness.j, p(witness.j)))
        assert a[1] < b[0] or b[1] < a[0]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_crossing_set_is_argmax_set(self, n):
        best = max_displacement(n)
        for p in perms(n):
            assert is_crossing(p)[0] == (displacement(p) == best)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_crossing_count_closed_form(self, n):
        m = n // 2
        expected = math.factorial(m) ** 2
        if n % 2 == 1:
            expected *= n
        observed = sum(1 for p in perms(n) if is_crossing(p)[0])
        assert observed == expected == count_max_displacement(n)


class TestImproveNoncrossing:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_strictly_increases(self, n):
        for p in perms(n):
            crossing, _ = is_crossing(p)
            if crossing:
                with pytest.raises(ValueError):
                    improve_noncrossing(p)
            else:
                q = improve_noncrossing(p)
                assert displacement(q) > displacement(p)
                assert sorted(q.image) == list(range(1, n + 1))

    def test_single_swap(self):
        p = Permutation((2, 1, 3, 5, 4))
        q = improve_noncrossing(p)
        assert sum(1 for i in range(5) if p.image[i] != q.image[i]) == 2

    def test_iteration_reaches_maximum(self):
        p = Permutation.identity(6)
        seen = 0
        while not is_crossing(p)[0]:
            p = improve_noncrossing(p)
            seen += 1
            assert seen <= 100
        assert displacement(p) == max_displacement(6)


class TestConstructPrescribed:
    def test_endpoints(self):
        assert construct_prescribed(8, Fraction(0)) == Permutation.identity(8)
        p = construct_prescribed(8, Fraction(1, 2))
        assert normalized_displacement(p) == Fraction(1, 2)

    def test_achieved_value_formula(self):
        n, d = 100, Fraction(1, 5)
        p = construct_prescribed(n, d)
        delta = math.sqrt(2 * d)
        u = min(math.ceil(delta * n / 2), n // 2)
        assert normalized_displacement(p) == Fraction(2 * u * u, n * n)

    @pytest.mark.parametrize(
        "d", [Fraction(0), Fraction(1, 10), Fraction(1, 4), Fraction(2, 5), Fraction(1, 2)]
    )
    def test_within_two_over_n(self, d):
        n = 1000
        p = construct_prescribed(n, d)
        assert abs(normalized_displacement(p) - d) <= Fraction(2, n)

    @given(
        st.integers(2, 200),
        st.fractions(min_value=0, max_value=Fraction(1, 2)),
    )
    @settings(max_examples=200)
    def test_accuracy_property(self, n, d):
        p = construct_prescribed(n, d)
        assert abs(normalized_displacement(p) - d) <= Fraction(2, n)

    def test_block_size_is_exact(self):
        # d n^2 / 2 = 225 exactly; a float square root gives u = 16, not 15
        p = construct_prescribed(35, Fraction(18, 49))
        assert normalized_displacement(p) == Fraction(18, 49)

    @given(
        st.integers(1, 10**6),
        st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=10**9),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_size_is_least(self, n, d):
        # the result swaps blocks of size u, so it maps 1 to 1 + u
        u = construct_prescribed(n, d)(1) - 1
        assert u == 0 or 2 * (u - 1) ** 2 < d * n * n
        assert 2 * u * u >= d * n * n or u == n // 2
        assert abs(Fraction(2 * u * u, n * n) - d) <= Fraction(2, n)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            construct_prescribed(10, Fraction(3, 5))
        with pytest.raises(ValueError):
            construct_prescribed(10, Fraction(-1, 10))
