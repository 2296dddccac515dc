"""Extremal displacement: crossing permutations and prescribed-displacement maps.

Attach to each index i the closed interval [i, pi(i)] (endpoints in either
order).  A permutation is *crossing* when every pair of these intervals
intersects.  The crossing permutations are exactly the permutations of maximal
displacement, and they admit a clean image-set description:

  n = 2m:      pi maps {1..m} onto {m+1..n};
  n = 2m + 1:  pi maps {1..m} into {m+1..n} and {m+2..n} into {1..m+1}.

`is_crossing` runs both the interval test and the image-set test and insists
they agree, so a bug in either one raises `InvariantError` rather than
returning a wrong answer.  Both tests are O(n): the interval test finds the
lexicographically first disjoint pair from the suffix maxima of the left
endpoints min(i, pi(i)), and the image-set test reads slices of the word.

A noncrossing permutation always has two disjoint intervals, and composing
with that transposition strictly increases displacement (`improve_noncrossing`).
Conversely `construct_prescribed` builds a permutation whose normalized
displacement hits any requested value in [0, 1/2] to within 2/n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .core import InvariantError, Permutation

__all__ = [
    "CrossingWitness",
    "is_crossing",
    "max_displacement",
    "count_max_displacement",
    "improve_noncrossing",
    "construct_prescribed",
]


@dataclass(frozen=True)
class CrossingWitness:
    """A pair i < j whose intervals [i, pi(i)] and [j, pi(j)] are disjoint.

    With i < j, disjointness forces the first interval to lie entirely to the
    left of the second: max(i, pi(i)) < min(j, pi(j)).
    """

    i: int
    j: int


def _disjoint_pair(p: Permutation) -> CrossingWitness | None:
    # First disjoint pair in lexicographic order, or None if all intersect.
    # One comparison suffices: lo_i <= i < j <= hi_j, so [j] never lies left of [i].
    # The witness's i is the first with hi_i < max(lo_j for j > i), read off the
    # suffix maxima of lo, and one scan past it finds j: O(n) in all.
    img, n = p.image, p.n
    lo = [i if i < v else v for i, v in enumerate(img, 1)]
    suffix_max = list(accumulate(reversed(lo), max))
    suffix_max.reverse()  # suffix_max[k] = max(lo[k:])
    for i in range(1, n):
        v = img[i - 1]
        hi_i = v if v > i else i
        if hi_i < suffix_max[i]:
            for j in range(i + 1, n + 1):
                if hi_i < lo[j - 1]:
                    return CrossingWitness(i, j)
    return None


def _crossing_by_image_sets(p: Permutation) -> bool:
    # For even n the first test forces the second: {1..m} fills {m+1..n}.
    img, m = p.image, p.n // 2
    return min(img[:m], default=m + 1) > m and max(img[m + 1 :], default=0) <= m + 1


def is_crossing(p: Permutation) -> tuple[bool, CrossingWitness | None]:
    """Decide crossing; when false, also return the first disjoint pair.

    O(n) time; the witness is the lexicographically first pair i < j whose
    intervals are disjoint.

    >>> is_crossing(Permutation((2, 1)))
    (True, None)
    >>> is_crossing(Permutation.identity(2))
    (False, CrossingWitness(i=1, j=2))
    """
    witness = _disjoint_pair(p)
    if (witness is None) != _crossing_by_image_sets(p):
        raise InvariantError(f"interval test and image-set test disagree on {p.image}")
    return witness is None, witness


def max_displacement(n: int) -> Fraction:
    """Largest displacement over S_n: n/2 for even n, (n-1)(n+1)/(2n) for odd.

    >>> max_displacement(4)
    Fraction(2, 1)
    >>> max_displacement(5)
    Fraction(12, 5)
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n % 2 == 0:
        return Fraction(n, 2)
    return Fraction((n - 1) * (n + 1), 2 * n)


def count_max_displacement(n: int) -> int:
    """Number of permutations of maximal displacement.

    (m!)^2 for n = 2m and (2m+1) * (m!)^2 for n = 2m + 1; both equal the
    count of crossing permutations.

    >>> count_max_displacement(3)
    3
    >>> count_max_displacement(8)
    576
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    m = n // 2
    f = math.factorial(m)
    return f * f if n % 2 == 0 else (2 * m + 1) * f * f


def improve_noncrossing(p: Permutation) -> Permutation | None:
    """Strictly increase displacement by one transposition, or return None.

    Uses the first disjoint-interval pair (i, j) and returns p composed with
    the transposition (i j) applied first, i.e. the images at positions i and
    j are swapped.  Returns None on a crossing permutation, whose
    displacement is already maximal.

    >>> improve_noncrossing(Permutation((1, 3, 2))).image
    (3, 1, 2)
    >>> improve_noncrossing(Permutation((2, 1))) is None
    True
    """
    witness = is_crossing(p)[1]
    if witness is None:
        return None
    img = list(p.image)
    img[witness.i - 1], img[witness.j - 1] = img[witness.j - 1], img[witness.i - 1]
    return Permutation(tuple(img))


def construct_prescribed(n: int, d: Fraction | int | str) -> Permutation:
    """A permutation whose normalized displacement approximates d.

    For d in [0, 1/2] let u be the least integer with 2 u^2 >= d n^2, found in
    exact integer arithmetic and clamped to n // 2.  The result swaps the blocks
    {1..u} and {u+1..2u} and fixes everything above 2u; its normalized
    displacement is exactly 2 u^2 / n^2, which differs from d by at most 2/n.

    >>> construct_prescribed(6, Fraction(1, 2)).image
    (4, 5, 6, 1, 2, 3)
    >>> construct_prescribed(5, 0).image
    (1, 2, 3, 4, 5)
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    d = Fraction(d)
    if not 0 <= d <= Fraction(1, 2):
        raise ValueError(f"target displacement {d} outside [0, 1/2]")
    t = -(-d.numerator * n * n // (2 * d.denominator))  # least integer >= d n^2 / 2
    u = min(math.isqrt(t - 1) + 1 if t else 0, n // 2)
    img = list(range(1, n + 1))
    img[:u] = range(u + 1, 2 * u + 1)
    img[u:2 * u] = range(1, u + 1)
    return Permutation(tuple(img))
