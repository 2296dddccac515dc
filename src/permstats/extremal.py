"""Extremal displacement: crossing permutations and prescribed-displacement maps.

Attach to each index i the closed interval [i, pi(i)] (endpoints in either
order).  A permutation is *crossing* when every pair of these intervals
intersects.  The crossing permutations are exactly the permutations of maximal
displacement, and they admit a clean image-set description:

  n = 2m:      pi maps {1..m} onto {m+1..n};
  n = 2m + 1:  pi maps {1..m} into {m+1..n} and {m+2..n} into {1..m+1}.

`is_crossing` runs both the interval test and the image-set test and insists
they agree, so a bug in either one trips an assertion rather than returning a
wrong answer.

A noncrossing permutation always has two disjoint intervals, and composing
with that transposition strictly increases displacement (`improve_noncrossing`).
Conversely `construct_prescribed` builds a permutation whose normalized
displacement hits any requested value in [0, 1/2] to within 2/n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import Permutation

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
    img = p.image
    spans = [(min(i, v), max(i, v)) for i, v in enumerate(img, 1)]
    for i in range(1, p.n):
        hi_i = spans[i - 1][1]
        for j in range(i + 1, p.n + 1):
            if hi_i < spans[j - 1][0] or spans[j - 1][1] < spans[i - 1][0]:
                return CrossingWitness(i, j)
    return None


def _crossing_by_image_sets(p: Permutation) -> bool:
    n, m = p.n, p.n // 2
    if n % 2 == 0:
        return all(p(i) > m for i in range(1, m + 1))
    low = all(p(i) > m for i in range(1, m + 1))
    high = all(p(i) <= m + 1 for i in range(m + 2, n + 1))
    return low and high


def is_crossing(p: Permutation) -> tuple[bool, CrossingWitness | None]:
    """Decide crossing; when false, also return the first disjoint pair.

    >>> is_crossing(Permutation((2, 1)))
    (True, None)
    >>> is_crossing(Permutation.identity(2))
    (False, CrossingWitness(i=1, j=2))
    """
    witness = _disjoint_pair(p)
    assert (witness is None) == _crossing_by_image_sets(p), (
        f"interval test and image-set test disagree on {p.image}"
    )
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


def improve_noncrossing(p: Permutation) -> Permutation:
    """Strictly increase displacement by one transposition.

    Uses the first disjoint-interval pair (i, j) and returns p composed with
    the transposition (i j) applied first, i.e. the images at positions i and
    j are swapped.  Raises ValueError on a crossing permutation, whose
    displacement is already maximal.

    >>> improve_noncrossing(Permutation((1, 3, 2))).image
    (3, 1, 2)
    """
    crossing, witness = is_crossing(p)
    if crossing:
        raise ValueError("crossing permutation: displacement is already maximal")
    assert witness is not None
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
    for i in range(1, u + 1):
        img[i - 1] = i + u
        img[i + u - 1] = i
    return Permutation(tuple(img))
