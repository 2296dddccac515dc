"""Exact statistics of finite permutations.

A permutation of {1, ..., n} is held in one-line notation and every statistic
is returned as an exact value: `fractions.Fraction` for rational quantities,
plain `int` for integer ones.  Nothing in this module rounds.

The central quantity is the displacement

    d(pi) = (1/n) * sum_i |i - pi(i)|,

the average distance an index travels.  Companion statistics (minimum delay,
spread, dispersion) measure how well the index movement is spread out; they
are the standard figures of merit when a permutation is used to reorder a
block of symbols.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

__all__ = [
    "InvariantError",
    "Permutation",
    "displacement",
    "normalized_displacement",
    "average_displacement_exact",
    "hamming_distance",
    "reverse",
    "complement",
    "inverse",
    "transform",
    "min_delay",
    "spread",
    "dispersion",
]


class InvariantError(AssertionError):
    """A run-time self-check failed: a bug, not bad input.

    Raised explicitly, so the check survives `python -O`.
    """


@dataclass(frozen=True, order=True)
class Permutation:
    """A bijection of {1, ..., n} in one-line notation.

    ``image[k]`` is the image of ``k + 1``; all public interfaces are
    1-indexed, so ``p(i)`` is the image of ``i``.

    >>> p = Permutation((2, 4, 1, 3))
    >>> p(1), p(4)
    (2, 3)
    >>> len(p)
    4
    """

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        image = tuple(self.image)
        object.__setattr__(self, "image", image)
        n = len(image)
        if n < 1:
            raise ValueError("a permutation needs at least one element")
        if not all(issubclass(t, int) and t is not bool for t in set(map(type, image))):
            raise ValueError(f"elements must be integers (bool excluded): {image!r}")
        if sorted(image) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {image!r}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= len(self.image):
            raise ValueError(f"index {i} outside 1..{len(self.image)}")
        return self.image[i - 1]

    def __len__(self) -> int:
        return len(self.image)

    def __iter__(self) -> Iterator[int]:
        return iter(self.image)


def displacement(p: Permutation) -> Fraction:
    """Average travel distance d(pi) = (1/n) sum |i - pi(i)|.

    >>> displacement(Permutation((3, 1, 2)))
    Fraction(4, 3)
    >>> displacement(Permutation.identity(5))
    Fraction(0, 1)
    """
    return Fraction(sum(abs(i - v) for i, v in enumerate(p.image, 1)), p.n)


def normalized_displacement(p: Permutation) -> Fraction:
    """d(pi)/n, always inside [0, 1/2].

    >>> normalized_displacement(Permutation((3, 1, 2)))
    Fraction(4, 9)
    """
    return displacement(p) / p.n


def average_displacement_exact(n: int) -> Fraction:
    """Mean of d over all of S_n: (n^2 - 1) / (3n).

    >>> average_displacement_exact(3)
    Fraction(8, 9)
    >>> average_displacement_exact(1)
    Fraction(0, 1)
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return Fraction(n * n - 1, 3 * n)


def hamming_distance(p: Permutation, q: Permutation) -> Fraction:
    """Normalized Hamming distance: the fraction of points where p and q differ.

    >>> hamming_distance(Permutation((1, 2, 3)), Permutation((2, 1, 3)))
    Fraction(2, 3)
    """
    if p.n != q.n:
        raise ValueError(f"size mismatch: {p.n} vs {q.n}")
    return Fraction(sum(a != b for a, b in zip(p.image, q.image)), p.n)


def reverse(p: Permutation) -> Permutation:
    """pi'(i) = pi(n + 1 - i): read the one-line word backwards."""
    return Permutation(p.image[::-1])


def complement(p: Permutation) -> Permutation:
    """pi'(i) = n + 1 - pi(i): flip every value."""
    n = p.n
    return Permutation(tuple(n + 1 - v for v in p.image))


def inverse(p: Permutation) -> Permutation:
    """The group inverse of p."""
    img = [0] * p.n
    for i, v in enumerate(p.image, 1):
        img[v - 1] = i
    return Permutation(tuple(img))


_TRANSFORMS = {"reverse": reverse, "complement": complement, "inverse": inverse}


def transform(p: Permutation, kind: str) -> Permutation:
    """Apply one of the named symmetries: reverse, complement, or inverse.

    Reverse and complement each preserve the multiset of consecutive gaps
    |pi(i) - pi(i+1)|; inverse and the composition reverse(complement(p))
    each preserve the multiset of travel distances |i - pi(i)|.
    """
    try:
        fn = _TRANSFORMS[kind]
    except KeyError:
        raise ValueError(
            f"unknown transform {kind!r}; expected one of {sorted(_TRANSFORMS)}"
        ) from None
    return fn(p)


def min_delay(p: Permutation) -> int:
    """Smallest travel distance min_i |i - pi(i)|; zero iff p has a fixed point.

    >>> min_delay(Permutation((3, 5, 1, 4, 2)))
    0
    """
    return min(abs(i - v) for i, v in enumerate(p.image, 1))


def spread(p: Permutation) -> int:
    """min over i < j of |i - j| + |pi(i) - pi(j)|; needs n >= 2.

    A large spread keeps indices that start close from landing close.  The
    scan takes each offset d = j - i in turn, in numpy, and stops at the
    first d at or above the best value so far: every pair at offset d scores
    at least d + 1.

    >>> spread(Permutation((2, 4, 1, 3)))
    3
    """
    if p.n < 2:
        raise ValueError("spread is undefined for n < 2")
    img = np.array(p.image, dtype=np.int64)
    best, d = p.n, 1  # offset 1 alone scores at most 1 + (n - 1)
    while d < best:
        best = min(best, d + int(np.abs(img[d:] - img[:-d]).min()))
        d += 1
    return best


def dispersion(p: Permutation) -> Fraction:
    """Fraction of distinct difference pairs (i - j, pi(i) - pi(j)) over i < j.

    Lies in (0, 1]; the identity on 3 points scores 2/3.  Pairs at different
    offsets d = j - i are distinct, so the count sums, over each d, the
    distinct values of pi(i) - pi(i + d): Theta(n^2) work in numpy, O(n) memory.

    >>> dispersion(Permutation((2, 4, 1, 3)))
    Fraction(2, 3)
    """
    if p.n < 2:
        raise ValueError("dispersion is undefined for n < 2")
    n, img = p.n, np.array(p.image, dtype=np.int64)
    distinct = sum(
        int(np.count_nonzero(np.bincount(img[:-d] - img[d:] + n))) for d in range(1, n)
    )
    return Fraction(distinct, n * (n - 1) // 2)
