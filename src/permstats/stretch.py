"""Additive and multiplicative stretch of a permutation over a family of sets.

For a set A of indices with at least two elements, the stretch factor of A is
diam(pi(A)) / diam(A), where diam is max minus min.  Over a family of such
sets the *additive stretch* is the arithmetic mean of the factors and the
*multiplicative stretch* is their geometric mean.

The workhorse family is the consecutive pairs B = {{i, i+1} : 1 <= i < n},
where every diameter in the denominator is 1: the additive stretch becomes
the mean consecutive gap of the one-line word, and the multiplicative stretch
the geometric mean of those gaps.  Both maxima have closed forms, and the
maximizers themselves are constructed explicitly (`multiplicative_maximizers`)
or characterized by a linear-time predicate (`is_additive_maximizer`).  The
multiplicative maximizers are the mirror images (reverse, complement, both)
of one base word that alternates low and high values: two words for even n,
where reverse and complement coincide, and four for odd n.

Geometric means are never evaluated in floating point: a `ProductValue` keeps
the exact product together with the root exponent, and comparisons
cross-power instead of taking roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .core import InvariantError, Permutation, complement, reverse

__all__ = [
    "IntervalFamily",
    "ProductValue",
    "consecutive_pairs",
    "stretch_additive",
    "stretch_multiplicative",
    "max_additive_stretch",
    "is_additive_maximizer",
    "max_product_partition",
    "max_multiplicative_stretch",
    "multiplicative_maximizers",
]


@dataclass(frozen=True)
class IntervalFamily:
    """A nonempty family of index sets over {1..n}, each of size >= 2."""

    n: int
    sets: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        sets = tuple(frozenset(s) for s in self.sets)
        object.__setattr__(self, "sets", sets)
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if not sets:
            raise ValueError("family must be nonempty")
        for s in sets:
            if len(s) < 2:
                raise ValueError(f"family member {set(s)} has fewer than 2 elements")
            if not all(1 <= a <= self.n for a in s):
                raise ValueError(f"family member {set(s)} escapes 1..{self.n}")

    def __len__(self) -> int:
        return len(self.sets)


def consecutive_pairs(n: int) -> IntervalFamily:
    """The family {{i, i+1} : 1 <= i < n}; needs n >= 2."""
    if n < 2:
        raise ValueError("consecutive pairs need n >= 2")
    return IntervalFamily(n, tuple(frozenset((i, i + 1)) for i in range(1, n)))


@dataclass(frozen=True, eq=False)
class ProductValue:
    """An exact root of a rational: represents product ** (1/root).

    Comparisons never leave exact arithmetic: equal roots compare the
    products directly, different roots cross-power.  For gap products over
    consecutive pairs the product is a positive integer.
    """

    product: Fraction
    root: int

    def __post_init__(self) -> None:
        product = Fraction(self.product)
        object.__setattr__(self, "product", product)
        if product <= 0:
            raise ValueError(f"product must be positive, got {product}")
        if not isinstance(self.root, int) or self.root < 1:
            raise ValueError(f"root must be a positive integer, got {self.root!r}")

    def _cross(self, other: "ProductValue") -> tuple[Fraction, Fraction]:
        if self.root == other.root:
            return self.product, other.product
        return self.product ** other.root, other.product ** self.root

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProductValue):
            return NotImplemented
        a, b = self._cross(other)
        return a == b

    def __lt__(self, other: "ProductValue") -> bool:
        a, b = self._cross(other)
        return a < b

    def __le__(self, other: "ProductValue") -> bool:
        a, b = self._cross(other)
        return a <= b

    def __gt__(self, other: "ProductValue") -> bool:
        return not self <= other

    def __ge__(self, other: "ProductValue") -> bool:
        return not self < other

    def __float__(self) -> float:
        # log-domain so huge products do not overflow
        log = math.log(self.product.numerator) - math.log(self.product.denominator)
        return math.exp(log / self.root)

    def __repr__(self) -> str:
        return f"ProductValue({self.product}, root={self.root})"


def _image_diam(p: Permutation, s: frozenset[int]) -> int:
    vals = [p(a) for a in s]
    return max(vals) - min(vals)


def _check_sizes(family: IntervalFamily, p: Permutation) -> None:
    if family.n != p.n:
        raise ValueError(f"family over 1..{family.n} but permutation of 1..{p.n}")


def stretch_additive(family: IntervalFamily, p: Permutation) -> Fraction:
    """Mean stretch factor over the family.

    >>> stretch_additive(consecutive_pairs(4), Permutation((2, 4, 1, 3)))
    Fraction(7, 3)
    """
    _check_sizes(family, p)
    total = sum(
        Fraction(_image_diam(p, s), max(s) - min(s)) for s in family.sets
    )
    return total / len(family.sets)


def stretch_multiplicative(family: IntervalFamily, p: Permutation) -> ProductValue:
    """Geometric mean of the stretch factors, kept as an exact root.

    >>> stretch_multiplicative(consecutive_pairs(4), Permutation((2, 4, 1, 3)))
    ProductValue(12, root=3)
    """
    _check_sizes(family, p)
    product = reduce(
        lambda acc, s: acc * Fraction(_image_diam(p, s), max(s) - min(s)),
        family.sets,
        Fraction(1),
    )
    return ProductValue(product, len(family.sets))


def max_additive_stretch(n: int) -> Fraction:
    """Largest mean consecutive gap over S_n.

    (2m^2 - 1)/(2m - 1) for n = 2m and (2m^2 + 2m - 1)/(2m) for n = 2m + 1.

    >>> max_additive_stretch(4)
    Fraction(7, 3)
    >>> max_additive_stretch(5)
    Fraction(11, 4)
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    m = n // 2
    if n % 2 == 0:
        return Fraction(2 * m * m - 1, 2 * m - 1)
    return Fraction(2 * m * m + 2 * m - 1, 2 * m)


def _oscillates(p: Permutation, low_size: int) -> bool:
    # Consecutive images must straddle the cut {1..low_size} | {low_size+1..n}.
    img = p.image
    return all((img[k] <= low_size) != (img[k + 1] <= low_size) for k in range(p.n - 1))


def is_additive_maximizer(p: Permutation) -> bool:
    """Whether p attains max_additive_stretch(p.n).

    The maximizers are exactly the permutations oscillating across a middle
    cut with the two central values at the ends:

      n = 2m:      oscillate across {1..m} | {m+1..n}, ends {pi(1), pi(n)} = {m, m+1};
      n = 2m + 1:  either oscillate across {1..m} | {m+1..n} with ends
                   {m+1, m+2}, or across {1..m+1} | {m+2..n} with ends {m, m+1}.

    >>> is_additive_maximizer(Permutation((3, 5, 1, 4, 2)))
    True
    >>> is_additive_maximizer(Permutation((2, 4, 1, 3)))
    True
    """
    n = p.n
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    m = n // 2
    ends = (p(1), p(n))
    if n % 2 == 0:
        return _oscillates(p, m) and ends in ((m, m + 1), (m + 1, m))
    return (
        _oscillates(p, m) and ends in ((m + 1, m + 2), (m + 2, m + 1))
    ) or (
        _oscillates(p, m + 1) and ends in ((m, m + 1), (m + 1, m))
    )


def max_product_partition(n: int, s: int) -> tuple[int, tuple[int, ...]]:
    """Largest product of n positive integers with sum s, with its parts.

    The optimum is balanced: with a = s/n it uses floor(a) and ceil(a) only,
    m = n*ceil(a) - s copies of the floor.  Returns (value, parts) with parts
    sorted ascending.

    >>> max_product_partition(3, 7)
    (12, (2, 2, 3))
    >>> max_product_partition(2, 5)
    (6, (2, 3))
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if s < n:
        raise ValueError(f"sum {s} cannot be split into {n} positive parts")
    lo, hi = s // n, -(-s // n)
    m = n * hi - s
    value = lo**m * hi ** (n - m)
    return value, (lo,) * m + (hi,) * (n - m)


def max_multiplicative_stretch(n: int) -> ProductValue:
    """Largest gap product over S_n, as an exact (n-1)-th root.

    The product is m^m (m+1)^(m-1) for n = 2m and m^m (m+1) (m+2)^(m-1)
    for n = 2m + 1.

    >>> max_multiplicative_stretch(4)
    ProductValue(12, root=3)
    >>> max_multiplicative_stretch(5)
    ProductValue(48, root=4)
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    m = n // 2
    if n % 2 == 0:
        product = m**m * (m + 1) ** (m - 1)
    else:
        product = m**m * (m + 1) * (m + 2) ** (m - 1)
    return ProductValue(Fraction(product), n - 1)


def _base_word(n: int) -> Permutation:
    # Low values at the odd positions, high values at the even ones.  For odd
    # n each half steps down by 2 from its top, then climbs back up through
    # the other parity, so the word runs m+1 ... m.
    m = n // 2
    if n % 2 == 0:
        low, high = range(m, 0, -1), range(n, m, -1)
    else:
        low = [*range(m + 1, 0, -2), *range(2 - m % 2, m + 1, 2)]
        high = [*range(n, m + 1, -2), *range(m + 2 + m % 2, n, 2)]
    word = [0] * n
    word[0::2], word[1::2] = low, high
    return Permutation(tuple(word))


def multiplicative_maximizers(n: int) -> list[Permutation]:
    """All permutations attaining max_multiplicative_stretch(n), sorted.

    Both parities give the mirror orbit (reverse, complement, both) of one
    explicit base word: two words for even n, where reverse and complement
    coincide, and four for odd n >= 3.

    >>> [p.image for p in multiplicative_maximizers(4)]
    [(2, 4, 1, 3), (3, 1, 4, 2)]
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    base = _base_word(n)
    perms = {base, reverse(base), complement(base), reverse(complement(base))}
    expected = 2 if n % 2 == 0 else 4
    if len(perms) != expected:
        raise InvariantError(f"expected {expected} distinct maximizers for n={n}")
    return sorted(perms)
