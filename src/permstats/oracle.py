"""Exhaustive verification over small symmetric groups.

Every closed form in this package can be checked directly for small n by
walking all n! permutations (or all (n-1)! n-cycles for the cycle statistic)
and recomputing the statistic from its definition.  The reports are fully
deterministic: maximizers come back sorted in one-line lexicographic order,
so runs are comparable byte for byte.

`verify(max_n)` runs every check for n = 1..max_n and returns one `Check`
per closed form.  For each n it walks S_n once and the n-cycles once; the
walks stream, keeping only maximizer lists and the first failing word of
each check.

The walks go in blocks of `_BLOCK` words.  Each block is an int64
array with one word per row, and numpy scores all its rows at once:
displacement totals, gap sums and gap products for words, jump products over
the shortest jump for cycles.  The scores stay exact: `_check_n` caps n at
11, and a product of at most 11 factors below 11 fits int64.  The
library predicates under test (`is_crossing`, `is_additive_maximizer` and,
for n <= 7, `improve_noncrossing`) still run word by word on each word's
`Permutation`, and their verdicts are compared with the block's scores.  The
balanced-partition check compares `max_product_partition` with a table of
best products built by dynamic programming.

The walk is capped.  The default limit of 9 keeps every check under a few
seconds; 10 and 11 are allowed when requested explicitly, and anything above
11 (two hundred million permutations and up) is refused outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, permutations
from typing import Any, Iterator

import numpy as np

from .core import Permutation, average_displacement_exact, displacement
from .extremal import (
    count_max_displacement, improve_noncrossing, is_crossing, max_displacement,
)
from .stretch import (
    ProductValue, is_additive_maximizer, max_additive_stretch,
    max_multiplicative_stretch, max_product_partition, multiplicative_maximizers,
)

__all__ = [
    "HARD_CAP", "STATISTICS", "ArgmaxReport", "Check",
    "brute_argmax", "brute_average_displacement", "verify",
]

HARD_CAP = 11
# Words per block of the walk (n <= 5 is one block).  Larger blocks make
# verify(8) at most 1% faster and raise its peak RSS (720 words: +0.25 MB).
_BLOCK = 120


@dataclass(frozen=True)
class ArgmaxReport:
    """Maximum of a statistic over S_n together with every maximizer."""

    n: int
    statistic: str
    max_value: Fraction | ProductValue
    maximizers: tuple[Permutation, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "maximizers", tuple(self.maximizers))

    @property
    def count(self) -> int:
        return len(self.maximizers)


@dataclass(frozen=True)
class Check:
    """A closed form checked by `verify`: detail is the n checked, or the first failure."""

    name: str
    ok: bool
    detail: str


def _check_n(n: int, limit: int) -> None:
    cap = min(limit, HARD_CAP)
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n > cap:
        hint = "; pass limit explicitly for 10 or 11" if n <= HARD_CAP else ""
        raise ValueError(
            f"n = {n} exceeds the enumeration limit {cap} (hard cap {HARD_CAP}){hint}"
        )


def _words(n: int) -> Iterator[tuple[int, ...]]:
    # The one walk of S_n: one-line words, streamed in lexicographic order.
    return permutations(range(1, n + 1))


def _blocks(
    words: Iterator[tuple[int, ...]],
) -> Iterator[tuple[list[tuple[int, ...]], np.ndarray]]:
    # The walk in blocks of at most _BLOCK words, each with its words as the
    # rows of an int64 array (int8 loads numpy loops nothing else runs: +0.25 MB).
    while block := list(islice(words, _BLOCK)):
        yield block, np.array(block, dtype=np.int64)


def _disp_totals(words: np.ndarray) -> np.ndarray:
    positions = np.arange(1, words.shape[1] + 1, dtype=np.int64)
    return np.abs(words - positions).sum(axis=1)


def _gap_sums(words: np.ndarray) -> np.ndarray:
    return np.abs(np.diff(words, axis=1)).sum(axis=1)


def _gap_products(words: np.ndarray) -> np.ndarray:
    return np.abs(np.diff(words, axis=1)).prod(axis=1)


class _Top:
    """Running maximum of non-negative integer scores, with the items attaining it."""

    def __init__(self) -> None:
        self.best = -1
        self.items: list[Any] = []

    def add(self, scores: np.ndarray, items: list[Any]) -> None:
        # scores[k] belongs to items[k]; ties keep the order of the walk
        best = int(scores.max())
        if best >= self.best:
            hits = [items[k] for k in np.flatnonzero(scores == best)]
            if best > self.best:
                self.best, self.items = best, hits
            else:
                self.items += hits


_SCORES = {
    "displacement": _disp_totals,
    "additive-stretch": _gap_sums,
    "multiplicative-stretch": _gap_products,
}
STATISTICS = (*_SCORES, "cycle-stat")


def _cycle_top(n: int) -> _Top:
    # Walk all (n-1)! n-cycles as circular orders (1, *rest); score each by
    # its full jump-length product divided by its shortest jump.  The jumps
    # are the cyclic gaps of the order.  Items are successor tables.
    top = _Top()
    if n == 1:
        top.best, top.items = 1, [(1,)]
        return top
    for block, rest in _blocks(permutations(range(2, n + 1))):
        order = np.hstack((np.ones((len(block), 1), dtype=np.int64), rest))
        jumps = np.abs(order - np.roll(order, -1, axis=1))
        top.add(jumps.prod(axis=1) // jumps.min(axis=1), block)
    tables = []
    for rest in top.items:
        order = (1, *rest)
        succ = [0] * n
        for a, b in zip(order, order[1:] + order[:1]):
            succ[a - 1] = b
        tables.append(tuple(succ))
    top.items = tables
    return top


def _report(n: int, statistic: str, top: _Top) -> ArgmaxReport:
    max_value: Fraction | ProductValue
    if statistic == "displacement":
        max_value = Fraction(top.best, n)
    elif statistic == "additive-stretch":
        max_value = Fraction(top.best, n - 1)
    else:
        max_value = ProductValue(Fraction(top.best), max(n - 1, 1))
    maximizers = tuple(Permutation(w) for w in sorted(top.items))
    return ArgmaxReport(n=n, statistic=statistic, max_value=max_value, maximizers=maximizers)


def brute_argmax(n: int, statistic: str, limit: int = 9) -> ArgmaxReport:
    """Maximize one of the named statistics by exhaustive enumeration.

    statistic is one of "displacement", "additive-stretch",
    "multiplicative-stretch" (all over S_n) or "cycle-stat" (over all
    n-cycles, reported as successor tables).  Stretch statistics need n >= 2.
    """
    _check_n(n, limit)
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}; expected one of {STATISTICS}")
    if statistic in ("additive-stretch", "multiplicative-stretch") and n < 2:
        raise ValueError(f"{statistic} needs n >= 2, got {n}")
    if statistic == "cycle-stat":
        return _report(n, statistic, _cycle_top(n))
    score = _SCORES[statistic]
    top = _Top()
    for block, words in _blocks(_words(n)):
        top.add(score(words), block)
    return _report(n, statistic, top)


def brute_average_displacement(n: int, limit: int = 9) -> Fraction:
    """Mean displacement over all of S_n, computed by direct enumeration.

    >>> brute_average_displacement(3)
    Fraction(8, 9)
    """
    _check_n(n, limit)
    total = sum(int(_disp_totals(words).sum()) for _, words in _blocks(_words(n)))
    return Fraction(total, math.factorial(n) * n)


def _failures(n: int) -> Iterator[tuple[str, str]]:
    # Every failure at n as (check name, detail), a check's max failures before
    # its word failures.  The walk is lexicographic, so a word failure names the
    # first failing word.  Once a max check passes, "word in argmax" is "its
    # score equals the closed-form maximum", which the walk tests word by word.
    disp_max = max_displacement(n) * n
    gap_max = max_additive_stretch(n) * (n - 1) if n >= 2 else None
    total, disp, gaps, prods = 0, _Top(), _Top(), _Top()
    bad: dict[str, str] = {}
    fail = bad.setdefault  # keeps the first failing word of each check
    for block, words in _blocks(_words(n)):
        d, g = _disp_totals(words), _gap_sums(words)
        total += int(d.sum())
        disp.add(d, block)
        gaps.add(g, block)
        prods.add(_gap_products(words), block)
        for word, d_word, g_word in zip(block, d.tolist(), g.tolist()):
            p = Permutation(word)
            crossing = is_crossing(p)[0]
            if crossing != (d_word == disp_max):
                fail("extreme-displacement", f"crossing test disagrees with argmax at {word}")
            if n >= 2 and is_additive_maximizer(p) != (g_word == gap_max):
                fail("additive-stretch", f"maximizer test disagrees with argmax at {word}")
            if n <= 7:
                better = improve_noncrossing(p)
                if (better is None) != crossing:
                    fail("noncrossing-improvement",
                         f"improver disagrees with crossing test at {word}")
                elif better is not None and displacement(better) <= displacement(p):
                    fail("noncrossing-improvement", f"no strict increase at {word}")

    got, want = Fraction(total, math.factorial(n) * n), average_displacement_exact(n)
    if got != want:
        yield "average-displacement", f"n={n}: enumerated {got}, closed form {want}"
    report, closed = _report(n, "displacement", disp), max_displacement(n)
    if report.max_value != closed:
        yield "extreme-displacement", f"n={n}: max {report.max_value} != {closed}"
    if report.count != (count := count_max_displacement(n)):
        yield "extreme-displacement", f"n={n}: count {report.count} != {count}"
    if n >= 2:
        report, closed = _report(n, "additive-stretch", gaps), max_additive_stretch(n)
        if report.max_value != closed:
            yield "additive-stretch", f"n={n}: max {report.max_value} != {closed}"
        words = _report(n, "multiplicative-stretch", prods)
        best, product = words.max_value, max_multiplicative_stretch(n)
        if best != product:
            yield "multiplicative-stretch", f"n={n}: max {best!r} != {product!r}"
        if list(words.maximizers) != multiplicative_maximizers(n):
            yield "multiplicative-stretch", f"n={n}: maximizer list mismatch"
        cycles = _report(n, "cycle-stat", _cycle_top(n)).max_value
        if best != cycles:
            yield "cycle-correspondence", f"n={n}: word max {best!r} != cycle max {cycles!r}"
    for name, what in bad.items():
        yield name, f"n={n}: {what}"


def _partition_table(parts: int, total: int) -> list[list[int]]:
    # best[k][s]: max product of k positive parts with sum s (0 where s < k),
    # from best[k][s] = max over first part f of f * best[k-1][s-f]
    best = [[1] + [0] * total]
    for k in range(1, parts + 1):
        prev = best[-1]
        best.append([0] * k + [max(f * prev[s - f] for f in range(1, s - k + 2))
                               for s in range(k, total + 1)])
    return best


def verify(max_n: int) -> list[Check]:
    """Check every closed form against exhaustive enumeration for n = 1..max_n.

    Returns one Check per closed form, always in the same order.  max_n must
    lie in 1..HARD_CAP; anything else raises ValueError.
    """
    _check_n(max_n, HARD_CAP)
    first: dict[str, str] = {}
    for n in range(1, max_n + 1):
        for name, detail in _failures(n):
            first.setdefault(name, detail)
    table = _partition_table(6, 36)
    for n in range(1, 7):
        for s in range(n, 37):
            value, parts = max_product_partition(n, s)
            best = table[n][s]
            if value != best or sum(parts) != s or len(parts) != n:
                detail = f"n={n}, s={s}: {value} vs enumerated {best}"
                first.setdefault("balanced-partition", detail)
    checked = {
        "average-displacement": f"n=1..{max_n}",
        "extreme-displacement": f"n=1..{max_n}",
        "additive-stretch": f"n=2..{max_n}",
        "multiplicative-stretch": f"n=2..{max_n}",
        "cycle-correspondence": f"n=2..{max_n}",
        "balanced-partition": "n=1..6, s=n..36",
        "noncrossing-improvement": f"n=1..{min(max_n, 7)}",
    }
    return [Check(name, name not in first, first.get(name, span))
            for name, span in checked.items()]
