"""Exhaustive verification over small symmetric groups.

Every closed form in this package can be checked directly for small n by
walking all n! permutations (or all (n-1)! n-cycles for the cycle statistic)
and recomputing the statistic from its definition.  The reports are fully
deterministic: maximizers come back sorted in one-line lexicographic order,
so runs are comparable byte for byte.

`verify(max_n)` runs every check for n = 1..max_n and returns one `Check`
per closed form.  For each n it walks S_n once, building each word's
`Permutation` once for every check, and the n-cycles once; the walks stream,
keeping only maximizer lists and the first failing word of each check.

The walk is capped.  The default limit of 9 keeps every check under a few
seconds; 10 and 11 are allowed when requested explicitly, and anything above
11 (two hundred million permutations and up) is refused outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Any, Iterator

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


class _Top:
    """Running maximum of non-negative integer scores, with the items attaining it."""

    def __init__(self) -> None:
        self.best = -1
        self.items: list[Any] = []

    def add(self, score: int, item: Any) -> None:
        if score > self.best:
            self.best, self.items = score, [item]
        elif score == self.best:
            self.items.append(item)


def _disp_total(word: tuple[int, ...]) -> int:
    return sum(abs(i - v) for i, v in enumerate(word, 1))


def _gap_sum(word: tuple[int, ...]) -> int:
    return sum(abs(a - b) for a, b in zip(word, word[1:]))


def _gap_product(word: tuple[int, ...]) -> int:
    return math.prod(abs(a - b) for a, b in zip(word, word[1:]))


_SCORES = {
    "displacement": _disp_total,
    "additive-stretch": _gap_sum,
    "multiplicative-stretch": _gap_product,
}
STATISTICS = (*_SCORES, "cycle-stat")


def _cycle_top(n: int) -> _Top:
    # Walk all (n-1)! n-cycles as circular orders anchored at 1; score each by
    # its full jump-length product divided by its shortest jump.  Items are
    # successor tables.
    top = _Top()
    if n == 1:
        top.add(1, (1,))
        return top
    for rest in permutations(range(2, n + 1)):
        order = (1,) + rest
        succ = [0] * n
        for k in range(n):
            succ[order[k] - 1] = order[(k + 1) % n]
        jumps = [abs(i - v) for i, v in enumerate(succ, 1)]
        top.add(math.prod(jumps) // min(jumps), tuple(succ))
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
    for word in _words(n):
        top.add(score(word), word)
    return _report(n, statistic, top)


def brute_average_displacement(n: int, limit: int = 9) -> Fraction:
    """Mean displacement over all of S_n, computed by direct enumeration.

    >>> brute_average_displacement(3)
    Fraction(8, 9)
    """
    _check_n(n, limit)
    total = sum(_disp_total(word) for word in _words(n))
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
    for word in _words(n):
        p = Permutation(word)
        d = _disp_total(word)
        total += d
        disp.add(d, word)
        crossing = is_crossing(p)[0]
        if crossing != (d == disp_max):
            fail("extreme-displacement", f"crossing test disagrees with argmax at {word}")
        if n >= 2:
            g = _gap_sum(word)
            gaps.add(g, word)
            prods.add(_gap_product(word), word)
            if is_additive_maximizer(p) != (g == gap_max):
                fail("additive-stretch", f"maximizer test disagrees with argmax at {word}")
        if n <= 7 and not crossing:
            if displacement(improve_noncrossing(p)) <= displacement(p):
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


def _partition_max(n: int, s: int) -> int:
    # max product of n positive parts with sum s, by walking the partitions
    def rec(parts_left: int, total: int, low: int) -> int:
        if parts_left == 1:
            return total
        best = 0
        for first in range(low, total - parts_left + 2):
            best = max(best, first * rec(parts_left - 1, total - first, first))
        return best

    return rec(n, s, 1)


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
    for n in range(1, 7):
        for s in range(n, 37):
            value, parts = max_product_partition(n, s)
            best = _partition_max(n, s)
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
