"""Gap products through the lens of a single n-cycle.

Reading the one-line word of a permutation cyclically (pi(1), ..., pi(n),
back to pi(1)) defines a successor map rho on {1..n} that is a single
n-cycle; conversely unrolling a cycle from a designated start recovers the
word.  Each consecutive gap |pi(i) - pi(i+1)| becomes the length of the
*jump* pi(i) -> rho(pi(i)), and the wrap-around jump pi(n) -> pi(1) is the
one the word does not use.  The cycle statistic

    s(rho) = max over jumps j of  prod_{k != j} |k - rho(k)|

is therefore the best gap product over all words unrolling rho, and equals
the full product divided by the shortest jump length.

`two_opt` is the 2-opt move of tour improvement (Croes 1958; Lin &
Kernighan 1973): cut jumps a -> rho(a) and b -> rho(b), reconnect as a -> b
and rho(a) -> rho(b), reversing the segment in between.  The result is again
a single n-cycle and its jump-length multiset swaps
{|a - rho(a)|, |b - rho(b)|} for {|a - b|, |rho(a) - rho(b)|}.

`find_improvement` applies one such rewiring whenever the jump pattern
matches one of the local configurations that provably increase s(rho):

  (i)   two disjoint jumps in the same direction;
  (ii)  a shortest jump crossing an opposite-direction jump part-way;
  (iii) a shortest jump disjoint from an opposite-direction jump;
  (iv)  two disjoint jumps in opposite directions, neither shortest: this
        configuration always contains a witness for (i)/(ii)/(iii) built from
        a shortest jump, so the exhaustive scan already covers it and no
        separate rewiring exists for it;
  (v)   a jump bridging a longer-than-minimal jump in the opposite direction.

The rules are exclusive: a pair's direction and relation admit at most one
of (i), (ii), (iii) and (v).  So one pass over the jump pairs classifies
each pair once, and the chosen pair is the first pair of the lowest-numbered
rule that matches.  Absence of a match does not certify maximality; the
guarantee is only that every returned cycle has a strictly larger
statistic.  One step of `find_improvement` costs O(n^2).  Its test oracle,
`reference_find_improvement` in tests/test_cycles.py, scans for each rule in
turn with a jump classifier of its own and must pick the same rewiring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .core import InvariantError, Permutation
from .stretch import ProductValue

__all__ = [
    "CycleWithStart",
    "perm_to_cycle",
    "cycle_to_perm",
    "best_unrolling",
    "cycle_stat",
    "two_opt",
    "find_improvement",
]


@dataclass(frozen=True)
class CycleWithStart:
    """A single n-cycle rho on {1..n} with a designated starting element.

    ``successor[k]`` is rho(k + 1).  Construction validates that rho really
    is one n-cycle, so every instance is structurally sound.
    """

    n: int
    successor: tuple[int, ...]
    start: int

    def __post_init__(self) -> None:
        successor = tuple(self.successor)
        object.__setattr__(self, "successor", successor)
        if self.n < 1 or len(successor) != self.n:
            raise ValueError(f"successor table must have length n = {self.n}")
        if sorted(successor) != list(range(1, self.n + 1)):
            raise ValueError(f"successor table is not a bijection: {successor!r}")
        if not 1 <= self.start <= self.n:
            raise ValueError(f"start {self.start} outside 1..{self.n}")
        seen = 1
        k = successor[0]
        while k != 1:
            seen += 1
            k = successor[k - 1]
        if seen != self.n:
            raise ValueError("successor map is not a single n-cycle")

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, int], start: int) -> "CycleWithStart":
        n = len(mapping)
        return cls(n, tuple(mapping[i] for i in range(1, n + 1)), start)

    def successor_of(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"element {i} outside 1..{self.n}")
        return self.successor[i - 1]

    def jump_lengths(self) -> tuple[int, ...]:
        """|k - rho(k)| for k = 1..n; all positive once n >= 2."""
        return tuple(abs(i - v) for i, v in enumerate(self.successor, 1))


def perm_to_cycle(p: Permutation) -> CycleWithStart:
    """The successor cycle of the word: rho(pi(i)) = pi(i+1), wrapping at n.

    >>> perm_to_cycle(Permutation((2, 4, 1, 3))).successor
    (3, 4, 2, 1)
    """
    img = p.image
    succ = [0] * p.n
    for k in range(p.n):
        succ[img[k] - 1] = img[(k + 1) % p.n]
    return CycleWithStart(p.n, tuple(succ), img[0])


def cycle_to_perm(c: CycleWithStart) -> Permutation:
    """Unroll the cycle from its start back into a one-line word.

    Inverse to perm_to_cycle: the designated start becomes pi(1).
    """
    img = [c.start]
    for _ in range(c.n - 1):
        img.append(c.successor_of(img[-1]))
    return Permutation(tuple(img))


def best_unrolling(c: CycleWithStart) -> Permutation:
    """A word whose gap product attains cycle_stat(c).

    Starts just past a shortest jump (the first one, for determinism), so the
    one jump the word skips is the cheapest.
    """
    lengths = c.jump_lengths()
    k = lengths.index(min(lengths)) + 1
    return cycle_to_perm(CycleWithStart(c.n, c.successor, c.successor_of(k)))


def cycle_stat(c: CycleWithStart) -> ProductValue:
    """Best gap product over all words unrolling the cycle.

    Equals the product of all n jump lengths divided by the shortest one
    (drop the cheapest jump).  A 1-cycle has the empty product 1.

    >>> cycle_stat(CycleWithStart.from_mapping({1: 2, 2: 3, 3: 1}, 1))
    ProductValue(2, root=2)
    """
    if c.n == 1:
        return ProductValue(1, 1)
    lengths = c.jump_lengths()
    full = 1
    for ln in lengths:
        full *= ln
    return ProductValue(full // min(lengths), c.n - 1)


def two_opt(c: CycleWithStart, a: int, b: int) -> CycleWithStart:
    """Rewire jumps a -> rho(a) and b -> rho(b) into a -> b and rho(a) -> rho(b).

    The segment that used to run rho(a) ... b is traversed in reverse, so the
    result is again a single n-cycle.  Requires the four endpoints a, rho(a),
    b, rho(b) to be pairwise distinct.

    >>> c = CycleWithStart.from_mapping({1: 2, 2: 3, 3: 4, 4: 1}, 1)
    >>> two_opt(c, 1, 3).successor
    (3, 4, 2, 1)
    """
    ra, rb = c.successor_of(a), c.successor_of(b)
    if len({a, ra, b, rb}) != 4:
        raise ValueError(
            f"jumps from {a} and {b} share an endpoint; rewiring needs 4 distinct"
        )
    segment = [ra]
    while segment[-1] != b:
        segment.append(c.successor_of(segment[-1]))
    succ = list(c.successor)
    succ[a - 1] = b
    for x, y in zip(segment, segment[1:]):
        succ[y - 1] = x
    succ[ra - 1] = rb
    return CycleWithStart(c.n, tuple(succ), c.start)


def find_improvement(c: CycleWithStart) -> CycleWithStart | None:
    """One rewiring that strictly increases cycle_stat, if a pattern matches.

    Jump pairs (a, b) with a < b and four distinct endpoints are walked once
    in lexicographic order.  Rules (i), (ii), (iii) and (v) of the module
    docstring are exclusive, so each pair is classified once, by its
    direction and relation, into at most one of them.  The chosen pair is
    the first pair of the lowest-numbered rule that matches, and the walk
    stops at the first (i).  That pair is rewired with two_opt(c, a, b).
    Returns None when nothing matches; that does not certify the statistic
    is maximal.

    A step costs O(n^2): spans, directions and the shortest jump length are
    computed once per call, and each pair is classified in O(1).  The O(n^3)
    version, which scans for each rule in turn and classifies pairs with a
    classifier of its own, is kept as `reference_find_improvement` in
    tests/test_cycles.py, and each step returns the same cycle as it does.
    """
    n = c.n
    if n < 4:
        return None
    succ = (0, *c.successor)  # succ[k] = rho(k) for k = 1..n
    lo = [min(k, s) for k, s in enumerate(succ)]
    hi = [max(k, s) for k, s in enumerate(succ)]
    up = [s > k for k, s in enumerate(succ)]
    length = [h - low for low, h in zip(lo, hi)]
    shortest = min(length[1:])
    short = [ln == shortest for ln in length]

    # With a < b, lo[a] <= a < b <= hi[b], so the spans are disjoint exactly
    # when hi[a] < lo[b].  With four distinct endpoints two spans that meet
    # either nest strictly (the outer jump bridges the inner one) or overlap
    # part-way.  The rule numbers double as priorities; 6 means no rule.
    move, best = None, 6
    for a in range(1, n + 1):
        ra, lo_a, hi_a, up_a, short_a = succ[a], lo[a], hi[a], up[a], short[a]
        for b in range(a + 1, n + 1):
            if b == ra or succ[b] == a:
                continue
            lo_b, hi_b = lo[b], hi[b]
            if up_a == up[b]:
                # (i) disjoint, same direction: both new jumps are strictly longer.
                rule = 1 if hi_a < lo_b else 6
            elif hi_a < lo_b:
                # (iii) a short jump disjoint from an opposite jump: the
                # argument of (ii) below.
                rule = 3 if short_a or short[b] else 6
            elif lo_a < lo_b and hi_b < hi_a:
                # (v) a jump bridging a longer-than-minimal opposite jump: the
                # lost lengths y and x+y+z return as x+y and y+z, and
                # (x+y)(y+z) > y(x+y+z).
                rule = 6 if short[b] else 5
            elif lo_b < lo_a and hi_a < hi_b:
                rule = 6 if short_a else 5
            else:
                # (ii) a short jump meeting an opposite jump part-way: one of
                # the two new jumps outgrows the replaced long one, in all
                # four orientations.
                rule = 2 if short_a or short[b] else 6
            if rule < best:
                move, best = (a, b), rule
                if rule == 1:
                    break
        if best == 1:
            break
    if move is None:
        return None
    a, b = move
    improved = two_opt(c, a, b)
    if not cycle_stat(improved) > cycle_stat(c):
        raise InvariantError(f"rewiring ({a}, {b}) failed to improve {c.successor}")
    return improved
