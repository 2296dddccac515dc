"""Cycle view of gap products: round trips, rewiring, guided improvement."""

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Literal

import pytest

import permstats.cycles
from permstats.core import Permutation
from permstats.cycles import (
    CycleWithStart,
    best_unrolling,
    cycle_stat,
    cycle_to_perm,
    find_improvement,
    perm_to_cycle,
    two_opt,
)
from permstats.stretch import (
    ProductValue,
    consecutive_pairs,
    max_multiplicative_stretch,
    multiplicative_maximizers,
    stretch_multiplicative,
)


def perms(n):
    return (Permutation(w) for w in permutations(range(1, n + 1)))


def all_cycles(n):
    """Every single n-cycle, via circular orders anchored at 1."""
    for rest in permutations(range(2, n + 1)):
        order = (1,) + rest
        mapping = {order[k]: order[(k + 1) % n] for k in range(n)}
        yield CycleWithStart.from_mapping(mapping, 1)


def random_cycle(rng, n):
    word = list(range(1, n + 1))
    rng.shuffle(word)
    return perm_to_cycle(Permutation(tuple(word)))


def gap_product(p):
    out = 1
    for k in range(p.n - 1):
        out *= abs(p.image[k + 1] - p.image[k])
    return out


# The jump classifier behind reference_find_improvement.  The library scan
# shares none of it, so the two decide each rule independently.

JumpRelation = Literal[
    "shared-endpoint", "disjoint", "skips", "bridges", "nontrivial-intersection"
]


def _span(a: int, ra: int) -> tuple[int, int]:
    return (a, ra) if a < ra else (ra, a)


@dataclass(frozen=True)
class JumpClass:
    """How the closed intervals of two jumps sit relative to each other.

    relation is one of:
      shared-endpoint          fewer than 4 distinct endpoints, no containment
      skips                    one interval contains the other, an endpoint shared
      disjoint                 the intervals do not meet
      bridges                  one interval contains the other, endpoints distinct
      nontrivial-intersection  the intervals overlap part-way, endpoints distinct

    (Every jump also skips over itself, but a pair must be two distinct
    jumps, so the reflexive case never reaches this classifier.)  direction
    is "same" when both jumps move the same way, "opposite" otherwise.  A
    jump is short when its length is minimal over the whole cycle.
    """

    relation: JumpRelation
    direction: Literal["same", "opposite"]
    first_short: bool
    second_short: bool


def _relation(lo1: int, hi1: int, lo2: int, hi2: int, distinct: bool) -> JumpRelation:
    """The JumpClass relation of jump spans [lo1, hi1] and [lo2, hi2].

    distinct says whether the two jumps have four distinct endpoints.
    """
    contained = (lo1 <= lo2 and hi2 <= hi1) or (lo2 <= lo1 and hi1 <= hi2)
    if not distinct:
        return "skips" if contained else "shared-endpoint"
    if hi1 < lo2 or hi2 < lo1:
        return "disjoint"
    return "bridges" if contained else "nontrivial-intersection"


def classify_jumps(c: CycleWithStart, a: int, b: int) -> JumpClass:
    """Classify the jump pair (a -> rho(a), b -> rho(b)); requires a != b."""
    if a == b:
        raise ValueError("classification needs two distinct jumps")
    ra, rb = c.successor_of(a), c.successor_of(b)
    relation = _relation(*_span(a, ra), *_span(b, rb), len({a, ra, b, rb}) == 4)
    direction: Literal["same", "opposite"] = (
        "same" if (ra - a) * (rb - b) > 0 else "opposite"
    )
    shortest = min(c.jump_lengths())
    return JumpClass(
        relation=relation,
        direction=direction,
        first_short=abs(ra - a) == shortest,
        second_short=abs(rb - b) == shortest,
    )


def matching_rules(c, a, b):
    """The rules among (i), (ii), (iii), (v) that classify_jumps says (a, b) matches."""
    k = classify_jumps(c, a, b)
    opposite = k.direction == "opposite"
    either_short = k.first_short or k.second_short
    lo_a, hi_a = _span(a, c.successor_of(a))
    lo_b, hi_b = _span(b, c.successor_of(b))
    inner_short = k.second_short if lo_a <= lo_b and hi_b <= hi_a else k.first_short
    matches = {
        "i": k.relation == "disjoint" and not opposite,
        "ii": k.relation == "nontrivial-intersection" and opposite and either_short,
        "iii": k.relation == "disjoint" and opposite and either_short,
        "v": k.relation == "bridges" and opposite and not inner_short,
    }
    return [rule for rule, hit in matches.items() if hit]


def reference_find_improvement(c):
    """The O(n^3) find_improvement, built on classify_jumps.

    Oracle for the O(n^2) scan in permstats.cycles, which must return the
    same cycle (successor and start) on every input.  Each pair is classified
    by classify_jumps, which finds the shortest jump anew on every call.  The
    library version used to classify all pairs up front; here a pair is
    classified on first use and remembered, which gives the same answer,
    since classify_jumps is pure, in about half the time.
    """
    if c.n < 4:
        return None
    pairs = [
        (a, b)
        for a in range(1, c.n + 1)
        for b in range(a + 1, c.n + 1)
        if len({a, c.successor_of(a), b, c.successor_of(b)}) == 4
    ]
    memo = {}

    def classify(a, b):
        if (a, b) not in memo:
            memo[(a, b)] = classify_jumps(c, a, b)
        return memo[(a, b)]

    def rewire(a, b):
        improved = two_opt(c, a, b)
        assert cycle_stat(improved) > cycle_stat(c)
        return improved

    # (i)
    for a, b in pairs:
        k = classify(a, b)
        if k.relation == "disjoint" and k.direction == "same":
            return rewire(a, b)
    # (ii)
    for a, b in pairs:
        k = classify(a, b)
        if (
            k.relation == "nontrivial-intersection"
            and k.direction == "opposite"
            and (k.first_short or k.second_short)
        ):
            return rewire(a, b)
    # (iii)
    for a, b in pairs:
        k = classify(a, b)
        if (
            k.relation == "disjoint"
            and k.direction == "opposite"
            and (k.first_short or k.second_short)
        ):
            return rewire(a, b)
    # (v)
    for a, b in pairs:
        k = classify(a, b)
        if k.relation != "bridges" or k.direction != "opposite":
            continue
        lo_a, hi_a = sorted((a, c.successor_of(a)))
        lo_b, hi_b = sorted((b, c.successor_of(b)))
        inner_short = k.second_short if lo_a <= lo_b and hi_b <= hi_a else k.first_short
        if not inner_short:
            return rewire(a, b)
    return None


class TestCycleWithStart:
    def test_validation(self):
        with pytest.raises(ValueError):
            CycleWithStart(3, (2, 3), 1)  # wrong length
        with pytest.raises(ValueError):
            CycleWithStart(3, (2, 2, 1), 1)  # not a bijection
        with pytest.raises(ValueError):
            CycleWithStart(4, (2, 1, 4, 3), 1)  # two 2-cycles
        with pytest.raises(ValueError):
            CycleWithStart(3, (2, 3, 1), 4)  # start out of range
        with pytest.raises(ValueError):
            CycleWithStart(3, (1, 2, 3), 1)  # three fixed points

    def test_from_mapping_and_successor(self):
        c = CycleWithStart.from_mapping({1: 3, 2: 1, 3: 2}, 3)
        assert c.successor == (3, 1, 2)
        assert c.successor_of(1) == 3
        with pytest.raises(ValueError):
            c.successor_of(0)

    def test_jump_lengths(self):
        c = CycleWithStart.from_mapping({1: 2, 2: 4, 3: 1, 4: 3}, 1)
        assert c.jump_lengths() == (1, 2, 2, 1)

    def test_singleton(self):
        c = CycleWithStart(1, (1,), 1)
        assert cycle_stat(c) == ProductValue(1, 1)
        assert cycle_to_perm(c) == Permutation((1,))


class TestRoundTrip:
    def test_example(self):
        c = perm_to_cycle(Permutation((2, 4, 1, 3)))
        assert c.successor == (3, 4, 2, 1)
        assert c.start == 2

    @pytest.mark.parametrize("n", range(1, 7))
    def test_word_cycle_word(self, n):
        for p in perms(n):
            assert cycle_to_perm(perm_to_cycle(p)) == p

    @pytest.mark.parametrize("n", range(1, 7))
    def test_cycle_word_cycle(self, n):
        for c in all_cycles(n):
            for start in range(1, n + 1):
                shifted = CycleWithStart(n, c.successor, start)
                back = perm_to_cycle(cycle_to_perm(shifted))
                assert back == shifted


class TestCycleStat:
    def test_known_value(self):
        c = CycleWithStart.from_mapping({1: 2, 2: 3, 3: 1}, 1)
        assert cycle_stat(c) == ProductValue(2, 2)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_equals_best_unrolling_exhaustive(self, n):
        for c in all_cycles(n):
            best = max(
                gap_product(cycle_to_perm(CycleWithStart(n, c.successor, s)))
                for s in range(1, n + 1)
            )
            assert cycle_stat(c) == ProductValue(Fraction(best), n - 1)
            chosen = best_unrolling(c)
            assert gap_product(chosen) == best

    def test_best_unrolling_of_one_cycle(self):
        assert best_unrolling(CycleWithStart.from_mapping({1: 1}, 1)) == Permutation((1,))

    def test_best_unrolling_visible_example(self):
        c = perm_to_cycle(Permutation((2, 4, 1, 3)))
        w = best_unrolling(c)
        assert gap_product(w) == 12
        assert cycle_stat(c) == ProductValue(12, 3)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_max_over_cycles_is_max_over_words(self, n):
        best_cycle = max(cycle_stat(c) for c in all_cycles(n))
        fam = consecutive_pairs(n)
        best_word = max(stretch_multiplicative(fam, p) for p in perms(n))
        assert best_cycle == best_word == max_multiplicative_stretch(n)


class TestTwoOpt:
    def test_example(self):
        c = CycleWithStart.from_mapping({1: 2, 2: 3, 3: 4, 4: 1}, 1)
        assert two_opt(c, 1, 3).successor == (3, 4, 2, 1)

    def test_rejects_shared_endpoints(self):
        c = CycleWithStart.from_mapping({1: 2, 2: 3, 3: 4, 4: 1}, 1)
        with pytest.raises(ValueError):
            two_opt(c, 1, 2)  # rho(1) = 2 collides with b

    def test_preserves_start(self):
        c = CycleWithStart.from_mapping({1: 2, 2: 3, 3: 4, 4: 1}, 3)
        assert two_opt(c, 1, 3).start == 3

    def test_length_multiset_exchange_random(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randrange(4, 12)
            c = random_cycle(rng, n)
            a, b = rng.sample(range(1, n + 1), 2)
            ra, rb = c.successor_of(a), c.successor_of(b)
            if len({a, ra, b, rb}) != 4:
                continue
            d = two_opt(c, a, b)  # constructor re-validates single-cycle
            before = Counter(c.jump_lengths())
            after = Counter(d.jump_lengths())
            before[abs(a - ra)] -= 1
            before[abs(b - rb)] -= 1
            before[abs(a - b)] += 1
            before[abs(ra - rb)] += 1
            assert before == after

    @pytest.mark.parametrize("n", [4, 5])
    def test_length_multiset_exchange_exhaustive(self, n):
        for c in all_cycles(n):
            for a in range(1, n + 1):
                for b in range(a + 1, n + 1):
                    ra, rb = c.successor_of(a), c.successor_of(b)
                    if len({a, ra, b, rb}) != 4:
                        continue
                    d = two_opt(c, a, b)
                    lost = sorted((abs(a - ra), abs(b - rb)))
                    gained = sorted((abs(a - b), abs(ra - rb)))
                    diff = Counter(d.jump_lengths())
                    diff.subtract(Counter(c.jump_lengths()))
                    expect = Counter(gained)
                    expect.subtract(Counter(lost))
                    assert {k: v for k, v in diff.items() if v} == {
                        k: v for k, v in expect.items() if v
                    }


class TestClassifyJumps:
    def test_disjoint_same(self):
        c = CycleWithStart.from_mapping(
            {1: 2, 2: 3, 3: 4, 4: 5, 5: 6, 6: 1}, 1
        )
        k = classify_jumps(c, 1, 3)
        assert k.relation == "disjoint"
        assert k.direction == "same"
        assert k.first_short and k.second_short

    def test_skips(self):
        c = CycleWithStart.from_mapping(
            {1: 2, 2: 3, 3: 4, 4: 5, 5: 6, 6: 1}, 1
        )
        # jump 6 -> 1 spans [1, 6] and contains [1, 2], sharing endpoint 1
        k = classify_jumps(c, 1, 6)
        assert k.relation == "skips"
        assert k.direction == "opposite"

    def test_shared_endpoint(self):
        c = CycleWithStart.from_mapping({1: 3, 2: 1, 3: 5, 4: 2, 5: 4}, 1)
        # spans [1,3] and [3,5] meet only at 3; neither contains the other
        k = classify_jumps(c, 1, 3)
        assert k.relation == "shared-endpoint"

    def test_bridges(self):
        c = CycleWithStart.from_mapping(
            {1: 2, 2: 5, 3: 1, 4: 3, 5: 6, 6: 4}, 1
        )
        k = classify_jumps(c, 2, 4)
        assert k.relation == "bridges"
        assert k.direction == "opposite"
        assert not k.first_short and k.second_short

    def test_nontrivial_intersection(self):
        c = CycleWithStart.from_mapping(
            {1: 3, 2: 4, 3: 2, 4: 5, 5: 6, 6: 1}, 1
        )
        k = classify_jumps(c, 1, 2)
        assert k.relation == "nontrivial-intersection"
        assert k.direction == "same"

    @pytest.mark.parametrize("n", range(4, 8))
    def test_rules_are_exclusive(self, n):
        # find_improvement gives each pair the one rule it can match
        seen = Counter()
        for c in all_cycles(n):
            for a in range(1, n + 1):
                for b in range(a + 1, n + 1):
                    rules = matching_rules(c, a, b)
                    assert len(rules) <= 1, (c.successor, a, b, rules)
                    seen.update(rules)
        if n >= 5:
            assert set(seen) == {"i", "ii", "iii", "v"}

    def test_rejects_equal_jumps(self):
        c = CycleWithStart.from_mapping({1: 2, 2: 3, 3: 1}, 1)
        with pytest.raises(ValueError):
            classify_jumps(c, 2, 2)


class TestFindImprovement:
    def test_small_cycles_have_no_move(self):
        c = CycleWithStart.from_mapping({1: 2, 2: 3, 3: 1}, 1)
        assert find_improvement(c) is None

    def test_strict_increase_random(self):
        rng = random.Random(11)
        for _ in range(600):
            n = rng.randrange(4, 11)
            c = random_cycle(rng, n)
            improved = find_improvement(c)
            if improved is not None:
                assert cycle_stat(improved) > cycle_stat(c)

    def test_iteration_terminates(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randrange(4, 11)
            c = random_cycle(rng, n)
            steps = 0
            while True:
                nxt = find_improvement(c)
                if nxt is None:
                    break
                assert cycle_stat(nxt) > cycle_stat(c)
                c = nxt
                steps += 1
                assert steps <= 500

    @pytest.mark.parametrize("n", range(4, 9))
    def test_global_maximizers_admit_no_move(self, n):
        for p in multiplicative_maximizers(n):
            assert find_improvement(perm_to_cycle(p)) is None

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_reference_exhaustive(self, n):
        for c in all_cycles(n):
            assert find_improvement(c) == reference_find_improvement(c)

    def test_trajectories_match_reference(self):
        rng = random.Random(17)
        for n in [30] * 20 + [60] * 2:
            c = random_cycle(rng, n)
            while c is not None:
                nxt = find_improvement(c)
                assert nxt == reference_find_improvement(c)
                c = nxt

    def test_strict_gain_check_raises(self, monkeypatch):
        monkeypatch.setattr(permstats.cycles, "two_opt", lambda c, a, b: c)
        c = CycleWithStart.from_mapping({1: 2, 2: 3, 3: 4, 4: 5, 5: 6, 6: 1}, 1)
        with pytest.raises(AssertionError, match="failed to improve"):
            find_improvement(c)
