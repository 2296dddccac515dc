"""Workload definitions: seeded lists of `permstats` CLI argv.

A workload turns (seed, pass index) into a fixed list of operations.  Each
operation is one `permstats.cli.run(argv)` call with `--format json`; the
program sees only the generated argv.  Pass k of a run always gets the same
inputs for the same seed, and different passes draw different random words, so
a run of several passes averages over more inputs than one pass holds.

Throughput is counted in the workload's own unit:

  enumerate   perms   sum of n! for n <= max_n, per verify op (problem size)
  sample      trials  trials requested
  search      steps   trajectory steps in the output
  large-word  elems   sum of n over ops
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable

# The `extremal` ops use n = 1400.  At n = 2000 both `extremal --stat s-star`
# and `extremal --stat disp` raise ValueError (CPython's 4300-digit int->str
# limit); those two are run as known-defect probes outside the measured
# passes, because a workload op must not fail.  `metrics` stops at n = 1500
# for the same reason: random words cross the limit from n ~ 1650, and a fix
# for the limit would add seconds of spread/dispersion work to a larger
# `metrics` op and read as a regression.
EXTREMAL_N = 1400
KNOWN_DEFECT_PROBES = (
    ("extremal", "--n", "2000", "--stat", "s-star", "--format", "json"),
    ("extremal", "--n", "2000", "--stat", "disp", "--format", "json"),
)


@dataclass(frozen=True)
class Op:
    """One CLI call and what its correctness check needs to know."""

    kind: str
    argv: tuple[str, ...]
    n: int
    params: dict[str, Any] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"{self.kind} n={self.n}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    unit: str
    min_passes: int
    make_pass: Callable[[random.Random], list[Op]]
    work: Callable[[Op, dict[str, Any]], int]

    def ops(self, seed: int, index: int) -> list[Op]:
        """The operations of pass `index` for workload seed `seed`."""
        return self.make_pass(random.Random(f"{self.name}/{seed}/{index}"))

    @property
    def throughput_name(self) -> str:
        return f"{self.unit}_per_s"


def _word(rng: random.Random, n: int) -> tuple[int, ...]:
    w = list(range(1, n + 1))
    rng.shuffle(w)
    return tuple(w)


def _perm_op(kind: str, command: list[str], word: tuple[int, ...]) -> Op:
    argv = (*command, "--perm", " ".join(map(str, word)), "--format", "json")
    return Op(kind, argv, len(word), {"word": word})


def _enumerate_pass(rng: random.Random) -> list[Op]:
    max_n = 8
    return [
        Op(
            "verify",
            ("verify", "--max-n", str(max_n), "--format", "json"),
            max_n,
            {"perms": sum(math.factorial(k) for k in range(1, max_n + 1))},
        )
    ]


def _sample_op(rng: random.Random, n: int, trials: int) -> Op:
    seed = rng.randrange(2**63)
    argv = (
        "sample", "--n", str(n), "--trials", str(trials), "--seed", str(seed),
        "--format", "json",
    )
    return Op("sample", argv, n, {"trials": trials, "seed": seed})


def _sample_pass(rng: random.Random) -> list[Op]:
    # n = 100 sits between the per-trial and per-element regimes.  A third op
    # kind, clearly faster than the other two, also keeps the median op inside
    # the n = 1000 kind instead of between two kinds.
    return [
        _sample_op(rng, 10, 50_000),
        _sample_op(rng, 100, 15_000),
        _sample_op(rng, 1000, 20_000),
    ]


# One size only.  The latency of one search op varies by about 15% from word to
# word (the trajectory length does), so the median and tail ops of a run need
# many ops of one kind: a run holds about 75 at n = 30 but would hold only 8
# each at 30, 40 and 50, and with mixed sizes those order statistics would
# also sit between kinds.
SEARCH_N = 30


def _search_pass(rng: random.Random) -> list[Op]:
    return [
        _perm_op("improve-s-star", ["improve", "--stat", "s-star"], _word(rng, SEARCH_N))
        for _ in range(3)
    ]


def _large_word_pass(rng: random.Random) -> list[Op]:
    # Nine op kinds: the median op is then `metrics` at n = 500, whose work
    # does not depend on the word, rather than a point between two kinds.
    ops = [_perm_op("metrics", ["metrics"], _word(rng, n)) for n in (500, 1000, 1500)]
    ops += [
        _perm_op("improve-disp", ["improve", "--stat", "disp"], _word(rng, n))
        for n in (100, 150)
    ]
    ops.append(
        Op(
            "construct",
            ("construct", "--n", "100000", "--displacement", "1/4", "--format", "json"),
            100_000,
            {"target": "1/4"},
        )
    )
    for stat in ("s-star", "s-plus", "disp"):
        argv = ("extremal", "--n", str(EXTREMAL_N), "--stat", stat, "--format", "json")
        ops.append(Op(f"extremal-{stat}", argv, EXTREMAL_N))
    return ops


# min_passes keeps the op count of every run at or above a fixed floor, so the
# tail percentile (see run.py) is the same in every run of a workload.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "enumerate",
            "verify --max-n 8: many tiny calls into oracle, core and extremal at n <= 8",
            "perms",
            16,
            _enumerate_pass,
            lambda op, report: op.params["perms"],
        ),
        Workload(
            "sample",
            "sample at n=10 (per-trial cost), 100 and 1000 (per-element cost); only sampling works",
            "trials",
            8,
            _sample_pass,
            lambda op, report: op.params["trials"],
        ),
        Workload(
            "search",
            "improve --stat s-star on random words of n=30: cycles local search and ProductValue",
            "steps",
            20,
            _search_pass,
            lambda op, report: report["results"]["steps"],
        ),
        Workload(
            "large-word",
            "metrics, improve disp, construct, extremal on long words: O(n^2) core and extremal paths",
            "elems",
            6,
            _large_word_pass,
            lambda op, report: op.n,
        ),
    )
}
