"""Inputs shared by the tests that compare fast statistics with their oracles."""

import random

import pytest

from permstats.cli import _crossing_example
from permstats.core import Permutation
from permstats.extremal import construct_prescribed
from permstats.stretch import multiplicative_maximizers


def _structured_words(n):
    # identity, reversal, the crossing example and two one-swap variants of it,
    # prescribed-displacement words and the multiplicative maximizers
    example = list(_crossing_example(n).image)
    words = [tuple(range(1, n + 1)), tuple(range(n, 0, -1)), tuple(example)]
    for a, b in ((0, n - 1), (n // 2 - 1, n // 2)):
        swapped = example[:]
        swapped[a], swapped[b] = swapped[b], swapped[a]
        words.append(tuple(swapped))
    words += [construct_prescribed(n, d).image for d in ("0", "1/8", "1/4", "1/2")]
    words += [p.image for p in multiplicative_maximizers(n)]
    return [Permutation(w) for w in dict.fromkeys(words)]


def _random_word(seed, n):
    word = list(range(1, n + 1))
    random.Random(f"{seed}/{n}").shuffle(word)
    return Permutation(tuple(word))


@pytest.fixture
def structured_words():
    """`structured_words(n)`: the distinct structured words of size n >= 2."""
    return _structured_words


@pytest.fixture
def random_word():
    """`random_word(seed, n)`: a seeded uniform word of size n."""
    return _random_word
