"""Exact displacement and stretch statistics of permutations.

The package splits along the life of a statistic: `core` defines the
permutation type and the exact statistics, `extremal` and `stretch` carry the
closed-form maxima with their explicit maximizers, `cycles` the local search
machinery behind the multiplicative bound, `oracle` the exhaustive checks for
small n, `sampling` the seeded Monte Carlo layer, and `cli` the command-line
front end.
"""

from . import core, cycles, extremal, oracle, sampling, stretch
from .core import *
from .extremal import *
from .stretch import *
from .cycles import *
from .oracle import *
from .sampling import *

__version__ = "0.1.0"

__all__ = [
    name
    for layer in (core, extremal, stretch, cycles, oracle, sampling)
    for name in layer.__all__
]
