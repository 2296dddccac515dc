"""Exact displacement and stretch statistics of permutations.

The package splits along the life of a statistic: `core` defines the
permutation type and the exact statistics, `extremal` and `stretch` carry the
closed-form maxima with their explicit maximizers, `cycles` the local search
machinery behind the multiplicative bound, `oracle` the exhaustive checks for
small n, `sampling` the seeded Monte Carlo layer, and `cli` the command-line
front end.
"""

from .core import (
    InvariantError,
    Permutation,
    average_displacement_exact,
    complement,
    dispersion,
    displacement,
    hamming_distance,
    inverse,
    min_delay,
    normalized_displacement,
    reverse,
    spread,
    transform,
)
from .extremal import (
    CrossingWitness,
    construct_prescribed,
    count_max_displacement,
    improve_noncrossing,
    is_crossing,
    max_displacement,
)
from .stretch import (
    IntervalFamily,
    ProductValue,
    consecutive_pairs,
    is_additive_maximizer,
    max_additive_stretch,
    max_multiplicative_stretch,
    max_product_partition,
    multiplicative_maximizers,
    stretch_additive,
    stretch_multiplicative,
)
from .cycles import (
    CycleWithStart,
    best_unrolling,
    cycle_stat,
    cycle_to_perm,
    find_improvement,
    perm_to_cycle,
    two_opt,
)
from .oracle import ArgmaxReport, Check, brute_argmax, brute_average_displacement, verify
from .sampling import (
    ConcentrationBound,
    SampleStats,
    concentration_report,
    displacement_sums,
    empirical_stats,
    fraction_in_interval,
    lipschitz_check,
    sample_uniform,
)

__version__ = "0.1.0"

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
    "CrossingWitness",
    "is_crossing",
    "max_displacement",
    "count_max_displacement",
    "improve_noncrossing",
    "construct_prescribed",
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
    "CycleWithStart",
    "perm_to_cycle",
    "cycle_to_perm",
    "best_unrolling",
    "cycle_stat",
    "two_opt",
    "find_improvement",
    "ArgmaxReport",
    "brute_argmax",
    "brute_average_displacement",
    "Check",
    "verify",
    "SampleStats",
    "ConcentrationBound",
    "sample_uniform",
    "displacement_sums",
    "empirical_stats",
    "fraction_in_interval",
    "concentration_report",
    "lipschitz_check",
]
