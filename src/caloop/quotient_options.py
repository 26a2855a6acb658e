"""The quotient checks' levels and sampled-level defaults, without numpy.

:mod:`caloop.quotient` re-exports these names; they live here so that the
command-line parser can offer them without importing numpy.
"""

__all__ = ["LEVELS", "DEFAULT_TRIALS", "DEFAULT_SEED"]

LEVELS = ("axioms", "automorphic-sampled", "automorphic-full")

# the sampled check's trial count and random.Random seed when none is given
DEFAULT_TRIALS = 1000
DEFAULT_SEED = 20260808
