"""Default resource bounds and the exception raised when one is exceeded.

All bounds are configuration, not hard constants: every operation that
enforces one accepts an override, and the CLI exposes them as flags.  The
defaults target desk-scale experiments (the interesting instances have a
few dozen to a few thousand vertices).
"""

# Largest permitted field size q = p^e.
MAX_FIELD_SIZE = 1 << 20

# Largest q for which Gaussian elimination uses precomputed op tables.
FIELD_TABLE_LIMIT = 256

# Largest q accepted when building a graph.
MAX_GRAPH_FIELD = 16

# Cap on the number of subspaces a single enumeration may produce.
ENUM_BOUND = 10**6

# Cap on graph vertex count at build time.
BUILD_BOUND = 5000

# Cap for exhaustive maximal-clique enumeration (Bron-Kerbosch).  `verify`
# also caps the star plus top centre count with it, since the lemma checks
# compare every pair of centres.
CLIQUE_ENUM_BOUND = 2000

# Cap for exact omega/alpha/chi search; J_2(6,3) at 1395 vertices is
# deliberately above it, so its coreness stays "undetermined" by default.
SEARCH_BOUND = 1000

# Node budget for the clique/independence branch and bound.  Clique
# searches on desk-scale instances need a few hundred nodes; the
# independence search runs only when a greedy set falls short of the
# |V|/omega cap, and there it can use the whole budget (J_2(5,2) does).
SEARCH_NODE_BUDGET = 500_000

# Node budget for the backtracking colouring search.
COLOUR_NODE_BUDGET = 200_000


class BoundExceeded(ValueError):
    """An input would exceed a configured resource bound."""


class SearchBudgetExceeded(RuntimeError):
    """An exact search ran out of its node budget before deciding."""
