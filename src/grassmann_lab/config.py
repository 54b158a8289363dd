"""Default resource bounds and the exception raised when one is exceeded.

Most bounds are defaults, not hard constants: the operation that enforces
one accepts an override, and the CLI exposes the vertex, clique and search
bounds as flags (--max-vertices, --brute-bound).  MAX_QBINOM_DEGREE and
MAX_SCAN_WORK are the exceptions, fixed caps of the qbinom and scan
commands with neither.  The defaults target desk-scale experiments (the
interesting instances have a few dozen to a few thousand vertices).
"""

import sys

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

# Cap on the degree m(n-m) of [n choose m]_q when `qbinom` runs the h
# report (4 <= 2m <= n).  The report's dense cross-check [n,m]_q * g ==
# f * omega and its divmod(f, g) grow with the square of the degree and are
# the largest part of it: at the cap, `qbinom` on [160,80], [243,30] and
# [650,10] takes 0.4-0.6 s on one Xeon core, 0.15, 0.25 and 0.64 s of it in
# those two steps.
MAX_QBINOM_DEGREE = 6400

# Cap on the work m(n-m) * q_max of an h integrality scan (`scan`, and
# `qbinom --q-max`), checked before the scan runs.  The digits the scan
# prints grow as that product, since the logs of the prime powers up to
# q_max sum to about q_max.  The slowest scan below the cap,
# `scan --n 4 --m 2 --q-max 2500000` as JSON, takes 2.2 s on one Xeon core.
MAX_SCAN_WORK = 10**7


class BoundExceeded(ValueError):
    """An input would exceed a configured resource bound."""


def check_decimal_digits(value: int, what: str) -> None:
    """Raise BoundExceeded if str(value) would pass the interpreter's digit limit.

    The limit (0 for none) is read with sys.get_int_max_str_digits() and
    never set, since it is process-global state.  Interpreters older than
    3.10.7 have no such limit.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and abs(value) >= 10**limit:
        raise BoundExceeded(
            f"{what} has more than {limit} decimal digits, "
            "the interpreter's limit for int-to-str conversion"
        )


class SearchBudgetExceeded(RuntimeError):
    """An exact search ran out of its node budget before deciding."""
