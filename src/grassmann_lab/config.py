"""Resource bounds and the exception raised when one is exceeded.

BUILD_BOUND, CLIQUE_ENUM_BOUND, SEARCH_BOUND and NODE_BUDGET are
defaults: the operation that enforces one accepts an override, and the
CLI exposes the vertex, clique and search bounds as flags
(--max-vertices, --brute-bound).  The field-size caps, ENUM_BOUND and the
qbinom and scan caps are fixed constants with neither.  The defaults
target desk-scale experiments (the interesting instances have a few dozen
to a few thousand vertices).  A `--q` or `qbinom --at` is checked against
MAX_FIELD_SIZE before it is factored, since factoring takes up to sqrt(q)
trial divisions; the prime powers a scan factors are bounded by
MAX_SCAN_WORK.
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

# Cap for maximal-clique enumeration (Bron-Kerbosch).  `verify` also caps
# the star plus top centre count with it: the symmetry certificate maps
# every centre, and without a certified generator the lemma checks compare
# every pair of centres.
CLIQUE_ENUM_BOUND = 2000

# Cap for exact omega/chi search; J_2(6,3) at 1395 vertices is
# deliberately above it, so its coreness stays "undetermined" by default.
SEARCH_BOUND = 1000

# Node budget for each of the two exact searches: the clique branch and
# bound (omega_exact), and the colouring search, which the orbit search
# (orbit_colouring) and DSATUR (find_colouring) share, DSATUR getting what
# the orbit search left.  The clique search completes on every integral-h
# graph up to 4745 vertices within 32,463 nodes (J_8(4,2)); the orbit
# search decides J_4(4,2) in 1,684 nodes, where DSATUR alone exhausts
# the budget.
NODE_BUDGET = 200_000

# Cap on the degree m(n-m) of [n choose m]_q when `qbinom` runs the h
# report (4 <= 2m <= n).  The report's dense cross-check [n,m]_q * g ==
# f * omega and its divmod(f, g) grow with the square of the degree and are
# the largest part of it: at the cap, `qbinom` on [160,80], [243,30] and
# [650,10] takes 0.4-0.6 s on one Xeon core, 0.15, 0.25 and 0.64 s of it in
# those two steps.
MAX_QBINOM_DEGREE = 6400

# Cap on the work min(m, n-m) * m(n-m) of building [n choose m]_q in
# `qbinom`, for every shape, checked before any polynomial or value is
# built: the kernel makes min(m, n-m) passes over up to m(n-m) + 1
# coefficients, about 0.22 us per unit on one Xeon core.  Just below the
# cap, `qbinom --n 401 --m 201` (8.04e6 units) takes 1.8 s.
MAX_QBINOM_WORK = 10**7

# Cap on the work m(n-m) * q_max of an h integrality scan (`scan`, and
# `qbinom --q-max`), checked before the scan runs.  The digits the scan
# prints grow as that product, since the logs of the prime powers up to
# q_max sum to about q_max.  The slowest scan below the cap,
# `scan --n 4 --m 2 --q-max 2500000` as JSON (20 MB), takes about 1.9 s on
# one Xeon core, in a fresh interpreter; (360, 2) up to 13,966 takes 0.25 s.
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
    # a value of at most 3 * limit bits is below 2^(3 limit) < 10^limit
    if limit and value.bit_length() > 3 * limit and abs(value) >= 10**limit:
        raise BoundExceeded(
            f"{what} has more than {limit} decimal digits, "
            "the interpreter's limit for int-to-str conversion"
        )


def check_power_digits(q: int, k: int, what: str) -> None:
    """check_decimal_digits for a value of at least q^k, before it is computed.

    q^k >= 2^((bit_length(q) - 1) k), and 2^b >= 10^limit once
    3b >= 10 limit, since log2(10) < 10/3; so this raises only when the
    exact check on the value would.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and 3 * (q.bit_length() - 1) * k >= 10 * limit:
        check_decimal_digits(10**limit, what)  # the smallest value past the limit


class SearchBudgetExceeded(RuntimeError):
    """An exact search ran out of its node budget before deciding."""
