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

# Largest q for which every FieldSpec operation is a lookup in precomputed tables.
FIELD_TABLE_LIMIT = 256

# Largest q accepted when building a graph.
MAX_GRAPH_FIELD = 16

# Cap on the subspaces one enumeration may produce, and on the [n,m]_q * q^m
# codes of a graph's span table: J_9(4,3) has 5.98e5, J_16(4,3) 1.8e7.
ENUM_BOUND = 10**6

# Cap on graph vertex count at build time.
BUILD_BOUND = 5000

# Cap for maximal-clique enumeration (Bron-Kerbosch).  `verify` also caps
# the star plus top centre count with it: the symmetry certificate maps
# every centre, and without a certified generator the lemma checks compare
# every pair of centres.
CLIQUE_ENUM_BOUND = 2000

# Cap for the exact chi search in `coreness`, and for the clique census
# that certifies omega when that search refutes an omega-colouring;
# J_2(7,3), every lambda_i an integer, is above it at 11,811 vertices, so
# its coreness stays "undetermined" by default.
SEARCH_BOUND = 1000

# Node budget for the colouring search, which the orbit search
# (orbit_colouring: one run under <h, sigma>, one under <h>) and DSATUR
# (find_colouring) share, each getting what the runs before it left.  The
# orbit search decides J_4(4,2) in 82 nodes, where DSATUR alone exhausts
# the budget.
NODE_BUDGET = 200_000

# Cap on the degree m(n-m) of [n choose m]_q when `qbinom` runs the h
# report (4 <= 2m <= n).  The report's cross-check [n,m]_q * g == f * omega
# is two integer products of packed coefficients, 11-19 ms at the cap, and
# its divmod(f, g) 3-4 ms; its largest step is building f and g one factor
# (q^d - 1)^(+-1) at a time, 85 ms on [160,80].  At the cap, `qbinom` on
# [160,80], [243,30] and [650,10] takes 0.26, 0.18 and 0.14 s in a fresh
# interpreter on one Xeon core.
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
# `scan --n 4 --m 2 --q-max 2500000` as JSON (20 MB), takes about 0.35 s on
# one Xeon core, in a fresh interpreter, and peaks at 46 MB of address
# space, since the report streams; (360, 2) up to 13,966 takes 0.08 s.
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
