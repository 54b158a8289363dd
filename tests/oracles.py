"""Independent reference implementations used to check the library.

Everything here deliberately avoids the code paths under test: ranks come
from minor enumeration, distances from BFS, subspace membership from
brute-force span enumeration, Grassmann adjacency from a popcount test on
every pair of vertex masks, colour classes checked against every star
from those masks, field properties from exhaustive loops, and
graph dumps from one [i, j] list per edge.  The search kernels are the
straightforward recursive versions of the library's iterative,
bitset-driven ones, and the q-polynomial references at the end are the
dense polynomial products, the recursive cyclotomic division and the
Fraction-based scan.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import gcd

from grassmann_lab.arith import prime_powers_upto
from grassmann_lab.config import NODE_BUDGET, SearchBudgetExceeded
from grassmann_lab.coreness import validate_colouring
from grassmann_lab.graph import bits
from grassmann_lab.qpoly import (
    ONE,
    IntPolynomial,
    ScanEntry,
    ScanReport,
    gaussian_binomial_int,
    omega_int,
    x_power_minus_one,
)
from grassmann_lab.subspaces import enumerate_subspaces


def bfs_distances(adjacency, source: int) -> list[int]:
    """Graph distances from source over bitset adjacency; -1 if unreachable."""
    n = len(adjacency)
    dist = [-1] * n
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            a = adjacency[v]
            while a:
                b = a & -a
                u = b.bit_length() - 1
                a ^= b
                if dist[u] < 0:
                    dist[u] = d
                    nxt.append(u)
        frontier = nxt
    return dist


def determinant(spec, rows) -> int:
    """Determinant over the field by Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    det = 0
    sign = 1
    for j in range(n):
        a = rows[0][j]
        if a:
            minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
            term = spec.mul(a, determinant(spec, minor))
            det = spec.add(det, term if sign > 0 else spec.neg(term))
        sign = -sign
    return det


def rank_by_minors(spec, rows) -> int:
    """Largest k such that some k x k submatrix has nonzero determinant."""
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    for k in range(min(nr, nc), 0, -1):
        for rsel in combinations(range(nr), k):
            for csel in combinations(range(nc), k):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                if determinant(spec, sub) != 0:
                    return k
    return 0


def span_vectors(spec, rows, n: int) -> frozenset:
    """All vectors in the row span, by enumerating coefficient tuples."""
    out = set()
    for coeffs in product(range(spec.q), repeat=len(rows)):
        v = tuple(0 for _ in range(n))
        for c, row in zip(coeffs, rows):
            if c:
                v = tuple(spec.add(x, spec.mul(c, y)) for x, y in zip(v, row))
        out.add(v)
    return frozenset(out)


def mask_by_enumeration(spec, S) -> int:
    """The vector mask of S: bit sum_j v_j q^j for every member v of its span."""
    mask = 0
    for v in span_vectors(spec, S.basis.rows, S.ambient):
        mask |= 1 << sum(x * spec.q**j for j, x in enumerate(v))
    return mask


def pairwise_adjacency(masks, q: int, m: int) -> list[int]:
    """Grassmann adjacency by testing every pair of vertex masks.

    Two m-spaces are adjacent iff the AND of their masks has exactly
    q^(m-1) elements; V^2/2 popcounts.
    """
    count = len(masks)
    thr = q ** (m - 1)
    adjacency = [0] * count
    for i in range(count):
        mi = masks[i]
        ai = adjacency[i]
        for j in range(i + 1, count):
            if (mi & masks[j]).bit_count() == thr:
                ai |= 1 << j
                adjacency[j] |= 1 << i
        adjacency[i] = ai
    return adjacency



def classes_meet_every_star_once(G, colouring) -> bool:
    """Whether each colour class holds exactly one vertex through every (m-1)-space.

    From vector masks alone, no adjacency: every mask comes from span
    enumeration, and an (m-1)-space P lies in a vertex when P's mask is a
    subset of the vertex's.
    """
    centres = [mask_by_enumeration(G.spec, P) for P in enumerate_subspaces(G.spec, G.n, G.m - 1)]
    classes: dict[int, list[int]] = {}
    for S, c in zip(G.vertices, colouring):
        classes.setdefault(c, []).append(mask_by_enumeration(G.spec, S))
    return all(
        sum(not P & ~mask for mask in members) == 1
        for members in classes.values()
        for P in centres
    )


def _digit_rows(S) -> list[str]:
    return ["".join("0123456789abcdefghijklmnopqrstuvwxyz"[x] for x in row) for row in S.basis.rows]


def graph_to_json_dict(G) -> dict:
    """The graph dump as a dict with one [i, j] list per edge i < j, in (i, j) order."""
    spec = G.spec
    return {
        "params": {
            "q": spec.q,
            "p": spec.p,
            "e": spec.e,
            "n": G.n,
            "m": G.m,
            "vertices": G.num_vertices,
        },
        "vertices": [{"id": i, "matrix": _digit_rows(v)} for i, v in enumerate(G.vertices)],
        "edges": [[i, j] for i in range(G.num_vertices) for j in bits(G.adjacency[i]) if j > i],
    }


def graph_to_dot(G) -> str:
    """The DOT dump, one line per vertex and then one per edge i < j."""
    lines = ["graph grassmann {"]
    for i, v in enumerate(G.vertices):
        lines.append(f'  v{i} [label="v{i}", tooltip="{"/".join(_digit_rows(v))}"];')
    for i in range(G.num_vertices):
        lines.extend(f"  v{i} -- v{j};" for j in bits(G.adjacency[i]) if j > i)
    lines.append("}")
    return "\n".join(lines) + "\n"


def intersection_dim_by_enumeration(spec, S, T) -> int:
    """dim(S intersect T) by counting common vectors of the two spans."""
    vs = span_vectors(spec, S.basis.rows, S.ambient)
    vt = span_vectors(spec, T.basis.rows, T.ambient)
    common = len(vs & vt)
    d = 0
    while spec.q**d < common:
        d += 1
    assert spec.q**d == common, "common vectors do not form a subspace"
    return d


def is_rref(rows) -> bool:
    """Reduced row echelon shape: pivots are 1, strictly right-moving, alone
    in their column, and there are no zero rows."""
    last_pivot = -1
    pivots = []
    for row in rows:
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None:
            return False
        if lead <= last_pivot or row[lead] != 1:
            return False
        pivots.append(lead)
        last_pivot = lead
    for i, p in enumerate(pivots):
        for r, row in enumerate(rows):
            if r != i and row[p] != 0:
                return False
    return True


def check_field_axioms(spec) -> None:
    """Exhaustive field axioms: all pairs and triples of elements."""
    q = spec.q
    elems = range(q)
    for a in elems:
        assert spec.add(a, 0) == a
        assert spec.mul(a, 1) == a
        assert spec.add(a, spec.neg(a)) == 0
        if a:
            assert spec.mul(a, spec.inv(a)) == 1
            assert spec.pow(a, q - 1) == 1
    for a in elems:
        for b in elems:
            assert spec.add(a, b) == spec.add(b, a)
            assert spec.mul(a, b) == spec.mul(b, a)
    for a in elems:
        for b in elems:
            ab_add = spec.add(a, b)
            ab_mul = spec.mul(a, b)
            for c in elems:
                assert spec.add(ab_add, c) == spec.add(a, spec.add(b, c))
                assert spec.mul(ab_mul, c) == spec.mul(a, spec.mul(b, c))
                assert spec.mul(ab_add, c) == spec.add(spec.mul(a, c), spec.mul(b, c))


# -- recursive search kernels ------------------------------------------
#
# The clique branch and bound and DSATUR searches as they stood before the
# kernels in grassmann_lab.coreness became iterative and bitset-driven,
# kept verbatim as references: the rewritten kernels must return the same
# cliques, colour tables and None results, and exhaust the same budgets.


@contextmanager
def _recursion_room(nv: int):
    """Recursive searches may go one frame per vertex; leave headroom."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 2 * nv + 500))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


# -- branch and bound maximum clique --------------------------------


def _greedy_colour_order(adj, P: int) -> list[tuple[int, int]]:
    """Greedy colour classes of the candidate set; (vertex, colour)."""
    order = []
    uncoloured = P
    colour = 0
    while uncoloured:
        colour += 1
        avail = uncoloured
        while avail:
            v = (avail & -avail).bit_length() - 1
            order.append((v, colour))
            vb = 1 << v
            uncoloured ^= vb
            avail = (avail ^ vb) & ~adj[v]
    return order


def max_clique_bitset(adj, nv: int, node_budget: int | None = None) -> list[int]:
    """A maximum clique of the graph given as per-vertex bitsets.

    Raises SearchBudgetExceeded when a node budget is given and exhausted.
    """
    best: list[int] = []
    nodes = 0

    def expand(R: list[int], P: int):
        nonlocal best, nodes
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise SearchBudgetExceeded(f"clique search exceeded {node_budget} nodes")
        order = _greedy_colour_order(adj, P)
        for v, colour in reversed(order):
            if len(R) + colour <= len(best):
                return
            R.append(v)
            newP = P & adj[v]
            if newP:
                expand(R, newP)
            elif len(R) > len(best):
                best = R[:]
            R.pop()
            P ^= 1 << v

    with _recursion_room(nv):
        expand([], (1 << nv) - 1)
    return sorted(best)


def find_colouring(
    adj,
    nv: int,
    k: int,
    seed=(),
    node_budget: int = NODE_BUDGET,
) -> list[int] | None:
    """Search for a proper k-colouring by DSATUR-ordered backtracking.

    The seed vertices (a clique) take colours 0, 1, ... up front, which
    removes all colour symmetry.  Saturation is tracked incrementally via
    per-vertex neighbour-colour counts.  Returns the colour table, or
    None when the exhaustive search proves no k-colouring exists; raises
    SearchBudgetExceeded when the node budget runs out first.
    """
    if len(seed) > k:
        return None
    colours = [-1] * nv
    counts = [[0] * k for _ in range(nv)]  # colours used by neighbours, with multiplicity
    sat = [0] * nv  # distinct neighbour colours
    degs = [adj[i].bit_count() for i in range(nv)]
    neighbours = [list(bits(a)) for a in adj]

    def assign(v: int, c: int):
        colours[v] = c
        for u in neighbours[v]:
            cu = counts[u]
            if cu[c] == 0:
                sat[u] += 1
            cu[c] += 1

    def retract(v: int, c: int):
        colours[v] = -1
        for u in neighbours[v]:
            cu = counts[u]
            cu[c] -= 1
            if cu[c] == 0:
                sat[u] -= 1

    for c, v in enumerate(seed):
        assign(v, c)

    nodes = 0

    def descend() -> bool:
        nonlocal nodes
        best_v = -1
        best_key = None
        for v in range(nv):
            if colours[v] < 0:
                key = (sat[v], degs[v], -v)
                if best_key is None or key > best_key:
                    best_v, best_key = v, key
        if best_v < 0:
            return True
        if sat[best_v] == k:
            return False
        cv = counts[best_v]
        for c in range(k):
            if cv[c]:
                continue
            nodes += 1
            if nodes > node_budget:
                raise SearchBudgetExceeded(f"colouring search exceeded {node_budget} nodes")
            assign(best_v, c)
            if descend():
                return True
            retract(best_v, c)
        return False

    with _recursion_room(nv):
        if descend():
            validate_colouring(adj, colours, k)
            return colours
    return None


def dsatur_upper_bound(adj, nv: int, seed=()) -> tuple[int, list[int]]:
    """Greedy DSATUR colouring (no backtracking); (colour count, table)."""
    colours = [-1] * nv
    degs = [adj[i].bit_count() for i in range(nv)]
    neighbours = [list(bits(a)) for a in adj]
    used_masks = [0] * nv  # bitmask of colours seen among neighbours

    def assign(v: int, c: int):
        colours[v] = c
        cb = 1 << c
        for u in neighbours[v]:
            used_masks[u] |= cb

    for c, v in enumerate(seed):
        assign(v, c)
    for _ in range(nv - len(seed)):
        best_v, best_key = -1, None
        for v in range(nv):
            if colours[v] < 0:
                key = (used_masks[v].bit_count(), degs[v], -v)
                if best_key is None or key > best_key:
                    best_v, best_key = v, key
        c = 0
        while used_masks[best_v] >> c & 1:
            c += 1
        assign(best_v, c)
    return max(colours) + 1, colours


# -- maximal clique enumeration ---------------------------------------


def all_maximal_cliques(adj, nv: int) -> list[tuple[int, ...]]:
    """Every maximal clique, sorted, by recursive pivoting Bron-Kerbosch.

    Seeds in vertex order rather than degeneracy order; the sorted result
    does not depend on the seeding.
    """
    out: list[tuple[int, ...]] = []

    def expand(R: list[int], P: int, X: int):
        if not P and not X:
            out.append(tuple(sorted(R)))
            return
        best_u, best_cnt = -1, -1
        for u in bits(P | X):
            c = (P & adj[u]).bit_count()
            if c > best_cnt:
                best_u, best_cnt = u, c
        for v in bits(P & ~adj[best_u]):
            vb = 1 << v
            R.append(v)
            expand(R, P & adj[v], X & adj[v])
            R.pop()
            P ^= vb
            X |= vb

    with _recursion_room(nv):
        expand([], (1 << nv) - 1, 0)
    out.sort()
    return out


# -- q-polynomials ------------------------------------------------------


def gaussian_binomial_poly(n: int, m: int) -> IntPolynomial:
    """[n choose m]_q as a polynomial in q, degree m(n-m).

    Product of (q^(n+1-i) - 1)/(q^i - 1) for i = 1..m, interleaving
    multiplication and exact division so every intermediate stays a
    polynomial.
    """
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    result = ONE
    for i in range(1, m + 1):
        result = (result * x_power_minus_one(n + 1 - i)).exact_div(x_power_minus_one(i))
    return result


@lru_cache(maxsize=None)
def cyclotomic(t: int) -> IntPolynomial:
    """The t-th cyclotomic polynomial.

    Computed by exact division: divide q^t - 1 by the cyclotomic
    polynomials of all proper divisors of t.  Monic with integer
    coefficients by construction.
    """
    if t < 1:
        raise ValueError("cyclotomic index must be >= 1")
    poly = x_power_minus_one(t)
    for d in range(1, t):
        if t % d == 0:
            poly = poly.exact_div(cyclotomic(d))
    return poly


def cyclo_split(exponents: dict[int, int]) -> tuple[IntPolynomial, IntPolynomial]:
    """(numerator, denominator) of prod Phi_t^e_t as dense products of powers."""
    num = ONE
    den = ONE
    for t in sorted(exponents):
        e = exponents[t]
        if e > 0:
            num = num * cyclotomic(t) ** e
        elif e < 0:
            den = den * cyclotomic(t) ** (-e)
    return num, den


def scan_core_threshold(n: int, m: int, q_max: int) -> ScanReport:
    """The integrality scan of h(q) = [n,m]_q / omega, one Fraction per q."""
    i = gcd(m, n - m + 1)
    entries = []
    largest = None
    for q in prime_powers_upto(q_max):
        value = Fraction(gaussian_binomial_int(n, m, q), omega_int(n, m, q))
        whole = value.denominator == 1
        entries.append(ScanEntry(q, whole, value.numerator, value.denominator))
        if whole:
            largest = q
    return ScanReport(n, m, q_max, i, i >= 2, tuple(entries), largest)
