"""Independent reference implementations used to check the library.

Everything here deliberately avoids the code paths under test: ranks
come from minor enumeration, distances from BFS (and the formula it is
checked against from common mask vectors), subspace membership and
containment from brute-force span enumeration, the canonical basis of
a row space from Gaussian elimination (rref, canonicalize), orthogonal
complements from the null space by that elimination, the fixture colouring
from the spans of its raw rows, the enumeration order from a key read
off the RREF bases, Grassmann adjacency from a popcount test on every
pair of vertex masks, a vertex's degree from a count of the masks that
meet its mask in an (m-1)-space, colour classes checked against every
star from those masks, field properties from exhaustive loops, and graph
dumps from one [i, j] list per edge.  The search kernels are the
straightforward recursive versions of the library's iterative,
bitset-driven ones, the exact cover is the orbit stage's own as it stood
when it built every row's clash set before its search, and the
q-polynomial references at the end are schoolbook polynomial arithmetic
(its product is the reference for the library's packed product test),
the dense polynomial products, the recursive cyclotomic division, the
Fraction-based scan and the Steiner divisibility numbers from the
q-binomial product formula, with the polynomial helpers they need: exact
division, monicity and the expansion of a cyclotomic factorization.
Colourings and endomorphisms are checked one edge at a time, against
the library's checks on whole colour classes and preimage sets.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from math import gcd

from grassmann_lab import report
from grassmann_lab.arith import prime_powers_upto
from grassmann_lab.config import NODE_BUDGET, SearchBudgetExceeded
from grassmann_lab.graph import bits
from grassmann_lab.qpoly import (
    CycloFactorization,
    IntPolynomial,
    ScanReport,
    gaussian_binomial_int,
    omega_int,
)
from grassmann_lab.subspaces import FqMatrix, Subspace, span_table


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


def span_list(spec, rows, n: int) -> list[tuple[int, ...]]:
    """sum_i c_i * row_i at each coefficient position c_0 + c_1*q + ...,
    by enumerating coefficient tuples.

    The combinations of the first i rows are extended by every multiple of
    row i + 1, so each tuple costs one vector addition.
    """
    out = [tuple(0 for _ in range(n))]
    for row in rows:
        multiples = [tuple(spec.mul(c, y) for y in row) for c in range(1, spec.q)]
        out += [tuple(map(spec.add, v, m)) for m in multiples for v in out]
    return out


def span_vectors(spec, rows, n: int) -> frozenset:
    """All vectors in the row span."""
    return frozenset(span_list(spec, rows, n))


def span_codes(spec, rows, n: int) -> list[int]:
    """The code sum_j v_j q^j of each vector of span_list, in its order."""
    return [sum(x * spec.q**j for j, x in enumerate(v)) for v in span_list(spec, rows, n)]


def mask_by_enumeration(spec, S) -> int:
    """The vector mask of S: bit sum_j v_j q^j for every member v of its span."""
    return _span_mask(spec, S.basis.rows, S.ambient)


def _span_mask(spec, rows, n: int) -> int:
    mask = 0
    for v in span_vectors(spec, rows, n):
        mask |= 1 << sum(x * spec.q**j for j, x in enumerate(v))
    return mask


def degree_by_masks(G, i: int) -> int:
    """The number of vertex masks meeting vertex i's in q^(m-1) vectors: its neighbours."""
    mask, common = G.masks[i], G.spec.q ** (G.m - 1)
    return sum((mask & x).bit_count() == common for x in G.masks)


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


def fixture_vertices(G, fx) -> dict:
    """Each fixture label's vertex: the one whose mask is the enumerated span of
    its raw matrix rows, with no canonical form and no fixture check."""
    return {
        label: G.index[_span_mask(G.spec, [[int(ch, 36) for ch in row] for row in rows], G.n)]
        for label, rows in fx.matrices.items()
    }


def fixture_colouring(G, fx) -> list[int]:
    """The colour table of the fixture sets: the k-th set in (length, name) order
    has colour k, on the vertices of fixture_vertices."""
    vertex = fixture_vertices(G, fx)
    colours = [-1] * G.num_vertices
    for c, name in enumerate(sorted(fx.sets, key=lambda s: (len(s), s))):
        for label in fx.sets[name]:
            colours[vertex[label]] = c
    return colours


def matrix_digits(S) -> list[str]:
    """S's RREF basis rows as digit strings, one entry at a time."""
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
        "vertices": [{"id": i, "matrix": matrix_digits(v)} for i, v in enumerate(G.vertices)],
        "edges": [[i, j] for i in range(G.num_vertices) for j in bits(G.adjacency[i]) if j > i],
    }


def graph_to_dot(G) -> str:
    """The DOT dump, one line per vertex and then one per edge i < j."""
    lines = ["graph grassmann {"]
    for i, v in enumerate(G.vertices):
        lines.append(f'  v{i} [label="v{i}", tooltip="{"/".join(matrix_digits(v))}"];')
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


def distance_by_masks(G, i: int, j: int) -> int:
    """m - dim(X intersect Y), the path distance in J_q(n, m), from common mask vectors."""
    common = (G.masks[i] & G.masks[j]).bit_count()
    d = 0
    while G.spec.q**d < common:
        d += 1
    assert G.spec.q**d == common, "common vectors do not form a subspace"
    return G.m - d


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


def enumerate_subspaces(spec, n: int, k: int) -> list:
    """The k-spaces of GF(q)^n in the library's order: subspaces.span_table's
    spaces, without the table.  Not independent of the library; the tests
    check its order with enumeration_key and each basis with is_rref."""
    return span_table(spec, n, k)[0]


def matrix(spec, rows, cols: int | None = None) -> FqMatrix:
    """An FqMatrix from unchecked rows, validating shape and entry ranges."""
    rs = tuple(tuple(r) for r in rows)
    if cols is None:
        if not rs:
            raise ValueError("column count required for empty matrix")
        cols = len(rs[0])
    if cols < 1:
        raise ValueError("need at least one column")
    for row in rs:
        if len(row) != cols:
            raise ValueError("ragged rows")
        for x in row:
            if not 0 <= x < spec.q:
                raise ValueError(f"entry {x} outside field of size {spec.q}")
    return FqMatrix(spec, rs, cols)


def rref(M):
    """Reduced row echelon form with zero rows removed, by Gauss-Jordan elimination.

    Returns (R, rank, pivot_cols); the row space of R equals that of M and
    R is its unique canonical basis, so two matrices span the same space
    iff their RREFs are equal.
    """
    spec = M.spec
    rows = [list(r) for r in M.rows]
    pivots: list[int] = []
    for c in range(M.cols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        s = spec.inv(rows[r][c])
        rows[r] = row = [spec.mul(s, x) for x in rows[r]]
        for i in range(len(rows)):
            t = rows[i][c]
            if t and i != r:
                nt = spec.neg(t)
                rows[i] = [spec.add(x, spec.mul(nt, y)) for x, y in zip(rows[i], row)]
        pivots.append(c)
    rank = len(pivots)
    return matrix(spec, rows[:rank], M.cols), rank, pivots


def canonicalize(M) -> Subspace:
    """The subspace spanned by the rows of M (any spanning set), by its RREF basis."""
    R, rk, _ = rref(M)
    return Subspace(M.spec, M.cols, rk, R)


def subspace_from_digits(spec, rows) -> Subspace:
    """canonicalize of matrix rows given as digit strings, 0-9 then a-z per entry,
    as the graph dumps and the fixture file write them."""
    return canonicalize(matrix(spec, [[int(ch, 36) for ch in row] for row in rows]))


def null_space(M):
    """Canonical basis of the right kernel {v : M v^T = 0}, by elimination."""
    spec = M.spec
    R, rk, pivots = rref(M)
    pivot_set = set(pivots)
    free = [j for j in range(M.cols) if j not in pivot_set]
    rows = []
    for j in free:
        v = [0] * M.cols
        v[j] = 1
        for i, pc in enumerate(pivots):
            v[pc] = spec.neg(R.rows[i][j])
        rows.append(v)
    K, krank, _ = rref(matrix(spec, rows, M.cols))
    assert krank == M.cols - rk, "null space dimension disagrees with the rank"
    return K


def dual_complement(W):
    """All vectors orthogonal to W under the standard bilinear form: the
    null space of its basis."""
    K = null_space(W.basis)
    return Subspace(W.spec, W.ambient, len(K.rows), K)


def enumeration_key(S):
    """(pivot columns, free entries row-major by coefficient vector) of an RREF
    basis: enumerate_subspaces lists each level in ascending order of this key."""
    rows = S.basis.rows
    pivots = tuple(next(j for j, x in enumerate(row) if x) for row in rows)
    free = tuple(
        S.spec.coeffs(x)
        for row, p in zip(rows, pivots)
        for j, x in enumerate(row)
        if j > p and j not in pivots
    )
    return pivots, free


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


# -- certificate checks, one edge at a time ------------------------------


def validate_colouring(adj, colours, k: int) -> None:
    """Raise the library's ValueError for the first vertex, in order, whose colour
    is outside 0..k-1 or equals the colour of a higher neighbour."""
    for i, c in enumerate(colours):
        if not 0 <= c < k:
            raise ValueError(f"vertex {i} has colour {c} outside 0..{k - 1}")
        for j in bits(adj[i]):
            if j > i and colours[j] == c:
                raise ValueError(f"improper colouring: adjacent pair ({i}, {j}) share colour {c}")


def first_broken_edge(adj, mapping) -> tuple[int, int] | None:
    """The first edge (i, j), i < j, in vertex order whose image is not an edge
    (collapsed ends included), or None for an endomorphism."""
    for i, row in enumerate(adj):
        for j in bits(row):
            if j > i and not adj[mapping[i]] >> mapping[j] & 1:
                return i, j
    return None


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


# -- exact cover ------------------------------------------------------
#
# The orbit stage's exact cover as it stood when it built every row's
# clash set before the search, kept verbatim as the reference: the kernel
# that builds a clash set when its row is first chosen must return the
# same rows, node counts and cuts.


def exact_cover(rows: list[int], items: int, limit: int) -> tuple[list[int] | None, int, bool]:
    """Rows that cover each of the items 0..items-1 exactly once.

    Each row is an int bitset of items.  The search picks the uncovered
    item with the fewest live rows (the lowest such item on ties) and
    tries its rows in index order, on an explicit stack; each row tried
    is a node.  Returns (row indices or None, nodes, cut), where cut says
    the search stopped after limit nodes rather than deciding.
    """
    item_rows = [0] * items
    for j, row in enumerate(rows):
        for i in bits(row):
            item_rows[i] |= 1 << j
    clash = [reduce(int.__or__, map(item_rows.__getitem__, bits(row))) for row in rows]
    uncovered = (1 << items) - 1
    alive = (1 << len(rows)) - 1
    chosen = []
    stack = []  # per open choice: (rows left to try, alive, uncovered) before it
    nodes = 0
    while uncovered:
        fewest = len(rows) + 1
        x = uncovered
        while x:
            low = x & -x
            x ^= low
            live = item_rows[low.bit_length() - 1] & alive
            size = live.bit_count()
            if size < fewest:
                fewest, cand = size, live
                if size < 2:
                    break
        stack.append((cand, alive, uncovered))
        chosen.append(0)
        while not stack[-1][0]:
            stack.pop()
            chosen.pop()
            if not stack:
                return None, nodes, False
        cand, alive, uncovered = stack[-1]
        low = cand & -cand
        stack[-1] = (cand ^ low, alive, uncovered)
        if nodes == limit:
            return None, nodes, True
        nodes += 1
        j = chosen[-1] = low.bit_length() - 1
        alive &= ~clash[j]
        uncovered &= ~rows[j]
    return chosen, nodes, False


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

ONE = IntPolynomial((1,))
Q = IntPolynomial((0, 1))


def poly_add(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    a, b = sorted((a.coeffs, b.coeffs), key=len, reverse=True)
    return IntPolynomial([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])


def poly_neg(p: IntPolynomial) -> IntPolynomial:
    return IntPolynomial([-c for c in p.coeffs])


def poly_sub(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    return poly_add(a, poly_neg(b))


def poly_mul(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """The schoolbook product, the reference for the library's packed product test."""
    if a.is_zero() or b.is_zero():
        return IntPolynomial()
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            out[i + j] += ca * cb
    return IntPolynomial(out)


def poly_pow(p: IntPolynomial, k: int) -> IntPolynomial:
    result = ONE
    for _ in range(k):
        result = poly_mul(result, p)
    return result


def poly_eval(p: IntPolynomial, x: int) -> int:
    """p(x) by Horner's rule."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def exact_div(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """a / b, insisting on zero remainder."""
    q, r = divmod(a, b)
    if not r.is_zero():
        raise ValueError(f"{a} is not divisible by {b}")
    return q


def is_monic(p: IntPolynomial) -> bool:
    return bool(p.coeffs) and p.coeffs[-1] == 1


def expand(fac: CycloFactorization) -> IntPolynomial:
    """A factorization's product as one polynomial; it must have no negative exponents."""
    num, den = fac.split()
    if den != ONE:
        raise ValueError("factorization has negative exponents")
    return num


def x_power_minus_one(t: int) -> IntPolynomial:
    """q^t - 1."""
    return IntPolynomial([-1] + [0] * (t - 1) + [1])


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
        result = exact_div(poly_mul(result, x_power_minus_one(n + 1 - i)), x_power_minus_one(i))
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
            poly = exact_div(poly, cyclotomic(d))
    return poly


def cyclo_split(exponents: dict[int, int]) -> tuple[IntPolynomial, IntPolynomial]:
    """(numerator, denominator) of prod Phi_t^e_t as dense products of powers."""
    num = ONE
    den = ONE
    for t in sorted(exponents):
        e = exponents[t]
        if e > 0:
            num = poly_mul(num, poly_pow(cyclotomic(t), e))
        elif e < 0:
            den = poly_mul(den, poly_pow(cyclotomic(t), -e))
    return num, den


def _gaussian_binomial_product(a: int, b: int, q: int) -> Fraction:
    """[a, b]_q as the product of (q^(a-j) - 1)/(q^(j+1) - 1) over j < b."""
    value = Fraction(1)
    for j in range(b):
        value *= Fraction(q ** (a - j) - 1, q ** (j + 1) - 1)
    return value


def steiner_lambdas(n: int, m: int, q: int) -> list[Fraction]:
    """lambda_i = [n-i, m-1-i]_q / [m-i, 1]_q for i = 0..m-1, from the product formula.

    An S_q[m-1, m, n] has lambda_i blocks through each i-space, so it
    exists only if every lambda_i is an integer; lambda_0 = |V|/omega.
    """
    return [
        _gaussian_binomial_product(n - i, m - 1 - i, q) / _gaussian_binomial_product(m - i, 1, q)
        for i in range(m)
    ]


def scan_core_threshold(n: int, m: int, q_max: int) -> ScanReport:
    """The integrality scan of h(q) = [n,m]_q / omega, one Fraction per q."""
    i = gcd(m, n - m + 1)
    entries = []
    largest = None
    for q in prime_powers_upto(q_max):
        value = Fraction(gaussian_binomial_int(n, m, q), omega_int(n, m, q))
        entries.append((q, value.numerator, value.denominator))
        if value.denominator == 1:
            largest = q
    return ScanReport(n, m, q_max, i, i >= 2, tuple(entries), largest)


def scan_records(rows) -> list[dict]:
    """The scan rows (q, numerator, denominator) as one {"q", "is_integer", "value"} dict each."""
    return [
        {"q": q, "is_integer": den == 1, "value": str(num) if den == 1 else f"{num}/{den}"}
        for q, num, den in rows
    ]


def scan_report_dict(rep: ScanReport) -> dict:
    """The JSON dict of a scan report, one dict per entry."""
    return {
        "n": rep.n,
        "m": rep.m,
        "q_max": rep.q_max,
        "gcd": rep.gcd_value,
        "applicable": rep.applicable,
        "largest_integer_q": rep.largest_integer_q,
        "entries": scan_records(rep.entries),
    }


def with_scan_records(data):
    """A copy of a JSON payload tree with every scan-row tuple of report.scan_report_dict as
    its record dicts, so json.dumps of it gives the bytes report.to_json writes."""
    if type(data) is report._ScanRows:
        return scan_records(data)
    if isinstance(data, dict):
        return {k: with_scan_records(v) for k, v in data.items()}
    if isinstance(data, (list, tuple)):
        return [with_scan_records(x) for x in data]
    return data
