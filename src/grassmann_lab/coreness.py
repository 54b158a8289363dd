"""Exact clique and colouring searches, independence bounds and coreness verdicts.

The solvers are deliberately small: a Tomita-style branch-and-bound with a
greedy colour bound for maximum clique; an exact cover for colourings
invariant under a certified free cyclic group; and a clique-seeded DSATUR
backtracking search for colourings that picks its next vertex from
per-saturation-level bitsets, tests a colour by one AND of its
neighbourhood bitset with the vertex's bit, and backtracks at once from a
vertex that sees all k colours.  All run on explicit stacks, so no search
depth touches the interpreter's recursion limit, and all stop at a node
budget (config.NODE_BUDGET unless the caller passes one); on exhaustion
the coreness verdict degrades to an honest "undetermined", never a hang.
The independence number is bracketed by a greedy independent set and the
free |V|/omega cap, with no search.  Tie-breaking is always by smallest
vertex id, and the exact cover's row orders come from string-seeded
random.Random instances, so witnesses are reproducible.

A graph in this family is a core exactly when its chromatic number
exceeds its clique number (every endomorphism is an automorphism or a
colouring), so core_test asks one question, whether an omega-colouring
exists.  For 2m <= n each class of one is an S_q[m-1, m, n] system, a
set of m-spaces that holds every (m-1)-space once (a line spread when
m = 2).  The orbit search looks first for omega-colourings whose classes
are the images of r base classes under a cyclic group H of order
omega/r that acts freely on the vertices, with H = <diag(I, C)> for a
companion matrix C and its freeness checked on the graph's own vertex
permutation; DSATUR at k = omega then gets the nodes it left.
CorenessReport.verdict reads the answer off the bounds on chi, which
core_test's stages only tighten.  An omega-colouring gives alpha, and
composed with a maximum clique it is a witness endomorphism; when none
turns up, alpha keeps its bracket.  A star (or, when n < 2m, a top) is a
maximum clique by the size formulas, so the colouring search is seeded
without any branch and bound.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from itertools import product

from .arith import prime_power_base
from .config import (
    NODE_BUDGET,
    SEARCH_BOUND,
    BoundExceeded,
    SearchBudgetExceeded,
    check_decimal_digits,
    check_power_digits,
)
from .field import FieldSpec, make_field
from .graph import GrassmannGraph, bits, build_graph, induced_permutation, map_bitset
from .qpoly import gaussian_binomial_int, h_integrality, omega_int
from .subspaces import _row_span


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

    Each search node greedily colours its candidate set P and branches on
    its vertices in reverse colouring order until the colour bound cannot
    beat the best clique.  Nodes are frames [branch order, P] on an
    explicit stack, and R holds the vertex each open child branched on.
    Raises SearchBudgetExceeded when a node budget is given and exhausted.
    """
    best: list[int] = []
    R: list[int] = []
    stack: list[list] = []
    nodes = 0

    def enter(P: int):
        nonlocal nodes
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise SearchBudgetExceeded(f"clique search exceeded {node_budget} nodes")
        stack.append([_greedy_colour_order(adj, P), P])

    enter((1 << nv) - 1)
    while stack:
        frame = stack[-1]
        order = frame[0]
        if order and len(R) + order[-1][1] > len(best):
            v = order.pop()[0]
            R.append(v)
            newP = frame[1] & adj[v]
            frame[1] ^= 1 << v
            if newP:
                enter(newP)
                continue
            if len(R) > len(best):
                best = R[:]
            R.pop()
            continue
        stack.pop()  # branches exhausted or bounded away
        if stack:
            R.pop()
    return sorted(best)


def omega_exact(
    G: GrassmannGraph, bound: int = SEARCH_BOUND, node_budget: int = NODE_BUDGET
) -> int:
    """Clique number by branch and bound; must agree with the size formula."""
    if G.num_vertices > bound:
        raise BoundExceeded(f"graph too large for exact search: {G.num_vertices} > {bound}")
    clique = max_clique_bitset(G.adjacency, G.num_vertices, node_budget)
    expected = omega_int(G.n, G.m, G.spec.q)
    if len(clique) != expected:
        raise AssertionError(
            f"brute-force clique number {len(clique)} != formula value {expected}"
        )
    return len(clique)


def structural_max_clique(G: GrassmannGraph) -> list[int]:
    """A maximum clique read off the graph's catalogs, no search.

    The star over the canonically first (m-1)-space has clique-number
    size when n >= 2m; otherwise the top inside the first (m+1)-space
    does.  Both are the first entries of G.stars and G.tops, which are
    built once per graph and shared with the structure checks.
    """
    return list((G.stars if G.n >= 2 * G.m else G.tops)[0].members)


def alpha_exact(G: GrassmannGraph):
    """Independence number when it is free, else the pair (lower, upper).

    A greedy independent set (the first class of _greedy_colour_order:
    lowest vertex first, its neighbours dropped) and the |V| // omega cap
    (the vertex-transitive inequality |V|/alpha >= omega rearranged)
    bracket alpha; when they meet, that is alpha.  For 2m <= n an
    independent set at the cap is a q-Steiner system S_q[m-1, m, n], so
    no search is run for one.
    """
    nv = G.num_vertices
    greedy = sum(c == 1 for _, c in _greedy_colour_order(G.adjacency, (1 << nv) - 1))
    upper = nv // omega_int(G.n, G.m, G.spec.q)
    return greedy if greedy == upper else (greedy, upper)


# -- colouring search -------------------------------------------------


def validate_colouring(adj, colours, k: int) -> None:
    for i, c in enumerate(colours):
        if not 0 <= c < k:
            raise ValueError(f"vertex {i} has colour {c} outside 0..{k - 1}")
        for j in bits(adj[i] >> (i + 1) << (i + 1)):
            if colours[j] == c:
                raise ValueError(f"improper colouring: adjacent pair ({i}, {j}) share colour {c}")


def find_colouring(
    adj,
    nv: int,
    k: int,
    seed=(),
    node_budget: int = NODE_BUDGET,
) -> list[int] | None:
    """Search for a proper k-colouring by DSATUR-ordered backtracking.

    The seed vertices (a clique) take colours 0, 1, ... up front, which
    removes all colour symmetry.  The next vertex is the uncoloured one of
    highest saturation, then degree, then smallest id: once vertices are
    relabelled by (-degree, id), the lowest bit of the highest non-empty
    saturation level.  Colour c is free at v when seen[c], the union of the
    neighbourhoods of colour c, misses vb = 1 << v; a vertex at saturation k
    is a dead end and backtracks with no colour scan.  Backtracking keeps one
    frame per coloured vertex on an explicit stack, holding its colour and
    what it takes to undo it; each colour tried is a node.  Returns the
    colour table, or None when the exhaustive search proves no k-colouring
    exists; raises SearchBudgetExceeded when the node budget runs out first.
    """
    if len(seed) > k:
        return None
    order = sorted(range(nv), key=lambda v: (-adj[v].bit_count(), v))
    rank = [0] * nv
    for r, v in enumerate(order):
        rank[v] = r
    nadj = [map_bitset(rank, adj[v]) for v in order]
    seen = [0] * (k + 1)  # seen[k] stays 0, so every colour scan stops by k
    uncoloured = (1 << nv) - 1
    for c, v in enumerate(seed):
        v = rank[v]
        seen[c] = nadj[v]
        uncoloured ^= 1 << v
    sat = [0] * nv
    for row in seen:
        for u in bits(row & uncoloured):
            sat[u] += 1
    level = [0] * (k + 1)  # uncoloured vertices by saturation
    for u in bits(uncoloured):
        level[sat[u]] |= 1 << u
    stack = []  # per coloured vertex: (v, 1 << v, c, top, seen[c], level[:top + 2]) before it
    nodes = 0
    top = len(seed)  # no saturation level above this one is occupied
    while uncoloured:
        while not level[top]:
            top -= 1
        vb = level[top] & -level[top]
        v = vb.bit_length() - 1
        c = 0 if top < k else k  # at level k no colour is free: backtrack at once
        while True:
            while seen[c] & vb:
                c += 1
            if c < k:
                break
            if not stack:
                return None
            v, vb, c, top, seen[c], levels = stack.pop()
            level[: top + 2] = levels  # colouring v changed no level above top + 1
            uncoloured |= vb
            c += 1
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetExceeded(f"colouring search exceeded {node_budget} nodes")
        s = seen[c]
        stack.append((v, vb, c, top, s, level[: top + 2]))
        uncoloured ^= vb
        level[top] ^= vb
        row = nadj[v]
        seen[c] = s | row
        newly = row & uncoloured & ~s  # these now see c: one level up
        t = top
        while newly:
            moved = level[t] & newly
            if moved:
                level[t] ^= moved
                level[t + 1] |= moved
                newly ^= moved
            t -= 1
        top += 1
    table = [-1] * nv
    for c, v in enumerate(seed):
        table[v] = c
    for v, _, c, *_ in stack:
        table[order[v]] = c
    validate_colouring(adj, table, k)
    return table


# -- orbit colourings -------------------------------------------------

# The orbit search's restart policy.  Its search times are heavy-tailed,
# so a restart with a fresh row order beats a deep dive; and each node
# scans every open item, up to 0.5 ms a node at a few thousand vertices,
# so the search stops after _RESTARTS restarts and leaves the rest of the
# shared budget to DSATUR.
_RESTART_NODES = 4000
_RESTARTS = 8


def _order_mod(q: int, s: int) -> int:
    """The multiplicative order of q modulo s (q coprime to s)."""
    d, x = 1, q % s
    while x != 1:
        x = x * q % s
        d += 1
    return d


def _orbit_ids(perm: list[int], s: int, start: int = 0) -> list[int] | None:
    """Each element's orbit number under the cyclic group perm generates.

    Orbits are numbered by least member, over the elements from start on;
    None unless perm maps those elements as cycles of length exactly s.
    """
    orbit = [-1] * len(perm)
    orbits = 0
    for v in range(start, len(perm)):
        if orbit[v] >= 0:
            continue
        u = v
        for _ in range(s):
            if orbit[u] >= 0:  # a shorter cycle, or not a permutation
                return None
            orbit[u] = orbits
            u = perm[u]
        if u != v:
            return None
        orbits += 1
    return orbit


def _cyclic_candidate(spec: FieldSpec, n: int, s: int) -> list[list[int]] | None:
    """The rows of h = diag(I, C) in GL(n, q), with C of order s, or None.

    C is the companion matrix of the first monic f of degree d = ord_s(q)
    (coefficients low degree first, in int order) under which C permutes
    the nonzero vectors of GF(q)^d in cycles of length s: then f is
    irreducible and its root has order s.  None when d > n - 1, so that
    h would fix no vector, or when no f of degree d qualifies.
    """
    q = spec.q
    d = _order_mod(q, s)
    if d > n - 1:
        return None
    shift = [[int(j == i + 1) for j in range(d)] for i in range(d - 1)]  # e_i -> e_{i+1}
    for low in product(range(q), repeat=d):
        C = shift + [[spec.neg(c) for c in low]]  # e_{d-1} -> -(c_0 e_0 + ... + c_{d-1} e_{d-1})
        if low[0] and _orbit_ids(_row_span(spec, C, {}), s, start=1) is not None:
            eye = [[int(i == j) for j in range(n)] for i in range(n - d)]
            return eye + [[0] * (n - d) + row for row in C]
    return None


def _free_cyclic_group(G: GrassmannGraph, s: int) -> tuple[list[int], list[int]] | None:
    """The vertex permutation of _cyclic_candidate's h and its orbits, or None.

    h is used only when the vertex permutation it induces on G
    (graph.induced_permutation) is a bijection whose cycles all have
    length s, so <h> acts freely on the vertices; any other candidate is
    refused, never trusted.
    """
    rows = _cyclic_candidate(G.spec, G.n, s)
    perm = None if rows is None else induced_permutation(G, rows)
    orbit = None if perm is None else _orbit_ids(perm, s)
    return None if orbit is None else (perm, orbit)


def _steiner_admissible(n: int, m: int, q: int) -> bool:
    """Whether an S_q[m-1, m, n] passes its divisibility conditions past |V|/omega.

    The blocks through an i-space, 0 < i < m, number
    [n-i, m-1-i]_q / [m-i, 1]_q, which must be an integer; i = 0 is
    |V|/omega itself.  Every condition holds at m = 2.
    """
    return all(
        gaussian_binomial_int(n - i, m - 1 - i, q) % gaussian_binomial_int(m - i, 1, q) == 0
        for i in range(1, m)
    )


def _exact_cover(rows: list[int], limit: int) -> tuple[list[int] | None, int, bool]:
    """Rows that cover every item of rows exactly once, rows[0] among them.

    Each row is an int bitset of items.  The search picks the uncovered
    item with the fewest live rows (the lowest such item on ties) and
    tries its rows in index order, on an explicit stack; each row tried
    is a node.  Returns (row indices or None, nodes, cut), where cut says
    the search stopped after limit nodes rather than deciding.
    """
    universe = reduce(int.__or__, rows)
    item_rows = [0] * universe.bit_length()
    for j, row in enumerate(rows):
        for i in bits(row):
            item_rows[i] |= 1 << j
    clash = [reduce(int.__or__, map(item_rows.__getitem__, bits(row))) for row in rows]
    uncovered = universe & ~rows[0]
    alive = ((1 << len(rows)) - 1) & ~clash[0]
    chosen = [0]
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


def orbit_colouring(
    G: GrassmannGraph, node_budget: int = NODE_BUDGET
) -> tuple[list[int] | None, int, int]:
    """An omega-colouring of G (2m <= n) invariant under a certified free cyclic H.

    Its classes are S_q[m-1, m, n] systems, so the search is skipped when
    those fail _steiner_admissible.  H = <h> is the first
    _free_cyclic_group over the divisors s > 1 of omega, largest first,
    and r = omega/s.  One vertex per H-orbit is spread over r base classes
    that each meet every star exactly once: an exact cover whose items are
    r copies of the stars plus one slot per orbit, and whose rows are the
    pairs (vertex, base).  Then the images of the bases under H are omega
    classes that each meet every star once and together hold each vertex
    once, so vertex h^i(v) of base b takes colour b*s + i.  Vertex 0 sits
    in base 0 (relabel the bases and apply a power of h to one), and
    restart j tries the other rows in the order of
    random.Random(f"{q},{n},{m},{j}"), for at most _RESTART_NODES nodes
    of node_budget, over at most _RESTARTS restarts.  Returns (colouring
    or None, |H| or 0 when no search ran, nodes used); None means the
    nodes ran out or no H-invariant colouring exists, never that no
    omega-colouring does.
    """
    n, m, q = G.n, G.m, G.spec.q
    if 2 * m > n:
        raise ValueError("the stars are the maximum cliques only when 2m <= n")
    k = omega_int(n, m, q)
    if not _steiner_admissible(n, m, q):
        return None, 0, 0
    for s in (s for s in range(k, 1, -1) if k % s == 0):
        group = _free_cyclic_group(G, s)
        if group is not None:
            break
    else:
        return None, 0, 0
    perm, orbit = group
    r = k // s
    width = len(G.stars)
    through = [0] * G.num_vertices
    for t, c in enumerate(G.stars):
        for v in c.members:
            through[v] |= 1 << t
    slot = r * width
    pairs = [(v, b) for b in range(r) for v in range(G.num_vertices)][1:]  # (0, 0) is fixed
    nodes = 0
    for j in range(_RESTARTS):
        random.Random(f"{q},{n},{m},{j}").shuffle(order := pairs[:])
        order.insert(0, (0, 0))
        rows = [through[v] << b * width | 1 << slot + orbit[v] for v, b in order]
        chosen, used, cut = _exact_cover(rows, min(_RESTART_NODES, node_budget - nodes))
        nodes += used
        if not cut or nodes == node_budget:
            break
    if chosen is None:
        return None, s, nodes
    colouring = [-1] * G.num_vertices
    for v, b in map(order.__getitem__, chosen):
        for i in range(s):
            colouring[v] = b * s + i
            v = perm[v]
    return colouring, s, nodes


# -- endomorphisms ---------------------------------------------------


@dataclass(frozen=True)
class Endomorphism:
    """A vertex map that must send edges to edges."""

    graph: GrassmannGraph
    mapping: tuple[int, ...]

    def image(self) -> set[int]:
        return set(self.mapping)

    def is_injective(self) -> bool:
        return len(self.image()) == len(self.mapping)


def validate_endomorphism(G: GrassmannGraph, mapping) -> Endomorphism:
    """Check that every value is a vertex id and every edge maps to an edge.

    Vertex i passes iff the image of its higher neighbours lies in
    adjacency[mapping[i]], which lacks mapping[i], so collapsed edges fail
    too; the error names the first broken edge (i, j).
    """
    mapping = tuple(mapping)
    nv = G.num_vertices
    if len(mapping) != nv:
        raise ValueError("mapping length differs from vertex count")
    for f in mapping:
        if not (isinstance(f, int) and 0 <= f < nv):
            raise ValueError(f"not a vertex map: image {f!r} is not a vertex id in 0..{nv - 1}")
    for i, fi in enumerate(mapping):
        higher = G.adjacency[i] >> (i + 1) << (i + 1)
        if map_bitset(mapping, higher) & ~G.adjacency[fi]:
            j = next(j for j in bits(higher) if not G.adjacent(fi, mapping[j]))
            raise ValueError(f"not an endomorphism: edge ({i}, {j}) breaks under the map")
    return Endomorphism(G, mapping)


def build_colouring_endomorphism(G: GrassmannGraph, colouring, clique) -> Endomorphism:
    """Send every vertex of colour i to the clique vertex of colour i.

    The clique must have one vertex per colour (automatic for a clique of
    size k under a proper k-colouring); the result collapses each colour
    class onto a single clique vertex, so its image is the clique.
    """
    k = max(colouring) + 1
    validate_colouring(G.adjacency, colouring, k)
    clique = list(clique)
    if len(clique) != k:
        raise ValueError(f"clique size {len(clique)} differs from colour count {k}")
    for i, u in enumerate(clique):
        for v in clique[i + 1 :]:
            if not G.adjacent(u, v):
                raise ValueError(f"not a clique: ({u}, {v}) not adjacent")
    by_colour: dict[int, int] = {}
    for v in clique:
        c = colouring[v]
        if c in by_colour:
            raise ValueError("clique vertices repeat a colour")
        by_colour[c] = v
    mapping = tuple(by_colour[colouring[v]] for v in range(G.num_vertices))
    return validate_endomorphism(G, mapping)


def classify_endomorphism(G: GrassmannGraph, e: Endomorphism) -> str:
    """'automorphism', 'colouring', or 'other'.

    Automorphism: bijective and adjacency-preserving in both directions.
    Colouring: the image induces a complete subgraph of clique-number
    size, making the map a proper omega-colouring onto a maximum clique.
    Anything else reports 'other' (on these graphs that indicates a bug
    or an invalid input map rather than a real third class).
    """
    validate_endomorphism(G, e.mapping)
    adj = G.adjacency
    if e.is_injective() and all(
        map_bitset(e.mapping, adj[i]) == adj[fi] for i, fi in enumerate(e.mapping)
    ):
        return "automorphism"
    img = sorted(e.image())
    omega = omega_int(G.n, G.m, G.spec.q)
    if len(img) == omega and all(
        G.adjacent(u, v) for i, u in enumerate(img) for v in img[i + 1 :]
    ):
        return "colouring"
    return "other"


# -- coreness verdicts -------------------------------------------------


@dataclass
class CorenessReport:
    """What core_test learned about J_q(n, m).

    num_vertices, omega, alpha and chi start at their free values: |V| =
    [n,m]_q, omega by its formula, alpha in (1, |V|//omega) and chi in
    (omega, |V|), or alpha = 1 and chi = omega = |V| on the complete graph
    (m = 1).  Each is evaluated on first read, so a report that prints none
    of them never evaluates [n,m]_q, and core_test's stages only tighten
    alpha and chi by assignment.
    """

    q: int
    n: int
    m: int
    integrality_value: Fraction | int | None = None
    evidence: list[str] = field(default_factory=list)
    witness: Endomorphism | None = None
    witness_class: str | None = None

    @cached_property
    def num_vertices(self) -> int:
        return gaussian_binomial_int(self.n, self.m, self.q)

    @cached_property
    def omega(self) -> int:
        # [n,1]_q: one star holds every vertex
        return self.num_vertices if self.m == 1 else omega_int(self.n, self.m, self.q)

    @cached_property
    def alpha(self):
        """int, or (lower, upper)."""
        return 1 if self.m == 1 else (1, self.num_vertices // self.omega)

    @cached_property
    def chi(self):
        """int, or (lower, upper)."""
        return self.omega if self.m == 1 else (self.omega, self.num_vertices)

    @property
    def chi_lower(self) -> int:
        return self.chi if isinstance(self.chi, int) else self.chi[0]

    @property
    def verdict(self) -> str:
        """Core when chi > omega or the graph is complete; not-core when chi = omega."""
        if self.m == 1 or self.chi_lower > self.omega:
            return "core"
        return "not-core" if self.chi == self.omega else "undetermined"


def core_test(
    n: int,
    m: int,
    q: int,
    search_bound: int = SEARCH_BOUND,
    node_budget: int = NODE_BUDGET,
) -> CorenessReport:
    """Decide core / not-core / undetermined for J_q(n, m).

    Cascade: alpha and chi start at their free bounds (CorenessReport), and
    each stage only tightens them and adds its evidence.  (1) m = 1 is the
    complete graph, decided without evaluating |V|; (2) a non-integral
    |V|/omega gives chi > omega; (3) past the search bound chi stays open;
    (4) branch and bound confirms omega, under a node_budget of its own;
    (5) orbit_colouring looks for an omega-colouring invariant under a
    certified free cyclic group, and one it finds is the witness (chi =
    omega, with no evidence line when it finds none); (6) otherwise the
    clique-seeded DSATUR search at k = omega finds an omega-colouring
    (chi = omega), refutes one (chi > omega), or runs out of budget.  The
    orbit search refutes only invariant colourings, so it never raises
    chi, and it shares node_budget with DSATUR, which gets the nodes it
    left.  An omega-colouring composed with a star is the witness
    endomorphism; without one, alpha keeps its free bracket (greedy,
    |V|/omega), which cannot raise chi past omega since |V|/omega is then
    an integer.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    p_e = prime_power_base(q)
    if p_e is None:
        raise ValueError(f"{q} is not a prime power")
    if not 2 * m <= n:
        raise ValueError("need 2m <= n (the graph is isomorphic to its complement-dimension twin)")
    if m > 1:  # h's numerator is at least h > q^((m-1)(n-m))/2 >= q^((m-1)(n-m)-1)
        check_power_digits(q, (m - 1) * (n - m) - 1, f"|V|/omega for J_{q}({n},{m})")

    rep = CorenessReport(q, n, m)
    if m == 1:
        rep.evidence.append("complete graph: every endomorphism permutes the vertices")
        return rep
    nv, omega = rep.num_vertices, rep.omega

    value = h_integrality(n, m, q)
    rep.integrality_value = value
    # the evidence below prints h(q) = |V|/omega, and |V| past the search bound
    check_decimal_digits(value.numerator, f"|V|/omega for J_{q}({n},{m})")
    if isinstance(value, Fraction):
        rep.chi = (omega + 1, nv)
        rep.evidence.append(f"|V|/omega = {value} is not an integer, so the graph is a core")
        return rep
    rep.evidence.append(f"|V|/omega = {value} is an integer; integrality test inconclusive")

    if nv > search_bound:
        check_decimal_digits(nv, f"the vertex count of J_{q}({n},{m})")
        rep.evidence.append(
            f"graph exceeds the exact-search bound ({nv} > {search_bound}); "
            "chromatic number left open"
        )
        return rep

    spec = make_field(*p_e)
    G = build_graph(spec, n, m, max_vertices=search_bound)
    clique = structural_max_clique(G)  # a star, since 2m <= n
    try:
        omega_exact(G, bound=search_bound, node_budget=node_budget)
        rep.evidence.append(f"branch and bound confirms clique number {omega}")
    except SearchBudgetExceeded:
        rep.evidence.append(
            "clique branch and bound hit its node budget; clique number taken from the formula"
        )

    colouring, order, nodes = orbit_colouring(G, node_budget)
    if colouring is not None:
        rep.evidence.append(
            f"orbit search found a {omega}-colouring invariant under a certified free "
            f"cyclic group H (|H| = {order}, base classes r = {omega // order}, "
            f"nodes {nodes} of {node_budget})"
        )
    else:
        try:  # DSATUR gets the nodes the orbit search left
            colouring = find_colouring(G.adjacency, nv, omega, clique, node_budget - nodes)
        except SearchBudgetExceeded:
            rep.evidence.append("colouring search budget exhausted before a decision")
        else:
            if colouring is None:
                rep.chi = (omega + 1, nv)
                rep.evidence.append(
                    f"exhaustive search proves no {omega}-colouring exists, so chi > omega"
                )
    if colouring is None:
        rep.alpha = alpha_exact(G)
        return rep

    rep.chi = omega
    # no independent set beats |V|/omega (clique-coclique), so the largest class is alpha
    rep.alpha = max(Counter(colouring).values())
    if rep.alpha * omega != nv:
        raise AssertionError(f"an {omega}-colouring's largest class is not |V|/omega")
    rep.witness = build_colouring_endomorphism(G, colouring, clique)
    rep.witness_class = classify_endomorphism(G, rep.witness)
    rep.evidence.append(
        f"found a proper {omega}-colouring; composing it with a maximum clique "
        "gives a non-injective endomorphism"
    )
    rep.evidence.append(
        f"witness endomorphism classified as '{rep.witness_class}' with image a star; "
        "consistent with the pseudo-core dichotomy (every endomorphism is an "
        "automorphism or a colouring)"
    )
    return rep
