"""Exact clique and colouring searches, independence bounds and coreness verdicts.

The solvers are deliberately small: a Tomita-style branch-and-bound with a
greedy colour bound for maximum clique, and a clique-seeded DSATUR
backtracking search for colourings that picks its next vertex from
per-saturation-level bitsets, tests a colour by one AND of its
neighbourhood bitset with the vertex's bit, and backtracks at once from a
vertex that sees all k colours.  Both run on explicit stacks, so no search
depth touches the interpreter's recursion limit, and both stop at the same
node budget (config.NODE_BUDGET unless the caller passes one); on
exhaustion the coreness verdict degrades to an honest "undetermined",
never a hang.
The independence number is bracketed by a greedy independent set and the
free |V|/omega cap, with no search.  Tie-breaking is always by smallest
vertex id, so witnesses are reproducible.

A graph in this family is a core exactly when its chromatic number
exceeds its clique number (every endomorphism is an automorphism or a
colouring), so core_test asks one question, whether an omega-colouring
exists, and is the only caller of the colouring search, once, at
k = omega.  CorenessReport.verdict reads the answer off the bounds on chi,
which core_test's stages only tighten.  An omega-colouring gives alpha,
and composed with a maximum clique it is a witness endomorphism; when
none turns up, alpha keeps its bracket.  A star (or, when n < 2m, a top)
is a maximum clique by the size formulas, so the colouring search is
seeded without any branch and bound.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .arith import prime_power_base
from .config import (
    NODE_BUDGET,
    SEARCH_BOUND,
    BoundExceeded,
    SearchBudgetExceeded,
    check_decimal_digits,
    check_power_digits,
)
from .field import make_field
from .graph import GrassmannGraph, bits, build_graph, map_bitset
from .qpoly import gaussian_binomial_int, h_integrality, omega_int


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
    q: int
    n: int
    m: int
    num_vertices: int
    omega: int
    alpha: object  # int, or (lower, upper)
    chi: object  # int, or (lower, upper)
    integrality_value: Fraction | int | None = None
    evidence: list[str] = field(default_factory=list)
    witness: Endomorphism | None = None
    witness_class: str | None = None

    @property
    def chi_lower(self) -> int:
        return self.chi if isinstance(self.chi, int) else self.chi[0]

    @property
    def verdict(self) -> str:
        """Core when chi > omega or the graph is complete; not-core when chi = omega."""
        if self.num_vertices == self.omega or self.chi_lower > self.omega:
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

    Cascade: alpha and chi start at (1, |V|//omega) and (omega, |V|), and
    each stage only tightens them and adds its evidence.  (1) m = 1 is the
    complete graph; (2) a non-integral |V|/omega gives chi > omega; (3) past
    the search bound chi stays open; (4) branch and bound confirms omega,
    and the clique-seeded colouring search at k = omega finds an
    omega-colouring (chi = omega, and a witness onto a star), refutes one
    (chi > omega), or runs out of budget, node_budget bounding each of the
    two searches; (5) without an omega-colouring, alpha keeps its free
    bracket (greedy, |V|/omega), which cannot raise chi past omega since
    |V|/omega is then an integer.
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

    nv = gaussian_binomial_int(n, m, q)
    omega = nv if m == 1 else omega_int(n, m, q)  # [n,1]_q: one star holds every vertex
    rep = CorenessReport(q, n, m, nv, omega, alpha=(1, nv // omega), chi=(omega, nv))
    if m == 1:
        rep.alpha, rep.chi = 1, nv
        rep.evidence.append("complete graph: every endomorphism permutes the vertices")
        return rep

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

    try:
        colouring = find_colouring(G.adjacency, nv, omega, clique, node_budget)
        if colouring is None:
            rep.chi = (omega + 1, nv)
            rep.evidence.append(
                f"exhaustive search proves no {omega}-colouring exists, so chi > omega"
            )
    except SearchBudgetExceeded:
        colouring = None
        rep.evidence.append("colouring search budget exhausted before a decision")
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
