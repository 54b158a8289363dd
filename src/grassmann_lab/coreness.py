"""Exact colouring searches, independence bounds and coreness verdicts.

The solvers are deliberately small: an exact cover for colourings
invariant under a certified free cyclic group, and a star-seeded DSATUR
backtracking search for colourings that picks its next vertex from
per-saturation-level bitsets, tests a colour by one AND of its
neighbourhood bitset with the vertex's bit, and backtracks at once from a
vertex that sees all k colours.  Neither builds a table its search does
not read: the exact cover builds a row's clash set when it first chooses
the row, and DSATUR relabels the vertices by (-degree, id) only when that
order is not the identity, which it is on every (regular) J_q(n, m).
Both run on explicit stacks, so no search depth touches the interpreter's
recursion limit, and both stop at one shared node budget
(config.NODE_BUDGET unless the caller passes one); on exhaustion the
coreness verdict degrades to an honest "undetermined", never a hang.  The
independence number is bracketed by a greedy independent set and the free
|V|/omega cap, with no search.  Tie-breaking is always by smallest vertex
id, and the exact cover tries its rows in enumeration order, so witnesses
are reproducible.

A graph in this family is a core exactly when its chromatic number
exceeds its clique number (every endomorphism is an automorphism or a
colouring), so core_test asks one question, whether an omega-colouring
exists.  For 2m <= n each class of one is an S_q[m-1, m, n] system, a
set of m-spaces that holds every (m-1)-space once (a line spread when
m = 2), with lambda_i = [n-i, m-1-i]_q / [m-i, 1]_q blocks through each
i-space, 0 <= i < m, so a lambda_i that is not an integer certifies a
core before any graph is built.  The orbit search looks first for
omega-colourings whose classes are the images of r base classes under a
free cyclic group H = <diag(I, C)> of order omega/r, C a companion
matrix, the bases fixed by the Frobenius map that normalises H, then by
nothing; both maps are checked on the graph's own vertex permutation,
and DSATUR at k = omega then gets the nodes the orbit search left.
CorenessReport.verdict reads the answer off the bounds on chi, which
core_test's stages only tighten.  An omega-colouring gives alpha, and
composed with a maximum clique it is a witness endomorphism; when none
turns up, alpha keeps its bracket.  For 2m <= n the star G.stars[0] is a
maximum clique, so the colouring search is seeded with no clique search:
a found colouring certifies the clique number by itself, and a refuted
one only after the census of maximal cliques has.

Each witness is checked once, whichever search found its colouring:
build_colouring_endomorphism composes the colouring with the clique and
passes the map to validate_endomorphism, which accepts it exactly when
the colouring is proper.  Neither search checks its own colouring, and
classify_endomorphism reads the checked map without checking it again.
The check runs on whole vertex sets, not edge by edge: each vertex is
tested against the pullback of its image's neighbourhood, computed once
per image vertex from its neighbours in the image (no other vertex has a
preimage), so a colouring endomorphism, whose image is an omega-clique,
costs O(V) big-int operations.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property, reduce
from itertools import accumulate, chain, product
from math import gcd
from typing import NamedTuple

from .arith import prime_power_base
from .config import (
    NODE_BUDGET,
    SEARCH_BOUND,
    SearchBudgetExceeded,
    check_decimal_digits,
    check_power_digits,
)
from .field import FieldSpec, make_field
from .graph import (
    GrassmannGraph,
    _adjacency_breaks,
    _orbits,
    bits,
    build_graph,
    classify_maximal_cliques,
    induced_permutation,
    map_bitset,
)
from .qpoly import gaussian_binomial_int, h_integrality, omega_int
from .subspaces import _row_span


# -- independence bounds ----------------------------------------------


def alpha_exact(G: GrassmannGraph):
    """Independence number when it is free, else the pair (lower, upper).

    A greedy independent set (lowest vertex first, its neighbours
    dropped) and the |V| // omega cap (the vertex-transitive inequality
    |V|/alpha >= omega rearranged) bracket alpha; when they meet, that is
    alpha.  For 2m <= n an independent set at the cap is a q-Steiner
    system S_q[m-1, m, n], so no search is run for one.
    """
    nv = G.num_vertices
    greedy, avail = 0, (1 << nv) - 1
    while avail:
        low = avail & -avail
        avail = (avail ^ low) & ~G.adjacency[low.bit_length() - 1]
        greedy += 1
    upper = nv // omega_int(G.n, G.m, G.spec.q)
    return greedy if greedy == upper else (greedy, upper)


# -- colouring search -------------------------------------------------


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
    saturation level.  On a regular graph that order is the identity, and the
    neighbourhoods are read as given.  Colour c is free at v when seen[c], the
    union of the neighbourhoods of colour c, misses vb = 1 << v; a vertex at
    saturation k is a dead end and backtracks with no colour scan.
    Backtracking keeps one frame per coloured vertex on an explicit stack,
    holding its colour and what it takes to undo it; each colour tried is a
    node.  Returns the colour table, or None when the exhaustive search proves
    no k-colouring exists; raises SearchBudgetExceeded when the node budget
    runs out first.  The table is not checked here: core_test checks the
    witness it makes of it.
    """
    if len(seed) > k:
        return None
    order = sorted(range(nv), key=lambda v: (-adj[v].bit_count(), v))
    rank = [0] * nv
    for r, v in enumerate(order):
        rank[v] = r
    # the identity order (any regular graph, so every J_q(n,m)) remaps nothing
    nadj = adj if order == list(range(nv)) else [map_bitset(rank, adj[v]) for v in order]
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
    stack = []  # per coloured vertex v: (1 << v, c, top, seen[c], level[:top + 2]) before it
    nodes = 0
    top = len(seed)  # no saturation level above this one is occupied
    while uncoloured:
        while not level[top]:
            top -= 1
        vb = level[top] & -level[top]
        c = 0 if top < k else k  # at level k no colour is free: backtrack at once
        while True:
            while seen[c] & vb:
                c += 1
            if c < k:
                break
            if not stack:
                return None
            vb, c, top, seen[c], levels = stack.pop()
            level[: top + 2] = levels  # colouring v changed no level above top + 1
            uncoloured |= vb
            c += 1
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetExceeded(f"colouring search exceeded {node_budget} nodes")
        s = seen[c]
        stack.append((vb, c, top, s, level[: top + 2]))
        uncoloured ^= vb
        level[top] ^= vb
        row = nadj[vb.bit_length() - 1]
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
    for vb, c, *_ in stack:
        table[order[vb.bit_length() - 1]] = c
    return table


# -- orbit colourings -------------------------------------------------

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


def _free_cyclic_group(G: GrassmannGraph, s: int) -> tuple[list[int], list[int], list] | None:
    """The vertex permutation of _cyclic_candidate's h, its orbits and h's rows, or None.

    h is used only when the vertex permutation it induces on G
    (graph.induced_permutation) is a bijection whose cycles all have
    length s, so <h> acts freely on the vertices; any other candidate is
    refused, never trusted.
    """
    rows = _cyclic_candidate(G.spec, G.n, s)
    perm = None if rows is None else induced_permutation(G, rows)
    orbit = None if perm is None else _orbit_ids(perm, s)
    return None if orbit is None else (perm, orbit, rows)


def _frobenius(spec: FieldSpec, h: list[list[int]], s: int) -> list[list[int]]:
    """The rows of sigma = diag(I, S) for _cyclic_candidate's h = diag(I, C), C of order s.

    S's rows are e_0.C^(iq), i < d = ord_s(q), so C.S = S.C^q and sigma h = h^q sigma:
    C acts as a root of its irreducible polynomial and S as x -> x^q on GF(q^d).
    """
    q, n, d = spec.q, len(h), _order_mod(spec.q, s)
    f = _row_span(spec, [row[n - d :] for row in h[n - d :]], {})  # x -> x.C on the codes
    powers = list(accumulate(range(q * (d - 1)), lambda x, _: f[x], initial=1))  # e_0.C^i
    return h[: n - d] + [[0] * (n - d) + [x // q**j % q for j in range(d)] for x in powers[::q]]


def _exact_cover(rows: list[int], items: int, limit: int) -> tuple[list[int] | None, int, bool]:
    """Rows that cover each of the items 0..items-1 exactly once.

    Each row is an int bitset of items.  The search picks the uncovered
    item with the fewest live rows (the lowest such item on ties) and
    tries its rows in index order, on an explicit stack; each row tried
    is a node.  The rows through each item are one sum of powers of two;
    row j's clash set, the rows that share an item with it, is built when
    j is first chosen and kept, since backtracking may choose j again.
    Returns (row indices or None, nodes, cut), where cut says the search
    stopped after limit nodes rather than deciding.
    """
    ids = [[] for _ in range(items)]
    for j, row in enumerate(rows):
        for i in bits(row):
            ids[i].append(j)
    item_rows = [sum(map((1).__lshift__, js)) for js in ids]  # distinct bits: the sum is the OR
    clash = [None] * len(rows)  # the rows sharing an item with row j, built when j is first chosen
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
        if clash[j] is None:
            clash[j] = reduce(int.__or__, map(item_rows.__getitem__, bits(rows[j])))
        alive &= ~clash[j]
        uncovered &= ~rows[j]
    return chosen, nodes, False


def orbit_colouring(
    G: GrassmannGraph, node_budget: int = NODE_BUDGET
) -> tuple[list[int] | None, int, int]:
    """An omega-colouring of G (2m <= n) invariant under a certified free cyclic H.

    Its classes are S_q[m-1, m, n] systems.  H = <h> is the first
    _free_cyclic_group over the divisors s > 1 of omega, largest first,
    and r = omega/s.  One vertex per H-orbit is spread over r base classes
    that each meet every star exactly once: an exact cover whose items are
    r copies of the stars plus one slot per orbit, and whose rows are the
    pairs (cycle of sigma, base), for the cycles whose members lie in
    distinct H-orbits and share no star.  Then the images of the bases
    under H are omega classes that each meet every star once and together
    hold each vertex once, so vertex h^i(v) of base b takes colour b*s + i.
    sigma is first h's _frobenius, if its induced permutation certifies
    it, then the identity: one search each, in enumeration order, on the
    nodes left of node_budget.  Vertex 0's H-orbit sits in base 0 (relabel
    the bases), as vertex 0 itself when sigma is the identity (apply a
    power of h).  Returns (colouring or None, |H| or 0 when no search ran,
    nodes used); None means the nodes ran out or no H-invariant colouring
    has such bases, never that no omega-colouring exists.
    """
    n, m, q = G.n, G.m, G.spec.q
    if 2 * m > n:
        raise ValueError("the stars are the maximum cliques only when 2m <= n")
    k = omega_int(n, m, q)
    for s in (s for s in range(k, 1, -1) if k % s == 0):
        group = _free_cyclic_group(G, s)
        if group is not None:
            break
    else:
        return None, 0, 0
    perm, orbit, h = group
    nv, r, width = G.num_vertices, k // s, len(G.stars)
    through = [0] * nv
    for t, c in enumerate(G.stars):
        for v in c.members:
            through[v] |= 1 << t
    slot = r * width
    ident = list(range(nv))
    sigma = induced_permutation(G, _frobenius(G.spec, h, s))
    nodes = 0
    for tau in [ident] if sigma in (None, ident) else [sigma, ident]:
        cycles = {}
        for v, c in enumerate(_orbits(nv, [tau])):
            cycles.setdefault(c, []).append(v)
        rows = []  # (cycle, base, bitset)
        for c in cycles.values():
            star = reduce(int.__or__, map(through.__getitem__, c))
            mine = reduce(int.__or__, (1 << orbit[v] for v in c))  # orbit[0] == 0
            if star.bit_count() != len(c) * through[0].bit_count() or mine.bit_count() != len(c):
                continue
            if mine & 1 and tau is ident and c != [0]:
                continue
            rows += [(c, b, star << b * width | mine << slot) for b in range(1 if mine & 1 else r)]
        chosen, used, _ = _exact_cover([x for *_, x in rows], slot + nv // s, node_budget - nodes)
        nodes += used
        if chosen is not None or nodes == node_budget:
            break
    if chosen is None:
        return None, s, nodes
    colouring = [-1] * nv
    for c, b, _ in map(rows.__getitem__, chosen):
        for v in c:
            for i in range(s):
                colouring[v] = b * s + i
                v = perm[v]
    return colouring, s, nodes


# -- endomorphisms ---------------------------------------------------


class Endomorphism(NamedTuple):
    """A vertex map that must send edges to edges."""

    graph: GrassmannGraph
    mapping: tuple[int, ...]

    def image(self) -> set[int]:
        return set(self.mapping)

    def is_injective(self) -> bool:
        return len(self.image()) == len(self.mapping)


def validate_endomorphism(G: GrassmannGraph, mapping) -> Endomorphism:
    """Check that every value is a vertex id and every edge maps to an edge.

    Vertex i passes iff each higher neighbour j has mapping[j] in
    adjacency[mapping[i]], which lacks mapping[i], so collapsed edges fail
    too; the error names the first broken edge (i, j).  With pre[t] the
    bitset of t's preimages, that is: the higher neighbours of i lie in the
    pullback of mapping[i], the OR of pre[u] over its neighbours u in the
    image (pre[u] is 0 off it).  The
    pullbacks are computed once per image vertex, so a colouring's omega
    image vertices cost omega pullbacks and then one AND per vertex.
    """
    mapping = tuple(mapping)
    nv = G.num_vertices
    if len(mapping) != nv:
        raise ValueError("mapping length differs from vertex count")
    for f in mapping:
        if not (isinstance(f, int) and 0 <= f < nv):
            raise ValueError(f"not a vertex map: image {f!r} is not a vertex id in 0..{nv - 1}")
    adj = G.adjacency
    pre = [0] * nv
    for i, fi in enumerate(mapping):
        pre[fi] |= 1 << i
    targets = set(mapping)
    image = sum(map((1).__lshift__, targets))  # pre[u] is 0 off the image
    pullback = {
        t: reduce(int.__or__, map(pre.__getitem__, bits(adj[t] & image)), 0) for t in targets
    }
    for i, fi in enumerate(mapping):
        higher = adj[i] >> (i + 1) << (i + 1)
        if higher & ~pullback[fi]:
            j = next(j for j in bits(higher) if not G.adjacent(fi, mapping[j]))
            raise ValueError(f"not an endomorphism: edge ({i}, {j}) breaks under the map")
    return Endomorphism(G, mapping)


def build_colouring_endomorphism(G: GrassmannGraph, colouring, clique) -> Endomorphism:
    """Send every vertex of colour i to the clique vertex of colour i, and check the map.

    The colours must lie in 0..k-1 and the clique must have one vertex per
    colour (automatic for a clique of size k under a proper k-colouring);
    the map collapses each colour class onto a single clique vertex, so its
    image is the clique.  validate_endomorphism is the one check of the
    colouring: an edge inside a class collapses and an edge between classes
    lands on two clique vertices, so the colouring is proper exactly when
    the map is an endomorphism.
    """
    if len(colouring) != G.num_vertices:
        raise ValueError("colouring length differs from vertex count")
    k = max(colouring) + 1
    if (low := min(colouring)) < 0:
        raise ValueError(f"vertex {colouring.index(low)} has colour {low} outside 0..{k - 1}")
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
    return validate_endomorphism(G, map(by_colour.__getitem__, colouring))


def classify_endomorphism(G: GrassmannGraph, e: Endomorphism) -> str:
    """'automorphism', 'colouring', or 'other', for an already checked endomorphism.

    e comes from validate_endomorphism or build_colouring_endomorphism,
    which check that it sends edges to edges, so it is read, not checked
    again.  Automorphism: bijective and adjacency-preserving in both
    directions, that is, every neighbourhood maps onto its image's
    (graph._adjacency_breaks finds no vertex).  Colouring: the image
    induces a complete subgraph of clique-number size, making the map a
    proper omega-colouring onto a maximum clique.  Anything else reports
    'other' (on these graphs that indicates a bug or an invalid input map
    rather than a real third class).
    """
    if e.is_injective() and not _adjacency_breaks(G.adjacency, e.mapping):
        return "automorphism"
    img = sorted(e.image())
    omega = omega_int(G.n, G.m, G.spec.q)
    if len(img) == omega and all(
        G.adjacent(u, v) for i, u in enumerate(img) for v in img[i + 1 :]
    ):
        return "colouring"
    return "other"


# -- coreness verdicts -------------------------------------------------


class CorenessReport:
    """What core_test learned about J_q(n, m).

    num_vertices, omega, alpha and chi start at their free values: |V| =
    [n,m]_q, omega by its formula, alpha in (1, |V|//omega) and chi in
    (omega, |V|), or alpha = 1 and chi = omega = |V| on the complete graph
    (m = 1).  Each is evaluated on first read, so a report that prints none
    of them never evaluates [n,m]_q, and core_test's stages only tighten
    alpha and chi by assignment.  integrality_value is h(q) = |V|/omega as
    the pair (numerator, denominator) in lowest terms, once core_test has
    evaluated it (None on the complete graph); witness is the colouring
    endomorphism, when one was found, and witness_class its class.
    """

    def __init__(self, q: int, n: int, m: int):
        self.q, self.n, self.m = q, n, m
        self.integrality_value: tuple[int, int] | None = None
        self.evidence: list[str] = []
        self.witness: Endomorphism | None = None
        self.witness_class: str | None = None

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
    complete graph, decided without evaluating |V|; (2) the divisibility
    stage takes lambda_i in lowest terms for i = 0..m-1 (lambda_0 =
    |V|/omega, from h_integrality), and the first that is not an integer
    gives chi > omega; (3) past the search bound chi stays open; (4)
    orbit_colouring looks for an omega-colouring invariant under a
    certified free cyclic group H, under <H, sigma> first and then under
    H alone, and one it finds is the witness (chi = omega, with no
    evidence line when it finds none); (5) otherwise the
    star-seeded DSATUR search at k = omega finds an omega-colouring
    (chi = omega), refutes one (chi > omega), or runs out of budget.  The
    orbit search refutes only invariant colourings, so it never raises
    chi, and it shares node_budget with DSATUR, which gets the nodes it
    left.  Each decided verdict certifies the clique number itself: a
    proper omega-colouring bounds every clique by omega, which the star
    G.stars[0] attains; a refutation is accepted only once the census of
    maximal cliques (graph.classify_maximal_cliques) finds every one a
    star or a top, the largest of omega vertices.  When the budget runs
    out, the star alone bounds chi below by omega.  An omega-colouring
    composed with the star is the witness endomorphism; without one, alpha
    keeps its free bracket (greedy, |V|/omega), which cannot raise chi
    past omega since |V|/omega is then an integer.
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

    h, den = rep.integrality_value = h_integrality(n, m, q)
    # the evidence prints h = |V|/omega, any smaller lambda_i, and |V| past the search bound
    check_decimal_digits(h, f"|V|/omega for J_{q}({n},{m})")
    later = (
        (gaussian_binomial_int(n - i, m - 1 - i, q), gaussian_binomial_int(m - i, 1, q))
        for i in range(1, m)
    )
    for i, (num, den) in enumerate(chain([(h, den)], later)):
        g = gcd(num, den)
        if den != g:
            rep.chi = (omega + 1, nv)
            rep.evidence.append(
                f"|V|/omega = {num}/{den} is not an integer, so the graph is a core"
                if i == 0
                else f"|V|/omega = {h} is an integer, but lambda_{i} = {num // g}/{den // g} "
                f"is not: an S_{q}[{m - 1},{m},{n}] would have that many blocks through "
                f"each {i}-space, so no omega-colouring exists and the graph is a core"
            )
            return rep
    rep.evidence.append(f"|V|/omega = {h} is an integer; integrality test inconclusive")

    if nv > search_bound:
        check_decimal_digits(nv, f"the vertex count of J_{q}({n},{m})")
        rep.evidence.append(
            f"graph exceeds the exact-search bound ({nv} > {search_bound}); "
            "chromatic number left open"
        )
        return rep

    spec = make_field(*p_e)
    G = build_graph(spec, n, m, max_vertices=search_bound)
    clique = G.stars[0].members  # omega vertices, since 2m <= n

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
                census = classify_maximal_cliques(G, bound=search_bound)
                if not census.ok or max(census.star_size, census.top_size) != omega:
                    raise AssertionError(f"the clique census does not certify omega = {omega}")
                rep.evidence.append(
                    f"clique census: all {census.total} maximal cliques are stars or tops, "
                    f"the largest of {omega} vertices, so the clique number is {omega}"
                )
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
    try:
        rep.witness = build_colouring_endomorphism(G, colouring, clique)
    except ValueError as exc:  # a search returned a colouring that is not proper
        raise AssertionError(
            f"the {omega}-colouring witness fails its endomorphism check: {exc}"
        ) from exc
    rep.witness_class = classify_endomorphism(G, rep.witness)
    rep.evidence.append(
        f"found a proper {omega}-colouring, so no clique beats the star's {omega} vertices; "
        "composing the colouring with that maximum clique gives a non-injective endomorphism"
    )
    rep.evidence.append(
        f"witness endomorphism classified as '{rep.witness_class}' with image a star; "
        "consistent with the pseudo-core dichotomy (every endomorphism is an "
        "automorphism or a colouring)"
    )
    return rep
