"""Grassmann graphs: construction, maximal cliques, and structure checks.

Vertices are the m-dimensional subspaces of GF(q)^n in canonical
enumeration order; two are adjacent when their intersection has
dimension m-1, that is, when they share an (m-1)-space.  Each vertex is
keyed by the bitmask of its member vectors (subspaces.vector_mask), and
every lookup of a subspace in the graph goes through G.index, from mask
to vertex id.  Adjacency is stored as one int bitset per vertex, which
keeps pair queries, clique enumeration, and the exhaustive lemma checks
cheap at desk scale.

The maximal cliques of these graphs are exactly the stars (all m-spaces
over a fixed (m-1)-space) and the tops (all m-spaces inside a fixed
(m+1)-space): one incidence, "is a hyperplane of", read at two levels.
One helper groups k-spaces by the masks of their hyperplanes.  On the
vertices each group is a star, and a vertex's neighbourhood is the union
of its [m,1]_q stars less itself, so the builder tests no vertex pairs;
on the (m+1)-spaces the group under a vertex's mask lists its tops.  A
graph builds both catalogs once, on first use, as G.stars and G.tops,
each clique with its centre's vector mask; the census, the lemma and
duality checks and the clique seed all read them.  Masks also give the
lattice relations the lemma checks need, with no Gaussian elimination:
containment is a subset test, dim(A intersect B) = log_q |mask(A) &
mask(B)|, and mask(W^perp) is the AND of G.complements over W's members.

GL(n, q), and the orthogonal complement when n = 2m, act through the
catalogs: once G.clique_adjacency finds adjacency is "share a star" (or
"share a top"), a vertex bijection carrying the stars onto the stars, or
stars and tops onto each other, preserves adjacency, with no row mapped.
G.symmetry certifies a few generators on G's own data that way, so the
census re-discovers the maximal cliques by Bron-Kerbosch through one
vertex per orbit only, and the lemma checks pair one clique per orbit
with its whole family.  A generator that fails a check is left out, and
with none certified every orbit is a single element: the census then
enumerates every maximal clique and the lemma checks visit every pair.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Literal

from .config import (
    BUILD_BOUND,
    CLIQUE_ENUM_BOUND,
    MAX_GRAPH_FIELD,
    BoundExceeded,
    check_decimal_digits,
    check_power_digits,
)
from .field import FieldSpec
from .qpoly import gaussian_binomial_int
from .subspaces import (
    Subspace,
    _row_span,
    dual_complement,
    enumerate_subspaces,
    hyperplane_positions,
    vector_mask,
    vector_masks,
    vector_spans,
)


def bits(x: int):
    """Indices of set bits, ascending."""
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


def _subspace_dim(size: int, q: int) -> int:
    """d with q^d == size: the dimension of a subspace of that many vectors."""
    d = 0
    power = 1
    while power < size:
        power *= q
        d += 1
    if power != size:
        raise AssertionError("mask intersection is not a subspace size")
    return d


@dataclass(frozen=True, eq=False)
class GrassmannGraph:
    spec: FieldSpec
    n: int
    m: int
    vertices: tuple[Subspace, ...]
    adjacency: tuple[int, ...]
    masks: tuple[int, ...]

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @cached_property
    def index(self) -> dict[int, int]:
        """Vertex id by vector mask."""
        return {mask: i for i, mask in enumerate(self.masks)}

    def vertex_id(self, S: Subspace) -> int:
        if S.spec != self.spec or S.ambient != self.n:  # its mask would code other vectors
            raise KeyError(S)
        return self.index[vector_mask(S)]

    def adjacent(self, i: int, j: int) -> bool:
        return bool(self.adjacency[i] >> j & 1)

    def degree(self, i: int) -> int:
        return self.adjacency[i].bit_count()

    def intersection_dim(self, i: int, j: int) -> int:
        return _subspace_dim((self.masks[i] & self.masks[j]).bit_count(), self.spec.q)

    def distance(self, i: int, j: int) -> int:
        """m - dim(X intersect Y); equals the path distance."""
        return self.m - self.intersection_dim(i, j)

    @cached_property
    def stars(self) -> list[MaximalClique]:
        """Every star, in centre enumeration order; built once, on first use."""
        return star_catalog(self)

    @cached_property
    def tops(self) -> list[MaximalClique]:
        """Every top, in centre enumeration order; built once, on first use."""
        return top_catalog(self)

    @cached_property
    def symmetry(self) -> Symmetry:
        """The certified automorphisms and their orbits; built once, on first use."""
        return symmetry_certificate(self)

    @cached_property
    def clique_adjacency(self) -> tuple[bool, ...]:
        """Whether adjacency is "share a star", and "share a top": for every v,
        adjacency[v] is the OR of that family's cliques through v, less v."""
        out = []
        for fam in (self.stars, self.tops):
            through = [[] for _ in self.adjacency]  # references: no union bitset per vertex
            for c in fam:
                for v in c.members:
                    through[v].append(c.bitset)
            rows = enumerate(zip(through, self.adjacency))
            out.append(all(reduce(int.__or__, cs, 0) & ~(1 << v) == a for v, (cs, a) in rows))
        return tuple(out)

    @cached_property
    def complements(self) -> list[int]:
        """mask(x^perp) at each nonzero vector code x, one dual_complement per point."""
        points = enumerate_subspaces(self.spec, self.n, 1)
        table = [0] * self.spec.q**self.n  # entry 0, the zero vector, is unused
        for span, perp in zip(vector_spans(points), vector_masks(map(dual_complement, points))):
            for x in span[1:]:  # x^perp depends only on <x>
                table[x] = perp
        return table


def build_graph(
    spec: FieldSpec,
    n: int,
    m: int,
    max_vertices: int = BUILD_BOUND,
) -> GrassmannGraph:
    """Build J_q(n, m), with adjacency as the union of each vertex's stars.

    Each vertex carries the bitmask of its member vectors.  Two vertices
    are adjacent iff they share an (m-1)-space, so adjacency[v] is the OR
    of the stars through v, less v; the stars come from _hyperplane_groups.
    """
    if not 1 <= m < n:
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    if spec.q > MAX_GRAPH_FIELD:
        raise BoundExceeded(f"field too large for graph building: q={spec.q} > {MAX_GRAPH_FIELD}")
    what = f"the vertex count of J_{spec.q}({n},{m})"
    # [n,m]_q >= q^(m(n-m)); a count too long to print exceeds any parsed max_vertices
    check_power_digits(spec.q, m * (n - m), what)
    count = gaussian_binomial_int(n, m, spec.q)
    if count > max_vertices:
        check_decimal_digits(count, what)
        raise BoundExceeded(
            f"enumeration too large: J_{spec.q}({n},{m}) has {count} vertices > {max_vertices}"
        )
    vertices = tuple(enumerate_subspaces(spec, n, m))
    masks, groups = _hyperplane_groups(vertices)
    adjacency = [0] * count
    for members in groups.values():
        clique = _to_bitset(members)
        for v in members:
            adjacency[v] |= clique
    adjacency = tuple(a ^ (1 << v) for v, a in enumerate(adjacency))
    return GrassmannGraph(spec, n, m, vertices, adjacency, tuple(masks))


def _hyperplane_groups(spaces: Sequence[Subspace]) -> tuple[list[int], dict[int, list[int]]]:
    """The vector mask of each k-space, and the space ids grouped by hyperplane.

    A hyperplane of a space is the OR of one fixed set of span positions
    (subspaces.hyperplane_positions), so one span per space gives its mask
    and all its [k,1]_q hyperplane masks.  Each group is keyed by the mask
    of a (k-1)-space and holds the ids of the spaces over it, ascending:
    on the vertices it is one star, and on the (m+1)-spaces it lists the
    tops through one vertex.
    """
    planes = hyperplane_positions(spaces[0].spec, spaces[0].dim)
    masks = []
    groups: dict[int, list[int]] = {}
    for i, span in enumerate(vector_spans(spaces)):
        vecs = [1 << v for v in span]
        masks.append(sum(vecs))
        for plane in planes:
            groups.setdefault(sum(map(vecs.__getitem__, plane)), []).append(i)
    return masks, groups


@dataclass(frozen=True)
class MaximalClique:
    kind: Literal["star", "top"]
    center: Subspace
    center_mask: int  # vector_mask(center)
    members: tuple[int, ...]
    bitset: int

    @property
    def size(self) -> int:
        return len(self.members)


def star(G: GrassmannGraph, P: Subspace) -> MaximalClique:
    """The entry of G.stars over the (m-1)-dimensional centre P."""
    if (P.spec, P.ambient, P.dim) != (G.spec, G.n, G.m - 1):
        raise ValueError(f"star centre must be a {G.m - 1}-space of GF(q)^{G.n}, got {P!r}")
    mp = vector_mask(P)
    return next(c for c in G.stars if c.center_mask == mp)


def top(G: GrassmannGraph, Q: Subspace) -> MaximalClique:
    """The entry of G.tops over the (m+1)-dimensional centre Q."""
    if (Q.spec, Q.ambient, Q.dim) != (G.spec, G.n, G.m + 1):
        raise ValueError(f"top centre must be a {G.m + 1}-space of GF(q)^{G.n}, got {Q!r}")
    mq = vector_mask(Q)
    return next(c for c in G.tops if c.center_mask == mq)


def _to_bitset(ids) -> int:
    out = 0
    for i in ids:
        out |= 1 << i
    return out


def map_bitset(mapping: Sequence[int], x: int) -> int:
    """The image {mapping[v] : v in x} of the vertex bitset x, as a bitset."""
    return _images(mapping, (x,))[0]


def _images(mapping: Sequence[int], xs: Iterable[int]) -> list[int]:
    """map_bitset of each bitset in xs.

    Private, so callers that map every vertex or every clique record no
    per-layer trace span per set.
    """
    get = mapping.__getitem__
    return [_to_bitset(map(get, bits(x))) for x in xs]


def _adjacency_breaks(adj: Sequence[int], perm: Sequence[int]) -> list[int]:
    """The vertices i with map_bitset(perm, adj[i]) != adj[perm[i]], ascending."""
    return [i for i, img in enumerate(_images(perm, adj)) if img != adj[perm[i]]]


def _carried(perm: Sequence[int], fam, onto, centres) -> list[int | None]:
    """Per clique of fam, the index of the clique of onto over its image centre
    (centres, in fam's order), or None when there is none or perm misses it."""
    by_centre = {c.center_mask: k for k, c in enumerate(onto)}
    to = [by_centre.get(mask) for mask in centres]
    images = _images(perm, [c.bitset for c in fam])
    return [None if k is None or img != onto[k].bitset else k for img, k in zip(images, to)]


def star_catalog(G: GrassmannGraph) -> list[MaximalClique]:
    """Every star: the vertices' hyperplane group under its centre's mask."""
    _, groups = _hyperplane_groups(G.vertices)
    centres = enumerate_subspaces(G.spec, G.n, G.m - 1)
    return [
        MaximalClique("star", P, mp, tuple(groups[mp]), _to_bitset(groups[mp]))
        for P, mp in zip(centres, vector_masks(centres))
    ]


def top_catalog(G: GrassmannGraph) -> list[MaximalClique]:
    """Every top: each vertex, in order, joins the centres grouped under its mask."""
    centres = enumerate_subspaces(G.spec, G.n, G.m + 1)
    masks, groups = _hyperplane_groups(centres)
    members: list[list[int]] = [[] for _ in centres]
    for v, mv in enumerate(G.masks):
        for t in groups[mv]:
            members[t].append(v)
    return [
        MaximalClique("top", Q, mq, tuple(mt), _to_bitset(mt))
        for Q, mq, mt in zip(centres, masks, members)
    ]


@dataclass(frozen=True)
class Symmetry:
    """Automorphisms of a graph, certified on its data, and their orbits.

    perms holds the vertex permutation of each certified generator.  Each
    orbit list gives every vertex, star or top (by catalog index) the
    least member of its orbit under the group the generators span, so the
    orbit representatives are the i with orbit[i] == i.
    """

    perms: tuple[list[int], ...]
    vertex_orbit: list[int]
    star_orbit: list[int]
    top_orbit: list[int]


def symmetry_certificate(G: GrassmannGraph) -> Symmetry:
    """The generators of GL(n, q) that pass the certificate on G, and their orbits.

    The generators act on row vectors as x -> x.A: the transvection
    x0 += x1, the cyclic coordinate shift and, for q > 2, x0 *= a
    primitive element.  A permutes the q^n vector codes (its row span,
    subspaces._row_span), and a vertex goes to the vertex whose mask is the
    image of its mask.  A is certified only when
    - G.clique_adjacency says adjacency is "share a star";
    - the vector map and the vertex map are bijections;
    - each star and each top goes onto the catalog clique over the image
      of its centre mask.
    A vertex bijection that carries every star onto a star permutes the
    stars, so under the first check it preserves adjacency both ways, and
    a certified map is an automorphism that permutes each catalog and
    preserves every mask relation the lemma checks read: nothing rests on
    the theorem that GL(n, q) acts.  A generator that fails is left out.
    """
    found: tuple[list[list[int]], ...] = ([], [], [])
    for rows in _generator_rows(G.spec, G.n) if G.clique_adjacency[0] else ():
        certified = _certify(G, rows)
        if certified is not None:
            for perms, perm in zip(found, certified):
                perms.append(perm)
    vertex, star, top = found
    return Symmetry(
        tuple(vertex),
        _orbits(G.num_vertices, vertex),
        _orbits(len(G.stars), star),
        _orbits(len(G.tops), top),
    )


def _generator_rows(spec: FieldSpec, n: int) -> list[list[list[int]]]:
    """The rows of each generator A in symmetry_certificate."""
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    transvection = [row[:] for row in eye]
    transvection[1][0] = 1  # x.A has x0 + x1 in coordinate 0
    gens = [transvection, eye[1:] + eye[:1]]  # row i = e_{i+1}: coordinate j gets x_{j-1}
    q = spec.q
    if q > 2:  # a primitive element: its powers are every nonzero element
        scale = [row[:] for row in eye]
        scale[0][0] = next(
            a for a in range(2, q) if len({spec.pow(a, k) for k in range(q)}) == q - 1
        )
        gens.append(scale)
    return gens


def induced_permutation(G: GrassmannGraph, rows: Sequence[Sequence[int]]) -> list[int] | None:
    """The vertex permutation of x -> x.A, A given by its rows, or None.

    A permutes the q^n vector codes (subspaces._row_span), and vertex v goes
    to the vertex whose mask is the image of v's mask.  None when the vector
    map or the vertex map is not a bijection.
    """
    f = _row_span(G.spec, rows, {})
    if sorted(f) != list(range(len(f))):
        return None
    perm = [G.index.get(mask) for mask in _images(f, G.masks)]
    if None in perm or len(set(perm)) != len(perm):
        return None
    return perm


def _certify(G: GrassmannGraph, rows: Sequence[Sequence[int]]) -> list[list[int]] | None:
    """The vertex, star and top permutations of x -> x.A, or None.

    None when any check of symmetry_certificate fails.
    """
    perm = induced_permutation(G, rows)
    if perm is None:
        return None
    f = _row_span(G.spec, rows, {})
    out = [perm]
    for fam in (G.stars, G.tops):
        to = _carried(perm, fam, fam, _images(f, [c.center_mask for c in fam]))
        if None in to:
            return None
        out.append(to)
    return out


def _orbits(size: int, perms: Sequence[Sequence[int]]) -> list[int]:
    """The least member of each element's orbit under the group perms span."""
    orbit = [-1] * size
    for r in range(size):
        if orbit[r] >= 0:
            continue
        orbit[r] = r
        stack = [r]
        while stack:
            x = stack.pop()
            for p in perms:
                y = p[x]
                if orbit[y] < 0:
                    orbit[y] = r
                    stack.append(y)
    return orbit


def _maximal_cliques_through(adj: Sequence[int], v: int, done: int = 0) -> list[int]:
    """Every maximal clique that holds v and no vertex of done, as bitsets.

    Pivoting Bron-Kerbosch from one root node, R = {v}, P = N(v) less done
    and X = N(v) within done.  Nodes are frames [R, P, X, branches left]
    on an explicit stack, so no clique size touches the interpreter's
    recursion limit.
    """
    out: list[int] = []
    stack: list[list[int]] = []

    def enter(R: int, P: int, X: int):
        if not P and not X:
            out.append(R)
            return
        # pivot: the first u in P | X with the most candidates; none beats |P|
        best_u, best_cnt = -1, -1
        full = P.bit_count()
        for u in bits(P | X):
            c = (P & adj[u]).bit_count()
            if c > best_cnt:
                best_u, best_cnt = u, c
                if c == full:
                    break
        stack.append([R, P, X, P & ~adj[best_u]])

    enter(1 << v, adj[v] & ~done, adj[v] & done)
    while stack:
        frame = stack[-1]
        R, P, X, todo = frame
        if not todo:
            stack.pop()
            continue
        wb = todo & -todo  # branches in ascending vertex order
        w = wb.bit_length() - 1
        frame[1:] = P ^ wb, X | wb, todo ^ wb
        enter(R | wb, P & adj[w], X & adj[w])
    return out


def _maximal_clique_bitsets(G: GrassmannGraph) -> set[int]:
    """Every maximal clique of G, from one vertex per orbit of G.symmetry.

    Each maximal clique is the image of one through a representative, and
    a clique through a representative is found from the first one it
    holds.  A matched clique's images are the catalog entries in its
    catalog orbit; an unmatched one is closed under the vertex maps.
    """
    sym = G.symmetry
    catalog = G.stars + G.tops
    index = {c.bitset: k for k, c in enumerate(catalog)}
    orbit = sym.star_orbit + [len(G.stars) + t for t in sym.top_orbit]
    hit: set[int] = set()
    unmatched: set[int] = set()
    done = 0
    for v, r in enumerate(sym.vertex_orbit):
        if r != v:
            continue
        for c in _maximal_cliques_through(G.adjacency, v, done):
            k = index.get(c)
            if k is None:
                unmatched.add(c)
            else:
                hit.add(orbit[k])
        done |= 1 << v
    frontier = list(unmatched)
    while frontier:
        frontier = list({y for p in sym.perms for y in _images(p, frontier)} - unmatched)
        unmatched.update(frontier)
    return {c.bitset for c, o in zip(catalog, orbit) if o in hit} | unmatched


@dataclass
class CliqueCensus:
    """Maximal cliques matched against the star/top catalog."""

    total: int
    star_count: int
    top_count: int
    star_size: int
    top_size: int
    unmatched: list[tuple[int, ...]]

    @property
    def ok(self) -> bool:
        return not self.unmatched


def classify_maximal_cliques(
    G: GrassmannGraph,
    cliques: list[tuple[int, ...]] | None = None,
    bound: int = CLIQUE_ENUM_BOUND,
) -> CliqueCensus:
    """Match the maximal cliques of G, or the given member tuples, to the catalog.

    Without a clique list the census finds every maximal clique by
    Bron-Kerbosch through one vertex per orbit of G.symmetry, closed under
    the certified group; on every built graph the group is transitive, so
    that is one search of N(0).  Unmatched cliques are listed as sorted
    member tuples, in order.
    """
    if cliques is None:
        if G.num_vertices > bound:
            raise BoundExceeded(
                f"graph too large for clique enumeration: {G.num_vertices} > {bound}"
            )
        sets = list(_maximal_clique_bitsets(G))
    else:
        sets = [_to_bitset(members) for members in cliques]
    catalog = {c.bitset: c.kind for c in G.stars + G.tops}
    kinds = [catalog.get(c) for c in sets]
    unmatched = sorted(tuple(bits(c)) for c, kind in zip(sets, kinds) if kind is None)
    stars, tops = kinds.count("star"), kinds.count("top")
    return CliqueCensus(len(sets), stars, tops, G.stars[0].size, G.tops[0].size, unmatched)


@dataclass
class LemmaReport:
    """Exhaustive checks of the star/top intersection structure.

    star_top_ok:   a star and top meet iff the star centre sits inside
                   the top centre, and then in exactly q+1 vertices.
    pairwise_ok:   two distinct cliques of the same kind share at most
                   one vertex.
    star_meet_ok:  distinct stars meet iff their centres A, B intersect
                   in dimension m-2, and then exactly in {A v B}.
    top_meet_ok:   distinct tops meet iff their centres P, Q intersect
                   in dimension m, and then exactly in {P intersect Q}.
    """

    q: int
    star_top_ok: bool = True
    pairwise_ok: bool = True
    star_meet_ok: bool = True
    top_meet_ok: bool = True
    counterexamples: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.star_top_ok and self.pairwise_ok and self.star_meet_ok and self.top_meet_ok


def verify_clique_lemmas(G: GrassmannGraph) -> LemmaReport:
    """Check the four structural facts on one clique per orbit of G.symmetry.

    Each star representative is paired with every top, and each star or
    top representative with every later clique of its kind, once for both
    the pairwise and the meet check.  A certified automorphism carries
    each pair to one such pair and keeps every fact below, so this covers
    all pairs; with no generator certified every clique is its own
    representative, and the loops visit every pair once, in index order.
    Centre relations come from vector masks: incidence is a subset test,
    dim(A intersect B) is log_q |mask(A) & mask(B)|, the span A + B of two
    star centres is the one vertex whose mask covers both masks, and the
    intersection of two top centres is the one vertex whose mask is the
    AND of theirs.
    """
    report = LemmaReport(q=G.spec.q)
    stars = G.stars
    tops = G.tops
    sym = G.symmetry
    q = G.spec.q
    m = G.m
    masks = G.masks

    for s in (stars[i] for i, r in enumerate(sym.star_orbit) if r == i):
        ms = s.center_mask
        for t in tops:
            common = (s.bitset & t.bitset).bit_count()
            incident = ms & t.center_mask == ms
            if (common > 0) != incident or (incident and common != q + 1):
                report.star_top_ok = False
                report.counterexamples.append(
                    {"check": "star-top", "star": s.members, "top": t.members, "common": common}
                )

    # one pass per family: two cliques share at most one vertex, and they
    # share one exactly when their centres meet in dimension meet_dim, in
    # the vertex whose mask is_meet accepts; dim(A intersect B) = m-2 makes
    # A + B an m-space, so the star meet covers both centres.  A pair {a, b}
    # whose orbit minima are r <= s has an image {r, b'} with b' >= s >= r
    # (move a onto r), so the pairs (r, j > r) cover every pair.
    for fam_name, check, flag, fam, orbit, meet_dim, is_meet in (
        ("stars", "star-meet", "star_meet_ok", stars, sym.star_orbit, m - 2,
         lambda v, a, b: v & (a | b) == a | b),
        ("tops", "top-meet", "top_meet_ok", tops, sym.top_orbit, m,
         lambda v, a, b: v == a & b),
    ):
        for i in (i for i, r in enumerate(orbit) if r == i):
            ma = fam[i].center_mask
            bi = fam[i].bitset
            for j in range(i + 1, len(fam)):
                mb = fam[j].center_mask
                meet = bi & fam[j].bitset
                c = meet.bit_count()
                if c > 1:
                    report.pairwise_ok = False
                    report.counterexamples.append(
                        {"check": "pairwise", "family": fam_name, "pair": (i, j), "common": c}
                    )
                dim = _subspace_dim((ma & mb).bit_count(), q)
                ok = (c > 0) == (dim == meet_dim)
                if ok and c:
                    ok = c == 1 and is_meet(masks[meet.bit_length() - 1], ma, mb)
                if not ok:
                    setattr(report, flag, False)
                    report.counterexamples.append({"check": check, "pair": (i, j), "dim": dim})

    return report


@dataclass
class DualReport:
    """The orthogonal-complement map on a J_q(2m, m).

    It should be an adjacency-preserving involution on the vertices that
    carries every star onto the top over the dual centre and conversely.
    """

    bijection: bool = True
    involution: bool = True
    preserves_adjacency: bool = True
    stars_to_tops: bool = True
    tops_to_stars: bool = True
    counterexamples: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.bijection
            and self.involution
            and self.preserves_adjacency
            and self.stars_to_tops
            and self.tops_to_stars
        )


def _complement(table: Sequence[int], mask: int) -> int:
    """mask(W^perp) from mask(W): the AND of x^perp over the nonzero x in W."""
    out = (1 << len(table)) - 1
    for x in bits(mask & ~1):
        out &= table[x]
    return out


def dual_permutation(G: GrassmannGraph) -> list[int]:
    """Vertex permutation induced by the orthogonal complement, taken from masks.

    W^perp holds the vectors orthogonal to every member of W, so its mask
    is the AND of G.complements over W's nonzero codes: no elimination.
    """
    if G.n != 2 * G.m:
        raise ValueError("duality requires n = 2m")
    return [G.index[_complement(G.complements, mask)] for mask in G.masks]


def dual_map_check(G: GrassmannGraph) -> DualReport:
    """Check the complement map on the vertices and on the clique catalogs.

    The dual clique of each star or top is looked up in G.tops or G.stars
    by the mask of the dual centre, taken from G.complements, not rebuilt.
    If the map carries the stars onto the tops and the tops onto the
    stars, and G.clique_adjacency holds for both, it preserves adjacency;
    only otherwise are the adjacency rows mapped, to name the vertices.
    """
    report = DualReport()
    perm = dual_permutation(G)
    nv = G.num_vertices

    if sorted(perm) != list(range(nv)):
        report.bijection = False
        report.counterexamples.append({"check": "bijection"})
        return report
    for i in range(nv):
        if perm[perm[i]] != i:
            report.involution = False
            report.counterexamples.append({"check": "involution", "vertex": i})

    misses = []
    for check, flag, cliques, duals in (
        ("star-to-top", "stars_to_tops", G.stars, G.tops),
        ("top-to-star", "tops_to_stars", G.tops, G.stars),
    ):
        centres = [_complement(G.complements, c.center_mask) for c in cliques]
        for c, k in zip(cliques, _carried(perm, cliques, duals, centres)):
            if k is None:
                setattr(report, flag, False)
                misses.append({"check": check, "center": c.center.basis.rows})

    if not (report.stars_to_tops and report.tops_to_stars and all(G.clique_adjacency)):
        for i in _adjacency_breaks(G.adjacency, perm):
            report.preserves_adjacency = False
            report.counterexamples.append({"check": "adjacency", "vertex": i})
    report.counterexamples += misses
    return report
