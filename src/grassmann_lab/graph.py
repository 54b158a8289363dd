"""Grassmann graphs: construction, maximal cliques, and structure checks.

Vertices are the m-dimensional subspaces of GF(q)^n in canonical
enumeration order; two are adjacent when their intersection has
dimension m-1, that is, when they share an (m-1)-space.  Each vertex is
keyed by the bitmask of its member vectors (subspaces.vector_mask), and
every lookup of a subspace in the graph goes through G.index, from mask
to vertex id.  Adjacency is stored as one int bitset per vertex, which
keeps pair queries, clique enumeration, and the exhaustive lemma checks
cheap at desk scale.

Masks come from span tables (subspaces.span_table): codes[c][i] is the
vector code at coefficient position c of space i's span, and a mask is
the sum of 1 << codes[c][i] over c, formed for a whole table at once.
build_graph keeps only the vertices' RREF basis rows, G.bases, and the
graph derives the rest on first use: the vertices' table G.spans, from
the pivots alone (subspaces._level_codes), the masks and adjacency from
it, and G.vertices, the rows as Subspace values.  J_q(n,m) is regular of
degree q [m,1]_q [n-m,1]_q, so a text dump reads the rows and that
number only, and builds no span table, mask or Subspace.  Each catalog
clique carries its centre's row of its level's table as its span.

The maximal cliques of these graphs are exactly the stars (all m-spaces
over a fixed (m-1)-space) and the tops (all m-spaces inside a fixed
(m+1)-space): one incidence, "is a hyperplane of", read at two levels.
A hyperplane of a k-space is the same set of span positions in every
k-space (subspaces.hyperplane_lines), so one pass over a table gives
every space's [k,1]_q hyperplane masks.  On the vertices, grouping the
spaces by those masks gives the stars, and a vertex's neighbourhood is
the union of its [m,1]_q stars less itself, so no vertex pairs are
tested; on the (m+1)-spaces the hyperplane masks of a top centre are its
member vertices' masks.  G.stars and G.tops, each centre with its vector
mask, feed the census, the lemma and duality checks and the clique seed.
Masks also give the lattice relations the lemma checks need, with no
Gaussian elimination: containment is a subset test, dim(A intersect B)
= log_q |mask(A) & mask(B)|, and mask(W^perp) is the AND of
G.complements, mask(x^perp) by vector code x, over the codes of W's
basis rows, which sit at the positions q^i of its span; x^perp itself
is spanned by a normal basis written down from x.

GL(n, q), and the orthogonal complement when n = 2m, act through the
catalogs: once G.clique_adjacency finds adjacency is "share a star" (or
"share a top"), a vertex bijection carrying the stars onto the stars, or
stars and tops onto each other, preserves adjacency, with no row mapped.
A generator A permutes the vector codes, and the image of a mask is the
sum of 1 << A(codes[c][i]) over c, read off the vertices' table and the
held catalogs' centre spans.  G.symmetry certifies a few generators on
G's own data that way, so the census re-discovers the maximal cliques
by Bron-Kerbosch through one vertex per orbit only, and the lemma
checks pair one clique per orbit with its whole family.  A generator
that fails a check is left out, and with none certified every orbit is
a single element: the census then enumerates every maximal clique and
the lemma checks visit every pair.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property, reduce
from operator import and_
from typing import Literal, NamedTuple

from .config import (
    BUILD_BOUND,
    CLIQUE_ENUM_BOUND,
    ENUM_BOUND,
    MAX_GRAPH_FIELD,
    BoundExceeded,
    check_decimal_digits,
    check_power_digits,
)
from .field import FieldSpec
from .qpoly import gaussian_binomial_int
from .subspaces import (
    FqMatrix,
    Subspace,
    _level_bases,
    _level_codes,
    _row_span,
    hyperplane_lines,
    span_table,
    vector_mask,
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


class GrassmannGraph:
    """J_q(n, m): its vertices' RREF basis rows in enumeration order
    (subspaces._level_bases).  Immutable, and equal only to itself; the
    span table, masks, stars, adjacency and the other cached properties
    below are derived on first use."""

    def __init__(
        self, spec: FieldSpec, n: int, m: int, bases: tuple[tuple[tuple[int, ...], ...], ...]
    ):
        vars(self).update(spec=spec, n=n, m=m, bases=bases)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @property
    def num_vertices(self) -> int:
        return len(self.bases)

    @cached_property
    def vertices(self) -> tuple[Subspace, ...]:
        """Each vertex as a Subspace, over its basis rows."""
        spec, n, m = self.spec, self.n, self.m
        return tuple(Subspace(spec, n, m, FqMatrix(spec, rows, n)) for rows in self.bases)

    @cached_property
    def spans(self) -> list[list[int]]:
        """The vertices' span table: spans[c][i] is position c of vertex i's span."""
        return _level_codes(self.spec, self.n, self.m)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Each vertex's vector mask, read off G.spans."""
        return tuple(_bit_sums(self.spans))

    @cached_property
    def index(self) -> dict[int, int]:
        """Vertex id by vector mask."""
        return {mask: i for i, mask in enumerate(self.masks)}

    @cached_property
    def _star_rows(self) -> tuple[dict[int, int], tuple[int, ...]]:
        """star_bitsets and adjacency: a row is the OR of the stars through its vertex, less it."""
        groups = _hyperplane_groups(self.spec, self.spans)
        stars = {mask: _to_bitset(ids) for mask, ids in groups.items()}
        rows = [0] * self.num_vertices
        for members, clique in zip(groups.values(), stars.values()):
            for v in members:
                rows[v] |= clique
        return stars, tuple(a ^ (1 << v) for v, a in enumerate(rows))

    @cached_property
    def star_bitsets(self) -> dict[int, int]:
        """Each star's bitset by its centre's mask."""
        return self._star_rows[0]

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """One neighbour bitset per vertex."""
        return self._star_rows[1]

    def vertex_id(self, S: Subspace) -> int:
        if S.spec != self.spec or S.ambient != self.n:  # its mask would code other vectors
            raise KeyError(S)
        return self.index[vector_mask(S)]

    def adjacent(self, i: int, j: int) -> bool:
        return bool(self.adjacency[i] >> j & 1)

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
        """mask(x^perp) at each nonzero vector code x, from a normal basis per point.

        A point <x> is held with x_p = 1 at its pivot p, so the n - 1 rows
        e_j - x_j e_p, j != p, are independent and orthogonal to x: they
        span x^perp, with no elimination.
        """
        spec, n = self.spec, self.n
        points, codes = span_table(spec, n, 1)
        table = [0] * spec.q**n  # entry 0, the zero vector, is unused
        digits: dict = {}
        for P, span in zip(points, zip(*codes)):
            x = P.basis.rows[0]
            p = x.index(1)
            normal = [
                [1 if i == j else spec.neg(x[j]) if i == p else 0 for i in range(n)]
                for j in range(n)
                if j != p
            ]
            perp = sum(map((1).__lshift__, _row_span(spec, normal, digits)))
            for code in span[1:]:  # x^perp depends only on <x>
                table[code] = perp
        return table


def build_graph(spec: FieldSpec, n: int, m: int, max_vertices: int = BUILD_BOUND) -> GrassmannGraph:
    """J_q(n, m): its vertices' basis rows, the rest derived on first use.

    The vertex count and the size of the span table, which G.spans builds
    on first use, are bounded before anything is enumerated.
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
    if (codes := count * spec.q**m) > ENUM_BOUND:  # the span table: q^m codes per vertex
        raise BoundExceeded(
            f"span table too large: J_{spec.q}({n},{m}) has {codes} codes > {ENUM_BOUND}"
        )
    return GrassmannGraph(spec, n, m, _level_bases(spec, n, m))


def _hyperplane_groups(spec: FieldSpec, codes: list[list[int]]) -> dict[int, list[int]]:
    """The space ids of a span table, grouped by hyperplane.

    Each group is keyed by the mask of a (k-1)-space and holds the ids of
    the spaces over it: on the vertices it is one star.  Its ids are not
    ascending: per block of _hyperplane_blocks, the hyperplanes loop outside.
    """
    groups: defaultdict[int, list[int]] = defaultdict(list)
    for lo, _, planes in _hyperplane_blocks(spec, codes):
        for keys in planes:
            for i, key in enumerate(keys, lo):
                groups[key].append(i)
    return groups


_BLOCK = 64  # spaces per step of _hyperplane_blocks; it bounds the line sums held at once


def _hyperplane_blocks(
    spec: FieldSpec, codes: list[list[int]]
) -> Iterator[tuple[int, list[list[int]], list[list[int]]]]:
    """Per block of up to _BLOCK spaces of a span table of k-spaces: the id
    of its first space, its line sums, and per hyperplane H of GF(q)^k
    (subspaces.hyperplane_lines) the mask of H's positions in each space:
    the [k,1]_q hyperplanes of every space, each once.

    A line sum holds, per space, the bits of the codes at one line's
    positions, and is formed once per space.  Each hyperplane mask is a
    sum of line sums, and so is a space's vector mask (_row_sums of all of
    them), which is left to the callers that need it.
    """
    lines, planes = hyperplane_lines(spec, _subspace_dim(len(codes), spec.q))
    for lo in range(0, len(codes[0]), _BLOCK):
        block = [col[lo : lo + _BLOCK] for col in codes]
        sums = [_bit_sums(map(block.__getitem__, line)) for line in lines]
        yield lo, sums, [_row_sums(map(sums.__getitem__, plane)) for plane in planes]


def _row_sums(columns: Iterable[Iterable[int]]) -> list[int]:
    """Per entry, the sum of its values over the columns.

    Each sum runs over one entry's row, so a mask of q^n bits is built
    while its terms are still in cache.  A single column is its own sum.
    """
    cols = list(columns)
    return list(cols[0]) if len(cols) == 1 else list(map(sum, zip(*cols)))


def _bit_sums(columns: Iterable[Iterable[int]]) -> list[int]:
    """Per entry, the sum of 1 << x over its x in the columns: a mask, when the x are distinct."""
    return _row_sums(map((1).__lshift__, col) for col in columns)


def _image_masks(f: Sequence[int], codes: Iterable[Sequence[int]]) -> list[int]:
    """The mask of each space of a span table under the vector map f: bit f[x] per member x."""
    return _bit_sums(map(f.__getitem__, col) for col in codes)


def _dual_masks(G: GrassmannGraph, codes: Sequence[Sequence[int]]) -> list[int]:
    """mask(W^perp) for each space W of a span table: the AND of G.complements
    over W's basis rows, whose codes sit at the positions q^i."""
    q = G.spec.q
    out = [(1 << q**G.n) - 1] * len(codes[0])
    c = 1
    while c < len(codes):
        out = list(map(and_, out, map(G.complements.__getitem__, codes[c])))
        c *= q
    return out


class MaximalClique:
    """A star or a top: its centre, the centre's vector mask, its members,
    ascending and as a bitset, and the centre's span (its row of its
    level's span table).  Immutable."""

    def __init__(
        self,
        kind: Literal["star", "top"],
        center: Subspace,
        center_mask: int,
        members: tuple[int, ...],
        bitset: int,
        span: tuple[int, ...],
    ):
        vars(self).update(
            kind=kind,
            center=center,
            center_mask=center_mask,
            members=members,
            bitset=bitset,
            span=span,
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @property
    def size(self) -> int:
        return len(self.members)


def _catalog(
    kind: Literal["star", "top"],
    centres: Sequence[Subspace],
    codes: list[list[int]],
    masks: Iterable[int],
    members: Iterable[tuple[int, ...]],
    bitsets: Iterable[int],
) -> list[MaximalClique]:
    """The cliques over centres, each with its centre's row of the span table."""
    return [
        MaximalClique(kind, P, mask, mt, bitset, span)
        for P, mask, mt, bitset, span in zip(centres, masks, members, bitsets, zip(*codes))
    ]


def _centre_spans(fam: Sequence[MaximalClique]) -> list[tuple[int, ...]]:
    """The span table of a catalog's own centres, in its order."""
    return list(zip(*(c.span for c in fam)))


def _to_bitset(ids) -> int:
    out = 0
    for i in ids:
        out |= 1 << i
    return out


def map_bitset(mapping: Sequence[int], x: int) -> int:
    """The image {mapping[v] : v in x} of the vertex bitset x, as a bitset."""
    return _images(mapping, (x,))[0]


def _images(mapping: Sequence[int], xs: Iterable[int]) -> list[int]:
    """map_bitset of each bitset in xs; private, so no per-layer trace span per set."""
    get = mapping.__getitem__
    return [_to_bitset(map(get, bits(x))) for x in xs]


def _adjacency_breaks(adj: Sequence[int], perm: Sequence[int]) -> list[int]:
    """The vertices i with map_bitset(perm, adj[i]) != adj[perm[i]], ascending."""
    return [i for i, img in enumerate(_images(perm, adj)) if img != adj[perm[i]]]


def _carried(perm: Sequence[int], fam, onto, centres) -> list[int | None]:
    """Per clique of fam, the index of the clique of onto over its image centre
    (centres, in fam's order), or None when there is none or perm misses it.
    Members are the ascending bits of each bitset, and the callers check
    that perm is a bijection, so sorted member images compare as bitsets."""
    by_centre = {c.center_mask: k for k, c in enumerate(onto)}
    to = [by_centre.get(mask) for mask in centres]
    images = [tuple(sorted(map(perm.__getitem__, c.members))) for c in fam]
    return [None if k is None or img != onto[k].members else k for img, k in zip(images, to)]


def star_catalog(G: GrassmannGraph) -> list[MaximalClique]:
    """Every star: G.star_bitsets under its centre's mask, members ascending."""
    stars = G.star_bitsets
    centres, codes = span_table(G.spec, G.n, G.m - 1)
    masks = _bit_sums(codes)
    bitsets = list(map(stars.__getitem__, masks))
    return _catalog("star", centres, codes, masks, (tuple(bits(b)) for b in bitsets), bitsets)


def top_catalog(G: GrassmannGraph) -> list[MaximalClique]:
    """Every top: the vertices whose masks are its centre's hyperplane masks, ascending."""
    centres, codes = span_table(G.spec, G.n, G.m + 1)
    vertex = dict(zip(G.masks, range(len(G.masks)))).__getitem__
    masks: list[int] = []
    members: list[tuple[int, ...]] = []
    bitsets: list[int] = []
    for _, sums, planes in _hyperplane_blocks(G.spec, codes):
        masks += _row_sums(sums)
        ids = [list(map(vertex, keys)) for keys in planes]
        members += map(tuple, map(sorted, zip(*ids)))
        bitsets += _bit_sums(ids)
    return _catalog("top", centres, codes, masks, members, bitsets)


class Symmetry(NamedTuple):
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
    image of its mask, read off G.spans (_image_masks); a centre's image
    mask is read off its catalog's centre spans.  A is certified only when
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
    to the vertex whose mask is the image of v's mask: the sum of 1 << f[x]
    over the codes x of v's span, for all vertices at once from G.spans.
    None when the vector map or the vertex map is not a bijection.
    """
    f = _row_span(G.spec, rows, {})
    if sorted(f) != list(range(len(f))):
        return None
    perm = list(map(G.index.get, _image_masks(f, G.spans)))
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
        to = _carried(perm, fam, fam, _image_masks(f, _centre_spans(fam)))
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


class CliqueCensus(NamedTuple):
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

    def __init__(self, q: int):
        self.q = q
        self.star_top_ok = self.pairwise_ok = self.star_meet_ok = self.top_meet_ok = True
        self.counterexamples: list[dict] = []

    def __eq__(self, other):
        return type(other) is LemmaReport and vars(self) == vars(other)

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


class DualReport:
    """The orthogonal-complement map on a J_q(2m, m).

    It should be an adjacency-preserving involution on the vertices that
    carries every star onto the top over the dual centre and conversely.
    """

    def __init__(self):
        self.bijection = self.involution = self.preserves_adjacency = True
        self.stars_to_tops = self.tops_to_stars = True
        self.counterexamples: list[dict] = []

    @property
    def ok(self) -> bool:
        return (
            self.bijection
            and self.involution
            and self.preserves_adjacency
            and self.stars_to_tops
            and self.tops_to_stars
        )


def dual_permutation(G: GrassmannGraph) -> list[int]:
    """Vertex permutation induced by the orthogonal complement, taken from masks.

    W^perp holds the vectors orthogonal to every basis row of W, so its
    mask is the AND of G.complements over the codes of those rows, read
    off G.spans (_dual_masks): no elimination.
    """
    if G.n != 2 * G.m:
        raise ValueError("duality requires n = 2m")
    return list(map(G.index.__getitem__, _dual_masks(G, G.spans)))


def dual_map_check(G: GrassmannGraph) -> DualReport:
    """Check the complement map on the vertices and on the clique catalogs.

    The dual clique of each star or top is looked up in G.tops or G.stars
    by the mask of the dual centre, taken from G.complements over the
    held catalog's centre spans, not rebuilt.
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
        centres = _dual_masks(G, _centre_spans(cliques))
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
