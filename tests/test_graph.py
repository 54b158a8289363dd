import random
import sys
from types import SimpleNamespace

import pytest

import grassmann_lab.graph as graph_module
from grassmann_lab import (
    build_graph,
    classify_maximal_cliques,
    coreness,
    dual_map_check,
    make_field,
    star_catalog,
    symmetry_certificate,
    top_catalog,
    verify_clique_lemmas,
)
from grassmann_lab.config import BoundExceeded
from grassmann_lab.graph import (
    GrassmannGraph,
    MaximalClique,
    _adjacency_breaks,
    _bit_sums,
    _centre_spans,
    _dual_masks,
    _image_masks,
    _maximal_cliques_through,
    bits,
    dual_permutation,
    map_bitset,
)
from grassmann_lab.qpoly import omega_int
from grassmann_lab.report import graph_to_dot, graph_to_json, graph_to_text
from grassmann_lab.subspaces import span_table, vector_mask
from oracles import (
    all_maximal_cliques,
    bfs_distances,
    canonicalize,
    degree_by_masks,
    distance_by_masks,
    dual_complement,
    enumerate_subspaces,
    intersection_dim_by_enumeration,
    mask_by_enumeration,
    matrix,
    pairwise_adjacency,
    rref,
    span_codes,
    span_vectors,
)


def _uncached(G):
    """A copy of G with none of its cached properties computed."""
    return GrassmannGraph(G.spec, G.n, G.m, G.bases)


def test_map_bitset_is_the_image_of_the_set():
    mapping = [3, 0, 3, 5, 1]
    assert map_bitset(mapping, 0) == 0
    assert map_bitset(mapping, 0b10101) == 1 << 3 | 1 << 1  # 0 and 2 share an image
    assert map_bitset(mapping, 0b01010) == 1 << 0 | 1 << 5


def test_vertex_counts(j242, j252, j342):
    assert j242.num_vertices == 35
    assert j252.num_vertices == 155
    assert j342.num_vertices == 130


# m = 1, n = 2m, n - m = 1, prime and extension fields (GF(4), GF(8), GF(9))
GRAPHS = [
    (2, 1, 3, 1),
    (3, 1, 3, 1),
    (2, 1, 4, 3),
    (2, 1, 5, 3),
    (2, 1, 6, 4),
    (2, 1, 6, 3),
    (3, 1, 4, 2),
    (3, 1, 5, 2),
    (5, 1, 4, 2),
    (2, 2, 4, 2),
    (2, 3, 3, 1),
    (3, 2, 3, 2),
]
GRAPH_IDS = [
    "j231", "j331", "j243", "j253", "j264", "j263", "j342", "j352", "j542", "j442", "j831",
    "j932",
]


def _text_degree(G) -> int:
    """The degree graph_to_text prints in its header line."""
    return int(graph_to_text(G).split("\n", 1)[0].rsplit(" ", 1)[1])


@pytest.mark.parametrize("p, e, n, m", GRAPHS, ids=GRAPH_IDS)
def test_star_union_adjacency_matches_pairwise_masks(p, e, n, m):
    # masks from span enumeration, adjacency from every pair's popcount;
    # the closed-form degree of the text header is each vertex's count of
    # meeting masks, and each adjacency row's popcount
    G = build_graph(make_field(p, e), n, m)
    masks = [mask_by_enumeration(G.spec, S) for S in G.vertices]
    rows = pairwise_adjacency(masks, G.spec.q, m)
    degree = _text_degree(G)
    assert [r.bit_count() for r in rows] == [degree] * G.num_vertices
    assert [degree_by_masks(G, i) for i in range(G.num_vertices)] == [degree] * G.num_vertices
    assert "adjacency" not in vars(G)
    assert list(G.masks) == masks
    assert list(G.adjacency) == rows


@pytest.mark.parametrize("p, e, n, m", GRAPHS, ids=GRAPH_IDS)
def test_the_derived_spans_and_vertices_match_the_enumeration(p, e, n, m):
    # G holds only its RREF basis rows; its span table and Subspace view,
    # both built on first use, are the per-space oracle spans and
    # span_table's spaces
    spec = make_field(p, e)
    G = build_graph(spec, n, m)
    assert set(vars(G)) == {"spec", "n", "m", "bases"}
    assert [list(row) for row in zip(*G.spans)] == [span_codes(spec, B, n) for B in G.bases]
    spaces, codes = span_table(spec, n, m)
    assert G.vertices == tuple(spaces) and G.spans == codes
    assert G.bases == tuple(S.basis.rows for S in spaces)
    assert all(type(row) is tuple for B in G.bases for row in B)


def test_a_text_dump_builds_neither_stars_nor_adjacency(f2):
    G = build_graph(f2, 6, 3)
    graph_to_text(G)
    built = {"adjacency", "star_bitsets", "_star_rows", "spans", "masks", "vertices"}
    assert not built & set(vars(G))


def test_json_and_dot_dumps_build_neither_stars_nor_adjacency(f2):
    # a dump's edges come from the star grouping, made once per dump and not kept
    G = build_graph(f2, 6, 3)
    graph_to_json(G)
    graph_to_dot(G)
    assert not {"adjacency", "star_bitsets", "_star_rows"} & set(vars(G))


def test_m_equal_one_is_complete(f2):
    G = build_graph(f2, 3, 1)
    assert G.num_vertices == 7
    assert all(degree_by_masks(G, i) == 6 for i in range(7)) and _text_degree(G) == 6


def test_regular_with_expected_degree(j242, j252, j342):
    for G, expected in ((j242, 18), (j252, 42), (j342, 48)):
        degrees = {degree_by_masks(G, i) for i in range(G.num_vertices)}
        assert degrees == {a.bit_count() for a in G.adjacency} == {_text_degree(G)} == {expected}


def test_adjacency_iff_stacked_rank(j242, j342):
    # two independent implementations: vector counting vs Gaussian elimination
    for G in (j242, j342):
        for i in range(G.num_vertices):
            for j in range(i + 1, G.num_vertices):
                stacked = matrix(G.spec, G.vertices[i].basis.rows + G.vertices[j].basis.rows)
                by_rank = rref(stacked)[1] == G.m + 1
                assert G.adjacent(i, j) == by_rank


def test_adjacency_iff_enumerated_intersection(j242):
    for i in range(0, j242.num_vertices, 5):
        for j in range(i + 1, j242.num_vertices):
            d = intersection_dim_by_enumeration(j242.spec, j242.vertices[i], j242.vertices[j])
            assert j242.adjacent(i, j) == (d == j242.m - 1)


def test_distance_formula_equals_bfs(j242, j252, j342):
    for G in (j242, j252, j342):
        for src in range(G.num_vertices):
            dist = bfs_distances(G.adjacency, src)
            for v in range(G.num_vertices):
                assert distance_by_masks(G, src, v) == dist[v]


def test_distance_basics(j242):
    assert distance_by_masks(j242, 0, 0) == 0
    some_neighbour = next(iter(bits(j242.adjacency[0])))
    assert distance_by_masks(j242, 0, some_neighbour) == 1


def _span_sets(G, spaces):
    return [span_vectors(G.spec, S.basis.rows, G.n) for S in spaces]


def _coefficient_span(S):
    """The oracle's codes of S's span, position by position."""
    return span_codes(S.spec, S.basis.rows, S.ambient)


def _clique_over(cliques, centre):
    """The catalog entry over centre: a lookup in G.stars or G.tops."""
    (c,) = (c for c in cliques if c.center == centre)
    return c


def test_star_and_top_sizes(j242, j252, j342):
    for G, star_size, top_size in ((j242, 7, 7), (j252, 15, 7), (j342, 13, 13)):
        assert G.stars[0].size == star_size
        assert G.tops[0].size == top_size
    # n > 2m makes stars strictly larger; n = 2m makes sizes equal
    assert j252.stars[0].size > 7


def test_star_members_contain_centre(j242):
    P = enumerate_subspaces(j242.spec, 4, 1)[3]
    s = _clique_over(j242.stars, P)
    (vp,) = _span_sets(j242, [P])
    members = {v for v, vs in enumerate(_span_sets(j242, j242.vertices)) if vp <= vs}
    assert set(s.members) == members
    for i in s.members:
        for j in s.members:
            if i < j:
                assert j242.adjacent(i, j)


def test_top_members_inside_centre(j242):
    Q = enumerate_subspaces(j242.spec, 4, 3)[2]
    t = _clique_over(j242.tops, Q)
    (vq,) = _span_sets(j242, [Q])
    members = {v for v, vs in enumerate(_span_sets(j242, j242.vertices)) if vs <= vq}
    assert set(t.members) == members
    for i in t.members:
        for j in t.members:
            if i < j:
                assert j242.adjacent(i, j)


@pytest.mark.parametrize(
    "p, e, n, m",
    [
        (2, 1, 4, 2), (3, 1, 4, 2), (2, 2, 4, 2), (2, 1, 5, 2), (2, 1, 5, 3),
        (2, 1, 3, 1), (2, 1, 4, 3), (2, 2, 3, 2),
    ],
    ids=["j242", "j342", "j442", "j252", "j253", "j231", "j243", "j432"],
)
def test_star_and_top_members_match_contains(p, e, n, m):
    # the mask catalogs against containment of enumerated spans
    G = build_graph(make_field(p, e), n, m)
    spans = _span_sets(G, G.vertices)
    stars = enumerate_subspaces(G.spec, n, m - 1)
    tops = enumerate_subspaces(G.spec, n, m + 1)
    cliques = [
        (_clique_over(G.stars, P), tuple(v for v, vs in enumerate(spans) if vp <= vs))
        for P, vp in zip(stars, _span_sets(G, stars))
    ] + [
        (_clique_over(G.tops, Q), tuple(v for v, vs in enumerate(spans) if vs <= vq))
        for Q, vq in zip(tops, _span_sets(G, tops))
    ]
    for c, members in cliques:
        assert c.members == members
        assert c.bitset == sum(1 << v for v in members)
        for v in members:
            assert (G.adjacency[v] | 1 << v) & c.bitset == c.bitset
    if m in (1, n - 1):  # K_V: one star (m = 1) or one top (m = n-1) holds every vertex
        (whole,) = G.stars if m == 1 else G.tops
        assert whole.members == tuple(range(G.num_vertices))


def test_star_and_top_return_the_catalog_entries(j242, j252):
    # one catalog entry per centre, in centre enumeration order, keyed by its mask
    for G in (j242, j252):
        stars = enumerate_subspaces(G.spec, G.n, G.m - 1)
        tops = enumerate_subspaces(G.spec, G.n, G.m + 1)
        assert len(G.stars) == len(stars) and len(G.tops) == len(tops)
        for P, s in zip(stars, G.stars):
            assert s.center == P and s.center_mask == mask_by_enumeration(G.spec, P)
        for Q, t in zip(tops, G.tops):
            assert t.center == Q and t.center_mask == mask_by_enumeration(G.spec, Q)


@pytest.mark.parametrize(
    "p, e, n, m", [(2, 1, 4, 2), (2, 2, 4, 2), (2, 1, 5, 3)], ids=["j242", "j442", "j253"]
)
def test_vertex_ids_go_by_mask(p, e, n, m):
    G = build_graph(make_field(p, e), n, m)
    assert len(G.index) == G.num_vertices
    for i, v in enumerate(G.vertices):
        assert G.vertex_id(v) == i
    # the first m-space of GF(q)^(n-1) has the mask of vertex 0, but is no vertex
    with pytest.raises(KeyError):
        G.vertex_id(enumerate_subspaces(G.spec, n - 1, m)[0])
    with pytest.raises(KeyError):
        G.vertex_id(enumerate_subspaces(make_field(3, 1), n, m)[0])


def _through(adj, v, done=0):
    return sorted(tuple(bits(c)) for c in _maximal_cliques_through(adj, v, done))


def test_bruteforce_cliques_j242(j242):
    census = classify_maximal_cliques(j242)
    assert census.total == 30
    assert census.star_count == 15 and census.star_size == 7
    assert census.top_count == 15 and census.top_size == 7
    assert census.unmatched == []
    for v in range(35):
        cliques = _through(j242.adjacency, v)
        assert len(cliques) == 6  # the 3 stars and 3 tops through a line of PG(3,2)
        for members in cliques:
            assert v in members and len(members) == 7
            # really a clique, and maximal: nobody outside is adjacent to all
            for a in members:
                for b in members:
                    if a < b:
                        assert j242.adjacent(a, b)
            mask = sum(1 << u for u in members)
            for outside in range(35):
                if not mask >> outside & 1:
                    assert (j242.adjacency[outside] & mask) != mask


def test_bruteforce_cliques_j252(j252):
    census = classify_maximal_cliques(j252)
    assert census.total == 186
    assert census.star_count == 31 and census.star_size == 15
    assert census.top_count == 155 and census.top_size == 7
    assert census.unmatched == []


def test_bruteforce_cliques_j342(j342):
    census = classify_maximal_cliques(j342)
    assert census.total == 80
    assert census.star_count == 40 and census.top_count == 40
    assert census.star_size == 13 and census.top_size == 13
    assert census.unmatched == []


def test_bruteforce_cliques_match_the_recursive_reference(j242, j252, j342):
    # the cliques through v are the reference's cliques holding v
    for G in (j242, j252, j342):
        expected = all_maximal_cliques(G.adjacency, G.num_vertices)
        for v in range(0, G.num_vertices, 7):
            assert _through(G.adjacency, v) == [c for c in expected if v in c]


def _random_graph(graph_seed):
    rng = random.Random(graph_seed)
    nv = rng.randint(1, 40)
    p = rng.uniform(0.1, 0.9)
    adj = [0] * nv
    for i in range(nv):
        for j in range(i):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return nv, adj


@pytest.mark.parametrize("graph_seed", range(12))
def test_bruteforce_cliques_match_the_reference_on_random_graphs(graph_seed):
    nv, adj = _random_graph(graph_seed)
    expected = all_maximal_cliques(adj, nv)
    found, done = [], 0
    for v in range(nv):
        assert _through(adj, v) == [c for c in expected if v in c]
        # the cliques whose least vertex is v: each maximal clique once
        found += _through(adj, v, done)
        done |= 1 << v
    assert sorted(found) == expected


def test_bruteforce_cliques_leave_the_recursion_limit_alone(f2, monkeypatch):
    def refuse(limit):
        raise AssertionError("clique enumeration changed the interpreter's recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    G = build_graph(f2, 10, 1)  # complete on 1023 vertices: one frame per vertex
    assert _maximal_cliques_through(G.adjacency, 0) == [(1 << 1023) - 1]


def test_bruteforce_bound(j242):
    with pytest.raises(BoundExceeded):
        classify_maximal_cliques(j242, bound=10)


@pytest.mark.parametrize(
    "p, e, n, m",
    [(2, 1, 2, 1), (2, 1, 4, 1), (2, 1, 4, 2), (2, 1, 5, 2), (3, 1, 4, 2), (2, 2, 4, 2),
     (2, 1, 6, 3)],
    ids=["j221", "j241", "j242", "j252", "j342", "j442", "j263"],
)
def test_symmetry_is_certified_and_transitive(p, e, n, m):
    G = build_graph(make_field(p, e), n, m)
    sym = G.symmetry
    assert len(sym.perms) == (2 if p**e == 2 else 3)  # every generator passes
    for orbit in (sym.vertex_orbit, sym.star_orbit, sym.top_orbit):
        assert set(orbit) == {0}
    for perm in sym.perms:
        assert sorted(perm) == list(range(G.num_vertices))
        assert _adjacency_breaks(G.adjacency, perm) == []
    reference = all_maximal_cliques(G.adjacency, G.num_vertices)
    assert classify_maximal_cliques(G) == classify_maximal_cliques(G, reference)


def test_symmetry_rejects_a_singular_generator(f2, monkeypatch):
    # x -> (0, x0 + x1, x2, x3) is singular; the two real generators stay
    rows = graph_module._generator_rows
    singular = [[0, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    monkeypatch.setattr(graph_module, "_generator_rows", lambda spec, n: rows(spec, n) + [singular])
    G = build_graph(f2, 4, 2)
    assert len(G.symmetry.perms) == 2
    assert set(G.symmetry.vertex_orbit) == {0}


def test_symmetry_rejects_a_vertex_map_with_two_vertices_swapped(j242):
    # an index that swaps two ids composes every induced vertex map with
    # that swap, which breaks adjacency; the census and the lemma checks
    # then run over every vertex and every pair
    G = _uncached(j242)
    G.__dict__["index"] = {mask: {0: 1, 1: 0}.get(i, i) for i, mask in enumerate(j242.masks)}
    swap = [1, 0, *range(2, 35)]
    assert _adjacency_breaks(G.adjacency, swap)
    sym = symmetry_certificate(G)
    assert sym.perms == ()
    assert sym.vertex_orbit == list(range(35)) and sym.top_orbit == list(range(15))
    G.__dict__["symmetry"] = sym
    assert classify_maximal_cliques(G) == classify_maximal_cliques(j242)
    assert verify_clique_lemmas(G) == verify_clique_lemmas(j242)


def test_symmetry_rejects_generators_on_a_corrupted_catalog(j242, monkeypatch):
    # every star claims the next star's centre: no generator carries the
    # catalog onto itself
    stars = star_catalog(j242)
    rotated = [
        MaximalClique(s.kind, nxt.center, nxt.center_mask, s.members, s.bitset, nxt.span)
        for s, nxt in zip(stars, stars[1:] + stars[:1])
    ]
    monkeypatch.setattr(graph_module, "star_catalog", lambda G: rotated)
    sym = _uncached(j242).symmetry
    assert sym.perms == () and sym.star_orbit == list(range(15))


def test_census_lists_every_unmatched_clique(j242, monkeypatch):
    # a top catalog that repeats the stars is still carried onto itself by
    # every generator, so the census searches through vertex 0 alone and
    # must close the real tops it finds there under the group
    fake = [
        MaximalClique("top", s.center, s.center_mask, s.members, s.bitset, s.span)
        for s in star_catalog(j242)
    ]
    monkeypatch.setattr(graph_module, "top_catalog", lambda G: fake)
    G = _uncached(j242)
    assert len(G.symmetry.perms) == 2 and set(G.symmetry.vertex_orbit) == {0}
    census = classify_maximal_cliques(G)
    assert census == classify_maximal_cliques(G, all_maximal_cliques(G.adjacency, 35))
    assert census.total == 30 and census.top_count == 15 and len(census.unmatched) == 15


def test_lemma_pairs_cover_every_pair_under_a_smaller_group(f2, monkeypatch):
    # with the cyclic shift alone the orbits are not transitive.  Any two
    # points of PG(3,2) span a line and any two planes meet in one, so
    # every pair of stars and every pair of tops shares one vertex, and a
    # dimension that never matches turns each visited pair into a
    # counterexample.  Closed under the shift, the visited pairs must be
    # all pairs.
    rows = graph_module._generator_rows
    monkeypatch.setattr(graph_module, "_generator_rows", lambda spec, n: rows(spec, n)[1:])
    G = build_graph(f2, 4, 2)
    (perm,) = G.symmetry.perms
    assert len(set(G.symmetry.star_orbit)) > 1 and len(set(G.symmetry.top_orbit)) > 1
    monkeypatch.setattr(graph_module, "_subspace_dim", lambda size, q: -1)
    report = verify_clique_lemmas(G)
    for check, fam in (("star-meet", G.stars), ("top-meet", G.tops)):
        index = {c.bitset: k for k, c in enumerate(fam)}
        to = [index[map_bitset(perm, c.bitset)] for c in fam]
        seen = {frozenset(c["pair"]) for c in report.counterexamples if c["check"] == check}
        frontier = seen
        while frontier:
            frontier = {frozenset(to[k] for k in pair) for pair in frontier} - seen
            seen |= frontier
        assert len(seen) == len(fam) * (len(fam) - 1) // 2


def test_clique_lemmas_pass(j242, j252, j342):
    for G in (j242, j252, j342):
        report = verify_clique_lemmas(G)
        assert report.ok, report.counterexamples


def test_clique_lemmas_fail_on_corrupted_catalogs(j242, monkeypatch):
    # each check runs on a fresh copy of j242, whose catalogs the patched
    # builders make; j242 itself may have its real catalogs cached
    stars = star_catalog(j242)
    tops = top_catalog(j242)

    # every star claims the next star's centre
    rotated = [
        MaximalClique(s.kind, nxt.center, nxt.center_mask, s.members, s.bitset, nxt.span)
        for s, nxt in zip(stars, stars[1:] + stars[:1])
    ]
    monkeypatch.setattr(graph_module, "star_catalog", lambda G: rotated)
    report = verify_clique_lemmas(_uncached(j242))
    assert not report.star_top_ok and not report.star_meet_ok
    assert report.pairwise_ok and report.top_meet_ok
    assert {c["check"] for c in report.counterexamples} == {"star-top", "star-meet"}

    # the first top swallows the second
    merged = tops[0].bitset | tops[1].bitset
    grown = [
        MaximalClique(
            "top", tops[0].center, tops[0].center_mask, tuple(bits(merged)), merged, tops[0].span
        )
    ] + tops[1:]
    monkeypatch.setattr(graph_module, "star_catalog", star_catalog)
    monkeypatch.setattr(graph_module, "top_catalog", lambda G: grown)
    report = verify_clique_lemmas(_uncached(j242))
    assert not report.pairwise_ok and not report.top_meet_ok
    checks = {c["check"] for c in report.counterexamples}
    assert {"pairwise", "top-meet"} <= checks
    assert all(c["family"] == "tops" for c in report.counterexamples if c["check"] == "pairwise")


def test_clique_lemmas_flag_two_stars_sharing_two_vertices(j242, monkeypatch):
    # star 0 also claims one member of star 1, so the two share two vertices
    stars = star_catalog(j242)
    extra = next(v for v in stars[1].members if v not in stars[0].members)
    grown = stars[0].bitset | 1 << extra
    corrupted = [
        MaximalClique(
            "star", stars[0].center, stars[0].center_mask, tuple(bits(grown)), grown, stars[0].span
        )
    ] + stars[1:]
    monkeypatch.setattr(graph_module, "star_catalog", lambda G: corrupted)
    report = verify_clique_lemmas(_uncached(j242))
    assert not report.pairwise_ok and not report.star_meet_ok
    assert report.top_meet_ok
    assert {"check": "pairwise", "family": "stars", "pair": (0, 1), "common": 2} in (
        report.counterexamples
    )
    assert {"check": "star-meet", "pair": (0, 1), "dim": 0} in report.counterexamples
    assert all(c["family"] == "stars" for c in report.counterexamples if c["check"] == "pairwise")


def test_incident_star_top_sizes(j242, j342):
    for G in (j242, j342):
        q = G.spec.q
        stars = star_catalog(G)
        tops = top_catalog(G)
        seen = 0
        for s in stars:
            for t in tops:
                common = s.bitset & t.bitset
                if common:
                    assert common.bit_count() == q + 1
                    seen += 1
        assert seen > 0


def test_dual_map_on_j242(j242):
    report = dual_map_check(j242)
    assert report.ok, report.counterexamples


def _swap_first_coordinates(S):
    rows = [(r[1], r[0], *r[2:]) for r in S.basis.rows]
    return canonicalize(matrix(S.spec, rows, S.ambient))


def test_dual_map_check_names_centres_a_coordinate_swap_moves(j242, monkeypatch):
    # the duality followed by swapping the first two coordinates of GF(2)^4
    # is still an adjacency-preserving involution, but it sends the star
    # over P to the top over swap(P)^perp, which is the dual top only when
    # the swap fixes P
    dual = dual_permutation(j242)
    swap = [j242.vertex_id(_swap_first_coordinates(v)) for v in j242.vertices]
    monkeypatch.setattr(graph_module, "dual_permutation", lambda G: [swap[d] for d in dual])
    report = dual_map_check(j242)
    assert report.bijection and report.involution and report.preserves_adjacency
    assert not report.stars_to_tops and not report.tops_to_stars
    named = {"star-to-top": [], "top-to-star": []}
    for c in report.counterexamples:
        named[c["check"]].append(c["center"])
    for check, dim in (("star-to-top", 1), ("top-to-star", 3)):
        moved = [
            C.basis.rows
            for C in enumerate_subspaces(j242.spec, 4, dim)
            if _swap_first_coordinates(C).basis.rows != C.basis.rows
        ]
        assert moved and named[check] == moved


@pytest.mark.parametrize(
    "p, e, n, m",
    [
        (2, 1, 2, 1), (2, 1, 4, 2), (3, 1, 4, 2), (2, 2, 4, 2), (2, 1, 6, 3), (3, 2, 4, 1),
        (2, 3, 4, 2),
    ],
    ids=["j221", "j242", "j342", "j442", "j263", "j941", "j842"],
)
def test_complement_masks_match_elimination(p, e, n, m):
    # G.complements entry by entry, then the AND of the point complements
    # over the span table's basis rows, against the oracle's null space by
    # elimination, on every vertex and centre.  GF(9) has a neg that is
    # neither the identity nor integer negation mod p.
    G = build_graph(make_field(p, e), n, m)
    table = [0] * G.spec.q**n
    for P in enumerate_subspaces(G.spec, n, 1):
        perp = mask_by_enumeration(G.spec, dual_complement(P))
        for x in span_codes(G.spec, P.basis.rows, n)[1:]:
            table[x] = perp
    assert G.complements == table
    for spaces, codes in (
        (G.vertices, G.spans),
        ([c.center for c in G.stars], _centre_spans(G.stars)),
        ([c.center for c in G.tops], _centre_spans(G.tops)),
    ):
        assert _dual_masks(G, codes) == [vector_mask(dual_complement(S)) for S in spaces]
    if n == 2 * m:
        by_rref = [vector_mask(dual_complement(S)) for S in G.vertices]
        assert dual_permutation(G) == [G.index[mask] for mask in by_rref]


@pytest.mark.parametrize(
    "p, e, n, m",
    [(2, 1, 4, 2), (3, 1, 4, 2), (2, 2, 4, 2), (2, 1, 6, 3)],
    ids=["j242", "j342", "j442", "j263"],
)
def test_table_image_masks_match_the_mask_walk(p, e, n, m):
    # every certificate generator and every cyclic candidate of the
    # coreness search, read off the span tables against map_bitset on masks
    G = build_graph(make_field(p, e), n, m)
    k = omega_int(n, m, G.spec.q)
    cyclic = [coreness._cyclic_candidate(G.spec, n, s) for s in range(2, k + 1) if k % s == 0]
    maps = graph_module._generator_rows(G.spec, n) + [rows for rows in cyclic if rows]
    assert len(maps) > len(graph_module._generator_rows(G.spec, n))
    for rows in maps:
        f = graph_module._row_span(G.spec, rows, {})
        walked = [map_bitset(f, mask) for mask in G.masks]
        assert _image_masks(f, G.spans) == walked
        assert graph_module.induced_permutation(G, rows) == [G.index[x] for x in walked]
        for fam in (G.stars, G.tops):
            centres = [map_bitset(f, c.center_mask) for c in fam]
            assert _image_masks(f, _centre_spans(fam)) == centres


def test_centre_tables_follow_the_held_catalogs(j242, monkeypatch):
    # the built catalogs carry their table's rows; a catalog put in their
    # place, here stars over their neighbours' centres and a top catalog
    # made of the stars, has the spans of its own centres
    for fam in (j242.stars, j242.tops):
        assert [list(c.span) for c in fam] == [_coefficient_span(c.center) for c in fam]
    stars = star_catalog(j242)
    rotated = [
        MaximalClique(s.kind, nxt.center, nxt.center_mask, s.members, s.bitset, nxt.span)
        for s, nxt in zip(stars, stars[1:] + stars[:1])
    ]
    monkeypatch.setattr(graph_module, "star_catalog", lambda G: rotated)
    fake = [
        MaximalClique("top", s.center, s.center_mask, s.members, s.bitset, s.span) for s in stars
    ]
    monkeypatch.setattr(graph_module, "top_catalog", lambda G: fake)
    G = _uncached(j242)
    for fam in (G.stars, G.tops):
        table = _centre_spans(fam)
        assert [list(row) for row in zip(*table)] == [_coefficient_span(c.center) for c in fam]
        assert _bit_sums(table) == [c.center_mask for c in fam]


def test_adjacency_that_is_not_the_star_relation_certifies_nothing(j242):
    # one edge removed from both rows: the catalogs still map onto
    # themselves, but no catalog map can certify adjacency any more
    u, w = 0, next(bits(j242.adjacency[0]))
    adj = list(j242.adjacency)
    adj[u] ^= 1 << w
    adj[w] ^= 1 << u
    G = GrassmannGraph(j242.spec, j242.n, j242.m, j242.bases)
    G.__dict__["adjacency"] = tuple(adj)  # planted before the first read
    assert G.star_bitsets == j242.star_bitsets and G.adjacency == tuple(adj)
    assert G.clique_adjacency == (False, False)
    sym = symmetry_certificate(G)
    assert sym.perms == ()
    assert sym.vertex_orbit == list(range(35))
    assert sym.star_orbit == sym.top_orbit == list(range(15))
    assert classify_maximal_cliques(G) == classify_maximal_cliques(
        G, all_maximal_cliques(G.adjacency, 35)
    )
    report = dual_map_check(G)
    breaks = _adjacency_breaks(G.adjacency, dual_permutation(G))
    assert breaks and not report.preserves_adjacency
    assert report.bijection and report.involution
    assert report.stars_to_tops and report.tops_to_stars
    assert report.counterexamples == [{"check": "adjacency", "vertex": i} for i in breaks]


def test_dual_map_check_maps_rows_when_the_tops_are_not_the_adjacency(j242, monkeypatch):
    # a vertex swap that is no automorphism, over a top catalog made of the
    # swapped stars at the dual centres: it carries the stars onto the tops
    # and back, and only the top relation shows that it breaks adjacency
    swap = [1, 0, *range(2, 35)]
    stars = {s.center_mask: s for s in star_catalog(j242)}
    fake = []
    for t in top_catalog(j242):
        img = map_bitset(swap, stars[vector_mask(dual_complement(t.center))].bitset)
        fake.append(
            MaximalClique(t.kind, t.center, t.center_mask, tuple(bits(img)), img, t.span)
        )
    monkeypatch.setattr(graph_module, "top_catalog", lambda G: fake)
    monkeypatch.setattr(graph_module, "dual_permutation", lambda G: swap)
    G = _uncached(j242)
    assert G.clique_adjacency == (True, False)
    report = dual_map_check(G)
    assert report.bijection and report.involution
    assert report.stars_to_tops and report.tops_to_stars
    breaks = _adjacency_breaks(G.adjacency, swap)
    assert breaks and not report.preserves_adjacency
    assert report.counterexamples == [{"check": "adjacency", "vertex": i} for i in breaks]


def _image_oracle(perm, bitset):
    """The image of a vertex bitset under perm, one bit at a time."""
    return sum(1 << perm[v] for v in range(bitset.bit_length()) if bitset >> v & 1)


def test_carried_rejects_exactly_the_cliques_whose_bitset_image_differs(f2):
    # a certified generator followed by a transposition that is no
    # automorphism: the tuple check must reject the cliques whose image,
    # computed bit by bit, is not the catalog clique over the image centre
    G = build_graph(f2, 4, 2)
    rows = graph_module._generator_rows(G.spec, G.n)[0]
    f = graph_module._row_span(G.spec, rows, {})
    perm = graph_module.induced_permutation(G, rows)
    perm[0], perm[7] = perm[7], perm[0]
    assert _adjacency_breaks(G.adjacency, perm)
    for fam in (G.stars, G.tops):
        centres = [map_bitset(f, c.center_mask) for c in fam]
        by_centre = {c.center_mask: k for k, c in enumerate(fam)}
        to = [by_centre[mask] for mask in centres]
        expected = [
            k if _image_oracle(perm, c.bitset) == fam[k].bitset else None for c, k in zip(fam, to)
        ]
        assert None in expected and any(k is not None for k in expected)
        assert graph_module._carried(perm, fam, fam, centres) == expected
    assert graph_module._certify(G, rows) is not None  # the generator alone passes


def test_dual_map_check_rejects_a_dual_map_with_two_vertices_swapped(j242, monkeypatch):
    dual = dual_permutation(j242)
    swapped = [dual[{0: 1, 1: 0}.get(v, v)] for v in range(35)]
    monkeypatch.setattr(graph_module, "dual_permutation", lambda G: swapped)
    report = dual_map_check(j242)
    assert report.bijection and not report.stars_to_tops and not report.tops_to_stars
    tops = {t.center_mask: t for t in j242.tops}
    missed = [
        s.center.basis.rows
        for s in j242.stars
        if _image_oracle(swapped, s.bitset) != tops[vector_mask(dual_complement(s.center))].bitset
    ]
    named = [c["center"] for c in report.counterexamples if c["check"] == "star-to-top"]
    assert missed and named == missed
    broken = [
        i
        for i, row in enumerate(j242.adjacency)
        if _image_oracle(swapped, row) != j242.adjacency[swapped[i]]
    ]
    assert broken and not report.preserves_adjacency
    named = [c["vertex"] for c in report.counterexamples if c["check"] == "adjacency"]
    assert named == broken


def test_one_vertex_grouping_per_graph(f2, monkeypatch):
    # the star bitsets and the adjacency come from one cached grouping, so
    # the catalogs, the certificate and every check group the vertices no
    # second time; the top catalog reads its members off the top centres'
    # span table
    groups = graph_module._hyperplane_groups
    sizes = []

    def counted(spec, codes):
        sizes.append((len(codes), len(codes[0])))
        return groups(spec, codes)

    monkeypatch.setattr(graph_module, "_hyperplane_groups", counted)
    G = build_graph(f2, 4, 2)
    assert sizes == []  # build_graph groups nothing
    assert classify_maximal_cliques(G).ok and verify_clique_lemmas(G).ok and dual_map_check(G).ok
    assert sizes == [(4, 35)]  # the 35 vertices' 2^2 span positions, once
    assert {c.center_mask: c.bitset for c in G.stars} == G.star_bitsets
    assert all(c.members == tuple(bits(c.bitset)) for c in G.stars)


def test_dual_map_requires_n_twice_m(j252):
    with pytest.raises(ValueError, match="duality requires n = 2m"):
        dual_map_check(j252)


def test_build_bound(f2):
    with pytest.raises(BoundExceeded, match="enumeration too large"):
        build_graph(f2, 10, 5)


def test_build_bounds_the_span_table_entries():
    # both are under the vertex bound: 4,369 and 1,365 vertices
    from grassmann_lab import make_field

    for (p, e, n, m), codes in [((2, 4, 4, 3), 17895424), ((2, 2, 6, 5), 1397760)]:
        with pytest.raises(BoundExceeded, match=f"too large: J_.* has {codes} codes > 1000000"):
            build_graph(make_field(p, e), n, m)


def test_build_rejects_big_fields():
    from grassmann_lab import make_field

    f25 = make_field(5, 2)
    with pytest.raises(BoundExceeded):
        build_graph(f25, 3, 1)


def test_catalog_counts(j252):
    assert len(star_catalog(j252)) == 31
    assert len(top_catalog(j252)) == 155


def test_extension_field_graph(f4):
    # J_4(4,2): 357 vertices over GF(4), n = 2m so duality applies
    G = build_graph(f4, 4, 2)
    assert G.num_vertices == 357
    assert {degree_by_masks(G, i) for i in range(357)} == {_text_degree(G)} == {4 * 5 * 5}
    assert G.stars[0].size == G.tops[0].size == 21
    assert dual_map_check(G).ok


def test_duality_on_complete_graph(f2):
    # n = 2m with m = 1: the complement map swaps the one star with the
    # one top, both being the whole triangle
    G = build_graph(f2, 2, 1)
    report = dual_map_check(G)
    assert report.ok, report.counterexamples
