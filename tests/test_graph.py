import random
import sys
from dataclasses import replace
from types import SimpleNamespace

import pytest

import grassmann_lab.graph as graph_module
from grassmann_lab import (
    all_maximal_cliques_bruteforce,
    build_graph,
    classify_maximal_cliques,
    dual_map_check,
    enumerate_subspaces,
    make_field,
    star,
    star_catalog,
    top,
    top_catalog,
    verify_clique_lemmas,
)
from grassmann_lab.config import BoundExceeded
from grassmann_lab.graph import bits, dual_permutation, map_bitset
from grassmann_lab.linalg import matrix, stack_rank
from grassmann_lab.subspaces import canonicalize, contains
from oracles import (
    all_maximal_cliques,
    bfs_distances,
    intersection_dim_by_enumeration,
    mask_by_enumeration,
    pairwise_adjacency,
)


def test_map_bitset_is_the_image_of_the_set():
    mapping = [3, 0, 3, 5, 1]
    assert map_bitset(mapping, 0) == 0
    assert map_bitset(mapping, 0b10101) == 1 << 3 | 1 << 1  # 0 and 2 share an image
    assert map_bitset(mapping, 0b01010) == 1 << 0 | 1 << 5


def test_vertex_counts(j242, j252, j342):
    assert j242.num_vertices == 35
    assert j252.num_vertices == 155
    assert j342.num_vertices == 130


@pytest.mark.parametrize(
    "p, e, n, m",
    [
        (2, 1, 3, 1),
        (3, 1, 3, 1),
        (2, 1, 4, 3),
        (2, 1, 5, 3),
        (2, 1, 6, 4),
        (2, 1, 6, 3),
        (3, 1, 5, 2),
        (5, 1, 4, 2),
        (2, 2, 4, 2),
        (2, 3, 3, 1),
        (3, 2, 3, 2),
    ],
    ids=["j231", "j331", "j243", "j253", "j264", "j263", "j352", "j542", "j442", "j831", "j932"],
)
def test_star_union_adjacency_matches_pairwise_masks(p, e, n, m):
    # masks from span enumeration, adjacency from every pair's popcount
    G = build_graph(make_field(p, e), n, m)
    masks = [mask_by_enumeration(G.spec, S) for S in G.vertices]
    assert list(G.masks) == masks
    assert list(G.adjacency) == pairwise_adjacency(masks, G.spec.q, m)


def test_m_equal_one_is_complete(f2):
    G = build_graph(f2, 3, 1)
    assert G.num_vertices == 7
    assert all(G.degree(i) == 6 for i in range(7))


def test_regular_with_expected_degree(j242, j252, j342):
    for G, expected in ((j242, 18), (j252, 42), (j342, 48)):
        degrees = {G.degree(i) for i in range(G.num_vertices)}
        assert degrees == {expected}


def test_adjacency_iff_stacked_rank(j242, j342):
    # two independent implementations: vector counting vs Gaussian elimination
    for G in (j242, j342):
        for i in range(G.num_vertices):
            for j in range(i + 1, G.num_vertices):
                by_rank = (
                    stack_rank(G.vertices[i].basis, G.vertices[j].basis) == G.m + 1
                )
                assert G.adjacent(i, j) == by_rank


def test_adjacency_iff_enumerated_intersection(j242):
    for i in range(0, j242.num_vertices, 5):
        for j in range(i + 1, j242.num_vertices):
            d = intersection_dim_by_enumeration(j242.spec, j242.vertices[i], j242.vertices[j])
            assert j242.adjacent(i, j) == (d == j242.m - 1)
            assert j242.intersection_dim(i, j) == d


def test_distance_formula_equals_bfs(j242, j252, j342):
    for G in (j242, j252, j342):
        for src in range(G.num_vertices):
            dist = bfs_distances(G.adjacency, src)
            for v in range(G.num_vertices):
                assert G.distance(src, v) == dist[v]


def test_distance_basics(j242):
    assert j242.distance(0, 0) == 0
    some_neighbour = next(iter(bits(j242.adjacency[0])))
    assert j242.distance(0, some_neighbour) == 1


def test_star_and_top_sizes(f2, j242, j252, j342):
    for G, star_size, top_size in ((j242, 7, 7), (j252, 15, 7), (j342, 13, 13)):
        P = enumerate_subspaces(G.spec, G.n, G.m - 1)[0]
        Q = enumerate_subspaces(G.spec, G.n, G.m + 1)[0]
        assert star(G, P).size == star_size
        assert top(G, Q).size == top_size
    # n > 2m makes stars strictly larger; n = 2m makes sizes equal
    assert star(j252, enumerate_subspaces(f2, 5, 1)[0]).size > 7


def test_star_members_contain_centre(j242):
    P = enumerate_subspaces(j242.spec, 4, 1)[3]
    s = star(j242, P)
    members = {v for v in range(35) if contains(j242.vertices[v], P)}
    assert set(s.members) == members
    for i in s.members:
        for j in s.members:
            if i < j:
                assert j242.adjacent(i, j)


def test_top_members_inside_centre(j242):
    Q = enumerate_subspaces(j242.spec, 4, 3)[2]
    t = top(j242, Q)
    members = {v for v in range(35) if contains(Q, j242.vertices[v])}
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
    # the mask catalogs against containment decided on RREF bases
    G = build_graph(make_field(p, e), n, m)
    cliques = [
        (star(G, P), tuple(v for v, S in enumerate(G.vertices) if contains(S, P)))
        for P in enumerate_subspaces(G.spec, n, m - 1)
    ] + [
        (top(G, Q), tuple(v for v, S in enumerate(G.vertices) if contains(Q, S)))
        for Q in enumerate_subspaces(G.spec, n, m + 1)
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
    for G in (j242, j252):
        stars = enumerate_subspaces(G.spec, G.n, G.m - 1)
        tops = enumerate_subspaces(G.spec, G.n, G.m + 1)
        assert len(G.stars) == len(stars) and len(G.tops) == len(tops)
        for P, s in zip(stars, G.stars):
            assert star(G, P) is s
        for Q, t in zip(tops, G.tops):
            assert top(G, Q) is t


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


def test_star_top_wrong_centre_dim(j242):
    with pytest.raises(ValueError):
        star(j242, j242.vertices[0])
    with pytest.raises(ValueError):
        top(j242, j242.vertices[0])
    # centres of the right dimension in another space name no clique of j242
    for F, n in ((j242.spec, 3), (make_field(3, 1), 4)):
        with pytest.raises(ValueError):
            star(j242, enumerate_subspaces(F, n, 1)[0])
        with pytest.raises(ValueError):
            top(j242, enumerate_subspaces(F, n, 3)[0])


def test_bruteforce_cliques_j242(j242):
    cliques = all_maximal_cliques_bruteforce(j242)
    census = classify_maximal_cliques(j242, cliques)
    assert census.total == 30
    assert census.star_count == 15 and census.top_count == 15
    assert census.star_size == 7 and census.top_size == 7
    assert census.unmatched == []
    for members in cliques:
        assert len(members) == 7
        # really a clique, and maximal: nobody outside is adjacent to all
        for a in members:
            for b in members:
                if a < b:
                    assert j242.adjacent(a, b)
        mask = 0
        for v in members:
            mask |= 1 << v
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
    for G in (j242, j252, j342):
        expected = all_maximal_cliques(G.adjacency, G.num_vertices)
        assert all_maximal_cliques_bruteforce(G) == expected


@pytest.mark.parametrize("graph_seed", range(12))
def test_bruteforce_cliques_match_the_reference_on_random_graphs(graph_seed):
    rng = random.Random(graph_seed)
    nv = rng.randint(1, 40)
    p = rng.uniform(0.1, 0.9)
    adj = [0] * nv
    for i in range(nv):
        for j in range(i):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    G = SimpleNamespace(num_vertices=nv, adjacency=adj)
    assert all_maximal_cliques_bruteforce(G) == all_maximal_cliques(adj, nv)


def test_bruteforce_cliques_leave_the_recursion_limit_alone(f2, monkeypatch):
    def refuse(limit):
        raise AssertionError("clique enumeration changed the interpreter's recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    G = build_graph(f2, 10, 1)  # complete on 1023 vertices: one frame per vertex
    assert all_maximal_cliques_bruteforce(G) == [tuple(range(1023))]


def test_bruteforce_bound(j242):
    with pytest.raises(BoundExceeded):
        all_maximal_cliques_bruteforce(j242, bound=10)


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
        replace(s, center=nxt.center, center_mask=nxt.center_mask)
        for s, nxt in zip(stars, stars[1:] + stars[:1])
    ]
    monkeypatch.setattr(graph_module, "star_catalog", lambda G: rotated)
    report = verify_clique_lemmas(replace(j242))
    assert not report.star_top_ok and not report.star_meet_ok
    assert report.pairwise_ok and report.top_meet_ok
    assert {c["check"] for c in report.counterexamples} == {"star-top", "star-meet"}

    # the first top swallows the second
    merged = tops[0].bitset | tops[1].bitset
    grown = [replace(tops[0], members=tuple(bits(merged)), bitset=merged)] + tops[1:]
    monkeypatch.setattr(graph_module, "star_catalog", star_catalog)
    monkeypatch.setattr(graph_module, "top_catalog", lambda G: grown)
    report = verify_clique_lemmas(replace(j242))
    assert not report.pairwise_ok and not report.top_meet_ok
    checks = {c["check"] for c in report.counterexamples}
    assert {"pairwise", "top-meet"} <= checks
    assert all(c["family"] == "tops" for c in report.counterexamples if c["check"] == "pairwise")


def test_clique_lemmas_flag_two_stars_sharing_two_vertices(j242, monkeypatch):
    # star 0 also claims one member of star 1, so the two share two vertices
    stars = star_catalog(j242)
    extra = next(v for v in stars[1].members if v not in stars[0].members)
    grown = stars[0].bitset | 1 << extra
    corrupted = [replace(stars[0], members=tuple(bits(grown)), bitset=grown)] + stars[1:]
    monkeypatch.setattr(graph_module, "star_catalog", lambda G: corrupted)
    report = verify_clique_lemmas(replace(j242))
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


def test_dual_map_requires_n_twice_m(j252):
    with pytest.raises(ValueError, match="duality requires n = 2m"):
        dual_map_check(j252)


def test_build_bound(f2):
    with pytest.raises(BoundExceeded, match="enumeration too large"):
        build_graph(f2, 10, 5)


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
    assert {G.degree(i) for i in range(357)} == {4 * 5 * 5}
    P = enumerate_subspaces(f4, 4, 1)[0]
    Q = enumerate_subspaces(f4, 4, 3)[0]
    assert star(G, P).size == top(G, Q).size == 21
    assert dual_map_check(G).ok


def test_duality_on_complete_graph(f2):
    # n = 2m with m = 1: the complement map swaps the one star with the
    # one top, both being the whole triangle
    G = build_graph(f2, 2, 1)
    report = dual_map_check(G)
    assert report.ok, report.counterexamples
