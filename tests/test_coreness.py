import functools
import random
import sys
from collections import Counter

import oracles
import pytest

from grassmann_lab import (
    alpha_exact,
    build_colouring_endomorphism,
    build_graph,
    classify_endomorphism,
    classify_maximal_cliques,
    core_test,
    make_field,
    omega_int,
    validate_endomorphism,
)
from grassmann_lab import coreness
from grassmann_lab.arith import prime_power_base
from grassmann_lab.config import (
    NODE_BUDGET,
    SEARCH_BOUND,
    BoundExceeded,
    SearchBudgetExceeded,
)
from grassmann_lab.coreness import Endomorphism, find_colouring, orbit_colouring
from grassmann_lab.fixture import load_fixture
from grassmann_lab.graph import bits, dual_permutation, induced_permutation


def test_alpha_exact(j242, f2):
    assert alpha_exact(j242) == 5
    assert j242.num_vertices == 7 * 5  # |V| = omega * alpha here
    complete = build_graph(f2, 3, 1)
    assert alpha_exact(complete) == 1


def test_alpha_bounds_when_over_budget(j252):
    # no q-Steiner system search is run: alpha is bracketed for free
    lo, hi = alpha_exact(j252)
    assert 1 <= lo <= hi
    assert hi == 155 // 15


def test_alpha_degrades_to_bounds_on_node_budget(j242, j252):
    assert alpha_exact(j242) == 5  # greedy meets the |V|/omega cap
    assert alpha_exact(j252) == (7, 10)  # greedy finds 7 < 155 // 15


# alpha_exact on every J_q(n,m) with 4 <= 2m <= n and at most SEARCH_BOUND vertices
ALPHA_PINS = [
    (2, 4, 2, 5),
    (2, 5, 2, (7, 10)),
    (2, 6, 2, 21),
    (3, 4, 2, 10),
    (4, 4, 2, 17),
    (5, 4, 2, 26),
]


@pytest.mark.parametrize(
    "q, n, m, alpha", ALPHA_PINS, ids=[f"J_{q}({n},{m})" for q, n, m, _ in ALPHA_PINS]
)
def test_alpha_pins_within_the_search_bound(q, n, m, alpha):
    G = build_graph(make_field(*prime_power_base(q)), n, m)
    assert G.num_vertices <= SEARCH_BOUND
    assert alpha_exact(G) == alpha


# the ALPHA_PINS shapes, and J_2(6,3) past the search bound at n = 2m
CLIQUE_NUMBER_SHAPES = [(q, n, m) for q, n, m, _ in ALPHA_PINS] + [(2, 6, 3)]


@pytest.mark.parametrize(
    "q, n, m", CLIQUE_NUMBER_SHAPES, ids=[f"J_{q}({n},{m})" for q, n, m in CLIQUE_NUMBER_SHAPES]
)
def test_clique_number_formula_matches_exhaustive_search(q, n, m):
    # core_test seeds its searches with G.stars[0] and takes omega from the
    # formula; the reference branch and bound checks both exhaustively
    G = build_graph(make_field(*prime_power_base(q)), n, m)
    clique = oracles.max_clique_bitset(G.adjacency, G.num_vertices)
    assert len(clique) == omega_int(n, m, q) == G.stars[0].size


def test_core_test_degrades_honestly_with_tiny_budgets():
    rep = core_test(4, 2, 2, node_budget=1)
    assert rep.verdict == "undetermined"
    assert rep.chi == (7, 35)
    assert any("budget" in e for e in rep.evidence)


def test_find_colouring_rejects_impossible(j242):
    clique = j242.stars[0].members
    assert find_colouring(j242.adjacency, 35, 6, seed=clique[:6]) is None


@pytest.mark.parametrize("name, nodes", [("j242", 28), ("j342", 7586)])
def test_omega_colouring_search_decides_within_pinned_nodes(name, nodes, request):
    # the node count pins the search tree: any change to it fails here fast
    G = request.getfixturevalue(name)
    clique = G.stars[0].members
    args = (G.adjacency, G.num_vertices, len(clique), clique)
    with pytest.raises(SearchBudgetExceeded):
        find_colouring(*args, node_budget=nodes - 1)
    assert find_colouring(*args, node_budget=nodes) is not None


def _graph(nv, edges):
    adj = [0] * nv
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


REFUTED_COLOURINGS = {
    "K_5 at k = 4": (_graph(5, [(i, j) for j in range(5) for i in range(j)]), 5, 4),
    "C_7 at k = 2": (_graph(7, [(i, (i + 1) % 7) for i in range(7)]), 7, 2),
    "Petersen at k = 2": (
        _graph(
            10,
            [(i, (i + 1) % 5) for i in range(5)]
            + [(i, i + 5) for i in range(5)]
            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
        ),
        10,
        2,
    ),
}


@pytest.mark.parametrize("adj, nv, k", REFUTED_COLOURINGS.values(), ids=REFUTED_COLOURINGS)
def test_refuting_searches_match_the_reference_at_every_budget(adj, nv, k):
    nodes = _nodes_used(oracles.find_colouring, adj, nv, k, ())
    assert nodes > 1  # a real search, not the len(seed) > k early return
    assert oracles.find_colouring(adj, nv, k, node_budget=nodes) is None
    _assert_same_searches(adj, nv, k, (), range(1, nodes + 2))


def test_colouring_endomorphism_from_fixture(j242):
    colours = oracles.fixture_colouring(j242, load_fixture())
    target = j242.stars[0]  # the star over the first line
    endo = build_colouring_endomorphism(j242, colours, list(target.members))
    assert not endo.is_injective()
    assert endo.image() == set(target.members)
    assert classify_endomorphism(j242, endo) == "colouring"


def test_colouring_endomorphism_rejects_bad_inputs(j242):
    colours = oracles.fixture_colouring(j242, load_fixture())
    with pytest.raises(ValueError, match="clique size"):
        build_colouring_endomorphism(j242, colours, [0, 1, 2])
    not_clique = [0, 1, 2, 3, 4, 5, 34]
    with pytest.raises(ValueError):
        build_colouring_endomorphism(j242, colours, not_clique)


def test_identity_classifies_as_automorphism(j242):
    endo = Endomorphism(j242, tuple(range(35)))
    assert classify_endomorphism(j242, endo) == "automorphism"


def test_dual_map_classifies_as_automorphism(j242):
    perm = dual_permutation(j242)
    endo = validate_endomorphism(j242, perm)
    assert classify_endomorphism(j242, endo) == "automorphism"
    # the inverse (the same map, being an involution) is also edge-preserving
    inverse = [0] * 35
    for i, image in enumerate(perm):
        inverse[image] = i
    validate_endomorphism(j242, inverse)


def test_complete_graph_colouring_is_bijective(f2):
    complete = build_graph(f2, 3, 1)
    colours = list(range(7))
    endo = build_colouring_endomorphism(complete, colours, list(range(7)))
    assert endo.is_injective()
    assert classify_endomorphism(complete, endo) == "automorphism"


def test_constant_map_is_rejected(j242):
    with pytest.raises(ValueError, match="not an endomorphism"):
        validate_endomorphism(j242, [0] * 35)


def test_validate_endomorphism_rejects_values_that_are_not_vertex_ids(f2):
    triangle = build_graph(f2, 2, 1)  # J_2(2,1) = K_3
    for mapping, bad in (([-1, 1, 0], "-1"), ([3, 1, 0], "3"), ([0, None, 1], "None")):
        with pytest.raises(ValueError, match=rf"image {bad} is not a vertex id in 0\.\.2"):
            validate_endomorphism(triangle, mapping)


@pytest.mark.parametrize("seed", range(8))
def test_validate_endomorphism_names_the_first_broken_edge(j242, seed):
    # the edge named is the first (i, j), i < j, in vertex order whose ends
    # collapse or land on a non-edge
    rng = random.Random(seed)
    mapping = list(dual_permutation(j242))
    for _ in range(seed % 4 + 1):
        mapping[rng.randrange(35)] = rng.randrange(35)
    broken = [
        (i, j)
        for i in range(35)
        for j in range(i + 1, 35)
        if j242.adjacent(i, j) and not j242.adjacent(mapping[i], mapping[j])
    ]
    with pytest.raises(ValueError, match=rf"edge \({broken[0][0]}, {broken[0][1]}\) breaks"):
        validate_endomorphism(j242, mapping)
    # maps neither injective nor onto, whose pullbacks read only image
    # neighbours: a witness with one vertex moved to another class, and its
    # colouring sent onto omega vertices that are no clique
    for q in (3, 4):
        G, witness, colours = _witness(q, 4, 2)
        nv, clique = G.num_vertices, sorted(set(witness))
        v = rng.randrange(nv)
        moved = witness[:]
        moved[v] = rng.choice([t for t in clique if t != witness[v]])
        spread = rng.sample(range(nv), len(clique))
        assert not all(G.adjacent(u, t) for i, u in enumerate(spread) for t in spread[i + 1 :])
        for bad in (moved, [spread[c] for c in colours]):
            want = _endomorphism_error(G, bad)
            assert want is not None
            assert _error(validate_endomorphism, G, bad) == want


@functools.cache
def _witness(q, n, m):
    """core_test's witness map on J_q(n,m), and the omega-colouring it collapses
    (colour c for the c-th image vertex)."""
    rep = core_test(n, m, q)
    mapping = list(rep.witness.mapping)
    colour = {t: c for c, t in enumerate(sorted(set(mapping)))}
    return rep.witness.graph, mapping, [colour[t] for t in mapping]


def _error(check, *args):
    """The text of the ValueError check(*args) raises, or None."""
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


def _endomorphism_error(G, mapping):
    """The library's error for a map, rebuilt from the pairwise first broken edge."""
    edge = oracles.first_broken_edge(G.adjacency, mapping)
    return None if edge is None else f"not an endomorphism: edge {edge} breaks under the map"


_WITNESSES = [(2, 4, 2), (3, 4, 2), (4, 4, 2), (2, 6, 2)]
_IDS = [f"J_{q}({n},{m})" for q, n, m in _WITNESSES]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("q, n, m", _WITNESSES, ids=_IDS)
def test_colouring_check_matches_the_pairwise_reference(q, n, m, seed):
    # a colouring is checked as the map it builds onto the clique: a
    # recoloured vertex raises the first broken edge of that map
    G, witness, colours = _witness(q, n, m)
    adj, nv, k = G.adjacency, G.num_vertices, max(colours) + 1
    clique = sorted(set(witness))  # colour c is the c-th image vertex
    assert _error(oracles.validate_colouring, adj, colours, k) is None
    assert build_colouring_endomorphism(G, colours, clique).mapping == tuple(witness)
    short = "colouring length differs from vertex count"
    assert _error(build_colouring_endomorphism, G, colours[:-1], clique) == short
    rng = random.Random(seed)
    outside = sorted(set(range(nv)) - set(clique))  # a clique vertex would repeat a colour
    for _ in range(3):
        v = rng.choice(outside)
        u = rng.choice(list(bits(adj[v])))
        clash = colours[:]
        clash[v] = colours[u]
        assert _error(oracles.validate_colouring, adj, clash, k).startswith("improper colouring")
        want = _endomorphism_error(G, [clique[c] for c in clash])
        assert want is not None
        assert _error(build_colouring_endomorphism, G, clash, clique) == want
        i = rng.randrange(nv)
        for bad, error in (
            (k, f"clique size {k} differs from colour count {k + 1}"),
            (-1, f"vertex {i} has colour -1 outside 0..{k - 1}"),
        ):
            anywhere = clash[:]
            anywhere[i] = bad
            assert _error(build_colouring_endomorphism, G, anywhere, clique) == error


@pytest.mark.parametrize(
    "q, orbit", [(2, True), (3, False), (4, True)], ids=["J_2(4,2)", "J_3(4,2)", "J_4(4,2)"]
)
def test_core_test_checks_its_witness_once(monkeypatch, q, orbit):
    # one validate_endomorphism call per witness, whichever search found the
    # colouring (DSATUR at J_3(4,2), else the orbit stage), and no other validator
    assert [name for name in dir(coreness) if name.startswith("validate_")] == [
        "validate_endomorphism"
    ]
    calls = []
    check = coreness.validate_endomorphism

    def counted(G, mapping):
        calls.append(G)
        return check(G, mapping)

    monkeypatch.setattr(coreness, "validate_endomorphism", counted)
    rep = core_test(4, 2, q)
    assert any(e.startswith("orbit search found") for e in rep.evidence) == orbit
    assert rep.witness_class == "colouring"
    assert len(calls) == 1 and calls[0] is rep.witness.graph


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("q, n, m", _WITNESSES, ids=_IDS)
def test_endomorphism_check_matches_the_pairwise_reference(q, n, m, seed):
    G, witness, _ = _witness(q, n, m)
    adj, nv = G.adjacency, G.num_vertices
    assert _endomorphism_error(G, witness) is None
    validate_endomorphism(G, witness)
    rng = random.Random(seed)
    outside = [t for t in range(nv) if t not in set(witness)]
    for _ in range(3):
        i = rng.randrange(nv)
        j = rng.choice(list(bits(adj[i])))
        collapsed = witness[:]  # edge (i, j) collapses onto one image vertex
        collapsed[j] = collapsed[i]
        want = _endomorphism_error(G, collapsed)
        assert want is not None
        assert _error(validate_endomorphism, G, collapsed) == want
        for v in (0, rng.randrange(nv)):
            # v alone on a vertex outside the image: a singleton image among
            # shared ones, whose pullback is the image of a single vertex
            mixed = witness[:]
            mixed[v] = rng.choice(outside)
            counts = Counter(mixed).values()
            assert min(counts) == 1 and max(counts) > 1
            want = _endomorphism_error(G, mixed)
            assert want is not None
            if v == 0:  # vertex 0 is checked first, so the edge named is one of its own
                assert want.startswith("not an endomorphism: edge (0, ")
            assert _error(validate_endomorphism, G, mixed) == want


def test_core_test_j242():
    rep = core_test(4, 2, 2)
    assert rep.verdict == "not-core"
    assert rep.omega == 7 and rep.alpha == 5 and rep.chi == 7
    assert rep.integrality_value == (5, 1)
    assert rep.witness is not None
    assert rep.witness_class == "colouring"
    assert not rep.witness.is_injective()
    assert len(rep.witness.image()) == 7
    # witness survives re-validation from its serialized form
    validate_endomorphism(rep.witness.graph, list(rep.witness.mapping))
    assert rep.chi_lower >= max(rep.omega, -(-rep.num_vertices // rep.alpha))


def test_core_test_reads_alpha_off_the_omega_colouring(monkeypatch):
    # an omega-colouring's classes are independent sets of |V|/omega
    # vertices each, the clique-coclique bound, so no alpha search runs
    def refuse(*args, **kwargs):
        raise AssertionError("an alpha search ran although an omega-colouring was found")

    monkeypatch.setattr(coreness, "alpha_exact", refuse)
    assert core_test(4, 2, 2).alpha == 5
    assert core_test(4, 2, 3).alpha == 10


def test_core_test_evaluates_n_choose_1_once_at_m_equal_one(monkeypatch):
    # omega = [n,1]_q = |V| on the complete graph; omega_int would evaluate it again
    def refuse(*args):
        raise AssertionError("omega_int evaluated [n,1]_q a second time")

    monkeypatch.setattr(coreness, "omega_int", refuse)
    rep = core_test(4, 1, 2)
    assert rep.num_vertices == rep.omega == 15
    assert rep.verdict == "core" and rep.alpha == 1 and rep.chi == 15


def test_core_test_checks_the_largest_colour_class(monkeypatch):
    # a colouring whose largest class is not |V|/omega contradicts the
    # clique-coclique bound; the check raises even under python -O
    monkeypatch.setattr(coreness, "orbit_colouring", lambda G, budget: (None, 0, 0))
    monkeypatch.setattr(coreness, "find_colouring", lambda adj, nv, *args: [0] * nv)
    with pytest.raises(AssertionError, match="largest class"):
        core_test(4, 2, 2)


def test_core_test_checks_the_orbit_colourings_largest_class(monkeypatch):
    monkeypatch.setattr(coreness, "orbit_colouring", lambda G, budget: ([0] * 35, 7, 1))
    with pytest.raises(AssertionError, match="largest class"):
        core_test(4, 2, 2)


def test_found_colourings_need_no_clique_census(monkeypatch):
    # the colouring bounds every clique by the star's omega vertices
    def refuse(*args, **kwargs):
        raise AssertionError("the clique census ran although a colouring was found")

    monkeypatch.setattr(coreness, "classify_maximal_cliques", refuse)
    for q in (4, 3):  # the orbit stage decides J_4(4,2), DSATUR J_3(4,2)
        rep = core_test(4, 2, q)
        assert rep.verdict == "not-core"
        assert any("no clique beats the star's" in e for e in rep.evidence)


def _refute_every_colouring(monkeypatch):
    monkeypatch.setattr(coreness, "orbit_colouring", lambda G, budget: (None, 0, 0))
    monkeypatch.setattr(coreness, "find_colouring", lambda *args: None)


def test_a_refuted_colouring_runs_the_clique_census_once(monkeypatch):
    _refute_every_colouring(monkeypatch)
    calls = []

    def census(G, bound):
        calls.append(bound)
        return classify_maximal_cliques(G, bound=bound)

    monkeypatch.setattr(coreness, "classify_maximal_cliques", census)
    rep = core_test(4, 2, 2, search_bound=500)
    assert calls == [500]
    assert rep.verdict == "core" and rep.chi == (8, 35)
    assert any(e.startswith("clique census: all 30 maximal cliques") for e in rep.evidence)


@pytest.mark.parametrize(
    "change",
    [{"unmatched": [(0, 1)]}, {"star_size": 8}, {"top_size": 8}],
    ids=["unmatched clique", "star size", "top size"],
)
def test_a_census_that_does_not_certify_omega_raises(monkeypatch, change):
    _refute_every_colouring(monkeypatch)

    def census(G, bound):
        return classify_maximal_cliques(G, bound=bound)._replace(**change)

    monkeypatch.setattr(coreness, "classify_maximal_cliques", census)
    with pytest.raises(AssertionError, match="census does not certify omega = 7"):
        core_test(4, 2, 2)


def test_core_test_odd_ambient_is_core():
    rep = core_test(5, 2, 2)
    assert rep.verdict == "core"
    assert rep.integrality_value == (31, 3)
    rep3 = core_test(5, 2, 3)
    assert rep3.verdict == "core"
    assert rep3.integrality_value == (121, 4)


def test_core_test_undetermined_beyond_bounds():
    rep = core_test(7, 3, 2)
    assert rep.verdict == "undetermined"
    assert rep.integrality_value == (381, 1)
    assert rep.omega == 31
    assert rep.chi[0] == 31


def test_core_test_complete_graph():
    rep = core_test(4, 1, 2)
    assert rep.verdict == "core"
    assert rep.omega == rep.num_vertices == rep.chi == 15


def test_core_test_keeps_vertex_counts_past_the_str_digit_limit():
    # 2^20000 - 1 has 6021 digits; the complete-graph report prints none of them
    rep = core_test(20000, 1, 2)
    assert rep.verdict == "core"
    assert rep.num_vertices == rep.omega == 2**20000 - 1


def test_core_test_validates_inputs(monkeypatch):
    def refuse(*args):
        raise AssertionError("core_test computed before validating its input")

    monkeypatch.setattr(coreness, "gaussian_binomial_int", refuse)
    monkeypatch.setattr(coreness, "omega_int", refuse)
    # m < 1; not a prime power; 2m > n, also for m = 1
    for n, m, q in ((4, 0, 2), (5, 2, 6), (3, 2, 2), (1, 1, 2)):
        with pytest.raises(ValueError):
            core_test(n, m, q)


def test_search_bound_errors(j252):
    # the census core_test runs under its search bound
    with pytest.raises(BoundExceeded):
        classify_maximal_cliques(j252, bound=10)


# -- the iterative kernels against the recursive references -----------------


def _outcome(search, *args, node_budget):
    """The search's result, or its budget message if it ran out."""
    try:
        return "result", search(*args, node_budget=node_budget)
    except SearchBudgetExceeded as exc:
        return "exhausted", str(exc)


def _assert_same_searches(adj, nv, k, seed, budgets):
    for budget in budgets:
        expected = _outcome(oracles.find_colouring, adj, nv, k, seed, node_budget=budget)
        assert _outcome(find_colouring, adj, nv, k, seed, node_budget=budget) == expected


def _nodes_used(search, *args, limit=1000):
    """Smallest budget the search finishes within, if at most limit."""
    if _outcome(search, *args, node_budget=limit)[0] == "exhausted":
        return None
    lo, hi = 1, limit
    while lo < hi:
        mid = (lo + hi) // 2
        if _outcome(search, *args, node_budget=mid)[0] == "exhausted":
            lo = mid + 1
        else:
            hi = mid
    return lo


@pytest.fixture(scope="module")
def j442(f4):
    return build_graph(f4, 4, 2)


@pytest.mark.parametrize("name", ["j242", "j342", "j442"])
def test_kernels_match_references_on_grassmann_graphs(name, request, monkeypatch):
    # J_q(n,m) is regular, so the (-degree, id) relabelling is the identity
    # and DSATUR remaps no neighbourhood
    def refuse(*args):
        raise AssertionError("find_colouring remapped the neighbourhoods of a regular graph")

    monkeypatch.setattr(coreness, "map_bitset", refuse)
    G = request.getfixturevalue(name)
    adj, nv = G.adjacency, G.num_vertices
    slow = name == "j442"  # its full searches take seconds in the references
    budgets = (1, 50, 1000) if slow else (1, 50, 1000, NODE_BUDGET)
    clique = G.stars[0].members
    omega = len(clique)
    for k in (omega - 1, omega):
        _assert_same_searches(adj, nv, k, clique[:k], budgets)
        nodes = _nodes_used(find_colouring, adj, nv, k, clique[:k], limit=budgets[-1])
        if nodes is not None:  # the reference decides in as many nodes, and not in fewer
            _assert_same_searches(adj, nv, k, clique[:k], (nodes - 1, nodes))
    # at k = |V| with budget |V|, the first descent is greedy DSATUR
    greedy = find_colouring(adj, nv, nv, clique, node_budget=nv)
    assert greedy == oracles.dsatur_upper_bound(adj, nv, clique)[1]


def _random_graph(rng, nv, p):
    adj = [0] * nv
    for i in range(nv):
        for j in range(i):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


@pytest.mark.parametrize("graph_seed", range(12))
def test_kernels_match_references_on_random_graphs(monkeypatch, graph_seed):
    # non-regular graphs, so the degree tie-break of the relabelling matters,
    # and each search remaps every neighbourhood once
    remapped = []
    remap = coreness.map_bitset

    def counted(mapping, x):
        remapped.append(x)
        return remap(mapping, x)

    monkeypatch.setattr(coreness, "map_bitset", counted)
    rng = random.Random(graph_seed)
    nv = rng.randint(8, 60)
    adj = _random_graph(rng, nv, rng.uniform(0.1, 0.6))
    clique = oracles.max_clique_bitset(adj, nv)
    for seed in ((), clique):
        upper, greedy = oracles.dsatur_upper_bound(adj, nv, seed)
        remapped.clear()
        assert find_colouring(adj, nv, nv, seed, node_budget=nv) == greedy
        assert sorted(remapped) == sorted(adj)
        # unseeded searches below chi explore every colour permutation and
        # take seconds to exhaust the default budget, so they stop at 1000
        budgets = (1, 50, 1000, NODE_BUDGET) if seed else (1, 50, 1000)
        for k in range(len(clique) - 1, upper + 1):
            _assert_same_searches(adj, nv, k, seed[:k], budgets)
            assert _nodes_used(find_colouring, adj, nv, k, seed[:k]) == _nodes_used(
                oracles.find_colouring, adj, nv, k, seed[:k]
            )


def test_searches_leave_the_recursion_limit_alone(monkeypatch):
    def refuse(limit):
        raise AssertionError("a search changed the interpreter's recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    nv = 3000  # one search frame per vertex, deeper than the default limit
    path = [(1 << (i - 1) if i else 0) | (1 << (i + 1) if i + 1 < nv else 0) for i in range(nv)]
    assert find_colouring(path, nv, 2) == [(i + 1) % 2 for i in range(nv)]


def test_alpha_takes_the_greedy_path_at_the_cap(j242, j342):
    assert alpha_exact(j242) == 5
    assert alpha_exact(j342) == 10


# -- the orbit search ------------------------------------------------------

# (q, n, m, |H|, r): graphs the orbit search decides before DSATUR runs
ORBIT_DECIDED = [(4, 4, 2, 7, 3), (2, 6, 2, 31, 1)]


@pytest.mark.parametrize(
    "q, n, m, order, r", ORBIT_DECIDED, ids=[f"J_{c[0]}({c[1]},{c[2]})" for c in ORBIT_DECIDED]
)
def test_orbit_search_decides_not_core(monkeypatch, q, n, m, order, r):
    def refuse(*args):
        raise AssertionError("DSATUR ran although the orbit search found a colouring")

    monkeypatch.setattr(coreness, "find_colouring", refuse)
    rep = core_test(n, m, q)
    assert rep.verdict == "not-core" and rep.chi == rep.omega
    assert any(f"(|H| = {order}, base classes r = {r}, nodes" in e for e in rep.evidence)
    G = rep.witness.graph
    witness = validate_endomorphism(G, list(rep.witness.mapping))
    assert classify_endomorphism(G, witness) == "colouring"
    # the witness's fibres are the colour classes
    assert oracles.classes_meet_every_star_once(G, witness.mapping)


def test_star_cover_oracle_rejects_a_moved_vertex(j242):
    colouring, _, _ = orbit_colouring(j242)
    assert oracles.classes_meet_every_star_once(j242, colouring)
    moved = list(colouring)
    moved[0] = (moved[0] + 1) % 7
    assert not oracles.classes_meet_every_star_once(j242, moved)


def test_orbit_search_decides_j442_within_pinned_nodes(j442):
    # <h, sigma> refutes in 2 nodes, then <h> alone finds a colouring in 80
    colouring, order, nodes = orbit_colouring(j442, node_budget=82)
    assert colouring is not None and (order, nodes) == (7, 82)
    assert orbit_colouring(j442, node_budget=81) == (None, 7, 81)
    # a budget <h, sigma> spends leaves <h> no run
    assert orbit_colouring(j442, node_budget=1) == (None, 7, 1)


# (q, n, |H|, (rows, nodes, outcome) of each exact cover run): <h, sigma> first, then <h>
ORBIT_RUNS = [
    (2, 4, 7, [(4, 3, "found")]),
    (3, 4, 13, [(18, 1, "refuted"), (118, 197, "refuted")]),
    (4, 4, 7, [(178, 2, "refuted"), (1051, 80, "found")]),
    (5, 4, 31, [(162, 11, "found")]),
    (2, 6, 31, [(89, 5, "found")]),
]


@pytest.mark.parametrize(
    "q, n, order, runs", ORBIT_RUNS, ids=[f"J_{c[0]}({c[1]},2)" for c in ORBIT_RUNS]
)
def test_orbit_search_runs_each_group_once_in_pinned_nodes(monkeypatch, q, n, order, runs):
    # the node counts pin the rows, their enumeration order and the search
    # tree, and each cover is the reference's (every clash set built up front)
    seen = []

    def spy(rows, items, limit):
        out = exact_cover(rows, items, limit)
        assert out == oracles.exact_cover(rows, items, limit)
        seen.append((len(rows), out[1], "found" if out[0] else "cut" if out[2] else "refuted"))
        return out

    exact_cover = coreness._exact_cover
    monkeypatch.setattr(coreness, "_exact_cover", spy)
    G = build_graph(make_field(*prime_power_base(q)), n, 2)
    colouring, got, nodes = orbit_colouring(G)
    assert seen == runs and (got, nodes) == (order, sum(r[1] for r in runs))
    if runs[-1][2] == "found":
        assert oracles.classes_meet_every_star_once(G, colouring)


@pytest.mark.parametrize("q, n, s", [(2, 4, 7), (4, 4, 7), (5, 4, 31), (2, 6, 31)])
def test_frobenius_normalises_the_singer_cycle(q, n, s):
    # sigma h = h^q sigma on the vertices, and sigma has order d = ord_s(q) > 1
    G = build_graph(make_field(*prime_power_base(q)), n, 2)
    perm, _, rows = coreness._free_cyclic_group(G, s)
    sigma = induced_permutation(G, coreness._frobenius(G.spec, rows, s))
    power = list(range(G.num_vertices))
    for _ in range(q):
        power = [perm[v] for v in power]
    assert [sigma[v] for v in perm] == [power[v] for v in sigma]
    d = coreness._order_mod(q, s)
    walked = list(range(G.num_vertices))
    for i in range(1, d + 1):
        walked = [sigma[v] for v in walked]
        assert (walked == list(range(G.num_vertices))) == (i == d)


def test_orbit_search_decides_j282_past_the_default_bound(monkeypatch):
    def refuse(*args):
        raise AssertionError("DSATUR ran although the orbit search found a colouring")

    monkeypatch.setattr(coreness, "find_colouring", refuse)
    rep = core_test(8, 2, 2, search_bound=11000)
    assert rep.verdict == "not-core" and rep.chi == rep.omega == 127
    assert "(|H| = 127, base classes r = 1, nodes 14 of 200000)" in rep.evidence[1]
    assert rep.witness_class == "colouring"
    assert oracles.classes_meet_every_star_once(rep.witness.graph, rep.witness.mapping)


def _brute_force_covers(rows, items):
    """Every set of row indices that covers each item exactly once, by subsets."""
    full = (1 << items) - 1
    covers = []
    for pick in range(1 << len(rows)):
        chosen = list(bits(pick))
        if sum(rows[j].bit_count() for j in chosen) == items and (
            functools.reduce(int.__or__, (rows[j] for j in chosen), 0) == full
        ):
            covers.append(chosen)
    return covers


@pytest.mark.parametrize("seed", range(40))
def test_exact_cover_agrees_with_brute_force(seed):
    rng = random.Random(seed)
    items = rng.randint(1, 8)
    rows = [rng.randrange(1, 1 << items) for _ in range(rng.randint(0, 10))]
    covers = _brute_force_covers(rows, items)
    chosen, nodes, cut = coreness._exact_cover(rows, items, 10**6)
    assert not cut
    if covers:
        assert sorted(chosen) in covers
    else:
        assert chosen is None
    # cut at the limit: every smaller limit stops after exactly that many nodes
    for limit in range(nodes):
        assert coreness._exact_cover(rows, items, limit) == (None, limit, True)
    assert coreness._exact_cover(rows, items, nodes) == (chosen, nodes, False)
    for limit in [*range(nodes + 1), 10**6]:
        assert coreness._exact_cover(rows, items, limit) == oracles.exact_cover(rows, items, limit)


def test_exact_cover_matches_the_reference_on_j842(monkeypatch):
    # the <h, sigma> cover that makes J_8(4,2) not a core backtracks over
    # 43,630 nodes, re-choosing rows whose clash sets it keeps
    covers = []
    exact_cover = coreness._exact_cover

    def spy(rows, items, limit):
        out = exact_cover(rows, items, limit)
        covers.append((rows, items, limit, out))
        return out

    monkeypatch.setattr(coreness, "_exact_cover", spy)
    rep = core_test(4, 2, 8, search_bound=5000)
    assert "(|H| = 73, base classes r = 1, nodes 43630 of 200000)" in rep.evidence[1]
    [(rows, items, limit, out)] = covers
    assert out[0] is not None and out[1:] == (43630, False)
    assert out == oracles.exact_cover(rows, items, limit)


@pytest.mark.parametrize(
    "name, runs", [("j342", [(18, 1), (118, 197)]), ("j442", [(178, 2), (1051, 80)])]
)
def test_exact_cover_builds_a_clash_set_only_for_a_row_it_chooses(monkeypatch, request, name, runs):
    # a row's clash set, the rows that share an item with it, is built when
    # the row is first chosen and then kept: J_4(4,2)'s <h> cover builds at
    # most 80 of its 1,051, and J_3(4,2)'s builds at most 118 over 197 nodes
    fold, exact_cover = coreness.reduce, coreness._exact_cover
    seen = []

    def spy(rows, items, limit):
        built = []

        def counted(*args):
            built.append(args)
            return fold(*args)

        monkeypatch.setattr(coreness, "reduce", counted)
        out = exact_cover(rows, items, limit)
        monkeypatch.setattr(coreness, "reduce", fold)
        seen.append((len(rows), out[1], len(built)))
        return out

    monkeypatch.setattr(coreness, "_exact_cover", spy)
    orbit_colouring(request.getfixturevalue(name))
    assert [r[:2] for r in seen] == runs
    assert all(0 < built <= min(rows, nodes) for rows, nodes, built in seen)


def test_exact_cover_refutes_an_item_no_row_covers_at_once():
    assert coreness._exact_cover([0b011, 0b001, 0b010], 3, 10) == (None, 0, False)
    assert coreness._exact_cover([], 1, 10) == (None, 0, False)
    # item 2 has the fewest live rows, so its one row is tried first
    assert coreness._exact_cover([0b001, 0b110, 0b011], 3, 10) == ([1, 0], 2, False)


def test_orbit_search_refutes_only_invariant_colourings(monkeypatch, j342):
    # J_3(4,2) has no colouring invariant under its |H| = 13 group (refuted
    # under <h, sigma> in 1 node, under <h> in 197), yet it has a
    # 13-colouring; DSATUR gets the nodes the orbit search left
    assert orbit_colouring(j342) == (None, 13, 198)
    budgets = []

    def out_of_budget(adj, nv, k, seed, node_budget):
        budgets.append(node_budget)
        raise SearchBudgetExceeded("out")

    monkeypatch.setattr(coreness, "find_colouring", out_of_budget)
    rep = core_test(4, 2, 3)
    assert budgets == [NODE_BUDGET - 198]
    assert rep.verdict == "undetermined" and rep.chi == (13, 130)


def test_free_group_check_refuses_the_order_21_candidate(f4, j442):
    rows = coreness._cyclic_candidate(f4, 4, 21)
    perm = induced_permutation(j442, rows)
    assert sorted(perm) == list(range(j442.num_vertices))
    # h^7 = diag(1, C^7) with C^7 scalar fixes the 21 lines of the plane
    # x_0 = 0 and the 21 lines through e_0, so <h> does not act freely
    power = list(range(j442.num_vertices))
    for _ in range(7):
        power = [perm[v] for v in power]
    assert sum(v == u for v, u in enumerate(power)) == 42
    assert coreness._free_cyclic_group(j442, 21) is None
    _, orbit, _ = coreness._free_cyclic_group(j442, 7)
    assert max(orbit) + 1 == 51


def _passes_divisibility(n, m, q):
    return core_test(n, m, q, search_bound=0).evidence[0].endswith("integrality test inconclusive")


def test_inadmissible_steiner_systems_are_decided_before_any_search(monkeypatch):
    # an S_2[2,3,6] would have [5,1]_2 / [2,1]_2 = 31/3 blocks through a point
    assert not _passes_divisibility(6, 3, 2)
    assert _passes_divisibility(7, 3, 2)
    assert all(_passes_divisibility(n, 2, q) for n in (4, 6, 8) for q in (2, 3, 4))
    for name in ("orbit_colouring", "find_colouring", "build_graph"):
        monkeypatch.setattr(coreness, name, lambda *a, name=name, **k: pytest.fail(name))
    rep = core_test(6, 3, 2, search_bound=2000)
    assert rep.verdict == "core" and rep.chi == (16, 1395)
    assert rep.evidence == [
        "|V|/omega = 93 is an integer, but lambda_1 = 31/3 is not: an S_2[2,3,6] would have "
        "that many blocks through each 1-space, so no omega-colouring exists and the graph "
        "is a core"
    ]


# every 4 <= 2m <= n <= 12 at every prime power q <= 16
DIVISIBILITY_SHAPES = [
    (n, m, q)
    for m in range(2, 7)
    for n in range(2 * m, 13)
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
]


def test_divisibility_stage_matches_the_product_formula_lambdas(monkeypatch):
    monkeypatch.setattr(coreness, "build_graph", lambda *a, **k: pytest.fail("graph built"))
    decided_at = Counter()
    for n, m, q in DIVISIBILITY_SHAPES:
        lambdas = oracles.steiner_lambdas(n, m, q)
        first = next((i for i, lam in enumerate(lambdas) if lam.denominator != 1), None)
        rep = core_test(n, m, q, search_bound=0)
        h = lambdas[0]
        assert rep.integrality_value == (h.numerator, h.denominator)
        decided_at["never" if first is None else min(first, 1)] += 1
        if first is None:
            assert rep.verdict == "undetermined" and rep.chi[0] == rep.omega
            assert rep.evidence[0] == (
                f"|V|/omega = {h} is an integer; integrality test inconclusive"
            )
            continue
        assert rep.verdict == "core" and rep.chi == (rep.omega + 1, rep.num_vertices)
        if first == 0:
            assert rep.evidence == [f"|V|/omega = {h} is not an integer, so the graph is a core"]
        else:
            [line] = rep.evidence
            assert line.startswith(f"|V|/omega = {h} is an integer, but ")
            assert f" lambda_{first} = {lambdas[first]} is not: an S_{q}[{m - 1},{m},{n}] " in line
    assert decided_at == {0: 80, 1: 60, "never": 110}
