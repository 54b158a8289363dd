import random
import sys
from fractions import Fraction

import oracles
import pytest

from grassmann_lab import (
    alpha_exact,
    build_colouring_endomorphism,
    build_graph,
    classify_endomorphism,
    core_test,
    enumerate_subspaces,
    make_field,
    omega_exact,
    star,
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
from grassmann_lab.coreness import (
    Endomorphism,
    find_colouring,
    max_clique_bitset,
    orbit_colouring,
    structural_max_clique,
)
from grassmann_lab.fixture import fixture_colouring, load_fixture
from grassmann_lab.graph import dual_permutation, induced_permutation


def test_omega_exact(j242, j252, j342):
    assert omega_exact(j242) == 7
    assert omega_exact(j252) == 15
    assert omega_exact(j342) == 13


def test_alpha_exact(j242, f2):
    assert alpha_exact(j242) == 5
    assert j242.num_vertices == 7 * 5  # |V| = omega * alpha here
    complete = build_graph(f2, 3, 1)
    assert alpha_exact(complete) == 1


def _refuse_clique_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("alpha ran a clique search")

    monkeypatch.setattr(coreness, "max_clique_bitset", refuse)


def test_alpha_bounds_when_over_budget(monkeypatch, j252):
    # no q-Steiner system search is run: alpha is bracketed for free
    _refuse_clique_search(monkeypatch)
    lo, hi = alpha_exact(j252)
    assert 1 <= lo <= hi
    assert hi == 155 // 15


def test_alpha_degrades_to_bounds_on_node_budget(monkeypatch, j242, j252):
    _refuse_clique_search(monkeypatch)
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
def test_alpha_pins_within_the_search_bound(monkeypatch, q, n, m, alpha):
    G = build_graph(make_field(*prime_power_base(q)), n, m)
    assert G.num_vertices <= SEARCH_BOUND
    _refuse_clique_search(monkeypatch)
    assert alpha_exact(G) == alpha


def test_omega_raises_on_node_budget(j252):
    from grassmann_lab.config import SearchBudgetExceeded

    with pytest.raises(SearchBudgetExceeded):
        omega_exact(j252, node_budget=1)


# the integral-h graphs within SEARCH_BOUND that no golden digest pins; the
# goldens pin "branch and bound confirms clique number" for J_2(4,2),
# J_3(4,2) and J_2(6,3)
CLIQUE_BUDGET_PINS = [(4, 4, 2, 21), (5, 4, 2, 31), (2, 6, 2, 31)]


@pytest.mark.parametrize(
    "q, n, m, omega",
    CLIQUE_BUDGET_PINS,
    ids=[f"J_{q}({n},{m})" for q, n, m, _ in CLIQUE_BUDGET_PINS],
)
def test_clique_search_completes_within_the_default_budget(q, n, m, omega):
    G = build_graph(make_field(*prime_power_base(q)), n, m)
    assert G.num_vertices <= SEARCH_BOUND
    assert omega_exact(G) == omega


def test_core_test_degrades_honestly_with_tiny_budgets():
    rep = core_test(4, 2, 2, node_budget=1)
    assert rep.verdict == "undetermined"
    assert rep.chi == (7, 35)
    assert any("budget" in e for e in rep.evidence)


def test_find_colouring_rejects_impossible(j242):
    clique = structural_max_clique(j242)
    assert find_colouring(j242.adjacency, 35, 6, seed=clique[:6]) is None


@pytest.mark.parametrize("name, nodes", [("j242", 28), ("j342", 7586)])
def test_omega_colouring_search_decides_within_pinned_nodes(name, nodes, request):
    # the node count pins the search tree: any change to it fails here fast
    G = request.getfixturevalue(name)
    clique = structural_max_clique(G)
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
    colours = fixture_colouring(j242, load_fixture())
    centre = enumerate_subspaces(j242.spec, 4, 1)[0]
    target = star(j242, centre)
    endo = build_colouring_endomorphism(j242, colours, list(target.members))
    assert not endo.is_injective()
    assert endo.image() == set(target.members)
    assert classify_endomorphism(j242, endo) == "colouring"


def test_colouring_endomorphism_rejects_bad_inputs(j242):
    colours = fixture_colouring(j242, load_fixture())
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


def test_core_test_j242():
    rep = core_test(4, 2, 2)
    assert rep.verdict == "not-core"
    assert rep.omega == 7 and rep.alpha == 5 and rep.chi == 7
    assert rep.integrality_value == 5
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


def test_core_test_odd_ambient_is_core():
    rep = core_test(5, 2, 2)
    assert rep.verdict == "core"
    assert rep.integrality_value == Fraction(31, 3)
    rep3 = core_test(5, 2, 3)
    assert rep3.verdict == "core"
    assert rep3.integrality_value == Fraction(121, 4)


def test_core_test_undetermined_beyond_bounds():
    rep = core_test(6, 3, 2)
    assert rep.verdict == "undetermined"
    assert rep.integrality_value == 93
    assert rep.omega == 15
    assert rep.chi[0] == 15


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
    with pytest.raises(BoundExceeded):
        omega_exact(j252, bound=10)


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
def test_kernels_match_references_on_grassmann_graphs(name, request):
    G = request.getfixturevalue(name)
    adj, nv = G.adjacency, G.num_vertices
    slow = name == "j442"  # its full searches take seconds in the references
    budgets = (1, 50, 1000) if slow else (1, 50, 1000, NODE_BUDGET)
    clique = structural_max_clique(G)
    omega = len(clique)
    for k in (omega - 1, omega):
        _assert_same_searches(adj, nv, k, clique[:k], budgets)
    # at k = |V| with budget |V|, the first descent is greedy DSATUR
    greedy = find_colouring(adj, nv, nv, clique, node_budget=nv)
    assert greedy == oracles.dsatur_upper_bound(adj, nv, clique)[1]
    full = (1 << nv) - 1
    complement = [full & ~adj[i] & ~(1 << i) for i in range(nv)]
    for graph in (adj, complement):
        for budget in budgets:
            expected = _outcome(oracles.max_clique_bitset, graph, nv, node_budget=budget)
            assert _outcome(max_clique_bitset, graph, nv, node_budget=budget) == expected


def _random_graph(rng, nv, p):
    adj = [0] * nv
    for i in range(nv):
        for j in range(i):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


@pytest.mark.parametrize("graph_seed", range(12))
def test_kernels_match_references_on_random_graphs(graph_seed):
    # non-regular graphs, so the degree tie-break of the relabelling matters
    rng = random.Random(graph_seed)
    nv = rng.randint(8, 60)
    adj = _random_graph(rng, nv, rng.uniform(0.1, 0.6))
    clique = oracles.max_clique_bitset(adj, nv)
    assert max_clique_bitset(adj, nv) == clique
    assert _nodes_used(max_clique_bitset, adj, nv) == _nodes_used(
        oracles.max_clique_bitset, adj, nv
    )
    for seed in ((), clique):
        upper, greedy = oracles.dsatur_upper_bound(adj, nv, seed)
        assert find_colouring(adj, nv, nv, seed, node_budget=nv) == greedy
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
    nv = 1200  # one search frame per vertex, deeper than the default limit
    full = (1 << nv) - 1
    assert max_clique_bitset([full ^ (1 << i) for i in range(nv)], nv) == list(range(nv))
    nv = 3000
    path = [(1 << (i - 1) if i else 0) | (1 << (i + 1) if i + 1 < nv else 0) for i in range(nv)]
    assert find_colouring(path, nv, 2) == [(i + 1) % 2 for i in range(nv)]


def test_alpha_takes_the_greedy_path_at_the_cap(monkeypatch, j242, j342):
    _refuse_clique_search(monkeypatch)
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
    # the node count pins the seeded row orders and the search tree
    colouring, order, nodes = orbit_colouring(j442, node_budget=1684)
    assert colouring is not None and (order, nodes) == (7, 1684)
    assert orbit_colouring(j442, node_budget=1683) == (None, 7, 1683)


def test_orbit_search_refutes_only_invariant_colourings(monkeypatch, j342):
    # J_3(4,2) has no colouring invariant under its |H| = 13 group, yet it
    # has a 13-colouring; DSATUR gets the nodes the orbit search left
    assert orbit_colouring(j342) == (None, 13, 196)
    budgets = []

    def out_of_budget(adj, nv, k, seed, node_budget):
        budgets.append(node_budget)
        raise SearchBudgetExceeded("out")

    monkeypatch.setattr(coreness, "find_colouring", out_of_budget)
    rep = core_test(4, 2, 3)
    assert budgets == [NODE_BUDGET - 196]
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
    _, orbit = coreness._free_cyclic_group(j442, 7)
    assert max(orbit) + 1 == 51


def test_orbit_search_skips_inadmissible_steiner_systems(monkeypatch, f2):
    # an S_2[2,3,6] would have [5,1]_2 / [2,1]_2 = 31/3 blocks through a point
    assert not coreness._steiner_admissible(6, 3, 2)
    assert coreness._steiner_admissible(7, 3, 2)
    assert all(coreness._steiner_admissible(n, 2, q) for n in (4, 6, 8) for q in (2, 3, 4))
    monkeypatch.setattr(coreness, "_free_cyclic_group", lambda G, s: pytest.fail("searched"))
    assert orbit_colouring(build_graph(f2, 6, 3)) == (None, 0, 0)
