"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line with its runtime and enforces
the stated time limit.  Run with ``pytest tests/test_acceptance.py -s``
to see the lines as they appear.
"""

import time
from contextlib import contextmanager
from functools import reduce
from math import gcd
from operator import and_

from grassmann_lab import (
    alpha_exact,
    build_graph,
    classify_endomorphism,
    classify_maximal_cliques,
    core_test,
    dual_map_check,
    gaussian_binomial_int,
    gaussian_binomial_poly,
    h_report,
    knuth_wilf_exponents,
    make_field,
    scan_core_threshold,
    validate_endomorphism,
    verify_clique_lemmas,
)
from grassmann_lab.arith import prime_power_base, prime_powers_upto
from grassmann_lab.fixture import check_fixture, load_fixture
from grassmann_lab.graph import dual_permutation
from grassmann_lab.qpoly import CycloFactorization
from oracles import (
    ONE,
    all_maximal_cliques,
    bfs_distances,
    check_field_axioms,
    distance_by_masks,
    expand,
    matrix,
    poly_mul,
    rref,
    x_power_minus_one,
)


@contextmanager
def criterion(num: int, name: str, limit: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"acceptance {num} ({name}): FAIL ({time.perf_counter() - t0:.2f}s)")
        raise
    dt = time.perf_counter() - t0
    in_time = dt < limit
    verdict = "PASS" if in_time else "FAIL (over time limit)"
    print(f"acceptance {num} ({name}): {verdict} ({dt:.2f}s, limit {limit:g}s)")
    assert in_time, f"criterion {num} took {dt:.2f}s, limit {limit}s"


def test_criterion_1_vertex_counts():
    with criterion(1, "vertex counts", 3.0):
        for q, n, m, expected in ((2, 4, 2, 35), (2, 5, 2, 155), (3, 4, 2, 130)):
            t0 = time.perf_counter()
            spec = make_field(*prime_power_base(q))
            G = build_graph(spec, n, m)
            build_time = time.perf_counter() - t0
            assert G.num_vertices == expected
            assert G.num_vertices == gaussian_binomial_int(n, m, q)
            assert build_time < 1.0, f"build({q},{n},{m}) took {build_time:.2f}s"


def test_criterion_2_star_top_classification(j242, j252):
    with criterion(2, "star/top classification by brute force", 5.0):
        census = classify_maximal_cliques(j242)
        assert census == classify_maximal_cliques(
            j242, all_maximal_cliques(j242.adjacency, j242.num_vertices)
        )
        assert census.total == 30
        assert census.star_count == 15 and census.top_count == 15
        assert census.star_size == 7 and census.top_size == 7
        assert census.unmatched == []

        census = classify_maximal_cliques(j252)
        assert census.total == 31 + 155
        assert census.star_count == 31 and census.star_size == 15
        assert census.top_count == 155 and census.top_size == 7
        assert census.unmatched == []


def test_criterion_3_clique_lemmas(j242, j252, j342):
    with criterion(3, "clique intersection lemmas", 10.0):
        for G in (j242, j252, j342):
            report = verify_clique_lemmas(G)
            assert report.ok and report.counterexamples == []


def test_criterion_4_j242_reproduction(j242):
    with criterion(4, "J_2(4,2) fixture and not-core verdict", 5.0):
        fxrep = check_fixture(j242, load_fixture())
        assert fxrep["ok"] and fxrep["violations"] == []
        assert fxrep["chi_upper"] == 7
        assert alpha_exact(j242) == 5

        rep = core_test(4, 2, 2)
        assert rep.chi == 7
        assert rep.verdict == "not-core"
        endo = rep.witness
        assert endo is not None and not endo.is_injective()
        validate_endomorphism(endo.graph, endo.mapping)
        assert classify_endomorphism(endo.graph, endo) == "colouring"
        # the image is a star: every image vertex contains a common line,
        # so the AND of the image masks holds exactly q = 2 vectors
        img = sorted(endo.image())
        common = reduce(and_, (endo.graph.masks[v] for v in img))
        assert common.bit_count() == 2 and len(img) == 7


def test_criterion_5_odd_ambient_cores():
    with criterion(5, "odd-ambient core family", 1.0):
        rep = core_test(5, 2, 2)
        assert rep.verdict == "core" and rep.integrality_value == (31, 3)
        rep = core_test(5, 2, 3)
        assert rep.verdict == "core" and rep.integrality_value == (121, 4)
        for k in (2, 3, 4):
            scan = scan_core_threshold(2 * k + 1, 2, 64)
            assert all(den != 1 for _, _, den in scan.entries)
            assert scan.largest_integer_q is None


def test_criterion_6_cyclotomic_identities():
    with criterion(6, "cyclotomic identities", 5.0):
        for n in range(1, 31):
            prod = ONE
            for j in range(1, n + 1):
                if n % j == 0:
                    prod = poly_mul(prod, expand(CycloFactorization({j: 1})))
            assert prod == x_power_minus_one(n)
        for n in range(13):
            for m in range(n + 1):
                assert expand(knuth_wilf_exponents(n, m)) == gaussian_binomial_poly(n, m)
                assert gaussian_binomial_poly(n, m) == gaussian_binomial_poly(n, n - m)


def test_criterion_7_ratio_machinery():
    with criterion(7, "vertex/clique ratio machinery", 30.0):
        cases = 0
        for n in range(4, 13):
            for m in range(2, n // 2 + 1):
                i = gcd(m, n - m + 1)
                if i < 2:
                    continue
                cases += 1
                rep = h_report(n, m, gaussian_binomial_poly(n, m))
                assert rep.applicable
                assert rep.exponents.exponents[i] == -1
                assert not rep.r.is_zero()
                scan = scan_core_threshold(n, m, 32)
                assert all(den != 1 for _, _, den in scan.entries), (n, m)
        assert cases > 0


def test_criterion_8_duality(f2, j242):
    with criterion(8, "orthogonal-complement duality", 10.0):
        for G in (j242, build_graph(f2, 6, 3)):
            report = dual_map_check(G)
            assert report.ok, report.counterexamples
            perm = dual_permutation(G)
            endo = validate_endomorphism(G, perm)
            assert classify_endomorphism(G, endo) == "automorphism"


def test_criterion_9_cross_implementation(j242, j252, j342):
    with criterion(9, "cross-implementation consistency", 60.0):
        for G in (j242, j252, j342):
            for i in range(G.num_vertices):
                vi = G.vertices[i].basis.rows
                for j in range(i + 1, G.num_vertices):
                    stacked = matrix(G.spec, vi + G.vertices[j].basis.rows)
                    by_rank = rref(stacked)[1] == G.m + 1
                    assert G.adjacent(i, j) == by_rank
            for src in range(G.num_vertices):
                dist = bfs_distances(G.adjacency, src)
                for v in range(G.num_vertices):
                    assert distance_by_masks(G, src, v) == dist[v]
        for q in prime_powers_upto(64):
            check_field_axioms(make_field(*prime_power_base(q)))
