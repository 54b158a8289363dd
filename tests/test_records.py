"""The package's records keep the semantics callers rely on: field specs,
matrices, subspaces and scan reports are immutable values, a graph is
equal only to itself, and a graph's cached properties are computed once."""

import pytest

import grassmann_lab.graph as graph_module
from grassmann_lab import build_graph, make_field, scan_core_threshold
from grassmann_lab.graph import GrassmannGraph
from oracles import canonicalize, matrix


def test_field_specs_built_apart_are_equal_values():
    a, b = make_field(3, 1), make_field(3, 1)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert make_field(2, 2) != make_field(2, 1) and make_field(2, 2) != make_field(5, 1)
    with pytest.raises(AttributeError):
        a.q = 9


def test_subspaces_rebuilt_from_the_same_rows_are_equal_values():
    rows = [[1, 2, 0, 1], [0, 1, 1, 2]]
    S = canonicalize(matrix(make_field(3, 1), rows))
    T = canonicalize(matrix(make_field(3, 1), rows))
    assert S == T and hash(S) == hash(T) and S.basis == T.basis
    assert S != canonicalize(matrix(make_field(3, 1), rows[:1]))
    assert repr(S) == "Subspace(q=3, 2<4, [1010,0112])"
    with pytest.raises(AttributeError):
        S.dim = 1


def test_scan_reports_are_equal_values():
    assert scan_core_threshold(8, 3, 64) == scan_core_threshold(8, 3, 64)
    assert hash(scan_core_threshold(8, 3, 64)) == hash(scan_core_threshold(8, 3, 64))


def test_graphs_are_equal_only_to_themselves(f2, j242):
    G = build_graph(f2, 4, 2)
    assert G.adjacency == j242.adjacency and G.vertices == j242.vertices
    assert G != j242 and G == G
    with pytest.raises(AttributeError):
        G.n = 5
    with pytest.raises(AttributeError):
        G.stars[0].bitset = 0


def test_a_cached_graph_property_is_computed_once(j242, monkeypatch):
    real, calls = graph_module.star_catalog, []
    monkeypatch.setattr(graph_module, "star_catalog", lambda G: calls.append(G) or real(G))
    codes, tables = graph_module._level_codes, []
    monkeypatch.setattr(graph_module, "_level_codes", lambda *a: tables.append(a) or codes(*a))
    G = GrassmannGraph(j242.spec, j242.n, j242.m, j242.bases)
    assert G.spans is G.spans and tables == [(G.spec, 4, 2)]
    assert G.spans == j242.spans
    assert G.stars is G.stars and calls == [G]
    assert [c.members for c in G.stars] == [c.members for c in j242.stars]
    assert tables == [(G.spec, 4, 2)]
