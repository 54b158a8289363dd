"""The indent-2 JSON emitter, the graph writers and the JSON reload."""

import json
import math
import random
import re
import sys
from collections import OrderedDict
from enum import IntEnum

import oracles
import pytest
from test_golden import FIXTURE, GOLDEN

from grassmann_lab import (
    build_graph,
    classify_maximal_cliques,
    cli,
    dual_map_check,
    make_field,
    report,
    scan_core_threshold,
    verify_clique_lemmas,
)
from grassmann_lab.config import BoundExceeded
from grassmann_lab.graph import GrassmannGraph
from grassmann_lab.report import (
    graph_dot_chunks,
    graph_from_json_dict,
    graph_to_dot,
    graph_json_chunks,
    graph_to_json,
    json_chunks,
    scan_report_dict,
    to_json,
)


class Colour(IntEnum):
    RED = 1
    BLUE = 2


def _is_json_command(command):
    if "--format" in command:
        return "--format json" in command
    return not command.startswith("build")


def test_to_json_matches_json_dumps_on_every_golden_payload(capsys, monkeypatch):
    """Every JSON golden is json.dumps' bytes: json_chunks' payloads, and the graph dumps."""
    payloads = []
    dumps = 0

    def checked(data):
        chunks = list(json_chunks(data))
        # scan entries travel as rows; the oracle spells them out as one dict each
        assert "".join(chunks) == json.dumps(oracles.with_scan_records(data), indent=2)
        payloads.append(data)
        return chunks

    monkeypatch.setattr(cli, "json_chunks", checked)
    for command, code, _ in GOLDEN:
        argv = [FIXTURE if a == "FIXTURE" else a for a in command.split()]
        assert cli.main(argv) == code
        out = capsys.readouterr().out
        if command.startswith("build") and _is_json_command(command):
            assert out == json.dumps(json.loads(out), indent=2) + "\n"
            dumps += 1
    assert len(payloads) + dumps == sum(map(_is_json_command, (g[0] for g in GOLDEN)))


HAND_PICKED = [
    {},
    [],
    (),
    "",
    0,
    -7,
    10**40,
    [[]],
    [{}],
    {"a": []},
    {"a": {}},
    [[], [[]], {"b": [{}]}],
    [True, 1],
    [1, True],
    [[1, True]],
    [[1, 2], [3]],
    [[1, 2], [3, 4]],
    [(1, 2), [3, 4]],
    ((5, 6), (7, 8)),
    [[1], ["a"]],
    [["a", "b"], ["c", "d"]],
    [[[1, 2]], [[3, 4]]],
    [1, "a"],
    ["a", 1, None],
    [None, False, True],
    [1.5, -0.0, 1e300, float("nan"), float("inf"), -float("inf")],
    [[1.0, 2.0]],
    {"x": math.nan},
    {1: "int key", 2.5: "float key", True: "bool key", None: "none key"},
    {"s": 1, 3: 4},
    {"nested": {1: [1, 2]}},
    "café ☃ \U0001d11e",
    ["tab\t", "new\nline", "nul\x00", "quote\" back\\slash", "\x7f\x1f"],
    {"é\n": "☃"},
    Colour.RED,
    [Colour.RED, Colour.BLUE],
    [[Colour.RED, 2], [3, 4]],
    {"k": Colour.BLUE},
    {Colour.RED: "enum key"},
    OrderedDict([("b", 1), ("a", [1, 2])]),
    [OrderedDict(), OrderedDict([("z", None)])],
    {"rows": [[0, 1], [0, 2], [1, 2]], "flat": [3, 4], "names": ["p", "q"]},
    # lists of records, alike and unlike
    [{"q": 2, "is_integer": False, "value": "31/3"}, {"q": 4, "is_integer": True, "value": "5"}],
    [{"ok": True}, {"ok": False}],
    [{"a": 1}, {"a": True}],
    [{"a": True, "b": "x"}, {"a": 0, "b": "y"}],
    [{"a": 1, "b": 2}, {"b": 2, "a": 1}],
    [{"a": 1}, {"a": 1, "b": 2}],
    [{"a": 1, "b": 2}, {"a": 1}],
    [{"a": 1}, {1: 1}],
    [{1: "x"}, {1: "y"}],
    [{"k": Colour.RED}, {"k": 2}],
    [{"k": 2}, {"k": Colour.RED}],
    [{"k": 1.5}, {"k": 2.5}],
    [{"k": [1, 2]}, {"k": [3]}],
    [{"k": None}, {"k": None}],
    [{"id": 0, "matrix": ["10", "01"]}, {"id": 1, "matrix": ["11", "01"]}],
    [{"q": 2, "value": "7/3"}],
    [{"a": 1}, {}],
    [{}, {"a": 1}],
    [{"%d": 1, "%%s": "%s", "é\n": "☃"}, {"%d": -2, "%%s": "%d", "é\n": ""}],
    [OrderedDict([("a", 1)]), OrderedDict([("a", 2)])],
    {"entries": [{"q": 2, "big": 10**40}, {"q": 3, "big": -(10**40)}]},
]


@pytest.mark.parametrize("data", HAND_PICKED, ids=[repr(d)[:40] for d in HAND_PICKED])
def test_to_json_matches_json_dumps_on_hand_picked_cases(data):
    assert to_json(data) == json.dumps(data, indent=2)


def test_scan_json_is_json_dumps_of_the_dict_per_entry_oracle(capsys):
    """scan and qbinom --q-max print json.dumps of the oracle's report, one dict per entry."""
    shapes = [(n, m, 3000) for n in range(4, 25) for m in range(2, n // 2 + 1)]
    for n, m, q_max in shapes + [(8, 3, 200000)]:
        want = oracles.scan_report_dict(oracles.scan_core_threshold(n, m, q_max))
        assert cli.main(f"scan --n {n} --m {m} --q-max {q_max}".split()) == 0
        out = capsys.readouterr().out
        payload = {"params": {"n": n, "m": m}, "qbinom": {"scan": want}}
        assert out == json.dumps(payload, indent=2) + "\n", (n, m)
        assert cli.main(f"qbinom --n {n} --m {m} --q-max {q_max}".split()) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        payload["qbinom"]["scan"] = want
        assert out == json.dumps(payload, indent=2) + "\n", (n, m)


@pytest.mark.parametrize("n, m, q_max", [(5, 2, 1), (5, 2, 2), (4, 2, 64), (8, 3, 64)])
def test_scan_rows_are_written_at_the_indentation_they_are_given(n, m, q_max):
    rep = scan_core_threshold(n, m, q_max)
    want = oracles.scan_report_dict(rep)
    assert oracles.scan_core_threshold(n, m, q_max) == rep
    assert to_json(scan_report_dict(rep)) == json.dumps(want, indent=2)
    assert to_json([[scan_report_dict(rep)]]) == json.dumps([[want]], indent=2)
    if not rep.entries:
        assert '"entries": []' in to_json(scan_report_dict(rep))


_B = report._BLOCK


@pytest.fixture(scope="module")
def long_scan():
    rep = scan_core_threshold(4, 2, 20000)
    assert len(rep.entries) > 2 * _B + 1
    return rep


@pytest.mark.parametrize("count", [0, 1, _B - 1, _B, _B + 1, 2 * _B + 1])
def test_scan_entries_of_every_block_count_are_json_dumps_bytes(long_scan, count):
    data = scan_report_dict(long_scan._replace(entries=long_scan.entries[:count]))
    for tree in (data, [data], {"scan": data}, [[data, 1], {"a": {"b": data}}], {"x": [data]}):
        assert to_json(tree) == json.dumps(oracles.with_scan_records(tree), indent=2)
    # each chunk holds the records of at most one block
    rows = [chunk.count('"q": ') for chunk in json_chunks(data)]
    assert [r for r in rows if r] == [min(_B, count - lo) for lo in range(0, count, _B)]


class _Recorder:
    """A stdout that keeps each string written to it."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def writelines(self, lines):
        for text in lines:
            self.write(text)

    def flush(self):
        pass


def test_the_cli_writes_documents_a_block_or_a_vertex_at_a_time(monkeypatch):
    rec = _Recorder()
    monkeypatch.setattr(sys, "stdout", rec)
    assert cli.main("scan --n 8 --m 3 --q-max 200000".split()) == 0
    rep = scan_core_threshold(8, 3, 200000)
    payload = {"params": {"n": 8, "m": 3}, "qbinom": {"scan": oracles.scan_report_dict(rep)}}
    assert "".join(rec.writes) == json.dumps(payload, indent=2) + "\n"
    assert rec.writes[-1] == "\n"
    rows = [text.count('"q": ') for text in rec.writes]
    assert max(rows) == _B and sum(rows) == len(rep.entries)
    assert sum(map(bool, rows)) == -(-len(rep.entries) // _B)

    rec.writes.clear()
    assert cli.main("build --q 2 --n 7 --m 2 --format json".split()) == 0
    G = build_graph(make_field(2, 1), 7, 2)
    assert "".join(rec.writes) == graph_to_json(G) + "\n"
    assert rec.writes[-1] == "\n"
    records = [text.count('"id": ') for text in rec.writes]
    assert max(records) == _B and sum(records) == G.num_vertices
    # each write past the vertex records holds the edges of one vertex i, all of them
    edges = rec.writes[sum(map(bool, records)) : -2]
    for i, text in enumerate(edges):
        ends = re.findall(r"\[\n      (\d+),\n      \d+\n    \]", text)
        assert set(map(int, ends)) == {i}
        assert len(ends) == bin(G.adjacency[i] >> (i + 1)).count("1")
    assert len(edges) == G.num_vertices - 1 and rec.writes[-2] == "\n  ]\n}"


def test_the_dot_dump_is_written_a_block_or_a_vertex_at_a_time(monkeypatch):
    rec = _Recorder()
    monkeypatch.setattr(sys, "stdout", rec)
    assert cli.main("build --q 2 --n 7 --m 2 --format dot".split()) == 0
    G = build_graph(make_field(2, 1), 7, 2)
    assert "".join(rec.writes) == oracles.graph_to_dot(G)
    lines = [text.count(" [label=") for text in rec.writes]
    assert max(lines) == _B and sum(lines) == G.num_vertices
    # each write past the vertex lines holds the edges of one vertex i, all of them
    edges = rec.writes[sum(map(bool, lines)) : -2]
    for i, text in enumerate(edges):
        assert set(map(int, re.findall(r"  v(\d+) -- v\d+;", text))) == {i}
        assert text.count(" -- ") == bin(G.adjacency[i] >> (i + 1)).count("1")
    assert len(edges) == G.num_vertices - 1 and rec.writes[-2:] == ["\n}", "\n"]


def test_a_report_that_fails_its_digit_check_writes_nothing(monkeypatch, capsys):
    def refuse(numerator, n, m, q_max):
        raise BoundExceeded(f"h(q) for (n={n}, m={m}) up to q = {q_max} refused")

    monkeypatch.setattr(report, "check_scan_digits", refuse)
    assert cli.main("qbinom --n 8 --m 3 --q-max 64".split()) == 2
    out, err = capsys.readouterr()
    assert out == "" and "refused" in err


_ALPHABET = "ab \t\n\"\\\x00\x1f\x7fé☃\U0001d11e"


def _random_scalar(rng):
    return rng.choice(
        [
            lambda: rng.randint(-(10**20), 10**20),
            lambda: rng.randint(-3, 3),
            lambda: rng.choice([0.5, -2.25, 1e-7, float("nan"), float("inf")]),
            lambda: rng.choice([True, False, None]),
            lambda: "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(0, 4))),
            lambda: rng.choice(list(Colour)),
        ]
    )()


def _random_tree(rng, depth):
    kind = rng.randrange(6) if depth else 0
    if kind == 0:
        return _random_scalar(rng)
    size = rng.randint(0, 4)
    if kind == 1:
        return [_random_tree(rng, depth - 1) for _ in range(size)]
    if kind == 2:
        return tuple(_random_tree(rng, depth - 1) for _ in range(size))
    if kind == 3:  # rows: equal widths unless a ragged or non-int entry slips in
        width = rng.randint(0, 3)
        rows = [[rng.randint(-9, 99) for _ in range(width)] for _ in range(size)]
        if rows and rng.random() < 0.3:
            rows[rng.randrange(len(rows))].append(_random_scalar(rng))
        return rows
    keys = [
        rng.choice(["k", "key", "é", "\n", ""]) + str(i)
        if rng.random() < 0.9
        else rng.choice([i, 1.5, True, None])
        for i in range(size)
    ]
    if kind == 4:
        return {k: _random_tree(rng, depth - 1) for k in keys}
    return OrderedDict((k, _random_tree(rng, depth - 1)) for k in keys)


def test_to_json_matches_json_dumps_on_random_trees():
    rng = random.Random(20141)
    for _ in range(400):
        data = _random_tree(rng, 4)
        assert to_json(data) == json.dumps(data, indent=2), data


@pytest.mark.parametrize("p, n, m", [(2, 4, 2), (3, 4, 2), (2, 6, 4)])
def test_reloaded_masks_equal_the_built_masks(p, n, m):
    G = build_graph(make_field(p, 1), n, m)
    H = graph_from_json_dict(json.loads(graph_to_json(G)))
    assert H.masks == G.masks
    assert H.adjacency == G.adjacency and H.index == G.index


@pytest.mark.parametrize("p, e, n, m", [(2, 1, 6, 3), (2, 2, 4, 2), (3, 1, 4, 2)])
def test_reloaded_graph_has_the_built_star_incidence(p, e, n, m):
    # a reloaded graph is the one build_graph makes, with the span table
    # and the star bitsets it computed, and every check must agree
    G = build_graph(make_field(p, e), n, m)
    H = graph_from_json_dict(json.loads(graph_to_json(G)))
    assert H.spans == G.spans
    assert H.star_bitsets == G.star_bitsets
    assert [(c.center_mask, c.members, c.bitset) for c in H.stars] == [
        (c.center_mask, c.members, c.bitset) for c in G.stars
    ]
    assert H.symmetry == G.symmetry

    def verify_dict(X):
        return {
            "cliques": report.census_dict(classify_maximal_cliques(X, bound=2000)),
            "lemmas": report.lemma_report_dict(verify_clique_lemmas(X)),
            "dual": report.dual_report_dict(dual_map_check(X)),
        }

    built = verify_dict(G)
    assert built["lemmas"]["ok"] and built["dual"]["ok"] and verify_dict(H) == built


def _j242_dump():
    return json.loads(graph_to_json(build_graph(make_field(2, 1), 4, 2)))


@pytest.mark.parametrize(
    "spoil, message",
    [
        (lambda d: d["edges"].append([0, -1]), r"ids in \[0, 35\)"),
        (lambda d: d["edges"].append([0, 35]), r"ids in \[0, 35\)"),
        (lambda d: d["edges"].append([-35, 0]), r"ids in \[0, 35\)"),
        (lambda d: d["edges"].append([0, 1, 2]), r"ids in \[0, 35\)"),
        (lambda d: d["edges"].append([0, 1.0]), r"ids in \[0, 35\)"),
        (lambda d: d["edges"].append([1.0, 0]), r"ids in \[0, 35\)"),
        (lambda d: d["edges"].append([0, "1"]), r"ids in \[0, 35\)"),
        (lambda d: d["edges"].append(["1", 0]), r"ids in \[0, 35\)"),
        (lambda d: d["edges"].append([0, math.nan]), r"ids in \[0, 35\)"),
        (lambda d: d["edges"].append([math.nan, 0]), r"ids in \[0, 35\)"),
        (lambda d: d["edges"].append([3, -1]), r"ids in \[0, 35\)"),
        (lambda d: d["edges"].append([34, -35]), r"ids in \[0, 35\)"),
        (lambda d: d["edges"].append([35, 40]), r"ids in \[0, 35\)"),
        (lambda d: d["edges"].append([40, 35]), r"ids in \[0, 35\)"),
        (lambda d: d["edges"].append([4, 4]), "joins a vertex to itself"),
        (lambda d: d["edges"].append([0, 0]), "joins a vertex to itself"),
        (lambda d: d["edges"].append([34, 34]), "joins a vertex to itself"),
        (lambda d: d["params"].update(n=5), r"needs 2-spaces of GF\(2\)\^5"),
        (lambda d: d["params"].update(m=1), r"needs 1-spaces of GF\(2\)\^4"),
        (lambda d: d["params"].update(m=4, n=4), "needs 4-spaces"),
        (lambda d: d["vertices"].__setitem__(1, d["vertices"][0]), "each of its vertices once"),
        (lambda d: d["vertices"].pop(), "each of its vertices once"),
        (lambda d: d["vertices"].insert(0, d["vertices"].pop(1)), "by id, 0 to V-1 in order"),
        (lambda d: d.update(vertices=[], edges=[]), "needs 2-spaces"),
    ],
    ids=[
        "negative id", "id V", "first id -V", "triple", "float id", "float first id",
        "str id", "str first id", "NaN id", "NaN first id", "reversed negative id",
        "reversed id -V", "both ids past V", "both ids past V, reversed", "loop",
        "loop at 0", "loop at V-1",
        "ambient", "dim", "m = n", "repeat", "missing", "out of order", "empty",
    ],
)
def test_malformed_dumps_raise_value_error(spoil, message):
    data = _j242_dump()
    spoil(data)
    with pytest.raises(ValueError, match=message):
        graph_from_json_dict(data)


def test_every_id_outside_the_vertex_range_is_refused(f2):
    # J_2(3,1) is K_7: ids from -3V to 3V cover both wraps of the offset table
    data = json.loads(graph_to_json(build_graph(f2, 3, 1)))
    for bad in (v for v in range(-21, 21) if not 0 <= v < 7):
        for edge in ([0, bad], [bad, 0], [bad, bad]):
            with pytest.raises(ValueError, match=r"ids in \[0, 7\)"):
                graph_from_json_dict({**data, "edges": [edge]})
    reversed_edges = {**data, "edges": [[j, i] for i, j in data["edges"]]}
    assert graph_from_json_dict(reversed_edges).adjacency == build_graph(f2, 3, 1).adjacency


def _swap_matrices(data, i, j):
    vs = data["vertices"]
    vs[i]["matrix"], vs[j]["matrix"] = vs[j]["matrix"], vs[i]["matrix"]


def _unreduced(rows):
    """GF(2) rows [r0 + r1, r1]: the same 2-space, not in RREF."""
    return ["".join(str(int(a) ^ int(b)) for a, b in zip(rows[0], rows[1])), rows[1]]


@pytest.mark.parametrize(
    "spoil, message",
    [
        (lambda d: d["edges"].pop(100), "exactly the graph's edges"),
        (lambda d: d["edges"].append([0, 34]), "exactly the graph's edges"),
        (lambda d: _swap_matrices(d, 3, 20), "RREF 2-spaces in order"),
        (lambda d: d["vertices"][0].update(matrix=_unreduced(d["vertices"][0]["matrix"])),
         "RREF 2-spaces in order"),
        (lambda d: d["params"].update(p=3), "each of its vertices once"),
    ],
    ids=["dropped edge", "added non-edge", "swapped vertices", "non-RREF vertex", "other field"],
)
def test_dumps_of_another_graph_raise_value_error(spoil, message):
    # J_2(4,2) is fixed by its vertex set: the dump must be the one graph_to_json writes
    G = build_graph(make_field(2, 1), 4, 2)
    assert not G.adjacent(0, 34)
    assert oracles.subspace_from_digits(G.spec, _unreduced(["1000", "0100"])) == G.vertices[0]
    data = _j242_dump()
    spoil(data)
    with pytest.raises(ValueError, match=message):
        graph_from_json_dict(data)


def test_a_repeated_edge_still_reloads():
    data = _j242_dump()
    data["edges"] += data["edges"][:5]
    assert graph_from_json_dict(data).adjacency == build_graph(make_field(2, 1), 4, 2).adjacency


@pytest.mark.parametrize("p, e, n, m", [(2, 1, 4, 2), (3, 1, 4, 2), (2, 2, 4, 2), (2, 1, 6, 3)])
def test_a_dump_with_reversed_repeated_and_shuffled_edges_reloads(p, e, n, m):
    # each edge is written once, into its smaller end's row, whichever way it is listed
    G = build_graph(make_field(p, e), n, m)
    data = json.loads(graph_to_json(G))
    edges = [[j, i] if k % 2 else [i, j] for k, (i, j) in enumerate(data["edges"])]
    edges += [[j, i] for i, j in data["edges"][::7]] + data["edges"][3::11]
    random.Random(39).shuffle(edges)
    assert graph_from_json_dict({**data, "edges": edges}).adjacency == G.adjacency


@pytest.mark.parametrize("q", [2, 3, 4])
def test_vertex_digits_match_the_per_vertex_writer(q):
    G = build_graph(make_field(*{2: (2, 1), 3: (3, 1), 4: (2, 2)}[q]), 4, 2)
    digits = report._vertex_digits(G.spec.q, G.bases)
    assert digits == [report.matrix_digits(v) for v in G.vertices]
    assert digits == [oracles.matrix_digits(v) for v in G.vertices]


# (p, e, n, m): K_3, GF(2), GF(3) and GF(4) digits, digits up to f, and the 248,031-edge J_2(7,2)
DUMPED_GRAPHS = [
    (2, 1, 2, 1),
    (2, 1, 4, 2),
    (3, 1, 4, 2),
    (2, 2, 4, 2),
    (2, 1, 6, 3),
    (2, 4, 3, 1),
    (2, 1, 7, 2),
]


@pytest.mark.parametrize(
    "p, e, n, m", DUMPED_GRAPHS, ids=[f"J_{p**e}({n},{m})" for p, e, n, m in DUMPED_GRAPHS]
)
def test_graph_writers_match_the_per_edge_oracles(p, e, n, m, capsys):
    G = build_graph(make_field(p, e), n, m)
    dump = graph_to_json(G)
    assert dump == json.dumps(oracles.graph_to_json_dict(G), indent=2)
    dot = graph_to_dot(G)
    assert dot == oracles.graph_to_dot(G)
    # the chunks graph_to_json and graph_to_dot join are the dumps the CLI writes
    assert dump == "".join(graph_json_chunks(G))
    assert dot == "".join(graph_dot_chunks(G)) + "\n"
    for fmt, text in (("json", dump + "\n"), ("dot", dot)):
        assert cli.main(f"build --q {p**e} --n {n} --m {m} --format {fmt}".split()) == 0
        assert capsys.readouterr().out == text


@pytest.mark.parametrize(
    "p, e, n, m", DUMPED_GRAPHS, ids=[f"J_{p**e}({n},{m})" for p, e, n, m in DUMPED_GRAPHS]
)
def test_graph_writers_read_no_star_rows(p, e, n, m, monkeypatch, capsys):
    # the dumps merge each vertex's stars from the grouping: the cached
    # star bitsets and adjacency rows are never read
    spec = make_field(p, e)
    dump, dot = graph_to_json(build_graph(spec, n, m)), graph_to_dot(build_graph(spec, n, m))

    def refused(self):
        raise AssertionError("a dump read the star rows")

    monkeypatch.setattr(GrassmannGraph, "_star_rows", property(refused))
    G = build_graph(spec, n, m)
    assert graph_to_json(G) == dump and graph_to_dot(G) == dot
    for fmt, text in (("json", dump + "\n"), ("dot", dot)):
        assert cli.main(f"build --q {p**e} --n {n} --m {m} --format {fmt}".split()) == 0
        assert capsys.readouterr().out == text


def test_matrix_digits_reject_fields_past_z():
    assert report.matrix_digits(oracles.subspace_from_digits(make_field(2, 5), ["1v"])) == ["1v"]
    with pytest.raises(ValueError, match="GF\\(37\\) has elements too large for one digit"):
        report.matrix_digits(oracles.canonicalize(oracles.matrix(make_field(37, 1), [[1, 0]])))
