"""Serialization of graphs and check reports: JSON, DOT, and text.

Matrices are rendered as arrays of digit strings (one string per row,
0-9 then a-z per entry), which keeps dumps diffable and language
neutral.  Reports are plain dicts built in a fixed order, so identical
configurations always serialize to identical bytes.  json_chunks yields
exactly json.dumps(data, indent=2), chunk by chunk, as the CLI writes it:
an h scan's entries come straight from its (q, numerator, denominator)
rows, a graph dump's vertices from their basis rows and its edges from
the stars, with no list per edge and no adjacency, and no chunk is
copied into a larger one.  A dump reloads only as exactly the graph
build_graph makes (graph_from_json_dict).
"""

from __future__ import annotations

import json
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from . import graph
from .config import check_decimal_digits
from .coreness import CorenessReport
from .field import make_field
from .graph import DualReport, GrassmannGraph, LemmaReport, build_graph
from .qpoly import HReport, IntPolynomial, ScanReport, gaussian_binomial_int
from .subspaces import Subspace

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"
_BLOCK = 1024  # records per chunk of a scan's entries or a dump's vertices


def matrix_digits(S: Subspace) -> list[str]:
    return _vertex_digits(S.spec.q, (S.basis.rows,))[0]


class _RowDigits(dict):
    """Digit strings by basis row, each written on its first lookup."""

    def __missing__(self, row: tuple[int, ...]) -> str:
        text = self[row] = "".join(map(_DIGITS.__getitem__, row))
        return text


def _vertex_digits(q: int, bases) -> list[list[str]]:
    """The digit strings of each basis, by its rows over GF(q) (_row_digits)."""
    row = _row_digits(q)
    return [list(map(row, rows)) for rows in bases]


def _row_digits(q: int):
    """The digit string of a row over GF(q); each distinct row is written once."""
    if q > len(_DIGITS):
        raise ValueError(f"GF({q}) has elements too large for one digit")
    return _RowDigits().__getitem__


def params_dict(G: GrassmannGraph) -> dict:
    return {
        "q": G.spec.q,
        "p": G.spec.p,
        "e": G.spec.e,
        "n": G.n,
        "m": G.m,
        "vertices": G.num_vertices,
    }


def graph_to_json(G: GrassmannGraph) -> str:
    """json.dumps(indent=2) of the params, the vertices and the edges [i, j], i < j, in order."""
    return "".join(graph_json_chunks(G))


def graph_json_chunks(G: GrassmannGraph):
    """graph_to_json(G) in chunks of _BLOCK vertex records, or of one vertex's edges.

    Vertex records come from one %-template (digits need no escaping) and
    edges from the stars, each as it is drawn: no dict per vertex or list per edge.
    """
    params = to_json({"params": params_dict(G)})[:-2]  # drops its closing "\n}"
    record = '{\n      "id": %d,\n      "matrix": [\n        "%s"\n      ]\n    }'
    # the digit check and the stars run before the first chunk, so their failure writes nothing
    row = _row_digits(G.spec.q)
    records = (record % (i, '",\n        "'.join(map(row, rows))) for i, rows in enumerate(G.bases))
    cell = "\n      %d,\n      "
    edges = _edge_rows(G, "[" + cell, "\n    ],\n    [" + cell, "\n    ]")
    yield from _blocks(records, params + ',\n  "vertices": [\n    ', ",\n    ")
    # J_q(n,m) has edges, so the first vertex's rows open the edge list
    yield from _blocks(edges, '\n  ],\n  "edges": [\n    ', ",\n    ", 1)
    yield "\n  ]\n}"


def _blocks(texts, head: str, sep: str, size: int = _BLOCK):
    """head, then the texts joined by sep, as chunks of up to size texts with sep between them."""
    texts = iter(texts)
    while block := list(islice(texts, size)):
        yield head + sep.join(block)
        head = sep


def _edge_rows(G: GrassmannGraph, head: str, sep: str, tail: str):
    """head % i, the neighbours j > i joined by sep % i, then tail, per vertex i with such a j.

    The stars are grouped now, each sorted once; a row is the parts after i of
    i's [m,1]_q stars, which meet only in i, merged by one sort as it is drawn.
    """
    labels = list(map(str, range(G.num_vertices))).__getitem__
    through = [[] for _ in G.bases]  # per vertex, (its star's ids, the position past it)
    for ids in graph._hyperplane_groups(G.spec, G.spans).values():
        ids.sort()
        for k, v in enumerate(ids, 1):
            through[v].append((ids, k))
    rows = (sorted(chain.from_iterable(ids[k:] for ids, k in stars)) for stars in through)
    return (head % i + (sep % i).join(map(labels, js)) + tail for i, js in enumerate(rows) if js)


def graph_from_json_dict(data: dict) -> GrassmannGraph:
    """The graph of a dump that lists the m-spaces in enumeration order, as
    graph_to_json writes them, and exactly the graph's edges; else ValueError.

    J_q(n,m) is fixed by its vertex set, so build_graph makes it afresh,
    once the vertex count and shapes match the params.  An edge may appear
    reversed or repeated; it sets bit j of row i, its ends ordered i <= j,
    in little-endian bytes, through a table of byte offsets that runs on for
    V entries past a row and one of bit values: an i >= V indexes past the
    rows, a j in [V, 2V) past a row, a larger j past the table.
    """
    p, e, n, m = (data["params"][k] for k in ("p", "e", "n", "m"))
    spec = make_field(p, e)
    matrices = [v["matrix"] for v in data["vertices"]]
    shapes = {len(M) for M in matrices}, {len(row) for M in matrices for row in M}
    if not (1 <= m < n and matrices) or shapes != ({m}, {n}):
        raise ValueError(f"a dump of J_{spec.q}({n},{m}) needs {m}-spaces of GF({spec.q})^{n}")
    nv = len(matrices)
    if nv != gaussian_binomial_int(n, m, spec.q) or len(set(map(tuple, matrices))) != nv:
        raise ValueError(f"a dump of J_{spec.q}({n},{m}) needs each of its vertices once")
    ids = range(nv)
    if [v["id"] for v in data["vertices"]] != list(ids):
        raise ValueError("a dump lists its vertices by id, 0 to V-1 in order")
    G = build_graph(spec, n, m, max_vertices=nv)
    if matrices != _vertex_digits(G.spec.q, G.bases):
        raise ValueError(f"a dump of J_{spec.q}({n},{m}) lists its RREF {m}-spaces in order")
    size = (nv + 7) >> 3
    byte = [j >> 3 for j in ids] + [size] * nv
    bit = [1 << (j & 7) for j in ids]
    rows = [bytearray(size) for _ in ids]
    try:
        for i, j in data["edges"]:
            if not 0 <= i <= j:
                i, j = j, i
                if not 0 <= i <= j:  # a negative id, or NaN
                    raise ValueError
            rows[i][byte[j]] |= bit[j]
    except (IndexError, TypeError, ValueError):
        raise ValueError(f"an edge is not a pair of vertex ids in [0, {nv})") from None
    upper = [int.from_bytes(row, "little") for row in rows]
    if any(a >> v & 1 for v, a in enumerate(upper)):
        raise ValueError("an edge joins a vertex to itself")
    if upper != [a >> (v + 1) << (v + 1) for v, a in enumerate(G.adjacency)]:
        raise ValueError(f"a dump of J_{spec.q}({n},{m}) lists exactly the graph's edges")
    return G


def graph_to_dot(G: GrassmannGraph) -> str:
    """The DOT dump, a line per vertex, then per edge i < j: graph_dot_chunks(G), a newline."""
    return "".join(graph_dot_chunks(G)) + "\n"


def graph_dot_chunks(G: GrassmannGraph):
    """graph_to_dot(G) less its newline, in chunks of _BLOCK vertex lines or of one vertex's edges.

    As in graph_json_chunks, the digit check and the stars run before the first chunk.
    """
    line = '  v%d [label="v%d", tooltip="%s"];'  # digits need no escaping
    row = _row_digits(G.spec.q)
    lines = (line % (i, i, "/".join(map(row, rows))) for i, rows in enumerate(G.bases))
    edges = _edge_rows(G, "  v%d -- v", ";\n  v%d -- v", ";")
    yield from _blocks(lines, "graph grassmann {\n", "\n")
    yield from _blocks(edges, "\n", "\n", 1)
    yield "\n}"


def graph_to_text(G: GrassmannGraph) -> str:
    """The header, with the degree q [m,1]_q [n-m,1]_q of the regular J_q(n,m),
    and a line per vertex: no span table, mask or adjacency row is built."""
    q, m = G.spec.q, G.m
    degree = q * gaussian_binomial_int(m, 1, q) * gaussian_binomial_int(G.n - m, 1, q)
    lines = [
        f"J_{q}({G.n},{m}): {G.num_vertices} vertices, "
        f"{G.num_vertices * degree // 2} edges, degree {degree}"
    ]
    row = _row_digits(q)
    lines += ["  v%d: %s" % (i, " ".join(map(row, rows))) for i, rows in enumerate(G.bases)]
    lines.append("")  # the text ends in a newline
    return "\n".join(lines)


def lemma_report_dict(rep: LemmaReport) -> dict:
    return {
        "q": rep.q,
        "star_top_intersection": rep.star_top_ok,
        "pairwise_at_most_one": rep.pairwise_ok,
        "star_meet": rep.star_meet_ok,
        "top_meet": rep.top_meet_ok,
        "ok": rep.ok,
        "counterexamples": rep.counterexamples,
    }


def dual_report_dict(rep: DualReport | None) -> dict:
    if rep is None:
        return {"applicable": False, "note": "requires n = 2m"}
    return {
        "applicable": True,
        "bijection": rep.bijection,
        "involution": rep.involution,
        "preserves_adjacency": rep.preserves_adjacency,
        "stars_to_tops": rep.stars_to_tops,
        "tops_to_stars": rep.tops_to_stars,
        "ok": rep.ok,
        "counterexamples": rep.counterexamples,
    }


def census_dict(census) -> dict:
    return {
        "total_maximal_cliques": census.total,
        "stars": census.star_count,
        "tops": census.top_count,
        "star_size": census.star_size,
        "top_size": census.top_size,
        "unmatched": [list(c) for c in census.unmatched],
        "ok": census.ok,
    }


def _value_or_bounds(v):
    if isinstance(v, tuple):
        return {"lower": v[0], "upper": v[1]}
    return v


def coreness_report_dict(rep: CorenessReport) -> dict:
    # omega, alpha, chi and the vertex/clique ratio are no larger than |V|
    check_decimal_digits(rep.num_vertices, f"the vertex count of J_{rep.q}({rep.n},{rep.m})")
    value = rep.integrality_value
    if value is None:
        integrality = None
    elif value[1] == 1:
        integrality = {"is_integer": True, "value": value[0]}
    else:
        num, den = value
        integrality = {
            "is_integer": False,
            "numerator": num,
            "denominator": den,
            "value": f"{num}/{den}",
        }
    out = {
        "params": {"q": rep.q, "n": rep.n, "m": rep.m, "vertices": rep.num_vertices},
        "verdict": rep.verdict,
        "omega": rep.omega,
        "alpha": _value_or_bounds(rep.alpha),
        "chi": _value_or_bounds(rep.chi),
        "integrality": integrality,
        "evidence": rep.evidence,
    }
    if rep.witness is not None:
        out["witness"] = {
            "map": list(rep.witness.mapping),
            "classification": rep.witness_class,
            "image_size": len(rep.witness.image()),
            "injective": rep.witness.is_injective(),
        }
    return out


def poly_dict(p: IntPolynomial) -> dict:
    return {"coeffs": list(p.coeffs), "text": str(p)}


def h_report_dict(rep: HReport) -> dict:
    return {
        "n": rep.n,
        "m": rep.m,
        "gcd": rep.gcd_value,
        "applicable": rep.applicable,
        "exponents": {str(t): e for t, e in sorted(rep.exponents.exponents.items())},
        "f": poly_dict(rep.f),
        "g": poly_dict(rep.g),
        "f1": poly_dict(rep.f1),
        "r": poly_dict(rep.r),
    }


def check_scan_digits(numerator: int, n: int, m: int, q_max: int) -> None:
    """Raise BoundExceeded if an h(q) numerator of the scan up to q_max is too long to print."""
    check_decimal_digits(numerator, f"h(q) for (n={n}, m={m}) up to q = {q_max}")


class _ScanRows(tuple):
    """Scan rows (q, numerator, denominator), which json_chunks writes as the
    records {"q", "is_integer", "value"} they stand for."""


def scan_report_dict(rep: ScanReport) -> dict:
    # every h(q) is at least 1, so no denominator outgrows its numerator
    check_scan_digits(max(map(itemgetter(1), rep.entries), default=0), rep.n, rep.m, rep.q_max)
    return {
        "n": rep.n,
        "m": rep.m,
        "q_max": rep.q_max,
        "gcd": rep.gcd_value,
        "applicable": rep.applicable,
        "largest_integer_q": rep.largest_integer_q,
        "entries": _ScanRows(rep.entries),
    }


def to_json(data) -> str:
    """Exactly json.dumps(data, indent=2): the join of json_chunks(data)."""
    return "".join(json_chunks(data))


def json_chunks(o, nl: str = "\n"):
    """The indent-2 JSON of o, whose own line starts with the newline nl, in chunks.

    With an indent, json.dumps runs the pure-Python encoder, which is one
    generator step per element.  Containers of exact dicts, lists, tuples,
    strs and ints are written here, a container as its opening, its
    children's chunks and its closing, and so are the scan rows of
    scan_report_dict, _BLOCK records {"q", "is_integer", "value"} to a
    chunk; everything else goes to json.dumps itself.  The input must be a
    tree whose values passed their bound checks, so no chunk fails once
    the first is written.
    """
    t = type(o)
    inner = nl + "  "
    if t is str:
        yield encode_basestring_ascii(o)
    elif t is int:
        yield int.__repr__(o)
    elif o is None or t is bool:
        yield "null" if o is None else "true" if o else "false"
    elif t is dict and o and all(type(k) is str for k in o):
        for i, (k, v) in enumerate(o.items()):
            yield ("," if i else "{") + inner + encode_basestring_ascii(k) + ": "
            yield from json_chunks(v, inner)
        yield nl + "}"
    elif (t is list or t is tuple) and o and set(map(type, o)) == {int}:
        yield "[" + inner + ("," + inner).join(map(int.__repr__, o)) + nl + "]"
    elif (t is list or t is tuple) and o:
        for i, x in enumerate(o):
            yield ("," if i else "[") + inner
            yield from json_chunks(x, inner)
        yield nl + "]"
    elif t is _ScanRows and o:
        # one %-template per row kind; only the record's own text is built per row
        cell = inner + "  "
        head = "{" + cell + '"q": %d,' + cell + '"is_integer": '
        whole = head + "true," + cell + '"value": "%d"' + inner + "}"
        part = head + "false," + cell + '"value": "%d/%d"' + inner + "}"
        rows = (whole % (q, n) if d == 1 else part % (q, n, d) for q, n, d in o)
        yield from _blocks(rows, "[" + inner, "," + inner)
        yield nl + "]"
    else:  # empty containers too, as {} or []
        yield json.dumps(o, indent=2).replace("\n", nl)
