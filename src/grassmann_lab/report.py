"""Serialization of graphs and check reports: JSON, DOT, and text.

Matrices are rendered as arrays of digit strings (one string per row,
0-9 then a-z per entry), which keeps dumps diffable and language
neutral.  Reports are plain dicts built in a fixed order, so identical
configurations always serialize to identical bytes.  to_json writes them
as exactly json.dumps(data, indent=2) would, but without the pure-Python
encoder's generator step per element; graph dumps write their edges
straight from the adjacency rows, with no list per edge.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import accumulate, chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .config import check_decimal_digits
from .coreness import CorenessReport
from .field import make_field
from .fixture import FixtureReport
from .graph import DualReport, GrassmannGraph, LemmaReport
from .qpoly import HReport, IntPolynomial, ScanReport
from .subspaces import Subspace, subspace_from_digits, vector_masks

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def matrix_digits(S: Subspace) -> list[str]:
    if S.spec.q > len(_DIGITS):
        raise ValueError(f"GF({S.spec.q}) has elements too large for one digit")
    return ["".join(map(_DIGITS.__getitem__, row)) for row in S.basis.rows]


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
    """json.dumps(indent=2) of the params, the vertices and the edges [i, j], i < j, in order.

    The edges are written row by row from the adjacency bitsets, so a
    248,031-edge dump (J_2(7,2)) builds no list per edge.
    """
    vertices = [{"id": i, "matrix": matrix_digits(v)} for i, v in enumerate(G.vertices)]
    head = to_json({"params": params_dict(G), "vertices": vertices})
    rows = _edge_rows(G, "[\n      %d,\n      ", "\n    ],\n    [\n      %d,\n      ", "\n    ]")
    edges = "[\n    " + ",\n    ".join(rows) + "\n  ]" if rows else "[]"
    return head[:-2] + ',\n  "edges": ' + edges + "\n}"  # head[:-2] drops its closing "\n}"


def _edge_rows(G: GrassmannGraph, head: str, sep: str, tail: str) -> list[str]:
    """head % i, the neighbours j > i joined by sep % i, then tail, per vertex i with such a j.

    The bits of a >> (i + 1), low first and less the top one, split on "1"
    once each 1 is "10", give the gaps between consecutive neighbours.
    """
    labels = list(map(str, range(G.num_vertices)))
    out = []
    for i, a in enumerate(G.adjacency):
        if x := a >> (i + 1):
            gaps = list(map(len, bin(x)[:2:-1].replace("1", "10").split("1")))
            gaps[0] += i + 1
            out.append(head % i + (sep % i).join(map(labels.__getitem__, accumulate(gaps))) + tail)
    return out


def graph_from_json_dict(data: dict) -> GrassmannGraph:
    """Rebuild a graph from a dump; adjacency comes from the edge list.

    Each row gathers its neighbours as bits of a little-endian byte string
    and becomes an int once, not once per edge.
    """
    p, e, n, m = (data["params"][k] for k in ("p", "e", "n", "m"))
    spec = make_field(p, e)
    vertices = tuple(subspace_from_digits(spec, v["matrix"]) for v in data["vertices"])
    rows = [bytearray((len(vertices) + 7) >> 3) for _ in vertices]
    for i, j in data["edges"]:
        rows[i][j >> 3] |= 1 << (j & 7)
        rows[j][i >> 3] |= 1 << (i & 7)
    adjacency = tuple(int.from_bytes(row, "little") for row in rows)
    masks = tuple(vector_masks(vertices))
    return GrassmannGraph(spec, n, m, vertices, adjacency, masks)


def graph_to_dot(G: GrassmannGraph) -> str:
    lines = ["graph grassmann {"]
    for i, v in enumerate(G.vertices):
        lines.append(f'  v{i} [label="v{i}", tooltip="{"/".join(matrix_digits(v))}"];')
    lines += _edge_rows(G, "  v%d -- v", ";\n  v%d -- v", ";")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_text(G: GrassmannGraph) -> str:
    lines = [
        f"J_{G.spec.q}({G.n},{G.m}): {G.num_vertices} vertices, "
        f"{sum(a.bit_count() for a in G.adjacency) // 2} edges, degree {G.degree(0)}"
    ]
    for i, v in enumerate(G.vertices):
        lines.append(f"  v{i}: {' '.join(matrix_digits(v))}")
    return "\n".join(lines) + "\n"


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
    if isinstance(value, Fraction):
        integrality = {
            "is_integer": False,
            "numerator": value.numerator,
            "denominator": value.denominator,
            "value": f"{value.numerator}/{value.denominator}",
        }
    elif value is None:
        integrality = None
    else:
        integrality = {"is_integer": True, "value": value}
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


def fixture_report_dict(rep: FixtureReport) -> dict:
    return {
        "distinct_and_covering": rep.distinct_ok,
        "partition": rep.partition_ok,
        "independent_sets": rep.independent_ok,
        "ok": rep.ok,
        "chi_upper": rep.chi_upper,
        "violations": rep.violations,
        "label_to_vertex": rep.label_to_vertex,
    }


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


def scan_report_dict(rep: ScanReport) -> dict:
    # every h(q) is at least 1, so no denominator outgrows its numerator
    check_scan_digits(max((e.numerator for e in rep.entries), default=0), rep.n, rep.m, rep.q_max)
    return {
        "n": rep.n,
        "m": rep.m,
        "q_max": rep.q_max,
        "gcd": rep.gcd_value,
        "applicable": rep.applicable,
        "largest_integer_q": rep.largest_integer_q,
        "entries": [
            {
                "q": e.q,
                "is_integer": e.is_integer,
                "value": str(e.numerator) if e.is_integer else f"{e.numerator}/{e.denominator}",
            }
            for e in rep.entries
        ],
    }


def to_json(data) -> str:
    """Exactly json.dumps(data, indent=2), built without its per-element generators.

    With an indent, json.dumps runs the pure-Python encoder, which is one
    generator step per element.  Containers of exact dicts, lists, tuples,
    strs and ints are written here (a list of records with one key order
    and one exact scalar type per key as one %-template); everything else
    goes to json.dumps itself.  The input must be a tree.
    """
    return _json(data, "\n")


def _json(o, nl: str) -> str:
    """The indent-2 JSON of o, whose own line starts with the newline nl."""
    t = type(o)
    if t is str:
        return encode_basestring_ascii(o)
    if t is int:
        return int.__repr__(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    inner = nl + "  "
    sep = "," + inner
    if t is dict:
        if not o:
            return "{}"
        if all(type(k) is str for k in o):
            items = (encode_basestring_ascii(k) + ": " + _json(v, inner) for k, v in o.items())
            return "{" + inner + sep.join(items) + nl + "}"
    elif t is list or t is tuple:
        if not o:
            return "[]"
        types = set(map(type, o))
        if types == {int}:
            return "[" + inner + sep.join(map(int.__repr__, o)) + nl + "]"
        if types == {str}:
            return "[" + inner + sep.join(map(encode_basestring_ascii, o)) + nl + "]"
        if types == {dict}:
            records = _records(o, inner)
            if records is not None:
                return "[" + inner + records + nl + "]"
        return "[" + inner + sep.join([_json(x, inner) for x in o]) + nl + "]"
    return json.dumps(o, indent=2).replace("\n", nl)


# The record template's cell, and the conversion its values need, per exact scalar type
_CELLS = {
    int: ("%d", None),
    str: ("%s", encode_basestring_ascii),
    bool: ("%s", ("false", "true").__getitem__),
}


def _records(o, inner: str) -> str | None:
    """The dicts of the list o, joined as _json joins list items, from one %-template.

    Every dict must have the first one's str keys, in its order, and each
    key's values must share one exact type among int, str and bool;
    otherwise None.  The first dict's types are checked before anything
    else, so a list whose first record holds a container (a graph's vertex
    list) costs one look and builds no column.
    """
    keys = tuple(o[0])
    kinds = [type(v) for v in o[0].values()]
    if not keys or not all(type(k) is str for k in keys) or not all(t in _CELLS for t in kinds):
        return None
    if not all(map(keys.__eq__, map(tuple, o))):
        return None
    if any(set(map(type, map(itemgetter(k), o))) != {t} for k, t in zip(keys, kinds)):
        return None
    cell = inner + "  "
    fields = (
        encode_basestring_ascii(k).replace("%", "%%") + ": " + _CELLS[t][0]
        for k, t in zip(keys, kinds)
    )
    record = "{" + cell + ("," + cell).join(fields) + inner + "}"
    columns = []
    for k, t in zip(keys, kinds):
        column, convert = map(itemgetter(k), o), _CELLS[t][1]
        columns.append(column if convert is None else map(convert, column))
    return ("," + inner).join([record] * len(o)) % tuple(chain.from_iterable(zip(*columns)))
