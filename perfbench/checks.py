"""Invariant checks on command outputs, with the benchmark's own formulas.

The checks test what must hold for any correct program, not pinned
bytes, so a legitimate change of verdict (a coreness instance becoming
decided) is not a failure.  Each checker takes the step's argv and its
record {"rc", "out", ...} and returns a Result.  None of them calls into
grassmann_lab, except that witness validation is handed an adjacency
source (run.py passes one built with grassmann_lab.graph.build_graph).
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from workloads import prime_powers_upto


@dataclass(frozen=True)
class Result:
    ok: bool
    reason: str = ""
    decided: bool = True  # a failed command, or a coreness "undetermined", is not


def gauss(n: int, k: int, q: int) -> int:
    """Gaussian binomial [n, k]_q."""
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def clique_number(n: int, m: int, q: int) -> int:
    """Size of a star (n >= 2m) or a top (n < 2m)."""
    return gauss(n - m + 1, 1, q) if n >= 2 * m else gauss(m + 1, 1, q)


def adjacency_digest(adjacency, nv: int) -> str:
    width = (nv + 7) // 8
    return hashlib.sha256(b"".join(a.to_bytes(width, "little") for a in adjacency)).hexdigest()


def flags(argv: list[str]) -> dict[str, str]:
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


class CheckFailed(Exception):
    pass


def need(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def check(argv: list[str], rec: dict, adjacency=None) -> Result:
    """Dispatch on the subcommand; adjacency(q, n, m) serves witness checks."""
    try:
        need(rec["rc"] == 0, f"exit code {rec['rc']!r}: {rec.get('err', '')[-200:]}")
        kind = argv[0]
        f = flags(argv)
        if kind == "verify":
            check_verify(f, json.loads(rec["out"]))
        elif kind == "coreness":
            return check_coreness(f, json.loads(rec["out"]), adjacency)
        elif kind == "qbinom":
            check_qbinom(f, json.loads(rec["out"]))
        elif kind == "scan":
            data = json.loads(rec["out"])
            check_scan(int(f["n"]), int(f["m"]), int(f["q-max"]), data["qbinom"]["scan"])
        elif kind == "build" and f.get("format") == "json":
            check_build_json(f, json.loads(rec["out"]), rec.get("reload_adjacency"))
        elif kind == "build":
            check_build_text(f, rec["out"])
        else:
            raise CheckFailed(f"no checker for {kind!r}")
    except CheckFailed as exc:
        return Result(False, str(exc), decided=False)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return Result(False, f"malformed output: {type(exc).__name__}: {exc}", decided=False)
    return Result(True)


# -- verify -----------------------------------------------------------------


def check_verify(f: dict, data: dict) -> None:
    q, n, m = int(f["q"]), int(f["n"]), int(f["m"])
    need(data["ok"] is True, "verify reports ok != true")
    need(data["params"]["vertices"] == gauss(n, m, q), "vertex count differs from [n,m]_q")
    c = data["cliques"]
    need(c["stars"] == gauss(n, m - 1, q), f"star count {c['stars']} != [n,m-1]_q")
    need(c["tops"] == gauss(n, m + 1, q), f"top count {c['tops']} != [n,m+1]_q")
    need(c["total_maximal_cliques"] == c["stars"] + c["tops"], "stars + tops != total")
    need(c["unmatched"] == [] and c["ok"] is True, "unmatched maximal cliques")
    need(c["star_size"] == gauss(n - m + 1, 1, q), "star size != [n-m+1,1]_q")
    need(c["top_size"] == gauss(m + 1, 1, q), "top size != [m+1,1]_q")
    need(data["lemmas"]["ok"] is True, "clique lemmas fail")
    dual = data["lemmas"]["dual"]
    need(dual["applicable"] == (n == 2 * m), "duality applicability != (n == 2m)")
    need(not dual["applicable"] or dual["ok"] is True, "duality check fails")


# -- coreness ---------------------------------------------------------------

# Verdicts each instance may legitimately return.  "not-core" always needs
# a witness that re-validates; J_4(4,2) is not a core (a parallelism
# exists), J_2(7,3) is open (q-Fano planes).
ALLOWED = {
    (2, 4, 2): {"not-core"},
    (3, 4, 2): {"not-core"},
    (4, 4, 2): {"undetermined", "not-core"},
    (2, 5, 2): {"core"},
    (2, 7, 3): {"undetermined", "core", "not-core"},
}


def check_coreness(f: dict, data: dict, adjacency) -> Result:
    q, n, m = int(f["q"]), int(f["n"]), int(f["m"])
    rep = data["coreness"]
    nv, omega = gauss(n, m, q), clique_number(n, m, q)
    need(rep["params"]["vertices"] == nv, "vertex count differs from [n,m]_q")
    need(rep["omega"] == omega, f"omega {rep['omega']} != {omega}")
    integ = rep["integrality"]
    need(integ["is_integer"] == (nv % omega == 0), "is_integer disagrees with |V| mod omega")
    expect = Fraction(nv, omega)
    got = integ["value"]
    need(str(got) == str(expect), f"|V|/omega reported as {got}, expected {expect}")
    verdict = rep["verdict"]
    allowed = ALLOWED.get((q, n, m), {"undetermined", "core", "not-core"})
    need(verdict in allowed, f"verdict {verdict!r} not in {sorted(allowed)}")
    if verdict == "not-core":
        w = rep.get("witness")
        need(w is not None, "not-core without a witness")
        need(w["classification"] == "colouring", f"witness classified {w['classification']!r}")
        need(adjacency is not None, "no adjacency source to validate the witness")
        err = witness_error(adjacency(q, n, m), w["map"], omega)
        need(err is None, f"witness does not validate: {err}")
    if "fixture" in f:
        fx = data.get("fixture")
        need(fx is not None and fx["ok"] is True, "fixture report not ok")
        need(fx["chi_upper"] == omega, "fixture colour count != omega")
    return Result(True, decided=verdict in ("core", "not-core"))


def witness_error(adj: list[int], mapping: list[int], omega: int) -> str | None:
    """Why mapping is not an omega-colouring endomorphism of adj, or None."""
    nv = len(adj)
    if len(mapping) != nv:
        return f"map has {len(mapping)} entries for {nv} vertices"
    if any(not 0 <= v < nv for v in mapping):
        return "map leaves the vertex set"
    for i in range(nv):
        fi = mapping[i]
        rest = adj[i] >> (i + 1) << (i + 1)
        while rest:
            low = rest & -rest
            rest ^= low
            j = low.bit_length() - 1
            fj = mapping[j]
            if fi == fj or not adj[fi] >> fj & 1:
                return f"edge ({i}, {j}) maps to non-edge ({fi}, {fj})"
    image = sorted(set(mapping))
    if len(image) != omega:
        return f"image has {len(image)} vertices, not omega = {omega}"
    for a, u in enumerate(image):
        for v in image[a + 1 :]:
            if not adj[u] >> v & 1:
                return "image is not a clique"
    return None


# -- qpoly ------------------------------------------------------------------


def _ratio_text(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def check_qbinom(f: dict, data: dict) -> None:
    n, m = int(f["n"]), int(f["m"])
    qb = data["qbinom"]
    coeffs = qb["polynomial"]["coeffs"]
    need(len(coeffs) == m * (n - m) + 1, "degree of [n,m]_q != m(n-m)")
    need(sum(coeffs) == math.comb(n, m), "[n,m]_1 != binomial(n, m)")
    need(coeffs == coeffs[::-1], "[n,m]_q is not palindromic")
    need(sum(c << i for i, c in enumerate(coeffs)) == gauss(n, m, 2), "[n,m]_2 wrong")
    exps = {str(i): 1 for i in range(1, n + 1) if n // i - m // i - (n - m) // i}
    need(qb["exponents"] == exps, "cyclotomic exponents differ from floor formula")
    if "at" in f:
        at = int(f["at"])
        need(qb["value_at"] == {"q": at, "value": gauss(n, m, at)}, "value at --at is wrong")
    if 2 <= m and 2 * m <= n:
        h = qb["h"]
        g = math.gcd(m, n - m + 1)
        need(h["gcd"] == g and h["applicable"] == (g >= 2), "h applicability != gcd(m, n-m+1) >= 2")
        if "at" in f:
            at = int(f["at"])
            expect = _ratio_text(Fraction(gauss(n, m, at), clique_number(n, m, at)))
            need(str(h["value_at"]["value"]) == expect, "h value at --at is wrong")
        if "q-max" in f:
            check_scan(n, m, int(f["q-max"]), qb["scan"])


SCAN_SAMPLES = 24


def check_scan(n: int, m: int, q_max: int, scan: dict) -> None:
    entries = scan["entries"]
    need([e["q"] for e in entries] == prime_powers_upto(q_max), "scan q list != prime powers")
    g = math.gcd(m, n - m + 1)
    need(scan["gcd"] == g and scan["applicable"] == (g >= 2), "scan applicable != gcd >= 2")
    for e in entries:
        need(e["is_integer"] == ("/" not in e["value"]), f"is_integer contradicts value at q={e['q']}")
    stride = max(1, len(entries) // SCAN_SAMPLES)
    for e in entries[::stride] + entries[-1:]:
        value = Fraction(gauss(n, m, e["q"]), clique_number(n, m, e["q"]))
        need(e["is_integer"] == (value.denominator == 1), f"is_integer wrong at q={e['q']}")
        need(e["value"] == _ratio_text(value), f"h value wrong at q={e['q']}")
    integral = [e["q"] for e in entries if e["is_integer"]]
    need(scan["largest_integer_q"] == (integral[-1] if integral else None), "largest_integer_q")


# -- build ------------------------------------------------------------------

_HEADER = re.compile(r"J_(\d+)\((\d+),(\d+)\): (\d+) vertices, (\d+) edges, degree (\d+)$")


def expected_counts(q: int, n: int, m: int) -> tuple[int, int, int]:
    """(|V|, |E|, degree) with degree q [m]_q [n-m]_q."""
    nv = gauss(n, m, q)
    degree = q * gauss(m, 1, q) * gauss(n - m, 1, q)
    return nv, nv * degree // 2, degree


def check_build_text(f: dict, out: str) -> None:
    q, n, m = int(f["q"]), int(f["n"]), int(f["m"])
    lines = out.splitlines()
    head = _HEADER.match(lines[0])
    need(head is not None, "unparsable header line")
    got = tuple(int(x) for x in head.groups())
    nv, ne, degree = expected_counts(q, n, m)
    need(got[:3] == (q, n, m), "header names another graph")
    need(got[3] == nv, f"vertex count {got[3]} != [n,m]_q = {nv}")
    need(got[4] == ne, f"edge count {got[4]} != {ne}")
    need(got[5] == degree, f"degree {got[5]} != {degree}")
    body = lines[1:]
    need(len(body) == nv, "one line per vertex expected")
    need(all(line.startswith(f"  v{i}: ") for i, line in enumerate(body)), "vertex lines out of order")
    need(len({line.partition(": ")[2] for line in body}) == nv, "repeated vertex matrices")


def _span_mask(rows: list[list[int]], q: int, n: int) -> int:
    """Bitmask of all GF(q)^n vectors in the row space (q prime)."""
    span = {tuple([0] * n)}
    for row in rows:
        span = {tuple((v[j] + c * row[j]) % q for j in range(n)) for v in span for c in range(q)}
    mask = 0
    for v in span:
        mask |= 1 << sum(x * q**j for j, x in enumerate(v))
    return mask


def independent_adjacency(q: int, m: int, matrices: list[list[str]]) -> list[int]:
    """Adjacency from the vertex matrices: |X meet Y| = q^(m-1) (q prime)."""
    n = len(matrices[0][0])
    masks = [_span_mask([[int(ch, 36) for ch in r] for r in rows], q, n) for rows in matrices]
    thr = q ** (m - 1)
    nv = len(masks)
    adj = [0] * nv
    for i in range(nv):
        mi = masks[i]
        for j in range(i + 1, nv):
            if (mi & masks[j]).bit_count() == thr:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def check_build_json(f: dict, data: dict, reload_digest: str | None) -> None:
    q, n, m = int(f["q"]), int(f["n"]), int(f["m"])
    nv, ne, _ = expected_counts(q, n, m)
    need(data["params"]["vertices"] == nv, f"vertex count {data['params']['vertices']} != {nv}")
    verts = data["vertices"]
    need([v["id"] for v in verts] == list(range(nv)), "vertex ids are not 0..|V|-1")
    need(len(data["edges"]) == ne, f"edge count {len(data['edges'])} != {ne}")
    dumped = [0] * nv
    for i, j in data["edges"]:
        dumped[i] |= 1 << j
        dumped[j] |= 1 << i
    own = independent_adjacency(q, m, [v["matrix"] for v in verts])
    need(dumped == own, "dumped edges differ from the adjacency of the dumped matrices")
    need(reload_digest == adjacency_digest(own, nv), "reloaded adjacency differs from the dump")
