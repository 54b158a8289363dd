"""The benchmark's workloads: seeded, fixed-instance command lists.

Each workload is a list of steps; a step is {"argv": [...], "reload":
bool}, run through grassmann_lab.cli.main.  The instance list of a
workload is fixed.  The seed only permutes the step order within a pass
and, in "qpoly", draws each qbinom's --at value, so every seed does the
same kind and amount of work.  "build" keeps a fixed order: its steps
allocate 20-100 MB each, and which of them share the heap at the peak
moves the pass's peak RSS by 10% from one order to another.
"""

from __future__ import annotations

import random

FIXTURE = "src/grassmann_lab/data/j2_4_2_fixture.txt"
AT_MAX = 2048  # --at values are prime powers up to here

# Why each workload exists; BENCHMARK.json repeats these.
WHY = {
    "verify": "star/top lemma checks, clique enumeration and duality on J_2(6,3), J_4(4,2), "
    "J_3(4,2): the graph, subspaces and linalg layers, GF(4) included",
    "coreness": "coreness verdicts on five instances: clique and alpha branch and bound, "
    "DSATUR colouring search, witness classification and the J_2(4,2) fixture",
    "qpoly": "qbinom for every 4 <= 2m <= n <= 24 at seeded prime powers, one long scan, "
    "one large Gaussian binomial: q-polynomials, arith and JSON output, no graph",
    "build": "build and export J_2(8,2), J_4(5,2) as text and J_2(7,2) as JSON, then reload "
    "the JSON: the O(V^2) adjacency kernel, vector masks and serialization",
}
WORKLOADS = tuple(WHY)


def prime_powers_upto(limit: int) -> list[int]:
    """Prime powers 2..limit, by a sieve (independent of grassmann_lab.arith)."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    out = []
    for p in range(2, limit + 1):
        if sieve[p]:
            q = p
            while q <= limit:
                out.append(q)
                q *= p
    return sorted(out)


def _graph(cmd: str, q: int, n: int, m: int, *extra: str) -> list[str]:
    return [cmd, "--q", str(q), "--n", str(n), "--m", str(m), *extra]


def steps(workload: str, seed: int) -> list[dict]:
    """The step list of one pass of a workload, in seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify":
        argvs = [
            _graph("verify", 2, 6, 3, "--brute-bound", "2000"),
            _graph("verify", 4, 4, 2),
            _graph("verify", 3, 4, 2),
        ]
        out = [{"argv": a, "reload": False} for a in argvs]
    elif workload == "coreness":
        argvs = [
            _graph("coreness", 2, 4, 2, "--fixture", FIXTURE),
            _graph("coreness", 3, 4, 2),
            _graph("coreness", 4, 4, 2),
            _graph("coreness", 2, 5, 2),
            _graph("coreness", 2, 7, 3),
        ]
        out = [{"argv": a, "reload": False} for a in argvs]
    elif workload == "qpoly":
        ats = prime_powers_upto(AT_MAX)
        out = [
            {
                "argv": ["qbinom", "--n", str(n), "--m", str(m), "--at", str(rng.choice(ats)),
                         "--q-max", str(AT_MAX)],
                "reload": False,
            }
            for n in range(4, 25)
            for m in range(2, n // 2 + 1)
        ]
        out.append({"argv": ["scan", "--n", "8", "--m", "3", "--q-max", "200000"], "reload": False})
        out.append({"argv": ["qbinom", "--n", "80", "--m", "40"], "reload": False})
    elif workload == "build":
        return [
            {"argv": _graph("build", 2, 8, 2, "--max-vertices", "11000"), "reload": False},
            {"argv": _graph("build", 4, 5, 2, "--max-vertices", "6000"), "reload": False},
            {"argv": _graph("build", 2, 7, 2, "--format", "json"), "reload": True},
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng.shuffle(out)
    return out
