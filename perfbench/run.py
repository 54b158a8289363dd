"""Benchmark of grassmann_lab: one command for every metric and check.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout; it imports grassmann_lab from
the checkout's src/.  The workloads (see workloads.py) are closed loops
with one client: each pass runs its steps back to back through
grassmann_lab.cli.main(argv), in a fresh child process (child.py), with
no threads and no pool.

--trace 0 runs untraced passes until --seconds is used up (at least
one) and reports the end-to-end metrics:

  wall_s        median seconds of one pass (sum of its timed steps),
                rescaled to reference CPU speed (speed.py)
  setup_s       median seconds of `import grassmann_lab.cli` in a fresh
                interpreter, the cost every CLI command pays, rescaled
                the same way
  peak_rss_mb   median peak resident memory of a pass's child process
  ok_frac       commands whose output passes its check (checks.py) and
                whose stdout repeats byte for byte across the passes of
                the run, over commands attempted
  decided_frac  commands ending in a definite answer over commands
                attempted; a failed command and a coreness verdict of
                "undetermined" are not definite answers

--trace 1 runs one untraced pass and two traced ones (tracing.py) and
reports the per-layer metrics: self time per layer and per function,
call counts, search budgets, and the tracing overhead.  Self times are
raw seconds; the overhead compares rescaled pass times.  Call counts
must repeat exactly between the traced passes.  The second traced pass
is skipped if the run could not end within TRACE_DEADLINE_S; then the
counts are not compared, and trace.passes reports 1 instead of 2.  It
also writes the per-function table and the spans under .perfbench_out/.

The last stdout line is {"correct", "attempted", "failed", "metrics"}.
Without a grassmann_lab under src/ the command exits 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 15  # plus one unmeasured run that fills the bytecode cache
TRACED_PASSES = 2
MAX_PASSES = 64
PASS_TIMEOUT_S = 170
# A traced run must end within 180 s; a second traced pass (which checks
# that call counts repeat) starts only if it should end before this.
TRACE_DEADLINE_S = 150
COUNT_UNITS = ("count", "bytes")

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "decided_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark itself could not run (not a failed check)."""


# -- child processes ----------------------------------------------------------


SETUP_CODE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
from speed import REF_PROBE_S, probe_seconds
speeds = [REF_PROBE_S / probe_seconds() for _ in range(3)]
t = time.perf_counter()
import grassmann_lab.cli
dt = time.perf_counter() - t
speeds += [REF_PROBE_S / probe_seconds() for _ in range(3)]
print(dt, dt * sum(speeds) / len(speeds))
"""


def setup_seconds() -> tuple[float, float]:
    """Median (raw, rescaled) seconds of importing grassmann_lab.cli afresh."""
    samples = []
    for _ in range(SETUP_RUNS + 1):
        r = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(HERE), str(ROOT / "src")],
            capture_output=True, text=True, timeout=60, cwd=ROOT,
        )
        if r.returncode != 0:
            raise BenchError(f"cannot import grassmann_lab.cli: {r.stderr.strip()[-500:]}")
        samples.append([float(x) for x in r.stdout.split()])
    samples = samples[1:]
    return tuple(statistics.median(s[i] for s in samples) for i in (0, 1))


def run_pass(steps: list[dict], trace: bool, tag: str) -> tuple[dict, Path]:
    """Run one pass in a fresh interpreter; (summary, path of step records)."""
    records = OUT / f"records-{os.getpid()}-{tag}.jsonl"
    job = {
        "root": str(ROOT),
        "steps": steps,
        "trace": trace,
        "out": str(records),
        "spans": str(OUT / f"spans-{tag}.json"),
    }
    try:
        r = subprocess.run(
            [sys.executable, "-I", str(HERE / "child.py")],
            input=json.dumps(job), capture_output=True, text=True,
            timeout=PASS_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {tag} took over {PASS_TIMEOUT_S} s") from None
    if r.returncode != 0:
        raise BenchError(f"pass {tag} failed: {r.stderr.strip()[-2000:]}")
    return json.loads(r.stdout.splitlines()[-1]), records


@functools.cache
def program_adjacency(q: int, n: int, m: int) -> list[int]:
    """Adjacency of J_q(n,m) in grassmann_lab's vertex order, for witness checks."""
    sys.path.insert(0, str(ROOT / "src"))
    from grassmann_lab.field import make_field
    from grassmann_lab.graph import build_graph

    p = next(d for d in range(2, q + 1) if q % d == 0)
    e = 0
    while p**e < q:
        e += 1
    G = build_graph(make_field(p, e), n, m, max_vertices=checks.gauss(n, m, q))
    return list(G.adjacency)


# -- one run ------------------------------------------------------------------


class Run:
    """Accumulates check results and stdout digests over the passes of a run."""

    def __init__(self, steps: list[dict]):
        self.steps = steps
        self.attempted = 0
        self.failed = 0
        self.decided = 0
        self.failures: list[str] = []
        self.digests: list[str] | None = None
        self.stdout_bytes: list[int] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def check_pass(self, records: Path) -> None:
        digests = []
        nbytes = 0
        with open(records) as fh:
            lines = fh.readlines()
        records.unlink()
        if len(lines) != len(self.steps):
            raise BenchError(f"pass wrote {len(lines)} records for {len(self.steps)} steps")
        for step, line in zip(self.steps, lines):
            rec = json.loads(line)
            out = rec["out"].encode()
            nbytes += len(out)
            digests.append(hashlib.sha256(out).hexdigest())
            res = checks.check(step["argv"], rec, program_adjacency)
            self.attempted += 1
            self.decided += res.decided
            if not res.ok:
                self.fail(f"{' '.join(step['argv'])}: {res.reason}")
            elif self.digests is not None and digests[-1] != self.digests[len(digests) - 1]:
                self.fail(f"{' '.join(step['argv'])}: stdout differs from the first pass")
        self.stdout_bytes.append(nbytes)
        if self.digests is None:
            self.digests = digests


def run_untraced(steps: list[dict], seconds: float, tag: str) -> tuple[Run, list[dict]]:
    run = Run(steps)
    summaries = []
    durations = []
    start = monotonic()
    while len(summaries) < MAX_PASSES:
        t0 = monotonic()
        summary, records = run_pass(steps, False, f"{tag}-{len(summaries)}")
        run.check_pass(records)
        summaries.append(summary)
        durations.append(monotonic() - t0)
        if monotonic() - start + statistics.median(durations) > seconds:
            break
    return run, summaries


def end_to_end(run: Run, summaries: list[dict], setup_s: float) -> dict:
    return {
        "wall_s": statistics.median(s["wall_s"] for s in summaries),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in summaries),
        "ok_frac": (run.attempted - run.failed) / run.attempted,
        "decided_frac": run.decided / run.attempted,
    }


# -- per-layer metrics from a traced pass -------------------------------------


class Traced:
    """Accessors over one traced pass's summary."""

    def __init__(self, summary: dict, stdout_bytes: int, untraced_wall: float, passes: int):
        self.stats = summary["trace"]
        self.wall = summary["raw_s"]
        self.rescaled_wall = summary["wall_s"]
        self.unwrapped = self.wall - sum(v[1] for v in self.stats.values())
        self.spans = summary["spans"]
        self.stdout_bytes = stdout_bytes
        self.untraced_wall = untraced_wall
        self.passes = passes  # traced passes in the run

    def _get(self, key: str, i: int):
        return self.stats.get(key, [0, 0.0, 0.0, 0, 0.0, 0])[i]

    def calls(self, key):
        return self._get(key, 0)

    def self_s(self, key):
        return self._get(key, 1)

    def total_s(self, key):
        return self._get(key, 2)

    def exhausted(self, key):
        return self._get(key, 3)

    def layer_s(self, layer):
        return sum(v[1] for k, v in self.stats.items() if k.startswith(layer + "."))

    def us_per_node(self, key):
        nodes = self._get(key, 5)
        return 1e6 * self._get(key, 4) / nodes if nodes else 0.0

    def search_decided_frac(self):
        started = sum(self.calls(k) for k in tracing.SEARCHES)
        given_up = sum(self.exhausted(k) for k in tracing.SEARCHES)
        return (started - given_up) / started if started else 1.0  # none given up


def _s(key):
    return ("s", "lower", lambda t: t.self_s(key))


def _calls(key):
    return ("count", "lower", lambda t: t.calls(key))


def _layer(layer):
    return ("s", "lower", lambda t: t.layer_s(layer))


# name -> (unit, better, value); the order is the order of BENCHMARK.json.
PER_LAYER = {
    "field.s": _layer("field"),
    "field.make_field.s": _s("field.make_field"),
    "field.mul.calls": _calls("field.mul"),
    "field.add.calls": _calls("field.add"),
    "linalg.s": _layer("linalg"),
    "linalg.rref.calls": _calls("linalg.rref"),
    "linalg.stack_rank.calls": _calls("linalg.stack_rank"),
    "subspaces.s": _layer("subspaces"),
    "subspaces.enumerate_subspaces.calls": _calls("subspaces.enumerate_subspaces"),
    "subspaces.contains.calls": _calls("subspaces.contains"),
    "subspaces.subspaces_between.calls": _calls("subspaces.subspaces_between"),
    "subspaces.vector_mask.calls": _calls("subspaces.vector_mask"),
    "subspaces.vector_mask.s": _s("subspaces.vector_mask"),
    "graph.s": _layer("graph"),
    "graph.build_graph.s": _s("graph.build_graph"),
    "graph.star_catalog.calls": _calls("graph.star_catalog"),
    "graph.top_catalog.calls": _calls("graph.top_catalog"),
    "graph.all_maximal_cliques_bruteforce.s": _s("graph.all_maximal_cliques_bruteforce"),
    "graph.classify_maximal_cliques.s": _s("graph.classify_maximal_cliques"),
    "graph.verify_clique_lemmas.s": _s("graph.verify_clique_lemmas"),
    "graph.dual_map_check.s": _s("graph.dual_map_check"),
    "coreness.s": _layer("coreness"),
    "coreness.core_test.s": _s("coreness.core_test"),
    "coreness.max_clique_bitset.s": _s("coreness.max_clique_bitset"),
    "coreness.max_clique_bitset.exhausted": (
        "count", "lower", lambda t: t.exhausted("coreness.max_clique_bitset")
    ),
    "coreness.alpha_exact.s": _s("coreness.alpha_exact"),
    "coreness.alpha_exact.total_s": (
        "s", "lower", lambda t: t.total_s("coreness.alpha_exact")
    ),
    "coreness.find_colouring.s": _s("coreness.find_colouring"),
    "coreness.find_colouring.exhausted": (
        "count", "lower", lambda t: t.exhausted("coreness.find_colouring")
    ),
    "coreness.find_colouring.us_per_node": (
        "us", "lower", lambda t: t.us_per_node("coreness.find_colouring")
    ),
    "coreness.search.started": (
        "count", "lower", lambda t: sum(t.calls(k) for k in tracing.SEARCHES)
    ),
    "coreness.search.decided_frac": ("ratio", "higher", Traced.search_decided_frac),
    "coreness.classify_endomorphism.s": _s("coreness.classify_endomorphism"),
    "coreness.validate_endomorphism.s": _s("coreness.validate_endomorphism"),
    "qpoly.s": _layer("qpoly"),
    "qpoly.scan_core_threshold.s": _s("qpoly.scan_core_threshold"),
    "qpoly.h_report.s": _s("qpoly.h_report"),
    "qpoly.gaussian_binomial_poly.s": _s("qpoly.gaussian_binomial_poly"),
    "qpoly.omega_int.calls": _calls("qpoly.omega_int"),
    "arith.s": _layer("arith"),
    "arith.prime_power_base.calls": _calls("arith.prime_power_base"),
    "fixture.s": _layer("fixture"),
    "fixture.load_fixture.s": _s("fixture.load_fixture"),
    "fixture.verify_fixture_partition.s": _s("fixture.verify_fixture_partition"),
    "report.s": _layer("report"),
    "report.graph_to_json_dict.s": _s("report.graph_to_json_dict"),
    "report.graph_from_json_dict.s": _s("report.graph_from_json_dict"),
    "cli.s": _layer("cli"),
    "cli.stdout_bytes": ("bytes", "lower", lambda t: t.stdout_bytes),
    "trace.wall_s": ("s", "lower", lambda t: t.wall),
    "trace.unwrapped_s": ("s", "lower", lambda t: t.unwrapped),
    "trace.overhead_s": ("s", "lower", lambda t: t.rescaled_wall - t.untraced_wall),
    "trace.spans": ("count", "lower", lambda t: t.spans),
    "trace.passes": ("count", "higher", lambda t: t.passes),
}


def deterministic_counts(summary: dict) -> dict:
    return {k: (v[0], v[3], v[5]) for k, v in summary["trace"].items()}


def layer_table(traced: Traced, workload: str, seed: int) -> str:
    """Markdown tables: self time per layer, then per wrapped function."""
    wall, unwrapped = traced.wall, traced.unwrapped
    lines = [
        f"## {workload} (seed {seed}): traced pass {wall:.3f} s raw, rescaled "
        f"{traced.rescaled_wall:.3f} s vs untraced {traced.untraced_wall:.3f} s, "
        f"unwrapped {unwrapped:.3f} s",
        "",
        "| layer | self s | share of traced wall |",
        "|---|---:|---:|",
    ]
    for layer in tracing.LAYERS:
        s = traced.layer_s(layer)
        lines.append(f"| {layer} | {s:.3f} | {100 * s / wall:.1f}% |")
    lines.append(f"| (unwrapped) | {unwrapped:.3f} | {100 * unwrapped / wall:.1f}% |")
    lines += ["", "| function | kind | calls | self s | total s |", "|---|---|---:|---:|---:|"]
    rows = sorted(traced.stats.items(), key=lambda kv: (-kv[1][1], -kv[1][0], kv[0]))
    for key, v in rows:
        if not v[0]:
            continue
        kind = tracing.kind(key)
        times = "| | |" if kind == "count" else f"| {v[1]:.3f} | {v[2]:.3f} |"
        lines.append(f"| {key} | {kind} | {v[0]} {times}")
    return "\n".join(lines) + "\n"


# -- entry point --------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "grassmann_lab" / "cli.py").is_file():
        print(f"error: no grassmann_lab under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    steps = workloads.steps(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}"
    try:
        if args.trace:
            t0 = monotonic()
            run, untraced = run_untraced(steps, 0.0, tag)
            before_traced = monotonic() - t0
            passes, counts = [], []
            start = monotonic()
            for k in range(TRACED_PASSES):
                if k and (monotonic() - start) * (k + 1) / k > TRACE_DEADLINE_S - before_traced:
                    print(f"note: traced pass {k + 1} skipped to end within {TRACE_DEADLINE_S} s;"
                          " call counts not compared")
                    break
                summary, records = run_pass(steps, True, f"{tag}-traced{k}")
                run.check_pass(records)
                passes.append((summary, run.stdout_bytes[-1]))
                counts.append(deterministic_counts(summary))
                if counts[-1] != counts[0]:
                    run.fail("traced call counts differ between traced passes")
            traced = [Traced(s, nbytes, untraced[0]["wall_s"], len(passes)) for s, nbytes in passes]
            # Counts repeat exactly (checked above); times are medians.
            metrics = {
                name: fn(traced[0]) if unit in COUNT_UNITS else statistics.median(fn(t) for t in traced)
                for name, (unit, _, fn) in PER_LAYER.items()
            }
            units = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
        else:
            setup_raw_s, setup_s = setup_seconds()
            run, untraced = run_untraced(steps, args.seconds, tag)
            metrics = end_to_end(run, untraced, setup_s)
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(untraced)} untraced pass(es) of {len(steps)} commands"
          + (f", {len(traced)} traced" if args.trace else ""))
    walls = " ".join(f"{s['wall_s']:.3f}/{s['raw_s']:.3f}" for s in untraced)
    print(f"untraced pass seconds, rescaled/raw: {walls}")
    if not args.trace:
        print(f"import seconds, rescaled/raw: {setup_s:.4f}/{setup_raw_s:.4f}")
    print(f"checks: {run.attempted} commands attempted, {run.failed} failed")
    for f in run.failures:
        print(f"  FAIL {f}")
    if args.trace:
        table = layer_table(traced[0], args.workload, args.seed)
        (OUT / f"layers-{tag}.md").write_text(table)
        print(table)
    for name, value in metrics.items():
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"{name:40s} {shown} {units[name]}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
