"""Tests of the benchmark's own code.

    python3 perfbench/selftest.py

It imports grassmann_lab from the checkout's src/, wherever it is run.  The
file name keeps pytest's default collection from picking it up with the
program's tests.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import grassmann_lab  # noqa: E402,F401
import grassmann_lab.cli as cli  # noqa: E402
from grassmann_lab.field import FieldSpec  # noqa: E402


def cli_record(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()}


def snapshot() -> dict:
    mods = {
        name: {k: id(v) for k, v in vars(mod).items()}
        for name, mod in sys.modules.items()
        if name == "grassmann_lab" or name.startswith("grassmann_lab.")
    }
    mods["FieldSpec"] = {k: id(v) for k, v in vars(FieldSpec).items()}
    return mods


class TracerInstallTest(unittest.TestCase):
    def test_install_and_remove_restore_module_state(self):
        before, limit = snapshot(), sys.getrecursionlimit()
        tracer = tracing.Tracer()
        with tracer:
            self.assertNotEqual(snapshot(), before)
            cli_record(["coreness", "--q", "2", "--n", "4", "--m", "2"])
        self.assertEqual(snapshot(), before)
        self.assertEqual(sys.getrecursionlimit(), limit)
        self.assertGreater(tracer.stats["coreness.find_colouring"].calls, 0)

    def test_wrappers_reach_every_binding(self):
        import grassmann_lab.coreness as coreness
        import grassmann_lab.graph as graph

        with tracing.Tracer():
            # coreness and cli bind build_graph themselves; graph calls
            # star_catalog through its own globals.
            self.assertIs(coreness.build_graph, graph.build_graph)
            self.assertIs(cli.build_graph, graph.build_graph)
            self.assertTrue(hasattr(graph.star_catalog, "__wrapped__"))
            self.assertTrue(hasattr(FieldSpec.mul, "__wrapped__"))

    def test_self_times_sum_to_wrapped_time(self):
        tracer = tracing.Tracer()
        with tracer:
            cli_record(["verify", "--q", "2", "--n", "4", "--m", "2"])
        self_total = sum(st.self_s for st in tracer.stats.values())
        self.assertAlmostEqual(self_total, tracer.root[0], delta=1e-6)
        self.assertTrue(all(span is not None for span in tracer.spans))
        names = {tracer.names[s[0]] for s in tracer.spans}
        self.assertIn("graph.verify_clique_lemmas", names)
        self.assertGreater(tracer.stats["subspaces.contains"].calls, 0)
        self.assertNotIn("subspaces.contains", tracer.names)  # counted, never a span

    def test_probe_time_stays_out_of_self_times(self):
        import speed

        tracer = tracing.Tracer()
        probe = speed.Probe(on_sample=tracer.exclude)
        with tracer, probe:
            cli_record(["coreness", "--q", "3", "--n", "4", "--m", "2"])
        self.assertGreater(tracer.excluded_s, 0.0)
        self_total = sum(st.self_s for st in tracer.stats.values())
        self.assertAlmostEqual(self_total, tracer.root[0] - tracer.excluded_s, delta=1e-6)

    def test_budget_exhaustion_is_counted(self):
        from grassmann_lab.config import SearchBudgetExceeded

        tracer = tracing.Tracer()
        with tracer:
            import grassmann_lab.coreness as coreness
            from grassmann_lab.field import make_field
            from grassmann_lab.graph import build_graph

            G = build_graph(make_field(2, 1), 4, 2)
            with self.assertRaises(SearchBudgetExceeded):
                coreness.find_colouring(G.adjacency, G.num_vertices, 6, node_budget=5)
        st = tracer.stats["coreness.find_colouring"]
        self.assertEqual((st.exhausted, st.budget_nodes), (1, 5))


class CheckerTest(unittest.TestCase):
    def test_wrong_vertex_count_is_rejected(self):
        argv = ["build", "--q", "2", "--n", "4", "--m", "2"]
        rec = cli_record(argv)
        self.assertTrue(checks.check(argv, rec).ok)
        bad = dict(rec, out=rec["out"].replace("35 vertices", "36 vertices", 1))
        self.assertFalse(checks.check(argv, bad).ok)

    def test_wrong_vertex_count_in_json_is_rejected(self):
        argv = ["build", "--q", "2", "--n", "4", "--m", "2", "--format", "json"]
        rec = cli_record(argv)
        G = checks.independent_adjacency(2, 2, [v["matrix"] for v in json.loads(rec["out"])["vertices"]])
        rec["reload_adjacency"] = checks.adjacency_digest(G, len(G))
        self.assertTrue(checks.check(argv, rec).ok)
        data = json.loads(rec["out"])
        data["params"]["vertices"] += 1
        self.assertFalse(checks.check(argv, dict(rec, out=json.dumps(data))).ok)
        data = json.loads(rec["out"])
        data["edges"][0][1] = data["edges"][1][1]
        self.assertFalse(checks.check(argv, dict(rec, out=json.dumps(data))).ok)

    def test_witness_with_broken_edge_is_rejected(self):
        argv = ["coreness", "--q", "2", "--n", "4", "--m", "2"]
        rec = cli_record(argv)
        res = checks.check(argv, rec, run.program_adjacency)
        self.assertTrue(res.ok and res.decided, res.reason)
        data = json.loads(rec["out"])
        mapping = data["coreness"]["witness"]["map"]
        adj = run.program_adjacency(2, 4, 2)
        j = (adj[0] & -adj[0]).bit_length() - 1  # a neighbour of vertex 0
        mapping[j] = mapping[0]
        res = checks.check(argv, dict(rec, out=json.dumps(data)), run.program_adjacency)
        self.assertFalse(res.ok)
        self.assertIn("edge (0, ", res.reason)

    def test_core_verdict_on_not_core_instance_is_rejected(self):
        argv = ["coreness", "--q", "2", "--n", "4", "--m", "2"]
        data = json.loads(cli_record(argv)["out"])
        data["coreness"]["verdict"] = "core"
        rec = {"rc": 0, "out": json.dumps(data)}
        self.assertFalse(checks.check(argv, rec, run.program_adjacency).ok)

    def test_undetermined_is_allowed_but_undecided(self):
        argv = ["coreness", "--q", "2", "--n", "7", "--m", "3"]
        res = checks.check(argv, cli_record(argv))
        self.assertTrue(res.ok, res.reason)
        self.assertFalse(res.decided)

    def test_flipped_is_integer_is_rejected(self):
        argv = ["qbinom", "--n", "8", "--m", "3", "--at", "7", "--q-max", "64"]
        rec = cli_record(argv)
        self.assertTrue(checks.check(argv, rec).ok)
        for k in (5, -1):
            data = json.loads(rec["out"])
            entry = data["qbinom"]["scan"]["entries"][k]
            entry["is_integer"] = not entry["is_integer"]
            self.assertFalse(checks.check(argv, dict(rec, out=json.dumps(data))).ok)
        argv = ["coreness", "--q", "2", "--n", "5", "--m", "2"]
        data = json.loads(cli_record(argv)["out"])
        data["coreness"]["integrality"]["is_integer"] = True
        self.assertFalse(checks.check(argv, {"rc": 0, "out": json.dumps(data)}).ok)

    def test_nonzero_exit_is_rejected(self):
        argv = ["verify", "--q", "2", "--n", "4", "--m", "2"]
        rec = dict(cli_record(argv), rc=1)
        self.assertFalse(checks.check(argv, rec).ok)

    def test_failed_coreness_command_is_undecided(self):
        argv = ["coreness", "--q", "2", "--n", "4", "--m", "2"]
        rec = cli_record(argv)
        data = json.loads(rec["out"])
        data["coreness"]["verdict"] = "core"  # forbidden on J_2(4,2)
        for bad in (dict(rec, rc=1), dict(rec, out=json.dumps(data)), dict(rec, out="")):
            res = checks.check(argv, bad, run.program_adjacency)
            self.assertFalse(res.ok)
            self.assertFalse(res.decided, res.reason)


class WorkloadTest(unittest.TestCase):
    def test_same_seed_same_argv(self):
        for w in workloads.WORKLOADS:
            self.assertEqual(workloads.steps(w, 7), workloads.steps(w, 7))

    def test_seed_changes_order_not_instances(self):
        def instance(step):
            argv = list(step["argv"])
            if "--at" in argv:
                argv[argv.index("--at") + 1] = "?"
            return argv

        for w in workloads.WORKLOADS:
            a, b = workloads.steps(w, 1), workloads.steps(w, 2)
            self.assertEqual(sorted(map(instance, a)), sorted(map(instance, b)))
        self.assertNotEqual(workloads.steps("qpoly", 1), workloads.steps("qpoly", 2))
        self.assertNotEqual(workloads.steps("verify", 1), workloads.steps("verify", 2))
        self.assertEqual(len(workloads.steps("qpoly", 1)), 123)

    def test_prime_powers(self):
        self.assertEqual(workloads.prime_powers_upto(32), [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17,
                                                           19, 23, 25, 27, 29, 31, 32])


class BenchmarkFileTest(unittest.TestCase):
    def test_benchmark_json_matches_run(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"]: w["why"] for w in spec["workloads"]}, workloads.WHY)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            [(name, unit, better) for name, (unit, better, _) in run.PER_LAYER.items()],
        )


if __name__ == "__main__":
    unittest.main()
