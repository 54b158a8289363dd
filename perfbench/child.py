"""One benchmark pass, run in a fresh interpreter by run.py.

Reads a JSON job from stdin: {"root", "steps", "trace", "out", "spans"}.
Each step is {"argv": [...], "reload": bool}.  The steps run back to
back, in this process, through grassmann_lab.cli.main(argv) with stdout
and stderr captured; a step with "reload" also rebuilds the graph from
its JSON dump with report.graph_from_json_dict.  Only those calls are
timed.  Each step's exit code and output go to the "out" file as one
JSON line, written between steps, so the parent can check them.  The
last line on stdout is the pass summary as JSON.

Each step is timed under a speed.Probe; the summary has both the raw
and the rescaled seconds of the pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))
from checks import adjacency_digest  # noqa: E402
from speed import Probe  # noqa: E402
from tracing import Tracer  # noqa: E402


def run_step(cli, report, step):
    """Run one step; returns (seconds, exit code, stdout, stderr, reloaded graph)."""
    out, err = io.StringIO(), io.StringIO()
    graph = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = cli.main(step["argv"])
            if step.get("reload") and rc == 0:
                graph = report.graph_from_json_dict(json.loads(out.getvalue()))
        except SystemExit as exc:  # argparse rejects bad flags this way
            rc = exc.code
        except Exception as exc:  # a traceback is a failed step, not a failed pass
            rc = f"uncaught {type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
    return dt, rc, out.getvalue(), err.getvalue(), graph


def main() -> int:
    job = json.load(sys.stdin)
    src = Path(job["root"]) / "src"
    sys.path.insert(0, str(src))
    import grassmann_lab.cli as cli
    import grassmann_lab.report as report

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"grassmann_lab imported from {cli.__file__}, not from {src}")

    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install()
    probe = Probe(on_sample=tracer.exclude if tracer is not None else None)
    raw_s, rescaled_s = [], []
    try:
        with open(job["out"], "w") as fh:
            for i, step in enumerate(job["steps"]):
                if tracer is not None:
                    tracer.command = i
                with probe:
                    dt, rc, out, err, graph = run_step(cli, report, step)
                raw, rescaled = probe.rescale(dt)
                raw_s.append(raw)
                rescaled_s.append(rescaled)
                rec = {"rc": rc, "out": out, "err": err}
                if graph is not None:
                    rec["reload_adjacency"] = adjacency_digest(graph.adjacency, graph.num_vertices)
                del graph
                fh.write(json.dumps(rec) + "\n")
    finally:
        if tracer is not None:
            tracer.remove()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    summary = {"raw_s": sum(raw_s), "wall_s": sum(rescaled_s), "peak_rss_mb": rss_kb / 1024.0}
    if tracer is not None:
        summary["trace"] = {
            name: [st.calls, st.self_s, st.total_s, st.exhausted, st.exhausted_s, st.budget_nodes]
            for name, st in sorted(tracer.stats.items())
        }
        summary["spans"] = len(tracer.spans)
        with open(job["spans"], "w") as fh:
            json.dump({"names": tracer.names, "spans": tracer.spans}, fh, separators=(",", ":"))
    sys.stdout.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
