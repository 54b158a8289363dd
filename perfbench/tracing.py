"""Per-layer tracing of grassmann_lab from outside the package.

A Tracer replaces every public function of each grassmann_lab module, in
every module namespace that binds it, by a wrapper, and puts counting
wrappers on the FieldSpec arithmetic methods.  remove() puts the original
objects back, so module dicts compare equal by identity afterwards.

Wrappers come in three kinds, chosen per function:

* span: records (name, start, end, parent span, command id) and adds its
  duration minus the time its child wrappers cover to the function's
  self time;
* timed: the same self-time accounting, but no span record; for helpers
  called ~1e4-1e6 times per pass, whose spans would cost memory;
* count: a call count only; the time stays in the caller's self time.
  Used for the hottest helpers (field arithmetic runs ~2e7 times per
  verify pass), where even a timer would dominate.

A layer is a module; its self time is the sum over its functions.  The
self times of all layers plus the unwrapped time of a pass (time spent in
no wrapper) equal the pass's traced wall time, less the time of the
speed probe (speed.py), which exclude() keeps out of every self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

PACKAGE = "grassmann_lab"
LAYERS = (
    "field",
    "linalg",
    "subspaces",
    "graph",
    "coreness",
    "qpoly",
    "arith",
    "fixture",
    "report",
    "cli",
)

# Helpers called more than ~1e4 times in some pass: no span record.
COUNT_ONLY = frozenset(
    {
        "arith.is_prime",
        "linalg.matrix",
        "linalg.mat_vec",
        "linalg.rank",
        "linalg.reduce_vector",
        "linalg.stack",
        "linalg.stack_rank",
        "linalg.transpose",
        "qpoly.gaussian_binomial_int",
        "qpoly.omega_int",
        "qpoly.x_power_minus_one",
        "report.digit",
        "subspaces.contains",
    }
)
TIMED_ONLY = frozenset(
    {
        "arith.prime_power_base",
        "linalg.left_kernel",
        "linalg.null_space",
        "linalg.rref",
        "qpoly.omega_poly",
        "report.matrix_digits",
        "subspaces.canonicalize",
        "subspaces.dual_complement",
        "subspaces.intersect",
        "subspaces.join",
        "subspaces.sort_key",
        "subspaces.vector_mask",
    }
)
FIELD_METHODS = ("add", "neg", "sub", "mul", "inv", "pow")
# Budgeted searches: a SearchBudgetExceeded out of one of these means the
# search used exactly its node_budget argument.
SEARCHES = frozenset({"coreness.max_clique_bitset", "coreness.find_colouring"})


def kind(key: str) -> str:
    """How the function named "layer.name" is wrapped: count, timed or span."""
    layer, _, name = key.partition(".")
    if key in COUNT_ONLY or (layer == "field" and name in FIELD_METHODS):
        return "count"
    return "timed" if key in TIMED_ONLY else "span"


def _is_wrappable(obj, module_name: str) -> bool:
    if getattr(obj, "__module__", None) != module_name:
        return False
    if inspect.isfunction(obj):
        return not inspect.isgeneratorfunction(obj)
    return hasattr(obj, "cache_info")  # functools.lru_cache wrapper


class Stat:
    """Aggregate of one wrapped function over a traced pass."""

    __slots__ = ("calls", "self_s", "total_s", "depth", "exhausted", "exhausted_s", "budget_nodes")

    def __init__(self):
        self.calls = 0
        self.depth = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.exhausted = 0
        self.exhausted_s = 0.0
        self.budget_nodes = 0


class Tracer:
    """Installs wrappers into an imported grassmann_lab; see module doc."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list = []
        self.names: list[str] = []
        self.command = -1
        self.root = [0.0]  # time inside outermost wrapped calls
        self.excluded_s = 0.0
        self._stack_child: list[float] = []  # child time per open timed call
        self._stack_span: list[int] = []  # span index per open span
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def _modules(self):
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        wrappers: dict[int, object] = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for name, obj in vars(mod).items():
                if name.startswith("_") or not _is_wrappable(obj, mod.__name__):
                    continue
                wrappers[id(obj)] = self._wrap(obj, f"{layer}.{name}")
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, w)
        spec_cls = sys.modules[PACKAGE + ".field"].FieldSpec
        for meth in FIELD_METHODS:
            orig = spec_cls.__dict__.get(meth)
            if orig is None:
                continue
            self._saved.append((spec_cls, meth, orig))
            setattr(spec_cls, meth, self._count(orig, f"field.{meth}"))

    def exclude(self, seconds: float) -> None:
        """Keep time the benchmark spent inside a wrapped call (the speed
        probe) out of that call's self time."""
        if self._stack_child:
            self._stack_child[-1] += seconds
            self.excluded_s += seconds

    def remove(self) -> None:
        for owner, name, obj in reversed(self._saved):
            setattr(owner, name, obj)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- wrappers -------------------------------------------------------

    def _stat(self, key: str) -> Stat:
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = Stat()
        return st

    def _wrap(self, fn, key: str):
        k = kind(key)
        return self._count(fn, key) if k == "count" else self._timed(fn, key, record=k == "span")

    def _count(self, fn, key: str):
        st = self._stat(key)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            st.calls += 1
            return fn(*args, **kwargs)

        return counted

    def _timed(self, fn, key: str, record: bool):
        st = self._stat(key)
        child = self._stack_child
        span_stack = self._stack_span
        spans = self.spans
        name_id = len(self.names)
        self.names.append(key)
        budget_of = None
        if key in SEARCHES:
            sig = inspect.signature(fn)

            def budget_of(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                return bound.arguments["node_budget"]

        tracer = self
        root = self.root

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if record:
                parent = span_stack[-1] if span_stack else -1
                idx = len(spans)
                spans.append(None)
                span_stack.append(idx)
            child.append(0.0)
            st.depth += 1
            raised = None
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                raised = exc
                raise
            finally:
                t1 = perf_counter()
                d = t1 - t0
                own = d - child.pop()
                if child:
                    child[-1] += d
                else:
                    root[0] += d
                st.depth -= 1
                st.calls += 1
                st.self_s += own
                if not st.depth:  # outermost call of a recursion
                    st.total_s += d
                if record:
                    span_stack.pop()
                    spans[idx] = (name_id, t0, t1, parent, tracer.command)
                if budget_of is not None and type(raised).__name__ == "SearchBudgetExceeded":
                    st.exhausted += 1
                    st.exhausted_s += own
                    st.budget_nodes += budget_of(args, kwargs)

        return timed
