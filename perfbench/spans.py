"""In-memory span tracer for the sharpbounds layers.

The tracer replaces every public function of the traced modules (and the two
row-selection methods of ``FeatureTable``) with a wrapper that records a
span: name, parent span, op id, start and end. Modules that import a
function by name (``engine`` binds ``fit_linear_bound``, ``cli`` binds
``load_or_build_table`` and ``read_graph6_file``, ``features`` binds
``to_graph6`` and the registries) hold their own reference, so every binding
of an original function in every ``sharpbounds`` module is patched, and all
of them are restored by :meth:`Tracer.uninstall`.

Spans are recorded only while an op is open (:meth:`Tracer.begin_op`), so
input generation and output checks never show up in a trace.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
from time import perf_counter

MODULES = ("graph6", "predicates", "invariants", "features", "fitting",
           "engine", "cli")
# A solver or predicate that calls another public function of its own module
# (``min_maximal_matching`` calls ``max_degree``, ``is_tree`` calls
# ``is_connected``) does so as part of its own work: no nested span.
LEAF_MODULES = ("invariants", "predicates")
METHODS = (("features", "FeatureTable", ("support", "select_rows")),)

# span fields
NAME, PARENT, OP, START, END, VALUE = range(6)


def _observe_fit(tracer, args, kwargs, result):
    points = args[0] if args else kwargs["points"]
    direction = args[1] if len(args) > 1 else kwargs["direction"]
    key = (direction, tuple(points))
    repeated = key in tracer.seen_fits
    tracer.seen_fits.add(key)
    return (len(points), repeated)


def _observe_pipeline(tracer, args, kwargs, result):
    return len(result)


OBSERVERS = {
    "fitting.fit_linear_bound": _observe_fit,
    "engine.run_pipeline": _observe_pipeline,
}


class Tracer:
    """Records spans around the sharpbounds public functions."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self.seen_fits: set = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- op scope ----------------------------------------------------------

    def begin_op(self, op_id) -> None:
        self.op = op_id
        self.seen_fits = set()
        self._stack.clear()

    def end_op(self) -> None:
        self.op = None
        self._stack.clear()

    # -- patching ----------------------------------------------------------

    def _wrap(self, name: str, fn, leaf_prefix: str | None):
        tracer = self
        spans = self.spans
        stack = self._stack
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            if tracer.op is None or (
                    leaf_prefix and stack
                    and spans[stack[-1]][NAME].startswith(leaf_prefix)):
                return fn(*args, **kwargs)
            span = [name, stack[-1] if stack else -1, tracer.op, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if observe is not None:
                span[VALUE] = observe(tracer, args, kwargs, result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every binding of every traced function."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for modname in MODULES:
            mod = importlib.import_module(f"sharpbounds.{modname}")
            leaf = f"{modname}." if modname in LEAF_MODULES else None
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                wrappers[id(obj)] = self._wrap(f"{modname}.{attr}", obj, leaf)
        for modname, mod in list(sys.modules.items()):
            if modname != "sharpbounds" and not modname.startswith("sharpbounds."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        for modname, clsname, methods in METHODS:
            cls = getattr(importlib.import_module(f"sharpbounds.{modname}"), clsname)
            for meth in methods:
                original = vars(cls)[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(f"{modname}.{meth}", original, None))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ------------------------------------------------------------

    def write(self, path, pass_of_op) -> None:
        """Write every span as gzipped TSV, times in microseconds."""
        with gzip.open(path, "wt") as fh:
            fh.write("id\tparent\tpass\top\tname\tstart_us\tend_us\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s[PARENT]}\t{pass_of_op[s[OP]]}\t{s[OP]}\t"
                         f"{s[NAME]}\t{s[START] * 1e6:.1f}\t{s[END] * 1e6:.1f}\n")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _registry_names():
    from sharpbounds.invariants import standard_invariants
    from sharpbounds.predicates import standard_predicates
    solvers = list(standard_invariants())
    predicates = sorted({fn.__name__ for fn in standard_predicates().values()})
    return solvers, predicates


# Counts that must repeat exactly for one seed (time metrics never do).
COUNT_METRICS = (
    "fitting.fit.calls", "fitting.points", "fitting.duplicate_ratio",
    "features.support.calls", "features.select_rows.calls",
    "features.cache_hit_ratio", "engine.survivor_ratio",
    "engine.solver_calls_per_record", "predicates.calls",
)


def count_metric_names() -> list[str]:
    solvers = _registry_names()[0]
    return list(COUNT_METRICS) + [f"invariants.{s}.calls" for s in solvers]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], ops: set) -> dict[str, float]:
    """Per-layer totals over the spans of the given ops.

    ``.s`` is inclusive span time, ``.self_s`` subtracts child spans.
    """
    solvers, predicate_fns = _registry_names()
    picked = [i for i, s in enumerate(spans) if s[OP] in ops]
    child = {i: 0.0 for i in picked}
    has_build_child: set[int] = set()
    for i in picked:
        s = spans[i]
        p = s[PARENT]
        if p >= 0:
            child[p] += s[END] - s[START]
            if s[NAME] == "features.build_table":
                has_build_child.add(p)

    incl: dict[str, float] = {}
    self_t: dict[str, float] = {}
    calls: dict[str, int] = {}
    points = repeated = listed = 0
    verify_solver_calls = 0
    verify_solver_s = top_engine_s = 0.0
    verify_roots = ("engine.find_counterexample", "engine.touch_count_on")
    solver_spans = {f"invariants.{s}" for s in solvers}
    for i in picked:
        s = spans[i]
        name, dur = s[NAME], s[END] - s[START]
        incl[name] = incl.get(name, 0.0) + dur
        self_t[name] = self_t.get(name, 0.0) + dur - child[i]
        calls[name] = calls.get(name, 0) + 1
        if name == "fitting.fit_linear_bound" and s[VALUE] is not None:
            points += s[VALUE][0]
            repeated += s[VALUE][1]
        elif name == "engine.run_pipeline" and s[VALUE] is not None:
            listed += s[VALUE]
        if name.startswith("engine.") and s[PARENT] >= 0 \
                and spans[s[PARENT]][NAME] == "cli.main":
            top_engine_s += dur
        if name in solver_spans or name.startswith("predicates."):
            p = s[PARENT]
            while p >= 0 and spans[p][NAME] not in verify_roots:
                p = spans[p][PARENT]
            if p >= 0:
                verify_solver_s += dur
                verify_solver_calls += name in solver_spans

    fits = calls.get("fitting.fit_linear_bound", 0)
    lobt = [i for i in picked if spans[i][NAME] == "features.load_or_build_table"]
    out = {
        "fitting.fit.s": incl.get("fitting.fit_linear_bound", 0.0),
        "fitting.fit.calls": fits,
        "fitting.points": points,
        "fitting.duplicate_ratio": _ratio(repeated, fits),
        "features.support.s": incl.get("features.support", 0.0),
        "features.support.calls": calls.get("features.support", 0),
        "features.select_rows.s": incl.get("features.select_rows", 0.0),
        "features.select_rows.calls": calls.get("features.select_rows", 0),
        "engine.generate.self_s": self_t.get("engine.generate", 0.0),
        "engine.generality_filter.s": incl.get("engine.generality_filter", 0.0),
        "engine.dalmatian_filter.s": incl.get("engine.dalmatian_filter", 0.0),
        "engine.sort.s": incl.get("engine.sort_conjectures", 0.0),
        "engine.render.s": incl.get("engine.render_conjecture", 0.0),
        "engine.export.s": incl.get("engine.write_export", 0.0),
        "engine.survivor_ratio": _ratio(listed, fits),
        "features.load_table.s": incl.get("features.load_table", 0.0),
        "features.cache_hit_ratio": _ratio(
            sum(1 for i in lobt if i not in has_build_child), len(lobt)),
        "features.save_table.s": incl.get("features.save_table", 0.0),
        "features.build_table.self_s": self_t.get("features.build_table", 0.0),
    }
    for solver in solvers:
        out[f"invariants.{solver}.s"] = incl.get(f"invariants.{solver}", 0.0)
        out[f"invariants.{solver}.calls"] = calls.get(f"invariants.{solver}", 0)
    out["predicates.s"] = sum(incl.get(f"predicates.{p}", 0.0) for p in predicate_fns)
    out["predicates.calls"] = sum(calls.get(f"predicates.{p}", 0) for p in predicate_fns)
    out["engine.find_counterexample.s"] = incl.get("engine.find_counterexample", 0.0)
    out["engine.touch_count_on.s"] = incl.get("engine.touch_count_on", 0.0)
    out["engine.solver_calls_per_record"] = _ratio(
        verify_solver_calls, calls.get("engine.find_counterexample", 0))
    out["graph6.read.s"] = incl.get("graph6.read_graph6_file", 0.0)
    out["cli.self_s"] = self_t.get("cli.main", 0.0)
    op_s = incl.get("cli.main", 0.0)
    out["trace.op_s"] = op_s
    # Shares of traced op time: the layer each workload is meant to load.
    out["share.engine"] = _ratio(top_engine_s, op_s)
    out["share.invariants"] = _ratio(
        sum(out[f"invariants.{s}.s"] for s in solvers), op_s)
    out["share.verify_solvers"] = _ratio(verify_solver_s, op_s)
    return out
