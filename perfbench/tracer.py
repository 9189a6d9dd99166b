"""Span tracer installed over hallinv from the outside.

Each traced function is replaced by a wrapper that, while the tracer is
enabled, times each call as a span inside its enclosing span and adds it
to per-name totals kept in memory.  A function
imported by name into several modules (``from .charvar import
beta_distribution``) has a binding in each of them; every binding across
the ``hallinv.*`` modules is rebound, and methods are patched on their
class, so no call site escapes.  Inner-loop helpers such as
``oracle._eval_word`` are deliberately not wrapped: a span per call would
cost more than the work it measures.

A target whose name no longer exists is reported as absent instead of
failing the run, so the benchmark keeps working when a later change
deletes or renames a function.

Limit: spans recorded inside forked ``--jobs`` workers stay in those
processes and are lost.  Only the launches, counted in the parent, are
visible (``charvar.pool.launches``).
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time


def _depth_key(args, kwargs):
    return "charvar.depth." + args[0].mode


def _cli_key(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    if argv is None:
        argv = sys.argv[1:]
    return "cli." + (argv[0] if argv else "none")


# span name, module, attribute (Class.method for methods), how to wrap:
# None - one span per call; a function - the span name comes from the
# call's arguments; "runner" - the call builds a search plan and the span
# covers each run of the returned plan.
TARGETS = (
    ("braids.fixture", "braids", "fixture", None),
    ("foxcalc.abelianization", "foxcalc", "abelianization", None),
    ("foxcalc.alexander_matrix", "foxcalc", "alexander_matrix", None),
    ("fields.sufficiently_large_field", "fields",
     "sufficiently_large_field", None),
    ("fields.log_tables", "fields", "log_tables", None),
    ("fields.primitive_root_of_unity", "fields", "primitive_root_of_unity",
     None),
    ("charvar.beta_distribution", "charvar", "beta_distribution", None),
    ("charvar.engine_build", "charvar", "DepthEngine.__init__", None),
    ("charvar.depth", "charvar", "DepthEngine.depth_of_exponents",
     _depth_key),
    ("charvar.rank.zech", "charvar", "_rank_codes", None),
    ("charvar.rank.intpoly", "charvar", "_rank_int_vectors", None),
    ("charvar.pool", "charvar", "_parallel_depth_tally", None),
    ("linalg.smith_normal_form", "linalg", "smith_normal_form", None),
    ("linalg.rank_over_field", "linalg", "rank_over_field", None),
    ("hall.delta_mpqs", "hall", "delta_mpqs", None),
    ("hall.construct_mpqs", "hall", "construct_mpqs", None),
    ("census.census", "census", "census", None),
    ("census.a_k_via_hall_recursion", "census", "a_k_via_hall_recursion",
     None),
    ("oracle.hom_count", "oracle", "hom_count", None),
    ("oracle.plan.blocks", "oracle", "_plan_blocks", "runner"),
    ("oracle.plan.attached", "oracle", "_plan_attached", "runner"),
    ("oracle.plan.dfs", "oracle", "_dfs_count", None),
    ("oracle.epi_by_moebius", "oracle", "_epi_by_moebius", None),
    ("oracle.moebius", "oracle", "FiniteGroupTable.moebius", None),
    ("oracle.aut_order", "oracle", "aut_order", None),
    ("oracle.cover_homology", "oracle", "cover_homology", None),
    ("tables.table1", "tables", "table1", None),
    ("tables.table2", "tables", "table2", None),
    ("cli", "cli", "main", _cli_key),
)

CLI_SUBCOMMANDS = ("abelianize", "beta", "census", "cover", "delta",
                   "oracle", "table1", "table2")


_UNIT = {"calls": "count", "busy": "s", "self": "s"}
_SUFFIX = {"calls": "calls", "busy": "busy_s", "self": "self_s"}
SETUP = "setup_s (all); request_p50_ms (queries)"
QUERIES = "request_p50_ms, request_p90_ms (queries)"
BETTI = "solve_s, chars_per_s (betti)"
ORACLE = "solve_s (oracle)"


def _fields(span, moves, fields=("calls", "busy")):
    return [(f"{span}.{_SUFFIX[f]}", _UNIT[f], span, f, moves)
            for f in fields]


# (metric, unit, span, field, the end-to-end metric and workload it should
# move).  field is calls, busy (time covered by the outermost span of that
# name) or self (span time minus child spans).
METRICS = tuple(
    _fields("braids.fixture", SETUP)
    + _fields("foxcalc.abelianization", "request_p50_ms, solve_s (queries)")
    + _fields("foxcalc.alexander_matrix", "request_p50_ms, solve_s (queries)")
    + _fields("fields.sufficiently_large_field", "request_p50_ms (queries)")
    + _fields("fields.log_tables", "request_p50_ms (queries)")
    + _fields("fields.primitive_root_of_unity", "request_p50_ms (queries)",
              ("busy",))
    + _fields("charvar.beta_distribution", BETTI)
    + _fields("charvar.engine_build", BETTI + "; solve_s (queries)")
    + [(f"charvar.depth.calls.{mode}", "count", f"charvar.depth.{mode}",
        "calls", BETTI) for mode in ("zech", "intpoly", "element")]
    + [(f"charvar.depth_build.self_s.{mode}", "s", f"charvar.depth.{mode}",
        "self", BETTI) for mode in ("zech", "intpoly")]
    + [(f"charvar.rank.busy_s.{mode}", "s", f"charvar.rank.{mode}", "busy",
        BETTI) for mode in ("zech", "intpoly")]
    + [("charvar.depth_per_orbit", "ratio", None, "derived", BETTI),
       ("charvar.pool.launches", "count", "charvar.pool", "calls",
        "solve_s (queries)")]
    + _fields("linalg.smith_normal_form", "solve_s (oracle, covers)")
    + _fields("linalg.rank_over_field", "solve_s (oracle, covers)")
    + _fields("hall.delta_mpqs", "solve_s (queries)")
    + _fields("hall.construct_mpqs", "setup_s (oracle)", ("busy",))
    + _fields("census.census", "solve_s (oracle, queries)")
    + _fields("census.a_k_via_hall_recursion", "solve_s (oracle, queries)")
    + _fields("oracle.hom_count", ORACLE, ("calls", "busy", "self"))
    + [(f"oracle.plan.{route}", "count", f"oracle.plan.{route}", "calls",
        ORACLE) for route in ("blocks", "attached", "dfs")]
    + _fields("oracle.epi_by_moebius", ORACLE, ("calls",))
    + _fields("oracle.moebius", ORACLE, ("busy",))
    + _fields("oracle.aut_order", ORACLE, ("busy",))
    + _fields("oracle.cover_homology", ORACLE)
    + _fields("tables.table1", QUERIES, ("busy",))
    + _fields("tables.table2", QUERIES, ("busy",))
    + [m for sub in CLI_SUBCOMMANDS for m in _fields(f"cli.{sub}", QUERIES)])


def _span_target(span):
    """The TARGETS entry a span name comes from."""
    for target in TARGETS:
        if span == target[0] or span.startswith(target[0] + "."):
            return target
    raise KeyError(span)


class Tracer:
    """Spans kept in memory as per-name totals: calls, busy time (time
    covered by the outermost span of that name, so recursion is not
    counted twice) and self time (span time not covered by child spans)."""

    def __init__(self):
        self.enabled = False
        self.stats = {}
        self.orbits = 0
        self.absent = []
        self._stack = []
        self._active = {}

    def install(self):
        """Wrap every target in the loaded hallinv package."""
        import hallinv
        modules = {info.name: importlib.import_module(f"hallinv.{info.name}")
                   for info in pkgutil.iter_modules(hallinv.__path__)}
        for name, module_name, attr, how in TARGETS:
            module = modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = module if not owner_name else \
                getattr(module, owner_name, None)
            original = None
            if owner is not None:
                original = (vars(owner).get(method) if owner_name
                            else getattr(owner, method, None))
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(name, original, how)
            if owner_name:
                setattr(owner, method, wrapper)
                continue
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        return self

    def _wrap(self, name, fn, how):
        tracer = self

        if how == "runner":
            @functools.wraps(fn)
            def build_plan(*args, **kwargs):
                plan = fn(*args, **kwargs)
                if plan is None or not tracer.enabled:
                    return plan
                return tracer._wrap(name, plan, None)
            return build_plan

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = name if how is None else how(args, kwargs)
            tracer._enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if span == "charvar.beta_distribution":
                tracer.orbits += (result.p ** result.n_p - 1) // (result.p - 1)
            return result
        return wrapper

    def _enter(self, span):
        self._active[span] = self._active.get(span, 0) + 1
        self._stack.append([span, time.perf_counter(), 0.0])

    def _exit(self):
        span, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        if self._stack:
            self._stack[-1][2] += duration
        stats = self.stats.setdefault(span, [0, 0.0, 0.0])
        stats[0] += 1
        stats[2] += duration - child
        self._active[span] -= 1
        if not self._active[span]:
            stats[1] += duration

    def metrics(self):
        """{metric: value} for every per-layer metric, and the metrics
        whose function is absent from the program."""
        absent_targets = set(self.absent)
        out = {}
        absent = []
        for metric, _unit, span, field, _moves in METRICS:
            if field == "derived":
                depth_calls = sum(v[0] for k, v in self.stats.items()
                                  if k.startswith("charvar.depth."))
                out[metric] = depth_calls / self.orbits if self.orbits else 0.0
                continue
            _, module_name, attr, _ = _span_target(span)
            if f"{module_name}.{attr}" in absent_targets:
                absent.append(metric)
            calls, busy, own = self.stats.get(span, (0, 0.0, 0.0))
            out[metric] = {"calls": calls, "busy": busy, "self": own}[field]
        return out, absent
