"""Span recording around the calls into each layer's public functions.

A :class:`Tracer` replaces a function or method at the attribute the
program looks it up through (a module global, a package re-export or a
class attribute) with a wrapper that records one span per call: name,
start, end, parent span, and counts read from the call's result.  The
program's source is not touched; :meth:`Tracer.uninstall` puts every
original back.  Spans are kept in memory and written out at the end.

Pool workers are forked from a traced parent, so they run the same
wrappers.  The wrapper around ``repro.sched.parallel.run_request``
collects a worker's spans for one request and ships them back on the
request's ``SolveResult``; the wrapper around ``solve_many`` adopts
them under its own span, marked ``proc="worker"``.  Worker spans ran
alongside the parent, so they are not subtracted from its self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.analysis
import repro.analysis.bounds
import repro.apps.arf
import repro.apps.backsub
import repro.apps.matmul
import repro.apps.qrd
import repro.cache
import repro.codegen
import repro.codegen.modulo_code
import repro.cp.search
import repro.ir.passes
import repro.ir.transform
import repro.sched.baseline
import repro.sched.modulo
import repro.sched.overlap
import repro.sched.parallel
import repro.sched.scheduler
import repro.sim.simulator
import repro.sim.stream

# the package re-exports a function named ``explore`` over this module
sched_explore = importlib.import_module("repro.sched.explore")

#: attribute on a worker's SolveResult that carries its spans home
_SHIPPED = "flowbench_spans"


class Span:
    __slots__ = ("sid", "parent", "name", "t0", "t1", "attrs", "proc")

    def __init__(self, sid, parent, name, t0, t1, attrs=None, proc="main"):
        self.sid, self.parent, self.name = sid, parent, name
        self.t0, self.t1, self.attrs, self.proc = t0, t1, attrs or {}, proc

    def as_list(self) -> list:
        return [self.sid, self.parent, self.name, self.t0, self.t1,
                self.attrs, self.proc]


def _constraints_posted(args, kwargs, model) -> Dict[str, int]:
    return {"constraints": len(model.store.constraints)}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._next = 1
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------
    def _new_id(self) -> int:
        sid, self._next = self._next, self._next + 1
        return sid

    def call(self, name: str, fn: Callable, args, kwargs,
             attrs_of: Optional[Callable] = None):
        sid = self._new_id()
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        attrs = None
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if attrs_of is not None:
                attrs = attrs_of(args, kwargs, result)
            return result
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, parent, name, t0, t1, attrs))

    # -- installing ----------------------------------------------------
    def wrap(self, name: str, owner: Any, attr: str,
             attrs_of: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            return self.call(name, original, args, kwargs, attrs_of)

        self._install(owner, attr, original, traced)

    def _install(self, owner, attr, original, traced) -> None:
        # module and qualified name stay the original's, so a wrapped
        # function still pickles by reference onto the pool wire
        functools.update_wrapper(traced, original, updated=())
        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self) -> "Tracer":
        for name, owner, attr in _LAYER_CALLS:
            self.wrap(name, owner, attr)
        self.wrap("sched.model_build", repro.sched.scheduler, "ScheduleModel",
                  _constraints_posted)
        self.wrap("parallel.solve_many", repro.sched.parallel, "solve_many",
                  self._adopt_worker_spans)
        self._wrap_worker_entry()
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- the pool wire -------------------------------------------------
    def _wrap_worker_entry(self) -> None:
        owner, attr = repro.sched.parallel, "run_request"
        original = getattr(owner, attr)

        def traced(req):
            if os.getpid() == self.pid:
                return self.call("parallel.request", original, (req,), {})
            # a forked worker: this request's spans only, shipped home
            self.spans, self._stack = [], []
            res = self.call("parallel.request", original, (req,), {})
            setattr(res, _SHIPPED, [s.as_list() for s in self.spans])
            return res

        self._install(owner, attr, original, traced)

    def _adopt_worker_spans(self, args, kwargs, results) -> Dict[str, float]:
        requests = args[0] if args else kwargs["requests"]
        jobs = kwargs.get("jobs", args[1] if len(args) > 1 else 1)
        here = self._stack[-1]
        busy = degraded = 0.0
        for req in requests:
            res = results[req.req_id]
            busy += res.elapsed_ms
            degraded += bool(res.degraded)
            shipped = res.__dict__.pop(_SHIPPED, ())
            # a worker numbers on from the fork: renumber into this tracer
            ids = {span[0]: self._new_id() for span in shipped}
            for sid, parent, name, t0, t1, attrs, _ in shipped:
                self.spans.append(Span(
                    ids[sid], ids.get(parent, here), name, t0, t1, attrs,
                    proc="worker",
                ))
        return {
            "busy_ms": busy,
            "degraded": degraded,
            "workers": min(jobs, len(requests)) if jobs > 1 else 1,
        }

    # -- output --------------------------------------------------------
    def write(self, path: str, meta: Dict[str, Any]) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(
                {"meta": meta,
                 "fields": ["sid", "parent", "name", "t0", "t1", "attrs",
                            "proc"],
                 "spans": [s.as_list() for s in self.spans]},
                f,
            )


#: (span name, owner, attribute) of every plainly wrapped layer call
_LAYER_CALLS = [
    *(("dsl.trace", m, "build") for m in (
        repro.apps.matmul, repro.apps.qrd, repro.apps.arf, repro.apps.backsub)),
    ("ir.merge", repro.ir.transform, "merge_pipeline_ops"),
    ("ir.merge", sched_explore, "merge_pipeline_ops"),
    ("ir.passes", repro.ir.passes, "optimize_graph"),
    ("ir.fingerprint", repro.cache, "graph_fingerprint"),
    *(("analysis.bounds", repro.analysis.bounds, f) for f in (
        "makespan_lower_bound", "start_windows", "memory_precheck",
        "horizon_precheck", "min_live_vectors")),
    *(("analysis.audit", repro.analysis, f) for f in (
        "audit_schedule", "audit_bounds", "verify_certificate",
        "audit_modulo", "verify_pipeline")),
    ("sched.schedule", repro.sched.scheduler, "schedule"),
    ("sched.schedule", repro.sched.parallel, "schedule"),
    ("sched.modulo", repro.sched.modulo, "modulo_schedule"),
    ("sched.modulo", repro.sched.parallel, "modulo_schedule"),
    ("sched.modulo_build", repro.sched.modulo, "try_candidate"),
    ("sched.modulo_build", repro.sched.modulo, "ii_search_range"),
    ("sched.explore", sched_explore, "explore_detailed"),
    ("sched.overlap", repro.sched.overlap, "overlap_iterations"),
    ("sched.overlap", repro.sched.overlap, "overlap_blocks"),
    ("sched.overlap", repro.sched.baseline, "manual_instruction_sequence"),
    ("cp.search", repro.cp.search.Search, "minimize"),
    ("cp.search", repro.cp.search.Search, "solve"),
    ("cache.get", repro.cache.ScheduleCache, "get"),
    ("cache.put", repro.cache.ScheduleCache, "put"),
    ("codegen.generate", repro.codegen, "generate"),
    ("codegen.generate", repro.codegen.modulo_code, "modulo_program"),
    ("sim.simulate", repro.sim.simulator.Simulator, "run"),
    ("sim.stream", repro.sim.stream, "stream_modulo"),
    ("sim.stream", repro.sim.stream, "stream_overlap"),
]

#: span names whose self time is a per-layer metric (``<name>_ms``);
#: the others (``sched.schedule``, ``sched.explore``, ...) only give the
#: trace its shape
TIMED_LAYERS = (
    "dsl.trace", "ir.merge", "ir.passes", "ir.fingerprint",
    "analysis.bounds", "analysis.audit", "sched.model_build",
    "sched.modulo_build", "sched.overlap", "cp.search", "cache.get",
    "cache.put", "parallel.solve_many", "codegen.generate",
    "sim.simulate", "sim.stream",
)


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Milliseconds of self time per span name.

    A span's self time is its duration minus that of its children in the
    same process; spans nest within one thread, so children never overlap.
    """
    proc = {s.sid: s.proc for s in spans}
    covered: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None and proc.get(s.parent) == s.proc:
            covered[s.parent] += s.t1 - s.t0
    out: Dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += (s.t1 - s.t0 - covered[s.sid]) * 1000.0
    return out


def span_counts(spans: List[Span]) -> Dict[str, float]:
    """Counts the wrappers read from results, summed over ``spans``.

    ``parallel.solve_many.idle_ms`` is the pool's unused worker time:
    workers x the call's wall time - the time workers spent on requests.
    """
    out: Dict[str, float] = defaultdict(float)
    for s in spans:
        for k, v in s.attrs.items():
            out[f"{s.name}.{k}"] += v
        if s.name == "parallel.solve_many":
            wall_ms = (s.t1 - s.t0) * 1000.0
            out["parallel.solve_many.idle_ms"] += max(
                0.0, s.attrs["workers"] * wall_ms - s.attrs["busy_ms"]
            )
    return out
