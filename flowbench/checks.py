"""Bound and legality checks the benchmark derives itself.

Each function returns a list of problems (empty = the result passes).
They read only the result objects and the architecture description
(latency, lanes, port limits); none of them calls the program's own
auditor, bounds engine or simulator checks.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

from repro.arch.eit import ResourceKind

DECIDED_FLAT = ("optimal",)


def _status(x) -> str:
    return getattr(x, "value", x)


def critical_path(graph, cfg) -> int:
    """Longest latency-weighted operation chain: a floor on any makespan."""
    finish: Dict[int, int] = {}

    def done(op) -> int:
        if op.nid not in finish:
            ready = 0
            for d in graph.preds(op):
                p = graph.producer(d)
                if p is not None:
                    ready = max(ready, done(p))
            finish[op.nid] = ready + op.op.latency(cfg)
        return finish[op.nid]

    return max((done(op) for op in graph.op_nodes()), default=0)


def lane_floor(graph, cfg) -> int:
    """Per-class lane demand over lanes, summed: a floor on any II.

    Configuration exclusivity gives each cycle of the window to one
    vector-core class, so class ``c`` needs ``ceil(D_c / n_lanes)``
    cycles of its own.
    """
    demand: Dict[str, int] = defaultdict(int)
    for op in graph.op_nodes():
        if op.op.resource is ResourceKind.VECTOR_CORE:
            demand[op.config_class] += op.op.lanes(cfg)
    return sum(-(-d // cfg.n_lanes) for d in demand.values())


def check_flat_schedule(s) -> List[str]:
    """A decided flat solve whose starts respect latency and the floor."""
    out = []
    if _status(s.status) not in DECIDED_FLAT or s.fallback:
        out.append(f"flat solve not decided: {_status(s.status)}")
        return out
    if s.search_stats is not None and s.search_stats.timed_out:
        out.append("flat solve hit its budget")
    g, cfg = s.graph, s.cfg
    for op in g.op_nodes():
        for d in g.preds(op):
            p = g.producer(d)
            if p is None:
                continue
            ready = s.starts[p.nid] + p.op.latency(cfg)
            if s.starts[op.nid] < ready:
                out.append(
                    f"{op.name} starts at {s.starts[op.nid]}, "
                    f"before its operand is ready at {ready}"
                )
    cp = critical_path(g, cfg)
    if s.makespan < cp:
        out.append(f"makespan {s.makespan} < critical path {cp}")
    return out


def check_ports(program, cfg) -> List[str]:
    """Distinct vector-memory slots read and written per cycle."""
    reads: Dict[int, set] = defaultdict(set)
    writes: Dict[int, set] = defaultdict(set)
    for t, ins in program.instructions.items():
        for mo in ins.vector_ops:
            reads[t].update(r.index for r in mo.operands if r.space == "mem")
            writes[t + mo.latency].update(
                r.index for r in mo.dests if r.space == "mem"
            )
    out = []
    for kind, used, limit in (
        ("reads", reads, cfg.max_reads_per_cycle),
        ("writes", writes, cfg.max_writes_per_cycle),
    ):
        for t in sorted(used):
            if len(used[t]) > limit:
                out.append(
                    f"cycle {t}: {len(used[t])} vector {kind} > port limit {limit}"
                )
    return out


def check_modulo(m, graph, cfg) -> List[str]:
    """A decided II ladder whose window respects the lane floor."""
    out = []
    if _status(m.status) != "optimal" or m.fallback:
        out.append(f"modulo solve not decided: {_status(m.status)}")
        return out
    undecided = [w for w, st in m.tried[:-1] if st != "infeasible"]
    if undecided or m.tried[-1][0] != m.ii:
        out.append(f"II ladder not decided: tried {m.tried}")
    floor = lane_floor(graph, cfg)
    if m.ii < floor:
        out.append(f"II {m.ii} < lane floor {floor}")
    if m.actual_ii < m.ii:
        out.append(f"actual II {m.actual_ii} < window {m.ii}")
    return out


def check_cadence(stream, m) -> List[str]:
    """``stream_modulo``'s replay issues one iteration per ``actual_ii``."""
    out = list(stream.violations)
    gaps = set(stream.completion_gaps())
    if gaps != {m.actual_ii}:
        out.append(
            f"completion gaps {sorted(gaps)} != reported actual II {m.actual_ii}"
        )
    return out
