"""Run one benchmark workload and print its result as one JSON line.

    python3 flowbench/run.py --workload flat-alloc --seed 1 --seconds 35 --trace 0

Run from the root of a checkout: the program is imported from
``src/``.  Set-up (imports, tracing and merging the kernels) is timed
once, cold, from the process's start.  Then whole passes of the
workload's flow repeat until ``--seconds`` have gone by; every pass's
outputs are checked outside its timed region.

``flow_s``, the time of one pass, is the sum over the pass's steps
(compile jobs, Table 2, sweeps) of each step's fastest time among the
run's passes.  Every step is deterministic work, and the shared host
only ever slows one down, in phases of a few seconds: the fastest
repeat of each step is the steadiest measure of what the program
costs, where a whole pass's time tracks how much of it fell into a
slow phase.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones, plus the tracing overhead; its spans are written to
``flowbench/out/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

_WALL0 = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: the one operation known to fail, per workload: the ARF x wide8 cell
#: gets 16 vector reads in one cycle against a port limit of 8, because
#: the scheduling model never posts the EITConfig port limits
KNOWN_FAILURES = {"dse-session": {"arf/wide8"}}


def seconds_since_process_start() -> float:
    """Wall time since this process began, interpreter start-up included."""
    try:
        with open("/proc/self/stat") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        boot = time.clock_gettime(time.CLOCK_BOOTTIME)
        return boot - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _WALL0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"flowbench: no program source at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    import workloads  # imports the program

    if args.workload not in workloads.WORKLOADS:
        print(f"flowbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work_dir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        return run(args, workloads, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run(args, workloads, work_dir: str) -> int:
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer().install()
    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    setup_s = seconds_since_process_start()
    setup_spans = []
    if tracer is not None:
        tracer.uninstall()
        setup_spans, tracer.spans = tracer.spans, []

    # passes: (seconds per step, traced, outcome, code cycles, counts, spans)
    passes = []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        # the previous pass's garbage is collected here, untimed, so that
        # every pass starts from the same heap and pays for its own
        # collections only: a full collection walks the whole heap, and
        # lands at the same points of every pass that starts alike
        gc.collect()
        if traced:
            tracer.install()
        raw = workload.run_pass()
        spans = []
        if traced:
            tracer.uninstall()
            spans, tracer.spans = tracer.spans, []
        outcome, cycles, counts = workload.check(raw)
        del raw  # the next pass must not run with this one's results live
        passes.append((workload.laps, traced, outcome, cycles, counts, spans))
        enough = len(passes) >= (2 if tracer is not None else 1)
        if enough and time.perf_counter() >= deadline:
            break
    rss_mb = peak_rss_mb()

    extra = workload.finish() if hasattr(workload, "finish") else {}
    attempted = failed = 0
    correct = True
    known = KNOWN_FAILURES.get(args.workload, set())
    reported = set()
    for n, (_, _, outcome, *_rest) in enumerate(passes, start=1):
        for op, problems in outcome:
            problems = problems + extra.get((n, op), [])
            attempted += 1
            if not problems:
                continue
            failed += 1
            op_kind = op.split("#")[0]
            correct = correct and op_kind in known
            if (op_kind, problems[0]) not in reported:  # one line per kind
                reported.add((op_kind, problems[0]))
                more = f" (+{len(problems) - 1} more)" if len(problems) > 1 else ""
                print(f"flowbench: pass {n}: {op} failed: {problems[0]}{more}",
                      file=sys.stderr)

    if tracer is None:
        metrics = end_to_end(passes, setup_s, rss_mb)
    else:
        metrics = per_layer(passes, setup_spans)
        tracer.spans = setup_spans + [s for p in passes for s in p[5]]
        tracer.write(
            os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed,
             "passes": len(passes)},
        )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def fastest_pass(passes) -> float:
    """Seconds of one pass: each step's fastest time, summed over steps."""
    return sum(min(p[0][step] for p in passes) for step in passes[0][0])


def end_to_end(passes, setup_s, rss_mb):
    cycles = statistics.median_low(p[3] for p in passes)
    return {
        "setup_s": _metric(setup_s, "s"),
        "flow_s": _metric(fastest_pass(passes), "s"),
        "code_cycles": _metric(cycles, "cycles"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }


TIME_METRICS = {
    f"{name}_ms": name for name in (
        "dsl.trace", "ir.merge", "ir.passes", "ir.fingerprint",
        "analysis.bounds", "analysis.audit", "sched.model_build",
        "sched.modulo_build", "sched.overlap", "cp.search", "cache.get",
        "cache.put", "parallel.solve_many", "codegen.generate",
        "sim.simulate", "sim.stream",
    )
}
COUNT_METRICS = (
    "sched.constraints_posted", "sched.modulo_candidates", "cp.nodes",
    "cp.failures", "cp.propagations", "cp.wakeups",
    *(f"cp.props.{c}" for c in (
        "GuardedEqImpliesEq", "Diff2", "ScaledDiv", "Neq", "CyclicDistance",
        "AllDifferent", "Cumulative", "XPlusCLeqY")),
    "cache.hits", "cache.misses", "cache.disk_hits", "cache.stores",
    "cache.bound_pruned", "parallel.degraded", "codegen.instructions",
)
#: counts a span wrapper reads, under the wrapped layer's span name
SPAN_COUNTS = {
    "sched.constraints_posted": "sched.model_build.constraints",
    "parallel.degraded": "parallel.solve_many.degraded",
    "parallel.worker_busy_ms": "parallel.solve_many.busy_ms",
    "parallel.idle_ms": "parallel.solve_many.idle_ms",
}


def per_layer(passes, setup_spans):
    import tracing

    rows = []
    for _, traced, _, _, counts, spans in passes:
        if not traced:
            continue
        times = tracing.self_times(spans)
        found = {**counts, **tracing.span_counts(spans)}
        row = {m: times.get(name, 0.0) for m, name in TIME_METRICS.items()}
        for metric in (*COUNT_METRICS, "parallel.worker_busy_ms",
                       "parallel.idle_ms"):
            row[metric] = found.get(SPAN_COUNTS.get(metric, metric), 0)
        solver_s = counts.get("cp.solver_time_ms", 0.0) / 1000.0
        row["cp.nodes_per_s"] = row["cp.nodes"] / solver_s if solver_s else 0.0
        lookups = row["cache.hits"] + row["cache.misses"]
        row["cache.hit_ratio"] = row["cache.hits"] / lookups if lookups else 0.0
        rows.append(row)
    out = {}
    for metric in rows[0]:
        value = statistics.median(r[metric] for r in rows)
        out[metric] = _metric(value, _unit(metric))
    setup = tracing.self_times(setup_spans)
    for name in ("dsl.trace", "ir.merge", "ir.passes"):
        out[f"setup.{name}_ms"] = _metric(setup.get(name, 0.0), "ms")
    plain = fastest_pass([p for p in passes if not p[1]])
    traced = fastest_pass([p for p in passes if p[1]])
    out["trace.overhead_pct"] = _metric(100.0 * (traced - plain) / plain, "%")
    return out


def _unit(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric == "cp.nodes_per_s":
        return "1/s"
    if metric == "cache.hit_ratio":
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
