"""Self-tests: every benchmark check passes on a real result and fails
on a corrupted one.

    python3 -m pytest flowbench/test_checks.py

Corruptions: one start moved a cycle earlier, two slots swapped, one
cached payload edited on disk, one iteration's input altered, plus a
lowered makespan, II and reported cadence, an unfounded infeasible
verdict and one wrong output value per kernel.
"""

import copy
import dataclasses
import glob
import json

import numpy as np
import pytest

from checks import (
    check_cadence,
    check_flat_schedule,
    check_modulo,
    check_ports,
    critical_path,
    lane_floor,
)
from kernels import build_kernel, check_outputs, draw_inputs
from workloads import BUDGET_MS, DseSession, ModuloStream

from repro.arch.eit import DEFAULT_CONFIG, EITConfig
from repro.codegen import generate
from repro.ir import merge_pipeline_ops
from repro.sched import modulo_schedule, schedule
from repro.sim import simulate, stream_modulo


def _inputs(kernel, seed=3):
    return draw_inputs(kernel, np.random.default_rng(seed))


@pytest.fixture(scope="module")
def qrd_run():
    x = _inputs("qrd")
    s = schedule(merge_pipeline_ops(build_kernel("qrd", **x)), timeout_ms=BUDGET_MS)
    prog = generate(s)
    return x, s, prog, simulate(prog)


def _flat_problems(x, s, prog, res):
    return (
        check_flat_schedule(s)
        + check_ports(prog, s.cfg)
        + check_outputs("qrd", s.graph, x, lambda d: res.computed.get(d.nid))
    )


def test_flat_checks_pass_on_a_real_solve(qrd_run):
    assert _flat_problems(*qrd_run) == []


def test_start_moved_a_cycle_earlier(qrd_run):
    x, s, _, _ = qrd_run
    g = s.graph
    # an operation that starts the cycle its operand becomes ready
    op = next(
        o for o in g.op_nodes()
        if any(
            (p := g.producer(d)) is not None
            and s.starts[o.nid] == s.starts[p.nid] + p.op.latency(s.cfg)
            for d in g.preds(o)
        )
    )
    bad = copy.copy(s)
    bad.starts = {**s.starts, op.nid: s.starts[op.nid] - 1}
    assert any("before its operand is ready" in p for p in check_flat_schedule(bad))
    # the early read sees a stale or empty slot: wrong values, or a
    # division by zero that the workload records as a failed operation
    try:
        res = simulate(generate(bad))
    except ArithmeticError:
        return
    assert check_outputs("qrd", g, x, lambda d: res.computed.get(d.nid))


def test_two_slots_swapped(qrd_run):
    x, s, prog, _ = qrd_run
    bad = copy.deepcopy(prog)
    ins, mo = next(
        (ins, mo) for _, ins in sorted(bad.instructions.items())
        for mo in ins.vector_ops if mo.op_name == "v_sub"
    )
    a, b = mo.operands
    assert a != b
    ins.vector_ops[ins.vector_ops.index(mo)] = dataclasses.replace(
        mo, operands=(b, a)
    )
    res = simulate(bad)
    assert check_outputs("qrd", s.graph, x, lambda d: res.computed.get(d.nid))


def test_makespan_below_the_critical_path(qrd_run):
    _, s, _, _ = qrd_run
    bad = copy.copy(s)
    bad.makespan = critical_path(s.graph, s.cfg) - 1
    assert any("critical path" in p for p in check_flat_schedule(bad))


def test_port_limits_catch_the_wide8_fault():
    """ARF on 8 lanes: the model never posts the read/write port limits."""
    g = merge_pipeline_ops(build_kernel("arf", **_inputs("arf")))
    ok = schedule(g, timeout_ms=BUDGET_MS)
    assert check_ports(generate(ok), ok.cfg) == []
    wide = schedule(g, cfg=EITConfig(n_lanes=8), timeout_ms=BUDGET_MS)
    problems = check_ports(generate(wide), wide.cfg)
    assert any("vector reads" in p for p in problems)
    assert any("vector writes" in p for p in problems)


@pytest.mark.parametrize("kernel", ["matmul", "qrd", "arf", "backsub"])
def test_reference_fails_on_one_wrong_output(kernel):
    x = _inputs(kernel)
    g = build_kernel(kernel, **x)
    traced = {d.nid: d.value for d in g.data_nodes()}
    assert check_outputs(kernel, g, x, lambda d: traced[d.nid]) == []
    victim = max(g.outputs(), key=lambda d: d.nid)
    wrong = np.asarray(traced[victim.nid], dtype=complex) + 1e-3
    traced[victim.nid] = tuple(wrong) if wrong.ndim else complex(wrong)
    assert check_outputs(kernel, g, x, lambda d: traced[d.nid])


@pytest.fixture(scope="module")
def backsub_modulo():
    g = merge_pipeline_ops(build_kernel("backsub", **_inputs("backsub")))
    return g, modulo_schedule(g, timeout_ms=BUDGET_MS)


def test_ii_below_the_lane_floor(backsub_modulo):
    g, m = backsub_modulo
    assert check_modulo(m, g, DEFAULT_CONFIG) == []
    arf = merge_pipeline_ops(build_kernel("arf", **_inputs("arf")))
    m_arf = modulo_schedule(arf, timeout_ms=BUDGET_MS)
    assert check_modulo(m_arf, arf, DEFAULT_CONFIG) == []
    bad = copy.copy(m_arf)
    bad.ii = lane_floor(arf, DEFAULT_CONFIG) - 1
    bad.tried = [*m_arf.tried[:-1], (bad.ii, "optimal")]
    assert any("lane floor" in p for p in check_modulo(bad, arf, DEFAULT_CONFIG))


def test_cadence_differs_from_the_reported_ii(backsub_modulo):
    g, m = backsub_modulo
    stream = stream_modulo(g, m, 8)
    assert check_cadence(stream, m) == []
    bad = copy.copy(m)
    bad.actual_ii = m.actual_ii + 1
    assert check_cadence(stream, bad)


def test_one_iteration_input_altered(tmp_path):
    class OneJob(ModuloStream):
        JOBS = (("backsub", False),)
        ITERATIONS = 6

    wl = OneJob(5, str(tmp_path))
    assert [p for _, p in wl.check(wl.run_pass())[0]] == [[]]
    values = wl.values["backsub"][3]
    nid = min(values)
    values[nid] = tuple(v + 1 for v in values[nid])
    (_, problems), = wl.check(wl.run_pass())[0]
    assert problems and all(p.startswith("iteration 3:") for p in problems)


def test_cached_payload_edited_on_disk(tmp_path):
    profiles = {"eit": DEFAULT_CONFIG, "tinymem": EITConfig(n_slots=3)}
    wl = DseSession(5, str(tmp_path), kernels=("backsub",), profiles=profiles)
    wl.RESWEEPS = 1
    outcome, cycles, counts = wl.check(wl.run_pass())
    assert all(p == [] for _, p in outcome) and len(outcome) == 4
    assert counts["cache.bound_pruned"] == 2 and wl.finish() == {}

    # edit the cold sweep's schedule payload, then re-sweep from disk
    cache_dir, sweeps = wl.run_pass()
    for path in glob.glob(f"{cache_dir}/*.json"):
        with open(path) as f:
            wrapped = json.load(f)
        if wrapped["payload"]["kind"] == "schedule":
            wrapped["payload"]["makespan"] -= 1
            with open(path, "w") as f:
                json.dump(wrapped, f)
    sweeps[1] = wl.sweep(wl.JOBS, wl_cache(cache_dir))
    outcome, _, _ = wl.check((cache_dir, sweeps))
    failed = {op for op, p in outcome if p}
    assert failed == {"backsub/eit#cold", "backsub/eit#warm1"}
    assert set(wl.finish()) == {(2, "backsub/eit#warm1")}


def wl_cache(cache_dir):
    from repro.cache import ScheduleCache

    return ScheduleCache(disk_dir=cache_dir)


def test_infeasible_verdict_needs_a_proof(tmp_path):
    profiles = {"eit": DEFAULT_CONFIG, "tinymem": EITConfig(n_slots=3)}
    wl = DseSession(5, str(tmp_path), kernels=("backsub",), profiles=profiles)
    g = wl.graphs["backsub"]
    assert wl._infeasible_problems(g, profiles["tinymem"]) == []
    assert wl._infeasible_problems(g, profiles["eit"])
