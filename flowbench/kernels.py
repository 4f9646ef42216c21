"""Seeded kernel inputs and the benchmark's own output references.

Every kernel is traced from inputs drawn here from the run's seed, and
every value a simulated program produces is checked against references
computed in this file with NumPy alone: nothing here calls the
program's evaluator, semantics or ``reference()`` helpers.

* MATMUL: ``A @ A.T`` (the DSL's plain, unconjugated dot product).
* QRD: ``Q_ext^H Q_ext = I``, ``Q_ext R = H_ext`` and ``R`` upper
  triangular with a positive real diagonal.
* Back-substitution: the residual of ``R x = y``.
* ARF: the filter recomputed stage by stage from taps and coefficients.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

import numpy as np

import repro.apps.arf
import repro.apps.backsub
import repro.apps.matmul
import repro.apps.qrd

APPS = {
    "matmul": repro.apps.matmul,
    "qrd": repro.apps.qrd,
    "arf": repro.apps.arf,
    "backsub": repro.apps.backsub,
}

#: absolute/relative tolerance of every numeric comparison (float64
#: complex arithmetic on well-conditioned inputs stays near 1e-15)
TOL = 1e-9

Inputs = Dict[str, Any]


def _cplx(rng: np.random.Generator, shape) -> np.ndarray:
    return np.round(
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape), 3
    )


def draw_inputs(kernel: str, rng: np.random.Generator) -> Inputs:
    """One iteration's inputs, as keyword arguments of the kernel's builder."""
    if kernel == "matmul":
        return {"rows": _cplx(rng, (4, 4))}
    if kernel == "qrd":
        # a dominant diagonal keeps H well conditioned for every draw
        H = _cplx(rng, (4, 4)) + 2.5 * np.eye(4)
        return {"H": H, "sigma": float(np.round(rng.uniform(0.3, 0.8), 3))}
    if kernel == "arf":
        return {"samples": _cplx(rng, (8, 4)), "coeffs": _cplx(rng, (16, 4))}
    if kernel == "backsub":
        R = np.triu(_cplx(rng, (4, 4)), 1)
        R += np.diag(np.round(rng.uniform(1.0, 3.0, 4), 3))
        return {"R": R, "y": _cplx(rng, 4)}
    raise ValueError(f"unknown kernel {kernel!r}")


def build_kernel(kernel: str, **inputs: Any):
    """Trace ``kernel`` on ``inputs`` through its DSL builder.

    The builder is looked up on each call, so a traced run that wraps
    ``repro.apps.<kernel>.build`` sees every trace, including those
    :func:`repro.sched.explore.explore_detailed` makes.
    """
    return APPS[kernel].build(**inputs)


def input_values(kernel: str, graph, inputs: Inputs) -> Dict[int, Any]:
    """Input data-node id -> value, for ``modulo_program``'s iterations."""
    if kernel == "matmul":
        named = {f"A{i + 1}": row for i, row in enumerate(inputs["rows"])}
    elif kernel == "qrd":
        H, sigma = inputs["H"], inputs["sigma"]
        named = {f"h{k}_u": H[:, k] for k in range(4)}
        named.update({f"h{k}_l": sigma * np.eye(4)[k] for k in range(4)})
    elif kernel == "arf":
        named = {f"x{i}": v for i, v in enumerate(inputs["samples"])}
        named.update({f"c{i}": v for i, v in enumerate(inputs["coeffs"])})
    else:
        named = {f"R{i}": row for i, row in enumerate(inputs["R"])}
        named["y"] = inputs["y"]
    out = {}
    for d in graph.inputs():
        out[d.nid] = tuple(complex(x) for x in named[d.name])
    return out


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------
def _close(got, want) -> bool:
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    return got.shape == want.shape and bool(
        np.allclose(got, want, rtol=TOL, atol=TOL)
    )


def _by_nid(nodes):
    return sorted(nodes, key=lambda n: n.nid)


def _ops(graph, name: str):
    return _by_nid(o for o in graph.op_nodes() if o.op.name == name)


def check_outputs(
    kernel: str, graph, inputs: Inputs, value_of: Callable[[Any], Any]
) -> List[str]:
    """Problems with one execution's outputs; empty when all are right.

    ``value_of(data_node)`` returns the value the hardware produced for
    a data node (or None when it never produced one).
    """
    try:
        return _CHECKS[kernel](graph, inputs, value_of)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return [f"{kernel}: outputs not readable: {exc!r}"]


def _produced(value_of, d):
    v = value_of(d)
    if v is None:
        raise ValueError(f"{d.name} never produced")
    return np.asarray(v, dtype=complex)


def _check_matmul(graph, inputs, value_of) -> List[str]:
    A = np.asarray(inputs["rows"], dtype=complex)
    want = A @ A.T
    named = {d.name: d for d in graph.data_nodes()}
    out = []
    for i in range(4):
        got = _produced(value_of, named[f"res{i + 1}"])
        if not _close(got, want[i]):
            out.append(f"matmul: row {i} is {got}, A.A^T gives {want[i]}")
    return out


def _check_arf(graph, inputs, value_of) -> List[str]:
    x = np.asarray(inputs["samples"], dtype=complex)
    c = np.asarray(inputs["coeffs"], dtype=complex)
    s = [x[2 * i] * c[2 * i] + x[2 * i + 1] * c[2 * i + 1] for i in range(4)]
    a4 = s[0] * c[8] + s[1] * c[9]
    a5 = s[2] * c[10] + s[3] * c[11]
    a6 = a4 * c[12] + a4 * c[13]
    a7 = a5 * c[14] + a5 * c[15]
    want = [a6 + a7 + a4, a6 + a7 + a5, a7 + a4]
    outs = _by_nid(graph.outputs())
    if len(outs) != 3:
        return [f"arf: {len(outs)} outputs, expected 3"]
    out = []
    for i, (d, w) in enumerate(zip(outs, want)):
        got = _produced(value_of, d)
        if not _close(got, w):
            out.append(f"arf: output {i} is {got}, the filter gives {w}")
    return out


def _check_backsub(graph, inputs, value_of) -> List[str]:
    R = np.asarray(inputs["R"], dtype=complex)
    y = np.asarray(inputs["y"], dtype=complex)
    (xd,) = [d for d in graph.data_nodes() if d.name == "x"]
    x = _produced(value_of, xd)
    residual = np.abs(R @ x - y).max()
    scale = np.abs(R).max() * np.abs(x).max() + np.abs(y).max()
    if not residual <= TOL * scale:
        return [f"backsub: residual |Rx - y| = {residual:.3g}"]
    return []


def _check_qrd(graph, inputs, value_of) -> List[str]:
    """Rebuild Q_ext and R from the MGS dataflow and test their algebra.

    The recurrence fixes where each factor lives: per column k, one
    ``s_rsqrt`` gives 1/r_kk, the ``s_mul`` reading it gives r_kk, the
    two ``v_scale`` reading it give q_k's halves (upper first), and the
    ``s_add`` results feeding ``v_scale`` are the r_kj, k < j, in
    program order.
    """
    H = np.asarray(inputs["H"], dtype=complex)
    H_ext = np.vstack([H, inputs["sigma"] * np.eye(4)])
    Q = np.zeros((8, 4), dtype=complex)
    R = np.zeros((4, 4), dtype=complex)
    rsqrt = _ops(graph, "s_rsqrt")
    if len(rsqrt) != 4:
        return [f"qrd: {len(rsqrt)} s_rsqrt operations, expected 4"]
    for k, op in enumerate(rsqrt):
        readers = _by_nid(graph.succs(graph.result(op)))
        halves = [r for r in readers if r.op.name == "v_scale"]
        (diag,) = [r for r in readers if r.op.name == "s_mul"]
        R[k, k] = _produced(value_of, graph.result(diag))
        Q[:4, k] = _produced(value_of, graph.result(halves[0]))
        Q[4:, k] = _produced(value_of, graph.result(halves[1]))
    r_kj = [
        op for op in _ops(graph, "s_add")
        if any(c.op.name == "v_scale" for c in graph.succs(graph.result(op)))
    ]
    pairs = [(k, j) for k in range(4) for j in range(k + 1, 4)]
    if len(r_kj) != len(pairs):
        return [f"qrd: {len(r_kj)} off-diagonal factors, expected 6"]
    for (k, j), op in zip(pairs, r_kj):
        R[k, j] = _produced(value_of, graph.result(op))
    out = []
    if not _close(Q.conj().T @ Q, np.eye(4)):
        out.append("qrd: Q_ext^H Q_ext != I")
    if not _close(Q @ R, H_ext):
        out.append("qrd: Q_ext R != H_ext")
    d = np.diag(R)
    if not (np.all(np.abs(d.imag) <= TOL) and np.all(d.real > 0)):
        out.append(f"qrd: diagonal of R is not positive real: {d}")
    return out


_CHECKS = {
    "matmul": _check_matmul,
    "qrd": _check_qrd,
    "arf": _check_arf,
    "backsub": _check_backsub,
}
