"""Runtime calibration of symbolic cost certificates (CT708/CT709).

The static certifier (:mod:`repro.analysis.cost`) proves that each
kernel's loop nest matches the traffic model's polynomials.  This module
closes the loop at runtime: it runs every shipped kernel on a tiny
seeded tensor under an enabled :class:`~repro.obs.Tracer` and
cross-checks three independent witnesses **exactly** (Fraction
arithmetic, no tolerances):

* the measured ``kernel.*`` counters against the certificate's counter
  polynomials evaluated at the plan's real ``block_stats()``;
* ``predicted_footprint``'s B/C access counts against the certificate's
  derived gather-row polynomials;
* ``estimate_traffic``'s tensor-stream bytes against the summed
  canonical stream-byte polynomials.

Any inequality is CT708 (calibration drift: the model, the kernel, or
the counter emission moved and the others did not follow).  A kernel
that cannot be run or whose certificate cannot be evaluated on the
calibration plan (unbound symbol, missing counter) is CT709.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from repro.analysis.cost import (
    KERNEL_COST_SPECS,
    CostCertificate,
    KernelCostSpec,
    ModuleRegistry,
    certify_kernel,
)
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.symbolic import Poly, poly_sum

#: Per-kernel prepare() parameters for the calibration plans.  Rank 8
#: with 2 rank blocks gives exact 4-column strips; 2x2x2 grids exercise
#: the block loops without degenerating to one block.
CALIBRATION_PARAMS: dict[str, dict] = {
    "coo": {},
    "splatt": {},
    "csf": {},
    "csf-any": {"mode_order": (0, 1, 2)},
    "mb": {"block_counts": (2, 2, 2)},
    "rankb": {"n_rank_blocks": 2},
    "mb+rankb": {"block_counts": (2, 2, 2), "n_rank_blocks": 2},
    "csf-blocked": {"block_counts": (2, 2, 2), "n_rank_blocks": 2},
}

CALIBRATION_SHAPE = (12, 10, 8)
CALIBRATION_EVENTS = 400
CALIBRATION_RANK = 8
CALIBRATION_SEED = 20180521  # IPDPS'18 presentation date


def calibration_env(plan, rank: int) -> dict[str, int]:
    """Bind the certificate symbols to one concrete plan."""
    stats = plan.block_stats()
    return {
        "nnz": sum(b.nnz for b in stats),
        "n_fibers": sum(b.n_fibers for b in stats),
        "distinct_out": sum(b.distinct_out for b in stats),
        "R": rank,
        "n_strips": len(plan.strips(rank)),
        "itemsize": 8,  # float64 calibration factors
        "I_out": int(plan.shape[plan.mode]),
    }


def _eval(poly: Poly, env: Mapping[str, int]) -> Fraction:
    return poly.evaluate(env)


def _drift(
    file: str,
    line: int,
    kernel: str,
    what: str,
    measured: object,
    predicted: object,
) -> Diagnostic:
    return Diagnostic(
        "CT708",
        file,
        line,
        0,
        f"kernel {kernel!r} calibration drift in {what}: measured "
        f"{measured} != certificate {predicted}",
        hint="the kernel, the traffic model, and the counter emissions "
        "must agree exactly; re-derive whichever moved",
    )


def _unverifiable(
    file: str, line: int, kernel: str, detail: str
) -> Diagnostic:
    return Diagnostic(
        "CT709",
        file,
        line,
        0,
        f"kernel {kernel!r} certificate unverifiable at calibration: "
        f"{detail}",
        hint="the calibration run must bind every certificate symbol "
        "and produce every counter the certificate predicts",
    )


def calibrate_kernel(
    name: str,
    cert: "CostCertificate | None" = None,
    registry: "ModuleRegistry | None" = None,
) -> list[Diagnostic]:
    """Run one kernel on the calibration tensor and cross-check the
    measured counters, footprint prediction, and traffic estimate
    against its certificate."""
    import numpy as np

    from repro.kernels import get_kernel
    from repro.machine.spec import power8
    from repro.machine.traffic import estimate_traffic, predicted_footprint
    from repro.obs import Tracer, use_tracer
    from repro.tensor import poisson_tensor

    spec: KernelCostSpec = KERNEL_COST_SPECS[name]
    registry = registry or ModuleRegistry()
    if cert is None:
        cert, diags = certify_kernel(name, registry)
        if cert is None:
            return diags
    file = cert.file
    kernel = get_kernel(name)
    tensor = poisson_tensor(
        CALIBRATION_SHAPE, CALIBRATION_EVENTS, seed=CALIBRATION_SEED
    )
    rank = CALIBRATION_RANK
    try:
        plan = kernel.prepare(tensor, 0, **CALIBRATION_PARAMS[name])
        rng = np.random.default_rng(CALIBRATION_SEED + 1)
        factors = [rng.standard_normal((n, rank)) for n in tensor.shape]
        tracer = Tracer()
        with use_tracer(tracer):
            kernel.execute(plan, factors)
    except Exception as exc:  # noqa: BLE001 - reported as CT709
        return [
            _unverifiable(
                file, cert.exec_line, name, f"calibration run failed: {exc}"
            )
        ]
    env = calibration_env(plan, rank)
    diags: list[Diagnostic] = []

    # 1) measured obs counters vs certificate counter polynomials
    counter_polys = {
        "kernel.gathers": cert.gathers_counter(),
        "kernel.factor_bytes": cert.factor_bytes_counter(),
    }
    for counter, poly in counter_polys.items():
        if counter not in tracer.counters:
            diags.append(
                _unverifiable(
                    file,
                    cert.exec_line,
                    name,
                    f"counter {counter!r} was never emitted",
                )
            )
            continue
        measured = Fraction(tracer.counters[counter]).limit_denominator()
        try:
            predicted = _eval(poly, env)
        except KeyError as exc:
            diags.append(
                _unverifiable(
                    file,
                    cert.exec_line,
                    name,
                    f"counter {counter!r} polynomial has unbound symbol "
                    f"{exc.args[0]!r}",
                )
            )
            continue
        if measured != predicted:
            diags.append(
                _drift(
                    file,
                    cert.exec_line,
                    name,
                    counter,
                    measured,
                    predicted,
                )
            )

    # 2) predicted_footprint access counts vs derived gather rows
    fp = predicted_footprint(plan, rank)
    for role, measured_rows in (
        ("B", Fraction(fp.b_accesses)),
        ("C", Fraction(fp.c_accesses)),
    ):
        poly = cert.gather_rows.get(role)
        line = cert.gather_lines.get(role, cert.exec_line)
        if poly is None:
            diags.append(
                _unverifiable(
                    file,
                    line,
                    name,
                    f"certificate derived no {role} gathers to compare "
                    "against predicted_footprint",
                )
            )
            continue
        try:
            predicted = _eval(poly, env)
        except KeyError as exc:
            diags.append(
                _unverifiable(
                    file,
                    line,
                    name,
                    f"{role} gather polynomial has unbound symbol "
                    f"{exc.args[0]!r}",
                )
            )
            continue
        if measured_rows != predicted:
            diags.append(
                _drift(
                    file,
                    line,
                    name,
                    f"{role} gather rows",
                    measured_rows,
                    predicted,
                )
            )

    # 3) estimate_traffic stream bytes vs summed canonical stream polys
    est = estimate_traffic(plan, rank, power8(), itemsize=8)
    measured_bytes = Fraction(est.stream_read_bytes).limit_denominator()
    try:
        predicted_bytes = _eval(
            poly_sum(cert.stream_bytes.values()), env
        )
    except KeyError as exc:
        diags.append(
            _unverifiable(
                file,
                cert.exec_line,
                name,
                f"stream-byte polynomial has unbound symbol "
                f"{exc.args[0]!r}",
            )
        )
    else:
        if measured_bytes != predicted_bytes:
            diags.append(
                _drift(
                    file,
                    cert.exec_line,
                    name,
                    "tensor stream bytes",
                    measured_bytes,
                    predicted_bytes,
                )
            )
    return diags


def calibrate_all(
    certificates: "Mapping[str, CostCertificate] | None" = None,
) -> dict[str, list[Diagnostic]]:
    """Calibrate every shipped kernel; returns diagnostics keyed by
    file (merged into the runner's stream like any other pass)."""
    registry = ModuleRegistry()
    by_file: dict[str, list[Diagnostic]] = {}
    for name in KERNEL_COST_SPECS:
        cert = certificates.get(name) if certificates else None
        for d in calibrate_kernel(name, cert, registry):
            by_file.setdefault(d.file, []).append(d)
    return by_file
