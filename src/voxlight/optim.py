"""Monotone first-order minimizer shared by the SG and VSG fitters.

Gradient descent with an RMS diagonal preconditioner, momentum, and an
accept/reject step-size schedule: a proposal is accepted only if it strictly
decreases the objective, so the accepted-step objective trace is
non-increasing by construction. Rejections shrink the step and fade the
momentum; if the step underflows, the moment state is rebuilt once from the
current gradient before the run is declared stuck. Everything is
deterministic. Independent problems run as the rows of one (B, n) iterate:
each row keeps its own step, moments, accept decision, restart counter,
trace, iteration count and stop reason, and gets its own ``FitReport``. A
row's result is bitwise the same alone or in any batch if the objective
computes each row independently of the others.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass
class FitReport:
    """Diagnostics returned by every fitter."""

    converged: bool
    iterations: int
    accepted_steps: int
    initial_objective: float
    final_objective: float
    objective_trace: list[float] = field(repr=False)
    message: str = ""
    stop_reason: str = ""  # "max_iters" or "stalled"


@dataclass
class MinimizeResult:
    x: np.ndarray
    objective: float
    gradient: np.ndarray
    report: FitReport


# step growth on acceptance and shrinkage on rejection, momentum, squared-gradient
# decay, the RMS floor, and the step below which a row restarts (or then stalls)
_GROW, _SHRINK, _MOMENTUM, _RMS_DECAY, _RMS_EPS, _MIN_STEP = 1.15, 0.5, 0.9, 0.9, 1e-8, 1e-16


def minimize_monotone(fun: Callable, x0: np.ndarray, max_iters: int = 2000, step: float = 0.1):
    """Minimize ``fun`` from each row of ``x0`` (B, n): ``fun`` maps (B, n) to
    (B,) values and (B, n) gradients, and a list of one ``MinimizeResult``
    per row is returned. A 1-D ``x0`` is a batch of one whose ``fun`` maps
    (n,) to ``(value, gradient)``; its one result is returned. Each iteration
    proposes ``x - step * m / (sqrt(v) + eps)`` per row, with ``m`` the
    momentum-blended gradient and ``v`` an exponential moving average of
    squared gradients, both updated on accepted steps only. ``step`` grows
    after acceptance and shrinks after rejection. Stopped rows are still
    passed to ``fun`` but no longer change.
    """
    x = np.array(x0, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x, scalar_fun = x[None], fun

        def fun(xs):
            value, grad = scalar_fun(xs[0])
            return np.array([value], dtype=np.float64), grad[None]
    batch = x.shape[0]
    value, grad = fun(x)
    bad = np.flatnonzero(~np.isfinite(value))
    if bad.size:
        raise ValueError(f"objective is not finite at the initial point (row {bad[0]})")
    steps, first_moment = np.full((batch, 1), step), np.zeros_like(grad)
    second_moment = grad * grad
    traces = [[v] for v in value.tolist()]   # accepted values per row
    restarted_at = [-1] * batch    # trace length at a row's warm restart
    iterations, stop_reasons = [max_iters] * batch, ["max_iters"] * batch
    active, n_active = np.ones(batch, dtype=bool), batch
    for it in range(1, max_iters + 1):
        # Momentum damps coordinates whose gradient alternates sign near
        # their optimum, so persistent directions keep marching while the
        # accept test stays satisfiable at a growing step size.
        blend = _MOMENTUM * first_moment + (1.0 - _MOMENTUM) * grad
        direction = blend / (np.sqrt(second_moment) + _RMS_EPS)
        candidate = x - steps * direction
        cand_value, cand_grad = fun(candidate)
        ok = np.isfinite(cand_value) & (cand_value < value)
        if n_active < batch:
            ok &= active
        n_ok = np.count_nonzero(ok)
        # Whole arrays when every row accepts or every row rejects (always at
        # B = 1), row masks for mixed batches; arrays are replaced, not written
        # in place, but on a restart. Stopped rows' steps and moments go unread.
        if n_ok == batch:
            x, value, grad, first_moment = candidate, cand_value, cand_grad, blend
            second_moment = _RMS_DECAY * second_moment + (1.0 - _RMS_DECAY) * grad * grad
            steps = steps * _GROW
        elif n_ok == 0:
            first_moment, steps = 0.5 * first_moment, steps * _SHRINK  # fade stale momentum
        else:
            okc = ok[:, None]
            x, grad = np.where(okc, candidate, x), np.where(okc, cand_grad, grad)
            value = np.where(ok, cand_value, value)
            first_moment = np.where(okc, blend, 0.5 * first_moment)
            second_moment = np.where(
                okc, _RMS_DECAY * second_moment + (1.0 - _RMS_DECAY) * grad * grad, second_moment)
            steps = np.where(okc, steps * _GROW, steps * _SHRINK)
        if n_ok < n_active:  # restart, or stop, rejecting rows whose step underflowed
            for r in np.flatnonzero(active & ~ok & (steps[:, 0] < _MIN_STEP)):
                if restarted_at[r] == len(traces[r]):
                    stop_reasons[r], iterations[r], active[r] = "stalled", it, False
                    n_active -= 1
                    continue  # a fresh restart also stalled
                # deterministic warm restart: drop stale curvature/momentum
                first_moment[r], second_moment[r], steps[r] = 0.0, grad[r] * grad[r], 0.1 * step
                restarted_at[r] = len(traces[r])
        for r in np.flatnonzero(ok) if 0 < n_ok < batch else range(n_ok):  # accepted rows
            traces[r].append(float(value[r]))
        if n_active == 0:
            break

    results = []
    for r, trace in enumerate(traces):
        converged = trace[-1] < trace[0]
        report = FitReport(
            converged=converged, iterations=iterations[r], accepted_steps=len(trace) - 1,
            initial_objective=trace[0], final_objective=trace[-1], objective_trace=trace,
            message="ok" if converged else "objective was not reduced below its initial value",
            stop_reason=stop_reasons[r])
        results.append(MinimizeResult(x=x[r], objective=trace[-1], gradient=grad[r],
                                      report=report))
    return results[0] if single else results
