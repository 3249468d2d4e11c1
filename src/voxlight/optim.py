"""Monotone first-order minimizer shared by the SG and VSG fitters.

Gradient descent with an RMS diagonal preconditioner, momentum, and an
accept/reject step-size schedule: a proposal is accepted only if it strictly
decreases the objective, so the accepted-step objective trace is
non-increasing by construction. Rejections shrink the step and fade the
momentum; if the step underflows, the moment state is rebuilt once from the
current gradient before the run is declared stuck. Everything is
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

ObjectiveAndGrad = Callable[[np.ndarray], tuple[float, np.ndarray]]


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
    stop_reason: str = ""  # "max_iters", "objective_tol" or "stalled"


@dataclass
class MinimizeResult:
    x: np.ndarray
    objective: float
    gradient: np.ndarray
    report: FitReport


def minimize_monotone(
    fun: ObjectiveAndGrad,
    x0: np.ndarray,
    max_iters: int = 2000,
    step: float = 0.1,
    grow: float = 1.15,
    shrink: float = 0.5,
    momentum: float = 0.9,
    rms_decay: float = 0.9,
    rms_eps: float = 1e-8,
    min_step: float = 1e-16,
    objective_tol: float = 0.0,
) -> MinimizeResult:
    """Minimize ``fun`` starting at ``x0``.

    ``fun`` must return ``(value, gradient)``. Each iteration proposes
    ``x - step * m / (sqrt(v) + eps)`` with ``m`` the momentum-blended
    gradient and ``v`` an exponential moving average of squared gradients,
    both updated on accepted steps only. ``step`` grows after acceptance and
    shrinks after rejection.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    value, grad = fun(x)
    if not np.isfinite(value):
        raise ValueError("objective is not finite at the initial point")
    initial = value
    initial_step = step
    first_moment = np.zeros_like(grad)
    second_moment = grad * grad
    trace = [value]
    accepted = 0
    accepted_since_restart = 1  # allow one restart before declaring failure
    iterations = 0
    stop_reason = "max_iters"
    for iterations in range(1, max_iters + 1):
        # Momentum damps coordinates whose gradient alternates sign near
        # their optimum, so persistent directions keep marching while the
        # accept test stays satisfiable at a growing step size.
        blend = momentum * first_moment + (1.0 - momentum) * grad
        direction = blend / (np.sqrt(second_moment) + rms_eps)
        candidate = x - step * direction
        cand_value, cand_grad = fun(candidate)
        if np.isfinite(cand_value) and cand_value < value:
            x, value, grad = candidate, cand_value, cand_grad
            first_moment = blend
            second_moment = rms_decay * second_moment + (1.0 - rms_decay) * grad * grad
            step *= grow
            accepted += 1
            accepted_since_restart += 1
            trace.append(value)
            if objective_tol > 0.0 and value <= objective_tol:
                stop_reason = "objective_tol"
                break
        else:
            first_moment *= 0.5  # fade stale momentum on rejection
            step *= shrink
            if step < min_step:
                if accepted_since_restart == 0:
                    stop_reason = "stalled"  # a fresh restart also stalled
                    break
                # deterministic warm restart: drop stale curvature/momentum
                first_moment[:] = 0.0
                second_moment = grad * grad
                step = 0.1 * initial_step
                accepted_since_restart = 0

    converged = value < initial
    message = "ok" if converged else (
        "objective was not reduced below its initial value"
    )
    report = FitReport(
        converged=converged,
        iterations=iterations,
        accepted_steps=accepted,
        initial_objective=float(initial),
        final_objective=float(value),
        objective_trace=trace,
        message=message,
        stop_reason=stop_reason,
    )
    return MinimizeResult(x=x, objective=float(value), gradient=grad, report=report)
