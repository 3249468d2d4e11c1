import numpy as np

from voxlight.optim import minimize_monotone


def quadratic(x):
    return float(np.sum(x * x)), 2.0 * x


def test_minimizes_quadratic():
    result = minimize_monotone(quadratic, np.array([3.0, -2.0, 0.5]),
                               max_iters=500, step=0.5)
    assert result.objective < 1e-8
    assert result.report.converged


def test_accepted_trace_is_non_increasing():
    rng = np.random.default_rng(0)
    a = rng.uniform(0.5, 4.0, 10)

    def rosen_ish(x):
        return float(np.sum(a * x ** 4)), 4.0 * a * x ** 3

    result = minimize_monotone(rosen_ish, rng.normal(size=10), max_iters=300)
    trace = np.array(result.report.objective_trace)
    assert np.all(np.diff(trace) <= 0.0)
    assert trace[0] == result.report.initial_objective
    assert trace[-1] == result.report.final_objective


def test_failure_is_reported_not_raised():
    # gradient of zero everywhere: nothing can improve
    result = minimize_monotone(lambda x: (1.0, np.zeros_like(x)),
                               np.ones(3), max_iters=50)
    assert not result.report.converged
    assert result.report.final_objective == 1.0
    assert "not reduced" in result.report.message


def test_rejects_non_finite_proposals():
    def touchy(x):
        if np.any(np.abs(x) > 1.5):
            return float("inf"), np.zeros_like(x)
        return float(np.sum(x * x)), 2.0 * x

    result = minimize_monotone(touchy, np.array([1.4]), max_iters=200, step=5.0)
    assert result.objective < 1e-6


class TestStopReason:
    def test_max_iters(self):
        result = minimize_monotone(quadratic, np.array([3.0, -2.0]), max_iters=5)
        assert result.report.iterations == 5
        assert result.report.stop_reason == "max_iters"

    def test_objective_tol(self):
        result = minimize_monotone(quadratic, np.array([3.0, -2.0]), max_iters=500,
                                   step=0.5, objective_tol=1e-3)
        assert result.report.iterations < 500
        assert result.report.final_objective <= 1e-3
        assert result.report.stop_reason == "objective_tol"

    def test_stalled(self):
        # nothing improves, so the step underflows twice: before and after
        # the warm restart
        result = minimize_monotone(lambda x: (1.0, np.zeros_like(x)), np.ones(3),
                                   max_iters=500)
        assert result.report.iterations < 500
        assert result.report.stop_reason == "stalled"
