import dataclasses
import math

import numpy as np
import pytest

from voxlight.optim import FitReport, MinimizeResult, minimize_monotone
from voxlight.sg import (EnvMapGrid, Frame, SGFitOptions, _env_to_params, _params_to_env,
                         default_sg_init, sg_fit)
from voxlight.volume import (Bounds, EnvTarget, VSGFitOptions, VSGFitProblem,
                             _initial_params, _params_to_volume, vsg_fit,
                             vsg_fit_objective)


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

    def test_stalled(self):
        # nothing improves, so the step underflows twice: before and after
        # the warm restart
        result = minimize_monotone(lambda x: (1.0, np.zeros_like(x)), np.ones(3),
                                   max_iters=500)
        assert result.report.iterations < 500
        assert result.report.stop_reason == "stalled"


# ---------------------------------------------------------------------------
# Frozen copy of the scalar minimizer from before iterates became (B, n)
# rows; it records the iterations of its warm restarts in ``restarts``.
# ---------------------------------------------------------------------------

def frozen_minimize_monotone(fun, x0, max_iters=2000, step=0.1, grow=1.15, shrink=0.5,
                             momentum=0.9, rms_decay=0.9, rms_eps=1e-8, min_step=1e-16,
                             restarts=None):
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
    accepted_since_restart = 1
    iterations = 0
    stop_reason = "max_iters"
    for iterations in range(1, max_iters + 1):
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
        else:
            first_moment *= 0.5
            step *= shrink
            if step < min_step:
                if accepted_since_restart == 0:
                    stop_reason = "stalled"
                    break
                first_moment[:] = 0.0
                second_moment = grad * grad
                step = 0.1 * initial_step
                accepted_since_restart = 0
                if restarts is not None:
                    restarts.append(iterations)
    converged = value < initial
    message = "ok" if converged else "objective was not reduced below its initial value"
    report = FitReport(converged=converged, iterations=iterations, accepted_steps=accepted,
                       initial_objective=float(initial), final_objective=float(value),
                       objective_trace=trace, message=message, stop_reason=stop_reason)
    return MinimizeResult(x=x, objective=float(value), gradient=grad, report=report)


def assert_same_run(got, want):
    """Bitwise equal iterate, gradient and objective, and every report field."""
    assert got.x.tobytes() == want.x.tobytes()
    assert got.gradient.tobytes() == want.gradient.tobytes()
    assert np.float64(got.objective).tobytes() == np.float64(want.objective).tobytes()
    assert dataclasses.asdict(got.report) == dataclasses.asdict(want.report)
    assert all(type(v) is float for v in got.report.objective_trace)


def touchy(x):
    if np.any(np.abs(x) > 1.5):
        return float("inf"), np.zeros_like(x)
    return float(np.sum(x * x)), 2.0 * x


def quartic(x):
    a = np.linspace(0.5, 4.0, x.size)
    return float(np.sum(a * x ** 4)), 4.0 * a * x ** 3


def kinked(x):
    # |x| restarts several times, with accepted steps between, before it stalls
    return float(np.sum(np.abs(x))), np.sign(x)


def flat(x):
    return 1.0, np.zeros_like(x)


def lifted(x):
    # its minimum 1 is above any tolerance: it restarts, then stalls
    return float(1.0 + np.sum(x * x)), 2.0 * x


def steep(x):
    return float(np.sum(10.0 * x * x)), 20.0 * x


# (objective, start, options): the problems above, as their tests run them
SCALAR_PROBLEMS = [
    (quadratic, [3.0, -2.0, 0.5], dict(max_iters=500, step=0.5)),
    (quartic, np.random.default_rng(0).normal(size=10), dict(max_iters=300)),
    (flat, [1.0, 1.0, 1.0], dict(max_iters=50)),
    (flat, [1.0, 1.0, 1.0], dict(max_iters=500)),
    (touchy, [1.4], dict(max_iters=200, step=5.0)),
    (quadratic, [3.0, -2.0], dict(max_iters=5)),
    (quadratic, [3.0, -2.0], dict(max_iters=500, step=0.5)),
    (kinked, [3.0, -2.0, 0.5], dict(max_iters=600)),
    (quadratic, [3.0, -2.0], dict(max_iters=0)),
]


class TestRows:
    @pytest.mark.parametrize("fun, x0, options", SCALAR_PROBLEMS)
    def test_batch_of_one_equals_frozen_scalar_minimizer(self, fun, x0, options):
        x0 = np.asarray(x0, dtype=np.float64)
        want = frozen_minimize_monotone(fun, x0, **options)
        assert_same_run(minimize_monotone(fun, x0, **options), want)
        rows = minimize_monotone(lambda xs: tuple(np.stack(a) for a in zip(fun(xs[0]))),
                                 x0[None], **options)
        assert len(rows) == 1
        assert_same_run(rows[0], want)

    def test_each_row_equals_its_own_run(self):
        # rows that run out of iterations, stall with no accepted step,
        # restart and keep accepting before they stall on two more iterations,
        # and reject non-finite proposals
        funs = [quadratic, steep, flat, lifted, touchy, lifted]
        starts = np.array([[3.0, -2.0, 0.5], [1.0, 0.7, -0.2], [1.0, 1.0, 1.0],
                           [1.5, 0.5, -0.5], [1.4, 0.3, -0.9], [0.5, 0.5, 0.5]])
        options = dict(max_iters=310)

        def rows_fun(xs):
            values, grads = zip(*(f(x) for f, x in zip(funs, xs)))
            return np.array(values), np.stack(grads)

        batch = minimize_monotone(rows_fun, starts, **options)
        restarts = []
        for f, x0, got in zip(funs, starts, batch):
            restarts.append([])
            assert_same_run(got, minimize_monotone(f, x0, **options))
            assert_same_run(got, frozen_minimize_monotone(f, x0, restarts=restarts[-1],
                                                          **options))
        reports = [r.report for r in batch]
        assert [r.stop_reason for r in reports] == [
            "max_iters", "max_iters", "stalled", "stalled", "max_iters", "stalled"]
        stalled_at = [r.iterations for r in reports if r.stop_reason == "stalled"]
        assert len(set(stalled_at)) == 3 and max(stalled_at) < 310
        assert reports[2].accepted_steps == 0
        # a second restart needs an accepted step after the first
        assert len(restarts[3]) >= 2 and len(restarts[5]) >= 2

    def test_rows_that_stop_and_restart_on_one_iteration(self):
        # at step 0.25 the flat row stalls on the iteration where the kinked
        # row's step first underflows, so that row must restart then
        options = dict(max_iters=300, step=0.25)
        starts = np.stack([np.ones(3), np.full(3, 1.1)])
        restarts = []
        frozen_minimize_monotone(kinked, starts[1], restarts=restarts, **options)

        def rows_fun(xs):
            (v0, g0), (v1, g1) = flat(xs[0]), kinked(xs[1])
            return np.array([v0, v1]), np.stack([g0, g1])

        rows = minimize_monotone(rows_fun, starts, **options)
        assert rows[0].report.iterations == restarts[0]
        assert rows[0].report.stop_reason == "stalled"
        for f, start, got in zip((flat, kinked), starts, rows):
            assert_same_run(got, frozen_minimize_monotone(f, start, **options))

    def test_non_finite_start_names_the_row(self):
        def rows_fun(xs):
            values = np.sum(xs * xs, axis=1)
            values[1] = np.nan
            return values, 2.0 * xs

        with pytest.raises(ValueError, match=r"row 1\b"):
            minimize_monotone(rows_fun, np.ones((3, 2)))


class TestFitsAsRows:
    """sg_fit and vsg_fit, batches of one, run as the frozen scalar
    minimizer did."""

    def test_sg_fit(self):
        rng = np.random.default_rng(12)
        frame = Frame.from_normal([0.2, -0.3, 1.0])
        texels = rng.uniform(0.0, 3.0, (8, 16, 3)) * (rng.random((8, 16, 1)) < 0.3)
        grid = EnvMapGrid(width=16, height=8, frame=frame, texels=texels)
        options = SGFitOptions(max_iters=300)
        got = sg_fit(grid, 3, options)
        dirs = grid.directions().reshape(-1, 3)
        flat_target = texels.reshape(-1, 3)
        want = frozen_minimize_monotone(
            lambda p: frozen_sg_objective(p, flat_target, dirs),
            _env_to_params(default_sg_init(grid, 3)).ravel(), max_iters=300, step=0.25)
        assert want.report.accepted_steps > 0
        assert dataclasses.asdict(got.report) == dataclasses.asdict(want.report)
        assert got.environment == _params_to_env(want.x.reshape(-1, 6))

    def test_vsg_fit(self):
        rng = np.random.default_rng(13)
        bounds = Bounds(lo=np.array([-1.0, -1.0, -0.5]), hi=np.array([1.0, 1.0, 1.5]))
        targets = []
        for point in ([0.2, -0.1, 0.0], [-0.4, 0.5, 0.3]):
            frame = Frame.from_normal(rng.normal(size=3) + [0.0, 0.0, 2.0])
            grid = EnvMapGrid(width=6, height=3, frame=frame,
                              texels=rng.uniform(0.0, 2.0, (3, 6, 3)))
            targets.append(EnvTarget(point=np.array(point), frame=frame, grid=grid))
        options = VSGFitOptions(max_iters=25, n_samples=8)
        got = vsg_fit(targets, (3, 2, 2), bounds, options)
        problem = VSGFitProblem(targets, (3, 2, 2), bounds, options)
        want = frozen_minimize_monotone(
            lambda p: vsg_fit_objective(p, problem), _initial_params(problem),
            max_iters=25, step=0.1)
        assert want.report.accepted_steps > 0
        assert dataclasses.asdict(got.report) == dataclasses.asdict(want.report)
        assert (got.volume.voxels.tobytes()
                == _params_to_volume(want.x, problem).voxels.tobytes())


def frozen_sg_objective(params, target, dirs):
    """The scalar SG objective from before it took a batch axis."""
    with np.errstate(over="ignore", invalid="ignore"):
        params = params.reshape(-1, 6)
        st = np.sin(params[:, 0])
        axes = np.stack([st * np.cos(params[:, 1]), st * np.sin(params[:, 1]),
                         np.cos(params[:, 0])], axis=-1)
        sharp, eta = np.exp(params[:, 2]), np.exp(params[:, 3:6])
        dots = dirs @ axes.T
        expo = np.exp(sharp[None, :] * (dots - 1.0))
        radiance = expo @ eta
        diff = np.log1p(radiance) - np.log1p(target)
        n_elem = diff.size
        value = float(np.mean(diff * diff))
        g_rad = (2.0 / n_elem) * diff / (1.0 + radiance)
        d_eta = expo.T @ g_rad
        we = (g_rad @ eta.T) * expo
        d_sharp = np.sum(we * (dots - 1.0), axis=0)
        d_axis = we.T @ dirs * sharp[:, None]
        th, ph = params[:, 0], params[:, 1]
        grad = np.empty_like(params)
        grad[:, 0] = (d_axis[:, 0] * np.cos(th) * np.cos(ph)
                      + d_axis[:, 1] * np.cos(th) * np.sin(ph) - d_axis[:, 2] * np.sin(th))
        grad[:, 1] = (-d_axis[:, 0] * np.sin(th) * np.sin(ph)
                      + d_axis[:, 1] * np.sin(th) * np.cos(ph))
        grad[:, 2] = d_sharp * sharp
        grad[:, 3:6] = d_eta * eta
    if not math.isfinite(value) or not np.all(np.isfinite(grad)):
        return math.inf, np.zeros(params.size)
    return value, grad.ravel()
