import json
import math

import numpy as np
import pytest

from voxlight import io as vio
from voxlight.optim import minimize_monotone
from voxlight.sg import (EnvMapGrid, Frame, SGEnvironment, SGFitOptions,
                         _env_to_params, _params_to_env, default_sg_init, eval_env,
                         export_lobe_params, fibonacci_hemisphere,
                         hemisphere_frames, normalize, rasterize_env, sg_fit,
                         sg_fit_batch, sg_fit_objective, texel_directions, texel_solid_angles)
from voxlight.volume import (Bounds, EnvTarget, VSGFitOptions, VSGFitProblem,
                             _initial_params, _params_to_volume)

FRAME = Frame.from_normal([0.0, 0.0, 1.0])
ENV_FIELDS = ("theta", "phi", "sharp", "intensity", "visibility")


def env_of(*lobes, visibility=None):
    """An SGEnvironment of (theta, phi, sharpness, (r, g, b)) lobes."""
    return SGEnvironment(*zip(*lobes), visibility=visibility)


def env_bytes(env):
    """Every field of ``env`` as bytes, to compare environments bitwise."""
    return tuple(getattr(env, field).tobytes() for field in ENV_FIELDS)


def sg_objective(params, target, dirs):
    """``sg_fit_objective`` of one fit to ``target`` (T, 3): a batch of one."""
    values, grads = sg_fit_objective(np.reshape(params, (1, -1)), np.log1p(target)[None],
                                     dirs[None])
    return values[0], grads[0]


def random_env(rng, lobes=3, min_sep_deg=0.0):
    while True:
        env = env_of(*[(rng.uniform(0.1, math.pi - 0.1), rng.uniform(-math.pi, math.pi * 0.999),
                        rng.uniform(0.0, 30.0), rng.uniform(0.0, 3.0, 3))
                       for _ in range(lobes)])
        if min_sep_deg == 0.0:
            return env
        axes = env.axes()
        dots = axes @ axes.T
        np.fill_diagonal(dots, -1.0)
        if np.max(dots) < math.cos(math.radians(min_sep_deg)):
            return env


class TestTypes:
    def test_unit_axis_is_unit(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            env = env_of((rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi * 0.99),
                          rng.uniform(0, 50), (1.0, 1.0, 1.0)))
            assert abs(np.linalg.norm(env.axes()[0]) - 1.0) <= 1e-12

    def test_invalid_lobe_rejected(self):
        nan = math.nan
        for lobe in ((-0.1, 0.0, 1.0, (1, 1, 1)), (0.5, 0.0, -1.0, (1, 1, 1)),
                     (0.5, 0.0, 1.0, (-1, 1, 1)), (nan, 0.0, 1.0, (1, 1, 1)),
                     (0.5, nan, 1.0, (1, 1, 1)), (0.5, 0.0, nan, (1, 1, 1)),
                     (0.5, 0.0, math.inf, (1, 1, 1)), (0.5, 0.0, 1.0, (1, nan, 1)),
                     (0.5, math.pi, 1.0, (1, 1, 1)), (0.5, 0.0, 1.0, (1, 1))):
            with pytest.raises(ValueError):
                env_of((0.4, 0.1, 2.0, (1, 1, 1)), lobe)

    def test_visibility_defaults_and_bounds(self):
        env = env_of((0.5, 0.0, 1.0, (1, 1, 1)))
        assert env.visibility.tobytes() == np.ones(1).tobytes()
        for vis in ((1.5,), (math.nan,), (-0.5,), (1.0, 1.0)):
            with pytest.raises(ValueError):
                env_of((0.5, 0.0, 1.0, (1, 1, 1)), visibility=vis)
        with pytest.raises(ValueError):
            SGEnvironment((), (), (), ())

    def test_arrays_are_read_only_copies(self):
        theta = np.array([0.5, 1.0])
        env = SGEnvironment(theta, [0.0, 1.0], [1.0, 2.0], np.ones((2, 3)))
        theta[0] = 3.0
        assert env.theta[0] == 0.5 and len(env) == 2
        for field in ENV_FIELDS:
            with pytest.raises(ValueError):
                getattr(env, field)[0] = 0.0

    def test_envmap_texels_are_read_only_copies(self):
        texels = np.ones((2, 4, 3))
        grid = EnvMapGrid(width=4, height=2, frame=FRAME, texels=texels)
        texels[1, 2, 0] = np.inf
        assert grid.texels.dtype == np.float64 and np.all(grid.texels == 1.0)
        with pytest.raises(ValueError, match="read-only"):
            grid.texels[0, 0, 0] = 2.0

    def test_envmap_invariants(self):
        with pytest.raises(ValueError):
            EnvMapGrid(width=4, height=2, frame=FRAME, texels=-np.ones((2, 4, 3)))
        with pytest.raises(ValueError):
            Frame(normal=np.array([0, 0, 1.0]), tangent=np.array([0, 0, 1.0]),
                  bitangent=np.array([0, 1.0, 0]))


def frozen_spherical_to_unit(theta, phi):
    """``sg.spherical_to_unit``, the scalar axis formula a one-lobe
    ``unit_axis`` used before it moved onto ``_lobe_axes``."""
    st = math.sin(theta)
    return np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])


class TestUnitAxisBitwise:
    def test_equals_frozen_scalar_formula(self):
        rng = np.random.default_rng(14)
        special = [(t, f) for t in (0.0, math.pi / 2, math.pi)
                   for f in (-math.pi, 0.0, math.pi / 2)]
        angles = special + list(zip(rng.uniform(0.0, math.pi, 20000).tolist(),
                                    rng.uniform(-math.pi, math.pi, 20000).tolist()))
        theta, phi = np.array(angles).T
        axes = SGEnvironment(theta, phi, np.ones(len(angles)), np.ones((len(angles), 3))).axes()
        for (theta, phi), got in zip(angles, axes):
            want = frozen_spherical_to_unit(theta, phi)
            assert got.dtype == want.dtype and got.shape == want.shape == (3,)
            assert got.tobytes() == want.tobytes(), (theta, phi)


def frozen_from_normal(normal):
    """The scalar body ``Frame.from_normal`` had before it became a batch of
    one ``hemisphere_frames``: (normal, tangent, bitangent)."""
    n = normalize(normal)
    ref = np.array([0.0, 0.0, 1.0]) if abs(n[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    t = normalize(np.cross(ref, n))
    return n, t, np.cross(n, t)


def pole_switch_normals():
    """Unit normals whose n_z is exactly +-0.9 or one ulp either side (where
    the reference axis switches), plus +-z."""
    phi = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    out = [np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])]
    for z0 in (0.9, -0.9):
        for z in (np.nextafter(z0, 0.0), z0, np.nextafter(z0, 2.0 * z0)):
            r = math.sqrt(1.0 - z * z)
            n = normalize(np.stack([r * np.cos(phi), r * np.sin(phi),
                                    np.full(phi.size, z)], axis=-1))
            assert np.all(n[:, 2] == z)
            out.append(n)
    return np.concatenate(out)


class TestHemisphereFrames:
    def test_from_normal_bitwise_equal_to_frozen_scalar_body(self):
        rng = np.random.default_rng(12)
        normals = np.concatenate([rng.normal(size=(2000, 3)), pole_switch_normals()])
        for n in normals:
            frame = Frame.from_normal(n)
            want = frozen_from_normal(n)
            for got, ref in zip((frame.normal, frame.tangent, frame.bitangent), want):
                np.testing.assert_array_equal(got, ref)

    def test_batch_rows_get_the_bits_they_get_alone(self):
        rng = np.random.default_rng(13)
        normals = np.concatenate([normalize(rng.normal(size=(500, 3))),
                                  pole_switch_normals()])
        tang, bit = hemisphere_frames(normals)
        for i in range(normals.shape[0]):
            t, b = hemisphere_frames(normals[i:i + 1])
            np.testing.assert_array_equal(tang[i], t[0])
            np.testing.assert_array_equal(bit[i], b[0])
        np.testing.assert_allclose(np.cross(tang, bit), normals, atol=1e-12)
        np.testing.assert_allclose(np.sum(tang * normals, axis=-1), 0.0, atol=1e-12)


class TestEvalSG:
    """One lobe, evaluated as a one-lobe environment."""

    def test_axis_direction_returns_intensity(self):
        env = env_of((0.7, 1.1, 12.0, (0.5, 1.5, 2.5)))
        np.testing.assert_array_equal(eval_env(env, env.axes()[0]), np.array([0.5, 1.5, 2.5]))

    def test_zero_sharpness_is_constant(self):
        env = env_of((0.7, 1.1, 0.0, (0.5, 1.5, 2.5)))
        rng = np.random.default_rng(2)
        for _ in range(10):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            np.testing.assert_array_equal(eval_env(env, d), np.array([0.5, 1.5, 2.5]))

    def test_orthogonal_direction_analytic(self):
        env = env_of((math.pi / 2, 0.0, 1.0, (1.0, 1.0, 1.0)))  # axis +x
        value = eval_env(env, [0.0, 0.0, 1.0])
        np.testing.assert_allclose(value, math.exp(-1.0), rtol=1e-15)

    def test_rejects_non_unit_direction(self):
        env = env_of((0.5, 0.0, 1.0, (1, 1, 1)))
        with pytest.raises(ValueError):
            eval_env(env, [1.0, 1.0, 0.0])

    def test_monotone_in_angle(self):
        env = env_of((0.0, 0.0, 7.5, (1.0, 1.0, 1.0)))  # axis +z
        angles = np.linspace(0.0, math.pi, 40)
        values = [eval_env(env, [math.sin(a), 0.0, math.cos(a)])[0] for a in angles]
        assert np.all(np.diff(values) <= 1e-15)

    def test_bounded_by_intensity(self):
        rng = np.random.default_rng(3)
        env = env_of((1.0, 0.5, 9.0, (0.3, 0.6, 0.9)))
        for _ in range(20):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            assert np.all(eval_env(env, d) <= np.array([0.3, 0.6, 0.9]) + 1e-15)
            assert np.all(eval_env(env, d) >= 0.0)


class TestEvalEnv:
    def test_fully_occluded_is_black(self):
        env = env_of(*[(0.5, 0.0, 3.0, (1, 2, 3))] * 2, visibility=(0.0, 0.0))
        np.testing.assert_array_equal(eval_env(env, [0, 0, 1.0]), np.zeros(3))

    def test_batch_bitwise_equal_to_per_row_calls(self):
        rng = np.random.default_rng(8)
        for lobes in (1, 2, 5):
            env = random_env(rng, lobes)
            env = SGEnvironment(env.theta, env.phi, env.sharp, env.intensity,
                                visibility=rng.uniform(0.0, 1.0, lobes))
            dirs = rng.normal(size=(6, 7, 3))
            dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
            dirs[0, 0] = env.axes()[0]
            batch = eval_env(env, dirs)
            assert batch.shape == (6, 7, 3)
            rows = np.stack([eval_env(env, d) for d in dirs.reshape(-1, 3)])
            assert batch.reshape(-1, 3).tobytes() == rows.tobytes()
            assert eval_env(env, dirs[2]).tobytes() == batch[2].tobytes()

    def test_batch_rejects_a_non_unit_row(self):
        env = env_of((0.5, 0.0, 1.0, (1, 1, 1)))
        dirs = np.tile([0.0, 0.0, 1.0], (5, 1))
        eval_env(env, dirs)
        dirs[3] *= 1.0 + 2e-6
        with pytest.raises(ValueError):
            eval_env(env, dirs)
        with pytest.raises(ValueError):
            eval_env(env, np.zeros((4, 2)))

    def test_two_flat_lobes_visibility_sum(self):
        env = env_of((0.5, 0.0, 0.0, (1, 0, 0)), (1.0, 1.0, 0.0, (0, 2, 0)),
                     visibility=(1.0, 0.5))
        np.testing.assert_allclose(eval_env(env, [0, 0, 1.0]),
                                   np.array([1.0, 1.0, 0.0]), rtol=1e-15)


class TestRasterize:
    def test_flat_lobe_constant_grid(self):
        env = env_of((0.3, 0.3, 0.0, (0.7, 0.7, 0.7)))
        grid = rasterize_env(env, 4, 8, FRAME)
        np.testing.assert_array_equal(grid.texels, np.full((4, 8, 3), 0.7))

    def test_occluded_env_all_zero(self):
        env = env_of((0.3, 0.3, 5.0, (1, 1, 1)), visibility=(0.0,))
        grid = rasterize_env(env, 4, 8, FRAME)
        np.testing.assert_array_equal(grid.texels, np.zeros((4, 8, 3)))

    def test_matches_eval_env_bitwise(self):
        rng = np.random.default_rng(4)
        env = random_env(rng, 3)
        grid = rasterize_env(env, 8, 16, FRAME)
        dirs = texel_directions(8, 16, FRAME)
        for i in range(8):
            for j in range(16):
                np.testing.assert_array_equal(grid.texels[i, j],
                                              eval_env(env, dirs[i, j]))

    def test_fitted_envs_match_the_dot_minus_one_form(self):
        # the demo's cluster rasterizer evaluated dot - 1 through a matrix
        # product; the |d - axis|^2 / 2 form agrees with it to 1e-12 relative
        def frozen_rasterize_fast(env, height, width, frame):
            dirs = texel_directions(height, width, frame).reshape(-1, 3)
            rad = (np.asarray(env.visibility)
                   * np.exp(env.sharpness()[None, :] * (dirs @ env.axes().T - 1.0)))
            return (rad @ env.intensities()).reshape(height, width, 3)

        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(4):
            frame = Frame.from_normal(rng.normal(size=3))
            target = rasterize_env(random_env(rng, 3), 8, 16, frame)
            env = sg_fit(target, 3, SGFitOptions(max_iters=200)).environment
            want = frozen_rasterize_fast(env, 8, 16, frame)
            got = rasterize_env(env, 8, 16, frame).texels
            assert np.all(want > 0.0)
            worst = max(worst, float(np.max(np.abs(got - want) / want)))
        assert worst <= 1e-12

    def test_solid_angles_tile_hemisphere(self):
        omega = texel_solid_angles(8, 16)
        assert abs(float(omega.sum() * 16) - 2.0 * math.pi) < 1e-12

    def test_directions_unit_and_upper(self):
        dirs = texel_directions(6, 12, FRAME)
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=-1), 1.0, atol=1e-12)
        assert np.all(dirs @ FRAME.normal > 0.0)


class TestFibonacci:
    def test_count_unit_and_hemisphere(self):
        pts = fibonacci_hemisphere(7)
        assert pts.shape == (7, 3)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=-1), 1.0, atol=1e-12)
        assert np.all(pts[:, 2] > 0.0)

    def test_shared_spiral_keeps_both_point_sets(self):
        # frozen copies of the two golden-angle builders the helper replaced
        golden = math.pi * (3.0 - math.sqrt(5.0))

        def hemisphere(count):
            k = np.arange(count)
            z = (k + 0.5) / count
            r = np.sqrt(1.0 - z * z)
            return np.stack([r * np.cos(k * golden), r * np.sin(k * golden), z], axis=-1)

        def sphere(count):
            k = np.arange(count)
            z = 1.0 - (2.0 * k + 1.0) / count
            r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
            return np.stack([r * np.cos(k * golden), r * np.sin(k * golden), z], axis=-1)

        for count in (1, 3, 7, 64, 513):
            assert fibonacci_hemisphere(count).tobytes() == hemisphere(count).tobytes()
        grid = rasterize_env(env_of((0.4, 0.1, 3.0, (1, 1, 1))), 4, 8, FRAME)
        target = EnvTarget(point=np.full(3, 0.5), frame=FRAME, grid=grid)
        bounds = Bounds(lo=np.zeros(3), hi=np.ones(3))
        for dims in ((1, 1, 1), (2, 3, 4), (8, 8, 8)):
            problem = VSGFitProblem([target], dims, bounds, VSGFitOptions(n_samples=4))
            p = _initial_params(problem).reshape(-1, 7)
            axes = sphere(int(np.prod(dims)))
            assert p[:, 1].tobytes() == np.arccos(np.clip(axes[:, 2], -1.0, 1.0)).tobytes()
            assert p[:, 2].tobytes() == np.arctan2(axes[:, 1], axes[:, 0]).tobytes()


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(5)
        dirs = texel_directions(8, 16, FRAME).reshape(-1, 3)
        target = rng.uniform(0.0, 2.0, (dirs.shape[0], 3))
        step = 1e-5
        for _ in range(20):
            params = np.stack([
                rng.uniform(0.2, math.pi - 0.2, 3),
                rng.uniform(-math.pi, math.pi, 3),
                np.log(rng.uniform(0.5, 50.0, 3)),
                np.log(rng.uniform(0.2, 3.0, 3)),
                np.log(rng.uniform(0.2, 3.0, 3)),
                np.log(rng.uniform(0.2, 3.0, 3)),
            ], axis=-1).ravel()
            _, grad = sg_objective(params, target, dirs)
            fd = np.zeros_like(grad)
            for i in range(params.size):
                hi = params.copy(); hi[i] += step
                lo = params.copy(); lo[i] -= step
                fd[i] = (sg_objective(hi, target, dirs)[0]
                         - sg_objective(lo, target, dirs)[0]) / (2 * step)
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-300)
            assert rel <= 1e-4


class TestFit:
    def test_rejects_bad_arguments(self):
        env = env_of((0.4, 0.1, 3.0, (1, 1, 1)))
        grid = rasterize_env(env, 4, 8, FRAME)
        with pytest.raises(ValueError):
            sg_fit(grid, 0)

    def test_perturbed_single_lobe_recovers(self):
        target = rasterize_env(env_of((0.7, 0.4, 8.0, (1.5, 1.0, 0.6))), 16, 32, FRAME)
        init = env_of((0.7 * 1.1, 0.4 * 0.9, 8.0 * 1.1, (1.5 * 0.9, 1.0 * 1.1, 0.6 * 0.95)))
        # sg_fit's descent (step 0.25, 2000 iterations) from the perturbed lobe
        log_texels = np.log1p(target.texels.reshape(1, -1, 3))
        dirs = target.directions().reshape(1, -1, 3)
        result = minimize_monotone(lambda p: sg_fit_objective(p, log_texels, dirs),
                                   _env_to_params(init).reshape(1, -1), max_iters=2000,
                                   step=0.25)[0]
        assert result.report.final_objective <= 1e-4

    def test_constant_target_exact_fit_exists(self):
        grid = EnvMapGrid(width=16, height=8, frame=FRAME,
                          texels=np.full((8, 16, 3), 0.8))
        result = sg_fit(grid, 1)
        assert result.report.final_objective <= 1e-6

    def test_three_lobe_recovery(self):
        rng = np.random.default_rng(6)
        env = random_env(rng, 3, min_sep_deg=60.0)
        target = rasterize_env(env, 16, 32, FRAME)
        result = sg_fit(target, 3, SGFitOptions(max_iters=2000))
        assert result.report.final_objective <= 1e-3
        assert result.report.iterations <= 2000

    def test_trace_non_increasing_and_invariants_hold(self):
        rng = np.random.default_rng(7)
        env = random_env(rng, 2)
        target = rasterize_env(env, 8, 16, FRAME)
        result = sg_fit(target, 2, SGFitOptions(max_iters=300))
        trace = np.array(result.report.objective_trace)
        assert np.all(np.diff(trace) <= 0.0)
        env = result.environment
        assert np.all(env.sharp >= 0.0)
        assert np.all(env.intensity >= 0.0)
        assert np.all((env.theta >= 0.0) & (env.theta <= math.pi))
        assert np.all((env.phi >= -math.pi) & (env.phi < math.pi))
        assert np.all(env.visibility == 1.0)

    def test_non_finite_target_rejected(self):
        texels = np.full((4, 8, 3), 1.0)
        grid = EnvMapGrid(width=8, height=4, frame=FRAME, texels=texels)
        object.__setattr__(grid, "texels", texels * np.nan)
        with pytest.raises(ValueError):
            sg_fit(grid, 1)

    def test_default_init_is_deterministic(self):
        grid = EnvMapGrid(width=8, height=4, frame=FRAME,
                          texels=np.full((4, 8, 3), 0.5))
        a = default_sg_init(grid, 3)
        b = default_sg_init(grid, 3)
        assert env_bytes(a) == env_bytes(b)


# Frozen copies of the two export paths that export_lobe_params replaced: the
# per-lobe scalar fold of the SG fitter and the vectorized fold of the VSG
# fitter, each with its own copy of the +-30 log-parameter clip.


def _reference_sg_export(params):
    out = []
    for s in range(params.shape[0]):
        theta = float(params[s, 0]) % (2.0 * math.pi)
        phi = float(params[s, 1])
        if theta > math.pi:
            theta = 2.0 * math.pi - theta
            phi += math.pi
        phi = (phi + math.pi) % (2.0 * math.pi) - math.pi
        logs = np.clip(params[s, 2:6], -30.0, 30.0)
        out.append((theta, phi, float(np.exp(logs[0])), tuple(np.exp(logs[1:4]))))
    return out


def _reference_volume_export(p):
    theta = np.mod(p[:, 1], 2.0 * math.pi)
    phi = p[:, 2].copy()
    over = theta > math.pi
    theta[over] = 2.0 * math.pi - theta[over]
    phi[over] += math.pi
    phi = np.mod(phi + math.pi, 2.0 * math.pi) - math.pi
    sharp = np.exp(np.clip(p[:, 3], -30.0, 30.0))
    eta = np.exp(np.clip(p[:, 4:7], -30.0, 30.0))
    return np.stack([theta, phi, sharp, eta[:, 0], eta[:, 1], eta[:, 2]], axis=-1)


def wrapped_angles(rng, count):
    """Angles up to seven turns out on both sides, with exact multiples of pi
    and of 2 pi among them."""
    turns = rng.integers(-7, 8, count) * 2.0 * math.pi
    angles = turns + rng.uniform(-2.0 * math.pi, 2.0 * math.pi, count)
    angles[:30] = np.arange(-15, 15) * math.pi
    return rng.permutation(angles)


class TestExportLobeParams:
    def params(self, seed, count=600):
        rng = np.random.default_rng(seed)
        logs = rng.uniform(-80.0, 80.0, (count, 4))
        logs[:8].flat[:32] = np.tile([30.0, -30.0, 30.0000001, -30.0000001,
                                      29.9999999, -29.9999999, 0.0, -0.0], 4)
        return np.column_stack([wrapped_angles(rng, count), wrapped_angles(rng, count),
                                rng.permutation(logs)])

    def test_sg_export_bitwise_equal_to_scalar_fold(self):
        params = self.params(0)
        env = _params_to_env(params)
        got = np.column_stack([env.theta, env.phi, env.sharp, env.intensity])
        for row, (theta, phi, sharp, eta) in zip(got, _reference_sg_export(params)):
            assert row.tobytes() == np.array([theta, phi, sharp, *eta]).tobytes()

    def test_volume_export_bitwise_equal_to_vectorized_fold(self):
        params = self.params(1, count=7 * 5 * 3)
        raw = np.column_stack([np.zeros(len(params)), params]).ravel()
        grid = EnvMapGrid(width=2, height=1, frame=FRAME, texels=np.ones((1, 2, 3)))
        problem = VSGFitProblem([EnvTarget(np.full(3, 0.5), FRAME, grid)], (7, 5, 3),
                                Bounds(lo=np.zeros(3), hi=np.ones(3)), VSGFitOptions())
        voxels = _params_to_volume(raw, problem).voxels.reshape(-1, 7)
        want = _reference_volume_export(raw.reshape(-1, 7))
        assert np.ascontiguousarray(voxels[:, 1:]).tobytes() == want.tobytes()

    def test_folded_ranges(self):
        params = self.params(2)
        theta, phi, values = export_lobe_params(params[:, 0], params[:, 1], params[:, 2:6])
        assert np.all((theta >= 0.0) & (theta <= math.pi))
        assert np.all((phi >= -math.pi) & (phi < math.pi))
        assert np.all((values >= math.exp(-30.0)) & (values <= math.exp(30.0)))


def cluster_like_grids(rng, count, height=8, width=16):
    """Sparse targets in tilted frames, like the demo's cluster env maps."""
    grids = []
    for _ in range(count):
        frame = Frame.from_normal(rng.normal(size=3) + [0.0, 0.0, 2.0])
        texels = (rng.uniform(0.0, 3.0, (height, width, 3))
                  * (rng.random((height, width, 1)) < 0.2))
        grids.append(EnvMapGrid(width=width, height=height, frame=frame, texels=texels))
    return grids


class TestBatchFit:
    def test_rows_equal_their_own_sg_fit(self):
        # the first and the all-zero target stall, on different iterations
        grids = cluster_like_grids(np.random.default_rng(3), 10)
        grids.append(EnvMapGrid(width=16, height=8, frame=grids[1].frame,
                                texels=np.zeros((8, 16, 3))))
        options = SGFitOptions(max_iters=400)
        batch = sg_fit_batch(grids, 3, options)
        for grid, got in zip(grids, batch):
            own = sg_fit(grid, 3, options)
            assert got.report == own.report
            assert env_bytes(got.environment) == env_bytes(own.environment)
        reasons = [r.report.stop_reason for r in batch]
        assert reasons[0] == reasons[-1] == "stalled"
        assert set(reasons[1:-1]) == {"max_iters"}
        assert batch[0].report.iterations != batch[-1].report.iterations

    def test_objective_rows_equal_single_calls(self):
        rng = np.random.default_rng(3)
        grids = cluster_like_grids(rng, 5)
        dirs = np.stack([g.directions().reshape(-1, 3) for g in grids])
        targets = np.stack([g.texels.reshape(-1, 3) for g in grids])
        params = rng.normal(0.0, 1.5, (5, 18))
        params[2, 3] = 800.0          # an infinite intensity: this row only is not finite
        log_targets = np.log1p(targets)
        values, grads = sg_fit_objective(params, log_targets, dirs)
        assert values.shape == (5,) and grads.shape == (5, 18)
        for r in range(5):
            value, grad = sg_fit_objective(params[r:r + 1], log_targets[r:r + 1], dirs[r:r + 1])
            assert value.shape == (1,) and grad.shape == (1, 18)
            # every bit but a NaN's sign, which BLAS does not fix across batch shapes
            nan = np.isnan(grads[r])
            assert np.array_equal(np.isnan(grad[0]), nan)
            assert value[0] == values[r] and grad[0][~nan].tobytes() == grads[r][~nan].tobytes()
        finite = np.isfinite(values) & np.isfinite(grads).all(axis=1)
        assert finite.tolist() == [True, True, False, True, True]

    def test_rejects_unequal_grids(self):
        grids = cluster_like_grids(np.random.default_rng(4), 2)
        grids += cluster_like_grids(np.random.default_rng(5), 1, height=4, width=8)
        with pytest.raises(ValueError, match="target 2 has a 4x8 grid, target 0 8x16"):
            sg_fit_batch(grids, 3)

    def test_rejects_non_finite_texels(self):
        # texels are read-only, so a built grid cannot take an infinity
        grids = cluster_like_grids(np.random.default_rng(6), 3)
        with pytest.raises(ValueError, match="read-only"):
            grids[1].texels[2, 5, 0] = np.inf
        assert np.all(np.isfinite(grids[1].texels))

    def test_rejects_lobe_count_below_one(self):
        grids = cluster_like_grids(np.random.default_rng(7), 2)
        for lobes in (0, -1):
            with pytest.raises(ValueError, match=f"num_lobes must be >= 1, got {lobes}"):
                sg_fit_batch(grids, lobes)
        with pytest.raises(ValueError):
            sg_fit_batch([], 3)


# Frozen copies of the per-lobe environment the arrays replaced: a scalar lobe
# type, the environment of lobes, and the init, converters, evaluator and SG
# JSON writer that read it.


class FrozenLobe:
    def __init__(self, axis_theta, axis_phi, sharpness, intensity):
        self.axis_theta, self.axis_phi, self.sharpness = axis_theta, axis_phi, sharpness
        self.intensity = tuple(float(c) for c in intensity)

    def unit_axis(self):
        st = np.sin(self.axis_theta)
        axes = np.empty(np.shape(self.axis_theta) + (3,))
        axes[..., 0], axes[..., 1], axes[..., 2] = (st * np.cos(self.axis_phi),
                                                    st * np.sin(self.axis_phi),
                                                    np.cos(self.axis_theta))
        return axes


class FrozenEnvironment:
    def __init__(self, lobes, visibility=()):
        self.lobes = tuple(lobes)
        self.visibility = (tuple(float(v) for v in visibility) if visibility
                           else (1.0,) * len(self.lobes))

    def axes(self):
        return np.stack([lobe.unit_axis() for lobe in self.lobes])

    def sharpness(self):
        return np.array([lobe.sharpness for lobe in self.lobes])

    def intensities(self):
        return np.array([lobe.intensity for lobe in self.lobes])


def frozen_env_to_params(env):
    params = np.empty((len(env.lobes), 6))
    for s, lobe in enumerate(env.lobes):
        params[s, 0] = lobe.axis_theta
        params[s, 1] = lobe.axis_phi
        params[s, 2] = math.log(lobe.sharpness)
        params[s, 3:6] = np.log(lobe.intensity)
    return params


def frozen_params_to_env(params):
    theta, phi, values = export_lobe_params(params[:, 0], params[:, 1], params[:, 2:6])
    return FrozenEnvironment(FrozenLobe(float(t), float(f), float(v[0]), tuple(v[1:4]))
                             for t, f, v in zip(theta, phi, values))


def frozen_default_sg_init(target, num_lobes):
    basis = np.stack([target.frame.tangent, target.frame.bitangent, target.frame.normal])
    mean = tuple(np.maximum(target.texels.reshape(-1, 3).mean(axis=0), 1e-6))
    lobes = []
    for axis_local in fibonacci_hemisphere(num_lobes):
        d = axis_local @ basis
        theta = math.acos(min(1.0, max(-1.0, float(d[2]))))
        phi = math.atan2(float(d[1]), float(d[0]))
        if phi >= math.pi:
            phi -= 2.0 * math.pi
        lobes.append(FrozenLobe(theta, phi, 5.0, mean))
    return FrozenEnvironment(lobes)


def frozen_eval_env(env, directions, chord=False):
    """The lobe sum with exponent lambda * (dot(d, axis) - 1), the dot summed as
    (d0 a0 + d1 a1) + d2 a2; with ``chord``, the form eval_env had before,
    -lambda |d - axis|^2 / 2, equal for unit vectors but for round-off."""
    d = np.asarray(directions, dtype=np.float64)
    out = np.zeros(d.shape)
    for axis, sharp, vis, eta in zip(env.axes(), env.sharpness(), env.visibility,
                                     env.intensities()):
        if chord:
            delta = d - axis
            sq = (delta[..., 0] * delta[..., 0] + delta[..., 1] * delta[..., 1]
                  + delta[..., 2] * delta[..., 2])
            exponent = -0.5 * sq
        else:
            exponent = (d[..., 0] * axis[0] + d[..., 1] * axis[1]) + d[..., 2] * axis[2] - 1.0
        out += (vis * np.exp(sharp * exponent))[..., None] * eta
    return out


def frozen_sg_env_json(env):
    return json.dumps({
        "lobes": [{"theta": lobe.axis_theta, "phi": lobe.axis_phi,
                   "sharpness": lobe.sharpness,
                   "intensity": list(lobe.intensity)} for lobe in env.lobes],
        "visibility": list(env.visibility)}, indent=2)


def random_lobe_rows(rng, count):
    """(theta, phi, sharpness, intensity) of ``count`` random lobes, exact
    range ends among them."""
    rows = [(float(rng.uniform(0.0, math.pi)), float(rng.uniform(-math.pi, math.pi)),
             float(rng.uniform(0.0, 40.0)), tuple(rng.uniform(0.0, 3.0, 3).tolist()))
            for _ in range(count)]
    rows[0] = (0.0, -math.pi, 0.0, (0.0, 0.0, 0.0))
    rows[-1] = (math.pi, 0.0, 1e-300, (1e300, 1.0, 5e-324))
    return rows


class TestArraysEqualFrozenLobes:
    def test_init_params_equal_frozen(self):
        rng = np.random.default_rng(21)
        for trial in range(60):
            h, w = int(rng.integers(1, 9)), int(rng.integers(1, 17))
            frame = Frame.from_normal(rng.normal(size=3) if trial else [0.0, 0.0, 1.0])
            texels = rng.uniform(0.0, 3.0, (h, w, 3)) * (rng.random((h, w, 1)) < 0.4)
            grid = EnvMapGrid(width=w, height=h, frame=frame, texels=texels)
            lobes = int(rng.integers(1, 9))
            got = _env_to_params(default_sg_init(grid, lobes))
            want = frozen_env_to_params(frozen_default_sg_init(grid, lobes))
            assert got.shape == want.shape == (lobes, 6)
            assert got.tobytes() == want.tobytes()

    def test_params_to_env_equal_frozen(self):
        params = TestExportLobeParams().params(22)
        got, want = _params_to_env(params), frozen_params_to_env(params)
        rows = np.array([[lobe.axis_theta, lobe.axis_phi, lobe.sharpness, *lobe.intensity]
                         for lobe in want.lobes])
        assert np.column_stack([got.theta, got.phi, got.sharp,
                                got.intensity]).tobytes() == rows.tobytes()
        assert got.visibility.tobytes() == np.array(want.visibility).tobytes()
        for method in ("axes", "sharpness", "intensities"):
            assert getattr(got, method)().tobytes() == getattr(want, method)().tobytes()

    def test_eval_env_equal_frozen(self):
        rng = np.random.default_rng(23)
        for lobes in (1, 2, 3, 8):
            rows = random_lobe_rows(rng, lobes)
            vis = rng.uniform(0.0, 1.0, lobes).tolist()
            dirs = rng.normal(size=(9, 11, 3))
            dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
            got = eval_env(env_of(*rows, visibility=vis), dirs)
            frozen = FrozenEnvironment([FrozenLobe(*r) for r in rows], vis)
            assert got.tobytes() == frozen_eval_env(frozen, dirs).tobytes()
            np.testing.assert_allclose(got, frozen_eval_env(frozen, dirs, chord=True),
                                       rtol=1e-12, atol=0.0)

    def test_sg_env_json_equal_frozen(self, tmp_path):
        rng = np.random.default_rng(24)
        path = tmp_path / "env.json"
        params = TestExportLobeParams().params(25, count=40)
        cases = [(_params_to_env(params), frozen_params_to_env(params))]
        grid = cluster_like_grids(rng, 1)[0]
        cases.append((default_sg_init(grid, 5), frozen_default_sg_init(grid, 5)))
        for lobes in (1, 3):
            rows, vis = random_lobe_rows(rng, lobes), rng.uniform(0.0, 1.0, lobes).tolist()
            cases.append((env_of(*rows, visibility=vis),
                          FrozenEnvironment([FrozenLobe(*r) for r in rows], vis)))
        for env, frozen in cases:
            vio.save_sg_env(path, env)
            assert path.read_text() == frozen_sg_env_json(frozen)
            vio.save_sg_env(path, vio.load_sg_env(path))
            assert path.read_text() == frozen_sg_env_json(frozen)
