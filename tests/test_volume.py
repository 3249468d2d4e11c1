import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voxlight.volume as volume_module
from voxlight.metrics import entropy_reg
from voxlight.optim import minimize_monotone
from voxlight.sg import EnvMapGrid, Frame, texel_directions
from voxlight.volume import (_CHUNK_SAMPLES, Bounds, EnvTarget, Ray,
                             VSGFitOptions, VSGFitProblem, VSGVolume,
                             _channel_table, _composite, _front_to_back,
                             _g4_and_grad, _initial_params, _params_to_volume,
                             _ray_stencil, _stencil, _trilinear,
                             composite_ray, composite_rays, env_offset,
                             extract_env_map, vsg_fit, vsg_fit_objective)

BOUNDS = Bounds(lo=np.zeros(3), hi=np.full(3, 2.0))
FRAME = Frame.from_normal([0.0, 0.0, 1.0])


def random_volume(rng, dims=(16, 16, 16)) -> VSGVolume:
    vox = np.empty(dims + (7,))
    vox[..., 0] = rng.uniform(0.0, 1.0, dims)
    vox[..., 1] = rng.uniform(0.0, math.pi, dims)
    vox[..., 2] = rng.uniform(-math.pi, math.pi * 0.99, dims)
    vox[..., 3] = rng.uniform(0.0, 10.0, dims)
    vox[..., 4:7] = rng.uniform(0.0, 3.0, dims + (3,))
    return VSGVolume(bounds=BOUNDS, voxels=vox)


class TestTypes:
    def test_volume_invariants(self):
        vox = np.zeros((2, 2, 2, 7))
        vox[..., 0] = 1.5
        with pytest.raises(ValueError):
            VSGVolume(bounds=BOUNDS, voxels=vox)
        with pytest.raises(ValueError):
            Bounds(lo=np.zeros(3), hi=np.array([1.0, 0.0, 1.0]))

    @pytest.mark.parametrize("dims", [(0, 2, 2), (2, 0, 2), (2, 2, 0)])
    def test_volume_rejects_empty_axis(self, dims):
        with pytest.raises(ValueError, match=r"X, Y, Z >= 1, got \(%d, %d, %d, 7\)" % dims):
            VSGVolume.uniform(dims, BOUNDS)

    def test_ray_invariants(self):
        with pytest.raises(ValueError):
            Ray(origin=np.zeros(3), direction=np.array([1.0, 1.0, 0.0]), t_max=1.0)
        with pytest.raises(ValueError):
            Ray(origin=np.zeros(3), direction=np.array([1.0, 0.0, 0.0]), t_max=0.0)


def march(volume: VSGVolume, ray: Ray, n_samples: int):
    """The march ``composite_rays`` runs, on one ray: its sample parameters
    t (N,), whether it hits the box, the interpolated channels (8, N) with
    alpha capped at 1, and the unit axes (N, 3) that ``_composite`` emits
    about."""
    d = ray.direction[None]
    ts, hit, stencil = _ray_stencil(volume, ray.origin[None], d, ray.t_max, n_samples)
    interp = _trilinear(_channel_table(volume), stencil).reshape(8, 1, n_samples)
    np.minimum(interp[0], 1.0, out=interp[0])
    axis = _composite(interp, d)[1][0]
    return ts[0], bool(hit[0]), interp[:, 0], axis[:, 0].T


def front_to_back_weights(alpha) -> np.ndarray:
    """Front-to-back weights prod_{m<n}(1 - alpha_m) * alpha_n of samples n."""
    return _front_to_back(np.asarray(alpha, dtype=np.float64))[2]


class TestSampleRay:
    def test_miss_returns_empty(self):
        vol = VSGVolume.uniform((4, 4, 4), BOUNDS, alpha=0.5)
        ray = Ray(origin=[5.0, 5.0, 5.0], direction=[1.0, 0.0, 0.0], t_max=10.0)
        _, hit, interp, _ = march(vol, ray, 16)
        assert not hit
        np.testing.assert_array_equal(interp, 0.0)

    def test_uniform_volume_constant_samples(self):
        vol = VSGVolume.uniform((4, 4, 4), BOUNDS, alpha=0.3, axis_theta=0.4,
                                axis_phi=0.9, sharpness=2.0, intensity=(1, 2, 3))
        ray = Ray(origin=[-1.0, 1.0, 1.0], direction=[1.0, 0.0, 0.0], t_max=10.0)
        ts, hit, interp, axis = march(vol, ray, 32)
        assert hit and ts.shape == (32,)
        np.testing.assert_allclose(interp[0], 0.3, rtol=1e-12)
        np.testing.assert_allclose(interp[4], 2.0, rtol=1e-12)
        np.testing.assert_allclose(interp[5:8].T, np.tile([1, 2, 3], (32, 1)),
                                   rtol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(axis, axis=-1), 1.0, atol=1e-12)

    def test_midpoint_interpolation(self):
        vox = np.zeros((2, 2, 2, 7))
        vox[1, :, :, 0] = 1.0  # opaque on the +x half
        vol = VSGVolume(bounds=BOUNDS, voxels=vox)
        ray = Ray(origin=[-1.0, 1.0, 1.0], direction=[1.0, 0.0, 0.0], t_max=10.0)
        ts, _, interp, _ = march(vol, ray, 101)
        assert abs(ts[50] - 2.0) < 1e-12  # volume center
        assert abs(interp[0, 50] - 0.5) < 1e-12


class TestCompositing:
    def test_transparent_volume_is_black(self):
        vol = VSGVolume.uniform((4, 4, 4), BOUNDS, alpha=0.0, intensity=(5, 5, 5))
        ray = Ray(origin=[-1.0, 1.0, 1.0], direction=[1.0, 0.0, 0.0], t_max=10.0)
        np.testing.assert_array_equal(composite_ray(vol, ray, 16), np.zeros(3))

    def test_opaque_first_sample_blocks(self):
        vol = VSGVolume.uniform((4, 4, 4), BOUNDS, alpha=1.0, sharpness=0.0,
                                intensity=(0.7, 0.8, 0.9))
        ray = Ray(origin=[-1.0, 1.0, 1.0], direction=[1.0, 0.0, 0.0], t_max=10.0)
        np.testing.assert_allclose(composite_ray(vol, ray, 16),
                                   [0.7, 0.8, 0.9], rtol=1e-12)

    def test_two_sample_analytic_case(self):
        # direct check of the weights formula on a two-sample alpha profile
        w = front_to_back_weights([0.5, 0.5])
        np.testing.assert_allclose(w, [0.5, 0.25], atol=1e-15)
        c1, c2 = np.array([1.0, 2.0, 3.0]), np.array([2.0, 0.5, 1.0])
        out = w[0] * c1 + w[1] * c2
        np.testing.assert_allclose(out, 0.5 * c1 + 0.25 * c2, atol=1e-12)

    def test_weights_bounded_and_conservative(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            alpha = rng.uniform(0.0, 1.0, 64)
            w = front_to_back_weights(alpha)
            assert np.all(w >= 0.0) and np.all(w <= 1.0)
            assert w.sum() <= 1.0 + 1e-9

    def test_invariant_to_content_behind_opaque_wall(self):
        rng = np.random.default_rng(9)
        vox = np.zeros((4, 4, 4, 7))
        vox[1:3, :, :, 0] = 1.0       # two-voxel opaque slab
        vox[1:3, :, :, 4:7] = 0.5
        a = VSGVolume(bounds=BOUNDS, voxels=vox.copy())
        vox2 = vox.copy()
        vox2[3, :, :, 0] = rng.uniform(0, 1, (4, 4))
        vox2[3, :, :, 4:7] = rng.uniform(0, 5, (4, 4, 3))
        b = VSGVolume(bounds=BOUNDS, voxels=vox2)
        ray = Ray(origin=[-1.0, 0.75, 0.75], direction=[1.0, 0.0, 0.0], t_max=10.0)
        ra = composite_ray(a, ray, 64)
        rb = composite_ray(b, ray, 64)
        np.testing.assert_allclose(ra, rb, atol=1e-12)

    def test_doubling_samples_is_stable_on_smooth_volume(self):
        vol = VSGVolume.uniform((8, 8, 8), BOUNDS, alpha=0.1, sharpness=0.0,
                                intensity=(2.0, 1.0, 0.5))
        ray = Ray(origin=[1.0, 1.0, 0.2], direction=[0.0, 0.0, 1.0], t_max=10.0)
        r64 = composite_ray(vol, ray, 64)
        r128 = composite_ray(vol, ray, 128)
        assert np.max(np.abs(r128 - r64) / r64) <= 0.05

    def test_batched_matches_scalar_path(self):
        rng = np.random.default_rng(10)
        vol = random_volume(rng, (6, 6, 6))
        origins = rng.uniform(0.2, 1.8, (20, 3))
        dirs = rng.normal(size=(20, 3))
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        batch = composite_rays(vol, origins, dirs, 5.0, 32)
        for i in range(20):
            single = composite_ray(vol, Ray(origin=origins[i], direction=dirs[i],
                                            t_max=5.0), 32)
            np.testing.assert_array_equal(batch[i], single)

    def test_composite_matches_sample_based_formula(self):
        # independent evaluation of the compositing sum from the ray's samples
        rng = np.random.default_rng(22)
        vol = random_volume(rng, (6, 6, 6))
        for _ in range(10):
            origin = rng.uniform(0.2, 1.8, 3)
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            ray = Ray(origin=origin, direction=d, t_max=5.0)
            _, _, interp, axis = march(vol, ray, 32)
            dots = axis @ (-d)
            emit = interp[5:8].T * np.exp(interp[4] * (dots - 1.0))[:, None]
            expected = front_to_back_weights(interp[0]) @ emit
            np.testing.assert_allclose(composite_ray(vol, ray, 32), expected,
                                       rtol=0, atol=1e-12)


class TestExtractEnvMap:
    def test_transparent_volume_black_map(self):
        vol = VSGVolume.uniform((4, 4, 4), BOUNDS, alpha=0.0, intensity=(9, 9, 9))
        env = extract_env_map(vol, [1.0, 1.0, 0.2], FRAME, 4, 8, 16)
        np.testing.assert_array_equal(env.texels, np.zeros((4, 8, 3)))

    def test_uniform_fog_matches_geometric_series(self):
        n = 64
        vol = VSGVolume.uniform((8, 8, 8), BOUNDS, alpha=0.1, sharpness=0.0,
                                intensity=(2.0, 1.0, 0.5))
        env = extract_env_map(vol, [1.0, 1.0, 0.2], FRAME, 8, 16, n)
        series = sum(0.9 ** k * 0.1 for k in range(n))
        expected = series * np.array([2.0, 1.0, 0.5])
        np.testing.assert_allclose(env.texels,
                                   np.broadcast_to(expected, (8, 16, 3)),
                                   rtol=1e-12)

    def test_emitter_direction_localized(self):
        vox = np.zeros((8, 8, 8, 7))
        vox[7, 3, 3, 0] = 1.0  # opaque emitter toward +x of the query point
        vox[7, 3, 3, 4:7] = 10.0
        vol = VSGVolume(bounds=BOUNDS, voxels=vox)
        point = np.array([0.3, 0.875, 0.875])  # aligned with emitter center in y, z
        env = extract_env_map(vol, point, Frame.from_normal([1.0, 0.0, 0.0]),
                              8, 16, 96)
        idx = np.unravel_index(np.argmax(env.texels.sum(axis=-1)),
                               (8, 16))
        dirs = env.directions()
        best = dirs[idx]
        assert float(best @ np.array([1.0, 0.0, 0.0])) > math.cos(
            math.radians(25.0))  # within ~one texel of +x

    def test_texels_match_composite_ray(self):
        rng = np.random.default_rng(11)
        vol = random_volume(rng, (5, 5, 5))
        point = np.array([1.0, 1.0, 0.4])
        env = extract_env_map(vol, point, FRAME, 4, 8, 24)
        from voxlight.volume import env_offset
        origin = point + env_offset(vol) * FRAME.normal
        dirs = env.directions()
        for i in range(4):
            for j in range(8):
                ray = Ray(origin=origin, direction=dirs[i, j],
                          t_max=vol.bounds.diagonal)
                np.testing.assert_array_equal(env.texels[i, j],
                                              composite_ray(vol, ray, 24))


TILTED = Frame.from_normal(np.array([0.3, 0.2, 0.93]) / np.linalg.norm([0.3, 0.2, 0.93]))


def env_targets(rng, points, frames, height=4, width=8):
    return [EnvTarget(point=np.asarray(point, dtype=np.float64), frame=frame,
                      grid=EnvMapGrid(width=width, height=height, frame=frame,
                                      texels=rng.uniform(0.0, 3.0, (height, width, 3))))
            for point, frame in zip(points, frames)]


def fit_targets(rng):
    return env_targets(rng, [(0.7, 0.9, 0.3), (1.0, 0.9, 0.3)], [FRAME, TILTED])


def outside_targets(rng):
    """Three targets, two of them outside the box, so some texel rays miss it."""
    return env_targets(rng, [(1.0, 1.0, -0.4), (-0.5, 1.2, 1.0), (1.3, 0.6, 0.5)],
                       [FRAME, Frame.from_normal([1.0, 0.0, 0.0]), TILTED],
                       height=3, width=6)


class TestFitObjective:
    def build_problem(self, rng, dims=(4, 4, 4), n_samples=8):
        return VSGFitProblem(fit_targets(rng), dims, BOUNDS,
                             VSGFitOptions(n_samples=n_samples))

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(12)
        problem = self.build_problem(rng)
        step = 1e-5
        for _ in range(6):
            params = _initial_params(problem) + rng.normal(0.0, 0.5,
                                                           problem.n_voxels * 7)
            _, grad = vsg_fit_objective(params, problem)
            fd = np.zeros_like(grad)
            for i in range(params.size):
                hi = params.copy(); hi[i] += step
                lo = params.copy(); lo[i] -= step
                fd[i] = (vsg_fit_objective(hi, problem)[0]
                         - vsg_fit_objective(lo, problem)[0]) / (2 * step)
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-300)
            assert rel <= 1e-3

    def test_empty_targets_rejected(self):
        with pytest.raises(ValueError):
            VSGFitProblem([], (4, 4, 4), BOUNDS, VSGFitOptions())

    @pytest.mark.parametrize("n_samples", [0, -2])
    def test_rejects_non_positive_samples(self, n_samples):
        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            VSGFitProblem(fit_targets(np.random.default_rng(0)), (4, 4, 4), BOUNDS,
                          VSGFitOptions(n_samples=n_samples))

    @pytest.mark.parametrize("dims", [(0, 4, 4), (4, -1, 4), (4, 4), (4, 4, 4, 1),
                                      (4, 2.5, 4)])
    def test_rejects_bad_dims(self, dims):
        with pytest.raises(ValueError, match="dims must be three positive ints"):
            VSGFitProblem(fit_targets(np.random.default_rng(0)), dims, BOUNDS,
                          VSGFitOptions())

    def test_desk_scale_cap(self):
        with pytest.raises(ValueError):
            VSGFitProblem([EnvTarget(np.zeros(3), FRAME,
                                     EnvMapGrid(width=2, height=1, frame=FRAME,
                                                texels=np.zeros((1, 2, 3))))],
                          (64, 64, 64), BOUNDS, VSGFitOptions())


def single_emitter_targets(n_samples=64):
    vox = np.zeros((8, 8, 8, 7))
    vox[4, 4, 6, 0] = 1.0
    vox[4, 4, 6, 4:7] = (8.0, 6.0, 5.0)
    gt = VSGVolume(bounds=BOUNDS, voxels=vox)
    points = [np.array([0.6, 0.6, 0.15]), np.array([1.4, 0.6, 0.15]),
              np.array([0.6, 1.4, 0.15]), np.array([1.4, 1.4, 0.15])]
    return gt, [EnvTarget(point=p, frame=FRAME,
                          grid=extract_env_map(gt, p, FRAME, 8, 16, n_samples))
                for p in points]


def summed_g4(volume, targets, n_samples=64):
    from voxlight.metrics import si_log_mse
    total = 0.0
    for t in targets:
        ext = extract_env_map(volume, t.point, t.frame, t.grid.height,
                              t.grid.width, n_samples)
        total += si_log_mse(t.grid.texels, ext.texels)
    return total


class TestFit:
    def test_zero_targets_drive_intensity_to_zero(self):
        texels = np.zeros((4, 8, 3))
        targets = [EnvTarget(point=np.array([1.0, 1.0, 0.3]), frame=FRAME,
                             grid=EnvMapGrid(width=8, height=4, frame=FRAME,
                                             texels=texels))]
        result = vsg_fit(targets, (4, 4, 4), BOUNDS,
                         VSGFitOptions(max_iters=400, n_samples=16))
        assert summed_g4(result.volume, targets, 16) <= 1e-6

    def test_single_emitter_recovery_and_polarized_alpha(self):
        gt, targets = single_emitter_targets()
        result = vsg_fit(targets, (8, 8, 8), BOUNDS,
                         VSGFitOptions(max_iters=800, n_samples=64))
        assert summed_g4(result.volume, targets) <= 1e-2
        alpha = result.volume.voxels[..., 0]
        assert float(np.mean(np.minimum(alpha, 1.0 - alpha))) <= 0.1
        trace = np.array(result.report.objective_trace)
        assert np.all(np.diff(trace) <= 0.0)

    def test_result_satisfies_invariants(self):
        _, targets = single_emitter_targets(n_samples=16)
        result = vsg_fit(targets[:1], (4, 4, 4), BOUNDS,
                         VSGFitOptions(max_iters=100, n_samples=16))
        v = result.volume.voxels
        assert np.all(v[..., 0] >= 0.0) and np.all(v[..., 0] <= 1.0)
        assert np.all(v[..., 3] >= 0.0)
        assert np.all(v[..., 4:7] >= 0.0)
        assert np.all(np.isfinite(v))


# ---------------------------------------------------------------------------
# Frozen reference: the interpolation path the corner-major core replaced
# (per-sample (8,) corner indices, an (R, N, 8, C) gather and einsum). The
# core must reproduce it bitwise.
# ---------------------------------------------------------------------------


def _reference_samples(bounds, origins, directions, t_max, n_samples):
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(np.abs(directions) > 1e-300, 1.0 / directions, np.inf)
    t0 = (bounds.lo - origins) * inv
    t1 = (bounds.hi - origins) * inv
    lo = np.minimum(t0, t1)
    hi = np.maximum(t0, t1)
    par = np.abs(directions) <= 1e-300
    inside = (origins >= bounds.lo) & (origins <= bounds.hi)
    lo = np.where(par, np.where(inside, -np.inf, np.inf), lo)
    hi = np.where(par, np.where(inside, np.inf, -np.inf), hi)
    t_near = np.maximum(lo.max(axis=-1), 0.0)
    t_far = np.minimum(hi.min(axis=-1), t_max)
    valid = t_far > t_near
    t_near = np.where(valid, t_near, 0.0)
    t_far = np.where(valid, t_far, 1.0)
    frac = (np.arange(n_samples) + 0.5) / n_samples
    ts = t_near[:, None] + frac[None, :] * (t_far - t_near)[:, None]
    points = origins[:, None, :] + ts[..., None] * directions[:, None, :]
    return points, valid.astype(np.float64)


def _reference_corners(volume, points):
    dims = np.asarray(volume.dims)
    grid = (points - volume.bounds.lo) / volume.cell_size - 0.5
    grid = np.clip(grid, 0.0, dims - 1.0)
    i0 = np.minimum(np.floor(grid).astype(np.int64), np.maximum(dims - 2, 0))
    frac = np.where(dims > 1, grid - i0, 0.0)
    i1 = np.minimum(i0 + 1, dims - 1)
    _, y, z = (int(d) for d in dims)
    shape = points.shape[:-1]
    ix = np.stack([i0[..., 0], i1[..., 0]], axis=-1)
    iy = np.stack([i0[..., 1], i1[..., 1]], axis=-1)
    iz = np.stack([i0[..., 2], i1[..., 2]], axis=-1)
    corners = ((ix[..., :, None, None] * y + iy[..., None, :, None]) * z
               + iz[..., None, None, :]).reshape(shape + (8,))
    wx = np.stack([1.0 - frac[..., 0], frac[..., 0]], axis=-1)
    wy = np.stack([1.0 - frac[..., 1], frac[..., 1]], axis=-1)
    wz = np.stack([1.0 - frac[..., 2], frac[..., 2]], axis=-1)
    weights = (wx[..., :, None, None] * wy[..., None, :, None]
               * wz[..., None, None, :]).reshape(shape + (8,))
    return corners, weights


def _reference_composite(volume, origins, directions, t_max, n_samples):
    fields = np.concatenate([volume.voxels[..., 0].reshape(-1, 1),
                             volume.axis_vectors().reshape(-1, 3),
                             volume.voxels[..., 3:7].reshape(-1, 4)], axis=-1)
    points, valid = _reference_samples(volume.bounds, origins, directions,
                                       t_max, n_samples)
    idx, w = _reference_corners(volume, points)
    interp = np.einsum("rnk,rnkc->rnc", w * valid[:, None, None], fields[idx])
    alpha = np.clip(interp[..., 0], 0.0, 1.0)
    u = interp[..., 1:4]
    norm = np.linalg.norm(u, axis=-1, keepdims=True)
    axis = np.where(norm > 1e-12, u / np.where(norm > 0.0, norm, 1.0),
                    np.array([0.0, 0.0, 1.0]))
    sharp = np.maximum(interp[..., 4], 0.0)
    eta = np.maximum(interp[..., 5:8], 0.0)
    dots = -np.sum(axis * directions[:, None, :], axis=-1)
    emit = eta * np.exp(sharp * (dots - 1.0))[..., None]
    trans = np.cumprod(1.0 - alpha, axis=-1)
    excl = np.concatenate([np.ones((alpha.shape[0], 1)), trans[:, :-1]], axis=-1)
    return np.maximum(np.sum((excl * alpha)[..., None] * emit, axis=1), 0.0)


# Frozen reference objective: the ray-major (R, N, C) objective whose
# backward builds the (R, N, 8, 8) product of corner weights and per-sample
# gradients and scatters it with one bincount over 64 keys per sample (voxel
# * 8 + field, in (ray, sample, corner, field) order). The channel-major
# objective must reproduce it bitwise.


def _reference_rays(targets, dims, bounds):
    eps = env_offset(VSGVolume.uniform(dims, bounds))
    origins, dirs = [], []
    for t in targets:
        d = texel_directions(t.grid.height, t.grid.width, t.frame).reshape(-1, 3)
        origins.append(np.broadcast_to(t.point + eps * t.frame.normal, d.shape))
        dirs.append(d)
    return np.concatenate(origins), np.concatenate(dirs)


def _reference_g4(target, rendered):
    with np.errstate(over="ignore"):
        sbb = float(np.sum(rendered * rendered))
    if not math.isfinite(sbb):
        return math.inf, np.zeros_like(rendered)
    if sbb < 1e-300:
        log_a = np.log1p(target)
        return float(np.mean(log_a * log_a)), np.zeros_like(rendered)
    sab = float(np.sum(target * rendered))
    tau = sab / sbb
    scaled = tau * rendered + 1.0
    diff = np.log1p(target) - np.log(scaled)
    n = diff.size
    value = float(np.mean(diff * diff))
    base = (-2.0 / n) * diff / scaled
    grad = base * tau
    dtau = float(np.sum(base * rendered))
    grad = grad + dtau * (target - 2.0 * tau * rendered) / sbb
    return value, grad


# the fit's weights of g4 and of the opacity entropy (DEFAULT_BETAS["svl"][:2])
BETA_FIT, BETA_ENTROPY = 10.0, 1e-2


def _reference_objective_impl(params, targets, dims, bounds, opts):
    nvox = int(np.prod(dims))
    p = params.reshape(nvox, 7)
    alpha_v = 1.0 / (1.0 + np.exp(-p[:, 0]))
    st, ct = np.sin(p[:, 1]), np.cos(p[:, 1])
    sp, cp = np.sin(p[:, 2]), np.cos(p[:, 2])
    axis_v = np.stack([st * cp, st * sp, ct], axis=-1)
    sharp_v, eta_v = np.exp(p[:, 3]), np.exp(p[:, 4:7])

    origins, directions = _reference_rays(targets, dims, bounds)
    points, valid = _reference_samples(bounds, origins, directions,
                                       bounds.diagonal, opts.n_samples)
    idx, w = _reference_corners(VSGVolume.uniform(dims, bounds), points)
    w = w * valid[:, None, None]
    fields = np.concatenate([alpha_v[:, None], axis_v, sharp_v[:, None], eta_v], axis=-1)
    interp = np.einsum("rnk,rnkc->rnc", w, fields[idx])
    alpha, u, sharp, eta = (interp[..., 0], interp[..., 1:4], interp[..., 4],
                            interp[..., 5:8])
    norm = np.linalg.norm(u, axis=-1, keepdims=True)
    safe = np.where(norm > 1e-12, norm, 1.0)
    axis = u / safe
    dots = np.sum(axis * -directions[:, None, :], axis=-1)
    expo = np.exp(sharp * (dots - 1.0))
    emit = eta * expo[..., None]
    trans = np.cumprod(1.0 - alpha, axis=-1)
    excl = np.concatenate([np.ones((alpha.shape[0], 1)), trans[:, :-1]], axis=-1)
    wgt = excl * alpha
    contrib = wgt[..., None] * emit
    rendered = np.sum(contrib, axis=1)

    value = 0.0
    d_rendered = np.empty_like(rendered)
    start = 0
    for t in targets:
        sl = slice(start, start + t.grid.height * t.grid.width)
        start = sl.stop
        v, g = _reference_g4(t.grid.texels.reshape(-1, 3), rendered[sl])
        value += BETA_FIT * v
        d_rendered[sl] = BETA_FIT * g
    tiny = alpha_v > 1e-290
    ent = np.where(tiny, -alpha_v * np.log(np.where(tiny, alpha_v, 1.0)), 0.0)
    value += BETA_ENTROPY * float(np.mean(ent))
    d_alpha_reg = BETA_ENTROPY / nvox * np.where(
        tiny, -np.log(np.where(tiny, alpha_v, 1.0)) - 1.0, 0.0)

    suffix = np.cumsum(contrib[:, ::-1], axis=1)[:, ::-1]
    tail_next = np.concatenate(
        [suffix[:, 1:], np.zeros((alpha.shape[0], 1, 3))], axis=1)
    tsafe = np.where(trans > 1e-290, trans, 1.0)
    tail = np.where(trans[..., None] > 1e-290, tail_next / tsafe[..., None], 0.0)
    d_emit = wgt[..., None] * d_rendered[:, None, :]
    d_alpha = np.sum(d_rendered[:, None, :] * excl[..., None] * (emit - tail),
                     axis=-1)
    d_expo = np.sum(d_emit * eta, axis=-1)
    d_eta = d_emit * expo[..., None]
    d_sharp = d_expo * expo * (dots - 1.0)
    d_dots = d_expo * expo * sharp
    d_axis = d_dots[..., None] * -directions[:, None, :]
    d_u = (d_axis - axis * np.sum(axis * d_axis, axis=-1, keepdims=True)) / safe
    d_u = np.where(norm > 1e-12, d_u, 0.0)

    sample_grads = np.concatenate(
        [d_alpha[..., None], d_u, d_sharp[..., None], d_eta], axis=-1)
    weighted = w[..., None] * sample_grads[..., None, :]
    keys = (idx[..., None] * 8 + np.arange(8)).ravel()
    accum = np.bincount(keys, weights=weighted.ravel(),
                        minlength=nvox * 8).reshape(nvox, 8)
    d_alpha_vox = d_alpha_reg + accum[:, 0]
    d_axis_vox = accum[:, 1:4]
    grad = np.empty_like(p)
    grad[:, 0] = d_alpha_vox * alpha_v * (1.0 - alpha_v)
    grad[:, 1] = (d_axis_vox[:, 0] * ct * cp + d_axis_vox[:, 1] * ct * sp
                  - d_axis_vox[:, 2] * st)
    grad[:, 2] = -d_axis_vox[:, 0] * st * sp + d_axis_vox[:, 1] * st * cp
    grad[:, 3] = accum[:, 4] * sharp_v
    grad[:, 4:7] = accum[:, 5:8] * eta_v
    return value, grad.ravel()


def _reference_objective(params, targets, dims, bounds, opts):
    with np.errstate(over="ignore", invalid="ignore"):
        value, grad = _reference_objective_impl(params, targets, dims, bounds, opts)
    if not math.isfinite(value) or not np.all(np.isfinite(grad)):
        return math.inf, np.zeros_like(params)
    return value, grad


ORACLE_DIMS = [(6, 5, 4), (1, 5, 3), (4, 1, 1), (2, 2, 2), (1, 1, 1), (3, 1, 7)]
ORACLE_BOUNDS = Bounds(lo=np.array([-0.5, 0.0, 0.2]), hi=np.array([1.5, 1.0, 2.5]))


def unit_rows(rng, count):
    d = rng.normal(size=(count, 3))
    return d / np.linalg.norm(d, axis=-1, keepdims=True)


class TestCornerMajorCore:
    @pytest.mark.parametrize("dims", ORACLE_DIMS)
    def test_composite_rays_bitwise_equal_to_reference(self, dims):
        rng = np.random.default_rng(sum(dims))
        vol = random_volume(rng, dims)
        vol = VSGVolume(bounds=ORACLE_BOUNDS, voxels=vol.voxels)
        origins = rng.uniform(-1.5, 3.0, (400, 3))   # many start outside the box
        dirs = unit_rows(rng, 400)
        dirs[:40] = np.eye(3)[rng.integers(0, 3, 40)] * rng.choice([-1.0, 1.0], (40, 1))
        for n in (1, 7, 64):
            got = composite_rays(vol, origins, dirs, 5.0, n)
            want = _reference_composite(vol, origins, dirs, 5.0, n)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dims", [(4, 4, 4), (1, 3, 5), (2, 1, 1)])
    def test_vsg_objective_bitwise_equal_to_reference(self, dims):
        rng = np.random.default_rng(40)
        targets = fit_targets(rng)
        opts = VSGFitOptions(n_samples=12)
        problem = VSGFitProblem(targets, dims, BOUNDS, opts)
        for _ in range(3):
            params = _initial_params(problem) + rng.normal(0.0, 0.5, problem.n_voxels * 7)
            value, grad = vsg_fit_objective(params, problem)
            ref_value, ref_grad = _reference_objective(params, targets, dims, BOUNDS, opts)
            assert value == ref_value
            assert grad.tobytes() == ref_grad.tobytes()

    def test_vsg_objective_with_missed_rays_bitwise_equal_to_reference(self):
        rng = np.random.default_rng(43)
        targets = outside_targets(rng)
        dims, opts = (3, 4, 2), VSGFitOptions(n_samples=9)
        origins, dirs = _reference_rays(targets, dims, BOUNDS)
        _, valid = _reference_samples(BOUNDS, origins, dirs, BOUNDS.diagonal, 9)
        assert 0.0 < valid.mean() < 1.0
        problem = VSGFitProblem(targets, dims, BOUNDS, opts)
        for _ in range(4):
            params = _initial_params(problem) + rng.normal(0.0, 0.5, problem.n_voxels * 7)
            value, grad = vsg_fit_objective(params, problem)
            ref_value, ref_grad = _reference_objective(params, targets, dims, BOUNDS, opts)
            assert value == ref_value
            assert grad.tobytes() == ref_grad.tobytes()

    def test_vsg_fit_bitwise_equal_to_reference_run(self):
        targets = outside_targets(np.random.default_rng(44))
        dims, opts = (3, 4, 2), VSGFitOptions(max_iters=25, n_samples=9)
        result = vsg_fit(targets, dims, BOUNDS, opts)
        problem = VSGFitProblem(targets, dims, BOUNDS, opts)
        ref = minimize_monotone(
            lambda p: _reference_objective(p, targets, dims, BOUNDS, opts),
            _initial_params(problem), max_iters=opts.max_iters, step=0.1)
        assert result.report.accepted_steps > 0
        assert result.report.objective_trace == ref.report.objective_trace
        assert (result.volume.voxels.tobytes()
                == _params_to_volume(ref.x, problem).voxels.tobytes())

    def test_batch_over_several_chunks_matches_single_rays(self):
        rng = np.random.default_rng(41)
        vol = random_volume(rng, (5, 4, 6))
        n = 64
        count = _CHUNK_SAMPLES // n + 37                    # two chunks
        origins = rng.uniform(0.0, 2.0, (count, 3))
        dirs = unit_rows(rng, count)
        batch = composite_rays(vol, origins, dirs, 5.0, n)
        for i in range(count):
            single = composite_ray(vol, Ray(origin=origins[i], direction=dirs[i],
                                            t_max=5.0), n)
            assert batch[i].tobytes() == single.tobytes()


def uneven_targets(rng):
    """Targets of 3x6 and 4x8 texels in turn; the first two lie outside the
    box, so some of their texel rays miss it."""
    small = env_targets(rng, [(1.0, 1.0, -0.4), (1.3, 0.6, 0.5)], [FRAME, TILTED],
                        height=3, width=6)
    large = env_targets(rng, [(-0.5, 1.2, 1.0), (0.7, 0.9, 0.3)],
                        [Frame.from_normal([1.0, 0.0, 0.0]), FRAME], height=4, width=8)
    return [small[0], large[0], small[1], large[1]]


UNEVEN_SAMPLES = 9   # 162 samples per 3x6 target, 288 per 4x8 target
# values of _CHUNK_SAMPLES and the target groups the fit problem plans for them
CHUNK_PLANS = [(_CHUNK_SAMPLES, [[0, 1, 2, 3]]),   # the default: one chunk
               (162 + 288, [[0, 1], [2, 3]]),      # two unequal targets
               (162, [[0], [1], [2], [3]]),        # exactly one 3x6 target
               (100, [[0], [1], [2], [3]])]        # fewer than any target


class TestChunkedObjective:
    """The objective runs chunk by chunk but scatters once, so its bits do
    not depend on the chunk plan."""

    @pytest.mark.parametrize("chunk_samples, groups", CHUNK_PLANS)
    def test_objective_bitwise_equal_to_reference(self, chunk_samples, groups,
                                                  monkeypatch):
        monkeypatch.setattr(volume_module, "_CHUNK_SAMPLES", chunk_samples)
        rng = np.random.default_rng(45)
        targets = uneven_targets(rng)
        dims, opts = (3, 4, 2), VSGFitOptions(n_samples=UNEVEN_SAMPLES)
        origins, dirs = _reference_rays(targets, dims, BOUNDS)
        _, valid = _reference_samples(BOUNDS, origins, dirs, BOUNDS.diagonal,
                                      UNEVEN_SAMPLES)
        assert 0.0 < valid.mean() < 1.0
        problem = VSGFitProblem(targets, dims, BOUNDS, opts)
        assert [t for _, t in problem.chunks] == groups
        for _ in range(3):
            params = _initial_params(problem) + rng.normal(0.0, 0.5, problem.n_voxels * 7)
            value, grad = vsg_fit_objective(params, problem)
            ref_value, ref_grad = _reference_objective(params, targets, dims, BOUNDS, opts)
            assert value == ref_value
            assert grad.tobytes() == ref_grad.tobytes()

    def test_fit_bitwise_equal_at_every_chunk_size(self, monkeypatch):
        targets = uneven_targets(np.random.default_rng(46))
        dims = (3, 4, 2)
        opts = VSGFitOptions(max_iters=25, n_samples=UNEVEN_SAMPLES)
        problem = VSGFitProblem(targets, dims, BOUNDS, opts)
        ref = minimize_monotone(
            lambda p: _reference_objective(p, targets, dims, BOUNDS, opts),
            _initial_params(problem), max_iters=opts.max_iters, step=0.1)
        ref_voxels = _params_to_volume(ref.x, problem).voxels.tobytes()
        assert ref.report.accepted_steps > 0
        for chunk_samples, _ in CHUNK_PLANS:
            monkeypatch.setattr(volume_module, "_CHUNK_SAMPLES", chunk_samples)
            result = vsg_fit(targets, dims, BOUNDS, opts)
            assert result.report.objective_trace == ref.report.objective_trace
            assert result.volume.voxels.tobytes() == ref_voxels


def params_volume(params, dims, bounds):
    """The volume raw fit parameters describe, angles as given."""
    p = params.reshape(-1, 7)
    alpha = 1.0 / (1.0 + np.exp(-p[:, 0]))
    voxels = np.column_stack([alpha, p[:, 1], p[:, 2], np.exp(p[:, 3:7])])
    return VSGVolume(bounds=bounds, voxels=voxels.reshape(tuple(dims) + (7,)))


def renderer_score(params, targets, dims, bounds, opts):
    """The fit objective's value computed through the renderer: each
    target's g4 against ``extract_env_map`` of ``params_volume``, plus the
    opacity entropy."""
    volume = params_volume(params, dims, bounds)
    alpha = volume.voxels[..., 0]
    value = 0.0
    for t in targets:
        env = extract_env_map(volume, t.point, t.frame, t.grid.height, t.grid.width,
                              opts.n_samples)
        value += BETA_FIT * _g4_and_grad(t.grid.texels.reshape(-1, 3),
                                         env.texels.reshape(-1, 3))[0]
    return value + BETA_ENTROPY * entropy_reg(alpha)


class TestObjectiveScoresRenderer:
    """The fit objective's forward pass is the renderer's: its value equals
    the score of ``extract_env_map`` bitwise."""

    @pytest.mark.parametrize("dims", [(8, 8, 8), (3, 1, 5)])
    def test_value_equals_renderer_score(self, dims):
        rng = np.random.default_rng(45)
        targets = outside_targets(rng) + fit_targets(rng)[:1]
        opts = VSGFitOptions(n_samples=10)
        problem = VSGFitProblem(targets, dims, BOUNDS, opts)
        _, valid = _reference_samples(BOUNDS, *_reference_rays(targets, dims, BOUNDS),
                                      BOUNDS.diagonal, 10)
        assert 0.0 < valid.mean() < 1.0
        for _ in range(3):
            params = _initial_params(problem) + rng.normal(0.0, 0.5, problem.n_voxels * 7)
            value, _ = vsg_fit_objective(params, problem)
            assert value == renderer_score(params, targets, dims, BOUNDS, opts)

    def test_value_equals_renderer_score_on_a_cancelling_axis(self):
        # the voxel axes (1, 0, 0) and (-1, -1.2e-16, 6e-17) average to an
        # axis of norm 9e-17 on the midplane x = 1, where both passes fall
        # back to (0, 0, 1)
        bounds = Bounds(lo=np.zeros(3), hi=np.array([2.0, 1.0, 1.0]))
        rng = np.random.default_rng(46)
        targets = env_targets(rng, [(1.0, 0.7, 0.3)], [FRAME], height=5, width=1)
        dirs = texel_directions(5, 1, FRAME)
        assert np.all(dirs[..., 0] == 0.0)   # every sample lies on the midplane
        opts = VSGFitOptions(n_samples=6)
        problem = VSGFitProblem(targets, (2, 1, 1), bounds, opts)
        params = np.array([[-0.3, math.pi / 2, 0.0, 1.2, 0.1, -0.4, 0.3],
                           [0.5, math.pi / 2, -math.pi, 0.6, -0.2, 0.2, 0.0]])
        value, grad = vsg_fit_objective(params.ravel(), problem)
        assert value == renderer_score(params.ravel(), targets, (2, 1, 1), bounds, opts)
        assert np.all(grad.reshape(2, 7)[:, 1:3] == 0.0)
        # and the shared fallback is the frozen renderer's
        volume = params_volume(params.ravel(), (2, 1, 1), bounds)
        origins, dirs = _reference_rays(targets, (2, 1, 1), bounds)
        got = composite_rays(volume, origins, dirs, bounds.diagonal, 6)
        assert got.tobytes() == _reference_composite(volume, origins, dirs,
                                                     bounds.diagonal, 6).tobytes()


class TestCompositeRaysValidation:
    vol = VSGVolume.uniform((2, 2, 2), BOUNDS, alpha=0.5)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match=r"\(R, 3\)"):
            composite_rays(self.vol, np.zeros((3, 3)), unit_rows(np.random.default_rng(0), 2),
                           5.0, 8)
        with pytest.raises(ValueError, match=r"\(R, 3\)"):
            composite_rays(self.vol, np.zeros(3), np.array([1.0, 0.0, 0.0]), 5.0, 8)

    def test_rejects_non_finite_rays(self):
        d = np.array([[1.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            composite_rays(self.vol, np.array([[np.nan, 0.0, 0.0]]), d, 5.0, 8)
        with pytest.raises(ValueError, match="finite"):
            composite_rays(self.vol, np.zeros((1, 3)), np.array([[np.inf, 0.0, 0.0]]),
                           5.0, 8)

    def test_rejects_non_unit_directions(self):
        with pytest.raises(ValueError, match="unit"):
            composite_rays(self.vol, np.zeros((1, 3)), np.array([[1.0 + 2e-6, 0.0, 0.0]]),
                           5.0, 8)


dims_strategy = st.tuples(*[st.integers(1, 6)] * 3)
points_strategy = st.lists(st.tuples(*[st.floats(-1.0, 3.0)] * 3), min_size=1,
                           max_size=20)


class TestStencilProperties:
    @settings(max_examples=60, deadline=None)
    @given(dims=dims_strategy, points=points_strategy)
    def test_weights_nonnegative_and_sum_to_one(self, dims, points):
        vol = VSGVolume.uniform(dims, BOUNDS)
        _, _, weights = _stencil(vol, np.array(points).T)
        assert np.all(weights >= 0.0)
        assert np.all(np.abs(weights.sum(axis=0) - 1.0) <= 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(dims=dims_strategy, points=points_strategy)
    def test_corner_indices_stay_in_grid(self, dims, points):
        vol = VSGVolume.uniform(dims, BOUNDS)
        base, offsets, _ = _stencil(vol, np.array(points).T)
        corners = base[None, :] + offsets[:, None]
        assert np.all(corners >= 0) and np.all(corners < np.prod(dims))

    @settings(max_examples=60, deadline=None)
    @given(alpha=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=64))
    def test_compositing_weights_sum_at_most_one(self, alpha):
        w = front_to_back_weights(alpha)
        assert np.all(w >= 0.0)
        assert w.sum() <= 1.0 + 1e-12
