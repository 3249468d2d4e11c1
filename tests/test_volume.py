import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxlight import volume as volume_module
from voxlight.sg import EnvMapGrid, Frame
from voxlight.volume import (_CHUNK_SAMPLES, Bounds, EnvTarget, Ray,
                             VSGFitOptions, VSGFitProblem, VSGVolume,
                             _initial_params, _stencil, composite_ray,
                             composite_rays, compositing_weights, env_offset,
                             extract_env_map, sample_ray, vsg_fit,
                             vsg_fit_objective)

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

    def test_ray_invariants(self):
        with pytest.raises(ValueError):
            Ray(origin=np.zeros(3), direction=np.array([1.0, 1.0, 0.0]), t_max=1.0)
        with pytest.raises(ValueError):
            Ray(origin=np.zeros(3), direction=np.array([1.0, 0.0, 0.0]), t_max=0.0)


class TestSampleRay:
    def test_miss_returns_empty(self):
        vol = VSGVolume.uniform((4, 4, 4), BOUNDS, alpha=0.5)
        ray = Ray(origin=[5.0, 5.0, 5.0], direction=[1.0, 0.0, 0.0], t_max=10.0)
        assert len(sample_ray(vol, ray, 16)) == 0

    def test_uniform_volume_constant_samples(self):
        vol = VSGVolume.uniform((4, 4, 4), BOUNDS, alpha=0.3, axis_theta=0.4,
                                axis_phi=0.9, sharpness=2.0, intensity=(1, 2, 3))
        ray = Ray(origin=[-1.0, 1.0, 1.0], direction=[1.0, 0.0, 0.0], t_max=10.0)
        s = sample_ray(vol, ray, 32)
        assert len(s) == 32
        np.testing.assert_allclose(s.alpha, 0.3, rtol=1e-12)
        np.testing.assert_allclose(s.sharpness, 2.0, rtol=1e-12)
        np.testing.assert_allclose(s.intensity, np.tile([1, 2, 3], (32, 1)),
                                   rtol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(s.axis, axis=-1), 1.0, atol=1e-12)

    def test_midpoint_interpolation(self):
        vox = np.zeros((2, 2, 2, 7))
        vox[1, :, :, 0] = 1.0  # opaque on the +x half
        vol = VSGVolume(bounds=BOUNDS, voxels=vox)
        ray = Ray(origin=[-1.0, 1.0, 1.0], direction=[1.0, 0.0, 0.0], t_max=10.0)
        s = sample_ray(vol, ray, 101)
        assert abs(s.t[50] - 2.0) < 1e-12  # volume center
        assert abs(s.alpha[50] - 0.5) < 1e-12


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
        w = compositing_weights(np.array([0.5, 0.5]))
        np.testing.assert_allclose(w, [0.5, 0.25], atol=1e-15)
        c1, c2 = np.array([1.0, 2.0, 3.0]), np.array([2.0, 0.5, 1.0])
        out = w[0] * c1 + w[1] * c2
        np.testing.assert_allclose(out, 0.5 * c1 + 0.25 * c2, atol=1e-12)

    def test_weights_bounded_and_conservative(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            alpha = rng.uniform(0.0, 1.0, 64)
            w = compositing_weights(alpha)
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
        # independent evaluation of the compositing sum from sample_ray
        rng = np.random.default_rng(22)
        vol = random_volume(rng, (6, 6, 6))
        for _ in range(10):
            origin = rng.uniform(0.2, 1.8, 3)
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            ray = Ray(origin=origin, direction=d, t_max=5.0)
            s = sample_ray(vol, ray, 32)
            dots = s.axis @ (-d)
            emit = s.intensity * np.exp(s.sharpness * (dots - 1.0))[:, None]
            expected = compositing_weights(s.alpha) @ emit
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


class TestFitObjective:
    def build_problem(self, rng, dims=(4, 4, 4), n_samples=8):
        frames = [FRAME, Frame.from_normal(np.array([0.3, 0.2, 0.93])
                                           / np.linalg.norm([0.3, 0.2, 0.93]))]
        targets = []
        for i, frame in enumerate(frames):
            texels = rng.uniform(0.0, 3.0, (4, 8, 3))
            targets.append(EnvTarget(
                point=np.array([0.7 + 0.3 * i, 0.9, 0.3]), frame=frame,
                grid=EnvMapGrid(width=8, height=4, frame=frame, texels=texels)))
        return VSGFitProblem(targets, dims, BOUNDS, VSGFitOptions(n_samples=n_samples))

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


def _reference_objective(params, problem, origins, monkeypatch):
    """The fit objective with the reference stencil, gather and scatter keys
    in place of the corner-major ones."""
    template = VSGVolume.uniform(problem.dims, problem.bounds)
    points, valid = _reference_samples(problem.bounds, origins, problem.directions,
                                       problem.bounds.diagonal,
                                       problem.options.n_samples)
    idx, w = _reference_corners(template, points)
    reference = copy.copy(problem)
    reference.weights = w * valid[:, None, None]
    reference.scatter_keys = (idx[..., None] * 8 + np.arange(8)).ravel()
    with monkeypatch.context() as patch:
        patch.setattr(volume_module, "_trilinear", lambda table, stencil: np.einsum(
            "rnk,rnkc->rnc", reference.weights, table.T[idx]).reshape(-1, 8).T)
        return vsg_fit_objective(params, reference)


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
    def test_vsg_objective_bitwise_equal_to_reference(self, dims, monkeypatch):
        rng = np.random.default_rng(40)
        problem = TestFitObjective().build_problem(rng, dims=dims, n_samples=12)
        frames = [FRAME, Frame.from_normal(np.array([0.3, 0.2, 0.93])
                                           / np.linalg.norm([0.3, 0.2, 0.93]))]
        eps = env_offset(VSGVolume.uniform(dims, BOUNDS))
        origins = np.concatenate([
            np.broadcast_to(np.array([0.7 + 0.3 * i, 0.9, 0.3]) + eps * f.normal, (32, 3))
            for i, f in enumerate(frames)])
        for _ in range(3):
            params = _initial_params(problem) + rng.normal(0.0, 0.5, problem.n_voxels * 7)
            value, grad = vsg_fit_objective(params, problem)
            ref_value, ref_grad = _reference_objective(params, problem, origins,
                                                       monkeypatch)
            assert value == ref_value
            assert grad.tobytes() == ref_grad.tobytes()

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
        w = compositing_weights(np.array(alpha))
        assert np.all(w >= 0.0)
        assert w.sum() <= 1.0 + 1e-12
