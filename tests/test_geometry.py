import math
import warnings

import numpy as np
import pytest

from voxlight.geometry import (Camera, View, ViewBundle, bilinear_sample,
                               depth_to_normal, multiview_weights, projection_error,
                               reproject)


def make_camera(fx=60.0, fy=60.0, cx=39.5, cy=29.5, rotation=None,
                translation=(0.0, 0.0, 0.0)) -> Camera:
    rotation = np.eye(3) if rotation is None else rotation
    return Camera(fx=fx, fy=fy, cx=cx, cy=cy, rotation=rotation,
                  translation=np.asarray(translation, dtype=np.float64))


def rot_x(deg):
    a = math.radians(deg)
    return np.array([[1, 0, 0],
                     [0, math.cos(a), -math.sin(a)],
                     [0, math.sin(a), math.cos(a)]])


class TestCamera:
    def test_pose_validation(self):
        with pytest.raises(ValueError):
            make_camera(fx=-1.0)
        with pytest.raises(ValueError):
            Camera(fx=1, fy=1, cx=0, cy=0, rotation=np.eye(3) * 2.0,
                   translation=np.zeros(3))
        flipped = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            Camera(fx=1, fy=1, cx=0, cy=0, rotation=flipped,
                   translation=np.zeros(3))

    def test_project_backproject_roundtrip(self):
        cam = make_camera(rotation=rot_x(25.0), translation=(0.3, -0.2, 1.1))
        rng = np.random.default_rng(0)
        for _ in range(50):
            u, v, z = rng.uniform(0, 79), rng.uniform(0, 59), rng.uniform(0.5, 5)
            point = cam.backproject(u, v, z)
            uu, vv, zz = cam.project(point)
            assert abs(uu - u) <= 1e-6 and abs(vv - v) <= 1e-6
            assert abs(zz - z) <= 1e-9

    def test_pixel_directions_unit(self):
        cam = make_camera(rotation=rot_x(40.0))
        dirs = cam.pixel_directions(6, 8)
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=-1), 1.0, atol=1e-12)


class TestDepthToNormal:
    def test_constant_depth_gives_facing_normals(self):
        cam = make_camera()
        normals, degenerate = depth_to_normal(np.full((20, 30), 2.0), cam)
        np.testing.assert_allclose(normals,
                                   np.broadcast_to([0.0, 0.0, -1.0], (20, 30, 3)),
                                   atol=1e-12)
        assert not degenerate.any()

    def test_tilted_plane_matches_analytic_normal(self):
        # plane z = z0 + a * x_world in the camera frame
        cam = make_camera()
        a, z0 = 0.35, 2.0
        jj, ii = np.meshgrid(np.arange(40), np.arange(30))
        # depth solves z = z0 + a * (u - cx)/fx * z
        depth = z0 / (1.0 - a * (jj - cam.cx) / cam.fx)
        assert np.all(depth > 0)
        normals, _ = depth_to_normal(depth, cam)
        expected = np.array([a, 0.0, -1.0])
        expected /= np.linalg.norm(expected)
        dots = np.clip(normals @ expected, -1.0, 1.0)
        worst_deg = math.degrees(float(np.max(np.arccos(dots))))
        assert worst_deg <= 0.5

    def test_random_smooth_depth_matches_window_fit(self):
        cam = make_camera(fx=80.0, fy=80.0, cx=15.5, cy=11.5)
        rng = np.random.default_rng(1)
        h, w = 24, 32
        jj, ii = np.meshgrid(np.arange(w), np.arange(h))
        depth = (2.0 + 0.15 * np.sin(2 * math.pi * jj / w)
                 + 0.1 * np.cos(2 * math.pi * ii / h))
        normals, _ = depth_to_normal(depth, cam)
        positions = np.stack([(jj - cam.cx) / cam.fx * depth,
                              (ii - cam.cy) / cam.fy * depth, depth], axis=-1)
        worst = 0.0
        for i in range(1, h - 1, 3):
            for j in range(1, w - 1, 3):
                window = positions[i - 1:i + 2, j - 1:j + 2].reshape(-1, 3)
                centered = window - window.mean(axis=0)
                _, _, vt = np.linalg.svd(centered, full_matrices=False)
                plane_n = vt[-1]
                if plane_n @ positions[i, j] > 0:
                    plane_n = -plane_n
                dot = np.clip(normals[i, j] @ plane_n, -1.0, 1.0)
                worst = max(worst, math.degrees(math.acos(dot)))
        assert worst <= 2.0

    def test_normals_unit_and_camera_facing(self):
        cam = make_camera()
        rng = np.random.default_rng(2)
        jj, ii = np.meshgrid(np.arange(25), np.arange(20))
        depth = 2.0 + 0.2 * np.sin(jj / 4.0) * np.cos(ii / 3.0)
        normals, degenerate = depth_to_normal(depth, cam)
        norms = np.linalg.norm(normals, axis=-1)
        np.testing.assert_allclose(norms[~degenerate], 1.0, atol=1e-6)
        positions = np.stack([(jj - cam.cx) / cam.fx * depth,
                              (ii - cam.cy) / cam.fy * depth, depth], axis=-1)
        facing = np.sum(normals * positions, axis=-1)
        assert np.all(facing[~degenerate] < 0.0)

    def test_rejects_nonpositive_depth(self):
        with pytest.raises(ValueError):
            depth_to_normal(np.zeros((4, 4)), make_camera())


def flat_view(cam, depth=2.0, shape=(60, 80)) -> View:
    """A view of ``cam`` whose depth map is ``depth`` everywhere."""
    return View(image=np.ones(shape + (3,)), depth=np.full(shape, depth),
                confidence=np.ones(shape), camera=cam)


class TestReproject:
    def test_identity_pose_keeps_pixel(self):
        cam = make_camera()
        r = reproject(cam.backproject(12.0, 34.0, 2.0)[None], [flat_view(cam)])
        assert r.u.shape == r.v.shape == r.z.shape == r.valid.shape == r.depth.shape == (1, 1)
        assert abs(r.u[0, 0] - 12.0) <= 1e-9 and abs(r.v[0, 0] - 34.0) <= 1e-9
        # z is the camera-z the depth map stores, not the distance to the center
        assert abs(r.z[0, 0] - 2.0) <= 1e-12
        assert r.depth[0, 0] == 2.0
        assert r.valid[0, 0]

    def test_translation_shifts_u_by_parallax(self):
        cam = make_camera()
        tx = 0.25
        other = make_camera(translation=(tx, 0.0, 0.0))
        z = 2.0
        r = reproject(cam.backproject(40.0, 30.0, z)[None], [flat_view(other, z)])
        assert abs((40.0 - r.u[0, 0]) - cam.fx * tx / z) <= 1e-9

    def test_behind_camera_flagged(self):
        cam = make_camera()
        # same center, turned 180 degrees: the point sits behind it
        turned = make_camera(rotation=rot_x(180.0))
        r = reproject(cam.backproject(40.0, 30.0, 2.0)[None], [flat_view(turned)])
        assert r.z[0, 0] < 0.0
        assert not r.valid[0, 0]

    def test_rows_are_views_columns_points(self):
        cams = [make_camera(), make_camera(translation=(0.3, -0.1, 0.2)),
                make_camera(rotation=rot_x(10.0))]
        views = [flat_view(c, 2.0 + 0.5 * k) for k, c in enumerate(cams)]
        rng = np.random.default_rng(8)
        points = cams[0].backproject(rng.uniform(5, 75, 6), rng.uniform(5, 55, 6),
                                     rng.uniform(1.5, 3.0, 6))
        r = reproject(points, views)
        assert r.image.shape == (3, 6, 3)
        for k, view in enumerate(views):
            u, v, z = view.camera.project(points)
            np.testing.assert_array_equal(r.u[k], u)
            np.testing.assert_array_equal(r.v[k], v)
            np.testing.assert_array_equal(r.z[k], z)
            np.testing.assert_array_equal(r.depth[k], np.where(r.valid[k], 2.0 + 0.5 * k, np.nan))

    def test_unseen_points_are_invalid_without_warnings(self):
        cam = make_camera()
        # a second camera 3 m along -x looking along +x sees every point at z = 3
        side = Camera(fx=30.0, fy=30.0, cx=39.5, cy=29.5,
                      rotation=np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]]),
                      translation=np.array([-3.0, 0.0, 0.0]))
        points = np.array([[0.0, 0.0, -2.0],     # behind cam
                           [0.0, 0.0, 0.0],      # at its center: z = 0, u = v = nan
                           [0.0, 0.5, 0.0],      # on its plane: z = 0, v = inf
                           [0.0, -1.5, 2.0],     # above its frame
                           [0.0, 0.0, 2.0]])     # seen by both
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = reproject(points, [flat_view(cam), flat_view(side, 3.0)])
            errors = projection_error(r.depth, r.z)
            weights = multiview_weights(errors.T, r.valid.T)
        np.testing.assert_array_equal(r.valid, [[False] * 4 + [True], [True] * 5])
        assert np.isnan(r.u[0, 1]) and np.isinf(r.v[0, 2])
        assert np.isnan(r.depth[0, :4]).all()
        np.testing.assert_array_equal(r.image[0, :4], 0.0)
        np.testing.assert_array_equal(errors[0, :4], 0.0)
        np.testing.assert_array_equal(weights, [[0.0, 1.0]] * 4 + [[0.5, 0.5]])


class TestProjectionError:
    def test_unit_gap_is_zero(self):
        assert projection_error(3.0, 2.0) == 0.0

    def test_exp_minus_two_gap(self):
        assert abs(projection_error(2.0 + math.exp(-2.0), 2.0) - 2.0) <= 1e-12

    def test_large_gap_clamped(self):
        assert projection_error(12.0, 2.0) == 0.0

    def test_zero_gap_capped(self):
        assert projection_error(2.0, 2.0) == 30.0

    def test_missing_sample_is_zero(self):
        assert projection_error(np.nan, 2.0) == 0.0

    def test_non_increasing_in_gap(self):
        gaps = np.linspace(0.0, 2.0, 200)
        errs = projection_error(gaps, 0.0)
        assert np.all(np.diff(errs) <= 1e-12)
        assert np.all(errs[gaps >= 1.0] == 0.0)


class TestMultiviewWeights:
    def test_hand_case(self):
        np.testing.assert_allclose(multiview_weights([1.0, 1.0, 2.0]),
                                   [0.25, 0.25, 0.5], atol=1e-15)

    def test_one_hot_preserved(self):
        np.testing.assert_array_equal(multiview_weights([0.0, 5.0, 0.0]),
                                      [0.0, 1.0, 0.0])

    def test_all_zero_uniform_fallback(self):
        np.testing.assert_allclose(multiview_weights([0.0, 0.0, 0.0]),
                                   [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_probability_vector(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            w = multiview_weights(rng.uniform(0.0, 5.0, 9))
            assert np.all(w >= 0.0)
            assert abs(w.sum() - 1.0) <= 1e-12

    def test_invalid_views_zeroed(self):
        w = multiview_weights([1.0, 1.0, 1.0], valid=[True, False, True])
        np.testing.assert_allclose(w, [0.5, 0.0, 0.5], atol=1e-15)

    def test_all_zero_fallback_keeps_unseen_views_out(self):
        # uniform over the valid views; over all K only when none is valid
        w = multiview_weights([[0.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]],
                              valid=[[True, False, True, True], [False, False, True, True]])
        np.testing.assert_array_equal(w[0], [1 / 3, 0.0, 1 / 3, 1 / 3])
        np.testing.assert_array_equal(w[1], [0.0, 0.0, 0.5, 0.5])
        np.testing.assert_array_equal(multiview_weights([0.0, 3.0], valid=[False, False]),
                                      [0.5, 0.5])

    def test_rows_equal_their_own_1d_calls(self):
        rng = np.random.default_rng(9)
        for k in (1, 3, 9, 17):
            e = rng.uniform(0.0, 5.0, (6, k))
            e[1] = 0.0                                   # all-zero row
            valid = rng.random((6, k)) > 0.3
            valid[1] = np.arange(k) % 2 == 0             # ... seen by every other view
            valid[2] = False                             # all-invalid row
            valid[3] = True
            for errors, mask in ((e, valid), (e.T.copy().T, valid.T.copy().T)):
                w = multiview_weights(errors, mask)
                assert w.shape == (6, k)
                for row in range(6):
                    one = multiview_weights(e[row], valid[row])
                    assert w[row].tobytes() == one.tobytes()
            w = multiview_weights(e, valid)
            np.testing.assert_array_equal(w[1], valid[1] / np.count_nonzero(valid[1]))
            np.testing.assert_array_equal(w[2], 1.0 / k)
            unmasked = multiview_weights(e.reshape(2, 3, k))
            for row in range(6):
                assert unmasked.reshape(6, k)[row].tobytes() == multiview_weights(e[row]).tobytes()

    def test_scale_invariance_of_log_base(self):
        # rescaling all errors (a change of log base) leaves weights unchanged
        e = np.array([0.5, 1.5, 3.0])
        np.testing.assert_allclose(multiview_weights(e),
                                   multiview_weights(e * math.log(10.0)),
                                   atol=1e-15)


class TestViewBundle:
    def test_shape_checks(self):
        cam = make_camera()
        view = View(image=np.zeros((4, 5, 3)), depth=np.ones((4, 5)),
                    confidence=np.ones((4, 5)), camera=cam)
        bundle = ViewBundle(views=[view], target_index=0)
        assert bundle.target is view
        with pytest.raises(ValueError):
            ViewBundle(views=[view], target_index=1)
        with pytest.raises(ValueError):
            View(image=np.zeros((4, 5, 3)), depth=np.zeros((4, 5)),
                 confidence=np.ones((4, 5)), camera=cam)


class TestBilinear:
    def test_exact_at_grid_points(self):
        rng = np.random.default_rng(5)
        grid = rng.uniform(0, 1, (6, 7, 3))
        np.testing.assert_array_equal(bilinear_sample(grid, 3.0, 2.0), grid[2, 3])

    def test_midpoint_average(self):
        grid = np.array([[0.0, 2.0]])
        assert bilinear_sample(grid, 0.5, 0.0) == 1.0
