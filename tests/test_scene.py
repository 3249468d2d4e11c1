import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxlight.brdf import MaterialSample, ggx_specular, rerender_pixel
from voxlight.scene import (SceneSpec, _scene_intersect, generate_scene,
                            make_cameras, per_pixel_env_maps, render_images)
from voxlight.sg import (EnvMapGrid, Frame, hemisphere_frames, texel_local_directions,
                         texel_solid_angles)


def small_spec(**kwargs):
    defaults = dict(image_width=40, image_height=30, env_width=16, env_height=8,
                    num_views=3, env_supersample=3)
    defaults.update(kwargs)
    return SceneSpec(**defaults)


class TestSpecValidation:
    def test_bad_view_count(self):
        with pytest.raises(ValueError):
            SceneSpec(num_views=10)

    def test_negative_radiance(self):
        with pytest.raises(ValueError):
            SceneSpec(light_radiance=(-1.0, 0.0, 0.0))


class TestCameraGrid:
    def test_nine_cameras_form_equal_spaced_grid(self):
        spec = small_spec(num_views=9)
        cams = make_cameras(spec, mean_depth=2.5)
        centers = np.stack([c.center for c in cams])
        baseline = spec.baseline_ratio * 2.5
        # all centers lie on a plane orthogonal to the optical axis
        forward = cams[0].rotation[:, 2]
        offsets = centers - centers[0]
        np.testing.assert_allclose(offsets @ forward, 0.0, atol=1e-12)
        # offsets on the 3x3 lattice with spacing = baseline
        right = cams[0].rotation[:, 0]
        up = -cams[0].rotation[:, 1]
        coords = np.stack([offsets @ right, offsets @ up], axis=-1) / baseline
        expected = {(0, 0), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1),
                    (-1, -1), (-1, 0), (-1, 1)}
        got = {tuple(np.round(c).astype(int)) for c in coords}
        assert got == expected
        np.testing.assert_allclose(coords, np.round(coords), atol=1e-12)

    def test_shared_orientation(self):
        cams = make_cameras(small_spec(num_views=5), mean_depth=2.0)
        for cam in cams[1:]:
            np.testing.assert_array_equal(cam.rotation, cams[0].rotation)


class TestGenerateScene:
    def test_zero_radiance_gives_black_scene(self):
        scene = generate_scene(small_spec(light_radiance=(0.0, 0.0, 0.0)))
        for view in scene.bundle.views:
            np.testing.assert_array_equal(view.image, np.zeros_like(view.image))
        np.testing.assert_array_equal(scene.gt_env, np.zeros_like(scene.gt_env))

    def test_maps_shapes_and_confidence(self):
        spec = small_spec(num_views=2)
        scene = generate_scene(spec)
        assert len(scene.bundle) == 2
        view = scene.bundle.target
        assert view.image.shape == (30, 40, 3)
        np.testing.assert_array_equal(view.confidence, np.ones((30, 40)))
        assert scene.gt_env.shape == (30, 40, 8, 16, 3)
        assert np.all(view.depth > 0.0)

    def test_normals_unit_and_camera_facing(self):
        scene = generate_scene(small_spec(num_views=1))
        n = scene.gt_normal[0]
        np.testing.assert_allclose(np.linalg.norm(n, axis=-1), 1.0, atol=1e-12)
        assert np.all(n[..., 2] < 0.0)  # +z forward, normals face the camera

    def test_distant_small_light_constant_irradiance(self):
        # light far above: image = albedo * irradiance, constant within 1%
        spec = SceneSpec(image_width=40, image_height=30, num_views=1,
                         env_width=32, env_height=16, env_supersample=12,
                         plane_roughness=1.0, camera_pitch_deg=90.0,
                         camera_height=2.0, fov_deg=40.0,
                         light_center=(0.0, 0.0, 60.0),
                         light_size=(16.0, 16.0, 1.0),
                         light_radiance=(600.0, 600.0, 600.0))
        scene = generate_scene(spec)
        img = scene.bundle.target.image
        lum = img.mean(axis=-1)
        spread = (lum.max() - lum.min()) / lum.mean()
        assert spread <= 0.01
        # analytic oracle: on-axis solid angle of the bottom face
        diffuse, _ = render_images(scene.surface_points,
                                   scene.surface_normals, scene.gt_albedo[0],
                                   scene.gt_rough[0], scene.gt_env,
                                   scene.bundle.target.camera.center)
        a, d = 16.0, 59.5  # light bottom face edge, height above the plane
        omega = 4.0 * math.atan(a * a / (2.0 * d * math.sqrt(
            4.0 * d * d + 2.0 * a * a)))
        expected = np.asarray(spec.plane_albedo) * 600.0 * omega / math.pi
        np.testing.assert_allclose(diffuse.reshape(-1, 3).mean(axis=0),
                                   expected, rtol=0.025)

    def test_ground_truth_self_consistent(self):
        spec = small_spec(num_views=1)
        scene = generate_scene(spec)
        view = scene.bundle.target
        rng = np.random.default_rng(0)
        h, w = spec.image_height, spec.image_width
        for _ in range(20):
            i, j = int(rng.integers(0, h)), int(rng.integers(0, w))
            n_world = scene.surface_normals[i, j]
            frame = Frame.from_normal(n_world)
            env = EnvMapGrid(width=spec.env_width, height=spec.env_height,
                             frame=frame, texels=scene.gt_env[i, j])
            mat = MaterialSample(tuple(scene.gt_albedo[0, i, j]),
                                 float(scene.gt_rough[0, i, j]), n_world)
            v = view.camera.center - scene.surface_points[i, j]
            v /= np.linalg.norm(v)
            d, s = rerender_pixel(mat, env, v)
            ref = view.image[i, j]
            np.testing.assert_allclose(d + s, ref, rtol=0.01)

    def test_wall_occludes_and_is_imaged(self):
        spec = small_spec(num_views=1, wall_offset=4.0, camera_pitch_deg=25.0)
        scene = generate_scene(spec)
        n = scene.gt_normal[0]
        kinds = np.unique(np.round(n[..., 2], 3))
        assert len(kinds) >= 2  # both plane and wall normals present

    def test_degenerate_spec_rejected(self):
        with pytest.raises(ValueError):
            generate_scene(small_spec(num_views=1, camera_pitch_deg=0.0))


# ---------------------------------------------------------------------------
# Frozen full-scan per_pixel_env_maps: every sub-ray of every texel of every
# pixel, in pixel-row chunks. The culled version must equal it bitwise.
# ---------------------------------------------------------------------------

def _full_scan_box_t(origins, dirs, lo, hi):
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(np.abs(dirs) > 1e-300, 1.0 / dirs, np.inf)
    t0 = (lo - origins) * inv
    t1 = (hi - origins) * inv
    t0, t1 = np.minimum(t0, t1), np.maximum(t0, t1)
    near = np.max(t0, axis=-1)
    far = np.min(t1, axis=-1)
    hit = (far >= np.maximum(near, 0.0))
    return np.where(hit, np.maximum(near, 0.0), np.inf)


def full_scan_env_maps(spec, points, normals, chunk_rows=8):
    h, w = points.shape[:2]
    ha, wa = spec.env_height, spec.env_width
    s = spec.env_supersample
    lo = np.asarray(spec.light_center) - np.asarray(spec.light_size) / 2.0
    hi = np.asarray(spec.light_center) + np.asarray(spec.light_size) / 2.0
    radiance = np.asarray(spec.light_radiance)
    dth = 0.5 * math.pi / ha
    dph = 2.0 * math.pi / wa
    sub = (np.arange(s) + 0.5) / s
    edges = np.cos(np.arange(ha + 1) * dth)
    cth = edges[:-1, None] + sub[None, :] * (edges[1:, None] - edges[:-1, None])
    sth = np.sqrt(np.maximum(1.0 - cth * cth, 0.0))
    ph = -math.pi + (np.arange(wa)[:, None] + sub[None, :]) * dph
    sph, cph = np.sin(ph), np.cos(ph)
    local = np.stack([
        np.einsum("is,jt->ijst", sth, cph).reshape(ha, wa, s * s),
        np.einsum("is,jt->ijst", sth, sph).reshape(ha, wa, s * s),
        np.broadcast_to(cth[:, None, :, None], (ha, wa, s, s)).reshape(ha, wa, s * s),
    ], axis=-1)
    flat_p = points.reshape(-1, 3)
    flat_n = normals.reshape(-1, 3)
    ref = np.where(np.abs(flat_n[:, 2:3]) < 0.9, np.array([0.0, 0.0, 1.0]),
                   np.array([1.0, 0.0, 0.0]))
    tang = np.cross(ref, flat_n)
    tang /= np.linalg.norm(tang, axis=-1, keepdims=True)
    bit = np.cross(flat_n, tang)
    out = np.empty((h * w, ha, wa, 3))
    step = max(chunk_rows * w, 1)
    eps = 1e-5
    for start in range(0, h * w, step):
        sl = slice(start, min(start + step, h * w))
        dirs = (local[None, ..., 0, None] * tang[sl, None, None, None, :]
                + local[None, ..., 1, None] * bit[sl, None, None, None, :]
                + local[None, ..., 2, None] * flat_n[sl, None, None, None, :])
        origins = flat_p[sl][:, None, None, None, :] + eps * flat_n[sl][:, None, None, None, :]
        origins = np.broadcast_to(origins, dirs.shape)
        t_light = _full_scan_box_t(origins, dirs, lo, hi)
        t_occ, _ = _scene_intersect(spec, origins, dirs)
        visible = np.isfinite(t_light) & (t_light < t_occ)
        out[sl] = visible.mean(axis=-1)[..., None] * radiance
    return out.reshape(h, w, ha, wa, 3)


def view_surface(spec):
    """World points and normals seen by the first camera of ``spec``."""
    cam = make_cameras(spec, mean_depth=2.5)[0]
    dirs = cam.pixel_directions(spec.image_height, spec.image_width)
    origins = np.broadcast_to(cam.center, dirs.shape)
    t, which = _scene_intersect(spec, origins, dirs)
    assert np.all(np.isfinite(t))
    normals = np.where(which[..., None] == 0, np.array([0.0, 0.0, 1.0]),
                       np.array([0.0, -1.0, 0.0]))
    return origins + t[..., None] * dirs, normals


def assert_matches_full_scan(spec, points, normals):
    got = per_pixel_env_maps(spec, points, normals)
    want = full_scan_env_maps(spec, points, normals)
    np.testing.assert_array_equal(got, want)
    assert got.tobytes() == want.tobytes()
    return got


class TestEnvMapCull:
    def test_default_spec_bitwise(self):
        spec = SceneSpec()
        got = assert_matches_full_scan(spec, *view_surface(spec))
        # lit texels exist, and most of the texels are dark
        lit = np.any(got > 0.0, axis=-1).sum(axis=(2, 3))
        assert lit.min() >= 1 and lit.mean() < 0.1 * spec.env_height * spec.env_width

    @pytest.mark.parametrize("kwargs", [
        dict(wall_offset=4.5), dict(wall_offset=1.5, camera_pitch_deg=25.0),
        dict(env_supersample=1), dict(env_supersample=4),
        dict(env_height=4, env_width=8), dict(env_height=16, env_width=32)])
    def test_spec_variants_bitwise(self, kwargs):
        spec = small_spec(**kwargs)
        assert_matches_full_scan(spec, *view_surface(spec))

    def test_tilted_normals_bitwise(self):
        spec = small_spec(wall_offset=4.5)
        points, normals = view_surface(spec)
        rng = np.random.default_rng(7)
        tilted = normals + rng.normal(scale=0.6, size=normals.shape)
        tilted /= np.linalg.norm(tilted, axis=-1, keepdims=True)
        assert_matches_full_scan(spec, points, tilted)

    def test_points_near_and_inside_the_light(self):
        spec = SceneSpec()
        c = np.asarray(spec.light_center)
        r = 0.5 * float(np.linalg.norm(spec.light_size))
        offsets = np.array([[0.0, 0.0, 0.0], [0.3, 0.2, -0.1],   # inside the box
                            [0.0, 0.0, -0.26], [0.5, 0.0, 0.0],  # inside the sphere
                            [0.0, 0.0, -0.99 * r], [0.0, -1.01 * r, 0.0],
                            [0.0, 0.0, -2.0 * r]])
        points = (c + offsets)[None]
        normals = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0],
                            [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0],
                            [0.0, 0.0, 1.0]])[None]
        got = assert_matches_full_scan(spec, points, normals)
        # from inside the box every sub-ray sees the light
        np.testing.assert_array_equal(got[0, 0], np.broadcast_to(
            spec.light_radiance, got[0, 0].shape))

    def test_origin_at_the_light_centre(self):
        spec = SceneSpec()
        normal = np.array([0.0, 0.0, 1.0])
        point = np.asarray(spec.light_center) - 1e-5 * normal
        assert np.array_equal(point + 1e-5 * normal, spec.light_center)
        got = assert_matches_full_scan(spec, point[None, None], normal[None, None])
        assert np.all(got > 0.0)

    def test_points_around_the_light(self):
        # shells at 1.02r-3r around the light: the light covers a wide cone
        spec = SceneSpec()
        c = np.asarray(spec.light_center)
        r = 0.5 * float(np.linalg.norm(spec.light_size))
        rng = np.random.default_rng(11)
        dirs = rng.normal(size=(40, 3))
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        radii = np.array([1.02, 1.1, 1.3, 1.7, 2.2, 3.0])[:, None, None] * r
        points = c + radii * dirs                          # (6, 40, 3)
        normals = -dirs + rng.normal(scale=0.5, size=points.shape)
        normals /= np.linalg.norm(normals, axis=-1, keepdims=True)
        assert_matches_full_scan(spec, points, normals)

    @settings(max_examples=40, deadline=None)
    @given(points=st.lists(st.tuples(st.floats(-2.0, 3.0), st.floats(-2.5, 4.0),
                                      st.floats(0.0, 3.5)), min_size=1, max_size=6),
           normals=st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 3),
                            min_size=6, max_size=6),
           wall=st.sampled_from([None, 1.5, 4.5]))
    def test_random_points_and_normals_bitwise(self, points, normals, wall):
        spec = SceneSpec(wall_offset=wall)
        n = np.array(normals[:len(points)])
        length = np.linalg.norm(n, axis=-1, keepdims=True)
        n = np.where(length > 1e-3, n / np.maximum(length, 1e-3), [0.0, 0.0, 1.0])
        assert_matches_full_scan(spec, np.array(points)[None], n[None])


# ---------------------------------------------------------------------------
# Frozen copy of render_images from before its shading moved into
# brdf.shade_env_maps (its unused ``spec`` argument dropped). The core must
# give the same bytes.
# ---------------------------------------------------------------------------

def frozen_render_images(points, normals, albedo, rough, envs, cam_center):
    h, w = points.shape[:2]
    ha, wa = envs.shape[2:4]
    theta = (np.arange(ha) + 0.5) * (0.5 * math.pi / ha)
    cos = np.cos(theta)
    omega = texel_solid_angles(ha, wa)
    cw = (cos * omega)[:, None]
    flat_env = envs.reshape(h * w, ha, wa, 3)
    diffuse = (albedo.reshape(-1, 3) / math.pi
               * np.sum(flat_env * cw[None, ..., None], axis=(1, 2)))
    flat_p = points.reshape(-1, 3)
    flat_n = normals.reshape(-1, 3)
    tang, bit = hemisphere_frames(flat_n)
    lx, ly, lz = texel_local_directions(ha, wa).T
    specular = np.empty_like(diffuse)
    v = cam_center[None, :] - flat_p
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    flat_r = rough.reshape(-1)
    omega_flat = np.repeat(omega, wa)
    chunk = 2048
    for start in range(0, flat_p.shape[0], chunk):
        sl = slice(start, min(start + chunk, flat_p.shape[0]))
        dirs = (lx[None, :, None] * tang[sl, None, :]
                + ly[None, :, None] * bit[sl, None, :]
                + lz[None, :, None] * flat_n[sl, None, :])
        brdf = ggx_specular(v[sl], dirs, flat_n[sl], flat_r[sl])
        wgt = brdf * (lz * omega_flat)[None, :]
        specular[sl] = np.einsum("pt,ptc->pc", wgt,
                                 flat_env[sl].reshape(-1, ha * wa, 3))
    return diffuse.reshape(h, w, 3), specular.reshape(h, w, 3)


class TestRenderImages:
    @pytest.mark.parametrize("spec", [
        small_spec(num_views=1, wall_offset=4.0, camera_pitch_deg=25.0),
        SceneSpec(num_views=1),
    ], ids=["wall_scene", "default_target_view"])
    def test_bitwise_with_frozen_copy(self, spec):
        scene = generate_scene(spec)
        args = (scene.surface_points, scene.surface_normals, scene.gt_albedo[0],
                scene.gt_rough[0], scene.gt_env, scene.bundle.target.camera.center)
        got, want = render_images(*args), frozen_render_images(*args)
        assert np.any(want[1] > 0.0)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        np.testing.assert_array_equal(scene.bundle.target.image, got[0] + got[1])

    def test_env_maps_in_other_frames_bitwise(self):
        # random normals, roughness and envs, more pixels than one chunk
        rng = np.random.default_rng(8)
        h, w, ha, wa = 50, 50, 8, 16
        n = rng.normal(size=(h, w, 3))
        n /= np.linalg.norm(n, axis=-1, keepdims=True)
        dense = rng.uniform(0.0, 5.0, (h, w, ha, wa, 3))
        # mostly unlit texels in the first half of the pixels, then dense;
        # all-zero, one-channel, partly lit and fully lit pixels throughout
        mixed = dense.reshape(h * w, ha * wa, 3).copy()
        mixed[:h * w // 2] *= rng.random((h * w // 2, ha * wa, 1)) < 0.03
        mixed[::7] = 0.0
        mixed[3::11, :, :2] = 0.0
        mixed[5::13] = dense.reshape(h * w, ha * wa, 3)[5::13]
        for envs in (dense, mixed.reshape(dense.shape)):
            args = (rng.normal(size=(h, w, 3)), n, rng.uniform(0.0, 1.0, (h, w, 3)),
                    rng.uniform(0.05, 1.0, (h, w)), envs, np.array([0.3, -4.0, 2.0]))
            got, want = render_images(*args), frozen_render_images(*args)
            assert np.any(want[1] > 0.0)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()
