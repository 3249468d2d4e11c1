import math

import numpy as np
import pytest

from voxlight import insertion
from voxlight.brdf import ggx_specular
from voxlight.geometry import Camera, View
from voxlight.insertion import (DEFAULT_ENV_RES, DiffuseMaterial, InsertedSphere,
                                MirrorMaterial, _diffuse_radiance, _ray_sphere_t,
                                _shadow_ratios, insert_object, shade_sphere_pixel)
from voxlight.sg import EnvMapGrid, Frame, texel_directions, texel_solid_angles
from voxlight.volume import (Bounds, EnvTarget, VSGFitOptions, VSGFitProblem, VSGVolume,
                             composite_rays, extract_env_map)

BOUNDS = Bounds(lo=np.zeros(3), hi=np.full(3, 2.0))
FRAME = Frame.from_normal([0.0, 0.0, 1.0])
FRAME_ROWS = (FRAME.normal[None], FRAME.tangent[None], FRAME.bitangent[None])


def sphere_hits(origin, dirs, sphere):
    """Hit points and outward unit normals of the rays from ``origin`` along
    unit ``dirs`` (..., 3) that reach the sphere, and which rays do."""
    flat = dirs.reshape(-1, 3)
    t = _ray_sphere_t(np.broadcast_to(origin, flat.shape), flat, sphere.center, sphere.radius)
    hit = np.isfinite(t)
    points = origin + np.where(hit, t, 0.0)[:, None] * flat
    normals = (points - sphere.center) / sphere.radius
    return points.reshape(dirs.shape), normals.reshape(dirs.shape), hit.reshape(dirs.shape[:-1])


def fog_volume(alpha=0.15, intensity=(1.2, 1.0, 0.8), dims=(6, 6, 6)):
    return VSGVolume.uniform(dims, BOUNDS, alpha=alpha, sharpness=0.0,
                             intensity=intensity)


class TestRaySphere:
    def sphere(self, center=(1.0, 1.0, 1.0), radius=0.25):
        return InsertedSphere(center=np.array(center), radius=radius,
                              material=MirrorMaterial())

    def test_through_center(self):
        s = self.sphere()
        t = _ray_sphere_t(np.array([[1.0, 1.0, -1.0]]), np.array([[0.0, 0.0, 1.0]]),
                          s.center, s.radius)[0]
        assert abs(t - (2.0 - 0.25)) <= 1e-12
        _, normal, hit = sphere_hits(np.array([1.0, 1.0, -1.0]), np.array([0.0, 0.0, 1.0]), s)
        assert hit
        np.testing.assert_allclose(normal, [0.0, 0.0, -1.0], atol=1e-12)

    def test_tangent_geometry(self):
        # perpendicular offset b: hit at t = sqrt(d^2 - b^2) for the chord center
        s = self.sphere(radius=0.25)
        b = 0.2
        t = _ray_sphere_t(np.array([[1.0 + b, 1.0, -1.0]]), np.array([[0.0, 0.0, 1.0]]),
                          s.center, s.radius)[0]
        assert np.isfinite(t)
        chord_half = math.sqrt(0.25 ** 2 - b ** 2)
        assert abs(t - (2.0 - chord_half)) <= 1e-12

    def test_pointing_away_misses(self):
        s = self.sphere()
        t = _ray_sphere_t(np.array([[1.0, 1.0, -1.0]]), np.array([[0.0, 0.0, -1.0]]),
                          s.center, s.radius)
        assert t[0] == math.inf

    def test_radius_validated(self):
        with pytest.raises(ValueError):
            InsertedSphere(center=np.zeros(3), radius=0.0,
                           material=MirrorMaterial())

    @pytest.mark.parametrize("center, radius", [
        ((math.nan, 1.0, 1.0), 0.2), ((1.0, math.inf, 1.0), 0.2), ((1.0, 1.0, 1.0), math.nan),
        ((1.0, 1.0, 1.0), math.inf), ((1.0, 1.0, 1.0), -0.2)],
        ids=["nan_center", "inf_center", "nan_radius", "inf_radius", "negative_radius"])
    def test_malformed_sphere_rejected(self, center, radius):
        with pytest.raises(ValueError, match="center|radius"):
            InsertedSphere(center=np.array(center), radius=radius, material=MirrorMaterial())

    @pytest.mark.parametrize("albedo", [(0.5, 0.5), (0.5, 0.5, 0.5, 0.5), (0.5, math.nan, 0.5)],
                             ids=["two", "four", "nan"])
    def test_albedo_needs_three_components(self, albedo):
        with pytest.raises(ValueError, match="albedo"):
            DiffuseMaterial(albedo=albedo, roughness=0.5)


class TestShadeSphere:
    def test_mirror_in_fog_is_fog_radiance(self):
        vol = fog_volume()
        sphere = InsertedSphere(center=np.array([1.0, 1.0, 1.0]), radius=0.3,
                                material=MirrorMaterial())
        n = 64
        series = sum((1 - 0.15) ** k * 0.15 for k in range(n))
        expected = series * np.array([1.2, 1.0, 0.8])
        rng = np.random.default_rng(0)
        for _ in range(10):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            point, normal, _ = sphere_hits(np.array([1.0, 1.0, 1.0]) - 0.9 * d, d, sphere)
            shaded = shade_sphere_pixel(point, normal, sphere.material, vol, d,
                                        n_samples=n)
            np.testing.assert_allclose(shaded, expected, rtol=1e-9)

    def test_diffuse_white_furnace(self):
        vol = fog_volume(alpha=0.3, intensity=(0.9, 0.9, 0.9))
        n = 96
        series = sum((1 - 0.3) ** k * 0.3 for k in range(n))
        level = series * 0.9
        sphere = InsertedSphere(center=np.array([1.0, 1.0, 1.0]), radius=0.2,
                                material=DiffuseMaterial((1.0, 1.0, 1.0), 1.0))
        rng = np.random.default_rng(1)
        for _ in range(6):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            point, normal, _ = sphere_hits(np.array([1.0, 1.0, 1.0]) - 0.8 * d, d, sphere)
            shaded = shade_sphere_pixel(point, normal, sphere.material, vol, d,
                                        n_samples=n)
            np.testing.assert_allclose(shaded, level, rtol=0.02)


def single_emitter_volume(intensity=(40.0, 36.0, 30.0)):
    vox = np.zeros((8, 8, 8, 7))
    vox[3, 3, 7, 0] = 1.0
    vox[3, 3, 7, 4:7] = intensity
    return VSGVolume(bounds=BOUNDS, voxels=vox)


class TestShadowRatio:
    def test_sphere_below_hemisphere(self):
        vol = fog_volume()
        sphere = InsertedSphere(center=np.array([1.0, 1.0, -0.5]), radius=0.3,
                                material=MirrorMaterial())
        ratio = _shadow_ratios(np.array([[1.0, 1.0, 0.2]]), *FRAME_ROWS, vol, sphere,
                               DEFAULT_ENV_RES, 64)
        assert ratio[0] == 1.0

    def test_zero_radius_limit(self):
        vol = fog_volume()
        sphere = InsertedSphere(center=np.array([1.0, 1.0, 1.0]), radius=1e-12,
                                material=MirrorMaterial())
        ratio = _shadow_ratios(np.array([[1.0, 1.0, 0.2]]), *FRAME_ROWS, vol, sphere,
                               DEFAULT_ENV_RES, 64)
        assert ratio[0] == 1.0

    def test_dark_volume_ratio_one(self):
        vol = VSGVolume.uniform((4, 4, 4), BOUNDS, alpha=0.0)
        sphere = InsertedSphere(center=np.array([1.0, 1.0, 1.0]), radius=0.4,
                                material=MirrorMaterial())
        assert _shadow_ratios(np.array([[1.0, 1.0, 0.2]]), *FRAME_ROWS, vol, sphere,
                              DEFAULT_ENV_RES, 64)[0] == 1.0

    def test_single_texel_accounting(self):
        vol = single_emitter_volume()
        point = np.array([0.875, 0.875, 0.1])
        n_dirs = (8, 16)
        env = extract_env_map(vol, point, FRAME, n_dirs[0], n_dirs[1], 64)
        cos = np.cos((np.arange(n_dirs[0]) + 0.5) * (math.pi / 2 / n_dirs[0]))
        omega = texel_solid_angles(*n_dirs)
        energy = (env.texels.mean(axis=-1) * (cos * omega)[:, None])
        total = energy.sum()
        bright = np.unravel_index(np.argmax(energy), energy.shape)
        bright_dir = env.directions()[bright]

        # sphere centered on the bright texel's ray, big enough to cover it
        center = point + 0.45 * bright_dir
        sphere = InsertedSphere(center=center, radius=0.12,
                                material=MirrorMaterial())
        ratio = _shadow_ratios(point[None], *FRAME_ROWS, vol, sphere, n_dirs, 64)[0]
        # blocked texels identified independently by ray-sphere tests
        dirs = texel_directions(*n_dirs, FRAME).reshape(-1, 3)
        from voxlight.volume import env_offset
        origins = np.broadcast_to(point + env_offset(vol) * FRAME.normal,
                                  dirs.shape)
        blocked = np.isfinite(_ray_sphere_t(origins, dirs, sphere.center,
                                            sphere.radius))
        share = energy.reshape(-1)[blocked].sum() / total
        assert share > 0.0
        assert abs(ratio - (1.0 - share)) <= 1e-9

    def test_monotone_in_radius(self):
        vol = single_emitter_volume()
        point = np.array([0.9, 0.9, 0.1])
        ratios = []
        for radius in (0.05, 0.1, 0.2, 0.35):
            sphere = InsertedSphere(center=np.array([1.0, 1.0, 1.0]),
                                    radius=radius, material=MirrorMaterial())
            ratios.append(_shadow_ratios(point[None], *FRAME_ROWS, vol, sphere,
                                         DEFAULT_ENV_RES, 64)[0])
        assert all(0.0 <= r <= 1.0 for r in ratios)
        assert all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))

    def test_any_frame_matches_the_frozen_scalar_path(self):
        # frozen copy of the scalar body that became a batch of one: world
        # texel directions of the frame, cos from dirs . n, Python-float clamp
        def frozen(point, frame, vol, sphere, n_dirs, n_samples):
            from voxlight.volume import composite_rays, env_offset
            height, width = n_dirs
            origin = point + env_offset(vol) * frame.normal
            dirs = texel_directions(height, width, frame).reshape(-1, 3)
            origins = np.broadcast_to(origin, dirs.shape)
            radiance = composite_rays(vol, origins, dirs, vol.bounds.diagonal,
                                      n_samples)
            cos = np.maximum(dirs @ frame.normal, 0.0)
            weight = (cos * np.repeat(texel_solid_angles(height, width), width))[:, None]
            total = float(np.sum(radiance * weight))
            if total <= 0.0:
                return 1.0
            blocked = np.isfinite(_ray_sphere_t(origins, dirs, sphere.center,
                                                sphere.radius))
            occluded = float(np.sum(radiance[blocked] * weight[blocked]))
            return max(0.0, min(1.0, (total - occluded) / total))

        vol = single_emitter_volume()
        point = np.array([0.9, 0.8, 0.1])
        sphere = InsertedSphere(center=np.array([1.0, 1.0, 0.7]), radius=0.25,
                                material=MirrorMaterial())
        base = Frame.from_normal(unit_vector([0.1, -0.2, 1.0]))
        frames = []
        for turn in (0.0, 0.7, 2.5):
            c, s_ = math.cos(turn), math.sin(turn)
            frames.append(Frame(normal=base.normal,
                                tangent=c * base.tangent + s_ * base.bitangent,
                                bitangent=-s_ * base.tangent + c * base.bitangent))
        # the three frames as the rows of one batch at the same point
        ratios = _shadow_ratios(np.tile(point, (3, 1)),
                                *(np.stack([getattr(f, a) for f in frames])
                                  for a in ("normal", "tangent", "bitangent")),
                                vol, sphere, (8, 16), 32)
        for frame, ratio in zip(frames, ratios):
            want = frozen(point, frame, vol, sphere, (8, 16), 32)
            assert 0.0 < ratio < 1.0
            assert abs(ratio - want) <= 1e-12


def unit_vector(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def overhead_view(h=36, w=48, height=1.6):
    # camera above the box, looking straight down at the z = 0 plane
    rot = np.array([[1.0, 0.0, 0.0],
                    [0.0, -1.0, 0.0],
                    [0.0, 0.0, -1.0]])
    cam = Camera(fx=45.0, fy=45.0, cx=(w - 1) / 2, cy=(h - 1) / 2,
                 rotation=rot, translation=np.array([1.0, 1.0, height]))
    depth = np.full((h, w), height)
    image = np.full((h, w, 3), 0.5)
    conf = np.ones((h, w))
    normal_cam = np.broadcast_to([0.0, 0.0, -1.0], (h, w, 3)).copy()
    return View(image=image, depth=depth, confidence=conf, camera=cam), normal_cam


class TestInsertObject:
    def test_unaffected_pixels_bitwise_identical(self):
        view, normals = overhead_view()
        vol = VSGVolume.uniform((4, 4, 4), BOUNDS, alpha=0.0)  # dark volume
        sphere = InsertedSphere(center=np.array([1.0, 1.0, 0.8]), radius=0.2,
                                material=MirrorMaterial())
        out = insert_object(view, vol, sphere, normal_map=normals,
                            shadow_dirs=(4, 8), n_samples=8)
        # dark volume: ratio is 1 by convention; only sphere pixels change
        u, v, z = view.camera.project(np.array([[1.0, 1.0, 0.8]]))
        changed = np.argwhere(np.any(out != view.image, axis=-1))
        if changed.size:
            dist = np.hypot(changed[:, 1] - u[0], changed[:, 0] - v[0])
            assert dist.max() <= 12.0  # all changed pixels near the sphere
        # far corner certainly unchanged, bitwise
        np.testing.assert_array_equal(out[0, 0], view.image[0, 0])

    def test_sphere_filling_frame_is_pure_shading(self):
        view, normals = overhead_view(h=12, w=16)
        vol = fog_volume()
        sphere = InsertedSphere(center=np.array([1.0, 1.0, 0.9]), radius=0.75,
                                material=MirrorMaterial())
        out = insert_object(view, vol, sphere, normal_map=normals,
                            shadow_dirs=(4, 8), n_samples=64)
        series = sum((1 - 0.15) ** k * 0.15 for k in range(64))
        expected = series * np.array([1.2, 1.0, 0.8])
        np.testing.assert_allclose(out, np.broadcast_to(expected, out.shape),
                                   rtol=1e-6)

    def test_mirror_fog_shading_radius_invariant(self):
        view, normals = overhead_view(h=16, w=20)
        vol = fog_volume()
        outs = []
        for radius in (0.15, 0.4):
            sphere = InsertedSphere(center=np.array([1.0, 1.0, 0.9]),
                                    radius=radius, material=MirrorMaterial())
            out = insert_object(view, vol, sphere, normal_map=normals,
                                shadow_dirs=(4, 8), n_samples=64)
            u, v, _ = view.camera.project(np.array([[1.0, 1.0, 0.9]]))
            outs.append(out[int(round(v[0])), int(round(u[0]))])
        np.testing.assert_allclose(outs[0], outs[1], rtol=1e-9)

    def test_mirror_pixels_equal_per_hit_shading(self):
        rng = np.random.default_rng(21)
        vox = np.stack([rng.uniform(0.0, 0.5, (5, 5, 5)),
                        rng.uniform(0.0, math.pi, (5, 5, 5)),
                        rng.uniform(-math.pi, math.pi, (5, 5, 5)),
                        rng.uniform(0.0, 8.0, (5, 5, 5))]
                       + [rng.uniform(0.0, 2.0, (5, 5, 5))] * 3, axis=-1)
        vol = VSGVolume(bounds=BOUNDS, voxels=vox)
        view, normals = overhead_view(h=16, w=20)
        dirs = view.camera.pixel_directions(16, 20)
        for material in (MirrorMaterial(), DiffuseMaterial((0.7, 0.6, 0.5), 0.3)):
            sphere = InsertedSphere(center=np.array([1.0, 1.0, 0.7]), radius=0.35,
                                    material=material)
            out = insert_object(view, vol, sphere, normal_map=normals,
                                shadow_dirs=(4, 8), n_samples=16)
            points, hit_normals, hit = sphere_hits(view.camera.center, dirs, sphere)
            for i, j in np.argwhere(hit):
                np.testing.assert_array_equal(
                    out[i, j], shade_sphere_pixel(points[i, j], hit_normals[i, j], material,
                                                  vol, dirs[i, j], n_samples=16))
            assert np.count_nonzero(hit) >= 20

    def test_diffuse_pixel_chunks_leave_the_image_unchanged(self, monkeypatch):
        # the diffuse sphere's env maps and every sphere's shadow rays run by
        # pixel chunk; the sphere leaves 140 of the 320 pixels to the floor
        vol = fog_volume()
        view, normals = overhead_view(h=16, w=20)
        for material in (DiffuseMaterial((0.7, 0.6, 0.5), 0.3), MirrorMaterial()):
            sphere = InsertedSphere(center=np.array([1.0, 1.0, 0.7]), radius=0.15,
                                    material=material)
            images = []
            for chunk in (512, 7):
                monkeypatch.setattr(insertion, "_PIXEL_CHUNK", chunk)
                images.append(insert_object(view, vol, sphere, normal_map=normals,
                                            shadow_dirs=(4, 8), n_samples=16))
            assert np.sum(np.all(images[0] < 0.5, axis=-1)) >= 100   # shadowed
            assert images[0].tobytes() == images[1].tobytes()

    def test_diffuse_pixels_match_frozen_per_pixel_path(self):
        rng = np.random.default_rng(22)
        vox = np.stack([rng.uniform(0.0, 0.5, (5, 5, 5)),
                        rng.uniform(0.0, math.pi, (5, 5, 5)),
                        rng.uniform(-math.pi, math.pi, (5, 5, 5)),
                        rng.uniform(0.0, 8.0, (5, 5, 5))]
                       + [rng.uniform(0.0, 2.0, (5, 5, 5)) for _ in range(3)], axis=-1)
        vol = VSGVolume(bounds=BOUNDS, voxels=vox)
        view, normals = overhead_view(h=12, w=16)
        dirs = view.camera.pixel_directions(12, 16)
        worst, hits = 0.0, 0
        for roughness in (0.05, 0.4, 1.0):
            material = DiffuseMaterial((0.8, 0.5, 0.3), roughness)
            sphere = InsertedSphere(center=np.array([1.0, 1.0, 0.7]), radius=0.35,
                                    material=material)
            out = insert_object(view, vol, sphere, normal_map=normals,
                                shadow_dirs=(4, 8), n_samples=16)
            points, hit_normals, hit = sphere_hits(view.camera.center, dirs, sphere)
            hits += np.count_nonzero(hit)
            for i, j in np.argwhere(hit):
                want = frozen_shade_diffuse(points[i, j], hit_normals[i, j], material, vol,
                                            dirs[i, j], 16)
                assert np.all(want > 0.0)
                worst = max(worst, float(np.max(np.abs(out[i, j] - want) / want)))
        assert hits >= 30
        assert worst <= 1e-11

    def test_occluded_sphere_leaves_image(self):
        view, normals = overhead_view()
        vol = VSGVolume.uniform((4, 4, 4), BOUNDS, alpha=0.0)
        # sphere below the plane: always behind the scene depth
        sphere = InsertedSphere(center=np.array([1.0, 1.0, -0.6]), radius=0.2,
                                material=MirrorMaterial())
        out = insert_object(view, vol, sphere, normal_map=normals,
                            shadow_dirs=(4, 8), n_samples=8)
        np.testing.assert_array_equal(out, view.image)

    def test_shadow_darkest_point_matches_projection(self):
        view, normals = overhead_view(h=48, w=64)
        # extended corner light, small sphere: penumbra-dominated shadow whose
        # minimum is unique and clears the sphere silhouette
        vox = np.zeros((8, 8, 8, 7))
        vox[0:2, 0:2, 7, 0] = 1.0
        vox[0:2, 0:2, 7, 4:7] = (40.0, 36.0, 30.0)
        vol = VSGVolume(bounds=BOUNDS, voxels=vox)
        light = np.array([0.25, 0.25, 1.875])  # emitter block centroid
        sphere_center = np.array([1.0, 1.0, 0.5])
        sphere = InsertedSphere(center=sphere_center, radius=0.1,
                                material=MirrorMaterial())
        out = insert_object(view, vol, sphere, normal_map=normals,
                            shadow_dirs=(16, 32), n_samples=48)
        ratio = out[..., 0] / view.image[..., 0]
        # exclude sphere-covered pixels from the search
        dirs = view.camera.pixel_directions(*view.depth.shape).reshape(-1, 3)
        t = _ray_sphere_t(np.broadcast_to(view.camera.center, dirs.shape), dirs,
                          sphere.center, sphere.radius)
        on_sphere = np.isfinite(t).reshape(view.depth.shape)
        ratio[on_sphere] = 1.0
        darkest = np.unravel_index(np.argmin(ratio), ratio.shape)
        # analytic projection of the sphere center along the light direction
        direction = sphere_center - light
        s = -light[2] / direction[2]
        ground_point = light + s * direction
        u, v, _ = view.camera.project(ground_point[None, :])
        dist = math.hypot(darkest[1] - u[0], darkest[0] - v[0])
        assert dist <= 2.0


def frozen_shade_diffuse(point, normal, material, volume, view_dir, n_samples):
    """Frozen copy of the per-pixel diffuse branch of ``shade_sphere_pixel``
    from before it was batched, with the ``render_diffuse`` and
    ``render_specular`` bodies of that time inlined."""
    height, width = 16, 32
    frame = Frame.from_normal(normal)
    env = extract_env_map(volume, point, frame, height, width, n_samples)
    v = -view_dir / np.linalg.norm(view_dir)
    dirs = env.directions().reshape(-1, 3)
    omega = texel_solid_angles(height, width)
    cos = np.maximum(dirs @ frame.normal, 0.0).reshape(height, width)
    diffuse = (np.asarray(material.albedo) / math.pi
               * ((cos * omega[:, None])[..., None] * env.texels).sum(axis=(0, 1)))
    brdf = ggx_specular(v[None], dirs[None], normal[None],
                        np.array([material.roughness]))[0]
    weights = (brdf * np.maximum(dirs @ normal, 0.0)
               * np.broadcast_to(omega[:, None], (height, width)).reshape(-1))
    specular = weights @ env.texels.reshape(-1, 3)
    spec_albedo = weights @ np.ones((height * width, 3))
    return diffuse * (1.0 - spec_albedo) + specular


# one axis-aligned frame and two tilted ones
BUILDER_FRAMES = (Frame.from_normal([0.0, 0.0, 1.0]), Frame.from_normal([0.2, -0.3, 1.0]),
                  Frame.from_normal([-0.6, 0.5, 0.4]))


class TestOneEnvRayBuilder:
    """Env extraction, the VSG fit and the diffuse sphere build their texel rays
    with one function, so they march the same rays on any frame."""

    N_SAMPLES = 16

    def volume(self):
        rng = np.random.default_rng(23)
        vox = np.empty((5, 5, 5, 7))
        vox[..., 0] = rng.uniform(0.0, 1.0, (5, 5, 5))
        vox[..., 1] = rng.uniform(0.0, math.pi, (5, 5, 5))
        vox[..., 2] = rng.uniform(-math.pi, 0.99 * math.pi, (5, 5, 5))
        vox[..., 3] = rng.uniform(0.0, 10.0, (5, 5, 5))
        vox[..., 4:7] = rng.uniform(0.0, 3.0, (5, 5, 5, 3))
        return VSGVolume(bounds=BOUNDS, voxels=vox)

    def diffuse_rays(self, monkeypatch, vol):
        """Directions and radiance (P, D, 3) that the diffuse sphere composites
        for one batch: the builder frames' points among others."""
        points = np.array([[0.4, 1.6, 0.3], [1.0, 1.0, 0.5], [0.2, 0.3, 1.7],
                           [1.5, 0.8, 1.1], [1.2, 1.4, 0.2]])
        normals = np.stack([[0.0, 1.0, 0.0]] + [f.normal for f in BUILDER_FRAMES]
                           + [[1.0, 0.0, 0.0]])
        calls = []

        def spy(volume, origins, directions, t_max, n_samples):
            radiance = composite_rays(volume, origins, directions, t_max, n_samples)
            calls.append((directions, radiance))
            return radiance

        monkeypatch.setattr(insertion, "composite_rays", spy)
        _diffuse_radiance(DiffuseMaterial((0.5, 0.5, 0.5), 0.5), vol, points, -normals,
                          normals, self.N_SAMPLES)
        (dirs, radiance), = calls
        return points[1:4], dirs.reshape(5, -1, 3)[1:4], radiance.reshape(5, -1, 3)[1:4]

    def test_extracted_env_map_is_the_diffuse_spheres(self, monkeypatch):
        vol = self.volume()
        points, _, radiance = self.diffuse_rays(monkeypatch, vol)
        for point, frame, want in zip(points, BUILDER_FRAMES, radiance):
            env = extract_env_map(vol, point, frame, *DEFAULT_ENV_RES, self.N_SAMPLES)
            assert env.texels.tobytes() == want.reshape(env.texels.shape).tobytes()

    def test_fit_directions_are_texel_directions(self, monkeypatch):
        points, dirs, _ = self.diffuse_rays(monkeypatch, self.volume())
        h, w = DEFAULT_ENV_RES
        targets = [EnvTarget(point=p, frame=f,
                             grid=EnvMapGrid(width=w, height=h, frame=f, texels=np.ones((h, w, 3))))
                   for p, f in zip(points, BUILDER_FRAMES)]
        problem = VSGFitProblem(targets, (3, 3, 3), BOUNDS, VSGFitOptions(n_samples=4))
        got = problem.directions.reshape(len(targets), -1, 3)
        for target_dirs, frame, want in zip(got, BUILDER_FRAMES, dirs):
            texel = texel_directions(h, w, frame).reshape(-1, 3)
            assert target_dirs.tobytes() == texel.tobytes() == want.tobytes()
