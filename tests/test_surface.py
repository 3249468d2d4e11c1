import math

import numpy as np
import pytest

from voxlight.geometry import Camera, bilinear_sample
from voxlight.surface import build_surface_volume
from voxlight.volume import Bounds


def plane_inputs(h=24, w=32, depth_value=2.0, confidence=1.0):
    cam = Camera(fx=40.0, fy=40.0, cx=(w - 1) / 2, cy=(h - 1) / 2,
                 rotation=np.eye(3), translation=np.zeros(3))
    rng = np.random.default_rng(0)
    image = rng.uniform(0.0, 1.0, (h, w, 3))
    normal = np.broadcast_to([0.0, 0.0, -1.0], (h, w, 3)).copy()
    albedo = rng.uniform(0.0, 1.0, (h, w, 3))
    rough = rng.uniform(0.0, 1.0, (h, w))
    depth = np.full((h, w), depth_value)
    conf = np.full((h, w), confidence)
    return image, normal, albedo, rough, depth, conf, cam


def frozen_build_surface_volume(image, normal, albedo, roughness, depth, confidence,
                                camera, dims, bounds):
    """Frozen copy of ``build_surface_volume`` when it sampled each of the six
    maps on its own: its data (X, Y, Z, 10) and weights rho (X, Y, Z)."""
    h, w = depth.shape
    axes = [bounds.lo[a] + (np.arange(dims[a]) + 0.5) * (bounds.extent[a] / dims[a])
            for a in range(3)]
    centers = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    u, v, z = camera.project(centers.reshape(-1, 3))
    valid = (z > 0.0) & (u >= 0.0) & (u <= w - 1.0) & (v >= 0.0) & (v <= h - 1.0)
    uu = np.where(valid, u, 0.0)
    vv = np.where(valid, v, 0.0)
    img = bilinear_sample(image, uu, vv)
    nrm = bilinear_sample(normal, uu, vv)
    alb = bilinear_sample(albedo, uu, vv)
    rgh = bilinear_sample(roughness, uu, vv)
    dpt = bilinear_sample(depth, uu, vv)
    cnf = bilinear_sample(confidence, uu, vv)
    rho = np.exp(-cnf * np.square(z - dpt))
    rho = np.where(valid, rho, 0.0)
    record = np.concatenate([img, nrm, alb, rgh[:, None]], axis=-1)
    record *= rho[:, None]
    record[~valid] = 0.0
    return record.reshape(tuple(dims) + (10,)), rho.reshape(dims)


def rho_of(sv):
    """The weights rho of a surface volume of ``plane_inputs``: its normal
    channel z is rho * -1."""
    return -sv.data[..., 5]


class TestOneSampleBitwise:
    @pytest.mark.parametrize("dims", [(6, 5, 7), (7, 5, 1), (1, 6, 4), (1, 1, 1)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_equals_frozen_six_sample_copy(self, dims, dtype):
        rng = np.random.default_rng(31)
        h, w = 9, 13
        rotation = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        rotation *= np.linalg.det(rotation)
        cam = Camera(fx=11.0, fy=12.0, cx=6.3, cy=3.8, rotation=rotation,
                     translation=rng.normal(size=3))
        normal = rng.normal(size=(h, w, 3))
        maps = [rng.uniform(0.0, 3.0, (h, w, 3)), normal / np.linalg.norm(
                    normal, axis=-1, keepdims=True),
                rng.uniform(0.0, 1.0, (h, w, 3)), rng.uniform(0.0, 1.0, (h, w)),
                rng.uniform(0.5, 4.0, (h, w)), rng.uniform(0.0, 1.0, (h, w))]
        maps = [m.astype(dtype) for m in maps]
        # a box around the camera: voxels behind it, outside the frame and seen
        bounds = Bounds(lo=cam.center - 4.0, hi=cam.center + 4.0)
        got = build_surface_volume(*maps, cam, dims, bounds)
        want, want_rho = frozen_build_surface_volume(*maps, cam, dims, bounds)
        seen = want_rho > 0.0
        if dims == (6, 5, 7):
            assert 0 < seen.sum() < seen.size
        assert got.data.tobytes() == want.tobytes()


class TestBuildSurfaceVolume:
    def test_voxel_on_surface_gets_unit_weight(self):
        image, normal, albedo, rough, depth, conf, cam = plane_inputs()
        # one-voxel-thick slab whose center plane sits exactly at depth 2
        bounds = Bounds(lo=np.array([-0.4, -0.3, 1.5]),
                        hi=np.array([0.4, 0.3, 2.5]))
        sv = build_surface_volume(image, normal, albedo, rough, depth, conf,
                                  cam, (8, 6, 1), bounds)
        assert np.all(rho_of(sv) > 0.999999)
        # channels equal the sampled maps at rho = 1
        u, v, _ = cam.project(sv.bounds.lo + (np.array([0.5, 0.5, 0.5])
                                              * sv.bounds.extent))
        center = sv.data[4, 3, 0]
        assert center.shape == (10,)
        np.testing.assert_allclose(np.linalg.norm(center[3:6]), 1.0, atol=1e-9)

    def test_zero_confidence_gives_unit_rho(self):
        image, normal, albedo, rough, depth, conf, cam = plane_inputs(
            confidence=0.0)
        bounds = Bounds(lo=np.array([-0.3, -0.2, 0.5]),
                        hi=np.array([0.3, 0.2, 3.5]))
        sv = build_surface_volume(image, normal, albedo, rough, depth, conf,
                                  cam, (4, 4, 8), bounds)
        in_frustum = rho_of(sv) > 0.0
        assert in_frustum.any()
        np.testing.assert_array_equal(rho_of(sv)[in_frustum],
                                      np.ones(int(in_frustum.sum())))

    def test_one_meter_offset_analytic_rho(self):
        image, normal, albedo, rough, depth, conf, cam = plane_inputs()
        # slab centered exactly 1 m in front of the depth surface
        bounds = Bounds(lo=np.array([-0.3, -0.2, 0.5]),
                        hi=np.array([0.3, 0.2, 1.5]))
        sv = build_surface_volume(image, normal, albedo, rough, depth, conf,
                                  cam, (3, 3, 1), bounds)
        np.testing.assert_allclose(rho_of(sv), math.exp(-1.0), rtol=1e-9)

    def test_out_of_frustum_voxels_zero(self):
        image, normal, albedo, rough, depth, conf, cam = plane_inputs()
        bounds = Bounds(lo=np.array([-50.0, -50.0, -5.0]),
                        hi=np.array([50.0, 50.0, 5.0]))
        sv = build_surface_volume(image, normal, albedo, rough, depth, conf,
                                  cam, (10, 10, 10), bounds)
        behind = rho_of(sv)[:, :, :4]  # z < 0 plane slabs sit behind the camera
        outside = rho_of(sv) == 0.0
        assert outside.any()
        np.testing.assert_array_equal(sv.data[outside],
                                      np.zeros((int(outside.sum()), 10)))

    def test_rho_decreases_away_from_surface(self):
        image, normal, albedo, rough, depth, conf, cam = plane_inputs()
        bounds = Bounds(lo=np.array([-0.2, -0.2, 0.25]),
                        hi=np.array([0.2, 0.2, 3.75]))
        sv = build_surface_volume(image, normal, albedo, rough, depth, conf,
                                  cam, (1, 1, 14), bounds)
        rho = rho_of(sv)[0, 0]
        centers = 0.25 + (np.arange(14) + 0.5) * 3.5 / 14
        gaps = np.abs(centers - 2.0)
        order = np.argsort(gaps)
        assert np.all(np.diff(rho[order]) <= 1e-12)
        assert np.all(rho > 0.0) and np.all(rho <= 1.0)
        # mass peaks at the voxel nearest the depth surface
        assert np.argmax(rho) == np.argmin(gaps)

    def test_degenerate_bounds_rejected(self):
        image, normal, albedo, rough, depth, conf, cam = plane_inputs()
        with pytest.raises(ValueError):
            build_surface_volume(image, normal, albedo, rough, depth, conf,
                                 cam, (0, 4, 4),
                                 Bounds(lo=np.zeros(3), hi=np.ones(3)))
        with pytest.raises(ValueError):
            Bounds(lo=np.zeros(3), hi=np.zeros(3))
