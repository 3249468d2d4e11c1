import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voxlight.brdf
from voxlight.brdf import (F0_DEFAULT, MaterialSample, ggx_ndf, ggx_specular, half_vectors,
                           lobe_mask, render_diffuse, render_specular, rerender_pixel,
                           schlick, shade_env_maps, smith_g, spec_feature_batch,
                           spec_feature_inputs)
from voxlight.scene import SceneSpec, generate_scene
from voxlight.sg import (EnvMapGrid, Frame, SGEnvironment, SGLobe, hemisphere_frames,
                         texel_solid_angles)

FRAME = Frame.from_normal([0.0, 0.0, 1.0])
NORMAL = np.array([0.0, 0.0, 1.0])


def constant_env(value, height=16, width=32) -> EnvMapGrid:
    return EnvMapGrid(width=width, height=height, frame=FRAME,
                      texels=np.full((height, width, 3), value))


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def one_pair(v, l, n, roughness):
    """``ggx_specular`` of one pixel (view ``v``, normal ``n``) toward one
    light direction ``l``."""
    return float(ggx_specular(v[None], l[None, None], n[None], np.array([roughness]))[0, 0])


class TestHalfVector:
    def test_equal_directions(self):
        v = unit([0.2, -0.3, 0.9])
        h, defined = half_vectors(v, v)
        assert defined
        np.testing.assert_allclose(h, v, atol=1e-15)

    def test_orthogonal_pair_analytic(self):
        h, _ = half_vectors(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(h, [1 / math.sqrt(2), 0.0, 1 / math.sqrt(2)],
                                   atol=1e-15)

    def test_symmetry_property(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v, l = unit(rng.normal(size=3)), unit(rng.normal(size=3))
            if np.linalg.norm(v + l) < 1e-6:
                continue
            h, _ = half_vectors(v, l)
            assert abs(float(h @ v) - float(h @ l)) <= 1e-12

    def test_opposite_rejected(self):
        _, defined = half_vectors(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0]))
        assert not defined


class TestFresnel:
    def test_aligned_returns_f0(self):
        v = unit([0.0, 0.0, 1.0])
        assert schlick(v @ v) == F0_DEFAULT == 0.05

    def test_grazing_limit(self):
        assert abs(schlick(np.array([0, 0, 1.0]) @ [1.0, 0, 0]) - 1.0) <= 1e-12

    def test_half_angle_analytic(self):
        # v.h = 0.5 -> f0 + (1 - f0) * 0.5^5
        v = np.array([0.0, 0.0, 1.0])
        h = unit([math.sqrt(3) / 2, 0.0, 0.5])
        assert abs(schlick(v @ h) - 0.0796875) <= 1e-12


class TestSpecularBrdf:
    def test_below_horizon_is_zero(self):
        v = unit([0.3, 0.0, 0.95])
        l = unit([0.0, 0.2, -0.9])
        assert one_pair(v, l, NORMAL, 0.5) == 0.0

    def test_normal_incidence_closed_form(self):
        # independent scalar evaluation of D, F, G at v = l = n, r = 1
        value = one_pair(NORMAL, NORMAL, NORMAL, 1.0)
        d = 1.0 / math.pi            # GGX with alpha = 1 at n.h = 1
        g = 1.0                      # height-correlated Smith at nv = nl = 1
        f = F0_DEFAULT
        expected = d * f * g / 4.0
        assert abs(value - expected) <= 1e-12
        # cross-check the factors separately
        assert abs(ggx_ndf(1.0, 1.0) - d) <= 1e-15
        assert abs(float(smith_g(1.0, 1.0, 1.0)) - g) <= 1e-15

    def test_reciprocity(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            v = unit(np.abs(rng.normal(size=3)) * [1, 1, 4])
            l = unit(np.abs(rng.normal(size=3)) * [1, 1, 4])
            r = rng.uniform(0.1, 1.0)
            assert abs(one_pair(v, l, NORMAL, r) - one_pair(l, v, NORMAL, r)) <= 1e-12

    @pytest.mark.parametrize("roughness", [0.2, 0.5, 1.0])
    def test_white_furnace_bound(self, roughness):
        # directional albedo <= 1, 1e5-sample uniform hemisphere quadrature
        rng = np.random.default_rng(2)
        n_samples = 100_000
        z = rng.uniform(0.0, 1.0, n_samples)
        phi = rng.uniform(0.0, 2 * math.pi, n_samples)
        r = np.sqrt(1.0 - z * z)
        dirs = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)
        v = unit([0.4, 0.0, 0.9])
        brdf = ggx_specular(v[None], dirs[None], NORMAL[None], np.array([roughness]))[0]
        integral = float(np.mean(brdf * z) * 2 * math.pi)  # uniform pdf 1/(2 pi)
        assert integral <= 1.0


class TestRenderDiffuse:
    def test_furnace(self):
        albedo = np.array([0.6, 0.5, 0.4])
        out = render_diffuse(albedo, constant_env(1.5))
        np.testing.assert_allclose(out, albedo * 1.5, rtol=0.01)

    def test_black_env(self):
        np.testing.assert_array_equal(render_diffuse([0.5, 0.5, 0.5],
                                                     constant_env(0.0)),
                                      np.zeros(3))

    def test_single_texel_hand_computation(self):
        texels = np.zeros((4, 8, 3))
        texels[1, 3] = (2.0, 2.0, 2.0)
        env = EnvMapGrid(width=8, height=4, frame=FRAME, texels=texels)
        out = render_diffuse([1.0, 1.0, 1.0], env)
        theta_c = (1 + 0.5) * (math.pi / 2) / 4
        omega = (2 * math.pi / 8) * (math.cos(math.pi / 8) - math.cos(math.pi / 4))
        expected = (1.0 / math.pi) * 2.0 * math.cos(theta_c) * omega
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_rotation_invariance_about_normal(self):
        # rotationally symmetric env: value independent of azimuth shift
        texels = np.repeat(np.linspace(1.0, 0.1, 8)[:, None, None],
                           16, axis=1).repeat(3, axis=2)
        env = EnvMapGrid(width=16, height=8, frame=FRAME, texels=texels)
        rolled = EnvMapGrid(width=16, height=8, frame=FRAME,
                            texels=np.roll(texels, 5, axis=1))
        a = render_diffuse([0.5, 0.5, 0.5], env)
        b = render_diffuse([0.5, 0.5, 0.5], rolled)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_linear_in_radiance(self):
        rng = np.random.default_rng(3)
        texels = rng.uniform(0.0, 2.0, (8, 16, 3))
        env1 = EnvMapGrid(width=16, height=8, frame=FRAME, texels=texels)
        # power-of-two scale: exact in floating point
        env2 = EnvMapGrid(width=16, height=8, frame=FRAME, texels=2.0 * texels)
        np.testing.assert_array_equal(render_diffuse([0.5, 0.4, 0.3], env2),
                                      2.0 * render_diffuse([0.5, 0.4, 0.3], env1))
        env3 = EnvMapGrid(width=16, height=8, frame=FRAME, texels=3.0 * texels)
        np.testing.assert_allclose(render_diffuse([0.5, 0.4, 0.3], env3),
                                   3.0 * render_diffuse([0.5, 0.4, 0.3], env1),
                                   rtol=1e-12)


class TestRenderSpecular:
    def test_black_env(self):
        mat = MaterialSample((0.5, 0.5, 0.5), 0.4, NORMAL)
        np.testing.assert_array_equal(
            render_specular(mat, constant_env(0.0), unit([0.1, 0.0, 0.99])),
            np.zeros(3))

    def test_mirror_peak_at_reflection(self):
        # single bright texel; response over v peaks when reflect(v) hits it
        height, width = 16, 32
        texels = np.zeros((height, width, 3))
        ti, tj = 4, 9
        texels[ti, tj] = 50.0
        env = EnvMapGrid(width=width, height=height, frame=FRAME, texels=texels)
        dirs = env.directions()
        target_dir = dirs[ti, tj]
        mat = MaterialSample((1.0, 1.0, 1.0), 0.05, NORMAL)

        def response(v):
            return float(render_specular(mat, env, v)[0])

        v_exact = unit(2.0 * target_dir[2] * NORMAL - target_dir)  # reflect back
        base = response(v_exact)
        assert base > 0.0
        # perturbing v by more than one texel reduces the response
        for delta in ((0.25, 0.0), (-0.25, 0.0), (0.0, 0.25), (0.0, -0.25)):
            v = unit(v_exact + np.array([delta[0], delta[1], 0.0]))
            assert response(v) <= base + 1e-9

    def test_rough_constant_env_matches_monte_carlo(self):
        mat = MaterialSample((1.0, 1.0, 1.0), 1.0, NORMAL)
        v = unit([0.3, 0.1, 0.95])
        quad = render_specular(mat, constant_env(1.0), v)
        rng = np.random.default_rng(4)
        n = 1_000_000
        z = rng.uniform(0.0, 1.0, n)
        phi = rng.uniform(0.0, 2 * math.pi, n)
        r = np.sqrt(1.0 - z * z)
        dirs = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)
        brdf = ggx_specular(v[None], dirs[None], NORMAL[None], np.array([1.0]))[0]
        mc = float(np.mean(brdf * z) * 2 * math.pi)
        assert abs(quad[0] - mc) / mc <= 0.03

    def test_linear_in_radiance(self):
        rng = np.random.default_rng(5)
        texels = rng.uniform(0.0, 2.0, (8, 16, 3))
        env1 = EnvMapGrid(width=16, height=8, frame=FRAME, texels=texels)
        env2 = EnvMapGrid(width=16, height=8, frame=FRAME, texels=2.0 * texels)
        mat = MaterialSample((1.0, 1.0, 1.0), 0.5, NORMAL)
        v = unit([0.2, -0.1, 0.97])
        np.testing.assert_array_equal(render_specular(mat, env2, v),
                                      2.0 * render_specular(mat, env1, v))


class TestRerenderPixel:
    def test_black_env(self):
        mat = MaterialSample((0.5, 0.5, 0.5), 0.5, NORMAL)
        d, s = rerender_pixel(mat, constant_env(0.0), unit([0.0, 0.0, 1.0]))
        np.testing.assert_array_equal(d, np.zeros(3))
        np.testing.assert_array_equal(s, np.zeros(3))

    def test_furnace_diffuse_part(self):
        mat = MaterialSample((0.5, 0.5, 0.5), 0.7, NORMAL)
        d, _ = rerender_pixel(mat, constant_env(2.0), unit([0.1, 0.0, 0.995]))
        np.testing.assert_allclose(d, 0.5 * 2.0, rtol=0.01)

    def test_matches_independent_calls(self):
        rng = np.random.default_rng(6)
        texels = rng.uniform(0.0, 1.5, (8, 16, 3))
        env = EnvMapGrid(width=16, height=8, frame=FRAME, texels=texels)
        mat = MaterialSample((0.3, 0.6, 0.9), 0.45, NORMAL)
        v = unit([0.2, 0.3, 0.93])
        d, s = rerender_pixel(mat, env, v)
        np.testing.assert_array_equal(d, render_diffuse(mat.albedo, env))
        np.testing.assert_array_equal(s, render_specular(mat, env, v))


class TestSpecFeatures:
    def test_zero_intensity_masks_lobe(self):
        env = SGEnvironment((SGLobe(0.4, 0.2, 3.0, (0.0, 0.0, 0.0)),))
        feats = spec_feature_inputs(env, NORMAL, unit([0.1, 0.0, 0.99]))
        assert feats[0].mask == 0

    def test_backfacing_lobe_masked(self):
        env = SGEnvironment((SGLobe(2.6, 0.0, 3.0, (1.0, 1.0, 1.0)),))
        n_dot_xi = float(NORMAL @ env.lobes[0].unit_axis())
        assert n_dot_xi < 0.0
        feats = spec_feature_inputs(env, NORMAL, unit([0.1, 0.0, 0.99]))
        assert feats[0].mask == 0

    def test_grazing_lobe_masked_by_strict_inequality(self):
        # axis (1, 0, ~0) against n = +y: the dot product is exactly zero
        env = SGEnvironment((SGLobe(math.pi / 2, 0.0, 3.0, (1.0, 1.0, 1.0)),))
        n = np.array([0.0, 1.0, 0.0])
        feats = spec_feature_inputs(env, n, unit([0.3, 0.9, 0.1]))
        assert feats[0].ndotxi == 0.0
        assert feats[0].mask == 0

    def test_aligned_case_fields(self):
        env = SGEnvironment((SGLobe(0.0, 0.0, 5.0, (1.0, 1.0, 1.0)),))  # axis +z
        feats = spec_feature_inputs(env, NORMAL, NORMAL)
        f = feats[0]
        assert f.mask == 1
        assert abs(f.ndoth_sq - 1.0) <= 1e-12
        assert abs(f.ndotxi - 1.0) <= 1e-12
        assert abs(f.ndotv - 1.0) <= 1e-12
        assert abs(f.fresnel - F0_DEFAULT) <= 1e-12
        assert f.sharpness == 5.0

    def test_opposite_view_excluded(self):
        env = SGEnvironment((SGLobe(math.pi / 2, 0.0, 3.0, (1.0, 1.0, 1.0)),))
        v = -env.lobes[0].unit_axis()
        feats = spec_feature_inputs(env, unit([0.0, 0.0, 1.0]), v)
        assert feats[0].mask == 0

    def test_mask_is_binary(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            eta = tuple(rng.uniform(0.0, 2.0, 3) * (rng.random() > 0.3))
            env = SGEnvironment((SGLobe(rng.uniform(0, math.pi),
                                        rng.uniform(-math.pi, math.pi * 0.99),
                                        rng.uniform(0, 10), eta),))
            feats = spec_feature_inputs(env, NORMAL, unit([0.2, 0.1, 0.97]))
            assert feats[0].mask in (0, 1)
            expected = 1 if (sum(eta) * feats[0].ndotxi) > 0 else 0
            assert feats[0].mask == expected


class TestLobeMask:
    def test_cases(self):
        assert lobe_mask((0.0, 0.0, 0.0), 0.5) == 0
        assert lobe_mask((1.0, 0.0, 0.0), -0.5) == 0
        assert lobe_mask((1.0, 0.0, 0.0), 0.0) == 0
        assert lobe_mask((1.0, 0.0, 0.0), 0.5) == 1

    def test_batch(self):
        masks = lobe_mask([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                          np.array([0.5, -0.5, 0.0, 0.5]))
        np.testing.assert_array_equal(masks, [0, 0, 0, 1])


def old_spec_feature_inputs(env, n, v, f0=F0_DEFAULT):
    """The scalar spec_feature_inputs before it became a batch of one."""
    ndotv = float(np.dot(n, v))
    features = []
    for lobe in env.lobes:
        xi = lobe.unit_axis()
        ndotxi = float(np.dot(n, xi))
        if np.linalg.norm(v + xi) < 1e-9:
            features.append((0.0, 0.0, ndotxi, ndotv, lobe.sharpness, 0, *lobe.intensity))
            continue
        s = v + xi
        h = s / float(np.linalg.norm(s))
        fresnel = float(f0 + (1.0 - f0) * (1.0 - np.maximum(np.dot(v, h), 0.0)) ** 5)
        mask = 1 if float(np.sum(np.abs(lobe.intensity))) * ndotxi > 0.0 else 0
        features.append((fresnel, float(np.dot(n, h)) ** 2, ndotxi, ndotv, lobe.sharpness,
                         mask, *lobe.intensity))
    return np.array(features, dtype=np.float64)


class TestSpecFeatureBatch:
    def features(self):
        """4 pixels x 3 views x 4 lobes. Pixel 0 has a lobe opposite to its
        view 1, pixel 1 a zero-intensity lobe, pixel 2 a grazing lobe with
        n.xi = 0 exactly (axis (1, 0, ~0) against n = +y)."""
        rng = np.random.default_rng(11)
        envs, normals, views = [], [], []
        for p in range(4):
            lobes = [SGLobe(rng.uniform(0.0, math.pi), rng.uniform(-math.pi, math.pi),
                            rng.uniform(0.0, 30.0), tuple(rng.uniform(0.0, 2.0, 3)))
                     for _ in range(4)]
            n = unit(rng.normal(size=3) + [0.0, 0.0, 2.0])
            v = [unit(rng.normal(size=3) + 2.0 * n) for _ in range(3)]
            if p == 0:
                v[1] = -lobes[2].unit_axis()
            if p == 1:
                lobes[0] = SGLobe(0.3, 0.4, 5.0, (0.0, 0.0, 0.0))
            if p == 2:
                n = np.array([0.0, 1.0, 0.0])
                lobes[3] = SGLobe(math.pi / 2, 0.0, 3.0, (1.0, 1.0, 1.0))
            envs.append(SGEnvironment(tuple(lobes)))
            normals.append(n)
            views.append(v)
        normals, views = np.array(normals), np.array(views)
        batch = spec_feature_batch(np.stack([e.axes() for e in envs]),
                                   np.stack([e.intensities() for e in envs]),
                                   np.stack([e.sharpness() for e in envs]), normals, views)
        return envs, normals, views, batch

    def test_pairs_equal_scalar_calls_bitwise(self):
        envs, normals, views, batch = self.features()
        assert batch.shape == (4, 3, 4, 9)
        for p in range(4):
            for k in range(3):
                rows = np.array([[f.fresnel, f.ndoth_sq, f.ndotxi, f.ndotv, f.sharpness,
                                  f.mask, *f.eta]
                                 for f in spec_feature_inputs(envs[p], normals[p], views[p, k])])
                assert rows.tobytes() == batch[p, k].tobytes()

    def test_pairs_equal_frozen_scalar_features(self):
        # the same arithmetic; only the fifth power in Fresnel may take an ulp,
        # numpy's array power against its scalar one
        envs, normals, views, batch = self.features()
        for p in range(4):
            for k in range(3):
                old = old_spec_feature_inputs(envs[p], normals[p], views[p, k])
                assert old[:, 1:].tobytes() == batch[p, k, :, 1:].tobytes()
                np.testing.assert_array_max_ulp(old[:, 0], batch[p, k, :, 0], maxulp=1)

    def test_special_lobes(self):
        _, _, _, batch = self.features()
        np.testing.assert_array_equal(batch[0, 1, 2, [0, 1, 5]], 0.0)   # opposite to v
        assert batch[0, [0, 2], 2, 1].min() > 0.0
        np.testing.assert_array_equal(batch[1, :, 0, 5], 0.0)           # zero intensity
        np.testing.assert_array_equal(batch[1, :, 0, 6:], 0.0)
        np.testing.assert_array_equal(batch[2, :, 3, 2], 0.0)           # grazing: n.xi = 0
        np.testing.assert_array_equal(batch[2, :, 3, 5], 0.0)
        assert set(np.unique(batch[..., 5])) == {0.0, 1.0}


unit_vectors = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: np.linalg.norm(v) > 1e-2).map(unit)


def old_specular_brdf(v, l, n, roughness, f0=F0_DEFAULT):
    """Frozen copy of the scalar GGX formula before it became a batch of one
    (it raised at the horizon where 4 (n.l)(n.v) underflows)."""
    ndotl, ndotv = float(n @ l), float(n @ v)
    if ndotl <= 0.0 or ndotv <= 0.0:
        return 0.0
    h = (v + l) / np.linalg.norm(v + l)
    a2 = float(roughness) ** 4
    ndoth = max(float(n @ h), 0.0)
    denom = ndoth * ndoth * (a2 - 1.0) + 1.0
    d = a2 / (math.pi * denom * denom)
    f = f0 + (1.0 - f0) * (1.0 - max(float(v @ h), 0.0)) ** 5
    g = 2.0 * ndotl * ndotv / (ndotl * math.sqrt(a2 + (1.0 - a2) * ndotv * ndotv)
                               + ndotv * math.sqrt(a2 + (1.0 - a2) * ndotl * ndotl))
    return d * f * g / (4.0 * ndotl * ndotv)


def old_specular_batch_many(v, dirs, n, roughness, f0):
    """Frozen copy of the batched GGX path that ``ggx_specular`` replaced."""
    ndotl = np.sum(dirs * n[:, None, :], axis=-1)
    ndotv = np.sum(n * v, axis=-1)[:, None]
    s = dirs + v[:, None, :]
    s_norm = np.linalg.norm(s, axis=-1)
    ok = (ndotl > 0.0) & (ndotv > 0.0) & (s_norm > 1e-9)
    h = s / np.where(s_norm > 1e-9, s_norm, 1.0)[..., None]
    ndoth = np.sum(h * n[:, None, :], axis=-1)
    a2 = (roughness ** 4)[:, None]
    denom = np.square(np.maximum(ndoth, 0.0)) * (a2 - 1.0) + 1.0
    d = a2 / (math.pi * denom * denom)
    f = f0 + (1.0 - f0) * (1.0 - np.maximum(np.sum(h * v[:, None, :], axis=-1),
                                            0.0)) ** 5
    nl = np.maximum(ndotl, 0.0)
    nv = np.maximum(ndotv, 0.0)
    gd = (nl * np.sqrt(a2 + (1.0 - a2) * nv * nv)
          + nv * np.sqrt(a2 + (1.0 - a2) * nl * nl))
    with np.errstate(divide="ignore", invalid="ignore"):
        brdf = d * f * (2.0 * nl * nv / gd) / (4.0 * ndotl * ndotv)
    return np.where(ok & (gd > 0.0), brdf, 0.0)


def random_units(rng, shape):
    x = rng.normal(size=shape + (3,))
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


class TestGGXCore:
    def test_bitwise_equal_to_frozen_batch_path(self):
        rng = np.random.default_rng(11)
        for p, t in ((500, 128), (7, 1), (1, 300)):
            v = random_units(rng, (p,))
            n = random_units(rng, (p,))
            dirs = random_units(rng, (p, t))
            rough = rng.uniform(0.02, 1.0, p)
            want = old_specular_batch_many(v, dirs, n, rough, F0_DEFAULT)
            got = ggx_specular(v, dirs, n, rough)
            assert got.tobytes() == want.tobytes()

    def test_render_images_bitwise_with_frozen_path(self, monkeypatch):
        spec = SceneSpec(image_width=12, image_height=9, env_width=8,
                         env_height=4, num_views=2, wall_offset=2.5)
        images = [v.image for v in generate_scene(spec).bundle.views]
        # the shading core looks ggx_specular up in voxlight.brdf
        monkeypatch.setattr(voxlight.brdf, "ggx_specular",
                            lambda v, d, n, r: old_specular_batch_many(
                                v, d, n, r, F0_DEFAULT))
        frozen = [v.image for v in generate_scene(spec).bundle.views]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(images, frozen))

    def test_horizon_cases_return_zero(self):
        # 4 (n.l)(n.v) underflows; v + l vanishes (both used to raise)
        v = unit([0.0, 1.0, 2e-206])
        assert one_pair(v, v, NORMAL, 0.5) == 0.0
        assert one_pair(v, unit([0.0, -1.0, 2e-206]), NORMAL, 0.5) == 0.0

    def test_render_specular_is_a_batch_of_one(self):
        rng = np.random.default_rng(12)
        env = EnvMapGrid(width=16, height=8, frame=FRAME,
                         texels=rng.uniform(0.0, 2.0, (8, 16, 3)))
        mat = MaterialSample((1.0, 1.0, 1.0), 0.35, NORMAL)
        v = unit([0.2, -0.3, 0.9])
        got = render_specular(mat, env, v)
        # the same pixel as row 2 of a batch of five
        frames = [random_frame(rng) for _ in range(5)]
        frames[2] = FRAME
        texels = rng.uniform(0.0, 2.0, (5, 8, 16, 3))
        texels[2] = env.texels
        views = np.stack([f.normal for f in frames])
        views[2] = v
        rough = rng.uniform(0.05, 1.0, 5)
        rough[2] = 0.35
        _, specular = shade_env_maps(texels, *frame_arrays(frames), views,
                                     np.full((5, 3), 0.5), rough)
        assert got.tobytes() == specular[2].tobytes()
        # GGX summed over the texel directions as the reference
        dirs = env.directions().reshape(-1, 3)
        brdf = ggx_specular(v[None], dirs[None], NORMAL[None], np.array([0.35]))[0]
        omega = np.repeat(texel_solid_angles(8, 16), 16)
        want = (brdf * np.maximum(dirs @ NORMAL, 0.0) * omega) @ env.texels.reshape(-1, 3)
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=0.0)


def random_frame(rng) -> Frame:
    """A random right-handed orthonormal frame, not tied to any normal's
    default tangent."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return Frame(normal=q[:, 2], tangent=q[:, 0], bitangent=q[:, 1])


def frame_arrays(frames):
    """Normals, tangents and bitangents (P, 3) of a list of frames."""
    return tuple(np.stack([getattr(f, name) for f in frames])
                 for name in ("normal", "tangent", "bitangent"))


def old_render_diffuse(albedo, env):
    """Frozen copy of ``render_diffuse`` before it became a batch of one
    ``shade_env_maps`` (cos from world texel directions)."""
    albedo = np.asarray(albedo, dtype=np.float64)
    cos = np.maximum(env.directions() @ env.frame.normal, 0.0)
    omega = texel_solid_angles(env.height, env.width)[:, None]
    weighted = (cos * omega)[..., None] * env.texels
    return albedo / math.pi * weighted.sum(axis=(0, 1))


def old_render_specular(material, env, v):
    """Frozen copy of ``render_specular`` before it became a batch of one
    ``shade_env_maps`` (world texel directions, matrix-product sum)."""
    dirs = env.directions().reshape(-1, 3)
    brdf = ggx_specular(v[None], dirs[None], material.normal[None],
                        np.array([material.roughness]))[0]
    cos = np.maximum(dirs @ material.normal, 0.0)
    omega = np.broadcast_to(texel_solid_angles(env.height, env.width)[:, None],
                            (env.height, env.width)).reshape(-1)
    return (brdf * cos * omega) @ env.texels.reshape(-1, 3)


def random_view(rng, frame):
    """A unit view direction at least 0.05 above the frame's horizon."""
    while True:
        v = unit(rng.normal(size=3))
        if v @ frame.normal < 0.0:
            v = -v
        if v @ frame.normal >= 0.05:
            return v


class TestShadingCore:
    def test_per_pixel_paths_match_frozen_copies(self):
        rng = np.random.default_rng(31)
        worst = 0.0
        for height, width in ((8, 16), (16, 32), (4, 8)):
            for _ in range(20):
                frame = random_frame(rng)
                env = EnvMapGrid(width=width, height=height, frame=frame,
                                 texels=rng.uniform(0.0, 3.0, (height, width, 3)))
                mat = MaterialSample(tuple(rng.uniform(0.0, 1.0, 3)),
                                     float(rng.uniform(0.05, 1.0)), frame.normal)
                v = random_view(rng, frame)
                d, s = rerender_pixel(mat, env, v)
                for got, want in ((render_diffuse(mat.albedo, env),
                                   old_render_diffuse(mat.albedo, env)),
                                  (render_specular(mat, env, v),
                                   old_render_specular(mat, env, v)),
                                  (d, old_render_diffuse(mat.albedo, env)),
                                  (s, old_render_specular(mat, env, v))):
                    assert np.all(want > 0.0)
                    worst = max(worst, float(np.max(np.abs(got - want) / want)))
        assert worst <= 1e-11

    def test_scalar_calls_are_rows_of_a_batch(self):
        rng = np.random.default_rng(32)
        p, height, width = 7, 8, 16
        frames = [random_frame(rng) for _ in range(p)]
        texels = rng.uniform(0.0, 2.0, (p, height, width, 3))
        views = np.stack([random_view(rng, f) for f in frames])
        albedo = rng.uniform(0.0, 1.0, (p, 3))
        rough = rng.uniform(0.05, 1.0, p)
        diffuse, specular = shade_env_maps(texels, *frame_arrays(frames), views,
                                           albedo, rough)
        for i, frame in enumerate(frames):
            env = EnvMapGrid(width=width, height=height, frame=frame, texels=texels[i])
            mat = MaterialSample(tuple(albedo[i]), float(rough[i]), frame.normal)
            d, s = rerender_pixel(mat, env, views[i])
            assert d.tobytes() == diffuse[i].tobytes()
            assert s.tobytes() == specular[i].tobytes()
            assert render_diffuse(albedo[i], env).tobytes() == diffuse[i].tobytes()
            assert render_specular(mat, env, views[i]).tobytes() == specular[i].tobytes()

    def test_mismatched_material_normal_raises(self):
        env = EnvMapGrid(width=16, height=8, frame=Frame.from_normal(unit([0.0, 0.6, 0.8])),
                         texels=np.ones((8, 16, 3)))
        mat = MaterialSample((0.5, 0.5, 0.5), 0.5, NORMAL)
        v = unit([0.0, 0.3, 0.95])
        with pytest.raises(ValueError, match="frame normal"):
            render_specular(mat, env, v)
        with pytest.raises(ValueError, match="frame normal"):
            rerender_pixel(mat, env, v)

    def test_frame_from_normal_accepts_the_same_normal(self):
        # Frame.from_normal renormalizes, so its normal can differ from the
        # material's in the last bits, or by up to the unit-norm tolerance
        rng = np.random.default_rng(34)
        env_texels = rng.uniform(0.0, 2.0, (8, 16, 3))
        differing = 0
        for scale in (1.0, 1.0 + 5e-7, 1.0 - 5e-7):
            for _ in range(50):
                x = rng.normal(size=3)
                n = scale * x / np.linalg.norm(x)
                frame = Frame.from_normal(n)
                differing += not np.array_equal(frame.normal, n)
                env = EnvMapGrid(width=16, height=8, frame=frame, texels=env_texels)
                mat = MaterialSample((0.5, 0.4, 0.3), 0.5, n)
                v = random_view(rng, frame)
                d, s = rerender_pixel(mat, env, v)
                exact = MaterialSample(mat.albedo, mat.roughness, frame.normal)
                assert render_specular(mat, env, v).tobytes() == s.tobytes()
                assert s.tobytes() == render_specular(exact, env, v).tobytes()
                assert d.tobytes() == render_diffuse(mat.albedo, env).tobytes()
        assert differing > 50

    def test_chunks_do_not_change_rows(self):
        # more pixels than one chunk of 16 x 32 texels holds
        rng = np.random.default_rng(33)
        p, height, width = 600, 16, 32
        normals = random_units(rng, (p,))
        tangents, bitangents = hemisphere_frames(normals)
        texels = rng.uniform(0.0, 2.0, (p, height, width, 3))
        views = normals
        albedo = rng.uniform(0.0, 1.0, (p, 3))
        rough = rng.uniform(0.05, 1.0, p)
        whole = shade_env_maps(texels, normals, tangents, bitangents, views, albedo, rough)
        for sl in (slice(0, 1), slice(511, 513), slice(599, 600)):
            part = shade_env_maps(texels[sl], normals[sl], tangents[sl], bitangents[sl],
                                  views[sl], albedo[sl], rough[sl])
            for a, b in zip(part, whole):
                assert a.tobytes() == b[sl].tobytes()


unit_vectors = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: np.linalg.norm(v) > 1e-2).map(unit)
# unit vectors within 1e-8 of the horizon of n = +z, down to subnormal heights
horizon_vectors = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                            st.floats(-1e-8, 1e-8)).filter(
    lambda v: math.hypot(v[0], v[1]) > 1e-2).map(unit)


def check_against_frozen(v, l, n, roughness):
    """GGX is finite and >= 0; away from the horizon it matches the frozen
    scalar formula to 1e-9 relative."""
    scalar = one_pair(v, l, n, roughness)
    assert math.isfinite(scalar) and scalar >= 0.0
    if all(c <= 0.0 or c >= 1e-9 for c in (n @ v, n @ l)):
        want = old_specular_brdf(v, l, n, roughness)
        assert abs(scalar - want) <= 1e-9 * want + 1e-300
    if n @ v <= 0.0 or n @ l <= 0.0:
        assert scalar == 0.0


class TestSpecularBatchProperties:
    @settings(max_examples=200, deadline=None)
    @given(v=unit_vectors, l=unit_vectors, n=unit_vectors,
           roughness=st.floats(0.05, 1.0))
    def test_batch_paths_agree_with_scalar(self, v, l, n, roughness):
        check_against_frozen(v, l, n, roughness)

    @settings(max_examples=200, deadline=None)
    @given(v=horizon_vectors, l=st.one_of(horizon_vectors, unit_vectors),
           roughness=st.floats(0.05, 1.0))
    def test_finite_and_nonnegative_at_the_horizon(self, v, l, roughness):
        check_against_frozen(v, l, NORMAL, roughness)
