import json
import math

import numpy as np
import pytest

from voxlight import cli
from voxlight import pipeline as pipeline_module
from voxlight.geometry import bilinear_sample
from voxlight.pipeline import (DemoConfig, _cluster_env_fit, _multiview_probe,
                               _resample_view, pipeline_demo)
from voxlight.scene import SceneSpec, generate_scene
from voxlight.sg import sg_fit


def tiny_config():
    return DemoConfig(
        scene=SceneSpec(image_width=32, image_height=24, env_width=8,
                        env_height=4, num_views=3, env_supersample=2),
        cluster_size=8, sg_iters=200, vsg_dims=(4, 4, 4), vsg_iters=120,
        vsg_samples=16, vsg_grid=2, shadow_dirs=(4, 8), insert_samples=8,
        feature_stride=8, sphere_radius=0.3)


# digest of pipeline_demo(tiny_config()); the same with OpenBLAS at 1 or 2 threads
TINY_DIGEST = "83760c36e6cae6b3770bab5701420420bb26d8aa0b146cc9c0b9ac257d4c396c"


@pytest.fixture(scope="module")
def tiny_report():
    return pipeline_demo(tiny_config())


class TestPipelineDemo:
    def test_metrics_present_and_finite(self, tiny_report):
        m = tiny_report.metrics
        for key in ("normal_g1", "lighting_g4", "rerender_g3", "vsg_objective",
                    "L_normal", "L_InDL", "L_BRDF", "L_SVL", "tau_diff"):
            assert key in m
            assert np.isfinite(float(m[key]))

    def test_normals_accurate_on_analytic_plane(self, tiny_report):
        assert tiny_report.metrics["normal_g1"] <= 0.01

    def test_artifact_shapes(self, tiny_report):
        r = tiny_report
        assert r.normal_map.shape == (24, 32, 3)
        assert r.fitted_envs.shape == (24, 32, 4, 8, 3)
        assert r.rerendered.shape == (24, 32, 3)
        assert r.inserted.shape == (24, 32, 3)
        assert r.volume.dims == (4, 4, 4)
        assert r.surface_volume.dims == (4, 4, 4)
        assert np.all(r.inserted >= 0.0)

    def test_digest_is_pinned(self, tiny_report):
        assert tiny_report.digest == TINY_DIGEST, (
            "the tiny demo's output digest moved; a deliberate change must be "
            "logged in CHANGES.md with its cause before TINY_DIGEST is updated")

    def test_deterministic_rerun(self, tiny_report):
        again = pipeline_demo(tiny_config())
        assert again.digest == tiny_report.digest
        for key in ("normal_g1", "lighting_g4", "rerender_g3"):
            assert again.metrics[key] == tiny_report.metrics[key]


STAGES = ("scene", "normals", "sg_fit", "aggregation", "rerender", "vsg_fit",
          "surface_volume", "insertion", "metrics")


class TestTelemetry:
    def test_vsg_fit_and_peak_rss_recorded(self, tiny_report):
        t = tiny_report.telemetry
        fit = t["vsg_fit"]
        assert set(fit) == {"iterations", "accepted_steps", "stop_reason",
                            "initial_objective", "final_objective"}
        assert 0 < fit["accepted_steps"] <= fit["iterations"] <= 120
        assert fit["stop_reason"] in ("max_iters", "stalled")
        assert fit["final_objective"] == tiny_report.metrics["vsg_objective"]
        assert fit["final_objective"] <= fit["initial_objective"]
        rss = [t["peak_rss_mb"][name] for name in STAGES]
        assert set(t["peak_rss_mb"]) == set(tiny_report.metrics["timings"]) == set(STAGES)
        assert rss[0] > 0.0 and rss == sorted(rss)   # a peak never falls

    def test_sg_fit_summary(self, tiny_report):
        fits = tiny_report.telemetry["sg_fit"]
        assert set(fits) == {"fits", "iterations_min", "iterations_max",
                             "accept_ratio_min", "accept_ratio_median", "stop_reasons",
                             "final_objective_max"}
        assert fits["fits"] == 12 == sum(fits["stop_reasons"].values())   # 3 x 4 blocks
        assert set(fits["stop_reasons"]) <= {"max_iters", "stalled"}
        assert 0 < fits["iterations_min"] <= fits["iterations_max"] <= 200
        assert 0.0 < fits["accept_ratio_min"] <= fits["accept_ratio_median"] <= 1.0
        assert 0.0 <= fits["final_objective_max"] < float("inf")

    def test_batched_cluster_fits_equal_sequential_sg_fits(self, tiny_report, monkeypatch):
        def one_by_one(grids, num_lobes, options):
            return [sg_fit(grid, num_lobes, options) for grid in grids]

        monkeypatch.setattr(pipeline_module, "sg_fit_batch", one_by_one)
        sequential = pipeline_demo(tiny_config())
        assert sequential.digest == tiny_report.digest
        assert sequential.telemetry["sg_fit"] == tiny_report.telemetry["sg_fit"]

    def test_telemetry_stays_out_of_metrics_and_digest(self, tiny_report):
        # perfbench requires every metric but timings and feature_digest to be
        # a finite number; the digest is pinned by test_digest_is_pinned
        assert not {"telemetry", "sg_fit", "vsg_fit", "peak_rss_mb"} & set(tiny_report.metrics)
        # "final < initial" reads 1.0 on a fit that stalls on a black rendering too
        assert "vsg_converged" not in tiny_report.metrics
        assert tiny_report.digest == TINY_DIGEST

    def test_demo_command_writes_telemetry(self, tiny_report, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "pipeline_demo", lambda config: tiny_report)
        assert cli.main(["demo", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["telemetry"] == tiny_report.telemetry


@pytest.fixture(scope="module")
def default_probe():
    """The default demo's scene, its SG block environments, and which views
    see each probe pixel's surface point, (P, K), found here independently."""
    config = DemoConfig()
    scene = generate_scene(config.scene)
    envs = _cluster_env_fit(scene, config)[1]
    stride, h, w = config.feature_stride, config.scene.image_height, config.scene.image_width
    ii, jj = np.meshgrid(np.arange(stride // 2, h, stride), np.arange(stride // 2, w, stride),
                         indexing="ij")
    points = scene.surface_points[ii.ravel(), jj.ravel()]
    seen = []
    for view in scene.bundle.views:
        u, v, z = view.camera.project(points)
        seen.append((z > 0.0) & (u >= 0.0) & (u <= w - 1.0) & (v >= 0.0) & (v <= h - 1.0))
    return config, scene, envs, np.array(seen).T


def old_resample_view(scene, view):
    """``_resample_view`` before it moved onto ``reproject``."""
    pts = scene.surface_points.reshape(-1, 3)
    u, v, z = view.camera.project(pts)
    h, w = view.depth.shape
    ok = (z > 0.0) & (u >= 0.0) & (u <= w - 1.0) & (v >= 0.0) & (v <= h - 1.0)
    sampled = bilinear_sample(view.image, np.where(ok, u, 0.0), np.where(ok, v, 0.0))
    sampled[~ok] = 0.0
    return sampled.reshape(scene.surface_points.shape[:2] + (3,))


class TestMultiviewProbe:
    def test_sampled_depth_matches_z_on_every_seen_view(self, default_probe, monkeypatch):
        # both arguments of every projection error are camera-z in one view:
        # at the analytic scene's probe points they agree to 1e-3 m
        config, scene, envs, seen = default_probe
        pairs = []
        projection_error = pipeline_module.projection_error
        monkeypatch.setattr(pipeline_module, "projection_error",
                            lambda d, z: pairs.append((np.ravel(d), np.ravel(z)))
                            or projection_error(d, z))
        _multiview_probe(scene, envs, config)
        d, z = (np.concatenate(a) for a in zip(*pairs))
        sampled = np.isfinite(d)
        assert np.count_nonzero(sampled) == np.count_nonzero(seen) == 163
        assert np.max(np.abs(d[sampled] - z[sampled])) <= 1e-3

    def test_occluded_view_gets_the_least_weight(self, default_probe, monkeypatch):
        # an occluder 20% in front of the surface in view k: its error is at
        # most -ln(0.2 z_min) while a view that sees the point within 1e-3 m
        # scores at least -ln(1e-3), so view k's weight is below their ratio
        # of every seeing view's weight
        config, scene, envs, seen = default_probe
        z_min = min(view.depth.min() for view in scene.bundle.views)
        bound = math.log(0.2 * z_min) / math.log(1e-3)
        aggregate = pipeline_module.aggregate
        for k, view in enumerate(scene.bundle.views):
            weights = []    # (P, K): the weights the probe hands to aggregate
            monkeypatch.setattr(view, "depth", view.depth * 0.8)
            monkeypatch.setattr(pipeline_module, "aggregate",
                                lambda features: weights.append(features.weights)
                                or aggregate(features))
            _multiview_probe(scene, envs, config)
            monkeypatch.undo()
            w = np.array(weights)
            others = np.where(seen & (np.arange(len(scene.bundle)) != k), w, np.inf)
            at = seen[:, k]
            assert np.count_nonzero(at) >= 15
            assert np.all(w[at, k] < others[at].min(axis=1))
            assert np.all(w[at, k] < bound * others[at].min(axis=1)), k

    def test_resample_view_equals_frozen_copy(self, default_probe):
        _, scene, _, _ = default_probe
        for view in scene.bundle.views:
            assert _resample_view(scene, view).tobytes() == old_resample_view(scene, view).tobytes()
