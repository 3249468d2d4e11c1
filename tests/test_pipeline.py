import glob
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from voxlight import cli
from voxlight import pipeline as pipeline_module
from voxlight.geometry import PROJECTION_ERROR_CAP, bilinear_sample, reproject
from voxlight.pipeline import (DemoConfig, PipelineReport, _cluster_env_fit, _fit_volume, _g4_over_black,
                               _multiview_probe, _vsg_targets, openblas_core, pipeline_demo)
from voxlight.scene import SceneSpec, generate_scene
from voxlight.sg import _LOG_PARAM_LIMIT, sg_fit
from voxlight.volume import extract_env_map


def tiny_config():
    return DemoConfig(
        scene=SceneSpec(image_width=32, image_height=24, env_width=8,
                        env_height=4, num_views=3, env_supersample=2),
        cluster_size=8, sg_iters=200, vsg_dims=(4, 4, 4), vsg_iters=120,
        vsg_samples=16, vsg_grid=2, shadow_dirs=(4, 8), insert_samples=8,
        feature_stride=8, sphere_radius=0.3)


# digest of pipeline_demo(tiny_config()); the same with OpenBLAS at 1 or 2 threads
# and under its Haswell, SkylakeX and Zen kernels (OPENBLAS_CORETYPE), but
# not under Sandybridge (cb0af554…) or Prescott (e97bbd36…), whose BLAS products
# round differently; a failing pin names the kernel OpenBLAS runs (Zen's reads
# Haswell, Prescott's Katmai)
TINY_DIGEST = "f6bab322ec405ff73bb4828f37636cf36fa4519c10ae3f678e3ec53301c04c97"


@pytest.fixture(scope="module")
def tiny_report():
    return pipeline_demo(tiny_config())


class TestPipelineDemo:
    def test_metrics_present_and_finite(self, tiny_report):
        m = tiny_report.metrics
        # each quantity once: the scalars, then the two entries outside the digest
        scalars = ["normal_g1", "lighting_g4", "rerender_g3", "vsg_objective",
                   "mean_view_weight_target", "L_SVL", "L_SVL_reg", "L_SVL_rerender",
                   "tau_diff", "tau_spec"]
        assert list(m) == scalars + ["timings", "feature_digest"]
        for key in scalars:
            assert np.isfinite(float(m[key])), key

    def test_readme_lists_every_report_key_once(self, tiny_report):
        text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        start = text.index("The demo's keys are:")
        section = text[start:text.index("\n\n", start)]
        assert re.findall(r"^- `(\w+)`:", section, re.M) == list(tiny_report.metrics)

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

    def test_digest_is_pinned(self, tiny_report, blas_core):
        assert tiny_report.digest == TINY_DIGEST, (
            f"the tiny demo's output digest moved under the OpenBLAS {blas_core} kernel; "
            "a deliberate change must be logged in CHANGES.md with its cause before "
            "TINY_DIGEST is updated")

    def test_deterministic_rerun(self, tiny_report):
        again = pipeline_demo(tiny_config())
        assert again.digest == tiny_report.digest
        for key in ("normal_g1", "lighting_g4", "rerender_g3"):
            assert again.metrics[key] == tiny_report.metrics[key]


def test_fingerprint_copies_no_array():
    # a 4 MB fitted_envs; hashing it through a bytes copy would peak above 4 MB
    small = np.ones((2, 3, 3))
    report = PipelineReport(metrics={"normal_g1": 0.5}, normal_map=small,
                            fitted_envs=np.ones((64, 64, 8, 16, 1)), rerendered=small,
                            inserted=small, volume=SimpleNamespace(voxels=np.ones((2, 2, 2, 7))),
                            surface_volume=SimpleNamespace(data=np.ones((2, 2, 2, 3))))
    assert report.fitted_envs.nbytes >= 4 << 20
    tracemalloc.start()
    try:
        report.fingerprint()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


STAGES = ("scene", "normals", "sg_fit", "aggregation", "rerender", "vsg_fit",
          "surface_volume", "insertion", "metrics")


class TestTelemetry:
    def test_vsg_fit_and_peak_rss_recorded(self, tiny_report):
        t = tiny_report.telemetry
        fit = t["vsg_fit"]
        assert set(fit) == {"iterations", "accepted_steps", "stop_reason",
                            "initial_objective", "final_objective", "target_g4_over_black"}
        ratios = fit["target_g4_over_black"]
        assert len(ratios) == 4 and all(0.0 <= r < math.inf for r in ratios)
        assert 0 < fit["accepted_steps"] <= fit["iterations"] <= 120
        assert fit["stop_reason"] in ("max_iters", "stalled")
        assert fit["final_objective"] == tiny_report.metrics["vsg_objective"]
        assert fit["final_objective"] <= fit["initial_objective"]
        rss = [t["peak_rss_mb"][name] for name in STAGES]
        assert set(t["peak_rss_mb"]) == set(tiny_report.metrics["timings"]) == set(STAGES)
        assert rss[0] > 0.0 and rss == sorted(rss)   # a peak never falls

    def test_report_records_blas_core(self, tiny_report):
        assert tiny_report.telemetry["blas_core"] == openblas_core()
        assert "blas_core" not in tiny_report.metrics

    def test_blas_core_reads_coretype_override(self):
        if openblas_core() == "unknown":
            pytest.skip("numpy bundles no OpenBLAS that names its kernel")
        src = str(Path(pipeline_module.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", "from voxlight.pipeline import openblas_core; "
                              "print(openblas_core())"], env=env, capture_output=True,
                             text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "Haswell"

    def test_blas_core_unknown_without_library(self, monkeypatch):
        monkeypatch.setattr(glob, "glob", lambda pattern: [])
        assert openblas_core() == "unknown"

    def test_g4_over_black_oracles(self):
        rng = np.random.default_rng(8)
        refs = rng.uniform(0.0, 3.0, (3, 4, 8, 3))
        assert _g4_over_black(refs, np.zeros_like(refs)) == [1.0, 1.0, 1.0]
        scaled = refs * np.array([0.3, 1.0, 7.5])[:, None, None, None]
        assert max(_g4_over_black(refs, scaled)) <= 1e-12
        assert _g4_over_black(np.zeros((1, 4, 8, 3)), refs[:1]) == [1.0]

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

    def test_telemetry_stays_out_of_metrics_and_digest(self, tiny_report, blas_core):
        # perfbench requires every metric but timings and feature_digest to be
        # a finite number; the digest is pinned by test_digest_is_pinned
        assert not {"telemetry", "sg_fit", "vsg_fit", "peak_rss_mb"} & set(tiny_report.metrics)
        # "final < initial" reads 1.0 on a fit that stalls on a black rendering too
        assert "vsg_converged" not in tiny_report.metrics
        assert tiny_report.digest == TINY_DIGEST, f"OpenBLAS {blas_core} kernel"

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
    """One view's image at the target view's surface points, as the metrics
    stage sampled it before it moved onto ``reproject``."""
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

    def test_target_view_reads_the_cap_at_every_probe_pixel(self, default_probe, monkeypatch):
        # each probe point is the target view's own surface point, so its gap
        # there is 0 or a few ulps of round-off: every one reads the cap,
        # and no error anywhere exceeds it
        config, scene, envs, _ = default_probe
        errors = []
        projection_error = pipeline_module.projection_error
        monkeypatch.setattr(pipeline_module, "projection_error",
                            lambda d, z: errors.append(projection_error(d, z)) or errors[-1])
        _multiview_probe(scene, envs, config)
        (errors,) = errors                                                  # (K, P)
        target = errors[scene.bundle.target_index]
        assert target.shape == (20,)
        np.testing.assert_array_equal(target, PROJECTION_ERROR_CAP)
        assert errors.max() == PROJECTION_ERROR_CAP

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
        # the metrics stage resamples every view with one reproject call
        _, scene, _, _ = default_probe
        images = reproject(scene.surface_points.reshape(-1, 3), scene.bundle.views).image
        for k, view in enumerate(scene.bundle.views):
            got = images[k].reshape(scene.surface_points.shape)
            assert got.tobytes() == old_resample_view(scene, view).tobytes()


# the default light and three moves of it, in meters; a fit that gives up on
# a target stalls on its black value, as the first two moves once did
LIGHT_MOVES = [(0.0, 0.0, 0.0), (0.05, -0.03, 0.0), (0.1, 0.1, 0.0), (0.0, 0.1, 0.05)]


@pytest.mark.parametrize("move", LIGHT_MOVES)
def test_vsg_fit_lights_every_target_of_a_moved_light(move):
    # the demo's VSG fit at 200 iterations: every supervision target ends
    # far below its black value, and no voxel exports at the log clip
    config = DemoConfig(scene=SceneSpec(light_center=tuple(
        np.add(SceneSpec().light_center, move))), vsg_iters=200)
    scene = generate_scene(config.scene)
    targets = _vsg_targets(scene.surface_points, scene.surface_normals, scene.gt_env,
                           config.vsg_grid)
    result, _ = _fit_volume(scene, config, targets)
    preds = np.stack([extract_env_map(result.volume, t.point, t.frame, t.grid.height,
                                      t.grid.width, config.vsg_samples).texels
                      for t in targets])
    ratios = _g4_over_black(np.stack([t.grid.texels for t in targets]), preds)
    assert max(ratios) <= 1e-3, ratios
    assert result.volume.voxels[..., 3:].max() < math.exp(_LOG_PARAM_LIMIT)
