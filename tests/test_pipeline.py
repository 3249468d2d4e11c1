import json

import numpy as np
import pytest

from voxlight import cli
from voxlight import pipeline as pipeline_module
from voxlight.pipeline import DemoConfig, pipeline_demo
from voxlight.scene import SceneSpec
from voxlight.sg import sg_fit


def tiny_config():
    return DemoConfig(
        scene=SceneSpec(image_width=32, image_height=24, env_width=8,
                        env_height=4, num_views=3, env_supersample=2),
        cluster_size=8, sg_iters=200, vsg_dims=(4, 4, 4), vsg_iters=120,
        vsg_samples=16, vsg_grid=2, shadow_dirs=(4, 8), insert_samples=8,
        feature_stride=8, sphere_radius=0.3)


# digest of pipeline_demo(tiny_config()); the same with OpenBLAS at 1 or 2 threads
TINY_DIGEST = "9ab776bff47f4a7b23cf583ef66d1c0cb3a6563cc49a822d3f77677dcaeb3f23"


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
        assert fit["stop_reason"] in ("max_iters", "objective_tol", "stalled")
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
        assert set(fits["stop_reasons"]) <= {"max_iters", "objective_tol", "stalled"}
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
        assert tiny_report.digest == TINY_DIGEST

    def test_demo_command_writes_telemetry(self, tiny_report, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "pipeline_demo", lambda config: tiny_report)
        assert cli.main(["demo", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["telemetry"] == tiny_report.telemetry
