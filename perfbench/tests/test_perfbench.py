"""Tests of the benchmark's own code: inputs, span arithmetic, the
reference march and metric names.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from voxlight.pipeline import DemoConfig  # noqa: E402
from voxlight.volume import Bounds, Ray, VSGVolume, composite_ray  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_seed0_pipeline_is_exactly_the_demo_config():
    assert workloads.pipeline_config(0) == DemoConfig()
    moved = workloads.pipeline_config(1)
    base = DemoConfig()
    assert moved.scene == base.scene
    assert 0.0 < abs(moved.sphere_height - base.sphere_height) <= 0.05


def test_same_seed_gives_bitwise_identical_inputs():
    assert workloads.pipeline_config(7) == workloads.pipeline_config(7)

    a, b = workloads.fit_inputs(3), workloads.fit_inputs(3)
    assert a["points"].tobytes() == b["points"].tobytes()
    for ga, gb in zip(a["sg_targets"] + [t.grid for t in a["vsg_targets"]],
                      b["sg_targets"] + [t.grid for t in b["vsg_targets"]]):
        assert ga.texels.tobytes() == gb.texels.tobytes()
    assert a["bounds"].lo.tobytes() == b["bounds"].lo.tobytes()
    assert not np.array_equal(a["points"], workloads.fit_inputs(4)["points"])

    bounds = Bounds(lo=np.zeros(3), hi=np.ones(3))
    va, vb = workloads.render_volume(5, bounds), workloads.render_volume(5, bounds)
    assert va.voxels.tobytes() == vb.voxels.tobytes()
    assert not np.array_equal(va.voxels, workloads.render_volume(6, bounds).voxels)


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] with children [1, 3] and [4, 9]; the second has a child
    # [5, 6]; a grandchild of the root may not be subtracted from the root
    tree = [("pipeline.pipeline_demo", -1, 0.0, 10.0, None),
            ("sg.sg_fit", 0, 1.0, 3.0, {"iters": 4, "accepted": 3}),
            ("volume.vsg_fit", 0, 4.0, 9.0, None),
            ("volume.vsg_fit_objective", 2, 5.0, 6.0, None),
            ("volume.composite_rays", -1, 11.0, 11.5, {"rays": 10, "samples": 40})]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 4.0, 1.0, 0.5])
    report = spans.layer_report(tree, body_s=12.0)
    assert report["pipeline.self_s"] == pytest.approx(3.0)
    assert report["volume.self_s"] == pytest.approx(5.5)
    assert report["pipeline.pipeline_demo.s"] == pytest.approx(10.0)
    assert report["bench.self_s"] == pytest.approx(1.5)
    layers = sum(report[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layers + report["bench.self_s"] == pytest.approx(12.0)
    assert report["sg.sg_fit.accept_ratio"] == pytest.approx(0.75)
    assert report["volume.composite_rays.rays_per_s"] == pytest.approx(20.0)


def test_recursive_calls_count_once_in_inclusive_time():
    tree = [("volume.composite_rays", -1, 0.0, 4.0, {"rays": 1, "samples": 1}),
            ("volume.composite_rays", 0, 1.0, 2.0, {"rays": 1, "samples": 1})]
    report = spans.layer_report(tree, body_s=4.0)
    assert report["volume.composite_rays.s"] == pytest.approx(4.0)
    assert report["volume.composite_rays.self_s"] == pytest.approx(4.0)
    assert report["volume.composite_rays.calls"] == 2


def test_tracer_catches_calls_through_imported_names():
    import voxlight.insertion
    import voxlight.volume
    original = voxlight.volume.composite_rays
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert voxlight.insertion.composite_rays is voxlight.volume.composite_rays
        assert voxlight.insertion.composite_rays is not original
        vol = VSGVolume.uniform((2, 2, 2), Bounds(lo=np.zeros(3), hi=np.ones(3)),
                                alpha=0.5, intensity=(1.0, 1.0, 1.0))
        composite_ray(vol, Ray(origin=[0.5, 0.5, -1.0], direction=[0.0, 0.0, 1.0],
                               t_max=3.0), 4)
    finally:
        tracer.uninstall()
    assert voxlight.insertion.composite_rays is original
    assert [s[0] for s in tracer.spans()] == ["volume.composite_rays"]
    assert tracer.spans()[0][4] == {"rays": 1, "samples": 4}


def test_reference_march_agrees_with_composite_ray():
    # acceptance-03-style rays: random 16^3 volumes, origins in and around
    # the bounds, random unit directions, 32 samples
    rng = np.random.default_rng(102)
    bounds = Bounds(lo=np.zeros(3), hi=np.full(3, 2.0))
    hits = 0
    for trial in range(120):
        if trial % 40 == 0:
            vox = np.empty((16, 16, 16, 7))
            vox[..., 0] = rng.uniform(0, 1, (16, 16, 16))
            vox[..., 1] = rng.uniform(0, math.pi, (16, 16, 16))
            vox[..., 2] = rng.uniform(-math.pi, 3.0, (16, 16, 16))
            vox[..., 3] = rng.uniform(0, 10, (16, 16, 16))
            vox[..., 4:7] = rng.uniform(0, 3, (16, 16, 16, 3))
            volume = VSGVolume(bounds=bounds, voxels=vox)
        origin = rng.uniform(-0.5, 2.5, 3)
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        got = composite_ray(volume, Ray(origin=origin, direction=d, t_max=6.0), 32)
        want = reference.march(vox, bounds.lo, bounds.hi, origin, d, 6.0, 32)
        np.testing.assert_allclose(got, want, rtol=workloads.MARCH_TOL,
                                   atol=workloads.MARCH_TOL)
        hits += bool(np.any(want > 0.0))
    assert hits > 30


def test_every_metric_name_is_well_formed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    tree = [("pipeline.pipeline_demo", -1, 0.0, 1.0, None)]
    report = spans.layer_report(tree, body_s=1.0)
    names += list(report)
    names += ["fail_ratio", "sg_fit_ms.p50", "sg_fit_ms.p90", "vsg_fit_s",
              "env_probe_ms.p50", "env_probe_ms.p90", "insert_mirror_s",
              "insert_diffuse_s", "lighting_g4", "rerender_g3", "vsg_objective",
              "sg_g4.p90", "svl_g4"]
    bad = [n for n in names if not NAME.fullmatch(n) or len(n) > 64]
    assert not bad
    # every per-layer metric printed or cited is one the report computes
    computed = set(report) | {"trace.overhead_est_s"}
    assert {m["name"] for m in spec["per_layer"]} <= computed
    mapping = json.loads((ROOT / "perfbench" / "mapping.json").read_text())
    for entry in mapping["entries"].values():
        assert set(entry["layer_metrics"]) <= computed
