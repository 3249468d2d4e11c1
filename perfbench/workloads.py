"""The three workloads: seeded inputs, timed bodies and output checks.

Each workload turns a seed into inputs (``setup``), runs one timed body on
them through voxlight's public functions (``body``), and then, untimed,
checks what came back (``check``). Every public call the body makes is one
operation: it is timed, and it fails if it raises, returns non-finite
output or fails a check.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

# Layer functions are called through their modules, so that a traced run,
# which rebinds module attributes, records the benchmark's own calls too.
from voxlight import insertion, metrics, pipeline, scene, sg, volume
from voxlight import io as vio
from voxlight.insertion import DiffuseMaterial, InsertedSphere, MirrorMaterial
from voxlight.pipeline import DemoConfig
from voxlight.scene import SceneSpec
from voxlight.sg import EnvMapGrid, Frame, SGFitOptions
from voxlight.volume import Bounds, EnvTarget, VSGFitOptions, VSGVolume

import reference

# Digest of pipeline_demo(DemoConfig()) before any optimisation, with one
# BLAS thread. Recorded in the results, not checked: a change may alter the
# digest on purpose and say so.
RECORDED_DEMO_DIGEST = "d92d70eb9072610a3c1839d083feb0a5aa4e015d89e6bad640ebcc5b3b378c0e"

# Quality bounds of the fit workload: about twice the largest value seen on
# seeds 0-14 (svl_g4 0.026-0.199, sg_g4.p90 0.016-0.035), as headroom for
# seeds not measured.
SVL_G4_MAX = 0.4
SG_G4_P90_MAX = 0.06

# Tolerance of the reference march against the batched one: they differ
# only in summation order.
MARCH_TOL = 1e-9


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _finite(*arrays) -> bool:
    return all(bool(np.all(np.isfinite(np.asarray(a, dtype=np.float64))))
               for a in arrays)


def _non_increasing(trace) -> bool:
    return bool(np.all(np.diff(np.asarray(trace)) <= 0.0))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


class Ops:
    """Times each public call of a body and records which ones failed."""

    def __init__(self):
        self.kinds: list[str] = []
        self.seconds: list[float] = []
        self.failures: dict[int, list[str]] = {}

    def call(self, kind: str, fn, *args, **kwargs):
        """Run one operation; returns (index, result or None if it raised)."""
        index = len(self.kinds)
        self.kinds.append(kind)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            result = None
            self.fail(index, f"{type(exc).__name__}: {exc}")
        self.seconds.append(time.perf_counter() - start)
        return index, result

    def check(self, index: int, ok: bool, message: str):
        if not ok:
            self.fail(index, message)

    def fail(self, index: int, message: str):
        self.failures.setdefault(index, []).append(message)

    def latencies(self, kind: str | None = None) -> list[float]:
        return [s for k, s in zip(self.kinds, self.seconds)
                if kind is None or k == kind]


# ---------------------------------------------------------------------------
# pipeline: the paper's chain end to end, as the demo runs it
# ---------------------------------------------------------------------------

def pipeline_config(seed: int) -> DemoConfig:
    """Seed 0 is exactly ``DemoConfig()``; other seeds raise or lower the
    inserted sphere by up to 5 cm.

    The seed does not move the light: on 7 of seeds 1-9, a light moved by up
    to 0.1 m in x and y made the VSG fit stop at about 190 of its 1000
    iterations (step underflow after a restart) with twice the objective,
    so run_s split into 45-58 s and 65-75 s runs by seed (see CHANGES.md).
    Moving the sphere changes only the insertion stage's inputs.
    """
    if seed == 0:
        return DemoConfig()
    dh = _rng(seed, 0).uniform(-0.05, 0.05)
    return DemoConfig(sphere_height=DemoConfig().sphere_height + dh)


class Pipeline:
    name = "pipeline"

    def __init__(self):
        self.digests: set[str] = set()

    def setup(self, seed: int, workdir: Path):
        return pipeline_config(seed)

    def body(self, config: DemoConfig, ops: Ops):
        return ops.call("pipeline_demo", pipeline.pipeline_demo, config)

    def check(self, inputs, outputs, ops: Ops) -> dict:
        i, report = outputs
        if report is None:
            return {}
        m = report.metrics
        ops.check(i, m["normal_g1"] <= 0.01, f"normal g1 {m['normal_g1']:.3g} > 0.01")
        ops.check(i, m["lighting_g4"] <= 0.05, f"lighting g4 {m['lighting_g4']:.3g} > 0.05")
        ops.check(i, m["rerender_g3"] <= 0.01, f"rerender g3 {m['rerender_g3']:.3g} > 0.01")
        scalars = [v for k, v in m.items() if k not in ("timings", "feature_digest")]
        ops.check(i, _finite(report.normal_map, report.fitted_envs,
                             report.rerendered, report.inserted,
                             report.volume.voxels, report.surface_volume.data,
                             scalars), "non-finite pipeline output")
        self.digests.add(report.digest)
        ops.check(i, len(self.digests) == 1,
                  "digest differs between runs of one seed")
        return {"lighting_g4": m["lighting_g4"], "rerender_g3": m["rerender_g3"],
                "vsg_objective": m["vsg_objective"], "normal_g1": m["normal_g1"],
                "info": {"digest": report.digest,
                         "digest_matches_recorded": report.digest == RECORDED_DEMO_DIGEST,
                         "timings_time_time": m["timings"]}}


# ---------------------------------------------------------------------------
# fit: SG and VSG lighting fits, no rendering
# ---------------------------------------------------------------------------

FIT_SG = 128          # sg_fit calls, 3 lobes x 400 iterations
FIT_VSG = 16          # VSG targets on an 8^3 grid: 16 x 128 = 2048 rays


def fit_inputs(seed: int) -> dict:
    """Box-light env maps (8 x 16) at seeded ground and wall points of
    ``SceneSpec(wall_offset=4.5)``: the first FIT_SG feed the SG fits, the
    rest are the VSG targets."""
    spec = SceneSpec(wall_offset=4.5)
    rng = _rng(seed, 1)
    n = FIT_SG + FIT_VSG
    on_wall = rng.random(n) < 0.25
    x = rng.uniform(-1.0, 1.8, n)
    y = np.where(on_wall, spec.wall_offset, rng.uniform(-1.8, 3.0, n))
    z = np.where(on_wall, rng.uniform(0.3, 2.0, n), 0.0)
    points = np.stack([x, y, z], axis=-1)
    normals = np.where(on_wall[:, None], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0])
    envs = scene.per_pixel_env_maps(spec, points[None], normals[None])[0]
    grids = [EnvMapGrid(width=spec.env_width, height=spec.env_height,
                        frame=Frame.from_normal(nrm), texels=env)
             for nrm, env in zip(normals, envs)]
    targets = [EnvTarget(point=p, frame=g.frame, grid=g)
               for p, g in zip(points[FIT_SG:], grids[FIT_SG:])]
    lo_box = np.asarray(spec.light_center) - np.asarray(spec.light_size) / 2.0
    hi_box = np.asarray(spec.light_center) + np.asarray(spec.light_size) / 2.0
    bounds = Bounds(lo=np.minimum(points[FIT_SG:].min(axis=0), lo_box) - 0.2,
                    hi=np.maximum(points[FIT_SG:].max(axis=0), hi_box) + 0.2)
    return {"points": points, "sg_targets": grids[:FIT_SG],
            "vsg_targets": targets, "bounds": bounds}


class Fit:
    name = "fit"

    def setup(self, seed: int, workdir: Path):
        return fit_inputs(seed)

    def body(self, inputs: dict, ops: Ops) -> dict:
        sg_fits = [ops.call("sg_fit", sg.sg_fit, grid, 3, SGFitOptions(max_iters=400))
                   for grid in inputs["sg_targets"]]
        targets = inputs["vsg_targets"]
        vsg_fit = ops.call("vsg_fit", volume.vsg_fit, targets, (8, 8, 8),
                           inputs["bounds"], VSGFitOptions(max_iters=150, n_samples=32))
        fitted = vsg_fit[1]
        probes = [] if fitted is None else [
            ops.call("env_probe", volume.extract_env_map, fitted.volume, t.point,
                     t.frame, t.grid.height, t.grid.width, 32) for t in targets]
        return {"sg_fits": sg_fits, "vsg_fit": vsg_fit, "probes": probes}

    def check(self, inputs: dict, outputs: dict, ops: Ops) -> dict:
        out = {}
        sg_g4 = []
        for i, res in outputs["sg_fits"]:
            if res is None:
                continue
            env = res.environment
            ops.check(i, _finite(env.axes(), env.sharpness(), env.intensities(),
                                 res.report.final_objective), "non-finite SG fit")
            ops.check(i, _non_increasing(res.report.objective_trace),
                      "SG objective trace increases")
            sg_g4.append((i, res.report.final_objective))
        if sg_g4:
            p90 = percentile([g4 for _, g4 in sg_g4], 90)
            if not p90 <= SG_G4_P90_MAX:
                for i, g4 in sg_g4:
                    ops.check(i, g4 <= SG_G4_P90_MAX,
                              f"sg g4 p90 {p90:.3g} > {SG_G4_P90_MAX}")
            out["sg_g4.p90"] = p90

        i, res = outputs["vsg_fit"]
        if res is None:
            return out
        ops.check(i, res.report.converged, "VSG fit did not converge")
        ops.check(i, _non_increasing(res.report.objective_trace),
                  "VSG objective trace increases")
        ops.check(i, _finite(res.report.final_objective), "non-finite VSG objective")
        out["vsg_objective"] = res.report.final_objective
        svl = []
        for (j, env), t in zip(outputs["probes"], inputs["vsg_targets"]):
            if env is None:
                continue
            ops.check(j, _finite(env.texels), "non-finite probe")
            svl.append(metrics.si_log_mse(t.grid.texels, env.texels))
        if svl:
            out["svl_g4"] = float(np.mean(svl))
            ops.check(i, out["svl_g4"] <= SVL_G4_MAX,
                      f"svl g4 {out['svl_g4']:.3g} > {SVL_G4_MAX}")
        return out


# ---------------------------------------------------------------------------
# render: relighting with a fixed volume, as ``voxlight insert`` does it
# ---------------------------------------------------------------------------

RENDER_PROBES = 128   # extract_env_map calls, 16 x 32 texels, 64 samples
RENDER_CHECKED = 64   # probe texels checked against the reference march


def render_volume(seed: int, bounds: Bounds) -> VSGVolume:
    """A seeded random 16^3 VSG volume."""
    rng = _rng(seed, 2)
    shape = (16, 16, 16)
    vox = np.empty(shape + (7,))
    vox[..., 0] = rng.uniform(0.0, 0.3, shape)
    vox[..., 1] = rng.uniform(0.0, math.pi, shape)
    vox[..., 2] = rng.uniform(-math.pi, math.pi, shape)
    vox[..., 3] = rng.uniform(0.0, 10.0, shape)
    vox[..., 4:7] = rng.uniform(0.0, 3.0, shape + (3,))
    return VSGVolume(bounds=bounds, voxels=vox)


def render_inputs(seed: int, workdir: Path) -> dict:
    """Write a one-view 80 x 60 scene and a seeded volume under ``workdir``;
    choose the probe pixels and the checked texels from the seed."""
    spec = SceneSpec(num_views=1)
    generated = scene.generate_scene(spec)
    vio.save_scene(workdir / "scene", generated.bundle,
                   gt={"normal": generated.gt_normal})
    pts = generated.surface_points
    lo_box, hi_box = generated.light_box
    bounds = Bounds(lo=np.minimum(pts.reshape(-1, 3).min(axis=0), lo_box) - 0.2,
                    hi=np.maximum(pts.reshape(-1, 3).max(axis=0), hi_box) + 0.2)
    vsg = render_volume(seed, bounds)
    vio.save_volume(workdir / "volume.json", vsg)

    rng = _rng(seed, 3)
    h, w = spec.image_height, spec.image_width
    flat = rng.choice(h * w, RENDER_PROBES, replace=False)
    probes = [(pts[k // w, k % w], Frame.from_normal(generated.surface_normals[k // w, k % w]))
              for k in flat]
    checked = np.stack([rng.integers(0, RENDER_PROBES, RENDER_CHECKED),
                        rng.integers(0, 16 * 32, RENDER_CHECKED)], axis=-1)
    spheres = []
    for col, material in ((w // 3, MirrorMaterial()),
                          (2 * w // 3, DiffuseMaterial(albedo=(0.7, 0.6, 0.5),
                                                       roughness=0.5))):
        center = pts[h // 2, col] + np.array([0.0, 0.0, 0.45])
        spheres.append(InsertedSphere(center=center, radius=0.2, material=material))
    return {"dir": workdir, "image": generated.bundle.target.image,
            "voxels": vsg.voxels, "probes": probes, "checked": checked,
            "spheres": spheres}


def _off_sphere(view, sphere: InsertedSphere, margin: float = 1.05) -> np.ndarray:
    """Pixels whose camera ray misses the sphere grown by ``margin``."""
    h, w = view.depth.shape
    d = view.camera.pixel_directions(h, w).reshape(-1, 3)
    oc = view.camera.center - sphere.center
    b = d @ oc
    disc = b * b - (oc @ oc - (margin * sphere.radius) ** 2)
    return (disc < 0.0).reshape(h, w)


class Render:
    name = "render"

    def setup(self, seed: int, workdir: Path):
        return render_inputs(seed, workdir)

    def body(self, inputs: dict, ops: Ops) -> dict:
        root = inputs["dir"]
        out = {"scene": ops.call("load_scene", vio.load_scene, root / "scene"),
               "volume": ops.call("load_volume", vio.load_volume, root / "volume.json")}
        if out["scene"][1] is None or out["volume"][1] is None:
            return out
        bundle, gt = out["scene"][1]
        view, vsg = bundle.target, out["volume"][1]
        out["probes"] = [ops.call("env_probe", volume.extract_env_map, vsg, point,
                                  frame, 16, 32, 64)
                         for point, frame in inputs["probes"]]
        normal_map = gt["normal"][bundle.target_index]
        for sphere, kind in zip(inputs["spheres"], ("insert_mirror", "insert_diffuse")):
            out[kind] = ops.call(kind, insertion.insert_object, view, vsg, sphere,
                                 normal_map=normal_map, shadow_dirs=(4, 8),
                                 n_samples=32)
            if out[kind][1] is not None:
                ops.call("write_pfm", vio.write_pfm, root / f"{kind}.pfm", out[kind][1])
        return out

    def check(self, inputs: dict, outputs: dict, ops: Ops) -> dict:
        (i, loaded), (k, vsg) = outputs["scene"], outputs["volume"]
        if loaded is not None:
            ops.check(i, np.array_equal(loaded[0].target.image,
                                        inputs["image"].astype(np.float32)),
                      "scene image read back differs from the float32 cast written")
        if vsg is not None:
            ops.check(k, np.array_equal(vsg.voxels, inputs["voxels"].astype(np.float32)),
                      "volume read back differs from the float32 cast written")
        if "probes" not in outputs:
            return {}
        for j, env in outputs["probes"]:
            if env is not None:
                ops.check(j, _finite(env.texels) and bool(np.all(env.texels >= 0.0)),
                          "probe texels non-finite or negative")
        for p, texel in inputs["checked"]:
            j, env = outputs["probes"][p]
            if env is None:
                continue
            point, frame = inputs["probes"][p]
            direction = sg.texel_directions(16, 32, frame).reshape(-1, 3)[texel]
            origin = np.asarray(point) + volume.env_offset(vsg) * frame.normal
            want = reference.march(vsg.voxels, vsg.bounds.lo, vsg.bounds.hi,
                                   origin, direction, vsg.bounds.diagonal, 64)
            got = env.texels.reshape(-1, 3)[texel]
            ops.check(j, bool(np.all(np.abs(got - want) <= MARCH_TOL * (1.0 + np.abs(want)))),
                      f"probe texel {texel} differs from the reference march")

        view = loaded[0].target
        info = {}
        for sphere, kind in zip(inputs["spheres"], ("insert_mirror", "insert_diffuse")):
            j, image = outputs[kind]
            if image is None:
                continue
            ops.check(j, _finite(image) and bool(np.all(image >= 0.0)),
                      "inserted image non-finite or negative")
            off = _off_sphere(view, sphere)
            ops.check(j, bool(np.all(image[off] <= view.image[off])),
                      "a shadowed pixel is brighter than the input")
            info[f"{kind}.digest"] = hashlib.sha256(image.tobytes()).hexdigest()
        return {"info": info}


WORKLOADS = {"pipeline": Pipeline, "fit": Fit, "render": Render}


def make_workdir(base: Path) -> Path:
    base.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="work-", dir=base))


def remove_workdir(path: Path):
    shutil.rmtree(path, ignore_errors=True)
