"""End-to-end demo pipeline on the analytic scene.

Deterministic stand-ins replace the learned stages: normals come from the
depth map, per-pixel incident lighting from SG fits over pixel clusters,
spatially-varying lighting from a VSG volume fit, and the result is
exercised through feature aggregation, surface-volume construction, and
sphere insertion. The report carries the g-metrics and stage losses against
the generated ground truth.
"""

from __future__ import annotations

import hashlib
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .aggregation import FeatureSet, aggregate
from .brdf import spec_feature_batch
from .geometry import depth_to_normal, multiview_weights, projection_error, reproject
from .insertion import InsertedSphere, MirrorMaterial, insert_object
from .metrics import (StageLossBundle, masked_l1_angular, si_log_mse, si_mse,
                      stage_losses)
from .scene import GeneratedScene, SceneSpec, generate_scene, render_images
from .sg import EnvMapGrid, Frame, SGFitOptions, rasterize_env, sg_fit_batch
from .surface import build_surface_volume
from .volume import Bounds, EnvTarget, VSGFitOptions, extract_env_map, vsg_fit


@dataclass
class DemoConfig:
    scene: SceneSpec = field(default_factory=SceneSpec)
    cluster_size: int = 10        # square pixel blocks per SG fit
    sg_lobes: int = 3
    sg_iters: int = 400
    vsg_dims: tuple[int, int, int] = (8, 8, 8)
    vsg_iters: int = 1000
    vsg_samples: int = 32
    vsg_grid: int = 2             # vsg supervision points per axis
    sphere_radius: float = 0.22
    sphere_height: float = 0.75   # above the plane, at the image center ray
    shadow_dirs: tuple[int, int] = (8, 16)
    insert_samples: int = 32
    feature_stride: int = 16      # pixel stride for the aggregation probe


class StageError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""


@contextmanager
def _stage(name: str, timings: dict, peak_rss_mb: dict):
    """Time a stage into ``timings`` and record the process's peak RSS (MB)
    at its exit into ``peak_rss_mb``, both under the stage's name."""
    start = time.perf_counter()
    try:
        yield
    except Exception as exc:
        raise StageError(f"pipeline stage '{name}' failed: {exc}") from exc
    finally:
        timings[name] = time.perf_counter() - start
        # ru_maxrss is in KiB on Linux
        peak_rss_mb[name] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class PipelineReport:
    metrics: dict
    normal_map: np.ndarray
    fitted_envs: np.ndarray       # (H, W, Ha, Wa, 3) cluster envs per pixel
    rerendered: np.ndarray
    inserted: np.ndarray
    volume: object
    surface_volume: object
    digest: str = ""
    # run telemetry outside the fingerprint: the SG cluster fits' summary
    # ("sg_fit"), the VSG fit's report ("vsg_fit"), peak RSS in MB by stage
    telemetry: dict = field(default_factory=dict)

    def fingerprint(self) -> str:
        """Bitwise digest of the numeric outputs, for determinism checks."""
        h = hashlib.sha256()
        for arr in (self.normal_map, self.fitted_envs, self.rerendered,
                    self.inserted, self.volume.voxels, self.surface_volume.data):
            h.update(np.ascontiguousarray(arr).tobytes())
        for key in sorted(self.metrics):
            h.update(key.encode())
            h.update(np.float64(self.metrics[key]).tobytes())
        return h.hexdigest()


def _cluster_env_fit(scene: GeneratedScene, config: DemoConfig):
    """Per-pixel env maps of SG fits to the target view's pixel blocks, all in
    one batched descent, the environments in row-major block order, and a
    summary of the fits' reports (the README's ``telemetry.sg_fit``)."""
    spec = scene.spec
    ha, wa, size = spec.env_height, spec.env_width, config.cluster_size
    corners = [(i0, j0) for i0 in range(0, spec.image_height, size)
               for j0 in range(0, spec.image_width, size)]
    blocks = [np.s_[i0:i0 + size, j0:j0 + size] for i0, j0 in corners]
    grids = [EnvMapGrid(width=wa, height=ha,
                        texels=scene.gt_env[b].reshape(-1, ha, wa, 3).mean(axis=0),
                        frame=Frame.from_normal(scene.surface_normals[b].reshape(-1, 3)
                                                .mean(axis=0))) for b in blocks]
    results = sg_fit_batch(grids, config.sg_lobes, SGFitOptions(max_iters=config.sg_iters))
    fitted = np.empty_like(scene.gt_env)
    for b, grid, result in zip(blocks, grids, results):
        fitted[b] = rasterize_env(result.environment, ha, wa, grid.frame).texels
    reports = [r.report for r in results]
    iters, reasons = [r.iterations for r in reports], [r.stop_reason for r in reports]
    # a median by hand: np.median imports numpy.ma, 1 MB held to the end of the run
    accept = sorted(r.accepted_steps / max(r.iterations, 1) for r in reports)
    mid = (accept[(len(accept) - 1) // 2] + accept[len(accept) // 2]) / 2
    summary = {
        "fits": len(reports), "iterations_min": min(iters), "iterations_max": max(iters),
        "accept_ratio_min": accept[0], "accept_ratio_median": mid,
        "stop_reasons": {k: reasons.count(k) for k in sorted(set(reasons))},
        "final_objective_max": max(r.final_objective for r in reports)}
    return fitted, [r.environment for r in results], summary


def _multiview_probe(scene: GeneratedScene, block_envs: list, config: DemoConfig):
    """Reprojection weights, specular features and aggregation on a pixel
    grid of the target view, given the SG environments of its pixel blocks in
    row-major order; returns the mean attention weights and a feature digest."""
    bundle, size, stride = scene.bundle, config.cluster_size, config.feature_stride
    h, w = scene.spec.image_height, scene.spec.image_width
    ii, jj = (a.ravel() for a in np.meshgrid(np.arange(stride // 2, h, stride),
                                             np.arange(stride // 2, w, stride), indexing="ij"))
    points = scene.surface_points[ii, jj]
    seen = reproject(points, bundle.views)                                  # (K, P)
    weights = multiview_weights(projection_error(seen.depth, seen.z).T, seen.valid.T)
    centers = np.stack([view.camera.center for view in bundle.views])
    to_camera = centers - points[:, None]                                   # (P, K, 3)
    view_dirs = to_camera / np.sqrt(np.vecdot(to_camera, to_camera))[..., None]
    blocks = ii // size * len(range(0, w, size)) + jj // size
    axes = np.stack([env.axes() for env in block_envs])[blocks]
    intensity = np.stack([env.intensities() for env in block_envs])[blocks]
    sharpness = np.stack([env.sharpness() for env in block_envs])[blocks]
    feats = spec_feature_batch(axes, intensity, sharpness, scene.surface_normals[ii, jj],
                               view_dirs)                                   # (P, K, L, 9)
    values = np.concatenate([seen.image.transpose(1, 0, 2),
                             feats.reshape(feats.shape[:2] + (-1,))], axis=2)
    digest = hashlib.sha256()
    for pixel_values, pixel_weights in zip(values, weights):
        digest.update(aggregate(FeatureSet(values=pixel_values, weights=pixel_weights,
                                           target_index=bundle.target_index)).tobytes())
    return weights.sum(axis=0) / max(len(weights), 1), digest.hexdigest()


def _vsg_targets(points: np.ndarray, normals: np.ndarray, envs: np.ndarray,
                 grid: int) -> tuple[list, list]:
    """Pixels (i, j) of a ``grid`` x ``grid`` supervision grid over a view,
    and the EnvTarget at each: from the view's world points and unit normals
    (H, W, 3) and its env maps (H, W, h, w, 3)."""
    h, w = points.shape[:2]
    pixels = [(int((a + 0.5) * h / grid), int((b + 0.5) * w / grid))
              for a in range(grid) for b in range(grid)]
    targets = []
    for i, j in pixels:
        frame = Frame.from_normal(normals[i, j])
        env = EnvMapGrid(width=envs.shape[3], height=envs.shape[2], frame=frame,
                         texels=envs[i, j])
        targets.append(EnvTarget(point=points[i, j], frame=frame, grid=env))
    return pixels, targets


def _fit_volume(scene: GeneratedScene, config: DemoConfig, targets: list):
    """Fit the spatially-varying lighting volume against ``targets`` in a
    box around the surface and the light."""
    pts = scene.surface_points.reshape(-1, 3)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    box_lo, box_hi = scene.light_box
    lo = np.minimum(lo, box_lo) - 0.2
    hi = np.maximum(hi, box_hi) + 0.2
    bounds = Bounds(lo=lo, hi=hi)
    options = VSGFitOptions(max_iters=config.vsg_iters,
                            n_samples=config.vsg_samples)
    return vsg_fit(targets, config.vsg_dims, bounds, options), bounds


def pipeline_demo(config: DemoConfig | None = None) -> PipelineReport:
    """Run the full deterministic pipeline and return metrics + artifacts.

    Stages: scene generation, depth-derived normals, per-cluster SG lighting
    fits, multi-view feature aggregation probe, re-render, surface volume,
    VSG lighting fit, and mirror-sphere insertion with shadows.
    """
    config = config or DemoConfig()
    timings: dict = {}
    peak_rss_mb: dict = {}
    with _stage("scene", timings, peak_rss_mb):
        scene = generate_scene(config.scene)
        bundle = scene.bundle
        target = bundle.target

    with _stage("normals", timings, peak_rss_mb):
        normal_map, _ = depth_to_normal(target.depth, target.camera)
        normal_g1 = masked_l1_angular(scene.gt_normal[0], normal_map, scene.mask)

    with _stage("sg_fit", timings, peak_rss_mb):
        fitted_envs, block_envs, sg_telemetry = _cluster_env_fit(scene, config)
        lighting_g4 = si_log_mse(scene.gt_env, fitted_envs, scene.mask)

    with _stage("aggregation", timings, peak_rss_mb):
        mean_weights, feature_digest = _multiview_probe(scene, block_envs, config)

    with _stage("rerender", timings, peak_rss_mb):
        render_args = (scene.surface_points, scene.surface_normals,
                       scene.gt_albedo[0], scene.gt_rough[0], fitted_envs)
        diffuse, specular = render_images(*render_args, target.camera.center)
        rerendered = diffuse + specular
        rerender_g3 = si_mse(target.image, rerendered, scene.mask)

    with _stage("vsg_fit", timings, peak_rss_mb):
        svl_pixels, vsg_targets = _vsg_targets(scene.surface_points,
                                               scene.surface_normals, scene.gt_env,
                                               config.vsg_grid)
        vol_result, bounds = _fit_volume(scene, config, vsg_targets)

    with _stage("surface_volume", timings, peak_rss_mb):
        surf = build_surface_volume(target.image, scene.gt_normal[0],
                                    scene.gt_albedo[0], scene.gt_rough[0],
                                    target.depth, target.confidence,
                                    target.camera, config.vsg_dims, bounds)

    with _stage("insertion", timings, peak_rss_mb):
        h, w = target.depth.shape
        center_pixel = scene.surface_points[h // 2, w // 2]
        sphere = InsertedSphere(
            center=center_pixel + np.array([0.0, 0.0, config.sphere_height]),
            radius=config.sphere_radius, material=MirrorMaterial())
        inserted = insert_object(target, vol_result.volume, sphere,
                                 normal_map=scene.gt_normal[0],
                                 shadow_dirs=config.shadow_dirs,
                                 n_samples=config.insert_samples)

    with _stage("metrics", timings, peak_rss_mb):
        env_svl_pred = np.stack([
            extract_env_map(vol_result.volume, t.point, t.frame,
                            config.scene.env_height, config.scene.env_width,
                            config.vsg_samples).texels for t in vsg_targets])
        env_svl_ref = np.stack([scene.gt_env[i, j] for i, j in svl_pixels])

        images_k = np.stack([_resample_view(scene, view)
                             for view in bundle.views])
        # the target view's specular is the rerender stage's
        spec_k = np.stack([specular if k == bundle.target_index
                           else render_images(*render_args, view.camera.center)[1]
                           for k, view in enumerate(bundle.views)])
        loss_bundle = StageLossBundle(
            mask_light=scene.mask, mask_object=scene.mask,
            normal_ref=scene.gt_normal[0], normal_pred=normal_map,
            env_dl_ref=scene.gt_env, env_dl_pred=fitted_envs,
            visibility=np.ones(config.sg_lobes),
            alpha_dl=vol_result.volume.voxels[..., 0],
            albedo_ref=scene.gt_albedo[0], albedo_pred=scene.gt_albedo[0],
            rough_ref=scene.gt_rough[0], rough_pred=scene.gt_rough[0],
            env_svl_ref=env_svl_ref, env_svl_pred=env_svl_pred,
            mask_svl_env=np.ones(env_svl_ref.shape[0]),
            alpha_svl=vol_result.volume.voxels[..., 0],
            images=images_k, view_weights=mean_weights,
            diffuse_render=diffuse, specular_renders=spec_k,
            target_index=bundle.target_index)
        losses = stage_losses(loss_bundle)

    metrics = {
        "normal_g1": normal_g1,
        "lighting_g4": lighting_g4,
        "rerender_g3": rerender_g3,
        "vsg_objective": vol_result.report.final_objective,
        "mean_view_weight_target": float(mean_weights[bundle.target_index]),
        **losses,
    }
    vsg_telemetry = {k: getattr(vol_result.report, k) for k in (
        "iterations", "accepted_steps", "stop_reason", "initial_objective",
        "final_objective")}
    report = PipelineReport(metrics=metrics, normal_map=normal_map,
                            fitted_envs=fitted_envs, rerendered=rerendered,
                            inserted=inserted, volume=vol_result.volume,
                            surface_volume=surf,
                            telemetry={"sg_fit": sg_telemetry,
                                       "vsg_fit": vsg_telemetry,
                                       "peak_rss_mb": peak_rss_mb})
    report.digest = report.fingerprint()
    report.metrics["timings"] = timings
    report.metrics["feature_digest"] = feature_digest
    return report


def _resample_view(scene: GeneratedScene, view) -> np.ndarray:
    """The view's image sampled at the target view's surface points; 0 where
    the view does not see them."""
    pts = scene.surface_points.reshape(-1, 3)
    return reproject(pts, [view]).image[0].reshape(scene.surface_points.shape[:2] + (3,))
