"""Command-line entry points.

Subcommands: gen-scene, fit-sg, fit-vsg, render-env, rerender, insert,
metrics, demo. Configuration files are JSON; field names match the
dataclasses they populate.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import io as vio
from .insertion import DiffuseMaterial, InsertedSphere, MirrorMaterial, insert_object
from .metrics import (_STAGE_FIELDS, StageLossBundle, entropy_reg, ls_scale,
                      masked_l1_angular, masked_mse, si_log_mse, si_mse,
                      stage_losses)
from .pipeline import DemoConfig, _vsg_targets, pipeline_demo
from .scene import SceneSpec, generate_scene, render_images
from .sg import EnvMapGrid, Frame, SGFitOptions, sg_fit
from .volume import Bounds, VSGFitOptions, extract_env_map, vsg_fit


def _load_config(path, cls):
    return _build_config(json.loads(Path(path).read_text()) if path else {}, cls)


def _build_config(doc, cls):
    fields = {f.name for f in dataclasses.fields(cls)}
    unknown = set(doc) - fields
    if unknown:
        raise SystemExit(f"unknown config fields for {cls.__name__}: {sorted(unknown)}")
    doc = {k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()}
    if cls is DemoConfig and "scene" in doc:
        doc["scene"] = _build_config(doc["scene"], SceneSpec)
    return cls(**doc)


def _parse_material(text: str):
    if text == "mirror":
        return MirrorMaterial()
    if text.startswith("diffuse:"):
        _, rgb, rough = text.split(":")
        return DiffuseMaterial(albedo=tuple(float(c) for c in rgb.split(",")),
                               roughness=float(rough))
    raise SystemExit(f"bad material {text!r}; use mirror or diffuse:r,g,b:rough")


def _save_image(path, image):
    path = Path(path)
    if path.suffix == ".png":
        vio.write_png(path, image)
    else:
        vio.write_pfm(path, image)


def _target_surface(bundle, gt) -> tuple[np.ndarray, np.ndarray]:
    """World points and world unit normals (H, W, 3) of the target view,
    from its depth map and the ground-truth camera-frame normals."""
    target = bundle.target
    h, w = target.depth.shape
    cam = target.camera
    jj, ii = np.meshgrid(np.arange(w), np.arange(h))
    points = cam.backproject(jj, ii, target.depth)
    normals = gt["normal"][bundle.target_index].reshape(-1, 3) @ cam.rotation.T
    return points, normals.reshape(h, w, 3)


def cmd_gen_scene(args):
    spec = _load_config(args.config, SceneSpec)
    scene = generate_scene(spec)
    gt = {"albedo": scene.gt_albedo, "rough": scene.gt_rough,
          "normal": scene.gt_normal, "env": scene.gt_env}
    vio.save_scene(args.out, scene.bundle, gt)
    print(f"wrote {spec.num_views} views to {args.out}")


def cmd_fit_sg(args):
    texels = vio.read_pfm(args.env)
    frame = Frame.from_normal(np.array([float(x) for x in args.normal.split(",")]))
    grid = EnvMapGrid(width=texels.shape[1], height=texels.shape[0],
                      frame=frame, texels=texels)
    result = sg_fit(grid, args.lobes, SGFitOptions(max_iters=args.iters))
    vio.save_sg_env(args.out, result.environment)
    print(f"final objective {result.report.final_objective:.3e} "
          f"({result.report.accepted_steps} accepted steps); wrote {args.out}")


def cmd_fit_vsg(args):
    bundle, gt = vio.load_scene(args.scene)
    if "env" not in gt or "normal" not in gt:
        raise SystemExit("scene directory lacks gt env maps / normals")
    points, normals_world = _target_surface(bundle, gt)
    lo = points.reshape(-1, 3).min(axis=0) - 0.2
    hi = points.reshape(-1, 3).max(axis=0) + 0.2
    hi[2] = max(hi[2], lo[2] + 3.0)  # leave head room for lights above
    bounds = Bounds(lo=lo, hi=hi)
    _, targets = _vsg_targets(points, normals_world, gt["env"], args.grid)
    result = vsg_fit(targets, (args.dims,) * 3, bounds,
                     VSGFitOptions(max_iters=args.iters))
    vio.save_volume(args.out, result.volume)
    print(f"final objective {result.report.final_objective:.3e}; wrote {args.out}")


def cmd_render_env(args):
    volume = vio.load_volume(args.volume)
    frame = Frame.from_normal(np.array([float(x) for x in args.normal.split(",")]))
    point = np.array([float(x) for x in args.point.split(",")])
    env = extract_env_map(volume, point, frame, args.height, args.width,
                          args.samples)
    _save_image(args.out, env.texels)
    print(f"wrote {args.out}")


def cmd_rerender(args):
    bundle, gt = vio.load_scene(args.scene)
    if not {"env", "albedo", "rough", "normal"} <= set(gt):
        raise SystemExit("scene directory lacks ground truth maps")
    points, normals_world = _target_surface(bundle, gt)
    diffuse, specular = render_images(points, normals_world,
                                      gt["albedo"][bundle.target_index],
                                      gt["rough"][bundle.target_index],
                                      gt["env"], bundle.target.camera.center)
    _save_image(args.out, diffuse + specular)
    print(f"wrote {args.out}")


def cmd_insert(args):
    material = _parse_material(args.material)
    bundle, gt = vio.load_scene(args.scene)
    volume = vio.load_volume(args.volume)
    sphere = InsertedSphere(
        center=np.array([float(x) for x in args.center.split(",")]),
        radius=args.radius, material=material)
    normal_map = gt["normal"][bundle.target_index] if "normal" in gt else None
    image = insert_object(bundle.target, volume, sphere, normal_map=normal_map,
                          shadow_dirs=(args.shadow_res, 2 * args.shadow_res),
                          n_samples=args.samples)
    _save_image(args.out, image)
    print(f"wrote {args.out}")


def cmd_metrics(args):
    bundle, gt = vio.load_scene(args.scene)
    t = bundle.target_index

    def read(name, gt_key=None):
        path = Path(args.pred) / name
        found = path.exists() and (gt_key is None or gt_key in gt)
        return vio.read_pfm(path) if found else None

    mask = read("mask.pfm")
    mask = np.ones(bundle.target.depth.shape) if mask is None else mask
    losses = StageLossBundle(mask_light=mask, mask_object=mask)
    report = {}
    normal = read(f"normal_{t}.pfm", "normal")
    if normal is not None:
        losses.normal_ref, losses.normal_pred = gt["normal"][t], normal
        report["g1_normal"] = masked_l1_angular(gt["normal"][t], normal, mask)
        report["g2_normal"] = masked_mse(gt["normal"][t], normal, mask)
    albedo = read(f"albedo_{t}.pfm", "albedo")
    if albedo is not None:
        losses.albedo_ref, losses.albedo_pred = gt["albedo"][t], albedo
        report["g3_albedo"] = si_mse(gt["albedo"][t], albedo, mask)
        report["tau_albedo"] = ls_scale(gt["albedo"][t], albedo, mask)
    rough = read(f"rough_{t}.pfm", "rough")
    if rough is not None:
        losses.rough_ref, losses.rough_pred = gt["rough"][t], rough
        report["g2_rough"] = masked_mse(gt["rough"][t], rough, mask)
    env = read("env_target.pfm", "env")
    if env is not None:
        ha, wa = gt["env"].shape[2:4]
        env = vio.untile_env_maps(env, ha, wa)
        report["g4_lighting"] = si_log_mse(gt["env"], env, mask)
        report["tau_lighting"] = ls_scale(gt["env"], env, mask)
    alpha = read("alpha.pfm")
    if alpha is not None:
        report["g5_alpha"] = entropy_reg(alpha)
    image = read(f"rerender_{t}.pfm")
    if image is not None:
        report["g3_rerender"] = si_mse(bundle.target.image, image, mask)
        report["tau_rerender"] = ls_scale(bundle.target.image, image, mask)
    # the stage losses whose every input the files supplied
    stages = [stage for stage, fields in _STAGE_FIELDS.items()
              if all(getattr(losses, f) is not None for f in fields)]
    report.update(stage_losses(losses, stages=stages))
    print(json.dumps(report, indent=2))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2))


def cmd_demo(args):
    config = _load_config(args.config, DemoConfig)
    report = pipeline_demo(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    vio.write_pfm(out / "normal.pfm", report.normal_map)
    vio.write_pfm(out / "rerender.pfm", report.rerendered)
    vio.write_pfm(out / "inserted.pfm", report.inserted)
    vio.write_png(out / "inserted.png", report.inserted, exposure=2.0)
    vio.save_volume(out / "volume.json", report.volume)
    vio.save_surface_volume(out / "surface.json", report.surface_volume)
    vio.write_pfm(out / "fitted_env.pfm", vio.tile_env_maps(report.fitted_envs))
    (out / "report.json").write_text(json.dumps(
        {**report.metrics, "telemetry": report.telemetry}, indent=2, default=float))
    (out / "digest.txt").write_text(report.digest)
    print(json.dumps({k: report.metrics[k] for k in
                      ("normal_g1", "lighting_g4", "rerender_g3")}, indent=2))
    print(f"artifacts in {out}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="voxlight",
                                     description="SG/VSG lighting toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-scene", help="render an analytic multi-view scene")
    p.add_argument("--config", default=None, help="SceneSpec JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_scene)

    p = sub.add_parser("fit-sg", help="fit SG lobes to an env-map PFM")
    p.add_argument("--env", required=True)
    p.add_argument("--lobes", type=int, default=3)
    p.add_argument("--iters", type=int, default=2000)
    p.add_argument("--normal", default="0,0,1")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit_sg)

    p = sub.add_parser("fit-vsg", help="fit a VSG volume to scene gt lighting")
    p.add_argument("--scene", required=True)
    p.add_argument("--dims", type=int, default=8)
    p.add_argument("--grid", type=int, default=2)
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit_vsg)

    p = sub.add_parser("render-env", help="extract an env map from a volume")
    p.add_argument("--volume", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--normal", default="0,0,1")
    p.add_argument("--width", type=int, default=32)
    p.add_argument("--height", type=int, default=16)
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render_env)

    p = sub.add_parser("rerender", help="re-render a scene from its gt maps")
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rerender)

    p = sub.add_parser("insert", help="insert a sphere lit by a VSG volume")
    p.add_argument("--scene", required=True)
    p.add_argument("--volume", required=True)
    p.add_argument("--center", required=True, help="x,y,z meters")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--material", default="mirror")
    p.add_argument("--shadow-res", type=int, default=8, dest="shadow_res")
    p.add_argument("--samples", type=int, default=48)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_insert)

    p = sub.add_parser("metrics", help="score prediction maps against a scene")
    p.add_argument("--scene", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("demo", help="run the end-to-end pipeline demo")
    p.add_argument("--config", default=None, help="DemoConfig JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_demo)

    args = parser.parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
