"""Sphere insertion against a VSG lighting volume.

A mirror sphere composites the volume along reflected rays; a diffuse/rough
sphere composites the env maps of its hit points and shades them with
``brdf.shade_env_maps``; ``shade_sphere_pixel`` is a batch of one.
Shadows modulate the existing image by the ratio of hemisphere irradiance
with and without the sphere as an occluder, so no albedo ground truth is
needed. Both texel-ray passes, env maps and shadows, run ``_PIXEL_CHUNK``
pixels at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .brdf import shade_env_maps
from .geometry import View, depth_to_normal
from .sg import cosine_weights, frame_directions, hemisphere_frames, texel_local_directions
from .volume import VSGVolume, composite_rays, env_offset

DEFAULT_ENV_RES = (16, 32)   # (height, width), matching test-time env maps
_PIXEL_CHUNK = 512            # pixels per texel-ray batch, ~21 MB of 16x32 env rays


@dataclass(frozen=True)
class MirrorMaterial:
    pass


@dataclass(frozen=True)
class DiffuseMaterial:
    albedo: tuple[float, float, float]
    roughness: float

    def __post_init__(self):
        albedo = tuple(float(c) for c in self.albedo)
        if any(not (0.0 <= c <= 1.0) for c in albedo):
            raise ValueError("albedo components must lie in [0, 1]")
        if not (0.0 < self.roughness <= 1.0):
            raise ValueError("roughness must lie in (0, 1]")
        object.__setattr__(self, "albedo", albedo)


SphereMaterial = Union[MirrorMaterial, DiffuseMaterial]


@dataclass(frozen=True)
class InsertedSphere:
    center: np.ndarray
    radius: float
    material: SphereMaterial

    def __post_init__(self):
        center = np.asarray(self.center, dtype=np.float64)
        if center.shape != (3,):
            raise ValueError("center must be a 3-vector")
        if self.radius <= 0.0:
            raise ValueError("radius must be positive")
        object.__setattr__(self, "center", center)


def _ray_sphere_t(origins: np.ndarray, directions: np.ndarray, center: np.ndarray,
                  radius: float) -> np.ndarray:
    """Nearest hit parameter t > 1e-9 of each ray (R, 3) origins and unit
    directions with the sphere; inf where the sphere is missed."""
    oc = origins - center
    b = np.sum(oc * directions, axis=-1)
    c = np.sum(oc * oc, axis=-1) - radius * radius
    disc = b * b - c
    sq = np.sqrt(np.maximum(disc, 0.0))
    t_near = -b - sq
    t_far = -b + sq
    t = np.where(t_near > 1e-9, t_near, t_far)
    ok = (disc >= 0.0) & (t > 1e-9)
    return np.where(ok, t, np.inf)


def _texel_rays(volume: VSGVolume, points: np.ndarray, normals: np.ndarray,
                tangents: np.ndarray, bitangents: np.ndarray, n_dirs: tuple[int, int]):
    """Texel-centre rays (P, D, 3) of ``n_dirs`` grids at points (P, 3) in the
    given frames, from origins nudged ``env_offset`` along the normal."""
    dirs = frame_directions(texel_local_directions(*n_dirs), normals[:, None],
                            tangents[:, None], bitangents[:, None])
    origins = (points + env_offset(volume) * normals)[:, None, :]
    return np.broadcast_to(origins, dirs.shape), dirs


def _mirror_radiance(volume: VSGVolume, points: np.ndarray, view_dirs: np.ndarray,
                     normals: np.ndarray, n_samples: int) -> np.ndarray:
    """Radiance (P, 3) a mirror reflects toward the viewer: the volume
    composited from hit points (P, 3) along the reflections of the unit
    camera-to-surface directions (P, 3) about the unit normals (P, 3)."""
    refl = view_dirs - 2.0 * np.sum(view_dirs * normals, axis=-1, keepdims=True) * normals
    refl /= np.linalg.norm(refl, axis=-1, keepdims=True)
    return composite_rays(volume, points, refl, volume.bounds.diagonal, n_samples)


def _diffuse_radiance(material: DiffuseMaterial, volume: VSGVolume, points: np.ndarray,
                      view_dirs: np.ndarray, normals: np.ndarray, n_samples: int):
    """Radiance (P, 3) of a diffuse/rough sphere: env maps of all hits in the
    normals' hemisphere frames, composited and shaded in one batch each. A
    white fourth channel gives the specular albedo; one minus it scales the
    diffuse term, so a white sphere in uniform light returns that light."""
    p = points.shape[0]
    frames = hemisphere_frames(normals)
    origins, dirs = _texel_rays(volume, points, normals, *frames, DEFAULT_ENV_RES)
    radiance = composite_rays(volume, origins.reshape(-1, 3), dirs.reshape(-1, 3),
                              volume.bounds.diagonal, n_samples)
    envs = np.concatenate([radiance, np.ones((radiance.shape[0], 1))], axis=-1)
    v = -view_dirs / np.linalg.norm(view_dirs, axis=-1, keepdims=True)
    diffuse, specular = shade_env_maps(
        envs.reshape((p,) + DEFAULT_ENV_RES + (4,)), normals, *frames, v,
        np.broadcast_to(material.albedo + (0.0,), (p, 4)), np.full(p, material.roughness))
    return diffuse[:, :3] * (1.0 - specular[:, 3:]) + specular[:, :3]


def _by_pixel_chunk(fn, *rows: np.ndarray) -> np.ndarray:
    """``fn`` applied to ``_PIXEL_CHUNK`` rows of the arrays ``rows`` at a
    time, results concatenated. It bounds the texel rays held at once; every
    caller's rows are independent, so a row's bits do not depend on its
    chunk."""
    return np.concatenate([fn(*(r[start:start + _PIXEL_CHUNK] for r in rows))
                           for start in range(0, rows[0].shape[0], _PIXEL_CHUNK)])


def _sphere_radiance(material: SphereMaterial, volume: VSGVolume, points: np.ndarray,
                     view_dirs: np.ndarray, normals: np.ndarray, n_samples: int):
    """Radiance (P, 3) the sphere sends toward the viewer from its hits; a
    diffuse sphere's env maps are composited and shaded by pixel chunk."""
    if isinstance(material, MirrorMaterial):
        return _mirror_radiance(volume, points, view_dirs, normals, n_samples)
    return _by_pixel_chunk(
        lambda p, v, n: _diffuse_radiance(material, volume, p, v, n, n_samples),
        points, view_dirs, normals)


def shade_sphere_pixel(point, normal, material: SphereMaterial, volume: VSGVolume,
                       view_dir, n_samples: int = 64) -> np.ndarray:
    """Radiance leaving the sphere toward the viewer at one hit ``point`` with
    unit outward ``normal``, seen along the unit camera-to-surface direction
    ``view_dir``: a batch of one of what ``insert_object`` does for all its
    sphere pixels."""
    rows = (np.asarray(a, dtype=np.float64)[None] for a in (point, view_dir, normal))
    return _sphere_radiance(material, volume, *rows, n_samples)[0]


def _shadow_ratios(points: np.ndarray, normals: np.ndarray, tangent: np.ndarray,
                   bitangent: np.ndarray, volume: VSGVolume, sphere: InsertedSphere,
                   n_dirs: tuple[int, int], n_samples: int) -> np.ndarray:
    """Fraction of hemisphere irradiance surviving the sphere occluder, at
    surface points (P, 3) in the frames of unit normals, tangents and
    bitangents (P, 3). Both irradiance sums run over ``n_dirs`` texel-centre
    directions, as env-map extraction does; directions whose ray hits the
    sphere add nothing to the numerator. With zero unoccluded irradiance the
    ratio is 1 (no light casts no visible shadow)."""
    origins, dirs = _texel_rays(volume, points, normals, tangent, bitangent, n_dirs)

    # pixels with no occluded direction keep ratio 1 exactly; composite only
    # where the sphere actually blocks something
    blocked = np.isfinite(_ray_sphere_t(origins.reshape(-1, 3), dirs.reshape(-1, 3),
                                        sphere.center, sphere.radius))
    blocked = blocked.reshape(dirs.shape[:2])
    active = np.flatnonzero(blocked.any(axis=1))
    ratios = np.ones(dirs.shape[0])
    if active.size == 0:
        return ratios

    radiance = composite_rays(volume, origins[active].reshape(-1, 3),
                              dirs[active].reshape(-1, 3), volume.bounds.diagonal,
                              n_samples).reshape(active.size, -1, 3)
    energy = radiance * cosine_weights(*n_dirs)[None, :, None]
    total = energy.sum(axis=(1, 2))
    occluded = np.sum(energy * blocked[active][..., None], axis=(1, 2))
    safe = np.where(total > 0.0, total, 1.0)
    ratios[active] = np.where(total > 0.0,
                              np.clip((total - occluded) / safe, 0.0, 1.0), 1.0)
    return ratios


def insert_object(view: View, volume: VSGVolume, sphere: InsertedSphere,
                  normal_map: np.ndarray | None = None,
                  shadow_dirs: tuple[int, int] = DEFAULT_ENV_RES,
                  n_samples: int = 64) -> np.ndarray:
    """Composite the sphere into ``view`` with occlusion and shadows.

    Pixels whose camera ray reaches the sphere before the scene depth get
    sphere shading; all others keep the input radiance scaled by the local
    shadow ratio. Surface normals come from ``normal_map`` (camera frame)
    or are derived from the depth map.
    """
    h, w = view.depth.shape
    camera = view.camera
    dirs = camera.pixel_directions(h, w).reshape(-1, 3)
    origin = camera.center

    t_hit = _ray_sphere_t(np.broadcast_to(origin, dirs.shape), dirs,
                          sphere.center, sphere.radius)
    hit_points = origin + np.where(np.isfinite(t_hit), t_hit, 0.0)[:, None] * dirs
    hit_z = camera.camera_from_world(hit_points)[:, 2]
    on_sphere = np.isfinite(t_hit) & (hit_z < view.depth.reshape(-1))

    if normal_map is None:
        normal_map, _ = depth_to_normal(view.depth, camera)
    normals_world = normal_map.reshape(-1, 3) @ camera.rotation.T

    jj, ii = np.meshgrid(np.arange(w), np.arange(h))
    surface = camera.backproject(jj.reshape(-1), ii.reshape(-1),
                                 view.depth.reshape(-1))

    out = view.image.reshape(-1, 3).copy()
    shadowed = ~on_sphere
    if np.any(shadowed):
        normals = normals_world[shadowed]
        ratios = _by_pixel_chunk(
            lambda *rows: _shadow_ratios(*rows, volume, sphere, shadow_dirs,
                                         n_samples),
            surface[shadowed], normals, *hemisphere_frames(normals))
        out[shadowed] *= ratios[:, None]

    if np.any(on_sphere):
        hits = hit_points[on_sphere]
        out[on_sphere] = _sphere_radiance(sphere.material, volume, hits, dirs[on_sphere],
                                          (hits - sphere.center) / sphere.radius, n_samples)
    return np.maximum(out.reshape(h, w, 3), 0.0)
