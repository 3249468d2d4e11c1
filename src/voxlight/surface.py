"""Visible surface volume: confidence-weighted reprojection of the target
view's image, normal, albedo, and roughness maps into a voxel grid.

Each voxel center projects into the target camera; its 10-channel record is
rho * [image, normal, albedo, roughness] with
rho = exp(-confidence * (depth - depth_map)^2). Voxels behind the camera or
outside the image are zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Camera, bilinear_sample
from .volume import Bounds

SURFACE_CHANNELS = 10  # rho * [I rgb, N xyz, A rgb, R]


@dataclass
class SurfaceVolume:
    bounds: Bounds
    data: np.ndarray  # (X, Y, Z, 10)
    rho: np.ndarray   # (X, Y, Z) diagnostic weights; 0 outside the frustum

    def __post_init__(self):
        if self.data.ndim != 4 or self.data.shape[3] != SURFACE_CHANNELS:
            raise ValueError(f"data must have shape (X, Y, Z, {SURFACE_CHANNELS})")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("surface volume channels must be finite")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape[:3]


def build_surface_volume(image: np.ndarray, normal: np.ndarray, albedo: np.ndarray,
                         roughness: np.ndarray, depth: np.ndarray,
                         confidence: np.ndarray, camera: Camera,
                         dims: tuple[int, int, int], bounds: Bounds) -> SurfaceVolume:
    """Splat target-view maps into a voxel grid with confidence weights.

    Maps are sampled bilinearly at each voxel's projected pixel. The depth
    difference enters in meters as-is; rescale the confidence map if a
    different falloff is wanted.
    """
    h, w = depth.shape
    for name, m in (("image", image), ("normal", normal), ("albedo", albedo)):
        if m.shape != (h, w, 3):
            raise ValueError(f"{name} must have shape ({h}, {w}, 3)")
    if roughness.shape != (h, w) or confidence.shape != (h, w):
        raise ValueError("roughness and confidence must match the depth shape")

    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError("dims must be positive")

    axes = [bounds.lo[a] + (np.arange(dims[a]) + 0.5) * (bounds.extent[a] / dims[a])
            for a in range(3)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([gx, gy, gz], axis=-1)

    u, v, z = camera.project(centers.reshape(-1, 3))
    valid = (z > 0.0) & (u >= 0.0) & (u <= w - 1.0) & (v >= 0.0) & (v <= h - 1.0)
    uu = np.where(valid, u, 0.0)
    vv = np.where(valid, v, 0.0)

    # bilinear weights act per channel: each map keeps the bits of a lone sample
    maps = np.concatenate([image, normal, albedo, roughness[..., None],
                           depth[..., None], confidence[..., None]], axis=-1)
    samples = bilinear_sample(maps, uu, vv)
    dpt, cnf = samples[:, SURFACE_CHANNELS], samples[:, SURFACE_CHANNELS + 1]

    rho = np.exp(-cnf * np.square(z - dpt))
    rho = np.where(valid, rho, 0.0)
    record = samples[:, :SURFACE_CHANNELS] * rho[:, None]
    record[~valid] = 0.0

    return SurfaceVolume(bounds=bounds,
                         data=record.reshape(dims + (SURFACE_CHANNELS,)),
                         rho=rho.reshape(dims))
