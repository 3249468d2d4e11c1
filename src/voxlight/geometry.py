"""Pinhole cameras, reprojection, depth-derived normals, and multi-view
attention weights.

Camera frame convention: +z forward, +x right, +y down. Depth maps store
camera-frame z ("plane depth"). Pixel (row i, col j) has continuous image
coordinates (u, v) = (j, i); bilinear samples clamp at the image border.
Normals are reported in the frame of the camera that observed them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PROJECTION_ERROR_CAP = 30.0  # e_k when |d - z| underflows to 0


@dataclass(frozen=True)
class Camera:
    """Pinhole intrinsics plus a rigid world-from-camera pose."""

    fx: float
    fy: float
    cx: float
    cy: float
    rotation: np.ndarray      # 3x3 world-from-camera, row vectors in world
    translation: np.ndarray   # camera center in world, meters

    def __post_init__(self):
        if self.fx <= 0.0 or self.fy <= 0.0:
            raise ValueError("focal lengths must be positive")
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64)
        if r.shape != (3, 3) or t.shape != (3,):
            raise ValueError("rotation must be 3x3 and translation a 3-vector")
        if np.max(np.abs(r @ r.T - np.eye(3))) > 1e-6:
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > 1e-6:
            raise ValueError("rotation must have determinant +1")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @property
    def center(self) -> np.ndarray:
        return self.translation

    def camera_from_world(self, points) -> np.ndarray:
        p = np.asarray(points, dtype=np.float64)
        return (p - self.translation) @ self.rotation

    def world_from_camera(self, points) -> np.ndarray:
        p = np.asarray(points, dtype=np.float64)
        return p @ self.rotation.T + self.translation

    def backproject(self, u, v, depth) -> np.ndarray:
        """World-space point(s) for image coordinates and z-depth."""
        u = np.asarray(u, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        z = np.asarray(depth, dtype=np.float64)
        shape = np.broadcast_shapes(u.shape, v.shape, z.shape)
        pc = np.stack([np.broadcast_to((u - self.cx) / self.fx * z, shape),
                       np.broadcast_to((v - self.cy) / self.fy * z, shape),
                       np.broadcast_to(z, shape)], axis=-1)
        return self.world_from_camera(pc)

    def project(self, points_world) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u, v, z) image coordinates and camera-frame depth of world points."""
        pc = self.camera_from_world(points_world)
        z = pc[..., 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            u = self.fx * pc[..., 0] / z + self.cx
            v = self.fy * pc[..., 1] / z + self.cy
        return u, v, z

    def pixel_directions(self, height: int, width: int) -> np.ndarray:
        """World-space unit ray directions through every pixel center."""
        jj, ii = np.meshgrid(np.arange(width), np.arange(height))
        pc = np.stack([(jj - self.cx) / self.fx,
                       (ii - self.cy) / self.fy,
                       np.ones_like(jj, dtype=np.float64)], axis=-1)
        world = pc @ self.rotation.T
        return world / np.linalg.norm(world, axis=-1, keepdims=True)


@dataclass
class View:
    """One calibrated observation: HDR image, z-depth, confidence, camera."""

    image: np.ndarray       # (H, W, 3), >= 0
    depth: np.ndarray       # (H, W), > 0 meters
    confidence: np.ndarray  # (H, W), in [0, 1]
    camera: Camera

    def __post_init__(self):
        self.image = np.asarray(self.image, dtype=np.float64)
        self.depth = np.asarray(self.depth, dtype=np.float64)
        self.confidence = np.asarray(self.confidence, dtype=np.float64)
        h, w = self.depth.shape
        if self.image.shape != (h, w, 3) or self.confidence.shape != (h, w):
            raise ValueError("image, depth, and confidence sizes disagree")
        if np.any(self.depth <= 0.0):
            raise ValueError("depth values must be positive")
        if np.any(self.confidence < 0.0) or np.any(self.confidence > 1.0):
            raise ValueError("confidence must lie in [0, 1]")


@dataclass
class ViewBundle:
    views: list[View]
    target_index: int = 0

    def __post_init__(self):
        if len(self.views) < 1:
            raise ValueError("a bundle needs at least one view")
        if not (0 <= self.target_index < len(self.views)):
            raise ValueError("target_index out of range")
        shape = self.views[0].depth.shape
        if any(v.depth.shape != shape for v in self.views):
            raise ValueError("all views must share the same resolution")

    @property
    def target(self) -> View:
        return self.views[self.target_index]

    def __len__(self) -> int:
        return len(self.views)


def bilinear_sample(grid: np.ndarray, u, v) -> np.ndarray:
    """Sample ``grid`` (H, W[, C]) at continuous (u, v), clamping at borders."""
    h, w = grid.shape[:2]
    u = np.clip(np.asarray(u, dtype=np.float64), 0.0, w - 1.0)
    v = np.clip(np.asarray(v, dtype=np.float64), 0.0, h - 1.0)
    u0 = np.minimum(np.floor(u).astype(int), max(w - 2, 0))
    v0 = np.minimum(np.floor(v).astype(int), max(h - 2, 0))
    u1 = np.minimum(u0 + 1, w - 1)
    v1 = np.minimum(v0 + 1, h - 1)
    fu = u - u0
    fv = v - v0
    if grid.ndim == 3:
        fu = fu[..., None]
        fv = fv[..., None]
    top = grid[v0, u0] * (1.0 - fu) + grid[v0, u1] * fu
    bot = grid[v1, u0] * (1.0 - fu) + grid[v1, u1] * fu
    return top * (1.0 - fv) + bot * fv


def depth_to_normal(depth: np.ndarray, camera: Camera) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel camera-frame unit normals from a depth map.

    Normals come from the cross product of central-difference derivatives of
    the backprojected 3-D positions (one-sided at borders) and are oriented
    toward the camera. Pixels with a degenerate (zero) cross product fall
    back to (0, 0, -1) and are flagged in the returned mask.
    """
    depth = np.asarray(depth, dtype=np.float64)
    if np.any(depth <= 0.0):
        raise ValueError("depth values must be positive")
    h, w = depth.shape
    jj, ii = np.meshgrid(np.arange(w), np.arange(h))
    positions = np.stack([(jj - camera.cx) / camera.fx * depth,
                          (ii - camera.cy) / camera.fy * depth,
                          depth], axis=-1)
    # np.gradient: central differences inside, one-sided at the borders
    d_dv, d_du = np.gradient(positions, axis=(0, 1))
    cross = np.cross(d_dv, d_du)
    norm = np.linalg.norm(cross, axis=-1)
    degenerate = norm < 1e-12
    safe = np.where(degenerate[..., None], 1.0, norm[..., None])
    normals = cross / safe
    normals[degenerate] = (0.0, 0.0, -1.0)
    # orient toward the camera: n . view_dir < 0 with view_dir ~ position
    flip = np.sum(normals * positions, axis=-1) > 0.0
    normals[flip] *= -1.0
    return normals, degenerate


@dataclass(frozen=True)
class Reprojection:
    """Result of mapping a target-view point into another view."""

    u: float
    v: float
    distance: float        # Euclidean distance from the point to the camera center
    sampled_depth: float   # the other view's depth, bilinear at (u, v); nan if unusable
    in_front: bool
    in_frame: bool

    @property
    def valid(self) -> bool:
        return self.in_front and self.in_frame


def reproject(u: float, v: float, depth: float, target_cam: Camera,
              other_cam: Camera, other_depth: np.ndarray | None = None) -> Reprojection:
    """Project the target-view pixel (u, v, depth) into ``other_cam``.

    Returns the projected image coordinates, the Euclidean distance from the
    3-D point to the other camera center, and the other view's depth sampled
    bilinearly there. Points behind the other camera or outside its frame
    are flagged invalid.
    """
    if depth <= 0.0:
        raise ValueError("depth must be positive")
    point = target_cam.backproject(np.float64(u), np.float64(v), np.float64(depth))
    distance = float(np.linalg.norm(point - other_cam.center))
    pu, pv, pz = other_cam.project(point)
    in_front = bool(pz > 0.0)
    in_frame = False
    sampled = math.nan
    if in_front and other_depth is not None:
        h, w = other_depth.shape
        in_frame = bool(0.0 <= pu <= w - 1.0 and 0.0 <= pv <= h - 1.0)
        if in_frame:
            sampled = float(bilinear_sample(other_depth, pu, pv))
    elif in_front:
        in_frame = True  # no depth map given; frame bounds unknown to caller
    return Reprojection(u=float(pu), v=float(pv), distance=distance,
                        sampled_depth=sampled, in_front=in_front, in_frame=in_frame)


def projection_error(sampled_depth, distance):
    """Depth-projection error e = max(-ln|d - z|, 0), capped where |d - z| = 0.

    Natural log; any other base rescales every e_k by the same constant and
    the normalized multi-view weights are invariant to that.
    """
    d = np.asarray(sampled_depth, dtype=np.float64)
    z = np.asarray(distance, dtype=np.float64)
    gap = np.abs(d - z)
    with np.errstate(divide="ignore"):
        err = np.where(gap > 0.0, -np.log(gap), PROJECTION_ERROR_CAP)
    return np.maximum(err, 0.0)


def multiview_weights(errors, valid=None) -> np.ndarray:
    """Attention weights w = e / ||e||_1 over views.

    Invalid views contribute e_k = 0 before normalization; an all-zero error
    vector falls back to uniform weights (no view is reliable).
    """
    e = np.asarray(errors, dtype=np.float64).copy()
    if np.any(e < 0.0):
        raise ValueError("errors must be nonnegative")
    if valid is not None:
        e[~np.asarray(valid, dtype=bool)] = 0.0
    total = e.sum()
    if total == 0.0:
        return np.full(e.shape, 1.0 / e.size)
    return e / total
