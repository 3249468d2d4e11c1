"""A per-ray reference march, written apart from voxlight's batched one.

It follows the documented model: the ray is clipped to the volume bounds,
sampled at the midpoints of ``n_samples`` equal spans, the voxel channels
are trilinearly interpolated between voxel centers (clamped at the border),
and each sample emits its SG in the direction opposite to travel,
composited front to back.
"""

from __future__ import annotations

import math

import numpy as np


def _clip(lo, hi, origin, direction, t_max):
    t_near, t_far = 0.0, t_max
    for axis in range(3):
        d = direction[axis]
        if abs(d) <= 1e-300:
            if not lo[axis] <= origin[axis] <= hi[axis]:
                return None
            continue
        t0 = (lo[axis] - origin[axis]) / d
        t1 = (hi[axis] - origin[axis]) / d
        t_near = max(t_near, min(t0, t1))
        t_far = min(t_far, max(t0, t1))
    return (t_near, t_far) if t_far > t_near else None


def _records(voxels):
    """Per-voxel (alpha, axis xyz, sharpness, rgb): the axis angles become a
    unit vector, which is what gets interpolated."""
    theta, phi = voxels[..., 1], voxels[..., 2]
    axis = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                     np.cos(theta)], axis=-1)
    return np.concatenate([voxels[..., 0:1], axis, voxels[..., 3:7]], axis=-1)


def _trilinear(record, lo, hi, point):
    """Interpolated voxel record at ``point``."""
    dims = record.shape[:3]
    base, frac = [], []
    for a in range(3):
        cell = (hi[a] - lo[a]) / dims[a]
        g = min(max((point[a] - lo[a]) / cell - 0.5, 0.0), dims[a] - 1.0)
        i = min(math.floor(g), max(dims[a] - 2, 0))
        base.append(i)
        frac.append(g - i if dims[a] > 1 else 0.0)
    value = np.zeros(8)
    for cx in (0, 1):
        for cy in (0, 1):
            for cz in (0, 1):
                w = ((frac[0] if cx else 1.0 - frac[0])
                     * (frac[1] if cy else 1.0 - frac[1])
                     * (frac[2] if cz else 1.0 - frac[2]))
                idx = tuple(min(base[a] + c, dims[a] - 1)
                            for a, c in enumerate((cx, cy, cz)))
                value += w * record[idx]
    return value


def march(voxels, lo, hi, origin, direction, t_max: float,
          n_samples: int) -> np.ndarray:
    """RGB radiance arriving at ``origin`` along unit ``direction``."""
    voxels = np.asarray(voxels, dtype=np.float64)
    origin = np.asarray(origin, dtype=np.float64)
    direction = np.asarray(direction, dtype=np.float64)
    span = _clip(lo, hi, origin, direction, t_max)
    if span is None:
        return np.zeros(3)
    t_near, t_far = span
    record = _records(voxels)
    radiance = np.zeros(3)
    transmittance = 1.0
    for k in range(n_samples):
        t = t_near + (k + 0.5) / n_samples * (t_far - t_near)
        v = _trilinear(record, lo, hi, origin + t * direction)
        alpha = min(max(v[0], 0.0), 1.0)
        u = v[1:4]
        norm = float(np.linalg.norm(u))
        axis = u / norm if norm > 1e-12 else np.array([0.0, 0.0, 1.0])
        sharp = max(v[4], 0.0)
        rgb = np.maximum(v[5:8], 0.0)
        emit = rgb * math.exp(sharp * (float(-axis @ direction) - 1.0))
        radiance += transmittance * alpha * emit
        transmittance *= 1.0 - alpha
    return np.maximum(radiance, 0.0)
