"""Volumetric spherical-Gaussian lighting: voxel grids of (opacity + SG),
ray marching with alpha compositing, per-point environment-map extraction,
and gradient-based volume fitting.

Voxels live on a center-aligned lattice inside an axis-aligned box; samples
are read by trilinear interpolation (the axis by normalized linear
interpolation of unit vectors, (0, 0, 1) where the interpolation vanishes).
A ray composites front to back:
radiance = sum_n prod_{m<n}(1 - alpha_m) alpha_n G(-l; sample_n).

Rendering and fitting share one ray path. ``_ray_stencil`` clips rays to the
box and builds the trilinear stencil (a base voxel index, 8 constant corner
offsets and 8 weights per sample) of their stratified samples, ray-major;
``_trilinear`` gathers the channels through it from a channel-major table;
``_composite`` composites the channels (C, R, N) and returns the
intermediates the fit's backward pass reads. ``composite_rays`` runs that
path on chunks of ~16k samples, bitwise equal to marching rays alone. The fit
builds its stencil once and groups whole targets into chunks of at most
``_CHUNK_SAMPLES`` samples; its objective runs gather, composite, loss and
backward pass chunk by chunk, then scatters the gradient with one
``bincount`` per field over all (sample, corner) keys. The scatter stays
global because a voxel's bin adds its terms in (ray, sample, corner) order;
adding per-chunk bins would regroup those sums and change the bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import DEFAULT_BETAS
from .optim import FitReport, minimize_monotone
from .sg import (EnvMapGrid, Frame, _angle_grad, _as_unit, _lobe_axes,
                 export_lobe_params, golden_spiral, texel_directions)

ENV_EPS_FACTOR = 1e-3  # surface offset, in units of mean voxel size

CHANNEL_ORDER = ("alpha", "theta", "phi", "sharpness", "r", "g", "b")

# composite_rays marches rays in chunks of about this many samples (256 rays
# at 64 samples), so the per-chunk arrays stay cache-sized
_CHUNK_SAMPLES = 16384

# trilinear corners (dx, dy, dz) in x-major order
_CORNERS = np.array([(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)])


@dataclass(frozen=True)
class Bounds:
    """Axis-aligned box in world space, meters."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=np.float64)
        hi = np.asarray(self.hi, dtype=np.float64)
        if lo.shape != (3,) or hi.shape != (3,):
            raise ValueError("bounds need 3-vector corners")
        if not np.all(hi > lo):
            raise ValueError("bounds must have strictly positive extent on all axes")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def extent(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def diagonal(self) -> float:
        return float(np.linalg.norm(self.extent))


@dataclass(frozen=True)
class Ray:
    origin: np.ndarray
    direction: np.ndarray
    t_max: float

    def __post_init__(self):
        origin = np.asarray(self.origin, dtype=np.float64)
        direction = _as_unit(self.direction)
        if self.t_max <= 0.0:
            raise ValueError("t_max must be positive")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "direction", direction)


@dataclass
class VSGVolume:
    """X x Y x Z grid of 7-scalar voxels: opacity alpha, axis (theta, phi),
    sharpness, RGB intensity. Equivalent to an 8-channel record with the
    axis held as a unit 3-vector; here the axis is stored as two angles."""

    bounds: Bounds
    voxels: np.ndarray  # (X, Y, Z, 7), channels per CHANNEL_ORDER

    def __post_init__(self):
        v = np.asarray(self.voxels, dtype=np.float64)
        if v.ndim != 4 or v.shape[3] != 7 or 0 in v.shape[:3]:
            raise ValueError(f"voxels must have shape (X, Y, Z, 7) with X, Y, Z "
                             f">= 1, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("voxel channels must all be finite")
        if np.any(v[..., 0] < 0.0) or np.any(v[..., 0] > 1.0):
            raise ValueError("opacity must lie in [0, 1]")
        if np.any(v[..., 3] < 0.0):
            raise ValueError("sharpness must be >= 0")
        if np.any(v[..., 4:7] < 0.0):
            raise ValueError("intensity must be >= 0")
        self.voxels = v

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.voxels.shape[:3]

    @property
    def cell_size(self) -> np.ndarray:
        return self.bounds.extent / np.asarray(self.dims)

    def axis_vectors(self) -> np.ndarray:
        return _lobe_axes(self.voxels[..., 1], self.voxels[..., 2])

    @staticmethod
    def uniform(dims: tuple[int, int, int], bounds: Bounds, alpha: float = 0.0,
                axis_theta: float = 0.0, axis_phi: float = 0.0,
                sharpness: float = 0.0, intensity=(0.0, 0.0, 0.0)) -> "VSGVolume":
        voxels = np.empty(tuple(dims) + (7,))
        voxels[...] = (alpha, axis_theta, axis_phi, sharpness, *intensity)
        return VSGVolume(bounds=bounds, voxels=voxels)


def _clip_rays(bounds: Bounds, origins: np.ndarray, directions: np.ndarray,
               t_max: float):
    """Parametric [t_near, t_far) of rays inside ``bounds`` and a hit mask,
    over the broadcast shape of ``origins`` and ``directions`` (..., 3); a
    ray that misses gets the span [0, 1)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(np.abs(directions) > 1e-300, 1.0 / directions, np.inf)
    t0, t1 = (bounds.lo - origins) * inv, (bounds.hi - origins) * inv
    lo, hi = np.minimum(t0, t1), np.maximum(t0, t1)
    # degenerate axes: inside -> (-inf, inf), outside -> empty
    par = np.abs(directions) <= 1e-300
    inside = (origins >= bounds.lo) & (origins <= bounds.hi)
    lo = np.where(par, np.where(inside, -np.inf, np.inf), lo)
    hi = np.where(par, np.where(inside, np.inf, -np.inf), hi)
    t_near = np.maximum(lo.max(axis=-1), 0.0)
    t_far = np.minimum(hi.min(axis=-1), t_max)
    hit = t_far > t_near
    return np.where(hit, t_near, 0.0), np.where(hit, t_far, 1.0), hit


def _stencil(volume: VSGVolume, points: np.ndarray):
    """Trilinear stencil at world points given as coordinate rows (3, P): the
    flat index of each point's lowest corner (P,), the 8 corner offsets (8,)
    and the corner weights (8, P). An axis of size 1 has stride 0."""
    dims = np.asarray(volume.dims)[:, None]
    grid = (points - volume.bounds.lo[:, None]) / volume.cell_size[:, None] - 0.5
    grid = np.clip(grid, 0.0, dims - 1.0)
    i0 = np.minimum(np.floor(grid).astype(np.int64), np.maximum(dims - 2, 0))
    frac = np.where(dims > 1, grid - i0, 0.0)
    _, y, z = volume.dims
    base = (i0[0] * y + i0[1]) * z + i0[2]
    offsets = _CORNERS @ (np.array([y * z, z, 1]) * (dims[:, 0] > 1))
    wx, wy, wz = ((1.0 - f, f) for f in frac)
    weights = np.empty((8, points.shape[1]))
    for k, (a, b, c) in enumerate(_CORNERS):
        np.multiply(wx[a], wy[b], out=weights[k])
        weights[k] *= wz[c]
    return base, offsets, weights


def _trilinear(table: np.ndarray, stencil) -> np.ndarray:
    """Voxel table (C, V) interpolated at a stencil's points, (C, P): the sum
    of w_k * table[:, base + off_k] over corners k = 0..7 from zero. Indices
    are in range by construction; mode="clip" lets take write into corner."""
    base, offsets, weights = stencil
    out = np.zeros((table.shape[0], base.shape[0]))
    corner = np.empty_like(out)
    for off, w in zip(offsets, weights):
        table.take(base + off, axis=1, out=corner, mode="clip")
        corner *= w
        out += corner
    return out


def _channel_table(volume: VSGVolume) -> np.ndarray:
    """Per-voxel rows (8, V): alpha, unit axis xyz, sharpness, RGB intensity."""
    return np.concatenate([volume.voxels[..., 0].reshape(1, -1),
                           volume.axis_vectors().reshape(-1, 3).T,
                           volume.voxels[..., 3:7].reshape(-1, 4).T])


def _ray_stencil(volume: VSGVolume, origins: np.ndarray, directions: np.ndarray,
                 t_max: float, n_samples: int):
    """Ray-major samples of rays (R, 3): parameters t (R, N) at the midpoints
    of N equal spans of each ray's segment inside the box, the hit mask (R,),
    and the stencil of the R * N sample points, with weights zeroed on rays
    that miss the box so that every channel reads 0 there."""
    t_near, t_far, hit = _clip_rays(volume.bounds, origins, directions, t_max)
    frac = (np.arange(n_samples) + 0.5) / n_samples
    ts = t_near[:, None] + frac * (t_far - t_near)[:, None]
    points = origins.T[..., None] + ts * directions.T[..., None]
    base, offsets, weights = _stencil(volume, points.reshape(3, -1))
    weights *= np.repeat(hit, n_samples)
    return ts, hit, (base, offsets, weights)


def _front_to_back(alpha: np.ndarray):
    """Transmittance through samples m <= n and through m < n, and the
    weights prod_{m<n}(1 - alpha_m) * alpha_n, samples along the last axis."""
    trans = np.cumprod(1.0 - alpha, axis=-1)
    excl = np.concatenate([np.ones(alpha.shape[:-1] + (1,)), trans[..., :-1]], axis=-1)
    return trans, excl, excl * alpha


def _composite(interp: np.ndarray, directions: np.ndarray):
    """Radiance (R, 3) arriving at the origins of rays with unit directions
    (R, 3) from the channels (8, R, N) at their ray-major samples: alpha,
    axis xyz, sharpness, RGB intensity. Each sample emits its SG opposite to
    travel, G(-l), about its normalized axis, or (0, 0, 1) where the axis
    vanishes. Also returns the intermediates of the fit's backward pass:
    (axis, -directions (3, R, 1), live axis mask, axis norm or 1, dots,
    exp term, emission, transmittance, exclusive transmittance, weights,
    per-sample radiance)."""
    alpha, u, sharp, eta = interp[0], interp[1:4], interp[4], interp[5:8]
    nd = -directions.T[..., None]
    # 3-term sums over xyz or rgb add (x0 + x1) + x2, as np.sum does over a
    # trailing axis of length 3
    norm = np.sqrt((u[0] * u[0] + u[1] * u[1]) + u[2] * u[2])
    live = norm > 1e-12
    safe = np.where(live, norm, 1.0)
    axis = np.where(live, u / safe, np.array([0.0, 0.0, 1.0])[:, None, None])
    dots = (axis[0] * nd[0] + axis[1] * nd[1]) + axis[2] * nd[2]
    expo = np.exp(sharp * (dots - 1.0))
    emit = eta * expo
    trans, excl, wgt = _front_to_back(alpha)
    contrib = wgt * emit
    # a running sum adds the samples in order for any batch shape, so a lone
    # ray and the same ray in a batch agree bitwise; np.sum would add them
    # pairwise
    rendered = np.cumsum(contrib, axis=-1)[..., -1].T
    return rendered, (axis, nd, live, safe, dots, expo, emit, trans, excl, wgt, contrib)


def composite_ray(volume: VSGVolume, ray: Ray, n_samples: int) -> np.ndarray:
    """Alpha-composited RGB radiance arriving at the ray origin: each sample
    emits its SG in the direction opposite to travel, G(-l), weighted by
    prod_{m<n}(1 - alpha_m) * alpha_n. A batch of one ``composite_rays``."""
    return composite_rays(volume, ray.origin[None, :], ray.direction[None, :],
                          ray.t_max, n_samples)[0]


def composite_rays(volume: VSGVolume, origins: np.ndarray, directions: np.ndarray,
                   t_max: float, n_samples: int) -> np.ndarray:
    """Vectorized ``composite_ray`` over (R, 3) origins and unit directions."""
    origins = np.asarray(origins, dtype=np.float64)
    directions = np.asarray(directions, dtype=np.float64)
    if origins.ndim != 2 or origins.shape[1] != 3 or directions.shape != origins.shape:
        raise ValueError(f"origins and directions must be (R, 3): {origins.shape}, "
                         f"{directions.shape}")
    if not (np.all(np.isfinite(origins)) and np.all(np.isfinite(directions))):
        raise ValueError("ray origins and directions must be finite")
    if np.any(np.abs(np.linalg.norm(directions, axis=-1) - 1.0) > 1e-6):
        raise ValueError("ray directions must have unit length")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    out = np.empty((origins.shape[0], 3))
    table = _channel_table(volume)
    chunk = max(1, _CHUNK_SAMPLES // n_samples)
    for start in range(0, origins.shape[0], chunk):
        sl = slice(start, start + chunk)
        _, _, stencil = _ray_stencil(volume, origins[sl], directions[sl], t_max,
                                     n_samples)
        interp = _trilinear(table, stencil).reshape(8, -1, n_samples)
        np.minimum(interp[0], 1.0, out=interp[0])
        out[sl] = _composite(interp, directions[sl])[0]
    return np.maximum(out, 0.0)


def env_offset(volume: VSGVolume) -> float:
    return ENV_EPS_FACTOR * float(np.mean(volume.cell_size))


def _env_rays(volume: VSGVolume, point, frame: Frame, height: int, width: int):
    """Origins and directions (height * width, 3) of the texel-centre rays of
    an env map at ``point``, the origin nudged along the frame normal so the
    surface's own voxel does not occlude it."""
    dirs = texel_directions(height, width, frame).reshape(-1, 3)
    origin = np.asarray(point, dtype=np.float64) + env_offset(volume) * frame.normal
    return np.broadcast_to(origin, dirs.shape), dirs


def extract_env_map(volume: VSGVolume, point, frame: Frame, height: int,
                    width: int, n_samples: int = 64) -> EnvMapGrid:
    """Hemispherical environment map at ``point`` by compositing one ray per
    texel-center direction (``_env_rays``)."""
    radiance = composite_rays(volume, *_env_rays(volume, point, frame, height, width),
                              volume.bounds.diagonal, n_samples)
    return EnvMapGrid(width=width, height=height, frame=frame,
                      texels=radiance.reshape(height, width, 3))


# ---------------------------------------------------------------------------
# Fitting. Internal parameterization per voxel: (logit alpha, theta, phi,
# log sharpness, log intensity rgb); sigmoid/exp keep the invariants without
# clamping. Ray geometry and interpolation stencils are fixed up front, so
# the objective is smooth in the parameters.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvTarget:
    """One supervision point: hemisphere env map observed at ``point``."""

    point: np.ndarray
    frame: Frame
    grid: EnvMapGrid


@dataclass
class VSGFitOptions:
    max_iters: int = 3000
    n_samples: int = 64


# every voxel starts at this opacity and SG sharpness
_INIT_ALPHA, _INIT_SHARPNESS = 0.1, 0.5


@dataclass
class VSGFitResult:
    volume: VSGVolume
    report: FitReport


class VSGFitProblem:
    """Precomputed geometry for the fit objective: the texel rays of every
    target (``_env_rays``), their ``_ray_stencil``, the voxel key of every
    (sample, corner) pair and its weight as a contiguous (P, 8) array for the
    per-field gradient scatter, and flattened target radiance.

    ``chunks`` groups whole targets, in order, into runs of at most
    ``_CHUNK_SAMPLES`` samples (one target per chunk if a target alone is
    larger): each entry is the chunk's ray slice and its target indices. The
    objective works chunk by chunk so its (R, N) temporaries stay
    cache-sized."""

    def __init__(self, targets, dims, bounds: Bounds, options: VSGFitOptions):
        if len(targets) == 0:
            raise ValueError("at least one fit target is required")
        if options.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if len(dims) != 3 or not all(isinstance(d, (int, np.integer)) and d >= 1
                                     for d in dims):
            raise ValueError(f"dims must be three positive ints, got {tuple(dims)}")
        dims = tuple(int(d) for d in dims)
        if np.prod(dims) > 32 ** 3:
            raise ValueError("fit volumes are limited to 32^3 voxels")
        self.dims = dims
        self.bounds = bounds
        self.options = options
        self.n_voxels = int(np.prod(dims))

        template = VSGVolume.uniform(dims, bounds)
        origin_list, dir_list, self.slices, self.target_flat = [], [], [], []
        start = 0
        for target in targets:
            grid = target.grid
            origins, dirs = _env_rays(template, target.point, target.frame,
                                      grid.height, grid.width)
            origin_list.append(origins)
            dir_list.append(dirs)
            self.slices.append(slice(start, start + dirs.shape[0]))
            start += dirs.shape[0]
            flat = grid.texels.reshape(-1, 3)
            if not np.all(np.isfinite(flat)):
                raise ValueError("target texels must all be finite")
            self.target_flat.append(flat)

        self.directions = np.concatenate(dir_list)
        _, _, self.stencil = _ray_stencil(template, np.concatenate(origin_list),
                                          self.directions, bounds.diagonal,
                                          options.n_samples)
        base, offsets, weights = self.stencil
        # voxel index and weight of every (sample, corner) pair, in that order
        self.corner_keys = (base[:, None] + offsets).ravel()
        self.corner_weights = np.ascontiguousarray(weights.T)
        n, self.chunks = options.n_samples, []
        for k, sl in enumerate(self.slices):
            if self.chunks and (sl.stop - self.chunks[-1][0].start) * n <= _CHUNK_SAMPLES:
                rays, members = self.chunks[-1]
                self.chunks[-1] = (slice(rays.start, sl.stop), members + [k])
            else:
                self.chunks.append((sl, [k]))


def _split_params(params: np.ndarray, n_voxels: int):
    p = params.reshape(n_voxels, 7)
    with np.errstate(over="ignore"):  # saturated logits map cleanly to 0/1
        alpha = 1.0 / (1.0 + np.exp(-p[:, 0]))
    return p, alpha, _lobe_axes(p[:, 1], p[:, 2]), np.exp(p[:, 3]), np.exp(p[:, 4:7])


def _g4_and_grad(target: np.ndarray, rendered: np.ndarray):
    """Scale-invariant log-space MSE of (target, rendered) and d/d rendered.

    The least-squares scale multiplies the rendered side; its dependence on
    the rendered values is differentiated through (no envelope shortcut,
    since the scale is optimal in linear space but the loss is in log space).
    """
    with np.errstate(over="ignore"):
        sbb = float(np.sum(rendered * rendered))
    if not math.isfinite(sbb):  # exploded proposal; let the driver reject it
        return math.inf, np.zeros_like(rendered)
    if sbb < 1e-300:
        log_a = np.log1p(target)
        return float(np.mean(log_a * log_a)), np.zeros_like(rendered)
    sab = float(np.sum(target * rendered))
    tau = sab / sbb
    scaled = tau * rendered + 1.0
    diff = np.log1p(target) - np.log(scaled)
    n = diff.size
    value = float(np.mean(diff * diff))
    base = (-2.0 / n) * diff / scaled
    grad = base * tau
    dtau = float(np.sum(base * rendered))
    grad = grad + dtau * (target - 2.0 * tau * rendered) / sbb
    return value, grad


def vsg_fit_objective(params: np.ndarray, problem: VSGFitProblem):
    """Fit objective beta1 * sum_targets g4 + beta2 * mean_vox(-alpha ln alpha)
    and its analytic gradient with respect to the raw parameters; (beta1,
    beta2) are the first two of ``DEFAULT_BETAS["svl"]``, as in L_SVL."""
    with np.errstate(over="ignore", invalid="ignore"):
        value, grad = _vsg_objective_impl(params, problem)
    if not math.isfinite(value) or not np.all(np.isfinite(grad)):
        return math.inf, np.zeros_like(np.asarray(params, dtype=np.float64))
    return value, grad


def _vsg_objective_impl(params: np.ndarray, problem: VSGFitProblem):
    beta_fit, beta_entropy = DEFAULT_BETAS["svl"][:2]
    nvox = problem.n_voxels
    p, alpha_v, axis_v, sharp_v, eta_v = _split_params(params, nvox)
    n = problem.options.n_samples
    base, offsets, weights = problem.stencil

    # per chunk, one gather for all 8 interpolated fields: alpha, axis xyz,
    # sharp, eta, each channel-major (R, N) over the ray-major samples
    table = np.concatenate([alpha_v[None], axis_v.T, sharp_v[None], eta_v.T])
    value = 0.0
    d_fields = np.empty((8, base.shape[0]))   # per-sample gradient of each field
    for rays, chunk_targets in problem.chunks:
        samples = slice(rays.start * n, rays.stop * n)
        n_rays = rays.stop - rays.start
        interp = _trilinear(table, (base[samples], offsets, weights[:, samples]))
        interp = interp.reshape(8, n_rays, n)
        sharp, eta = interp[4], interp[5:8]
        rendered, (axis, nd, live, safe, dots, expo, emit, trans, excl, wgt,
                   contrib) = _composite(interp, problem.directions[rays])
        rendered = np.ascontiguousarray(rendered)

        d_rendered = np.empty_like(rendered)
        for t in chunk_targets:
            sl = slice(problem.slices[t].start - rays.start,
                       problem.slices[t].stop - rays.start)
            v, g = _g4_and_grad(problem.target_flat[t], rendered[sl])
            value += beta_fit * v
            d_rendered[sl] = beta_fit * g

        # tail_n = radiance composited from samples > n, non-recursive suffix form
        suffix = np.cumsum(contrib[..., ::-1], axis=-1)[..., ::-1]
        tail_next = np.concatenate([suffix[..., 1:], np.zeros((3, n_rays, 1))], axis=-1)
        tsafe = np.where(trans > 1e-290, trans, 1.0)
        tail = np.where(trans > 1e-290, tail_next / tsafe, 0.0)
        d_r = d_rendered.T[..., None]                            # (3, R, 1)
        d_emit = wgt * d_r
        q = d_r * excl * (emit - tail)
        d_alpha = (q[0] + q[1]) + q[2]

        q = d_emit * eta
        d_expo = (q[0] + q[1]) + q[2]
        d_eta = d_emit * expo
        d_sharp = d_expo * expo * (dots - 1.0)
        d_dots = d_expo * expo * sharp
        d_axis = d_dots * nd
        q = axis * d_axis
        d_u = (d_axis - axis * ((q[0] + q[1]) + q[2])) / safe
        d_u = np.where(live, d_u, 0.0)
        for f, g in enumerate((d_alpha, *d_u, d_sharp, *d_eta)):
            d_fields[f, samples] = g.ravel()

    # entropy regularizer -alpha ln alpha, mean over voxels
    tiny = alpha_v > 1e-290
    ent = np.where(tiny, -alpha_v * np.log(np.where(tiny, alpha_v, 1.0)), 0.0)
    value += beta_entropy * float(np.mean(ent))
    d_alpha_reg = beta_entropy / nvox * np.where(
        tiny, -np.log(np.where(tiny, alpha_v, 1.0)) - 1.0, 0.0)

    # one scatter per field over all (sample, corner) keys, so each voxel's
    # bin adds its terms in (ray, sample, corner) order; a bincount per chunk
    # summed afterwards would regroup those adds and change the bits
    weighted = np.empty(problem.corner_weights.shape)
    accum = np.empty((8, nvox))
    for f, g in enumerate(d_fields):
        np.multiply(problem.corner_weights, g.reshape(-1, 1), out=weighted)
        accum[f] = np.bincount(problem.corner_keys, weights=weighted.ravel(),
                               minlength=nvox)
    d_alpha_vox = d_alpha_reg + accum[0]
    d_axis_vox = accum[1:4].T
    d_sharp_vox = accum[4]
    d_eta_vox = accum[5:8].T

    grad = np.empty_like(p)
    grad[:, 0] = d_alpha_vox * alpha_v * (1.0 - alpha_v)
    grad[:, 1], grad[:, 2] = _angle_grad(d_axis_vox, p[:, 1], p[:, 2])
    grad[:, 3] = d_sharp_vox * sharp_v
    grad[:, 4:7] = d_eta_vox * eta_v
    return value, grad.ravel()


def _initial_params(problem: VSGFitProblem) -> np.ndarray:
    nvox = problem.n_voxels
    mean = np.concatenate(problem.target_flat).mean(axis=0)
    axes = golden_spiral(1.0 - (2.0 * np.arange(nvox) + 1.0) / nvox)  # whole sphere
    p = np.empty((nvox, 7))
    p[:, 0] = math.log(_INIT_ALPHA / (1.0 - _INIT_ALPHA))
    p[:, 1] = np.arccos(np.clip(axes[:, 2], -1.0, 1.0))
    p[:, 2] = np.arctan2(axes[:, 1], axes[:, 0])
    p[:, 3] = math.log(_INIT_SHARPNESS)
    p[:, 4:7] = np.log(np.maximum(mean, 1e-4))
    return p.ravel()


def _params_to_volume(params: np.ndarray, problem: VSGFitProblem) -> VSGVolume:
    p, alpha, *_ = _split_params(params, problem.n_voxels)
    theta, phi, values = export_lobe_params(p[:, 1], p[:, 2], p[:, 3:7])
    voxels = np.column_stack([np.clip(alpha, 0.0, 1.0), theta, phi, values])
    return VSGVolume(bounds=problem.bounds,
                     voxels=voxels.reshape(problem.dims + (7,)))


def vsg_fit(targets, dims, bounds: Bounds,
            options: VSGFitOptions | None = None) -> VSGFitResult:
    """Fit a VSG volume to hemispherical env-map targets by monotone gradient
    descent through the compositing chain.

    ``targets`` is a sequence of EnvTarget. The objective (``vsg_fit_objective``) is 10 * g4 per target plus
    1e-2 times the opacity entropy, which pushes alpha toward {0, 1}. A run that
    fails to improve on the initialization is returned with
    ``report.converged`` False.
    """
    options = options or VSGFitOptions()
    problem = VSGFitProblem(targets, dims, bounds, options)
    result = minimize_monotone(
        lambda p: vsg_fit_objective(p, problem), _initial_params(problem),
        max_iters=options.max_iters, step=0.1)
    return VSGFitResult(volume=_params_to_volume(result.x, problem),
                        report=result.report)
