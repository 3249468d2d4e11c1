"""Spherical-Gaussian lobes, environments, hemispherical radiance grids,
and gradient-based SG fitting.

A lobe stores its axis as spherical angles (theta, phi) and is evaluated as a
unit 3-vector, radiance eta * exp(lambda * (dot(l, axis) - 1)). Environments
sum lobes scaled by per-lobe visibility in [0, 1]. Radiance grids discretize
the upper hemisphere around a local frame in equirectangular fashion
(elevation rows x azimuth columns, texel directions at cell centers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optim import FitReport, minimize_monotone

UNIT_NORM_TOL = 1e-6


def _as_unit(vector, tol: float = UNIT_NORM_TOL) -> np.ndarray:
    v = np.asarray(vector, dtype=np.float64)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > tol:
        raise ValueError(f"direction must have unit norm, got {norm!r}")
    return v


def normalize(vector) -> np.ndarray:
    v = np.asarray(vector, dtype=np.float64)
    norm = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(norm == 0.0):
        raise ValueError("cannot normalize a zero vector")
    return v / norm


def spherical_to_unit(theta: float, phi: float) -> np.ndarray:
    """Unit vector for polar angle theta (from +z) and azimuth phi."""
    st = math.sin(theta)
    return np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])


def unit_to_spherical(direction) -> tuple[float, float]:
    d = np.asarray(direction, dtype=np.float64)
    theta = math.acos(min(1.0, max(-1.0, float(d[2]))))
    phi = math.atan2(float(d[1]), float(d[0]))
    if phi >= math.pi:  # keep phi in [-pi, pi)
        phi -= 2.0 * math.pi
    return theta, phi


@dataclass(frozen=True)
class Frame:
    """Right-handed orthonormal basis; ``tangent x bitangent == normal``."""

    normal: np.ndarray
    tangent: np.ndarray
    bitangent: np.ndarray

    def __post_init__(self):
        n = _as_unit(self.normal)
        t = _as_unit(self.tangent)
        b = _as_unit(self.bitangent)
        for a, c, name in ((n, t, "normal/tangent"), (n, b, "normal/bitangent"),
                           (t, b, "tangent/bitangent")):
            if abs(float(np.dot(a, c))) > 1e-9:
                raise ValueError(f"frame vectors {name} are not orthogonal")
        if np.linalg.norm(np.cross(t, b) - n) > 1e-9:
            raise ValueError("frame is not right-handed (tangent x bitangent != normal)")
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "tangent", t)
        object.__setattr__(self, "bitangent", b)

    @staticmethod
    def from_normal(normal) -> "Frame":
        """Build a deterministic frame around ``normal``: a batch of one
        ``hemisphere_frames``."""
        n = normalize(normal)
        t, b = hemisphere_frames(n.reshape(1, 3))
        return Frame(normal=n, tangent=t[0], bitangent=b[0])


def hemisphere_frames(normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tangents and bitangents (P, 3) for a batch of unit normals (P, 3): the
    tangent is ref x n normalized, with ref = +z unless |n_z| >= 0.9 and +x
    then, and the bitangent is n x tangent."""
    ref = np.where(np.abs(normals[:, 2:3]) < 0.9, np.array([0.0, 0.0, 1.0]),
                   np.array([1.0, 0.0, 0.0]))
    t = np.cross(ref, normals)
    t /= np.linalg.norm(t, axis=-1, keepdims=True)
    return t, np.cross(normals, t)


@dataclass(frozen=True)
class SGLobe:
    """One spherical-Gaussian radiance lobe."""

    axis_theta: float
    axis_phi: float
    sharpness: float
    intensity: tuple[float, float, float]

    def __post_init__(self):
        if not (0.0 <= self.axis_theta <= math.pi):
            raise ValueError(f"axis_theta must lie in [0, pi], got {self.axis_theta}")
        if not (-math.pi <= self.axis_phi < math.pi):
            raise ValueError(f"axis_phi must lie in [-pi, pi), got {self.axis_phi}")
        if not (math.isfinite(self.sharpness) and self.sharpness >= 0.0):
            raise ValueError(f"sharpness must be finite and >= 0, got {self.sharpness}")
        intensity = tuple(float(c) for c in self.intensity)
        if len(intensity) != 3 or any(not math.isfinite(c) or c < 0.0 for c in intensity):
            raise ValueError(f"intensity must be 3 finite nonnegative values, got {self.intensity}")
        object.__setattr__(self, "intensity", intensity)

    def unit_axis(self) -> np.ndarray:
        return spherical_to_unit(self.axis_theta, self.axis_phi)


@dataclass(frozen=True)
class SGEnvironment:
    """An ordered set of SG lobes with per-lobe visibility in [0, 1]."""

    lobes: tuple[SGLobe, ...]
    visibility: tuple[float, ...] = ()

    def __post_init__(self):
        lobes = tuple(self.lobes)
        if len(lobes) < 1:
            raise ValueError("an environment needs at least one lobe")
        vis = tuple(float(v) for v in self.visibility) if self.visibility else (1.0,) * len(lobes)
        if len(vis) != len(lobes):
            raise ValueError(f"{len(lobes)} lobes but {len(vis)} visibility values")
        if any(not (0.0 <= v <= 1.0) for v in vis):
            raise ValueError("every visibility value must lie in [0, 1]")
        object.__setattr__(self, "lobes", lobes)
        object.__setattr__(self, "visibility", vis)

    def __len__(self) -> int:
        return len(self.lobes)

    def axes(self) -> np.ndarray:
        return np.stack([lobe.unit_axis() for lobe in self.lobes])

    def sharpness(self) -> np.ndarray:
        return np.array([lobe.sharpness for lobe in self.lobes])

    def intensities(self) -> np.ndarray:
        return np.array([lobe.intensity for lobe in self.lobes])


@dataclass(frozen=True)
class EnvMapGrid:
    """Discrete radiance map over the upper hemisphere of ``frame``.

    Rows index elevation from the normal (row 0 nearest the pole), columns
    index azimuth in [-pi, pi); texels hold RGB radiance at cell centers.
    """

    width: int
    height: int
    frame: Frame
    texels: np.ndarray

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("resolution must be at least 1x1")
        texels = np.asarray(self.texels, dtype=np.float64)
        if texels.shape != (self.height, self.width, 3):
            raise ValueError(
                f"texels must have shape ({self.height}, {self.width}, 3), got {texels.shape}")
        if not np.all(np.isfinite(texels)) or np.any(texels < 0.0):
            raise ValueError("texel values must be finite and >= 0")
        object.__setattr__(self, "texels", texels)

    def directions(self) -> np.ndarray:
        return texel_directions(self.height, self.width, self.frame)


def texel_angles(height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell-center (theta, phi) for an equirectangular hemisphere grid."""
    theta = (np.arange(height) + 0.5) * (0.5 * math.pi / height)
    phi = -math.pi + (np.arange(width) + 0.5) * (2.0 * math.pi / width)
    return theta, phi


def texel_directions(height: int, width: int, frame: Frame) -> np.ndarray:
    """World-space unit directions at texel centers, shape (height, width, 3)."""
    theta, phi = texel_angles(height, width)
    st = np.sin(theta)[:, None]
    local = (np.cos(phi)[None, :, None] * frame.tangent
             + np.sin(phi)[None, :, None] * frame.bitangent)
    dirs = st[..., None] * local + np.cos(theta)[:, None, None] * frame.normal
    return dirs


def texel_local_directions(height: int, width: int) -> np.ndarray:
    """Texel-centre unit directions (height * width, 3), row-major, in the
    (tangent, bitangent, normal) frame."""
    theta, phi = texel_angles(height, width)
    st = np.sin(theta)
    return np.stack([np.outer(st, np.cos(phi)).ravel(),
                     np.outer(st, np.sin(phi)).ravel(),
                     np.repeat(np.cos(theta), width)], axis=-1)


def texel_solid_angles(height: int, width: int) -> np.ndarray:
    """Exact per-row texel solid angles; rows sum to 2*pi over the grid."""
    edges = np.arange(height + 1) * (0.5 * math.pi / height)
    return (2.0 * math.pi / width) * (np.cos(edges[:-1]) - np.cos(edges[1:]))


def cosine_weights(height: int, width: int) -> np.ndarray:
    """cos(theta) dOmega of a hemisphere grid's texels (height * width,)."""
    return (texel_local_directions(height, width)[:, 2]
            * np.repeat(texel_solid_angles(height, width), width))


def frame_directions(local: np.ndarray, normals: np.ndarray, tangents: np.ndarray,
                     bitangents: np.ndarray) -> np.ndarray:
    """World directions of frame-local directions (..., 3) in frames (..., 3),
    broadcast: (D, 3) directions in frames (P, 1, 3) give (P, D, 3)."""
    return (local[..., 0:1] * tangents + local[..., 1:2] * bitangents
            + local[..., 2:3] * normals)


def eval_env(env: SGEnvironment, directions) -> np.ndarray:
    """Visibility-scaled sum of all lobe radiances at unit ``directions``
    (..., 3); returns (..., 3).

    The exponent uses dot - 1 = -|direction - axis|^2 / 2 (exact for unit
    vectors), which avoids cancellation near the axis and returns eta
    bitwise when a direction equals the axis. Every step is elementwise and
    the lobes are summed in a fixed order, so a direction gets the same
    bits alone or inside any batch.
    """
    d = np.asarray(directions, dtype=np.float64)
    if d.ndim == 0 or d.shape[-1] != 3:
        raise ValueError(f"expected directions of shape (..., 3), got {d.shape}")
    if np.any(np.abs(np.linalg.norm(d, axis=-1) - 1.0) > UNIT_NORM_TOL):
        raise ValueError("every direction must have unit norm")
    out = np.zeros(d.shape)
    for axis, sharp, vis, eta in zip(env.axes(), env.sharpness(), env.visibility,
                                     env.intensities()):
        delta = d - axis
        sq = (delta[..., 0] * delta[..., 0] + delta[..., 1] * delta[..., 1]
              + delta[..., 2] * delta[..., 2])
        out += (vis * np.exp(sharp * (-0.5 * sq)))[..., None] * eta
    return out


def rasterize_env(env: SGEnvironment, height: int, width: int, frame: Frame) -> EnvMapGrid:
    """Evaluate ``env`` at every texel-center direction of the hemisphere grid
    with one ``eval_env`` call, so the grid agrees with direct evaluation
    exactly."""
    if height < 1 or width < 1:
        raise ValueError("resolution must be at least 1x1")
    texels = eval_env(env, texel_directions(height, width, frame))
    return EnvMapGrid(width=width, height=height, frame=frame, texels=texels)


def golden_spiral(z: np.ndarray) -> np.ndarray:
    """Unit directions at heights ``z`` with golden-angle azimuths k * (3 -
    sqrt 5) pi for k = 0, 1, ..."""
    phi = np.arange(z.shape[0]) * (math.pi * (3.0 - math.sqrt(5.0)))
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)


def fibonacci_hemisphere(count: int) -> np.ndarray:
    """``count`` deterministic, roughly uniform directions with z > 0."""
    # z in (0, 1); the half offsets keep points off the pole
    return golden_spiral((np.arange(count) + 0.5) / count)


# ---------------------------------------------------------------------------
# Fitting. Internal parameterization per lobe: (theta, phi, log sharpness,
# log intensity rgb); positivity comes from the exponential map, never from
# clamping, so gradients stay smooth.
# ---------------------------------------------------------------------------

_PARAMS_PER_LOBE = 6


@dataclass
class SGFitOptions:
    max_iters: int = 2000


@dataclass
class SGFitResult:
    environment: SGEnvironment
    report: FitReport


def _env_to_params(env: SGEnvironment) -> np.ndarray:
    params = np.empty((len(env), _PARAMS_PER_LOBE))
    for s, lobe in enumerate(env.lobes):
        params[s, 0] = lobe.axis_theta
        params[s, 1] = lobe.axis_phi
        params[s, 2] = math.log(lobe.sharpness)
        params[s, 3:6] = np.log(lobe.intensity)
    return params


# export range for log parameters: coordinates with negligible objective
# influence can drift during optimization; exp(+-30) keeps the emitted
# values finite in float32 files without touching data-driven lobes
_LOG_PARAM_LIMIT = 30.0


def export_lobe_params(theta, phi, log_params):
    """Fitted lobe parameters in export form, elementwise: theta folded into
    [0, pi] (turning phi by pi where it folds), phi wrapped into [-pi, pi),
    and exp of the log parameters clipped to +-_LOG_PARAM_LIMIT."""
    theta = np.mod(theta, 2.0 * math.pi)
    over = theta > math.pi
    theta = np.where(over, 2.0 * math.pi - theta, theta)
    phi = np.mod(np.where(over, phi + math.pi, phi) + math.pi, 2.0 * math.pi) - math.pi
    return theta, phi, np.exp(np.clip(log_params, -_LOG_PARAM_LIMIT, _LOG_PARAM_LIMIT))


def _params_to_env(params: np.ndarray) -> SGEnvironment:
    theta, phi, values = export_lobe_params(params[:, 0], params[:, 1], params[:, 2:6])
    return SGEnvironment(lobes=tuple(
        SGLobe(axis_theta=float(t), axis_phi=float(f), sharpness=float(v[0]),
               intensity=tuple(v[1:4]))
        for t, f, v in zip(theta, phi, values)))


def _lobe_axes(theta, phi) -> np.ndarray:
    """Unit axes (..., 3) at polar angles ``theta`` from +z and azimuths
    ``phi``, elementwise: (sin theta cos phi, sin theta sin phi, cos theta)."""
    st = np.sin(theta)
    axes = np.empty(np.shape(theta) + (3,))
    axes[..., 0], axes[..., 1], axes[..., 2] = st * np.cos(phi), st * np.sin(phi), np.cos(theta)
    return axes


def _angle_grad(d_axis: np.ndarray, theta: np.ndarray, phi: np.ndarray):
    """Gradients (d_theta, d_phi), each (..., S), of a function of the axes
    ``_lobe_axes(theta, phi)`` from its gradient (..., S, 3) in those axes."""
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    return (d_axis[..., 0] * ct * cp + d_axis[..., 1] * ct * sp - d_axis[..., 2] * st,
            -d_axis[..., 0] * st * sp + d_axis[..., 1] * st * cp)


@np.errstate(over="ignore", invalid="ignore")
def sg_fit_objective(params: np.ndarray, target: np.ndarray, dirs: np.ndarray,
                     log_target: np.ndarray | None = None):
    """Scale-invariant log-space MSE (tau fixed to 1) and its gradient.

    ``params`` is (S, 6) internal lobe parameters, ``target`` (T, 3) texel
    radiance, ``dirs`` (T, 3) texel-center directions. Returns the objective
    mean((log(R+1) - log(target+1))^2) and d/dparams (S * 6,), both
    analytic, or inf and zeros where either is not finite; ``log_target`` is
    log1p(target) if the caller has it. A leading batch axis on all three
    gives (B,) values and (B, S * 6) gradients, each row its own call's bits.
    """
    log_t = np.log1p(target) if log_target is None else log_target
    single = log_t.ndim == 2
    log_t, dirs = (log_t[None], dirs[None]) if single else (log_t, dirs)
    params = np.asarray(params, dtype=np.float64).reshape(len(dirs), -1, _PARAMS_PER_LOBE)
    axes = _lobe_axes(params[..., 0], params[..., 1])      # (B, S, 3)
    sharp, eta = np.exp(params[..., 2]), np.exp(params[..., 3:6])
    dots_m1 = dirs @ axes.transpose(0, 2, 1) - 1.0         # (B, T, S)
    expo = np.exp(sharp[:, None, :] * dots_m1)
    radiance = expo @ eta                                  # (B, T, 3)

    diff = np.log1p(radiance) - log_t
    n_elem = diff[0].size
    value = (diff * diff).reshape(len(diff), n_elem).sum(axis=1) / n_elem  # the mean

    # d value / d radiance
    g_rad = (2.0 / n_elem) * diff / (1.0 + radiance)     # (B, T, 3)
    d_eta = expo.transpose(0, 2, 1) @ g_rad                # (B, S, 3)
    w = g_rad @ eta.transpose(0, 2, 1)                     # (B, T, S) sum_c g*eta
    we = w * expo
    d_sharp = (we * dots_m1).sum(axis=1)                   # (B, S)
    d_axis = we.transpose(0, 2, 1) @ dirs * sharp[..., None]  # (B, S, 3)

    grad = np.empty_like(params)
    grad[..., 0], grad[..., 1] = _angle_grad(d_axis, params[..., 0], params[..., 1])
    grad[..., 2] = d_sharp * sharp        # chain through log-parameterization
    grad[..., 3:6] = d_eta * eta
    grad = grad.reshape(len(grad), -1)
    if not (np.isfinite(value).all() and np.isfinite(grad).all()):
        bad = ~(np.isfinite(value) & np.isfinite(grad).all(axis=1))
        value[bad], grad[bad] = math.inf, 0.0
    return (float(value[0]), grad[0]) if single else (value, grad)


def default_sg_init(target: EnvMapGrid, num_lobes: int) -> SGEnvironment:
    """Deterministic start: Fibonacci-spread axes in the hemisphere frame,
    sharpness 5, intensity set to the target mean."""
    local_axes = fibonacci_hemisphere(num_lobes)
    basis = np.stack([target.frame.tangent, target.frame.bitangent,
                      target.frame.normal])
    mean = tuple(np.maximum(target.texels.reshape(-1, 3).mean(axis=0), 1e-6))
    lobes = []
    for axis_local in local_axes:
        theta, phi = unit_to_spherical(axis_local @ basis)
        lobes.append(SGLobe(axis_theta=theta, axis_phi=phi,
                            sharpness=5.0, intensity=mean))
    return SGEnvironment(lobes=tuple(lobes))


def sg_fit_batch(targets, num_lobes: int,
                 options: SGFitOptions | None = None) -> list[SGFitResult]:
    """Fit ``num_lobes`` SG lobes to each of ``targets``, EnvMapGrids of one
    grid shape, by monotone gradient descent on the scale-invariant log-space
    MSE (scale 1, all-ones mask) as rows of one ``minimize_monotone`` run,
    each from ``default_sg_init``. A row's result is bitwise its own
    ``sg_fit``'s; a row not reduced below its initial objective is still
    returned, flagged via ``report.converged``."""
    if num_lobes < 1:
        raise ValueError(f"num_lobes must be >= 1, got {num_lobes}")
    for r, target in enumerate(targets):
        if target.texels.shape != targets[0].texels.shape:
            raise ValueError(f"target {r} has a {target.height}x{target.width} grid, "
                             f"target 0 {targets[0].height}x{targets[0].width}")
        if not np.all(np.isfinite(target.texels)):
            raise ValueError(f"target {r} has non-finite texels")
    options = options or SGFitOptions()
    params0 = np.stack([_env_to_params(default_sg_init(t, num_lobes)).ravel()
                        for t in targets])
    dirs = np.stack([t.directions().reshape(-1, 3) for t in targets])
    flat_targets = np.stack([t.texels.reshape(-1, 3) for t in targets])
    log_targets = np.log1p(flat_targets)
    results = minimize_monotone(
        lambda p: sg_fit_objective(p, flat_targets, dirs, log_targets), params0,
        max_iters=options.max_iters, step=0.25)
    return [SGFitResult(environment=_params_to_env(res.x.reshape(-1, _PARAMS_PER_LOBE)),
                        report=res.report) for res in results]


def sg_fit(target: EnvMapGrid, num_lobes: int, options: SGFitOptions | None = None) -> SGFitResult:
    """Fit ``num_lobes`` SG lobes to ``target``: a batch of one ``sg_fit_batch``."""
    return sg_fit_batch([target], num_lobes, options)[0]
