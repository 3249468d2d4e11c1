"""Analytic test scenes: a Lambertian-plus-specular ground plane, an
optional wall, one box-shaped emissive light, and a forward-facing 3x3
camera array whose baseline scales with the mean scene depth.

Everything is closed form: depths and normals come from ray/plane
intersections, per-pixel hemispherical environment maps from the light
box's solid-angle footprint (supersampled per texel), and images from
``brdf.shade_env_maps`` (the shading every env-map renderer uses) driven
by those maps, so the ground truth is self-consistent by construction.

Env maps trace only the texels whose angular cell can meet the light box's
bounding sphere (a few percent of them on the default scene); the other
texels are exact zeros, so the maps equal a scan of every texel bitwise.
The cull and the coverage run in blocks of pixels and of sub-rays, so a
call holds its output and one block. Sub-rays meet the light box through
``volume._clip_rays``, the ray/box clip the volume renderer uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .brdf import shade_env_maps
from .geometry import Camera, View, ViewBundle
from .sg import _dot, hemisphere_frames, texel_local_directions
from .volume import Bounds, _clip_rays

GRID_OFFSETS = (  # target first, then the eight neighbors
    (0, 0), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1), (-1, 0), (-1, 1))


@dataclass
class SceneSpec:
    image_width: int = 80
    image_height: int = 60
    env_width: int = 16
    env_height: int = 8
    num_views: int = 9
    fov_deg: float = 55.0            # horizontal field of view
    camera_height: float = 1.4       # meters above the ground plane
    camera_pitch_deg: float = 40.0   # downward tilt from horizontal
    baseline_ratio: float = 0.06     # baseline = ratio * mean depth
    plane_albedo: tuple[float, float, float] = (0.55, 0.5, 0.45)
    plane_roughness: float = 0.7
    wall_offset: float | None = None  # wall plane y = offset, facing the cameras
    wall_albedo: tuple[float, float, float] = (0.4, 0.45, 0.5)
    wall_roughness: float = 0.8
    light_center: tuple[float, float, float] = (0.4, -0.9, 2.6)
    light_size: tuple[float, float, float] = (0.9, 0.9, 0.5)
    light_radiance: tuple[float, float, float] = (14.0, 12.5, 11.0)
    env_supersample: int = 3

    def __post_init__(self):
        if not (1 <= self.num_views <= 9):
            raise ValueError("num_views must lie in 1..9")
        if any(c < 0.0 for c in self.light_radiance):
            raise ValueError("light radiance must be nonnegative")
        if min(self.image_width, self.image_height,
               self.env_width, self.env_height) < 1:
            raise ValueError("resolutions must be positive")
        if self.env_supersample < 1:
            raise ValueError("env_supersample must be >= 1")


@dataclass
class GeneratedScene:
    spec: SceneSpec
    bundle: ViewBundle
    gt_normal: np.ndarray          # (K, H, W, 3) camera-frame unit normals
    gt_albedo: np.ndarray          # (K, H, W, 3)
    gt_rough: np.ndarray           # (K, H, W)
    gt_env: np.ndarray             # (H, W, Ha, Wa, 3) target-view env maps
    surface_points: np.ndarray     # (H, W, 3) world, target view
    surface_normals: np.ndarray    # (H, W, 3) world, target view
    mask: np.ndarray = field(default=None)  # (H, W) ones

    @property
    def light_box(self) -> tuple[np.ndarray, np.ndarray]:
        c = np.asarray(self.spec.light_center)
        s = np.asarray(self.spec.light_size)
        return c - s / 2.0, c + s / 2.0


def _camera_rotation(pitch_deg: float) -> np.ndarray:
    p = math.radians(pitch_deg)
    right = np.array([1.0, 0.0, 0.0])
    forward = np.array([0.0, math.cos(p), -math.sin(p)])
    down = np.cross(forward, right)
    return np.stack([right, down, forward], axis=1)


def make_cameras(spec: SceneSpec, mean_depth: float) -> list[Camera]:
    """Forward-facing 3x3 array; offsets in the image plane, equal spacing."""
    rot = _camera_rotation(spec.camera_pitch_deg)
    fx = (spec.image_width - 1) / (2.0 * math.tan(math.radians(spec.fov_deg) / 2.0))
    baseline = spec.baseline_ratio * mean_depth
    right = rot[:, 0]
    up = -rot[:, 1]
    center = np.array([0.0, 0.0, spec.camera_height])
    cams = []
    for dx, dy in GRID_OFFSETS[:spec.num_views]:
        t = center + baseline * (dx * right + dy * up)
        cams.append(Camera(fx=fx, fy=fx,
                           cx=(spec.image_width - 1) / 2.0,
                           cy=(spec.image_height - 1) / 2.0,
                           rotation=rot, translation=t))
    return cams


def _plane_t(origins: np.ndarray, dirs: np.ndarray, axis: int, offset: float,
             sign: float) -> np.ndarray:
    """Ray parameter of the plane coord[axis] = offset hit from the ``sign``
    side; inf where missed."""
    d = dirs[..., axis]
    o = origins[..., axis]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (offset - o) / d
    ok = (np.abs(d) > 1e-12) & (t > 1e-9) & (sign * d < 0.0)
    return np.where(ok, t, np.inf)


def _scene_intersect(spec: SceneSpec, origins: np.ndarray, dirs: np.ndarray):
    """Nearest ground/wall hit: (t, which) with which 0 ground, 1 wall."""
    t_ground = _plane_t(origins, dirs, axis=2, offset=0.0, sign=1.0)
    if spec.wall_offset is not None:
        t_wall = _plane_t(origins, dirs, axis=1, offset=spec.wall_offset, sign=-1.0)
    else:
        t_wall = np.full(t_ground.shape, np.inf)
    which = (t_wall < t_ground).astype(np.int64)
    return np.minimum(t_ground, t_wall), which


# Sub-rays traced per chunk of kept (pixel, texel) pairs, and (pixel, texel)
# pairs culled per block of pixels; an array of one float each is 128 kB.
_CHUNK_SUB_RAYS = 16384


def per_pixel_env_maps(spec: SceneSpec, points: np.ndarray,
                       normals: np.ndarray) -> np.ndarray:
    """Direct-light env maps at surface ``points`` with hemisphere frames
    around ``normals``; texel radiance is the light radiance scaled by the
    texel's supersampled coverage fraction (occlusion-tested).

    Only (pixel, texel) pairs whose angular cell can meet the light box's
    bounding sphere are traced; every other texel is exactly zero, so the
    result equals tracing all of them. The cull runs over blocks of pixels
    and the coverage over chunks of sub-rays, each written straight into
    the output, so the call holds its output plus one block.
    """
    h, w = points.shape[:2]
    ha, wa = spec.env_height, spec.env_width
    s = spec.env_supersample
    center = np.asarray(spec.light_center)
    half = np.asarray(spec.light_size) / 2.0
    light = Bounds(center - half, center + half)
    radiance = np.asarray(spec.light_radiance)

    # sub-texel local directions, three (ha * wa, s*s) components along
    # (tangent, bitangent, normal); theta strata are uniform in cos(theta) so
    # the hit fraction is an unbiased solid-angle coverage estimate
    dth = 0.5 * math.pi / ha
    dph = 2.0 * math.pi / wa
    sub = (np.arange(s) + 0.5) / s
    edges = np.cos(np.arange(ha + 1) * dth)
    cth = edges[:-1, None] + sub[None, :] * (edges[1:, None] - edges[:-1, None])
    sth = np.sqrt(np.maximum(1.0 - cth * cth, 0.0))             # (ha, s)
    ph = -math.pi + (np.arange(wa)[:, None] + sub[None, :]) * dph
    sph, cph = np.sin(ph), np.cos(ph)
    lx = np.einsum("is,jt->ijst", sth, cph).reshape(ha * wa, s * s)
    ly = np.einsum("is,jt->ijst", sth, sph).reshape(ha * wa, s * s)
    lz = np.broadcast_to(cth[:, None, :, None], (ha, wa, s, s)).reshape(ha * wa, s * s)

    flat_p = points.reshape(-1, 3)
    flat_n = normals.reshape(-1, 3)
    tang, bit = hemisphere_frames(flat_n)
    eps = 1e-5
    origins = flat_p + eps * flat_n

    # cull: a sub-ray that meets the box points within beta = asin(r / |v|)
    # of v = center - origin, and lies within delta_i of its cell's centre
    # direction (dth/2 along theta, then at most sin((i+1) dth) dph/2 along
    # the parallel); keep the pair when the centre is within beta + delta_i,
    # and keep every texel of an origin inside the bounding sphere
    v = center - origins
    dist = np.sqrt(_dot(v, v))
    r = float(np.linalg.norm(half))
    outside = dist > r
    dist = np.where(outside, dist, 1.0)          # no 0/0 at the centre
    beta = np.arcsin(np.where(outside, r / dist, 0.0))
    v_local = np.stack([_dot(tang, v), _dot(bit, v), _dot(flat_n, v)], axis=-1) / dist[:, None]
    delta = np.repeat(dth / 2.0 + np.sin((np.arange(ha) + 1) * dth) * dph / 2.0, wa)
    texel_dirs = texel_local_directions(ha, wa).T

    out = np.zeros((h * w, ha * wa, 3))
    block = max(_CHUNK_SUB_RAYS // (ha * wa), 1)
    step = max(_CHUNK_SUB_RAYS // (s * s), 1)
    for b in range(0, h * w, block):
        angle = np.arccos(np.clip(v_local[b:b + block] @ texel_dirs, -1.0, 1.0))
        keep = (angle <= beta[b:b + block, None] + delta + 1e-6) | ~outside[b:b + block, None]
        pix, tex = np.nonzero(keep)
        pix += b
        for start in range(0, pix.size, step):
            p, t = pix[start:start + step], tex[start:start + step]
            gx, gy, gz = lx[t], ly[t], lz[t]
            dirs = np.empty((3, t.size, s * s))                # component-major
            for a, (ta, ba, na) in enumerate(zip(tang[p].T, bit[p].T, flat_n[p].T)):
                dirs[a] = gx * ta[:, None] + gy * ba[:, None] + gz * na[:, None]
            dirs = np.moveaxis(dirs, 0, -1)
            o = origins[p, None, :]
            t_light, _, hit = _clip_rays(light, o, dirs, np.inf)
            t_occ, _ = _scene_intersect(spec, o, dirs)
            visible = hit & (t_light < t_occ)
            out[p, t] = visible.mean(axis=-1)[:, None] * radiance
    return out.reshape(h, w, ha, wa, 3)


def render_images(points: np.ndarray, normals: np.ndarray, albedo: np.ndarray,
                  rough: np.ndarray, envs: np.ndarray,
                  cam_center: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diffuse and specular HDR images from per-pixel env maps (H, W, Ha,
    Wa, 3) in the hemisphere frames of ``normals``: ``brdf.shade_env_maps``
    over all pixels, viewed from ``cam_center``."""
    h, w = points.shape[:2]
    flat_n = normals.reshape(-1, 3)
    v = cam_center[None, :] - points.reshape(-1, 3)
    v /= np.sqrt(_dot(v, v))[..., None]
    diffuse, specular = shade_env_maps(envs.reshape((h * w,) + envs.shape[2:]), flat_n,
                                       *hemisphere_frames(flat_n), v,
                                       albedo.reshape(-1, 3), rough.reshape(-1))
    return diffuse.reshape(h, w, 3), specular.reshape(h, w, 3)


def generate_scene(spec: SceneSpec) -> GeneratedScene:
    """Render the analytic scene: exact depths and normals, per-pixel env
    maps, images from the rendering layer, confidence identically one."""
    h, w = spec.image_height, spec.image_width

    # center-camera pass fixes the baseline from the mean depth
    rot = _camera_rotation(spec.camera_pitch_deg)
    probe = make_cameras(spec, mean_depth=1.0)[0]
    dirs = probe.pixel_directions(h, w)
    t, _ = _scene_intersect(spec, np.broadcast_to(probe.center, dirs.shape), dirs)
    if not np.all(np.isfinite(t)):
        raise ValueError("degenerate scene: some camera rays miss all geometry")
    depth_probe = (t[..., None] * dirs @ rot)[..., 2]
    cameras = make_cameras(spec, float(depth_probe.mean()))

    views = []
    gt_normal = np.empty((spec.num_views, h, w, 3))
    gt_albedo = np.empty((spec.num_views, h, w, 3))
    gt_rough = np.empty((spec.num_views, h, w))
    target_env = None
    target_points = None
    target_normals_world = None

    for k, cam in enumerate(cameras):
        dirs = cam.pixel_directions(h, w)
        origins = np.broadcast_to(cam.center, dirs.shape)
        t, which = _scene_intersect(spec, origins, dirs)
        if not np.all(np.isfinite(t)):
            raise ValueError("degenerate scene: some camera rays miss all geometry")
        points = origins + t[..., None] * dirs
        depth = cam.camera_from_world(points.reshape(-1, 3))[:, 2].reshape(h, w)

        n_world = np.where(which[..., None] == 0,
                           np.array([0.0, 0.0, 1.0]), np.array([0.0, -1.0, 0.0]))
        albedo = np.where(which[..., None] == 0,
                          np.asarray(spec.plane_albedo), np.asarray(spec.wall_albedo))
        rough = np.where(which == 0, spec.plane_roughness, spec.wall_roughness)

        envs = per_pixel_env_maps(spec, points, n_world)
        diffuse, specular = render_images(points, n_world, albedo, rough, envs,
                                          cam.center)
        image = diffuse + specular
        views.append(View(image=image, depth=depth,
                          confidence=np.ones((h, w)), camera=cam))
        gt_normal[k] = (n_world.reshape(-1, 3) @ cam.rotation).reshape(h, w, 3)
        gt_albedo[k] = albedo
        gt_rough[k] = rough
        if k == 0:
            target_env = envs
            target_points = points
            target_normals_world = n_world
        del envs  # a non-target view's maps go before the next view's are built

    bundle = ViewBundle(views=views, target_index=0)
    return GeneratedScene(spec=spec, bundle=bundle, gt_normal=gt_normal,
                          gt_albedo=gt_albedo, gt_rough=gt_rough,
                          gt_env=target_env, surface_points=target_points,
                          surface_normals=target_normals_world,
                          mask=np.ones((h, w)))
