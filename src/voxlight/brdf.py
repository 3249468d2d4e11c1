"""Microfacet rendering layer: diffuse and specular shading against
environment-map grids, per-lobe specular reparameterization features of an
SG environment, and lobe masking.

The specular model is GGX (alpha_g = roughness^2) with the Smith
height-correlated masking term and Schlick Fresnel at a fixed dielectric
f0 = 0.05. Diffuse is Lambertian albedo / pi. Hemisphere integrals use the
exact per-texel solid angles of the environment grid. One batched shading
core, ``shade_env_maps``, on the batched GGX evaluator ``ggx_specular``,
serves scene rendering, sphere insertion and the per-pixel
``render_diffuse``, ``render_specular`` and ``rerender_pixel``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sg import (UNIT_NORM_TOL, EnvMapGrid, SGEnvironment, _as_unit, cosine_weights,
                 frame_directions, texel_local_directions)

F0_DEFAULT = 0.05


@dataclass(frozen=True)
class MaterialSample:
    """Albedo, roughness, and shading normal at one surface point."""

    albedo: tuple[float, float, float]
    roughness: float
    normal: np.ndarray

    def __post_init__(self):
        albedo = tuple(float(c) for c in self.albedo)
        if len(albedo) != 3 or any(not (0.0 <= c <= 1.0) for c in albedo):
            raise ValueError("albedo components must lie in [0, 1]")
        if not (0.0 <= self.roughness <= 1.0):
            raise ValueError("roughness must lie in [0, 1]")
        object.__setattr__(self, "albedo", albedo)
        object.__setattr__(self, "normal", _as_unit(self.normal))


@dataclass(frozen=True)
class SpecFeatureInput:
    """Per-lobe specular reparameterization features."""

    fresnel: float
    ndoth_sq: float
    ndotxi: float
    ndotv: float
    eta: tuple[float, float, float]
    sharpness: float
    mask: int

    def __post_init__(self):
        eps = 1e-9
        if not (-eps <= self.fresnel <= 1.0 + eps):
            raise ValueError("fresnel must lie in [0, 1]")
        for name, value in (("ndoth_sq", self.ndoth_sq), ("ndotxi", self.ndotxi),
                            ("ndotv", self.ndotv)):
            if not (-1.0 - eps <= value <= 1.0 + eps):
                raise ValueError(f"{name} must lie in [-1, 1]")
        if self.mask not in (0, 1):
            raise ValueError("mask must be binary")


def half_vectors(v, l) -> tuple[np.ndarray, np.ndarray]:
    """Normalized bisectors (v + l) / ||v + l|| of (..., 3) unit vectors with
    ``np.vecdot`` norms, and where they are defined: ||v + l|| >= 1e-9 (v + l
    itself where not)."""
    s = v + l
    norm = np.sqrt(np.vecdot(s, s))
    defined = norm >= 1e-9
    return s / np.where(defined, norm, 1.0)[..., None], defined


def schlick(cos_vh):
    """Schlick Fresnel f0 + (1 - f0) (1 - max(v.h, 0))^5 at f0 = ``F0_DEFAULT``,
    elementwise."""
    return F0_DEFAULT + (1.0 - F0_DEFAULT) * (1.0 - np.maximum(cos_vh, 0.0)) ** 5


def ggx_ndf(ndoth, roughness):
    """GGX normal distribution with alpha_g = roughness^2, elementwise."""
    a2 = np.asarray(roughness, dtype=np.float64) ** 4
    nh2 = np.square(np.maximum(ndoth, 0.0))
    denom = nh2 * (a2 - 1.0) + 1.0
    return a2 / (math.pi * denom * denom)


def smith_g(ndotv, ndotl, roughness):
    """Smith height-correlated masking-shadowing term for GGX, elementwise."""
    a2 = np.asarray(roughness, dtype=np.float64) ** 4
    nv = np.maximum(ndotv, 0.0)
    nl = np.maximum(ndotl, 0.0)
    lv = nl * np.sqrt(a2 + (1.0 - a2) * nv * nv)
    ll = nv * np.sqrt(a2 + (1.0 - a2) * nl * nl)
    denom = lv + ll
    return np.where(denom > 0.0, 2.0 * nl * nv / np.where(denom > 0.0, denom, 1.0), 0.0)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product over the last axis as (a0 b0 + a1 b1) + a2 b2: the bits of
    ``np.sum(a * b, axis=-1)`` without a length-3 reduction per element."""
    return (a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]) + a[..., 2] * b[..., 2]


def ggx_specular(v: np.ndarray, dirs: np.ndarray, n: np.ndarray,
                 roughness) -> np.ndarray:
    """Microfacet specular BRDF D * F * G / (4 (n.l)(n.v)) over pixels and
    light directions at once.

    ``v``/``n`` are (P, 3) unit vectors, ``dirs`` (P, T, 3), ``roughness``
    (P,). Returns the (P, T) BRDF values; a term is 0 where the light or
    view is below the surface, where v + l vanishes, or where 4 (n.l)(n.v)
    underflows to 0.
    """
    n_row, v_row = n[:, None, :], v[:, None, :]
    ndotl = _dot(dirs, n_row)
    ndotv = _dot(n, v)[:, None]
    s = dirs + v_row
    s_norm = np.sqrt(_dot(s, s))
    h = s / np.where(s_norm > 1e-9, s_norm, 1.0)[..., None]
    r = np.asarray(roughness)[:, None]
    d = ggx_ndf(_dot(h, n_row), r)
    f = schlick(_dot(h, v_row))
    g = smith_g(ndotv, ndotl, r)
    denom = 4.0 * ndotl * ndotv
    ok = (ndotl > 0.0) & (ndotv > 0.0) & (s_norm > 1e-9) & (denom > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(ok, d * f * g / denom, 0.0)


# Pixel-texel pairs per chunk (128 pixels of 8 x 16 texels): fits a 2 MB L2.
_CHUNK_PAIRS = 128 * 128


def shade_env_maps(envs: np.ndarray, normals: np.ndarray, tangents: np.ndarray,
                   bitangents: np.ndarray, view: np.ndarray, albedo: np.ndarray,
                   roughness: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diffuse (albedo / pi) sum L cos dOmega and specular sum L B_s cos dOmega,
    each (P, C), of env maps (P, Ha, Wa, C) in the frames of unit normals,
    tangents and bitangents (P, 3), n.l being the texel-local z; ``view``
    (P, 3) points to the viewer, ``albedo`` is (P, C), ``roughness`` (P,).
    A row's bits do not depend on the rest of the batch. GGX skips unlit
    texels, which add +0.0 either way, on chunks that are under half lit."""
    p, ha, wa = envs.shape[:3]
    local = texel_local_directions(ha, wa)
    weights = cosine_weights(ha, wa)
    flat_env = envs.reshape(p, ha * wa, -1)
    diffuse, specular = np.empty((2, p, flat_env.shape[-1]))
    chunk = max(1, _CHUNK_PAIRS // (ha * wa))
    for start in range(0, p, chunk):
        sl = slice(start, start + chunk)
        env = flat_env[sl]
        diffuse[sl] = albedo[sl] / math.pi * np.sum(env * weights[:, None], axis=1)
        n, t, b, lit = normals[sl], tangents[sl], bitangents[sl], env.any(axis=-1)
        if 2 * np.count_nonzero(lit) >= lit.size:
            dirs = frame_directions(local, n[:, None], t[:, None], b[:, None])
            brdf = ggx_specular(view[sl], dirs, n, roughness[sl])
        else:
            (rows, cols), brdf = np.nonzero(lit), np.zeros(lit.shape)
            dirs = frame_directions(local[cols], n[rows], t[rows], b[rows])[:, None]
            brdf[rows, cols] = ggx_specular(view[sl][rows], dirs, n[rows],
                                            roughness[sl][rows])[:, 0]
        specular[sl] = np.einsum("pt,ptc->pc", brdf * weights, env)
    return diffuse, specular


def _shade_in_frame(env: EnvMapGrid, albedo, roughness: float, v):
    """``shade_env_maps`` on one env map, in its own frame."""
    f = env.frame
    rows = (env.texels, f.normal, f.tangent, f.bitangent, _as_unit(v), albedo, roughness)
    diffuse, specular = shade_env_maps(*(np.asarray(a, dtype=np.float64)[None] for a in rows))
    return diffuse[0], specular[0]


def render_diffuse(albedo, env: EnvMapGrid) -> np.ndarray:
    """Lambertian radiance (albedo / pi) * sum L cos dOmega over texels: a
    batch of one ``shade_env_maps`` in the env map's frame."""
    return _shade_in_frame(env, albedo, 1.0, env.frame.normal)[0]


def render_specular(material: MaterialSample, env: EnvMapGrid, v) -> np.ndarray:
    """Specular radiance sum L B_s cos dOmega: the specular half of ``rerender_pixel``."""
    return rerender_pixel(material, env, v)[1]


def rerender_pixel(material: MaterialSample, env: EnvMapGrid,
                   v) -> tuple[np.ndarray, np.ndarray]:
    """Diffuse and specular radiance, returned separately so downstream
    losses can scale them independently: a batch of one ``shade_env_maps``
    in the env map's frame, whose normal must be ``material.normal`` up to
    the unit-norm tolerance (``Frame.from_normal`` renormalizes its input)."""
    if not np.allclose(material.normal, env.frame.normal, rtol=0.0, atol=UNIT_NORM_TOL):
        raise ValueError("material normal must be the env map's frame normal")
    return _shade_in_frame(env, material.albedo, material.roughness, v)


def lobe_mask(intensity, ndotxi):
    """Binary lobe indicator: 1 iff ||eta||_1 * (n.xi) > 0 (strict), over
    (..., 3) intensities and (...) dot products."""
    return (np.sum(np.abs(intensity), axis=-1) * ndotxi > 0.0).astype(int)


def spec_feature_batch(axes: np.ndarray, intensity: np.ndarray, sharpness: np.ndarray,
                       n: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The per-lobe reparameterized specular features of P pixels' SG lobes,
    unit ``axes`` xi (P, L, 3), ``intensity`` eta (P, L, 3) and ``sharpness``
    lambda (P, L), at unit normals ``n`` (P, 3) seen along unit directions
    ``v`` (P, K, 3): (P, K, L, 9) rows [F(v, h), (n.h)^2, n.xi, n.v, lambda,
    mask, eta] with h = half(v, xi). A lobe opposite to v (undefined half
    vector) has F = (n.h)^2 = 0 and mask 0. Dot products are ``np.vecdot``,
    so every pair has the bits of scalar ``np.dot`` arithmetic."""
    n, v, xi = n[:, None, None], v[:, :, None], axes[:, None]
    h, defined = half_vectors(v, xi)
    ndotxi = np.vecdot(n, xi)
    rows = (np.where(defined, schlick(np.vecdot(v, h)), 0.0),
            np.where(defined, np.vecdot(n, h) ** 2, 0.0), ndotxi, np.vecdot(n, v),
            sharpness[:, None], np.where(defined, lobe_mask(intensity[:, None], ndotxi), 0),
            *np.moveaxis(intensity[:, None], -1, 0))
    return np.stack(np.broadcast_arrays(*rows), axis=-1)


def spec_feature_inputs(env: SGEnvironment, n, v) -> list[SpecFeatureInput]:
    """The per-lobe reparameterized specular features of ``env`` at unit
    normal ``n`` seen along unit ``v``: a batch of one ``spec_feature_batch``."""
    rows = spec_feature_batch(env.axes()[None], env.intensities()[None], env.sharpness()[None],
                              _as_unit(n)[None], _as_unit(v)[None, None])[0, 0]
    return [SpecFeatureInput(fresnel=float(r[0]), ndoth_sq=float(r[1]), ndotxi=float(r[2]),
                             ndotv=float(r[3]), sharpness=float(r[4]), mask=int(r[5]),
                             eta=tuple(float(c) for c in r[6:])) for r in rows]
