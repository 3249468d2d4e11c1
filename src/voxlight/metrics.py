"""Masked losses and metrics for inverse-rendering stages.

g1 masked L1 angular error, g2 masked MSE, g3 scale-invariant MSE, g4
scale-invariant log-space MSE, g5 entropy regularizer, plus the per-stage
losses assembled from them with their published default weights. All
metrics are means over masked elements (not sums), so values are comparable
across mask sizes; an empty mask yields 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# default (beta1, beta2[, beta3]) per training stage
DEFAULT_BETAS = {
    "normal": (1.0, 1.0),
    "in_dl": (1.0, 1e-3),
    "ex_dl": (1.0, 1e-4),
    "brdf": (3.0, 1.0),
    "svl": (10.0, 1e-2, 1.0),
}


# Elements per block of a blockwise reduction: 256 kB of float64 temporaries.
_BLOCK_ELEMENTS = 32768


def _mask_weights(a: np.ndarray, mask) -> np.ndarray:
    """Binary weights broadcast to ``a``'s shape from a spatial mask; a
    missing mask is a broadcast 1.0, not an array of ones."""
    if mask is None:
        return np.broadcast_to(1.0, a.shape)
    m = np.asarray(mask, dtype=np.float64)
    if not np.all((m == 0.0) | (m == 1.0)):
        raise ValueError("mask must be binary")
    if m.shape == a.shape[:m.ndim]:  # mask over leading (spatial) axes
        return np.broadcast_to(m.reshape(m.shape + (1,) * (a.ndim - m.ndim)),
                               a.shape)
    raise ValueError(f"mask shape {m.shape} does not match data shape {a.shape}")


def _blockwise_sum(fill, *operands) -> float:
    """``np.sum`` of the C-ordered float64 buffer that ``fill(out, *blocks)``
    writes, one block of leading-axis rows of the equally shaped ``operands``
    at a time. The reduction holds one buffer of the operands' size, not one
    per temporary; and since the sum runs over the same buffer as summing the
    whole-array expression would, its bits are that sum's."""
    out = np.empty(operands[0].shape)
    rows = [x[None] if x.ndim == 0 else x for x in (out,) + operands]
    step = max(1, _BLOCK_ELEMENTS // max(1, math.prod(rows[0].shape[1:])))
    for start in range(0, rows[0].shape[0], step):
        fill(*(x[start:start + step] for x in rows))
    return float(np.sum(out))


def _weighted_product(out, w, x, y):
    np.multiply(w, x, out=out)
    np.multiply(out, y, out=out)


def ls_scale(a, b, mask=None) -> float:
    """Least-squares scale tau minimizing ||(a - tau * b) * mask||^2.

    tau = sum(a * b) / sum(b * b) over masked elements; a masked ``b`` that
    is identically zero yields tau = 0.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("inputs must share a shape")
    w = _mask_weights(a, mask)
    sbb = _blockwise_sum(_weighted_product, w, b, b)
    if sbb == 0.0:
        return 0.0
    return _blockwise_sum(_weighted_product, w, a, b) / sbb


def masked_l1_angular(a, b, mask=None) -> float:
    """g1: mean arccos(a . b) in radians over masked pixels of unit-vector
    fields shaped (..., 3)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.shape[-1] != 3:
        raise ValueError("expected matching (..., 3) unit-vector fields")
    dots = np.clip(np.sum(a * b, axis=-1), -1.0, 1.0)
    w = _mask_weights(dots, mask)
    count = w.sum()
    if count == 0.0:
        return 0.0
    return float(np.sum(w * np.arccos(dots)) / count)


def masked_mse(a, b, mask=None) -> float:
    """g2: mean squared difference over masked elements."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("inputs must share a shape")
    w = _mask_weights(a, mask)
    count = float(w.sum())
    if count == 0.0:
        return 0.0

    def fill(out, w, a, b):
        np.multiply(w, np.square(a - b), out=out)

    return _blockwise_sum(fill, w, a, b) / count


def si_mse(a, b, mask=None) -> float:
    """g3: masked MSE after scaling ``b`` by the least-squares tau."""
    tau = ls_scale(a, b, mask)
    return masked_mse(a, tau * np.asarray(b, dtype=np.float64), mask)


def si_log_mse(a, b, mask=None) -> float:
    """g4: mean (log(a + 1) - log(tau * b + 1))^2 over masked elements,
    with tau fit in linear space. Requires nonnegative inputs."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    # min, not any(a < 0): no boolean array of a's size; nan passes both
    if a.size and (a.min() < 0.0 or b.min() < 0.0):
        raise ValueError("log-space MSE requires nonnegative inputs")
    tau = ls_scale(a, b, mask)
    w = _mask_weights(a, mask)
    count = float(w.sum())
    if count == 0.0:
        return 0.0

    def fill(out, w, a, b):
        diff = np.log1p(a)
        diff -= np.log1p(tau * b)
        _weighted_product(out, w, diff, diff)

    return _blockwise_sum(fill, w, a, b) / count


def entropy_reg(a) -> float:
    """g5: mean of -a * ln(a) with the 0 * ln(0) = 0 convention; a in [0, 1]."""
    a = np.asarray(a, dtype=np.float64)
    if np.any(a < 0.0) or np.any(a > 1.0):
        raise ValueError("entropy input must lie in [0, 1]")
    positive = a > 0.0
    ent = np.where(positive, -a * np.log(np.where(positive, a, 1.0)), 0.0)
    return float(np.mean(ent))


@dataclass
class StageLossBundle:
    """Predictions, references, and masks consumed by ``stage_losses``.

    Only the fields needed by the requested stages must be present; a
    missing field raises a ValueError naming it.
    """

    mask_light: np.ndarray | None = None       # M_l, for the normal stage
    mask_object: np.ndarray | None = None      # M_o, for the other stages
    normal_ref: np.ndarray | None = None
    normal_pred: np.ndarray | None = None
    env_dl_ref: np.ndarray | None = None       # per-pixel direct-light env maps
    env_dl_pred: np.ndarray | None = None
    visibility: np.ndarray | None = None       # per-lobe mu, for the g5 report
    alpha_dl: np.ndarray | None = None         # exitant-volume opacity
    albedo_ref: np.ndarray | None = None
    albedo_pred: np.ndarray | None = None
    rough_ref: np.ndarray | None = None
    rough_pred: np.ndarray | None = None
    env_svl_ref: np.ndarray | None = None
    env_svl_pred: np.ndarray | None = None
    mask_svl_env: np.ndarray | None = None      # falls back to mask_object
    alpha_svl: np.ndarray | None = None
    images: np.ndarray | None = None           # (K, H, W, 3) per-view HDR
    view_weights: np.ndarray | None = None     # (K,) multi-view weights
    diffuse_render: np.ndarray | None = None   # (H, W, 3), view-independent
    specular_renders: np.ndarray | None = None  # (K, H, W, 3)
    target_index: int = 0


_STAGE_FIELDS = {
    "normal": ("normal_ref", "normal_pred", "mask_light"),
    "in_dl": ("env_dl_ref", "env_dl_pred", "mask_object", "visibility"),
    "ex_dl": ("env_dl_ref", "env_dl_pred", "mask_object", "alpha_dl"),
    "brdf": ("albedo_ref", "albedo_pred", "rough_ref", "rough_pred", "mask_object"),
    "svl": ("env_svl_ref", "env_svl_pred", "mask_object", "alpha_svl", "images",
            "view_weights", "diffuse_render", "specular_renders"),
}


def _require(bundle: StageLossBundle, stage: str):
    for name in _STAGE_FIELDS[stage]:
        if getattr(bundle, name) is None:
            raise ValueError(f"stage '{stage}' requires bundle field '{name}'")


# The joint re-render system is singular when its Gram determinant is within
# this fraction of sum(d * d) * sum(s * s): d and s are collinear to rounding.
_SINGULAR_RTOL = 1e-12


def rerender_residual(bundle: StageLossBundle, mask=None) -> tuple[float, float, float]:
    """Weighted multi-view re-render term and its (tau_diff, tau_spec).

    The two scales are fit jointly against the target-view image I: they
    minimize the masked ||I - tau_diff * d - tau_spec * s||^2 over
    nonnegative scales, with d the diffuse render and s the target view's
    specular render, by the 2x2 normal equations; where those give a
    negative scale, the convex problem's constrained minimum is the better
    one-scale fit. When they are singular (d or s masked to zero, or d and
    s collinear) each scale is fit alone by ``ls_scale``. The residual is
    sum_k w_k^2 * masked mean of (I_k - tau_diff * diffuse - tau_spec * specular_k)^2.
    """
    target = bundle.images[bundle.target_index]
    d = np.asarray(bundle.diffuse_render, dtype=np.float64)
    s = np.asarray(bundle.specular_renders[bundle.target_index], dtype=np.float64)
    if d.shape != target.shape or s.shape != target.shape:
        raise ValueError("renders must share the images' shape")
    w = _mask_weights(target, mask)
    dd, ds, ss, di, si = (_blockwise_sum(_weighted_product, w, x, y) for x, y in (
        (d, d), (d, s), (s, s), (d, target), (s, target)))
    det = dd * ss - ds * ds
    if det > _SINGULAR_RTOL * dd * ss:
        tau_diff, tau_spec = (ss * di - ds * si) / det, (dd * si - ds * di) / det
        if tau_diff < 0.0 or tau_spec < 0.0:
            # the one-scale fit t = max(x.I, 0) / x.x removes t^2 * x.x
            di, si = max(di, 0.0), max(si, 0.0)
            tau_diff, tau_spec = ((di / dd, 0.0) if di * di / dd >= si * si / ss
                                  else (0.0, si / ss))
    else:
        tau_diff = ls_scale(target, d, mask)
        tau_spec = ls_scale(target, s, mask)
    total = 0.0
    for k in range(bundle.images.shape[0]):
        residual = (bundle.images[k] - tau_diff * bundle.diffuse_render
                    - tau_spec * bundle.specular_renders[k])
        total += float(bundle.view_weights[k]) ** 2 * masked_mse(
            residual, np.zeros_like(residual), mask)
    return total, tau_diff, tau_spec


def stage_losses(bundle: StageLossBundle,
                 stages=("normal", "in_dl", "ex_dl", "brdf", "svl")) -> dict[str, float]:
    """Assemble the per-stage training losses from a bundle, weighted by
    ``DEFAULT_BETAS``.

    Returns named scalars: the main loss per stage, the g5 regularizer terms
    reported separately (keys ending in ``_reg``), and the re-render scales.
    """
    out: dict[str, float] = {}
    g4_dl = None  # L_InDL and L_ExDL share the direct-light g4
    for stage in stages:
        if stage not in _STAGE_FIELDS:
            raise ValueError(f"unknown stage '{stage}'")
        _require(bundle, stage)
        b = DEFAULT_BETAS[stage]
        if stage == "normal":
            out["L_normal"] = (b[0] * masked_l1_angular(bundle.normal_ref,
                                                        bundle.normal_pred,
                                                        bundle.mask_light)
                               + b[1] * masked_mse(bundle.normal_ref,
                                                   bundle.normal_pred,
                                                   bundle.mask_light))
        elif stage in ("in_dl", "ex_dl"):
            if g4_dl is None:
                g4_dl = si_log_mse(bundle.env_dl_ref, bundle.env_dl_pred,
                                   bundle.mask_object)
            name, reg = (("L_InDL", bundle.visibility) if stage == "in_dl"
                         else ("L_ExDL", bundle.alpha_dl))
            out[name] = b[0] * g4_dl
            out[name + "_reg"] = b[1] * entropy_reg(reg)
        elif stage == "brdf":
            out["L_BRDF"] = (b[0] * si_mse(bundle.albedo_ref, bundle.albedo_pred,
                                           bundle.mask_object)
                             + b[1] * masked_mse(bundle.rough_ref, bundle.rough_pred,
                                                 bundle.mask_object))
        elif stage == "svl":
            rerender, tau_diff, tau_spec = rerender_residual(bundle,
                                                             bundle.mask_object)
            env_mask = (bundle.mask_svl_env if bundle.mask_svl_env is not None
                        else bundle.mask_object)
            out["L_SVL"] = (b[0] * si_log_mse(bundle.env_svl_ref,
                                              bundle.env_svl_pred, env_mask)
                            + b[2] * rerender)
            out["L_SVL_reg"] = b[1] * entropy_reg(bundle.alpha_svl)
            out["L_SVL_rerender"] = rerender
            out["tau_diff"] = tau_diff
            out["tau_spec"] = tau_spec
    return out
