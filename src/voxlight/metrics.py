"""Masked losses and metrics for inverse-rendering stages.

g1 masked L1 angular error, g2 masked MSE, g3 scale-invariant MSE, g4
scale-invariant log-space MSE, g5 entropy regularizer, and the normal, BRDF
and spatially-varying lighting (SVL) losses built from them with their
published default weights. All metrics are means over masked elements (not
sums), so values are comparable across mask sizes; an empty mask yields 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# default (beta1, beta2[, beta3]) per training stage
DEFAULT_BETAS = {
    "normal": (1.0, 1.0),
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
    if not np.all((a >= 0.0) & (a <= 1.0)):  # nan fails too
        raise ValueError("entropy input must lie in [0, 1]")
    positive = a > 0.0
    ent = np.where(positive, -a * np.log(np.where(positive, a, 1.0)), 0.0)
    return float(np.mean(ent))


def normal_loss(ref, pred, mask) -> float:
    """L_normal: g1 + g2 of (..., 3) normals, weighted by ``DEFAULT_BETAS``."""
    b = DEFAULT_BETAS["normal"]
    return b[0] * masked_l1_angular(ref, pred, mask) + b[1] * masked_mse(ref, pred, mask)


def brdf_loss(albedo_ref, albedo_pred, rough_ref, rough_pred, mask) -> float:
    """L_BRDF: g3 of the albedo + g2 of the roughness, weighted by ``DEFAULT_BETAS``."""
    b = DEFAULT_BETAS["brdf"]
    return (b[0] * si_mse(albedo_ref, albedo_pred, mask)
            + b[1] * masked_mse(rough_ref, rough_pred, mask))


@dataclass
class StageLossBundle:
    """The SVL stage's predictions and references, for ``stage_losses``."""

    mask: np.ndarray             # (H, W) binary, over the re-render images
    env_svl_ref: np.ndarray      # (T, h, w, 3) env maps at the supervision targets
    env_svl_pred: np.ndarray     # the volume's env maps at the same targets
    alpha_svl: np.ndarray        # the volume's opacity
    images: np.ndarray           # (K, H, W, 3) per-view HDR
    view_weights: np.ndarray     # (K,) multi-view weights
    diffuse_render: np.ndarray   # (H, W, 3), view-independent
    specular_renders: np.ndarray  # (K, H, W, 3)
    target_index: int


# The joint re-render system is singular when its Gram determinant is within
# this fraction of sum(d * d) * sum(s * s): d and s are collinear to rounding.
_SINGULAR_RTOL = 1e-12


def rerender_residual(images, diffuse, speculars, view_weights, target_index,
                      mask=None) -> tuple[float, float, float]:
    """Weighted multi-view re-render term and its (tau_diff, tau_spec).

    The two scales are fit jointly against the target-view image I: they
    minimize the masked ||I - tau_diff * d - tau_spec * s||^2 over
    nonnegative scales, with d the (H, W, 3) diffuse render and s the target
    view's specular render, by the 2x2 normal equations. Where those give a
    negative scale, or are singular (d or s masked to zero, or d and s
    collinear), the constrained minimum is the better nonnegative one-scale
    fit; a render that is zero under the mask fits nothing. The residual is
    sum_k w_k^2 * masked mean of (I_k - tau_diff * d - tau_spec * S_k)^2 over
    the (K, H, W, 3) ``images`` I and ``speculars`` S.
    """
    target = images[target_index]
    d = np.asarray(diffuse, dtype=np.float64)
    s = np.asarray(speculars[target_index], dtype=np.float64)
    if d.shape != target.shape or s.shape != target.shape:
        raise ValueError("renders must share the images' shape")
    w = _mask_weights(target, mask)
    dd, ds, ss, di, si = (_blockwise_sum(_weighted_product, w, x, y) for x, y in (
        (d, d), (d, s), (s, s), (d, target), (s, target)))
    det = dd * ss - ds * ds
    singular = not det > _SINGULAR_RTOL * dd * ss
    if not singular:
        tau_diff, tau_spec = (ss * di - ds * si) / det, (dd * si - ds * di) / det
    if singular or tau_diff < 0.0 or tau_spec < 0.0:
        # the one-scale fit t = max(x.I, 0) / x.x, or 0 where x.x = 0, removes t * x.I
        t_d, t_s = (max(xi, 0.0) / xx if xx > 0.0 else 0.0 for xi, xx in ((di, dd), (si, ss)))
        tau_diff, tau_spec = (t_d, 0.0) if t_d * di >= t_s * si else (0.0, t_s)
    total = 0.0
    for k in range(images.shape[0]):
        residual = images[k] - tau_diff * diffuse - tau_spec * speculars[k]
        total += float(view_weights[k]) ** 2 * masked_mse(
            residual, np.zeros_like(residual), mask)
    return total, tau_diff, tau_spec


def stage_losses(bundle: StageLossBundle) -> dict[str, float]:
    """The SVL stage's losses, weighted by ``DEFAULT_BETAS["svl"]``: L_SVL,
    the env maps' g4 plus the masked multi-view re-render term; L_SVL_reg,
    the opacity's g5 term, reported separately; and the re-render term and
    its two scales on their own."""
    b = DEFAULT_BETAS["svl"]
    rerender, tau_diff, tau_spec = rerender_residual(
        bundle.images, bundle.diffuse_render, bundle.specular_renders,
        bundle.view_weights, bundle.target_index, bundle.mask)
    return {"L_SVL": b[0] * si_log_mse(bundle.env_svl_ref, bundle.env_svl_pred)
            + b[2] * rerender,
            "L_SVL_reg": b[1] * entropy_reg(bundle.alpha_svl),
            "L_SVL_rerender": rerender, "tau_diff": tau_diff, "tau_spec": tau_spec}
