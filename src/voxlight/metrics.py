"""Masked losses and metrics for inverse-rendering stages.

g1 masked L1 angular error, g2 masked MSE, g3 scale-invariant MSE, g4
scale-invariant log-space MSE, g5 entropy regularizer, plus the per-stage
losses assembled from them with their published default weights. All
metrics are means over masked elements (not sums), so values are comparable
across mask sizes; an empty mask yields 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class ScaleFit(NamedTuple):
    tau: float
    degenerate: bool


# default (beta1, beta2[, beta3]) per training stage
DEFAULT_BETAS = {
    "normal": (1.0, 1.0),
    "in_dl": (1.0, 1e-3),
    "ex_dl": (1.0, 1e-4),
    "brdf": (3.0, 1.0),
    "svl": (10.0, 1e-2, 1.0),
}


def _mask_weights(a: np.ndarray, mask) -> np.ndarray:
    """Broadcastable binary weights for ``a`` from a spatial mask."""
    if mask is None:
        return np.ones(a.shape)
    m = np.asarray(mask, dtype=np.float64)
    if not np.all((m == 0.0) | (m == 1.0)):
        raise ValueError("mask must be binary")
    if m.shape == a.shape[:m.ndim]:  # mask over leading (spatial) axes
        return np.broadcast_to(m.reshape(m.shape + (1,) * (a.ndim - m.ndim)),
                               a.shape)
    raise ValueError(f"mask shape {m.shape} does not match data shape {a.shape}")


def ls_scale(a, b, mask=None) -> ScaleFit:
    """Least-squares scale tau minimizing ||(a - tau * b) * mask||^2.

    tau = sum(a * b) / sum(b * b) over masked elements. A masked ``b`` that
    is identically zero is flagged degenerate and yields tau = 0.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("inputs must share a shape")
    w = _mask_weights(a, mask)
    sbb = float(np.sum(w * b * b))
    if sbb == 0.0:
        return ScaleFit(tau=0.0, degenerate=True)
    return ScaleFit(tau=float(np.sum(w * a * b)) / sbb, degenerate=False)


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
    count = w.sum()
    if count == 0.0:
        return 0.0
    return float(np.sum(w * np.square(a - b)) / count)


def si_mse(a, b, mask=None) -> float:
    """g3: masked MSE after scaling ``b`` by the least-squares tau."""
    tau = ls_scale(a, b, mask).tau
    return masked_mse(a, tau * np.asarray(b, dtype=np.float64), mask)


def si_log_mse(a, b, mask=None) -> float:
    """g4: mean (log(a + 1) - log(tau * b + 1))^2 over masked elements,
    with tau fit in linear space. Requires nonnegative inputs."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if np.any(a < 0.0) or np.any(b < 0.0):
        raise ValueError("log-space MSE requires nonnegative inputs")
    tau = ls_scale(a, b, mask).tau
    w = _mask_weights(a, mask)
    count = w.sum()
    if count == 0.0:
        return 0.0
    diff = np.log1p(a) - np.log1p(tau * b)
    return float(np.sum(w * diff * diff) / count)


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


def rerender_residual(bundle: StageLossBundle, mask=None) -> tuple[float, float, float]:
    """Weighted multi-view re-render term and its (tau_diff, tau_spec).

    The two scales are fit independently against the target-view image; the
    residual is sum_k w_k^2 * masked mean of
    (I_k - tau_diff * diffuse - tau_spec * specular_k)^2.
    """
    target = bundle.images[bundle.target_index]
    tau_diff = ls_scale(target, bundle.diffuse_render, mask).tau
    tau_spec = ls_scale(target, bundle.specular_renders[bundle.target_index], mask).tau
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
        elif stage == "in_dl":
            out["L_InDL"] = b[0] * si_log_mse(bundle.env_dl_ref, bundle.env_dl_pred,
                                              bundle.mask_object)
            out["L_InDL_reg"] = b[1] * entropy_reg(bundle.visibility)
        elif stage == "ex_dl":
            out["L_ExDL"] = b[0] * si_log_mse(bundle.env_dl_ref, bundle.env_dl_pred,
                                              bundle.mask_object)
            out["L_ExDL_reg"] = b[1] * entropy_reg(bundle.alpha_dl)
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
