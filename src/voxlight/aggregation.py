"""Two-level weighted mean/variance pooling of per-view value vectors.

The learned encoders of each level are out of scope here; both levels pass
their inputs through unchanged, which leaves the aggregation topology
testable on its own. Accumulation order is fixed by sorting on a canonical
content key (weight, then value components), so simultaneously permuting
views and weights reproduces every moment bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class FeatureSet:
    """K per-view value vectors with probability weights and a target view."""

    values: np.ndarray   # (K, D)
    weights: np.ndarray  # (K,), nonnegative, sums to 1
    target_index: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("values must be a (K, D) array")
        k = self.values.shape[0]
        if self.weights.shape != (k,):
            raise ValueError("weights must be a (K,) vector")
        if np.any(self.weights < 0.0):
            raise ValueError("weights must be nonnegative")
        if abs(float(self.weights.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")
        if not (0 <= self.target_index < k):
            raise ValueError("target_index out of range")


def _canonical_order(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Index order sorted by (weight, value components), lexicographically.

    The key is content-based, so any permutation of the rows sorts back to
    the identical sequence, making downstream accumulation bitwise stable.
    """
    keys = [values[:, c] for c in range(values.shape[1] - 1, -1, -1)]
    keys.append(weights)  # primary key last, per lexsort convention
    return np.lexsort(tuple(keys))


def weighted_moments(values: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted mean and biased variance of row vectors under ``weights``.

    The mean is accumulated as anchor + sum w_k (q_k - anchor) with the
    anchor at the largest canonical key, which makes one-hot weights return
    the selected row exactly and identical rows produce exactly zero
    variance, for any weights.
    """
    values = np.asarray(values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if values.ndim != 2 or weights.shape != (values.shape[0],):
        raise ValueError("values must be (K, D) with a matching (K,) weight vector")
    order = _canonical_order(values, weights)
    v = values[order]
    w = weights[order]
    anchor = v[-1]
    mean = anchor + (w[:, None] * (v - anchor)).sum(axis=0)
    var = (w[:, None] * np.square(v - mean)).sum(axis=0)
    return mean, var


def aggregate(features: FeatureSet) -> np.ndarray:
    """Two-level aggregation producing the target-view feature.

    Level 1 pools weighted moments of the views and appends them to each
    view's values. Level 2 pools moments of those level-1 rows and appends
    them to the target view's row alone.
    """
    values, w = features.values, features.weights
    mean1, var1 = weighted_moments(values, w)
    level1 = np.concatenate([values, np.tile(mean1, (len(w), 1)), np.tile(var1, (len(w), 1))],
                            axis=1)
    mean2, var2 = weighted_moments(level1, w)
    return np.concatenate([level1[features.target_index], mean2, var2])
