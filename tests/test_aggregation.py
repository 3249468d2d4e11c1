import numpy as np
import pytest

from voxlight.aggregation import FeatureSet, aggregate, weighted_moments


def random_weights(rng, k):
    w = rng.uniform(0.1, 1.0, k)
    w /= w.sum()
    return w


class TestFeatureSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            FeatureSet(values=np.zeros((3, 2)), weights=np.array([0.5, 0.5, 0.5]),
                       target_index=0)
        with pytest.raises(ValueError):
            FeatureSet(values=np.zeros((3, 2)),
                       weights=np.array([-0.5, 1.0, 0.5]), target_index=0)
        with pytest.raises(ValueError):
            FeatureSet(values=np.zeros((3, 2)),
                       weights=np.array([0.5, 0.25, 0.25]), target_index=3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            weighted_moments(np.zeros((3, 2)), np.array([0.5, 0.5]))


class TestWeightedMoments:
    def test_one_hot_collapse_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            k = rng.integers(2, 9)
            values = rng.normal(size=(k, 4))
            w = np.zeros(k)
            w[rng.integers(0, k)] = 1.0
            mean, var = weighted_moments(values, w)
            sel = int(np.argmax(w))
            np.testing.assert_array_equal(mean, values[sel])
            np.testing.assert_array_equal(var, np.zeros(4))

    def test_uniform_scalar_pair(self):
        mean, var = weighted_moments(np.array([[0.0], [2.0]]),
                                     np.array([0.5, 0.5]))
        assert mean[0] == 1.0
        assert var[0] == 1.0

    def test_identical_rows_zero_variance_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            k = rng.integers(2, 9)
            row = rng.normal(size=5)
            values = np.tile(row, (k, 1))
            mean, var = weighted_moments(values, random_weights(rng, k))
            np.testing.assert_array_equal(mean, row)
            np.testing.assert_array_equal(var, np.zeros(5))

    def test_matches_two_pass_loop_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            k, d = rng.integers(2, 8), rng.integers(1, 6)
            values = rng.normal(size=(k, d))
            w = random_weights(rng, k)
            mean, var = weighted_moments(values, w)
            oracle_mean = np.zeros(d)
            for i in range(k):
                oracle_mean += w[i] * values[i]
            oracle_var = np.zeros(d)
            for i in range(k):
                oracle_var += w[i] * (values[i] - oracle_mean) ** 2
            np.testing.assert_allclose(mean, oracle_mean, atol=1e-12)
            np.testing.assert_allclose(var, oracle_var, atol=1e-12)

    def test_permutation_bitwise_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            k = rng.integers(2, 9)
            values = rng.normal(size=(k, 3))
            w = random_weights(rng, k)
            mean, var = weighted_moments(values, w)
            perm = rng.permutation(k)
            mean_p, var_p = weighted_moments(values[perm], w[perm])
            np.testing.assert_array_equal(mean, mean_p)
            np.testing.assert_array_equal(var, var_p)


class TestAggregate:
    def test_one_hot_target_collapse(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(4, 3))
        w = np.array([0.0, 0.0, 1.0, 0.0])
        features = FeatureSet(values=values, weights=w, target_index=2)
        m = aggregate(features)
        x = values[2]
        expected = np.concatenate([
            np.concatenate([x, x, np.zeros(3)]),
            np.concatenate([x, x, np.zeros(3)]),
            np.zeros(9)])
        np.testing.assert_array_equal(m, expected)

    def test_identical_inputs_variance_zero_and_weight_free(self):
        rng = np.random.default_rng(5)
        row = rng.normal(size=4)
        values = np.tile(row, (5, 1))
        a = aggregate(FeatureSet(values=values, weights=random_weights(rng, 5),
                                 target_index=1))
        b = aggregate(FeatureSet(values=values, weights=random_weights(rng, 5),
                                 target_index=1))
        np.testing.assert_array_equal(a, b)
        # layout: (o_target | mean2 | var2) with o = (q, mean1, var1)
        np.testing.assert_array_equal(a[0:4], row)       # q_target
        np.testing.assert_array_equal(a[4:8], row)       # level-1 mean
        np.testing.assert_array_equal(a[8:12], np.zeros(4))   # level-1 var
        np.testing.assert_array_equal(a[12:24], a[0:12])      # level-2 mean
        np.testing.assert_array_equal(a[24:36], np.zeros(12))  # level-2 var

    def test_permuting_other_views_leaves_target_feature(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            k = 6
            values = rng.normal(size=(k, 3))
            w = random_weights(rng, k)
            features = FeatureSet(values=values, weights=w, target_index=2)
            m = aggregate(features)
            perm = np.concatenate([[2], rng.permutation([0, 1, 3, 4, 5])])
            inv_target = int(np.where(perm == 2)[0][0])
            m_p = aggregate(FeatureSet(values=values[perm], weights=w[perm],
                                       target_index=inv_target))
            np.testing.assert_array_equal(m, m_p)

    def test_equals_frozen_per_view_loop(self):
        # the per-view loop aggregate ran with its identity encoders
        def frozen(features):
            w = features.weights
            encoded = np.stack([np.asarray(x, dtype=np.float64) for x in features.values])
            mean1, var1 = weighted_moments(encoded, w)
            level1 = np.stack([np.concatenate([q, mean1, var1]) for q in encoded])
            mean2, var2 = weighted_moments(level1, w)
            return np.concatenate([level1[features.target_index], mean2, var2])

        rng = np.random.default_rng(8)
        for k, d in ((1, 3), (3, 1), (9, 30), (17, 5)):
            values = rng.normal(size=(k, d))
            values[k // 2] = values[0]          # tied rows sort by weight
            w = random_weights(rng, k)
            features = FeatureSet(values=values, weights=w, target_index=k - 1)
            assert aggregate(features).tobytes() == frozen(features).tobytes()

    def test_continuity_in_weights(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(5, 3))
        w = random_weights(rng, 5)
        base = aggregate(FeatureSet(values=values, weights=w, target_index=0))
        lipschitz = 0.0
        for _ in range(20):
            delta = rng.normal(size=5) * 1e-6
            delta -= delta.mean()  # stay on the simplex
            w2 = w + delta
            if np.any(w2 < 0):
                continue
            w2 = w2 / w2.sum()
            m2 = aggregate(FeatureSet(values=values, weights=w2, target_index=0))
            diff = np.max(np.abs(m2 - base))
            l1 = np.sum(np.abs(w2 - w))
            if l1 > 0:
                lipschitz = max(lipschitz, diff / l1)
        bound = 10.0 * np.max(np.abs(values)) * (1 + np.max(np.abs(values)))
        assert lipschitz <= bound
