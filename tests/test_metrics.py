import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minifair.metrics import (
    benefits,
    classification_metrics,
    confusion_counts,
    gaussian_mmd,
    generalized_entropy_from_benefits,
    group_fairness,
    regression_metrics,
    wasserstein_1d,
)


def assignment_wasserstein(a, b):
    """Exact optimal-assignment transport cost for equal-size samples.

    Bitmask dynamic program over which elements of b are already matched;
    equivalent to enumerating all permutations.
    """
    a = list(a)
    b = list(b)
    n = len(a)
    assert len(b) == n
    full = (1 << n) - 1
    best = {0: 0.0}
    for i in range(n):
        nxt = {}
        for mask, cost in best.items():
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    continue
                new = mask | bit
                c = cost + abs(a[i] - b[j])
                if new not in nxt or c < nxt[new]:
                    nxt[new] = c
        best = nxt
    return best[full] / n


def permutation_wasserstein(a, b):
    n = len(a)
    return min(
        sum(abs(x - y) for x, y in zip(a, perm)) for perm in itertools.permutations(b)
    ) / n


class TestRegressionMetrics:
    def test_perfect_prediction(self):
        assert regression_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == (0.0, 0.0, 1.0)

    def test_mean_predictor_has_zero_r2(self):
        y = [1.0, 2.0, 3.0]
        pred = [2.0, 2.0, 2.0]
        _, _, r2 = regression_metrics(pred, y)
        assert r2 == pytest.approx(0.0)

    def test_hand_computed_case(self):
        rmse, mae, r2 = regression_metrics([0.0, 0.0], [1.0, -1.0])
        assert rmse == pytest.approx(1.0)
        assert mae == pytest.approx(1.0)
        assert r2 == pytest.approx(0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            regression_metrics([], [])


class TestClassificationMetrics:
    def test_perfect(self):
        assert classification_metrics([1, 0, 1, 0], [1, 0, 1, 0]) == (1, 1, 1, 1)

    def test_hand_computed_case(self):
        precision, recall, f1, bacc = classification_metrics([1, 0, 0, 0], [1, 1, 0, 0])
        assert precision == 1.0
        assert recall == 0.5
        assert f1 == pytest.approx(2.0 / 3.0)
        assert bacc == pytest.approx(0.75)

    def test_all_zero_predictions(self):
        precision, recall, f1, bacc = classification_metrics([0, 0, 0, 0], [1, 0, 1, 0])
        assert recall == 0.0
        assert precision == 0.0
        assert f1 == 0.0
        assert bacc == 0.5

    def test_single_class_targets_rejected(self):
        with pytest.raises(ValueError):
            classification_metrics([1, 1], [1, 1])

    def test_nonbinary_rejected(self):
        with pytest.raises(ValueError):
            classification_metrics([0.5, 1.0], [0, 1])

    def test_f1_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            y = rng.integers(0, 2, size=40)
            if y.min() == y.max():
                continue
            p = rng.integers(0, 2, size=40)
            c = confusion_counts(p, y)
            _, _, f1, _ = classification_metrics(p, y)
            denom = 2 * c.tp + c.fp + c.fn
            expected = 2 * c.tp / denom if denom else 0.0
            assert f1 == pytest.approx(expected)

    def test_random_predictor_balanced_acc_near_half(self):
        rng = np.random.default_rng(123)
        n = 10_000
        y = np.tile([0, 1], n // 2)
        p = rng.integers(0, 2, size=n)
        *_, bacc = classification_metrics(p, y)
        assert abs(bacc - 0.5) < 0.05


class TestWasserstein:
    def test_identical_samples(self):
        assert wasserstein_1d([1, 2, 3], [1, 2, 3]) == 0.0

    def test_point_masses(self):
        assert wasserstein_1d([0.0], [3.0]) == pytest.approx(3.0)

    def test_sorted_pairing(self):
        assert wasserstein_1d([0.0, 1.0], [1.0, 2.0]) == pytest.approx(1.0)

    def test_unequal_sizes(self):
        # CDFs: a jumps to 1 at 0; b has steps at 0 and 2 -> integral of |diff| = 1
        assert wasserstein_1d([0.0], [0.0, 2.0]) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            wasserstein_1d([], [1.0])

    def test_matches_assignment_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            a = rng.normal(size=n) * rng.uniform(0.5, 3.0)
            b = rng.normal(size=n) * rng.uniform(0.5, 3.0)
            assert wasserstein_1d(a, b) == pytest.approx(
                assignment_wasserstein(a, b), abs=1e-9
            )

    def test_assignment_oracle_agrees_with_permutations(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            assert assignment_wasserstein(a, b) == pytest.approx(
                permutation_wasserstein(a, b), abs=1e-12
            )

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=10),
        st.lists(st.floats(-50, 50), min_size=1, max_size=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, a, b):
        assert wasserstein_1d(a, b) == pytest.approx(wasserstein_1d(b, a), abs=1e-12)

    @given(
        st.lists(st.floats(-20, 20), min_size=1, max_size=8),
        st.lists(st.floats(-20, 20), min_size=1, max_size=8),
        st.lists(st.floats(-20, 20), min_size=1, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert wasserstein_1d(a, c) <= wasserstein_1d(a, b) + wasserstein_1d(b, c) + 1e-9

    def test_zero_iff_identical_multisets(self):
        assert wasserstein_1d([1.0, 2.0], [2.0, 1.0]) == 0.0
        assert wasserstein_1d([1.0, 2.0], [1.0, 2.5]) > 0.0


class TestGaussianMMD:
    def test_identical_samples(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=17)
        assert gaussian_mmd(a, a.copy()) <= 1e-12

    def test_hand_computed_point_masses(self):
        expected = 2.0 - 2.0 * math.exp(-0.5)
        assert gaussian_mmd([0.0], [1.0], bandwidth=1.0) == pytest.approx(expected)

    def test_matches_direct_kernel_sums(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal(size=int(rng.integers(1, 12)))
            b = rng.normal(size=int(rng.integers(1, 12)))
            sigma = float(rng.uniform(0.3, 2.0))

            def k(x, y):
                return math.exp(-((x - y) ** 2) / (2 * sigma**2))

            kaa = np.mean([[k(x, y) for y in a] for x in a])
            kbb = np.mean([[k(x, y) for y in b] for x in b])
            kab = np.mean([[k(x, y) for y in b] for x in a])
            assert gaussian_mmd(a, b, bandwidth=sigma) == pytest.approx(
                max(kaa + kbb - 2 * kab, 0.0), abs=1e-12
            )

    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=8),
        st.lists(st.floats(-10, 10), min_size=1, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetric_and_nonnegative(self, a, b):
        m1 = gaussian_mmd(a, b)
        assert m1 >= 0.0
        assert m1 == pytest.approx(gaussian_mmd(b, a), abs=1e-12)

    def test_degenerate_pooled_sample_uses_unit_bandwidth(self):
        assert gaussian_mmd([1.0, 1.0], [1.0]) == pytest.approx(0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gaussian_mmd([1.0], [])


class TestGeneralizedEntropy:
    def test_all_correct_is_zero(self):
        for alpha in [0.5, 1.0, 2.0, 3.0]:
            b = benefits([1, 0, 1], [1, 0, 1])
            assert generalized_entropy_from_benefits(b, alpha) == pytest.approx(0.0)

    def test_theil_hand_case(self):
        # one false positive (b=2), one false negative (b=0)
        b = benefits([1.0, 0.0], [0.0, 1.0])
        assert generalized_entropy_from_benefits(b, 1.0) == pytest.approx(math.log(2))

    def test_ge2_hand_case(self):
        b = benefits([1.0, 0.0], [0.0, 1.0])
        assert generalized_entropy_from_benefits(b, 2.0) == pytest.approx(0.5)

    def test_matches_printed_formula(self):
        rng = np.random.default_rng(11)
        for alpha in [-0.5, 0.25, 0.5, 1.0, 2.0, 3.5]:
            b = rng.uniform(0.1, 5.0, size=30)
            mu = b.mean()
            n = b.size
            if alpha == 1.0:
                expected = sum(
                    (bi / mu) * math.log(bi / mu) for bi in b
                ) / n
            elif alpha == 0.0:
                expected = -sum(math.log(bi / mu) for bi in b) / n
            else:
                expected = sum((bi / mu) ** alpha - 1 for bi in b) / (
                    n * alpha * (alpha - 1)
                )
            got = generalized_entropy_from_benefits(b, alpha)
            assert got == pytest.approx(expected, abs=1e-12)

    @given(
        st.lists(st.floats(0.01, 100.0), min_size=2, max_size=20),
        st.floats(0.001, 1000.0),
        st.sampled_from([1.0, 2.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_scale_invariance(self, b, c, alpha):
        base = generalized_entropy_from_benefits(b, alpha)
        scaled = generalized_entropy_from_benefits([c * v for v in b], alpha)
        assert scaled == pytest.approx(base, abs=1e-12, rel=1e-9)

    def test_nonnegative_and_zero_iff_equal(self):
        assert generalized_entropy_from_benefits([2.0, 2.0, 2.0], 2.0) == pytest.approx(0.0)
        rng = np.random.default_rng(5)
        for _ in range(20):
            b = rng.uniform(0.1, 3.0, size=10)
            val = generalized_entropy_from_benefits(b, 2.0)
            assert val >= 0.0
            if np.ptp(b) > 1e-6:
                assert val > 0.0

    def test_zero_benefit_with_alpha_zero_rejected(self):
        with pytest.raises(ValueError):
            generalized_entropy_from_benefits([0.0, 1.0], 0.0)

    def test_zero_mean_rejected(self):
        with pytest.raises(ValueError):
            generalized_entropy_from_benefits([0.0, 0.0], 2.0)

    def test_negative_benefits_rejected(self):
        with pytest.raises(ValueError):
            generalized_entropy_from_benefits([-0.5, 1.0], 2.0)


class TestGroupFairness:
    def test_identical_groups_are_zero(self):
        pred = np.tile([0.5, 1.5, 2.5], 2)
        labels = np.repeat([0, 1], 3)
        w, m = group_fairness(pred, labels)
        assert w == pytest.approx(0.0)
        assert m == pytest.approx(0.0, abs=1e-12)

    def test_two_point_groups(self):
        w, _ = group_fairness([0.0, 3.0], [0, 1])
        assert w == pytest.approx(3.0)

    def test_three_groups_average_three_pairs(self):
        pred = [0.0, 1.0, 2.0]
        labels = [0, 1, 2]
        w, _ = group_fairness(pred, labels)
        # pairs (0,1), (0,2), (1,2) with distances 1, 2, 1
        assert w == pytest.approx(4.0 / 3.0)

    def test_single_group_rejected(self):
        with pytest.raises(ValueError):
            group_fairness([1.0, 2.0], [0, 0])
