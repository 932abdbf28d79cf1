import numpy as np
import pytest

from prefetchlab.throttle import (
    binarize,
    micro_metrics,
    set_metrics,
    threshold_grid,
    tune_threshold,
)


def brute_force_tune(conf, labels, grid_step):
    """Independent re-evaluation: pooled counts per threshold, last argmax wins."""
    best_t, best_f1 = 0.5, -1.0
    count = int(round(1.0 / grid_step)) - 1
    for i in range(1, count + 1):
        t = round(i * grid_step, 12)
        pred = conf >= t
        tp = int((pred & labels).sum())
        fp = int((pred & ~labels).sum())
        fn = int((~pred & labels).sum())
        p = tp / (tp + fp) if tp + fp else (1.0 if tp + fn == 0 else 0.0)
        r = tp / (tp + fn) if tp + fn else 1.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        if f1 >= best_f1:
            best_f1, best_t = f1, t
    return best_t, best_f1


class TestBinarize:
    def test_all_zero_confidence(self):
        assert not binarize(np.zeros(8), 0.3).any()
        assert not binarize(np.zeros(8), 0.9).any()

    def test_comparison(self):
        got = binarize(np.array([0.9, 0.6, 0.2, 0.1]), 0.5)
        assert np.array_equal(got, [True, True, False, False])

    def test_threshold_boundary_inclusive(self):
        assert binarize(np.array([0.6]), 0.6)[0]

    def test_monotone_popcount(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            conf = rng.uniform(0, 1, size=64)
            thresholds = np.sort(rng.uniform(0.01, 0.99, size=10))
            pops = [binarize(conf, float(t)).sum() for t in thresholds]
            assert all(b <= a for a, b in zip(pops, pops[1:]))

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            binarize(np.zeros(4), 0.0)
        with pytest.raises(ValueError):
            binarize(np.zeros(4), 1.0)


class TestSetMetrics:
    def test_half_overlap(self):
        assert set_metrics({1, 5}, {1, 2}) == (0.5, 0.5, 0.5)

    def test_exact_match(self):
        assert set_metrics({3, 4}, {3, 4}) == (1.0, 1.0, 1.0)

    def test_empty_prediction_nonempty_label(self):
        assert set_metrics(set(), {1}) == (0.0, 0.0, 0.0)

    def test_both_empty(self):
        assert set_metrics(set(), set()) == (1.0, 1.0, 1.0)

    def test_nonempty_prediction_empty_label(self):
        precision, recall, f1 = set_metrics({1}, set())
        assert (precision, recall) == (0.0, 1.0)
        assert f1 == 0.0


class TestThresholdGrid:
    def test_grid_contents(self):
        grid = threshold_grid(0.01)
        assert len(grid) == 99
        assert grid[0] == 0.01 and grid[-1] == 0.99
        assert 0.5 in grid and 0.6 in grid

    def test_bad_step(self):
        with pytest.raises(ValueError):
            threshold_grid(0.0)
        assert len(threshold_grid(0.6)) == 1
        with pytest.raises(ValueError, match="grid_step"):  # an empty grid
            threshold_grid(0.7)
        with pytest.raises(ValueError, match="grid_step"):  # not a 0.5 that scored nothing
            tune_threshold(np.full((2, 3), 0.9), np.ones((2, 3), dtype=bool), grid_step=0.7)


class TestTuneThreshold:
    def test_hand_example_tie_breaks_high(self):
        conf = np.array([[0.9, 0.6, 0.2]])
        labels = np.zeros((1, 3), dtype=bool)
        labels[0, [0, 1]] = True
        report = tune_threshold(conf, labels, grid_step=0.01)
        assert report.optimal_threshold == pytest.approx(0.6)
        best_f1 = max(row[3] for row in report.grid)
        assert best_f1 == 1.0

    def test_degenerate_empty_labels(self):
        conf = np.random.default_rng(1).uniform(0, 1, size=(5, 8))
        report = tune_threshold(conf, np.zeros((5, 8), dtype=bool))
        assert report.degenerate
        assert report.optimal_threshold == 0.5

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            labels = rng.uniform(size=(30, 16)) < 0.2
            conf = np.clip(labels * rng.uniform(0.3, 1.0, size=labels.shape)
                           + ~labels * rng.uniform(0.0, 0.7, size=labels.shape), 0, 1)
            report = tune_threshold(conf, labels, grid_step=0.05)
            t, f1 = brute_force_tune(conf, labels, 0.05)
            assert report.optimal_threshold == pytest.approx(t)
            got_f1 = dict((row[0], row[3]) for row in report.grid)[report.optimal_threshold]
            assert got_f1 == pytest.approx(f1)

    def test_optimum_not_worse_than_half(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            labels = rng.uniform(size=(40, 12)) < 0.3
            conf = rng.uniform(0, 1, size=labels.shape)
            report = tune_threshold(conf, labels, grid_step=0.01)
            by_t = {row[0]: row[3] for row in report.grid}
            assert by_t[report.optimal_threshold] >= by_t[0.5] - 1e-12

    def test_mean_degree_at_optimum(self):
        conf = np.array([[0.9, 0.6, 0.2], [0.9, 0.1, 0.1]])
        labels = np.array([[True, True, False], [True, False, False]])
        report = tune_threshold(conf, labels, grid_step=0.01)
        expected = float((conf >= report.optimal_threshold).sum(axis=1).mean())
        assert report.mean_degree == expected

    def test_empty_validation_rejected(self):
        with pytest.raises(ValueError):
            tune_threshold(np.empty((0, 4)), np.empty((0, 4), dtype=bool))

    def test_report_serializes(self):
        conf = np.array([[0.7, 0.4]])
        labels = np.array([[True, False]])
        d = tune_threshold(conf, labels, grid_step=0.25).to_dict()
        assert set(d) == {"optimal_threshold", "mean_degree", "degenerate", "grid"}


class TestMicroMetrics:
    def test_pooled_counts(self):
        pred = np.array([[True, False], [True, True]])
        labels = np.array([[True, True], [False, True]])
        precision, recall, f1 = micro_metrics(pred, labels)
        assert precision == pytest.approx(2 / 3)
        assert recall == pytest.approx(2 / 3)
        assert f1 == pytest.approx(2 / 3)

    def test_empty_everything(self):
        z = np.zeros((3, 4), dtype=bool)
        assert micro_metrics(z, z) == (1.0, 1.0, 1.0)
