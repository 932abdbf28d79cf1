"""Confidence throttling: F1-optimal threshold search and set metrics.

The binarization threshold sets the prefetch degree: the lower the threshold,
the more deltas pass. Rather than a fixed 0.5, the threshold that maximizes
micro-averaged F1 on the validation split is grid-searched once and then used
for inference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ThresholdReport:
    optimal_threshold: float
    grid: list[tuple[float, float, float, float]]  # (threshold, precision, recall, f1)
    mean_degree: float
    degenerate: bool = False  # no positive label anywhere in the validation set

    def to_dict(self):
        return {
            "optimal_threshold": self.optimal_threshold,
            "mean_degree": self.mean_degree,
            "degenerate": self.degenerate,
            "grid": [list(row) for row in self.grid],
        }


def binarize(confidences: np.ndarray, threshold: float) -> np.ndarray:
    """Confidence vector(s) -> boolean bitmap(s); bit set iff confidence >= threshold."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    return np.asarray(confidences) >= threshold


def set_metrics(pred: set, label: set) -> tuple[float, float, float]:
    """Precision, recall, F1 between two delta sets.

    Conventions for empty sets: empty prediction has precision 1 against an empty
    label and 0 otherwise; an empty label always has recall 1; F1 is 0 when
    precision + recall is 0.
    """
    pred, label = set(pred), set(label)
    hit = len(pred & label)
    if pred:
        precision = hit / len(pred)
    else:
        precision = 1.0 if not label else 0.0
    recall = hit / len(label) if label else 1.0
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def micro_metrics(pred: np.ndarray, labels: np.ndarray) -> tuple[float, float, float]:
    """Micro-averaged precision/recall/F1 over pooled bit counts of many samples."""
    pred = np.asarray(pred, dtype=bool)
    labels = np.asarray(labels, dtype=bool)
    tp = int(np.count_nonzero(pred & labels))
    fp = int(np.count_nonzero(pred & ~labels))
    fn = int(np.count_nonzero(~pred & labels))
    if tp + fp == 0:
        precision = 1.0 if tp + fn == 0 else 0.0
    else:
        precision = tp / (tp + fp)
    recall = 1.0 if tp + fn == 0 else tp / (tp + fn)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def threshold_grid(grid_step: float) -> np.ndarray:
    """Thresholds {step, 2*step, ..., 1 - step}, rounded to kill float drift. A step
    above about 2/3 leaves no threshold in (0, 1) and raises, like one outside (0, 1)."""
    count = int(round(1.0 / grid_step)) - 1 if 0.0 < grid_step < 1.0 else 0
    if count < 1:
        raise ValueError(f"grid_step must lie in (0, 2/3] so the grid holds a threshold, got {grid_step}")
    return np.round(np.arange(1, count + 1) * grid_step, 12)


def tune_threshold(
    confidences: np.ndarray,
    labels: np.ndarray,
    grid_step: float = 0.01,
) -> ThresholdReport:
    """Grid-search the threshold with the best micro-F1 over validation samples.

    Ties break toward the larger threshold (fewer prefetches). A validation set
    with no positive labels yields a degenerate report pinned at threshold 0.5.
    """
    confidences = np.atleast_2d(np.asarray(confidences, dtype=np.float64))
    labels = np.atleast_2d(np.asarray(labels, dtype=bool))
    if confidences.shape != labels.shape:
        raise ValueError(f"shapes differ: {confidences.shape} vs {labels.shape}")
    if confidences.shape[0] == 0:
        raise ValueError("validation set is empty")

    if not labels.any():
        return ThresholdReport(0.5, [], _mean_degree(confidences, 0.5), True)

    grid = []
    best_f1 = -1.0
    best_threshold = 0.5
    for t in threshold_grid(grid_step):
        pred = confidences >= t
        precision, recall, f1 = micro_metrics(pred, labels)
        grid.append((float(t), precision, recall, f1))
        if f1 >= best_f1:
            best_f1 = f1
            best_threshold = float(t)
    return ThresholdReport(best_threshold, grid, _mean_degree(confidences, best_threshold), False)


def _mean_degree(confidences: np.ndarray, threshold: float) -> float:
    return float((confidences >= threshold).sum(axis=1).mean())
