"""Smooth convex losses with gradients.

Multi-task least squares 0.5*||A W - Y||_F**2 and binary logistic
regression with +-1 labels. The d x k coefficient matrix W maps onto a
flat grouped vector row-wise, one group of size k per feature row, so the
multi-task problem is a direct instance of the grouped formulation.

The logistic gradient weighs each sample by 1/(1 + exp(m)) on its margin
m = y*z, the logistic sigmoid of -m. Where exp(m) overflows to inf the
weight is 0, without a warning.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "LossKind",
    "Dataset",
    "loss_value",
    "loss_gradient",
    "row_group_offsets",
]


class LossKind(Enum):
    LEAST_SQUARES = "least_squares"
    LOGISTIC = "logistic"


@dataclass
class Dataset:
    """Design matrix (m x d) and targets (m x k).

    Regression targets are arbitrary reals; logistic targets must be +-1.
    """

    design: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.design = np.asarray(self.design, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        if self.targets.ndim == 1:
            self.targets = self.targets[:, None]
        if self.design.ndim != 2 or self.targets.ndim != 2:
            raise ValueError("design and targets must be matrices")
        if self.design.shape[0] != self.targets.shape[0]:
            raise ValueError(
                f"sample count mismatch: design has {self.design.shape[0]} rows, "
                f"targets {self.targets.shape[0]}"
            )
        if not (np.all(np.isfinite(self.design)) and np.all(np.isfinite(self.targets))):
            raise ValueError("data must be finite")

    @property
    def n_samples(self):
        return self.design.shape[0]

    @property
    def n_features(self):
        return self.design.shape[1]

    @property
    def n_tasks(self):
        return self.targets.shape[1]

    def check_logistic_targets(self):
        if not np.all(np.isin(self.targets, (-1.0, 1.0))):
            raise ValueError("logistic targets must be -1 or +1")


def row_group_offsets(d, k):
    """Offsets flattening a d x k matrix row-wise, one group per row."""
    return np.arange(0, d * k + 1, k, dtype=np.intp)


def _loss_at_product(z, data: Dataset, kind: LossKind, gradient=False):
    """Loss from the product Z = A W, and its gradient in W when asked.

    Returns (value, gradient or None). The targets are not checked here. A
    loss past the doubles is inf, without a warning: callers check it.
    """
    a, y = data.design, data.targets
    if kind is LossKind.LEAST_SQUARES:
        r = z - y
        with np.errstate(over="ignore"):
            value = 0.5 * float(np.square(r).sum())
        return value, a.T @ r if gradient else None
    if kind is LossKind.LOGISTIC:
        margins = y * z
        # log(1 + exp(-t)) without overflow
        value = float(np.logaddexp(0.0, -margins).sum())
        if not gradient:
            return value, None
        with np.errstate(over="ignore"):
            weights = 1.0 / (1.0 + np.exp(margins))
        return value, -(a.T @ (y * weights))
    raise ValueError(f"unknown loss kind {kind!r}")


def _checked_product(w, data: Dataset, kind: LossKind):
    """A W, after checking W's shape and, for logistic loss, the targets."""
    w = np.asarray(w, dtype=float)
    if w.ndim == 1:
        w = w[:, None]
    if w.shape != (data.n_features, data.n_tasks):
        raise ValueError(f"W must be {data.n_features} x {data.n_tasks}, got {w.shape}")
    if kind is LossKind.LOGISTIC:
        data.check_logistic_targets()
    return data.design @ w


def loss_value(w, data: Dataset, kind: LossKind):
    """Loss at the d x k coefficient matrix W."""
    return _loss_at_product(_checked_product(w, data, kind), data, kind)[0]


def loss_gradient(w, data: Dataset, kind: LossKind):
    """Gradient of the loss with respect to W, shape d x k."""
    return _loss_at_product(_checked_product(w, data, kind), data, kind, gradient=True)[1]
