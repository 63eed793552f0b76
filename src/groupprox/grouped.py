"""Grouped coefficient vectors and lq-norm primitives.

A model vector of length p is partitioned into s contiguous, non-overlapping
groups by an offsets array of length s+1. All norm computations rescale by the
largest magnitude first so that large exponents do not overflow.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GroupedVector",
    "dual_exponent",
    "q_norm",
    "mixed_norm",
    "group_norms",
]

# q values this close to 1 are treated as exactly 1: the dual exponent
# q/(q-1) would otherwise overflow.
_Q_ONE_TOL = 1e-12


def dual_exponent(q):
    """Conjugate exponent q/(q-1), with 1 <-> inf at the endpoints.

    Raises ValueError for q < 1.
    """
    if not q >= 1.0:
        raise ValueError(f"norm exponent must satisfy q >= 1, got {q!r}")
    if math.isinf(q):
        return 1.0
    if q <= 1.0 + _Q_ONE_TOL:
        return math.inf
    return q / (q - 1.0)


@dataclass
class GroupedVector:
    """A flat coefficient array plus a contiguous group partition.

    ``offsets`` has length s+1 with offsets[0] == 0 and offsets[s] == len(values);
    group i spans values[offsets[i]:offsets[i+1]]. Every group is nonempty.
    """

    values: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.offsets = np.asarray(self.offsets, dtype=np.intp)
        if self.values.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if self.offsets.ndim != 1 or len(self.offsets) < 2:
            raise ValueError("offsets must contain at least two indices")
        if self.offsets[0] != 0 or self.offsets[-1] != self.values.size:
            raise ValueError("offsets must start at 0 and end at len(values)")
        if np.any(np.diff(self.offsets) <= 0):
            raise ValueError("offsets must be strictly increasing (no empty groups)")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    @property
    def n_groups(self):
        return len(self.offsets) - 1

    def group(self, i):
        """View of group i's coefficients."""
        return self.values[self.offsets[i]:self.offsets[i + 1]]

    def group_sizes(self):
        return np.diff(self.offsets)

    def with_values(self, values):
        """Same partition, new coefficients."""
        return GroupedVector(np.asarray(values, dtype=float), self.offsets)

    def copy(self):
        return GroupedVector(self.values.copy(), self.offsets)


def q_norm(v, q):
    """The vector lq-norm, with q = inf meaning max |v_i|.

    Rescales by max |v_i| before exponentiation so large q does not
    overflow; the zero vector returns 0 without touching 0**0.
    """
    if not q >= 1.0:
        raise ValueError(f"norm exponent must satisfy q >= 1, got {q!r}")
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        return 0.0
    a = np.abs(v)
    m = float(a.max())
    if m == 0.0 or math.isinf(q):
        return m
    if q == 1.0:
        return float(a.sum())
    if q == 2.0:
        return m * math.sqrt(float(np.square(a / m).sum()))
    return m * float(np.power(a / m, q).sum()) ** (1.0 / q)


def group_norms(values, offsets, q):
    """Per-group lq-norms of a flat vector, vectorized over groups."""
    values = np.asarray(values, dtype=float)
    offsets = np.asarray(offsets, dtype=np.intp)
    a = np.abs(values)
    starts = offsets[:-1]
    m = np.maximum.reduceat(a, starts)
    if math.isinf(q):
        return m
    safe = np.where(m > 0.0, m, 1.0)
    scaled = a / np.repeat(safe, np.diff(offsets))
    if q == 1.0:
        return m * np.add.reduceat(scaled, starts)
    if q == 2.0:
        return m * np.sqrt(np.add.reduceat(scaled * scaled, starts))
    return m * np.add.reduceat(np.power(scaled, q), starts) ** (1.0 / q)


def mixed_norm(w: GroupedVector, q):
    """Sum of per-group lq-norms (the l1/lq mixed norm)."""
    return float(group_norms(w.values, w.offsets, q).sum())
