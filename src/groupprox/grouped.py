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


def _check_q(q):
    """Reject a norm exponent below 1, or nan."""
    if not q >= 1.0:
        raise ValueError(f"norm exponent must satisfy q >= 1, got {q!r}")


def dual_exponent(q):
    """Conjugate exponent q/(q-1), with 1 <-> inf at the endpoints.

    Raises ValueError for q < 1.
    """
    _check_q(q)
    if math.isinf(q):
        return 1.0
    if q <= 1.0 + _Q_ONE_TOL:
        return math.inf
    return q / (q - 1.0)


def _partition(offsets, size):
    """offsets as an index array, checked to split size entries into nonempty groups."""
    offsets = np.asarray(offsets, dtype=np.intp)
    if offsets.ndim != 1 or len(offsets) < 2:
        raise ValueError("offsets must contain at least two indices")
    if offsets[0] != 0 or offsets[-1] != size:
        raise ValueError(f"offsets must start at 0 and end at the length {size}")
    if np.any(np.diff(offsets) <= 0):
        raise ValueError("offsets must be strictly increasing (no empty groups)")
    return offsets


def _finite(values):
    """values, checked to hold no inf or nan."""
    if not np.isfinite(values).all():
        raise ValueError("values must be finite")
    return values


def _finite_vector(v):
    """v as a float array, checked to be one-dimensional and finite."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"v must be one-dimensional, got shape {v.shape}")
    return _finite(v)


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
        if self.values.ndim != 1:
            raise ValueError("values must be one-dimensional")
        self.offsets = _partition(self.offsets, self.values.size)
        _finite(self.values)

    @property
    def n_groups(self):
        return len(self.offsets) - 1

    def group(self, i):
        """View of group i's coefficients."""
        return self.values[self.offsets[i]:self.offsets[i + 1]]

    def group_sizes(self):
        return np.diff(self.offsets)

    def with_values(self, values):
        """Same partition, new coefficients.

        The partition was checked when this vector was built, so only the
        new values' length and finiteness are checked.
        """
        values = np.asarray(values, dtype=float)
        if values.shape != self.values.shape:
            raise ValueError(f"values must have shape {self.values.shape}, got {values.shape}")
        out = object.__new__(GroupedVector)
        out.values, out.offsets = _finite(values), self.offsets
        return out

    def copy(self):
        return self.with_values(self.values.copy())


def q_norm(v, q):
    """The vector lq-norm, with q = inf meaning max |v_i|.

    Sums in units of max |v_i|, so neither large q nor a sum past the
    doubles overflows before the final rescaling; the zero vector returns 0
    without touching 0**0.
    """
    _check_q(q)
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        return 0.0
    a = np.abs(v)
    m = float(a.max())
    if m == 0.0 or math.isinf(q):
        return m
    if q == 2.0:
        return m * math.sqrt(float(np.square(a / m).sum()))
    return m * float(np.power(a / m, q).sum()) ** (1.0 / q)


def group_norms(values, offsets, q):
    """Per-group lq-norms of a flat vector, vectorized over groups."""
    _check_q(q)
    offsets = np.asarray(offsets, dtype=np.intp)
    a = np.abs(np.asarray(values, dtype=float))
    m = np.maximum.reduceat(a, offsets[:-1])
    with np.errstate(over="ignore"):  # a norm past the doubles rounds to inf
        return m * _unit_norms(a, m, offsets, q)


def _unit_norms(a, m, offsets, q):
    """Per-group lq-norms of the magnitudes ``a`` in units of each group's
    largest magnitude ``m`` (0 for a zero group). In these units a norm lies
    in [1, n**(1/q)] and cannot overflow, where m times it can."""
    if math.isinf(q):
        return (m > 0.0).astype(float)
    starts = offsets[:-1]
    safe = np.where(m > 0.0, m, 1.0)
    scaled = np.repeat(safe, offsets[1:] - starts)
    np.divide(a, scaled, out=scaled)
    if q == 1.0:
        return np.add.reduceat(scaled, starts)
    if q == 2.0:
        return np.sqrt(np.add.reduceat(np.square(scaled, out=scaled), starts))
    return np.add.reduceat(np.power(scaled, q, out=scaled), starts) ** (1.0 / q)


def mixed_norm(w: GroupedVector, q):
    """Sum of per-group lq-norms (the l1/lq mixed norm)."""
    return float(group_norms(w.values, w.offsets, q).sum())
