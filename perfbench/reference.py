"""A fixed plain-numpy workload that tracks the machine's current speed.

On a shared machine the speed of one core drifts by 10-25% over minutes,
as other tenants load the host. A run's timings are scaled by how fast
this reference ran in the same run, interleaved with the operations, so
that runs made minutes apart compare work done rather than the machine's
load at the time. The reference shares no code with groupprox: a change
to the package cannot change it.

Its parts mirror what the workloads spend time on, because a slowdown
of the host does not slow every kind of work alike:

- ``elementwise``: exp/log over a few hundred coordinates (the general-q
  kernel on a few active groups);
- ``dense``: products of the path problem's shape (the losses);
- ``groups``: a Python loop of sorts and cumulative sums over groups of 50
  (the q = inf prox);
- ``stream``: exp/log passes over 1e5 coordinates, beyond the L2 cache.

The path workloads time all four parts. Timed one at a time over five
seeds, no single part or subset tracked all three path workloads better
than the whole: the best subset differed by workload, and the whole came
within 0.025 of each workload's best spread. ``prox_single`` times none
(see run.py).
"""

import time

import numpy as np

# Typical seconds of each part on the machine the baselines were recorded
# on (see baselines.json). Scaled timings read as seconds on that machine
# at that typical speed.
NOMINAL_S = {"elementwise": 0.0068, "dense": 0.0053, "groups": 0.0046,
             "stream": 0.0071}


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.random(500) + 0.1
        self.starts = np.arange(0, 500, 50)
        self.design = rng.standard_normal((100, 200))
        self.coef = rng.standard_normal((200, 50))
        self.groups = [rng.random(50) for _ in range(40)]
        self.big = rng.random(100_000) + 0.1
        self._parts = [getattr(self, "_" + p) for p in NOMINAL_S]
        self.nominal_s = sum(NOMINAL_S.values())

    def seconds(self):
        """Wall time of one pass over the parts."""
        t0 = time.perf_counter()
        for part in self._parts:
            part()
        return time.perf_counter() - t0

    def _elementwise(self):
        for _ in range(800):
            y = np.exp(2.0 * np.log(np.where(self.small > 0.2, self.small, 1.0)))
            np.add.reduceat(y - self.small, self.starts)

    def _dense(self):
        for _ in range(48):
            self.design.T @ (self.design @ self.coef)

    def _groups(self):
        for _ in range(25):
            for g in self.groups:
                np.cumsum(np.sort(g)[::-1])

    def _stream(self):
        for _ in range(8):
            np.exp(1.5 * np.log(self.big)).sum()
