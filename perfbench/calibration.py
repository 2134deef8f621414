"""A fixed probe of the machine's speed, timed between the library's calls.

On a shared host the same code runs at different speeds from one second to
the next and from one minute to the next: on the 2-core Xeon guest this
benchmark was written on, a fixed loop switched between speeds about 1.5x
apart every 0.5-5 s, and a workload's times drifted by 40% over a few
minutes.  The probe is about 10 ms of work of the kinds the library does
(interpreted Python, sparse products and triangular solves through scipy,
small dense products) on fixed inputs, and it never calls the library.  A
library call's time divided by the probe times around it changes only when
the library's work changes.  Timing ic0 (n=40,000), CG and a Krylov build
44 times each over 90 s, this division cut the coefficient of variation of
single timings from 0.16-0.23 to 0.09-0.12.  Over five 35-s runs of each
workload, the interquartile range of the time metrics fell from 14-45% of
the median (fastest sample per operation, measured seconds) to 3-11%
(median sample per operation, normalised).
"""

import time

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

# Seconds one probe takes at the reference speed.  A normalised time is
# seconds * REFERENCE_PROBE_S / (the probe's seconds around the call): the
# call's time on a machine where the probe takes this long.  The probe took
# 9.8-11.2 ms (min to p90 of 200) on the machine above, so normalised times
# read close to its seconds.
REFERENCE_PROBE_S = 0.010
PROBE_GAP_S = 0.2  # calls that start this soon after a probe share it

_M = 40
_T = scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(_M, _M))
_I = scipy.sparse.identity(_M)
_A = scipy.sparse.csr_matrix(scipy.sparse.kron(_T, _I) + scipy.sparse.kron(_I, _T))
_L = scipy.sparse.tril(_A, format="csr")
_X = np.ones(_M * _M)
_D = np.linspace(-1.0, 1.0, 48 * 48).reshape(48, 48)


def _work() -> None:
    total = 0
    for i in range(40000):
        total += i * i
    for _ in range(60):
        _A @ _X
    for _ in range(6):
        scipy.sparse.linalg.spsolve_triangular(_L, _X, lower=True)
    for _ in range(40):
        _D @ _D


class Clock:
    """Probes taken between timed calls, and the calls waiting for their next probe."""

    def __init__(self):
        self.last = None  # (perf_counter when taken, probe seconds)
        self.spent_s = 0.0  # seconds spent probing, so a round can leave them out
        self._waiting = []  # samples that need the probe after them

    def probe(self) -> float:
        t0 = time.perf_counter()
        _work()
        t1 = time.perf_counter()
        self.spent_s += t1 - t0
        self.last = (t1, t1 - t0)
        for sample in self._waiting:
            sample["after"] = t1 - t0
        self._waiting = []
        return t1 - t0

    def before(self) -> float:
        """The probe to set before a call: the last one if it is recent, else a new one."""
        if self.last is None or time.perf_counter() - self.last[0] > PROBE_GAP_S:
            self.probe()
        return self.last[1]

    def wait_for_next(self, sample: dict) -> None:
        self._waiting.append(sample)


def normalised(sample: dict) -> float:
    """A sample's seconds at the reference speed (mean of the probes around it)."""
    return sample["s"] * REFERENCE_PROBE_S / (0.5 * (sample["before"] + sample["after"]))
