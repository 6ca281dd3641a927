"""Machine-speed reference: a fixed kernel timed between certificates.

The host this benchmark was built on is shared, and its speed drifts by
20–40 % over tens of seconds; wall time and process CPU time drift
together.  A run therefore times this fixed kernel about once a second
and scales every certificate latency by ``REFERENCE_S`` over the mean of
the two reference samples around it.  Scaled times read as seconds on a
machine that runs the kernel in ``REFERENCE_S``.  They cancel host drift
but not a change in opteleport, which the kernel does not call.

The kernel mixes what the workloads spend their time on: interpreter
loops, small SVDs and einsums (``ladder``), an einsum that streams an
8.5 MB operand like ``GnsSpace.left`` at tower level two (``tower``), and
the SVD of a wide stack of flattened products (``teleport``).
``REFERENCE_S`` is about its time with one BLAS thread on the 2-core
machine the baseline comes from, in a quiet period.  Changing the kernel
or the constant changes every scaled metric, so both stay fixed.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.030
# A reference sample is taken after a certificate once this long has passed
# since the previous sample.
REFERENCE_EVERY_S = 1.0


class Reference:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.square = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        self.small = rng.standard_normal((9, 9, 9, 9)) + 0j
        self.large = rng.standard_normal((81, 81, 9, 9)) + 0j
        self.x = rng.standard_normal((9, 9)) + 0j
        self.wide = rng.standard_normal((64, 1024)) + 1j * rng.standard_normal((64, 1024))

    def sample(self) -> float:
        """Seconds the kernel takes now."""
        start = time.perf_counter()
        for _ in range(20):
            np.linalg.svd(self.square)
            for _ in range(20):
                np.einsum("lkab,ba->lk", self.small, self.x)
            acc = 0
            for i in range(2000):
                acc += i * i
        for _ in range(4):
            np.einsum("lkab,ba->lk", self.large, self.x)
        np.linalg.svd(self.wide, full_matrices=False)
        return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor from wall seconds to reference seconds between two samples."""
    return REFERENCE_S / ((before + after) / 2)
