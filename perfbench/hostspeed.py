"""Host speed probe: a fixed reference kernel timed around every operation.

On a shared host the speed of a vCPU drifts by tens of percent over tens
of seconds, so the raw wall time of a pass says as much about the
neighbours as about the program.  The probe runs a fixed kernel that
nothing in the package can change — small complex sparse matvecs with
Krylov-style normalisation, a small dense matrix exponential, and float
formatting into joined text, the three kinds of work the workloads do —
right before and right after each timed operation.  An operation's time
divided by the mean probe unit time around it is its cost in probe
units; multiplied by :data:`REFERENCE_UNIT_S` it reads in seconds at the
speed of the machine where the benchmark was defined.  A change to the
program moves that figure by the same share as the raw time; a change in
host speed moves the operation and the probe together and cancels.

Set-up time is dominated by process start and imports, which the kernel
does not track, so it is scaled the same way by a start-up probe: a fresh
interpreter importing the package's third-party dependencies.
"""
from __future__ import annotations

import time

import numpy as np
import scipy.linalg
import scipy.sparse

# Median times of one probe unit and of one start-up probe on the 2-vCPU
# KVM guest (shared Intel Xeon host) where the benchmark was defined; they
# only set the scale.
REFERENCE_UNIT_S = 0.015
REFERENCE_STARTUP_S = 0.35

# The start-up probe: a fresh interpreter importing the package's
# third-party dependencies, which are most of the package's own set-up.
STARTUP_PROGRAM = "import numpy, scipy.sparse"

DIM = 2204               # the fig3_circles Hamiltonian dimension
KRYLOV_STEPS = 60
FORMATTED_FLOATS = 3000


class Probe:
    """The reference kernel and its timings."""

    def __init__(self):
        rng = np.random.default_rng(20180418)
        matrix = scipy.sparse.random(DIM, DIM, density=0.004, format="csr",
                                     random_state=rng, dtype=float)
        self.matrix = (matrix + matrix.T) * 1j + scipy.sparse.identity(
            DIM, format="csr")
        self.vector = rng.standard_normal(DIM) + 0j
        small = rng.standard_normal((8, 8))
        self.small = -1j * 0.01 * (small + small.T)
        self.floats = rng.standard_normal(FORMATTED_FLOATS).tolist()
        self.sink = 0.0
        self.history = []    # mean unit time of every sample
        self.ended = 0.0     # perf_counter() when the last sample ended
        self.last_wall = {}  # operation label -> its last wall time

    def unit(self) -> float:
        """Wall time of one unit of the reference kernel."""
        start = time.perf_counter()
        x = self.vector
        coeffs = np.zeros(8, dtype=complex)
        for step in range(KRYLOV_STEPS):
            y = self.matrix.dot(x)
            coeffs[step % 8] = np.vdot(x, y)
            x = y / np.linalg.norm(y)
            coeffs = coeffs / max(np.linalg.norm(coeffs), 1.0)
        phase = scipy.linalg.expm(self.small)
        text = "\n".join("%.17g,%.17g" % (v, v * 0.5) for v in self.floats)
        self.sink += float(abs(x[0])) + float(abs(phase[0, 0])) + len(text)
        return time.perf_counter() - start

    def sample(self, seconds: float, reuse_within: float = 0.0) -> float:
        """Mean unit time over units run for at least ``seconds``.

        The last sample is returned again if it ended at most
        ``reuse_within`` seconds ago.
        """
        if self.history and time.perf_counter() - self.ended <= reuse_within:
            return self.history[-1]
        times = [self.unit()]
        while sum(times) < seconds:
            times.append(self.unit())
        self.history.append(sum(times) / len(times))
        self.ended = time.perf_counter()
        return self.history[-1]
