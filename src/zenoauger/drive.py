"""Time-dependent coupling between the two bound states.

The measurement protocol is a train of square pi-pulses: a pulse of
duration t_pi = pi/Omega swaps the populations of |1> and |2>, the system
waits a time t_m, a second pulse swaps them back, and after a delay
dt_delay the cycle repeats.  A continuous mode (envelope identically one)
and rotating-wave variants of both are also provided.

The full-field coupling is g(t) = Omega f(t) sin(omega t), f the square
or cosine-ramped envelope; the rotating-wave modes use g = Omega f(t)/2
with the frame shift on the Hamiltonian diagonal (model.rotating_frame).
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

MODES = ("pulsed", "continuous", "rwa_pulsed", "rwa_continuous", "off")
ENVELOPES = ("square", "cosine_ramp")


@dataclass(frozen=True, eq=False)
class PulseSchedule:
    """Resolved drive protocol over a fixed simulation span.

    ``windows`` is an (n, 2) array of [start, end) intervals where the
    envelope is nonzero, non-overlapping and sorted.  ``cycle_boundaries``
    marks the time after each completed pulse-wait-pulse-delay cycle;
    populations sampled there are free of the intra-cycle Rabi swing.
    ``ramp`` is the cosine rise and fall time of each pulsed window (a
    continuous window only rises); 0 means a square envelope, constant
    inside every window.
    """

    mode: str
    Omega: float
    omega: float
    windows: np.ndarray
    cycle_boundaries: np.ndarray
    ramp: float
    phase_reset: bool

    @property
    def t_pi(self) -> float:
        """Duration of a population-swapping pulse, pi/Omega."""
        return math.pi / self.Omega if self.Omega > 0 else math.inf

    @cached_property
    def is_rwa(self) -> bool:
        """Whether the coupling is the rotating-wave Omega f(t) / 2."""
        return self.mode.startswith("rwa")

    @cached_property
    def drive_active(self) -> bool:
        """Whether any window holds the drive."""
        return len(self.windows) > 0

    @cached_property
    def edges(self) -> tuple[list[float], list[float]]:
        """The window starts and ends as lists, for bisection per call."""
        return self.windows[:, 0].tolist(), self.windows[:, 1].tolist()

    @property
    def coupling_varies(self) -> bool:
        """Whether g changes inside a window (a carrier or a ramp)."""
        return self.drive_active and not (self.is_rwa and self.ramp == 0.0)


def build_schedule(
    Omega: float,
    omega: float,
    delta: float,
    t_m: float,
    dt_delay: float,
    mode: str,
    T_total: float,
    envelope: str = "square",
    ramp: float = 0.0,
    phase_reset: bool = False,
) -> PulseSchedule:
    """Resolve a drive protocol into explicit pulse windows.

    Pulsed modes emit [pulse][t_m][pulse][dt_delay] cycles until T_total,
    clipping a trailing partial cycle; continuous modes emit the single
    window [0, T_total).  With the cosine_ramp envelope each pulsed window
    is lengthened by the ramp time so the pulse area stays pi; the
    continuous window ramps up only.  ``delta`` is accepted but not
    stored: the detuning already lives in ``omega`` and, for the
    rotating-wave modes, on the Hamiltonian diagonal.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if envelope not in ENVELOPES:
        raise ValueError(f"envelope must be one of {ENVELOPES}, got {envelope!r}")
    for name, value in (("Omega", Omega), ("omega", omega), ("t_m", t_m),
                        ("dt_delay", dt_delay), ("ramp", ramp),
                        ("T_total", T_total)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not T_total > 0:
        raise ValueError(f"T_total must be positive, got {T_total}")
    if t_m < 0 or dt_delay < 0 or ramp < 0:
        raise ValueError("t_m, dt_delay and ramp must be non-negative")

    if envelope == "square":
        ramp = 0.0  # a square window ignores any ramp time given

    windows = []
    boundaries = []
    if mode == "off":
        Omega = 0.0
    elif not Omega > 0:
        raise ValueError(f"driven modes need Omega > 0, got {Omega}")
    elif mode.endswith("continuous"):
        windows.append((0.0, T_total))
    else:
        width = math.pi / Omega + ramp
        start = 0.0
        while start < T_total:
            for w_start in (start, start + width + t_m):
                if w_start >= T_total:
                    break
                windows.append((w_start, min(w_start + width, T_total)))
            cycle_end = start + 2.0 * width + t_m + dt_delay
            if cycle_end <= T_total * (1.0 + 1e-12):
                boundaries.append(min(cycle_end, T_total))
            if cycle_end <= start:  # degenerate all-zero cycle cannot advance
                raise ValueError("cycle period must be positive")
            start = cycle_end
    return PulseSchedule(mode, Omega, omega, np.reshape(windows, (-1, 2)),
                         np.asarray(boundaries, dtype=float), ramp, phase_reset)


def _locate(schedule: PulseSchedule, t: float) -> tuple[int, float]:
    """(index of the window holding t >= 0, or -1; envelope f(t) there).

    A pulsed window ramps down at its own end, start + (t_pi + ramp), even
    when the run stops inside it, and a continuous window ramps up at 0 and
    never down, so no state depends on T_total.
    """
    starts, ends = schedule.edges
    idx = bisect.bisect_right(starts, t) - 1
    if idx < 0 or not t < ends[idx]:
        return -1, 0.0
    if schedule.ramp == 0.0:
        return idx, 1.0
    a = starts[idx]
    pulsed = schedule.mode.endswith("pulsed")
    b = a + (schedule.t_pi + schedule.ramp) if pulsed else math.inf
    r = min(schedule.ramp, 0.5 * (b - a))
    if t < a + r:
        return idx, math.sin(0.5 * math.pi * (t - a) / r) ** 2
    if t > b - r:
        return idx, math.sin(0.5 * math.pi * (b - t) / r) ** 2
    return idx, 1.0


def envelope_at(schedule: PulseSchedule, t: float) -> float:
    """Envelope value f(t): 1 inside a window, 0 outside, 0 for t < 0."""
    if t < 0 or not schedule.drive_active:
        return 0.0
    return _locate(schedule, t)[1]


def coupling_at(schedule: PulseSchedule, t: float) -> complex:
    """Instantaneous drive element g(t) = <2|H(t)|1>.

    Full-field modes: Omega f(t) sin(omega t), with the carrier phase
    referenced to the absolute simulation time unless phase_reset is set.
    Rotating-wave modes: Omega/2 f(t), to be used with the frame-shifted
    Hamiltonian (any detuning sits on the diagonal there).
    """
    if t < 0 or not schedule.drive_active:
        return 0.0 + 0.0j
    idx, f = _locate(schedule, t)
    if f == 0.0:
        return 0.0 + 0.0j
    if schedule.is_rwa:
        return complex(0.5 * schedule.Omega * f)
    phase_t = t - schedule.edges[0][idx] if schedule.phase_reset else t
    return complex(schedule.Omega * f * math.sin(schedule.omega * phase_t))
