"""Populations, lifetimes, spectra and peak diagnostics.

All post-processing here is pure: functions read immutable traces or
states and return new values, so scan points can be analyzed in parallel
without coordination.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import StateVector

FIT_WINDOW = (0.2, 0.9)
R_SQUARED_ACCEPT = 0.98
PEAK_NOISE_FLOOR = 1e-4


@dataclass(eq=False)
class ObservableTrace:
    """Time series of orbital occupations plus snapshot states.

    ``P_bound`` and ``n_v1..3`` derive from ``P1`` and ``P2`` (see
    :func:`orbital_populations`).  ``states`` holds the full complex
    state at each snapshot time, the last one at the final sample;
    ``spectra`` derives from them.  ``cycle_flags`` marks cycle-boundary
    samples.
    """

    times: np.ndarray
    n_c: np.ndarray
    P1: np.ndarray
    P2: np.ndarray
    cycle_flags: np.ndarray
    states: list[StateVector] = field(default_factory=list)
    energies_s: np.ndarray = field(default_factory=lambda: np.array([]))
    energies_p: np.ndarray = field(default_factory=lambda: np.array([]))
    d_eps_s: float = 0.0
    d_eps_p: float = 0.0

    @property
    def final_state(self) -> StateVector:
        return self.states[-1]

    @property
    def spectra(self) -> list[Spectrum]:
        """One spectrum per snapshot state: A = |b_k|^2 per region."""
        return [self.spectrum(i) for i in range(len(self.states))]

    def spectrum(self, i: int) -> Spectrum:
        """The spectrum of snapshot ``i``."""
        psi = self.states[i]
        return Spectrum(time=psi.time_stamp,
                        energies_s=self.energies_s, A_s=abs(psi.b_s) ** 2,
                        energies_p=self.energies_p, A_p=abs(psi.b_p) ** 2,
                        d_eps_s=self.d_eps_s, d_eps_p=self.d_eps_p)

    @property
    def P_bound(self) -> np.ndarray:
        return self.P1 + self.P2

    n_v1 = P_bound
    n_v2 = property(lambda self: self.P1)
    n_v3 = property(lambda self: self.P2)

    @property
    def T(self) -> float:
        return float(self.times[-1])

    def norm_error(self) -> float:
        """Largest deviation of P_bound + n_c from 1 over the trace."""
        return float(np.max(np.abs(self.P_bound + self.n_c - 1.0)))


def orbital_populations(psi: StateVector):
    """Orbital occupations from the two-particle amplitudes.

    With |1> = |v1 v2>, |2> = |v1 v3> and |k> = |eps_k c>:
    n_v1 = |a1|^2 + |a2|^2, n_v2 = |a1|^2, n_v3 = |a2|^2,
    n_c = sum_k |b_k|^2 and n_{eps_k} = |b_k|^2.
    """
    p1 = abs(psi.a1) ** 2
    p2 = abs(psi.a2) ** 2
    n_modes = np.abs(psi.b) ** 2
    return float(np.sum(n_modes)), p1 + p2, p1, p2, n_modes


@dataclass(frozen=True)
class LifetimeFit:
    """Effective lifetime estimates from one decay trace.

    ``tau_eff`` is the log-linear envelope estimate (primary), with the
    1/e crossing reported alongside; a fit with r^2 below 0.98 is flagged
    rather than rejected, since short-time and recurrence effects make
    genuinely non-exponential traces possible.
    """

    tau_eff: float
    tau_one_over_e: float
    fit_window: tuple[float, float]
    r_squared: float
    method: str = "log_linear_envelope"
    accepted: bool = True


def fit_lifetime(trace: ObservableTrace) -> LifetimeFit:
    """Extract the effective lifetime of the bound population.

    A least-squares line through ln P_bound(t) on [0.2 T, 0.9 T] gives
    tau_eff = -1/slope.  For pulsed drives only cycle-boundary samples
    enter (the envelope, immune to the intra-cycle population swing); the
    initial quadratic transient and the recurrence-prone tail stay
    outside the window.  The trace should span at least two expected
    lifetimes for the window to contain real decay.
    """
    T = trace.T
    lo, hi = FIT_WINDOW[0] * T, FIT_WINDOW[1] * T
    in_window = in_fit_window(trace.times)
    sel = in_window & trace.cycle_flags  # only pulsed schedules flag samples
    if np.count_nonzero(sel) < 3:
        sel = in_window
    t = trace.times[sel]
    y = np.log(np.maximum(trace.P_bound[sel], 1e-300))

    if np.ptp(y) < 1e-14:
        tau = math.inf
        r_squared = 1.0
    else:
        slope, intercept = np.polyfit(t, y, 1)
        residuals = y - (slope * t + intercept)
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        r_squared = 1.0 - float(np.sum(residuals**2)) / ss_tot
        tau = -1.0 / slope if slope < 0 else math.inf

    return LifetimeFit(
        tau_eff=tau,
        tau_one_over_e=_one_over_e_time(trace),
        fit_window=(lo, hi),
        r_squared=r_squared,
        accepted=r_squared >= R_SQUARED_ACCEPT,
    )


def in_fit_window(times: np.ndarray) -> np.ndarray:
    """Mask of the samples on [0.2 T, 0.9 T], T the last sample time."""
    lo, hi = FIT_WINDOW[0] * times[-1], FIT_WINDOW[1] * times[-1]
    return (times >= lo) & (times <= hi)


def _one_over_e_time(trace: ObservableTrace) -> float:
    """First crossing of P_bound below 1/e, linearly interpolated."""
    target = 1.0 / math.e
    below = np.nonzero(trace.P_bound < target)[0]
    if len(below) == 0:
        return math.inf
    i = int(below[0])
    if i == 0:
        return float(trace.times[0])
    t0, t1 = trace.times[i - 1], trace.times[i]
    p0, p1 = trace.P_bound[i - 1], trace.P_bound[i]
    return float(t0 + (p0 - target) / (p0 - p1) * (t1 - t0))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Continuum occupations at one instant, per region.

    ``density`` is A_k / d_eps, the occupation per unit energy; its
    long-time field-free limit is a Lorentzian of width 1/tau centered at
    the emission energy.
    """

    time: float
    energies_s: np.ndarray
    A_s: np.ndarray
    energies_p: np.ndarray
    A_p: np.ndarray
    d_eps_s: float
    d_eps_p: float

    @property
    def density_s(self) -> np.ndarray:
        return _density(self.energies_s, self.A_s, self.d_eps_s)

    @property
    def density_p(self) -> np.ndarray:
        return _density(self.energies_p, self.A_p, self.d_eps_p)

    def region(self, name: str):
        if name == "S":
            return self.energies_s, self.A_s, self.d_eps_s
        if name == "P":
            return self.energies_p, self.A_p, self.d_eps_p
        raise ValueError(f"unknown region {name!r}")


def _density(energies: np.ndarray, a: np.ndarray, d_eps: float) -> np.ndarray:
    """A / d_eps, refused for modes without an energy axis."""
    if len(energies) != len(a):
        raise ValueError("the spectrum has no energy axis for its modes; "
                         "pass grids=(grid_s, grid_p) to propagate")
    return a / d_eps


def lineshape(trace: ObservableTrace, t: float) -> Spectrum:
    """The spectral snapshot recorded nearest to time t, within 1e-6 T."""
    available = [psi.time_stamp for psi in trace.states]
    if available:
        i = int(np.argmin(np.abs(np.subtract(available, t))))
        if abs(available[i] - t) < 1e-6 * max(trace.T, 1.0):
            return trace.spectrum(i)
    raise ValueError(f"no spectral snapshot at t = {t}; recorded at {available}")


@dataclass(frozen=True)
class Peak:
    region: str
    position: float
    height: float
    width: float


def find_peaks(spectrum: Spectrum, noise_floor: float = PEAK_NOISE_FLOOR) -> list[Peak]:
    """Local maxima of the density-normalized spectrum.

    Candidates must exceed ``noise_floor`` times the global maximum in
    both height and prominence (the latter suppresses the finite-time
    ringing that rides on the tails of a still-forming line).  Positions
    are refined by quadratic interpolation through the three points
    around each maximum; widths are half-maximum crossing estimates.
    """
    global_max = max(
        float(np.max(spectrum.density_s)) if len(spectrum.A_s) else 0.0,
        float(np.max(spectrum.density_p)) if len(spectrum.A_p) else 0.0,
    )
    if global_max <= 0.0:
        return []
    threshold = noise_floor * global_max
    peaks: list[Peak] = []
    for region in ("S", "P"):
        energies, a, d_eps = spectrum.region(region)
        if len(a) < 3:
            continue
        y = a / d_eps
        for i in _local_maxima(y, threshold):
            pos = energies[i] + _parabolic_offset(y, i) * d_eps
            peaks.append(Peak(region=region, position=float(pos),
                              height=float(y[i]),
                              width=_half_max_width(energies, y, i)))
    peaks.sort(key=lambda p: p.position)
    return peaks


def _local_maxima(y: np.ndarray, threshold: float) -> list[int]:
    idx = np.nonzero((y[1:-1] > y[:-2]) & (y[1:-1] >= y[2:])
                     & (y[1:-1] >= threshold))[0] + 1
    return [int(i) for i in idx if _prominence(y, int(i)) >= threshold]


def _prominence(y: np.ndarray, i: int) -> float:
    """Height of y[i] above the higher of the two bracketing valleys."""
    left = y[:i + 1]
    right = y[i:]
    higher_left = np.nonzero(left > y[i])[0]
    higher_right = np.nonzero(right > y[i])[0]
    left_min = np.min(left[higher_left[-1]:]) if len(higher_left) else np.min(left)
    right_min = np.min(right[:higher_right[0] + 1]) if len(higher_right) else np.min(right)
    return float(y[i] - max(left_min, right_min))


def _parabolic_offset(y: np.ndarray, i: int) -> float:
    """Sub-bin offset of the vertex of a parabola through i-1, i, i+1."""
    denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
    if denom == 0.0:
        return 0.0
    return float(np.clip(0.5 * (y[i - 1] - y[i + 1]) / denom, -0.5, 0.5))


def _half_max_width(energies: np.ndarray, y: np.ndarray, i: int) -> float:
    half = 0.5 * y[i]
    left = i
    while left > 0 and y[left] > half:
        left -= 1
    right = i
    while right < len(y) - 1 and y[right] > half:
        right += 1
    if y[left] > half or y[right] > half:  # ran into the window edge
        return float("nan")
    e_left = np.interp(half, [y[left], y[left + 1]], [energies[left], energies[left + 1]])
    e_right = np.interp(half, [y[right], y[right - 1]], [energies[right], energies[right - 1]])
    return float(e_right - e_left)


def stark_splittings(peaks: list[Peak]) -> dict[str, list[float]]:
    """Pairwise peak separations within each region (drive diagnostics)."""
    out: dict[str, list[float]] = {}
    for region in ("S", "P"):
        positions = sorted(p.position for p in peaks if p.region == region)
        out[region] = [positions[j] - positions[i]
                       for i in range(len(positions))
                       for j in range(i + 1, len(positions))]
    return out

