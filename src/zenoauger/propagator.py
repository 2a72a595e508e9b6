"""Short-time Krylov propagation of the driven decay dynamics.

Each step applies exp(-i H(t + dt/2) dt) in a Lanczos subspace built from
the current state, with full reorthogonalization and adaptive halving of
the step until the subspace residual is below tolerance.  Steps are laid
out so that no step straddles a pulse-window edge, where the coupling is
discontinuous.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .drive import PulseSchedule, build_schedule, coupling_at, envelope_at
from .model import Hamiltonian, StateVector, rotating_frame
from .observables import ObservableTrace, orbital_populations

# Conservative caps on the step inside a full-field or ramped drive
# window: resolve both the pulse area and the carrier oscillation.  The
# midpoint scheme carries a secular phase error that beats against a
# resonant carrier, so the carrier must be resolved well beyond the formal
# stability bound for lifetime fits over hundreds of cycles to be
# step-size converged.  A rotating-frame square window has no carrier and
# a constant coupling, so H is constant there and needs neither cap.
PULSE_STEP_FRACTION = 50.0
CARRIER_STEP_FRACTION = 40.0
MAX_HALVINGS = 40
_BREAKDOWN = 1e-14


class ConvergenceError(RuntimeError):
    """Krylov residual failed to reach tolerance after maximal subdivision."""


def initial_state(ham: Hamiltonian) -> StateVector:
    """The decay always starts from the bound state |1>."""
    data = np.zeros(ham.dimension, dtype=complex)
    data[0] = 1.0
    return StateVector(data=data, n_s=ham.n_s, time_stamp=0.0)


@dataclass
class PropagationConfig:
    """Solver settings; times in a.u.

    ``dt_max`` caps the step inside drive windows on top of the built-in
    pulse/carrier bounds, which apply to full-field and ramped windows
    only (a rotating-frame square window is otherwise stepped once per
    sample interval); ``sample_dt`` is the observable output stride,
    T_total / 400 unless given (cycle boundaries and window edges are
    always sampled as well).  Snapshot times lie in [0, T_total].
    """

    T_total: float
    dt_max: float | None = None
    sample_dt: float | None = None
    krylov_dim: int = 16
    residual_tol: float = 1e-10
    snapshot_times: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not 0 < self.T_total < math.inf:
            raise ValueError(f"T_total must be positive and finite, got {self.T_total}")
        if self.krylov_dim < 4:
            raise ValueError(f"krylov_dim must be at least 4, got {self.krylov_dim}")
        if not 0 < self.residual_tol < math.inf:
            raise ValueError(f"residual_tol must be in (0, inf), got {self.residual_tol}")
        for key, value in (("propagation.dt_max", self.dt_max),
                           ("propagation.sample_stride", self.sample_dt)):
            if value is not None and not value > 0:
                raise ValueError(f"{key} must be positive, got {value} au")
        if self.sample_dt is None:
            self.sample_dt = self.T_total / 400.0
        for s in self.snapshot_times:
            if not 0.0 <= s <= self.T_total:
                raise ValueError(
                    f"propagation.spectrum_snapshot_times must lie in "
                    f"[0, T_total = {self.T_total}] au, got {s} au")


def drive_step_bound(schedule: PulseSchedule) -> float:
    """Largest step allowed while the drive is on.

    Unbounded where H is constant inside every window: without a drive,
    and in the rotating frame with a square envelope (or no ramp), where
    the midpoint exponential is exact for any step length.
    """
    if not schedule.drive_active:
        return math.inf
    if schedule.is_rwa and (schedule.envelope == "square"
                            or schedule.ramp == 0.0):
        return math.inf
    bound = schedule.t_pi / PULSE_STEP_FRACTION
    if schedule.omega > 0:
        bound = min(bound, (2.0 * math.pi / schedule.omega) / CARRIER_STEP_FRACTION)
    return bound


def _lanczos_expv(ham: Hamiltonian, g: complex, v: np.ndarray, dt: float,
                  m_max: int, tol: float) -> tuple[np.ndarray, float, int]:
    """exp(-i H dt) v in a Krylov space of dimension at most m_max.

    Returns (result, residual estimate, dimension used).  A cheap running
    product of the recurrence coefficients decides when the subspace is
    plausibly converged; the tridiagonal exponential and its a posteriori
    residual are only evaluated then, and the residual has the final say.
    """
    dim = len(v)
    m_cap = min(m_max, dim)
    basis = np.empty((m_cap + 1, dim), dtype=complex)
    basis[0] = v
    alphas = np.empty(m_cap + 1)
    betas = np.empty(m_cap + 1)

    w = ham.apply(basis[0], g)
    alphas[0] = np.vdot(basis[0], w).real
    w -= alphas[0] * basis[0]

    abs_dt = abs(dt)
    series = 1.0  # running prod(beta_i |dt| / i), tracks the truncation error
    for j in range(1, m_cap + 1):
        beta = float(np.linalg.norm(w))
        series *= beta * abs_dt / j
        if series < 0.125 * tol or beta < _BREAKDOWN or j == m_cap:
            u, err = _subspace_exp(alphas[:j], betas[1:j], dt, beta)
            if err < tol or beta < _BREAKDOWN or j == m_cap:
                return basis[:j].T @ u, err, j
        betas[j] = beta
        np.divide(w, beta, out=basis[j])
        w = ham.apply(basis[j], g)
        alphas[j] = np.vdot(basis[j], w).real
        w -= alphas[j] * basis[j]
        w -= beta * basis[j - 1]
    raise AssertionError("unreachable: loop always returns at j == m_cap")


def _subspace_exp(alphas: np.ndarray, betas: np.ndarray, dt: float,
                  beta_next: float) -> tuple[np.ndarray, float]:
    """First column of exp(-i dt T) for tridiagonal T, plus residual estimate."""
    m = len(alphas)
    if m == 1:
        u = np.array([np.exp(-1j * dt * alphas[0])])
    else:
        tri = np.zeros((m, m))
        idx = np.arange(m)
        tri[idx, idx] = alphas
        tri[idx[:-1], idx[:-1] + 1] = betas
        tri[idx[:-1] + 1, idx[:-1]] = betas
        lam, q = np.linalg.eigh(tri)
        u = q @ (np.exp(-1j * dt * lam) * q[0])
    err = abs(dt) * beta_next * abs(u[-1])
    return u, err


def _step_array(vec: np.ndarray, t: float, dt: float, ham: Hamiltonian,
                schedule: PulseSchedule, krylov_dim: int, residual_tol: float,
                depth: int = 0) -> np.ndarray:
    g = coupling_at(schedule, t + 0.5 * dt)
    out, err, _ = _lanczos_expv(ham, g, vec, dt, krylov_dim, residual_tol)
    if err < residual_tol:
        return out
    if depth >= MAX_HALVINGS:
        raise ConvergenceError(
            f"Krylov residual {err:.3e} above tolerance {residual_tol:.3e} "
            f"at t = {t:.6g} after {depth} step halvings"
        )
    half = 0.5 * dt
    mid = _step_array(vec, t, half, ham, schedule, krylov_dim, residual_tol,
                      depth + 1)
    return _step_array(mid, t + half, half, ham, schedule, krylov_dim,
                       residual_tol, depth + 1)


def step(psi: StateVector, t: float, dt: float, ham: Hamiltonian,
         schedule: PulseSchedule, krylov_dim: int = 16,
         residual_tol: float = 1e-10) -> StateVector:
    """Advance the state by dt using the midpoint coupling.

    The interval [t, t + dt) must not straddle a pulse-window edge;
    :func:`propagate` arranges its steps accordingly.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    data = _step_array(psi.data, t, dt, ham, schedule, krylov_dim,
                       residual_tol)
    return StateVector(data=data, n_s=psi.n_s, time_stamp=t + dt)


def evolve_interval(vec: np.ndarray, t0: float, t1: float, ham: Hamiltonian,
                    schedule: PulseSchedule, dt_max: float,
                    krylov_dim: int = 16,
                    residual_tol: float = 1e-10) -> np.ndarray:
    """March [t0, t1) in uniform substeps no longer than dt_max."""
    span = t1 - t0
    if span <= 0:
        return vec
    n_sub = max(1, math.ceil(span / dt_max - 1e-12))
    dt = span / n_sub
    for i in range(n_sub):
        vec = _step_array(vec, t0 + i * dt, dt, ham, schedule,
                          krylov_dim, residual_tol)
    return vec


def sample_times(schedule: PulseSchedule, config: PropagationConfig) -> np.ndarray:
    """Output grid: stride samples, window edges, cycle boundaries, snapshots."""
    T = config.T_total
    merged = np.unique(np.concatenate((
        np.arange(0.0, T, config.sample_dt), [T], schedule.windows.ravel(),
        schedule.cycle_boundaries, config.snapshot_times)))
    # collapse pairs closer than the time resolution of interest
    keep = np.ones(len(merged), dtype=bool)
    keep[1:] = np.diff(merged) > 1e-9 * max(T, 1.0)
    return merged[keep]


def _near(times: np.ndarray, points, tol: float) -> np.ndarray:
    """Mask of the times strictly closer than tol to one of the points."""
    near = np.zeros(len(times), dtype=bool)
    for s in points:
        near |= np.abs(times - s) < tol
    return near


def propagate(psi0: StateVector, ham: Hamiltonian, schedule: PulseSchedule,
              config: PropagationConfig, grids=None) -> ObservableTrace:
    """Propagate and record populations and snapshot states.

    Every pulse edge is a step boundary; observables are recorded at the
    configured stride and additionally at every cycle boundary.  The
    complex state, from which spectra and entanglement measures follow,
    is kept at the configured snapshot times and at the final sample.
    Passing the pair of continuum grids attaches their energy axes to the
    trace so spectra can be plotted against emission energy regardless
    of the propagation frame.
    """
    times = sample_times(schedule, config)
    n_samples = len(times)
    drive_bound = drive_step_bound(schedule)
    if config.dt_max is not None:
        drive_bound = min(drive_bound, config.dt_max)

    tol = 1e-9 * max(config.T_total, 1.0)
    cycle_flags = _near(times, schedule.cycle_boundaries, tol)
    snapshot = _near(times, config.snapshot_times, tol)
    snapshot[-1] = True

    n_c = np.empty(n_samples)
    p1 = np.empty(n_samples)
    p2 = np.empty(n_samples)
    states: list[StateVector] = []

    vec = psi0.data.copy()
    n_s = psi0.n_s
    for i, t in enumerate(times):
        if i:
            t0 = times[i - 1]
            inside = envelope_at(schedule, 0.5 * (t0 + t)) > 0.0
            dt_cap = drive_bound if inside else (t - t0)
            vec = evolve_interval(vec, t0, t, ham, schedule, dt_cap,
                                  config.krylov_dim, config.residual_tol)
        n_c[i], _, p1[i], p2[i], _ = orbital_populations(
            StateVector(vec, n_s, t))
        if snapshot[i]:
            states.append(StateVector(vec.copy(), n_s, t))

    axes = {}
    if grids is not None:
        grid_s, grid_p = grids
        axes = dict(energies_s=grid_s.energies, d_eps_s=grid_s.d_eps,
                    energies_p=grid_p.energies, d_eps_p=grid_p.d_eps)
    return ObservableTrace(times=times, n_c=n_c, P1=p1, P2=p2,
                           cycle_flags=cycle_flags, states=states, **axes)


def pi_pulse_transfer_check(
    Omega: float,
    omega: float,
    delta: float,
    mode: str = "rwa_pulsed",
    residual_tol: float = 1e-13,
) -> float:
    """Propagate |1> through one pulse with decay disabled; return P2.

    A two-level system with splitting omega - delta is driven for exactly
    t_pi, stepped as :func:`propagate` steps every run.  The exact
    two-level result is
    P2 = Omega^2/(Omega^2 + delta^2) * sin^2(sqrt(Omega^2 + delta^2) t_pi / 2);
    note that the often-quoted Omega^2/(Omega^2 + delta^2) alone drops the
    sine factor and only agrees at delta = 0.  On resonance the
    rotating-wave result is 1 up to solver tolerance, while the full field
    picks up counter-rotating corrections of order Omega/omega.
    """
    if not Omega > 0:
        raise ValueError(f"Omega must be positive, got {Omega}")
    splitting = omega - delta
    ham = Hamiltonian(diag=np.array([0.0, splitting]),
                      m_s=np.zeros(0), m_p=np.zeros(0))
    schedule = build_schedule(Omega, omega, delta, t_m=0.0, dt_delay=0.0,
                              mode=mode, T_total=math.pi / Omega)
    if schedule.is_rwa:
        ham = rotating_frame(ham, omega)
    config = PropagationConfig(T_total=schedule.t_pi, krylov_dim=8,
                               residual_tol=residual_tol)
    return float(propagate(initial_state(ham), ham, schedule, config).P2[-1])
