"""Short-time Krylov propagation of the driven decay dynamics.

Every exponential exp(-i H dt) v is taken in a Lanczos subspace built from
the current state by the plain three-term recurrence (no
reorthogonalization).  Where the coupling is constant over a step (field-
free stretches, rotating-frame square windows) a step is the single
midpoint exponential exp(-i H(t + dt/2) dt), exact for any dt.  Where it
varies (full-field windows, ramped rotating-frame windows) a step is the
commutator-free fourth-order CF4:2 scheme: two exponentials of length
dt/2 with couplings combined from the two Gauss nodes (Blanes & Moan,
Appl. Numer. Math. 56, 1519 (2006); Alvermann & Fehske, J. Comput. Phys.
230, 5930 (2011)).  H is linear in the coupling, so each half is the
exponential of H at an effective coupling.  The a posteriori residual of
the subspace exponentials has the final say: a step whose residual stays
above tolerance is halved until it falls below.  Steps are laid out so
that no step straddles a pulse-window edge, where the coupling is
discontinuous.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .drive import PulseSchedule, build_schedule, coupling_at, envelope_at
from .model import Hamiltonian, StateVector, rotating_frame
from .observables import ObservableTrace, orbital_populations

# Default CF4 step where the coupling varies, unless propagation.dt_max is
# given: resolve the carrier oscillation and, for strong drives, the Rabi
# rotation; tools/step_study.py prints tau_eff against both.  At 1/10 of the
# carrier period every preset's tau_eff lies closer to its step limit
# than the midpoint rule's did at 1/40 (1/80 for the fig3 presets).  The
# closest call is the 450 fs fig3_circles point at 3 eV^2, 1e-3
# (relative) off its limit, against 6e-3 for the midpoint rule at 1/80.
# The pulse bound binds only where Omega > 0.4 omega (no preset); there
# t_pi/12.5 leaves at most 1.4e-5 (fig4 at Omega = 6 eV), against 4e-4
# for the midpoint rule at t_pi/50.
PULSE_STEP_FRACTION = 12.5
CARRIER_STEP_FRACTION = 10.0
MAX_HALVINGS = 40
_BREAKDOWN = 1e-14
# CF4:2 Gauss nodes c1, c2 (fractions of the step) and weights a1, a2
_ROOT3_6 = math.sqrt(3.0) / 6.0
_C1, _C2 = 0.5 - _ROOT3_6, 0.5 + _ROOT3_6
_A1, _A2 = 0.25 - _ROOT3_6, 0.25 + _ROOT3_6


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

    ``dt_max`` is the CF4 step where the coupling varies inside a drive
    window (full-field and ramped windows), :func:`drive_step_bound`
    (carrier/10 or t_pi/12.5) unless given.  It does not apply where the
    coupling is constant (field-free stretches, square rotating-frame
    windows): one exponential spans each sample interval there.
    ``sample_dt`` is the observable output stride, T_total / 400 unless
    given (cycle boundaries and window edges are always sampled as well).
    Snapshot times lie in [0, T_total].
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
    """Default CF4 step inside windows where the coupling varies.

    Unbounded where it does not (``schedule.coupling_varies`` is false):
    there H is constant and one exponential is exact for any step.
    """
    if not schedule.coupling_varies:
        return math.inf
    bound = schedule.t_pi / PULSE_STEP_FRACTION
    omega = abs(schedule.omega)  # the carrier period is 2 pi / |omega|
    if omega > 0:
        bound = min(bound, (2.0 * math.pi / omega) / CARRIER_STEP_FRACTION)
    return bound


def _lanczos_expv(ham: Hamiltonian, g: complex, v: np.ndarray, dt: float,
                  m_max: int, tol: float) -> tuple[np.ndarray, float, int]:
    """exp(-i H dt) v in a Krylov space of dimension at most m_max.

    Returns (result, residual estimate, dimension used).  A cheap running
    product of the recurrence coefficients decides when the subspace is
    plausibly converged; the tridiagonal exponential and its a posteriori
    residual are only evaluated then, and the residual has the final say.
    The real scalings act on float64 views of the complex vectors and give
    the bits of the complex arithmetic without its temporaries: the two
    differ only in the sign of a zero, and w holds no -0 (the matvec sums
    from +0, and +0 - 0 and x - x are +0), so numpy's w / (beta + 0j),
    Smith's algorithm at ratio 0, is (re * (1/beta), im * (1/beta)), and
    subtracting the real a v leaves the same w as the complex one.
    """
    dim = len(v)
    m_cap = min(m_max, dim)
    basis = np.empty((m_cap + 1, dim), dtype=complex)
    basis[0] = v
    flat = basis.view(float)  # real and imaginary parts interleaved
    scratch = np.empty(2 * dim)
    alphas = np.empty(m_cap + 1)
    betas = np.empty(m_cap + 1)

    w = ham.apply(basis[0], g)
    alphas[0] = np.vdot(basis[0], w).real
    wf = w.view(float)
    wf -= np.multiply(flat[0], alphas[0], out=scratch)

    abs_dt = abs(dt)
    series = 1.0  # running prod(beta_i |dt| / i), tracks the truncation error
    for j in range(1, m_cap + 1):
        re, im = w.real, w.imag  # np.linalg.norm(w), term for term
        beta = math.sqrt(re.dot(re) + im.dot(im))
        series *= beta * abs_dt / j
        if series < 0.125 * tol or beta < _BREAKDOWN or j == m_cap:
            u, err = _subspace_exp(alphas[:j], betas[1:j], dt, beta)
            if err < tol or beta < _BREAKDOWN or j == m_cap:
                return basis[:j].T @ u, err, j
        betas[j] = beta
        np.multiply(wf, 1.0 / beta, out=flat[j])
        w = ham.apply(basis[j], g)
        alphas[j] = np.vdot(basis[j], w).real
        wf = w.view(float)
        wf -= np.multiply(flat[j], alphas[j], out=scratch)
        wf -= np.multiply(flat[j - 1], beta, out=scratch)
    raise AssertionError("unreachable: loop always returns at j == m_cap")


def _subspace_exp(alphas: np.ndarray, betas: np.ndarray, dt: float,
                  beta_next: float) -> tuple[np.ndarray, float]:
    """First column of exp(-i dt T) for tridiagonal T, plus residual estimate."""
    m = len(alphas)
    tri = np.zeros((m, m))
    entries = tri.reshape(-1)  # a view: every (m + 1)-th entry is diagonal
    entries[::m + 1] = alphas
    entries[1::m + 1] = betas
    entries[m::m + 1] = betas
    lam, q = np.linalg.eigh(tri)
    u = q @ (np.exp(-1j * dt * lam) * q[0])
    err = abs(dt) * beta_next * abs(u[-1])
    return u, err


def _midpoint(vec: np.ndarray, t: float, dt: float, ham: Hamiltonian,
              schedule: PulseSchedule, krylov_dim: int, residual_tol: float
              ) -> tuple[np.ndarray, float]:
    """exp(-i H(t + dt/2) dt) vec, exact where the coupling is constant."""
    g = coupling_at(schedule, t + 0.5 * dt)
    out, err, _ = _lanczos_expv(ham, g, vec, dt, krylov_dim, residual_tol)
    return out, err


def _cf4(vec: np.ndarray, t: float, dt: float, ham: Hamiltonian,
         schedule: PulseSchedule, krylov_dim: int, residual_tol: float
         ) -> tuple[np.ndarray, float]:
    """One CF4:2 step: exp(-i dt/2 H(g_b)) exp(-i dt/2 H(g_a)) vec.

    With g_i = g(t + c_i dt) at the Gauss nodes, g_a = 2 (a2 g1 + a1 g2)
    and g_b = 2 (a1 g1 + a2 g2).  The error bound is the sum of the two
    residuals; each exponential gets half the budget, so the step fails
    only where one of them cannot meet its half.
    """
    g1 = coupling_at(schedule, t + _C1 * dt)
    g2 = coupling_at(schedule, t + _C2 * dt)
    half = 0.5 * dt
    tol = 0.5 * residual_tol
    mid, err_a, _ = _lanczos_expv(ham, 2.0 * (_A2 * g1 + _A1 * g2), vec,
                                  half, krylov_dim, tol)
    out, err_b, _ = _lanczos_expv(ham, 2.0 * (_A1 * g1 + _A2 * g2), mid,
                                  half, krylov_dim, tol)
    return out, err_a + err_b


def _step_array(vec: np.ndarray, t: float, dt: float, ham: Hamiltonian,
                schedule: PulseSchedule, krylov_dim: int, residual_tol: float,
                scheme=_midpoint, depth: int = 0) -> np.ndarray:
    out, err = scheme(vec, t, dt, ham, schedule, krylov_dim, residual_tol)
    if err < residual_tol:
        return out
    if depth >= MAX_HALVINGS:
        raise ConvergenceError(
            f"Krylov residual {err:.3e} above tolerance {residual_tol:.3e} "
            f"at t = {t:.6g} after {depth} step halvings"
        )
    half = 0.5 * dt
    mid = _step_array(vec, t, half, ham, schedule, krylov_dim, residual_tol,
                      scheme, depth + 1)
    return _step_array(mid, t + half, half, ham, schedule, krylov_dim,
                       residual_tol, scheme, depth + 1)


def step(psi: StateVector, t: float, dt: float, ham: Hamiltonian,
         schedule: PulseSchedule,
         krylov_dim: int = PropagationConfig.krylov_dim,
         residual_tol: float = PropagationConfig.residual_tol) -> StateVector:
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
                    krylov_dim: int = PropagationConfig.krylov_dim,
                    residual_tol: float = PropagationConfig.residual_tol,
                    scheme=_midpoint) -> np.ndarray:
    """March [t0, t1) in uniform substeps no longer than dt_max.

    Each substep is one ``scheme`` step: ``_cf4`` where the coupling
    varies over the interval, ``_midpoint`` where it is constant.
    """
    span = t1 - t0
    if span <= 0:
        return vec
    n_sub = max(1, math.ceil(span / dt_max - 1e-12))
    dt = span / n_sub
    for i in range(n_sub):
        vec = _step_array(vec, t0 + i * dt, dt, ham, schedule,
                          krylov_dim, residual_tol, scheme)
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

    Inside windows where the coupling varies, CF4 steps of at most dt_max
    (default :func:`drive_step_bound`); elsewhere one exponential per sample.
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
    varies = schedule.coupling_varies
    window_dt = config.dt_max or drive_step_bound(schedule)
    solver = (config.krylov_dim, config.residual_tol)

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
            if varies and envelope_at(schedule, 0.5 * (t0 + t)) > 0.0:
                vec = evolve_interval(vec, t0, t, ham, schedule, window_dt,
                                      *solver, _cf4)
            else:  # H is constant over the interval
                vec = evolve_interval(vec, t0, t, ham, schedule, t - t0,
                                      *solver)
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
    config = PropagationConfig(T_total=schedule.t_pi, residual_tol=residual_tol)
    return float(propagate(initial_state(ham), ham, schedule, config).P2[-1])
