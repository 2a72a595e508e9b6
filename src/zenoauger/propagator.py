"""Propagation of the driven decay dynamics.

Runs without a drive window, and runs whose coupling varies inside a
window (full-field windows, ramped rotating-frame windows), are
propagated in the eigencoordinates of the two arrowhead blocks of the
drive-free Hamiltonian H0, {|1>, S} and {|2>, P}
(:meth:`Hamiltonian.eigensystems`).  There the H0 flow over any time is
one exact phase multiply, and the drive g(t) (|2><1| + h.c.), frozen at
one instant, is an exact rotation of the two bound amplitudes, read from
and written back to the eigencoordinates through the |1> and |2> rows of
the block eigenvectors.  A field-free stretch is one phase multiply.  A
drive window takes steps of Blanes & Moan's fourth-order six-stage
composition S6 (J. Comput. Appl. Math. 142, 313 (2002)): seven phase
flows and six rotations per step, time advancing inside the phase flows,
the last flow of one step merged with the first of the next.  No product
with H is taken, so no Krylov space, residual or halving is involved.
The sample intervals are laid out before the first step, each with its
step count, its step and the next interval that needs the same flow
lengths, and every phase vector, S6 or field-free, comes from one memo
of at most ten that keeps those needed soonest (:class:`_Flows`).
The populations of a sample are read from the eigencoordinates: the
bound amplitudes through the same two rows, and n_c as the norm less
the bound populations.  Site amplitudes are computed
(:meth:`ArrowheadEigensystem.sites`) only at snapshots and at the final
sample, and the populations there are read from them.

Runs whose windows hold a constant nonzero coupling (rotating-frame
square windows) take Lanczos exponentials exp(-i H s) v, exact for any
span over which H is constant, each space built from the state at one
sample by the plain three-term recurrence (no reorthogonalization) to
``krylov_dim`` vectors, fewer only at breakdown, and its tridiagonal
matrix diagonalised once.  H is constant over each stretch of sample
intervals that lie all inside or all outside the windows, and one space
is read out at every following sample of the stretch whose a posteriori
residual passes; a space that reaches no sample serves the longest
dyadic fraction of its first interval that passes.

Steps are laid out so that no step straddles a sample or a pulse-window
edge, where the coupling is discontinuous.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .drive import PulseSchedule, build_schedule, coupling_at, envelope_at
from .model import Hamiltonian, StateVector, rotating_frame
from .observables import ObservableTrace, orbital_populations

# Default S6 step where the coupling varies, unless propagation.dt_max is
# given: the shortest of carrier/10, ramp/2 and t_pi/12.5, which resolve
# the carrier oscillation, the cosine ramps and the Rabi rotation of
# strong drives; tools/step_study.py prints tau_eff against each.  The
# pulse bound binds only where Omega > 0.4 omega (no preset), the ramp
# bound only for ramps shorter than two carrier/10 steps.  The default
# leaves every run of the study within 5e-6 (relative) of its step limit;
# the closest call is the 450 fs fig3_circles point at 3 eV^2.
PULSE_STEP_FRACTION = 12.5
CARRIER_STEP_FRACTION = 10.0
RAMP_STEP_FRACTION = 2.0
MAX_HALVINGS = 40
# Most samples (T_total / sample_dt) or S6 steps (T_total / dt_max) that a
# run may imply.  The longest preset run, fig3_* over 450 fs, implies 450
# samples and about 1.1e4 S6 steps at its default step.
MAX_COUNT = 1e7
# Largest Lanczos space, eight times the default: a space stores its whole
# basis, krylov_dim vectors of the model's dimension.
MAX_KRYLOV_DIM = 256
_BREAKDOWN = 1e-14
# S6 flow lengths a_i and rotation lengths b_i as fractions of the step:
# A(a1) B(b1) A(a2) B(b2) A(a3) B(b3) A(a4) B(b3) A(a3) B(b2) A(a2) B(b1) A(a1)
_A1, _A2, _A3 = 0.0792036964311957, 0.353172906049774, -0.0420650803577195
_A4 = 1.0 - 2.0 * (_A1 + _A2 + _A3)
_B1, _B2 = 0.209515106613362, -0.143851773179818
_B3 = 0.5 - (_B1 + _B2)
_S6_WEIGHTS = (_B1, _B2, _B3, _B3, _B2, _B1)
_S6_NODES = (_A1, _A1 + _A2, _A1 + _A2 + _A3, 1.0 - (_A1 + _A2 + _A3),
             1.0 - (_A1 + _A2), 1.0 - _A1)  # rotation times in the step
# Phase vectors kept by exact flow length.  A window's sample intervals
# differ in their last bits, so its steps alternate between a few lengths
# of five flows each.  Kept by next use, ten vectors compute li's 197
# distinct lengths 203 times; the ten most recent computed 355 (five,
# 1271), and the thirty most recent, which reach the distinct count,
# raised li's traced peak from 0.87 to 1.36 MiB.
_PHASE_MEMO = 10


@functools.cache
def openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS
    (``libscipy_openblas64_``, in ``numpy.libs`` or ``numpy/.dylibs``), or
    None where numpy carries no such library or it exports no setter."""
    package = Path(np.__file__).parent
    name = "libscipy_openblas64_*"
    for path in sorted([*package.parent.glob(f"numpy.libs/{name}"),
                        *package.glob(f".dylibs/{name}")]):
        try:
            lib = ctypes.CDLL(str(path))  # numpy's copy, already loaded
            get = lib.scipy_openblas_get_num_threads64_
            set_threads = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        return get, set_threads
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run numpy's OpenBLAS on one thread, and restore its thread count on
    exit.  The Lanczos read-out (a GEMV) changes its last bits with the
    thread count, so pinned runs give the same bytes at any count; where
    :func:`openblas_threads` finds no setter, this does nothing."""
    pool = openblas_threads()
    before = pool[0]() if pool else 1
    if before == 1:
        yield
        return
    pool[1](1)
    try:
        yield
    finally:
        pool[1](before)


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

    ``dt_max`` is the S6 step where the coupling varies inside a drive
    window (full-field and ramped windows), :func:`drive_step_bound`
    (carrier/10, ramp/2 or t_pi/12.5) unless given.  It does not apply
    where the coupling is constant (field-free stretches, square
    rotating-frame windows): exact flows span the sample intervals
    there.  ``krylov_dim`` and ``residual_tol`` configure the Lanczos
    spaces (:func:`evolve_interval`, each read out at as many samples as
    its residual allows) of runs with square rotating-frame windows;
    every other run takes no Krylov space.  ``krylov_dim`` is the size of
    every space, fewer only where the recurrence breaks down, not a cap:
    each vector costs one product with H, but a space's reach grows
    faster than its size, so the default of 32 takes fewer products per
    sample than 16 on every Krylov preset; a larger space saves few
    products more and pays for them in its tridiagonal solve and
    read-outs.  It may be at most ``MAX_KRYLOV_DIM``: each space holds
    ``krylov_dim`` vectors of the model's dimension.
    ``sample_dt`` is the observable output stride, T_total / 400 unless
    given (cycle boundaries and window edges are always sampled as well).
    A run may imply at most ``MAX_COUNT`` samples (T_total / sample_dt)
    or S6 steps (T_total / dt_max).  Snapshot times lie in [0, T_total].
    """

    T_total: float
    dt_max: float | None = None
    sample_dt: float | None = None
    krylov_dim: int = 32
    residual_tol: float = 1e-10
    snapshot_times: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not 0 < self.T_total < math.inf:
            raise ValueError(f"T_total must be positive and finite, got {self.T_total}")
        if not 4 <= self.krylov_dim <= MAX_KRYLOV_DIM:
            raise ValueError(f"propagation.krylov_dim must lie in "
                             f"[4, {MAX_KRYLOV_DIM}], got {self.krylov_dim}")
        if not 0 < self.residual_tol < math.inf:
            raise ValueError(f"residual_tol must be in (0, inf), got {self.residual_tol}")
        for key, value, counted in (
                ("propagation.dt_max", self.dt_max, "S6 steps"),
                ("propagation.sample_stride", self.sample_dt, "samples")):
            if value is None:
                continue
            if not value > 0:
                raise ValueError(f"{key} must be positive, got {value} au")
            if self.T_total + value == self.T_total:
                raise ValueError(f"{key} = {value} au does not advance the "
                                 f"clock at T_total = {self.T_total} au")
            if self.T_total / value > MAX_COUNT:
                raise ValueError(
                    f"{key} = {value} au implies {self.T_total / value:.3g} "
                    f"{counted} over T_total = {self.T_total} au, above the "
                    f"limit of {MAX_COUNT:.0e}")
        if self.sample_dt is None:
            self.sample_dt = self.T_total / 400.0
        for s in self.snapshot_times:
            if not 0.0 <= s <= self.T_total:
                raise ValueError(
                    f"propagation.spectrum_snapshot_times must lie in "
                    f"[0, T_total = {self.T_total}] au, got {s} au")


def drive_step_bound(schedule: PulseSchedule) -> float:
    """Default S6 step inside windows where the coupling varies."""
    bound = schedule.t_pi / PULSE_STEP_FRACTION
    omega = abs(schedule.omega)  # the carrier period is 2 pi / |omega|
    if omega > 0:
        bound = min(bound, (2.0 * math.pi / omega) / CARRIER_STEP_FRACTION)
    if schedule.ramp > 0:
        bound = min(bound, schedule.ramp / RAMP_STEP_FRACTION)
    return bound


def _lanczos_expv(ham: Hamiltonian, g: complex, v: np.ndarray,
                  times: np.ndarray, m_max: int, tol: float):
    """exp(-i H s) v at each time s of an increasing array of positive
    times, from one Krylov space of dimension min(m_max, len(v)), smaller
    only where the recurrence breaks down.

    The space is built first and its tridiagonal matrix diagonalised
    once; the times are then read out in order while each one's a
    posteriori residual s beta |u_j(s)| passes.  Only m_max sizes the
    space, so the times a space serves, and their bits, never depend on
    the times after them.  Returns (states, residual, halvings): the
    states at the leading times the space serves, or, if it serves none,
    the state at the longest dyadic fraction times[0] / 2**h of the first
    time (h <= ``MAX_HALVINGS``) whose residual passes, and no state if
    none does; the residual is the last one evaluated.
    The real scalings act on float64 views of the complex vectors and give
    the bits of the complex arithmetic without its temporaries: the two
    differ only in the sign of a zero, and w holds no -0 (the matvec sums
    from +0, and +0 - 0 and x - x are +0), so numpy's w / (beta + 0j),
    Smith's algorithm at ratio 0, is (re * (1/beta), im * (1/beta)), and
    subtracting the real a v leaves the same w as the complex one.
    """
    dim = len(v)
    m_cap = min(m_max, dim)
    basis = np.empty((m_cap, dim), dtype=complex)
    basis[0] = v
    flat = basis.view(float)  # real and imaginary parts interleaved
    scratch = np.empty(2 * dim)
    alphas = np.empty(m_cap)
    betas = np.empty(m_cap)

    w = ham.apply(basis[0], g)
    alphas[0] = np.vdot(basis[0], w).real
    wf = w.view(float)
    wf -= np.multiply(flat[0], alphas[0], out=scratch)
    for j in range(1, m_cap + 1):
        re, im = w.real, w.imag  # np.linalg.norm(w), term for term
        beta = math.sqrt(re.dot(re) + im.dot(im))
        if beta < _BREAKDOWN or j == m_cap:
            break
        betas[j] = beta
        np.multiply(wf, 1.0 / beta, out=flat[j])
        w = ham.apply(basis[j], g)
        alphas[j] = np.vdot(basis[j], w).real
        wf = w.view(float)
        wf -= np.multiply(flat[j], alphas[j], out=scratch)
        wf -= np.multiply(flat[j - 1], beta, out=scratch)

    lam, q = _tridiagonal_eigh(alphas[:j], betas[1:j])
    states = []
    for s in times:
        u = q @ (np.exp(-1j * s * lam) * q[0])
        err = abs(s) * beta * abs(u[-1])
        if not err < tol:
            break
        states.append(basis[:j].T @ u)

    if states:
        return states, err, 0
    for halvings in range(1, MAX_HALVINGS + 1):
        s = math.ldexp(times[0], -halvings)
        u = q @ (np.exp(-1j * s * lam) * q[0])
        err = s * beta * abs(u[-1])
        if err < tol:
            return [basis[:j].T @ u], err, halvings
    return [], err, MAX_HALVINGS


def _tridiagonal_eigh(alphas: np.ndarray,
                      betas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the tridiagonal Lanczos matrix."""
    m = len(alphas)
    tri = np.zeros((m, m))
    entries = tri.reshape(-1)  # a view: every (m + 1)-th entry is diagonal
    entries[::m + 1] = alphas
    entries[1::m + 1] = betas
    entries[m::m + 1] = betas
    return np.linalg.eigh(tri)


def evolve_interval(vec: np.ndarray, t0: float, t1, ham: Hamiltonian,
                    schedule: PulseSchedule, *,
                    krylov_dim: int = PropagationConfig.krylov_dim,
                    residual_tol: float = PropagationConfig.residual_tol):
    """exp(-i H (t - t0)) vec at t = t1, or at the leading times t of an
    increasing array t1 that one Lanczos space reaches; exact for any span
    over which H is constant, and [t0, t1) must not straddle a
    pulse-window edge (:func:`propagate` arranges its stretches
    accordingly).  Returns the state at t1, or the list of the states at
    the times reached, from which the caller goes on.

    Each space starts from the state at the last time reached, reads the
    coupling once, at the midpoint of its first interval, and serves every
    leading time it reaches (:func:`_lanczos_expv`).  A space that reaches
    none serves the longest dyadic fraction of its first interval that
    passes, at most ``MAX_HALVINGS`` halvings deep, and the next space
    starts there.
    """
    stops = np.atleast_1d(np.asarray(t1, dtype=float))
    if not (stops[0] > t0 and np.all(np.diff(stops) > 0)):
        raise ValueError(f"t1 must exceed t0, got [{t0}, {t1}]")
    t = t0
    while True:
        ahead = stops - t
        g = coupling_at(schedule, float(t + 0.5 * ahead[0]))
        reached, err, halvings = _lanczos_expv(ham, g, vec, ahead,
                                               krylov_dim, residual_tol)
        if not reached:
            raise ConvergenceError(
                f"Krylov residual {err:.3e} above tolerance {residual_tol:.3e} "
                f"at t = {t:.6g} after {halvings} step halvings"
            )
        if not halvings:
            return reached if np.ndim(t1) else reached[0]
        (vec,) = reached
        t += math.ldexp(ahead[0], -halvings)


class _Split:
    """The state in block eigencoordinates and the rotations on it.

    ``coeffs`` holds the eigencoordinates of the {|1>, S} block, then
    those of the {|2>, P} block, and ``lam`` their eigenvalues; the H0
    flow over tau multiplies ``coeffs`` by exp(-i lam tau) (:class:`_Flows`).
    """

    def __init__(self, psi: StateVector, ham: Hamiltonian,
                 schedule: PulseSchedule):
        self.blocks = ham.eigensystems
        eig_s, eig_p = self.blocks
        data = psi.data
        split = len(eig_s.lam)
        self.coeffs = np.concatenate((
            eig_s.coefficients(np.concatenate((data[:1], psi.b_s))),
            eig_p.coefficients(np.concatenate((data[1:2], psi.b_p)))))
        self.lam = np.concatenate((eig_s.lam, eig_p.lam))
        self.c_s, self.c_p = self.coeffs[:split], self.coeffs[split:]
        # the |1> and |2> rows of the block eigenvectors, complex so that
        # products with the state stay in complex BLAS
        self.q1 = eig_s.q0.astype(complex)
        self.q2 = eig_p.q0.astype(complex)
        self.schedule = schedule

    def bound(self) -> tuple[complex, complex]:
        """The amplitudes a1 and a2 of |1> and |2>."""
        return complex(self.q1.dot(self.c_s)), complex(self.q2.dot(self.c_p))

    def rotate(self, t: float, tau: float):
        """exp(-i tau g (|2><1| + h.c.)) at g = g(t), on the bound amplitudes."""
        g = coupling_at(self.schedule, t)
        if g == 0.0:
            return
        a1, a2 = self.bound()
        mag = abs(g)
        theta = mag * tau
        cos_m1 = -2.0 * math.sin(0.5 * theta) ** 2  # cos(theta) - 1
        w = -1j * math.sin(theta) / mag
        self.c_s += self.q1 * (cos_m1 * a1 + w * g.conjugate() * a2)
        self.c_p += self.q2 * (w * g * a1 + cos_m1 * a2)

    def populations(self) -> tuple[float, float, float]:
        """(n_c, P1, P2), n_c as the norm less the bound populations."""
        a1, a2 = self.bound()
        p1, p2 = abs(a1) ** 2, abs(a2) ** 2
        flat = self.coeffs.view(float)
        return float(flat.dot(flat)) - p1 - p2, p1, p2

    def sites(self) -> np.ndarray:
        """Site amplitudes of the state: a1, a2, then the S and P modes."""
        eig_s, eig_p = self.blocks
        x_s, x_p = eig_s.sites(self.c_s), eig_p.sites(self.c_p)
        return np.concatenate((x_s[:1], x_p[:1], x_s[1:], x_p[1:]))


def _phase(lam: np.ndarray, tau: float) -> np.ndarray:
    """exp(-i lam tau): the one place a phase vector is computed."""
    return np.exp(-1j * tau * lam)


class _Flows:
    """The sample intervals of a run stepped in block eigencoordinates,
    laid out before the first step, and the phase vectors they apply.

    Per interval k = [times[k], times[k + 1]): ``steps``, its S6 step
    count (0 for a field-free interval, one flow over its span),
    ``lengths``, its step h (its span if field-free), and ``following``,
    the index of the next interval that needs the same flow lengths (the
    number of intervals if none does).  A field-free interval needs its
    span, an interval of one S6 step A1 h to A4 h, and one of several
    steps also the merged 2 A1 h.  :meth:`interval` hands the vectors out
    from a memo of at most ``_PHASE_MEMO`` of them, keyed by exact flow
    length, that evicts the vector needed furthest ahead, never one of
    the current interval, keeps a new vector only if some kept one is
    needed later than it, and keeps none that no later interval needs:
    Belady's rule (IBM Syst. J. 5, 78 (1966)), which the plan allows
    because every flow length is known before the first step.  The memo
    holds lam, not the state.
    """

    def __init__(self, lam: np.ndarray, schedule: PulseSchedule,
                 times: np.ndarray, window_dt: float):
        spans = times[1:] - times[:-1]
        inside = np.array(_in_windows(schedule, times), dtype=bool)
        steps = np.maximum(1.0, np.ceil(spans / window_dt - 1e-12))
        self.steps = np.where(inside, steps, 0.0).astype(np.int64)
        self.lengths = np.where(inside, spans / steps, spans)
        kind = np.minimum(self.steps, 2)  # field-free, one step, several
        order = np.lexsort((self.lengths, kind))  # stable: in time order
        same = ((kind[order[1:]] == kind[order[:-1]])
                & (self.lengths[order[1:]] == self.lengths[order[:-1]]))
        self.following = np.full(len(spans), len(spans), dtype=np.int64)
        self.following[order[:-1][same]] = order[1:][same]
        self.lam = lam
        self.kept = {}  # tau -> [exp(-i lam tau), next interval needing it]

    def interval(self, k: int) -> tuple[int, float, list[np.ndarray]]:
        """(S6 step count, h, phase vectors) of interval k; the vectors
        are (A1 h, A2 h, A3 h, A4 h[, 2 A1 h]) for S6 steps, (h,) else."""
        n_steps, h = self.steps.item(k), self.lengths.item(k)
        if not n_steps:
            taus = (h,)
        elif n_steps == 1:
            taus = (_A1 * h, _A2 * h, _A3 * h, _A4 * h)
        else:
            taus = (_A1 * h, _A2 * h, _A3 * h, _A4 * h, 2.0 * _A1 * h)
        kept, then = self.kept, self.following.item(k)
        vectors = []
        for tau in taus:
            entry = kept.get(tau)
            if entry is None:
                entry = [_phase(self.lam, tau), then]
                if len(kept) == _PHASE_MEMO:
                    victim = max((key for key in kept if key not in taus),
                                 key=lambda key: kept[key][1])
                    if kept[victim][1] > then:
                        del kept[victim]
                if len(kept) < _PHASE_MEMO:
                    kept[tau] = entry
            entry[1] = then
            vectors.append(entry[0])
        if then == len(self.following):  # no later interval needs them
            for tau in taus:
                kept.pop(tau, None)
        return n_steps, h, vectors


def _s6_step(split: _Split, t: float, h: float, inner, closing: np.ndarray):
    """One S6 step over [t, t + h) whose opening flow has been applied;
    ``inner`` holds the five phase vectors between the rotations, and
    ``closing`` the last flow (merged with the next step's opening)."""
    coeffs = split.coeffs
    split.rotate(t + _S6_NODES[0] * h, _S6_WEIGHTS[0] * h)
    for flow, node, weight in zip(inner, _S6_NODES[1:], _S6_WEIGHTS[1:]):
        np.multiply(coeffs, flow, out=coeffs)
        split.rotate(t + node * h, weight * h)
    np.multiply(coeffs, closing, out=coeffs)


def _step_interval(split: _Split, t0: float, n_steps: int, h: float,
                   vectors: list[np.ndarray]):
    """March one sample interval from t0: n_steps uniform S6 steps of h
    with the flows (A1 h, A2 h, A3 h, A4 h[, 2 A1 h]), or, for no step,
    the one field-free flow."""
    coeffs = split.coeffs
    if not n_steps:
        np.multiply(coeffs, vectors[0], out=coeffs)
        return
    opening, p2, p3, p4, *merged = vectors
    inner = (p2, p3, p4, p3, p2)
    np.multiply(coeffs, opening, out=coeffs)
    for i in range(n_steps):
        _s6_step(split, t0 + i * h, h, inner,
                 merged[0] if i < n_steps - 1 else opening)


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


def _in_windows(schedule: PulseSchedule, times: np.ndarray) -> list[bool]:
    """Whether each sample interval's midpoint lies inside a window."""
    return [envelope_at(schedule, 0.5 * (t0 + t)) > 0.0
            for t0, t in zip(times[:-1], times[1:])]


def _near(times: np.ndarray, points, tol: float) -> np.ndarray:
    """Mask of the times strictly closer than tol to one of the points."""
    near = np.zeros(len(times), dtype=bool)
    for s in points:
        near |= np.abs(times - s) < tol
    return near


def propagate(psi0: StateVector, ham: Hamiltonian, schedule: PulseSchedule,
              config: PropagationConfig, grids=None) -> ObservableTrace:
    """Propagate and record populations and snapshot states.

    Runs whose windows hold a constant nonzero coupling (square
    rotating-frame windows) take Lanczos exponentials, each read out at
    as many samples of its stretch of constant H as its residual allows.
    Every other run is stepped in block eigencoordinates: S6 steps of at
    most dt_max (default :func:`drive_step_bound`) inside windows and one
    phase flow per sample elsewhere.  Every pulse edge is a step
    boundary; observables are recorded at the configured stride and
    additionally at every cycle boundary.  The complex state, from which
    spectra and entanglement measures follow, is kept at the configured
    snapshot times and at the final sample.  Passing the pair of
    continuum grids attaches their energy axes to the trace so spectra
    can be plotted against emission energy regardless of the propagation
    frame.
    """
    times = sample_times(schedule, config)
    n_samples = len(times)

    tol = 1e-9 * max(config.T_total, 1.0)
    cycle_flags = _near(times, schedule.cycle_boundaries, tol)
    snapshot = _near(times, config.snapshot_times, tol)
    snapshot[-1] = True

    if schedule.drive_active and not schedule.coupling_varies:
        samples = _krylov_samples(psi0, ham, schedule, times, config)
    else:
        samples = _split_samples(psi0, ham, schedule, times, snapshot,
                                 config.dt_max or drive_step_bound(schedule))
    n_c = np.empty(n_samples)
    p1 = np.empty(n_samples)
    p2 = np.empty(n_samples)
    states: list[StateVector] = []
    with one_blas_thread():  # the samples are computed as they are read
        for i, (t, sample) in enumerate(zip(times, samples, strict=True)):
            if isinstance(sample, tuple):  # read from eigencoordinates
                n_c[i], p1[i], p2[i] = sample
                continue
            n_c[i], _, p1[i], p2[i], _ = orbital_populations(
                StateVector(sample, psi0.n_s, t))
            if snapshot[i]:
                states.append(StateVector(sample.copy(), psi0.n_s, t))

    axes = {}
    if grids is not None:
        grid_s, grid_p = grids
        axes = dict(energies_s=grid_s.energies, d_eps_s=grid_s.d_eps,
                    energies_p=grid_p.energies, d_eps_p=grid_p.d_eps)
    return ObservableTrace(times=times, n_c=n_c, P1=p1, P2=p2,
                           cycle_flags=cycle_flags, states=states, **axes)


def _krylov_samples(psi0: StateVector, ham: Hamiltonian,
                    schedule: PulseSchedule, times: np.ndarray,
                    config: PropagationConfig):
    """The state at each sample time.  H is constant over each stretch of
    sample intervals whose midpoints lie all inside or all outside the
    windows; each :func:`evolve_interval` call goes as far into the
    stretch as one Lanczos space reaches."""
    vec = psi0.data
    yield vec
    a = 0
    for _, stretch in itertools.groupby(_in_windows(schedule, times)):
        end = a + len(list(stretch))
        while a < end:
            states = evolve_interval(vec, times[a], times[a + 1:end + 1], ham,
                                     schedule, krylov_dim=config.krylov_dim,
                                     residual_tol=config.residual_tol)
            yield from states
            vec = states[-1]
            a += len(states)


def _split_samples(psi0: StateVector, ham: Hamiltonian,
                   schedule: PulseSchedule, times: np.ndarray,
                   snapshot: np.ndarray, window_dt: float):
    """Each sample of a run propagated in block eigencoordinates: the
    initial state itself first, then the site amplitudes at a snapshot
    and the populations (n_c, P1, P2) at every other sample."""
    split = _Split(psi0, ham, schedule)
    flows = _Flows(split.lam, schedule, times, window_dt)
    yield psi0.data
    for k in range(len(times) - 1):
        # numpy scalars slow the node arithmetic
        _step_interval(split, times.item(k), *flows.interval(k))
        yield split.sites() if snapshot[k + 1] else split.populations()


def pi_pulse_transfer_check(Omega: float, omega: float, delta: float,
                            mode: str = "rwa_pulsed") -> float:
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
    config = PropagationConfig(T_total=schedule.t_pi, residual_tol=1e-13)
    return float(propagate(initial_state(ham), ham, schedule, config).P2[-1])
