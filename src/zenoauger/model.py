"""Two-bound-state / two-continuum decay model.

A fast-decaying state |1> is coupled to an s-type continuum region and a
slower state |2> to a p-type region.  Each region is discretized on a
uniform energy grid spanning a window around its emission energy, with the
level density folded into the per-level couplings so that the golden-rule
width at the window center reproduces the requested lifetime exactly.

All quantities are in Hartree atomic units (hbar = 1).
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .units import au_to_ev, au_to_fs, ev_to_au

REGIONS = ("S", "P")

# Coupling a level at the window center with lifetime tau gives a decay
# width 1/tau; resolving that width with at least this many grid points is
# required for trustworthy lineshapes (soft bound, see validate_resolution).
POINTS_PER_LINEWIDTH = 10.0
RECURRENCE_SAFETY = 1.5


@dataclass(frozen=True)
class LevelScheme:
    """Bound-state energies, core level and target lifetimes (a.u.).

    ``tau2 = inf`` means state |2> does not decay.  The emission energies
    epsA1/epsA2 are measured from the continuum threshold and must be
    positive: the ejected electron carries positive kinetic energy.
    """

    E1: float
    E2: float
    eps_c: float
    tau1: float
    tau2: float = math.inf

    def __post_init__(self):
        if not self.tau1 > 0:
            raise ValueError(f"tau1 must be positive, got {self.tau1}")
        if not self.tau2 > 0:
            raise ValueError(f"tau2 must be positive or inf, got {self.tau2}")
        if self.epsA1 <= 0 or self.epsA2 <= 0:
            raise ValueError(
                "emission energies must be positive "
                f"(epsA1={self.epsA1}, epsA2={self.epsA2})"
            )

    @property
    def epsA1(self) -> float:
        return self.E1 - self.eps_c

    @property
    def epsA2(self) -> float:
        return self.E2 - self.eps_c


@dataclass(frozen=True, eq=False)
class ContinuumGrid:
    """Uniform discretization of one continuum region.

    energies   strictly increasing grid eps_k (kinetic energy from threshold)
    couplings  per-level coupling m_k, m_k = M sqrt(rho(eps_k) d_eps / rho(epsA))
    """

    region: str
    energies: np.ndarray
    couplings: np.ndarray
    eps_center: float

    @property
    def d_eps(self) -> float:
        return float(self.energies[1] - self.energies[0])

    @property
    def recurrence_time(self) -> float:
        """Artificial revival time 2*pi/d_eps of the discretized continuum."""
        return 2.0 * math.pi / self.d_eps


def density_of_states(eps, n_exponent: int):
    """Continuum density profile rho(eps) ~ eps^((n-2)/2), unnormalized."""
    return np.asarray(eps, dtype=float) ** ((n_exponent - 2) / 2.0)


def lifetime_to_coupling(tau: float, rho_at_epsA: float) -> float:
    """Coupling strength M reproducing lifetime tau by the golden rule.

    Inverts Gamma = 2*pi*M^2*rho(epsA) = 1/tau.  An infinite lifetime maps
    to zero coupling.
    """
    if math.isinf(tau):
        return 0.0
    if not tau > 0:
        raise ValueError(f"lifetime must be positive, got {tau}")
    if not rho_at_epsA > 0:
        raise ValueError(f"density of states must be positive, got {rho_at_epsA}")
    return math.sqrt(1.0 / (2.0 * math.pi * tau * rho_at_epsA))


def build_grid(
    region: str,
    epsA: float,
    window: float,
    n_points: int,
    n_exponent: int,
    tau: float,
) -> ContinuumGrid:
    """Discretize one continuum region on [epsA - window, epsA + window].

    The density profile enters through the couplings only, normalized to
    the window center, so the overall normalization of rho cancels and
    the local golden-rule width at epsA equals 1/tau exactly.
    """
    if region not in REGIONS:
        raise ValueError(f"region must be one of {REGIONS}, got {region!r}")
    if n_points < 3:
        raise ValueError(f"need at least 3 grid points, got {n_points}")
    if n_exponent not in (1, 2, 3):
        raise ValueError(f"density exponent must be 1, 2 or 3, got {n_exponent}")
    if not 0 < window < epsA:
        raise ValueError(
            f"window must satisfy 0 < W < epsA to keep all energies positive "
            f"(W={window}, epsA={epsA})"
        )
    energies = np.linspace(epsA - window, epsA + window, n_points)
    d_eps = energies[1] - energies[0]
    m_center = lifetime_to_coupling(tau, 1.0)
    # m_k ~ sqrt(rho(eps_k)/rho(epsA)); rho normalization cancels here.
    shape = np.sqrt(density_of_states(energies, n_exponent)
                    / density_of_states(epsA, n_exponent))
    couplings = m_center * math.sqrt(d_eps) * shape
    return ContinuumGrid(region=region, energies=energies,
                         couplings=couplings, eps_center=epsA)


def default_window(tau_min: float, omega_rabi_max: float = 0.0) -> float:
    """Default half-width: hold the decay tails and any Stark-split peaks."""
    return max(15.0 / tau_min if not math.isinf(tau_min) else 0.0,
               5.0 * omega_rabi_max,
               ev_to_au(2.0))


@dataclass(frozen=True, eq=False, slots=True)
class CSRMatrix:
    """A square matrix's CSR arrays and scipy's compiled product.

    :meth:`dot` makes the one call that ``scipy.sparse.csr_matrix.dot``
    ends in for a vector, ``kernel`` (scipy's ``csr_matvec``) into a
    zeroed result, without the dispatch layers above it: same entries,
    same summation order, same bits.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]
    kernel: Callable[..., None]

    def dot(self, psi: np.ndarray) -> np.ndarray:
        """Matrix @ psi for a vector psi; its length is checked here,
        because the kernel reads as many entries as the matrix has
        columns."""
        n_rows, n_cols = self.shape
        if psi.shape != (n_cols,):
            raise ValueError(f"expected a vector of length {n_cols}, "
                             f"got shape {psi.shape}")
        out = np.zeros(n_rows, dtype=np.result_type(self.data, psi))
        self.kernel(n_rows, n_cols, self.indptr, self.indices, self.data,
                    psi, out)
        return out


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Arrowhead Hamiltonian: two bound states, two continuum blocks.

    The static part holds the diagonal energies and the bound-continuum
    couplings (|1> to region S only, |2> to region P only).  The single
    time-dependent element g(t) on |1><2| is supplied per matrix-vector
    product, which keeps the product cost linear in the grid size.
    """

    diag: np.ndarray
    m_s: np.ndarray
    m_p: np.ndarray

    @property
    def n_s(self) -> int:
        return len(self.m_s)

    @property
    def n_p(self) -> int:
        return len(self.m_p)

    @property
    def dimension(self) -> int:
        return len(self.diag)

    @property
    def s_block(self) -> slice:
        return slice(2, 2 + self.n_s)

    @property
    def p_block(self) -> slice:
        return slice(2 + self.n_s, self.dimension)

    def apply(self, psi: np.ndarray, g: complex = 0.0) -> np.ndarray:
        """H(t) @ psi with drive element g = <2|H|1> at this instant."""
        out = self.static_csr.dot(psi)
        if g != 0.0:
            out[0] += np.conj(g) * psi[1]
            out[1] += g * psi[0]
        return out

    @cached_property
    def static_csr(self) -> CSRMatrix:
        """The drive-free part dense(0) in sparse form; :meth:`apply` adds
        the drive element per product.

        scipy.sparse loads here, with the first product: importing the
        package, planning and validating load no sparse code.
        """
        import scipy.sparse._sparsetools

        n = self.dimension
        s_idx = np.arange(2, 2 + self.n_s)
        p_idx = np.arange(2 + self.n_s, n)
        rows = np.concatenate((np.arange(n), np.zeros(self.n_s, dtype=int),
                               s_idx, np.ones(self.n_p, dtype=int), p_idx))
        cols = np.concatenate((np.arange(n), s_idx,
                               np.zeros(self.n_s, dtype=int), p_idx,
                               np.ones(self.n_p, dtype=int)))
        vals = np.concatenate((self.diag, self.m_s, self.m_s,
                               self.m_p, self.m_p)).astype(complex)
        mat = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
        return CSRMatrix(mat.data, mat.indices, mat.indptr, mat.shape,
                         scipy.sparse._sparsetools.csr_matvec)

    def dense(self, g: complex = 0.0) -> np.ndarray:
        """Full matrix, for small-system cross-checks only."""
        n = self.dimension
        h = np.zeros((n, n), dtype=complex)
        np.fill_diagonal(h, self.diag)
        h[1, 0] = g
        h[0, 1] = np.conj(g)
        h[0, self.s_block] = self.m_s
        h[self.s_block, 0] = self.m_s
        h[1, self.p_block] = self.m_p
        h[self.p_block, 1] = self.m_p
        return h


@dataclass
class StateVector:
    """Complex amplitudes over the full basis: (a1, a2, continuum S then P)."""

    data: np.ndarray
    n_s: int
    time_stamp: float = 0.0

    @property
    def a1(self) -> complex:
        return complex(self.data[0])

    @property
    def a2(self) -> complex:
        return complex(self.data[1])

    @property
    def b(self) -> np.ndarray:
        return self.data[2:]

    @property
    def b_s(self) -> np.ndarray:
        return self.data[2:2 + self.n_s]

    @property
    def b_p(self) -> np.ndarray:
        return self.data[2 + self.n_s:]


def assemble(levels: LevelScheme, grid_s: ContinuumGrid,
             grid_p: ContinuumGrid) -> Hamiltonian:
    """Build the static Hamiltonian from a level scheme and two grids.

    The grids must have been built against the emission energies of the
    level scheme; continuum level energies are eps_c + eps_k.
    """
    if grid_s.region != "S" or grid_p.region != "P":
        raise ValueError("grids must be built for regions S and P respectively")
    for grid, eps_a in ((grid_s, levels.epsA1), (grid_p, levels.epsA2)):
        if not math.isclose(grid.eps_center, eps_a, rel_tol=1e-9):
            raise ValueError(
                f"grid {grid.region} centered at {grid.eps_center} but the "
                f"level scheme emits at {eps_a}"
            )
    diag = np.concatenate((
        [levels.E1, levels.E2],
        levels.eps_c + grid_s.energies,
        levels.eps_c + grid_p.energies,
    )).astype(float)
    return Hamiltonian(diag=diag, m_s=grid_s.couplings.copy(),
                       m_p=grid_p.couplings.copy())


def rotating_frame(ham: Hamiltonian, omega: float) -> Hamiltonian:
    """Shift |2> and the P block down by the drive frequency.

    In this frame a resonant rotating-wave drive becomes the constant
    coupling Omega/2; any detuning appears as a static offset on |2>.
    Continuum populations are frame-independent, so spectra and
    entanglement measures read identically in either frame.
    """
    diag = ham.diag.copy()
    diag[1] -= omega
    diag[ham.p_block] -= omega
    return Hamiltonian(diag=diag, m_s=ham.m_s, m_p=ham.m_p)


@dataclass(frozen=True)
class ResolutionReport:
    """Outcome of the grid-resolution checks for a planned simulation.

    The recurrence bound is hard: running into the revival of the
    discretized continuum invalidates the decay dynamics, so
    :func:`validate_resolution` refuses it rather than reporting it.  The
    linewidth-sampling bound only degrades spectra, so it is reported as
    a named diagnostic without blocking the run.
    """

    linewidth_ok: bool
    recurrence_time: float
    points_per_linewidth: float
    diagnostics: tuple[str, ...] = field(default=())


def validate_resolution(grid: ContinuumGrid, t_sim: float,
                        tau: float) -> ResolutionReport:
    """Check a grid against a planned simulation span and lifetime.

    Raises ValueError when the span, times RECURRENCE_SAFETY, reaches the
    recurrence time of the grid.
    """
    t_rec = grid.recurrence_time
    if not t_sim * RECURRENCE_SAFETY < t_rec:
        raise ValueError(
            f"recurrence bound violated in region {grid.region}: "
            f"T_sim*safety = {au_to_fs(t_sim * RECURRENCE_SAFETY):.3f} fs "
            f"exceeds T_rec = {au_to_fs(t_rec):.3f} fs; decrease d_eps"
        )
    if math.isinf(tau):
        linewidth_ok = True
        points = math.inf
    else:
        linewidth = 1.0 / tau
        points = linewidth / grid.d_eps
        linewidth_ok = points > POINTS_PER_LINEWIDTH
    diagnostics = []
    if not linewidth_ok:
        diagnostics.append(
            f"linewidth sampling in region {grid.region}: "
            f"{points:.2f} points per linewidth is below the "
            f"{POINTS_PER_LINEWIDTH:.0f}-point rule "
            f"(d_eps = {au_to_ev(grid.d_eps):.5f} eV); spectra will be coarse"
        )
    return ResolutionReport(
        linewidth_ok=linewidth_ok,
        recurrence_time=t_rec,
        points_per_linewidth=points,
        diagnostics=tuple(diagnostics),
    )
