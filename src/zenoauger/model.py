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
from functools import cached_property, lru_cache

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


# A coupling below this is zero: its square would be subnormal.
_Z_FLOOR = math.sqrt(np.finfo(float).tiny)
# Size of one float64 temporary of the secular solve: it works on chunks
# of rows of an N x N matrix.
_CHUNK_BYTES = 1 << 17
# Size of the chunk of rows of the Cauchy matrix in the Cauchy transforms,
# which take one state at a time: 256 KB holds about 40 rows of an li
# block.  Building the rows costs more than the product; one li block
# took 3.0, 2.2 and 2.1 ms at 64 KB, 256 KB and 1 MB chunks (one BLAS
# thread), the last at three times the peak memory.
_CAUCHY_CHUNK_BYTES = 1 << 18
_SECULAR_ITERATIONS = 64
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class ArrowheadEigensystem:
    """Eigensystem of a real arrowhead block [[alpha, z^T], [z, diag(d)]].

    All arrays have length N + 1.  Column j of the orthogonal eigenvector
    matrix Q, for the eigenvalue ``lam[j]``, is q0_j (1, z_k/(lam_j - d_k));
    only its first entry ``q0[j]`` is stored and Q is never formed.
    lam_j - d_k is taken as (d[origin_j] - d_k) + mu_j, where ``origin``
    is the nearer pole of the root's gap and ``mu`` the root's offset from
    it, so a root next to a pole keeps its distance to that pole to full
    relative accuracy.  The roots of the secular equation come first, in
    increasing order.  A pole whose coupling is zero follows them as an
    eigenvalue of its own with eigenvector e_k (q0 = 0, mu = 0); a block
    without any coupling has the bound state itself as its first column
    (lam = alpha, q0 = 1, origin = -1).
    """

    lam: np.ndarray
    q0: np.ndarray
    origin: np.ndarray
    mu: np.ndarray
    d: np.ndarray
    z: np.ndarray

    @cached_property
    def _layout(self) -> tuple[int, np.ndarray, np.ndarray]:
        """(number of secular roots, coupled poles, uncoupled poles)."""
        coupled = np.abs(self.z) > _Z_FLOOR
        return (int(np.count_nonzero(coupled)) + 1, np.flatnonzero(coupled),
                np.flatnonzero(~coupled))

    def _inverse_gaps(self):
        """Row chunks of 1/(lam_j - d_k) over the coupled poles k (rows)
        and the secular roots j (columns), one chunk at a time."""
        n_roots, rows, _ = self._layout
        if not len(rows):
            return
        origin_d = self.d[self.origin[:n_roots]]
        mu = self.mu[:n_roots]
        step = max(1, _CAUCHY_CHUNK_BYTES // (8 * n_roots))
        buffer = np.empty((min(step, len(rows)), n_roots))
        for start in range(0, len(rows), step):
            chunk = rows[start:start + step]
            inv = np.subtract(origin_d, self.d[chunk, None],
                              out=buffer[:len(chunk)])
            inv += mu
            yield chunk, np.reciprocal(inv, out=inv)

    def sites(self, coeffs: np.ndarray) -> np.ndarray:
        """Site amplitudes Q c of eigencoordinates c, bound state first.

        ``coeffs`` has shape (N + 1,) or (N + 1, m), one state per column.
        The bound amplitude is sum_j q0_j c_j and continuum amplitude k is
        b_k = z_k sum_j q0_j c_j/(lam_j - d_k): each chunk of rows of the
        real Cauchy matrix multiplies the float view of q0 c, so no
        complex Cauchy block is formed.
        """
        n_roots, _, uncoupled = self._layout
        c = np.asarray(coeffs, dtype=complex)
        c2 = c.reshape(len(c), -1)
        y = np.multiply(self.q0[:n_roots, None], c2[:n_roots], order="C")
        out = np.empty_like(c2)
        out[0] = y.sum(axis=0)
        out[1 + uncoupled] = c2[n_roots:]
        y_float = y.view(float)
        for chunk, inv in self._inverse_gaps():
            block = inv @ y_float
            block *= self.z[chunk, None]
            out[1 + chunk] = block.view(complex)
        return out.reshape(c.shape)

    def coefficients(self, sites: np.ndarray) -> np.ndarray:
        """Eigencoordinates Q^T x of site amplitudes x (the inverse of
        :meth:`sites`), with the same shapes."""
        n_roots, _, uncoupled = self._layout
        x = np.asarray(sites, dtype=complex)
        x2 = x.reshape(len(x), -1)
        acc = np.zeros((n_roots, 2 * x2.shape[1]))
        # an empty continuum would add only signed zeros to acc's +0
        if x2[1:].any():
            for chunk, inv in self._inverse_gaps():
                weighted = self.z[chunk, None] * x2[1 + chunk]
                acc += inv.T @ weighted.view(float)
        out = np.empty_like(x2)
        out[:n_roots] = self.q0[:n_roots, None] * (x2[0] + acc.view(complex))
        out[n_roots:] = x2[1 + uncoupled]
        return out.reshape(x.shape)


def _secular(alpha: float, d: np.ndarray, z2: np.ndarray,
             origin: np.ndarray, mu: np.ndarray):
    """F at lam = d[origin] + mu, F(lam) = alpha - lam + sum z_k^2/(lam - d_k).

    Returns (F, psi, psi', scale): psi is F without the origin pole's term
    z_o^2/mu, and scale the sum of the magnitudes of F's terms.
    """
    m = len(origin)
    psi, dpsi, scale = np.empty(m), np.empty(m), np.empty(m)
    step = max(1, _CHUNK_BYTES // (8 * len(d)))
    buffers = np.empty((2, min(step, m), len(d)))
    for start in range(0, m, step):
        part = slice(start, start + step)
        o = origin[part]
        inv, terms = buffers[:, :len(o)]
        np.subtract.outer(d[o], d, out=inv)
        inv += mu[part, None]
        inv[np.arange(len(o)), o] = np.inf  # the origin term is kept apart
        np.reciprocal(inv, out=inv)
        np.multiply(inv, z2, out=terms)
        psi[part] = terms.sum(axis=1)
        dpsi[part] = np.einsum("ij,ij->i", terms, inv)
        scale[part] = np.abs(terms, out=terms).sum(axis=1)
    shift = alpha - d[origin]
    pole = z2[origin] / mu
    psi += shift - mu
    scale += np.abs(shift) + np.abs(mu) + np.abs(pole)
    return psi + pole, psi, -1.0 - dpsi, scale


def _secular_roots(alpha: float, d: np.ndarray, z: np.ndarray):
    """(origin, mu, q0) of the N + 1 roots for couplings z that are all
    nonzero and poles d that increase strictly.

    One root lies in each gap of d and one beyond each end.  A root takes
    the nearer end of its gap as origin, found from the sign of F at the
    gap's midpoint.  Each iteration keeps the origin term z_o^2/mu exact,
    linearizes the rest (psi) and solves the resulting quadratic in mu;
    a bisection bracket guards it, and converged roots are frozen.
    """
    n = len(d)
    z2 = z * z
    reach = 2.0 * math.sqrt(float(z2.sum()))  # > |z|: roots lie within it
    origin = np.empty(n + 1, dtype=np.intp)
    lo, hi = np.empty(n + 1), np.empty(n + 1)
    origin[0], lo[0], hi[0] = 0, min(alpha - d[0], 0.0) - reach, 0.0
    origin[n], lo[n], hi[n] = n - 1, 0.0, max(alpha - d[-1], 0.0) + reach
    if n > 1:
        lower = np.arange(n - 1)
        half = 0.5 * np.diff(d)
        upper = _secular(alpha, d, z2, lower, half)[0] >= 0.0
        origin[1:n] = lower + upper
        lo[1:n] = np.where(upper, -half, 0.0)
        hi[1:n] = np.where(upper, 0.0, half)

    mu = 0.5 * (lo + hi)
    slope = np.empty(n + 1)  # psi' at the accepted mu
    todo = np.arange(n + 1)
    for _ in range(_SECULAR_ITERATIONS):
        o, m = origin[todo], mu[todo]
        f, psi, dpsi, scale = _secular(alpha, d, z2, o, m)
        low = np.where(f > 0.0, m, lo[todo])  # F decreases between poles
        high = np.where(f < 0.0, m, hi[todo])
        lo[todo], hi[todo] = low, high
        # z_o^2/mu' + psi + psi' (mu' - mu) = 0 has one root on each side
        # of the pole; take the one on the root's side
        a, b, c = dpsi, psi - dpsi * m, z2[o]
        q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
        new = np.where(low >= 0.0, np.maximum(q / a, c / q),
                       np.minimum(q / a, c / q))
        new = np.where((low < new) & (new < high), new, 0.5 * (low + high))
        settled = np.abs(f) <= 8.0 * _EPS * scale
        new = np.where(settled, m, new)
        done = (settled | (np.abs(new - m) <= 2.0 * _EPS * np.abs(new))
                | (high - low <= 2.0 * _EPS * np.maximum(-low, high)))
        mu[todo] = new
        slope[todo] = dpsi
        todo = todo[~done]
        if not len(todo):
            break
    else:
        raise RuntimeError(f"{len(todo)} secular roots did not converge in "
                           f"{_SECULAR_ITERATIONS} iterations")
    q0 = 1.0 / np.sqrt(z2[origin] / (mu * mu) - slope)
    return origin, mu, q0


def arrowhead_eigensystem(alpha: float, d, z) -> ArrowheadEigensystem:
    """Eigensystem of [[alpha, z^T], [z, diag(d)]] from its secular equation.

    The eigenvalues of coupled poles are the roots of
    F(lam) = alpha - lam + sum z_k^2/(lam - d_k) (O'Leary & Stewart,
    J. Comput. Phys. 90, 497 (1990)); the work is O(N^2) in time and
    O(N) in memory beyond fixed-size chunks.  ``d`` must increase
    strictly.  A block without continuum is 1 x 1, and one whose
    couplings are all zero is diagonal already; neither needs a solve.

    Each distinct block is solved once per process: the result is
    memoized by the exact bits of alpha, d and z, and every block asking
    for the same bits shares it, so all its arrays are read-only.
    """
    d = np.asarray(d, dtype=float)
    z = np.asarray(z, dtype=float)
    if d.shape != z.shape or d.ndim != 1:
        raise ValueError(f"d and z must be vectors of one length, got shapes "
                         f"{d.shape} and {z.shape}")
    if np.any(np.diff(d) <= 0.0):
        raise ValueError("pole energies d must increase strictly")
    return _solve_block(np.concatenate(([alpha], d)).tobytes(), z.tobytes())


# Blocks whose eigensystems the process keeps: the two blocks of four
# models.  An entry, its key and the pole layout of the transforms
# included, takes 48 KB for an li block (N = 801) and 69 KB for a fig4
# block at its preset N = 1201, so a full memo stays under 0.6 MB.
_EIGENSYSTEM_MEMO = 8


@lru_cache(_EIGENSYSTEM_MEMO)
def _solve_block(diagonal: bytes, couplings: bytes) -> ArrowheadEigensystem:
    """The eigensystem of the block whose diagonal (alpha, then d) and
    couplings z are these float64 bytes; d and z are read-only views of
    the key, so the memo holds them once."""
    diag = np.frombuffer(diagonal)
    alpha, d, z = float(diag[0]), diag[1:], np.frombuffer(couplings)
    coupled = np.abs(z) > _Z_FLOOR
    poles, uncoupled = np.flatnonzero(coupled), np.flatnonzero(~coupled)
    if len(poles):
        origin, mu, q0 = _secular_roots(alpha, d[poles], z[poles])
        origin = poles[origin]
        lam = d[origin] + mu
    else:
        origin, mu = np.array([-1]), np.zeros(1)
        lam, q0 = np.array([alpha]), np.ones(1)
    arrays = (np.concatenate((lam, d[uncoupled])),
              np.concatenate((q0, np.zeros(len(uncoupled)))),
              np.concatenate((origin, uncoupled)),
              np.concatenate((mu, np.zeros(len(uncoupled)))))
    for array in arrays:
        array.flags.writeable = False
    return ArrowheadEigensystem(*arrays, d=d, z=z)


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

    @property
    def eigensystems(self) -> tuple[ArrowheadEigensystem, ArrowheadEigensystem]:
        """Eigensystems of the blocks {|1>, S} and {|2>, P} of dense(0),
        from the process's memo (:func:`arrowhead_eigensystem`)."""
        return (arrowhead_eigensystem(self.diag[0], self.diag[self.s_block],
                                      self.m_s),
                arrowhead_eigensystem(self.diag[1], self.diag[self.p_block],
                                      self.m_p))

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
