"""Pairwise mode entanglement of the emitted electron.

Each continuum level is treated as a fermionic mode with occupation 0 or
1.  For a pure state carrying at most one continuum excitation the
two-mode reduced density matrix is an X-matrix whose Wootters concurrence
reduces to the closed form 2 |b_k| |b_k'|; the eigenvalue route is kept
as an independent path for validation.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from pathlib import Path

import numpy as np

from .model import StateVector
from .units import au_to_ev, au_to_fs

EMISSION_FLOOR = 1e-12

# sigma_y (x) sigma_y in the occupation basis {|00>, |01>, |10>, |11>}
_SPIN_FLIP = np.array([
    [0, 0, 0, -1],
    [0, 0, 1, 0],
    [0, 1, 0, 0],
    [-1, 0, 0, 0],
], dtype=float)


def reduced_two_mode_density(psi: StateVector, k: int, kp: int) -> np.ndarray:
    """Density matrix of modes (k, k') in the basis {|00>, |01>, |10>, |11>}.

    All other modes and the bound amplitudes are traced out; with a single
    continuum excitation the doubly-occupied sector stays empty.
    """
    if k == kp:
        raise ValueError("the two modes must be distinct")
    b = psi.b
    b_k = b[k]
    b_kp = b[kp]
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0 - abs(b_k) ** 2 - abs(b_kp) ** 2
    rho[1, 1] = abs(b_kp) ** 2
    rho[2, 2] = abs(b_k) ** 2
    rho[1, 2] = b_kp * np.conj(b_k)
    rho[2, 1] = np.conj(rho[1, 2])
    return rho


def wootters_concurrence(rho: np.ndarray) -> float:
    """Concurrence of a two-qubit density matrix (eigenvalue route).

    C = max(0, l1 - l2 - l3 - l4) with l_i the descending square roots of
    the eigenvalues of rho @ rho_tilde, rho_tilde the spin-flipped
    conjugate.
    """
    rho_tilde = _SPIN_FLIP @ rho.conj() @ _SPIN_FLIP
    evals = np.real(np.linalg.eigvals(rho @ rho_tilde))
    # zero out noise below 1e-13 of the largest eigenvalue so the square
    # root cannot amplify it; the spectrum is non-negative in exact math
    evals[np.abs(evals) < 1e-13 * np.max(np.abs(evals))] = 0.0
    lams = np.sqrt(np.sort(np.abs(evals))[::-1])
    return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))


def two_mode_concurrence(psi: StateVector, k: int, kp: int) -> float:
    """Concurrence between continuum modes k and k' of a pure state."""
    return wootters_concurrence(reduced_two_mode_density(psi, k, kp))


def _upper_rows(m: np.ndarray, floor: float):
    """The pairs k < k' with C >= floor, one mode row k at a time.

    Yields (k, keep, c): ``keep`` masks the columns k + 1, k + 2, ... of
    row k whose C is at or above the floor, and ``c`` holds those C in
    column order.  Rows that keep no pair are skipped.
    """
    for k in range(len(m) - 1):
        c = 2.0 * (m[k] * m[k + 1:])  # as C multiplies: equal bit for bit
        keep = c >= floor
        if keep.any():
            yield k, keep, c[keep]


@dataclass(frozen=True, eq=False)
class ConcurrenceMatrix:
    """Concurrence over all continuum modes, stored as its factor |b_k|.

    C_{kk'} = 2 |b_k| |b_k'| off the diagonal.  Modes are ordered S region
    then P region; ``mode_energies`` carries the matching emission
    energies.  ``n_s`` splits the two regions.
    """

    mode_energies: np.ndarray
    magnitudes: np.ndarray
    n_s: int
    time_stamp: float

    @property
    def C(self) -> np.ndarray:
        """The dense symmetric, zero-diagonal matrix, built per access."""
        c = 2.0 * np.outer(self.magnitudes, self.magnitudes)
        np.fill_diagonal(c, 0.0)
        return c

    def block(self, row_region: str, col_region: str) -> np.ndarray:
        sel = {"S": slice(0, self.n_s), "P": slice(self.n_s, None)}
        return self.C[sel[row_region], sel[col_region]]

    def to_sparse_triplets(self, floor: float = EMISSION_FLOOR) -> np.ndarray:
        """(n, 3) upper-triangle (eps_k, eps_k', C) rows with C >= floor."""
        e = self.mode_energies
        return np.concatenate([np.empty((0, 3)), *(
            np.column_stack((np.full(len(c), e[k]), e[k + 1:][keep], c))
            for k, keep, c in _upper_rows(self.magnitudes, floor))])


def write_concurrence(cmat: ConcurrenceMatrix, directory,
                      floor: float = EMISSION_FLOOR) -> Path:
    """Emit a concurrence matrix as sparse triplets plus a JSON header.

    ``concurrence.csv`` holds one upper-triangle (eps_k, eps_k', C) row
    per pair at or above the floor (a full matrix spans many decades, so
    thresholded triplets are the file default); ``concurrence.json``
    records the snapshot time, the energy ranges of the two regions and
    the flooring applied.
    """
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    fmt = "%.17g"
    # each mode energy formatted once, as a line's first field and as its
    # second field followed by the slot that C fills
    energies_ev = au_to_ev(cmat.mode_energies).tolist()
    firsts = ["%.17g," % e for e in energies_ev]
    seconds = ["%.17g,%%.17g\n" % e for e in energies_ev]
    with open(out / "concurrence.csv", "w", encoding="utf-8") as handle:
        handle.write("eps_k_eV,eps_kp_eV,concurrence\n")
        for k, keep, c in _upper_rows(cmat.magnitudes, floor):
            # one mode row per write: no whole-file string
            row = firsts[k].join(compress(seconds[k + 1:], keep.tolist()))
            handle.write((firsts[k] + row) % tuple(c.tolist()))
    energies = cmat.mode_energies
    header = "\n".join((
        "{",
        f'  "floor": {fmt % floor},',
        '  "regions": {',
        f'    "P": [{fmt % au_to_ev(energies[cmat.n_s:].min())}, '
        f'{fmt % au_to_ev(energies[cmat.n_s:].max())}],',
        f'    "S": [{fmt % au_to_ev(energies[:cmat.n_s].min())}, '
        f'{fmt % au_to_ev(energies[:cmat.n_s].max())}]',
        "  },",
        f'  "time_fs": {fmt % au_to_fs(cmat.time_stamp)}',
        "}",
    ))
    (out / "concurrence.json").write_text(header + "\n", encoding="utf-8")
    return out


def concurrence_matrix(psi: StateVector,
                       mode_energies: np.ndarray | None = None) -> ConcurrenceMatrix:
    """Full pairwise concurrence via the single-excitation closed form.

    C_{kk'} = 2 |b_k| |b_k'| for k != k'; validated against the Wootters
    eigenvalue route in the test suite.
    """
    mags = np.abs(psi.b)
    if mode_energies is None:
        mode_energies = np.arange(len(mags), dtype=float)
    return ConcurrenceMatrix(
        mode_energies=np.asarray(mode_energies, dtype=float),
        magnitudes=mags,
        n_s=psi.n_s,
        time_stamp=psi.time_stamp,
    )
