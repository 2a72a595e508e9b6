"""Pairwise mode entanglement of the emitted electron.

Each continuum level is treated as a fermionic mode with occupation 0 or
1.  For a pure state carrying at most one continuum excitation the
two-mode reduced density matrix is an X-matrix whose Wootters concurrence
reduces to the closed form 2 |b_k| |b_k'|; the eigenvalue route is kept
as an independent path for validation.

The triplet file formats every C with ``'%.17g'`` from numpy arithmetic
(``_g17_words``): a value x in [1e-95, 1) has e = floor(log10 x) and the
17-digit integer D = round(x 10^(16 - e)), where x 10^(16 - e) is a
double-double from Dekker's exact two-product with a (hi, lo) power of
ten (Numer. Math. 18, 224 (1971)), good to about 1e-13.  Python formats
the values that leave less than ``_TIE`` to decide the rounding (its
ties go to even, not up), those next to the 10^16 boundary of D and
those outside [1e-95, 1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from .model import StateVector
from .units import au_to_ev, au_to_fs

EMISSION_FLOOR = 1e-12

_CHUNK = 2048  # pairs per formatted write, in whole mode rows
_SPLITTER = 134217729.0  # 2**27 + 1: splits a double into 26-bit halves
# a rounding fraction nearer one half than this is left to Python: the
# double-double is good to about 1e-13 and exact ties round to even
_TIE = 1e-7

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


def _pair_chunks(m: np.ndarray, floor: float):
    """The pairs of ``_upper_rows`` in row order, whole rows of them at a
    time until a chunk holds ``_CHUNK``: (k, k', C) as three arrays."""
    rows = []
    count = 0
    for k, keep, c in _upper_rows(m, floor):
        rows.append((k, np.flatnonzero(keep) + (k + 1), c))
        count += len(c)
        if count >= _CHUNK:
            yield _joined(rows)
            rows, count = [], 0
    if rows:
        yield _joined(rows)


def _joined(rows):
    ks, kps, cs = zip(*rows)
    return (np.repeat(ks, [len(c) for c in cs]), np.concatenate(kps),
            np.concatenate(cs))


def _split(a):
    """Dekker's split: hi + lo == a, each half with at most 26 bits."""
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


@cache
def _powers_of_ten() -> tuple[np.ndarray, ...]:
    """hi, hi's two halves and lo with hi + lo = 10^p to 2^-106, indexed
    by p < 128: hi is 10^p rounded, lo the rounded rest."""
    exact = [10**p for p in range(128)]
    hi = np.array([float(v) for v in exact])
    lo = np.array([float(v - int(h)) for v, h in zip(exact, hi.tolist())])
    return (hi, *_split(hi), lo)


@cache
def _text_tables() -> tuple[np.ndarray, ...]:
    """Tables of ASCII text for ``_g17_words``, NUL for no character.

    ``groups[g]`` (uint32) spells the 4-digit group g without its
    trailing zeros for g < 10^4 (empty for 0), and in full as entry
    g + 10^4.  ``heads[10 code + d]`` (uint64, right-aligned) spells what
    precedes the last 16 digits of a value with leading digit d: "d."
    (code 0), "d" (code 1: no digit follows), "0.d", "0.0d", "0.00d",
    "0.000d" (codes 2-5, for e = -1 ... -4).  ``tails[-e]`` (uint64)
    ends the line: "e-XX\\n" from e = -5 on, "\\n" above.
    """
    # uint16 and uint8 throughout: int64 temporaries would add to peak RSS
    g = np.arange(10000, dtype=np.uint16)[:, None]
    scale = np.array([1000, 100, 10, 1], np.uint16)
    digits = (48 + g // scale % 10).astype(np.uint8)
    trailing = np.cumprod(digits[:, ::-1] == 48, axis=1, dtype=np.uint8)
    groups = np.concatenate((np.where(trailing[:, ::-1], 0, digits), digits))

    lead = 48 + np.arange(10, dtype=np.uint8)
    heads = np.zeros((6, 10, 8), np.uint8)
    heads[0, :, 6], heads[0, :, 7] = lead, ord(".")
    heads[1:, :, 7] = lead
    for zeros in range(4):
        text = np.frombuffer(b"0." + b"0" * zeros, np.uint8)
        heads[2 + zeros, :, 7 - len(text):7] = text

    n = np.arange(100)
    tails = np.zeros((100, 8), np.uint8)
    tails[:, 0], tails[:, 1] = ord("e"), ord("-")
    tails[:, 2], tails[:, 3], tails[:, 4] = 48 + n // 10, 48 + n % 10, 10
    tails[:5] = 0
    tails[:5, 0] = 10
    return (groups.view(np.uint32).ravel(),
            heads.view(np.uint64).ravel(), tails.view(np.uint64).ravel())


def _scaled(x: np.ndarray, e: np.ndarray):
    """Integer part and fraction of x 10^(16 - e), to about 1e-13."""
    hi, hi_hi, hi_lo, lo = (t.take(16 - e) for t in _powers_of_ten())
    x_hi, x_lo = _split(x)
    p = x * hi
    error = ((x_hi * hi_hi - p) + x_hi * hi_lo + x_lo * hi_hi) + x_lo * hi_lo
    whole = np.floor(p)
    rest = (p - whole) + (error + x * lo)
    carry = np.floor(rest)
    return whole.astype(np.int64) + carry.astype(np.int64), rest - carry


def _g17_words(values: np.ndarray) -> np.ndarray:
    """``'%.17g\\n' % v`` for each v of values, as rows of 8 uint32 words
    whose NUL bytes are not part of the text."""
    settled = (values >= 1e-95) & (values < 1.0)
    x = np.where(settled, values, 0.5)
    e = np.floor(np.log10(x)).astype(np.int64)
    whole, frac = _scaled(x, e)
    # log10 may round across a power of ten: one step of e mends it
    off = (whole < 10**16) | (whole >= 10**17)
    if off.any():
        e[off] += np.where(whole[off] < 10**16, -1, 1)
        whole[off], frac[off] = _scaled(x[off], e[off])
    # Python settles near-ties and an integer part within 1 of 10^16,
    # which the double-double's error could put at either exponent
    settled &= (np.abs(frac - 0.5) >= _TIE) & (np.abs(whole - 10**16) > 1)
    d = whole + (frac >= 0.5)
    carried = d == 10**17
    d[carried] = 10**16
    e[carried] += 1

    lead = d // 10**16
    rest = d - lead * 10**16
    upper = rest // 10**8
    lower = rest - upper * 10**8
    g1, g3 = upper // 10**4, lower // 10**4
    g2, g4 = upper - g1 * 10**4, lower - g3 * 10**4
    groups, heads, tails = _text_tables()
    words = np.empty((len(x), 8), np.uint32)
    # a group is spelt in full when a later group is not zero
    later = g4
    words[:, 5] = groups.take(g4)
    words[:, 4] = groups.take(g3 + 10**4 * (later != 0))
    later = later | g3
    words[:, 3] = groups.take(g2 + 10**4 * (later != 0))
    later = later | g2
    words[:, 2] = groups.take(g1 + 10**4 * (later != 0))
    later = later | g1
    code = np.where(e <= -5, later == 0, 1 - e)
    head_tail = words.view(np.uint64)
    head_tail[:, 0] = heads.take(10 * code + lead)
    head_tail[:, 3] = tails.take(-e)
    if not settled.all():
        slow = ~settled
        words[slow] = np.array(
            ["%.17g\n" % v for v in values[slow].tolist()], dtype="S32"
        ).view(np.uint32).reshape(-1, 8)
    return words


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
        """One region pair's block of ``C``, built alone: equal bit for bit."""
        sel = {"S": slice(0, self.n_s), "P": slice(self.n_s, None)}
        m = self.magnitudes
        c = 2.0 * np.outer(m[sel[row_region]], m[sel[col_region]])
        if row_region == col_region:
            np.fill_diagonal(c, 0.0)
        return c

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
    records the snapshot time, the energy range [lowest, highest] of each
    region, ``[]`` for a region without modes, and the flooring applied.
    """
    if not math.isfinite(floor):
        raise ValueError(f"floor {floor!r} is not finite: concurrence.json "
                         "would not be JSON")
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    fmt = "%.17g"
    # each mode energy formatted once; a line is the NUL-padded texts of
    # its two energies and its C, and its NUL bytes are dropped
    texts = np.array(["%.17g," % e for e in
                      au_to_ev(cmat.mode_energies).tolist()], dtype=bytes)
    line = np.dtype([("k", texts.dtype), ("kp", texts.dtype), ("c", "V32")])
    with open(out / "concurrence.csv", "wb") as handle:
        handle.write(b"eps_k_eV,eps_kp_eV,concurrence\n")
        for k, kp, c in _pair_chunks(cmat.magnitudes, floor):
            # one chunk of lines per write: no whole-file string
            lines = np.empty(len(c), line)
            lines["k"], lines["kp"] = texts.take(k), texts.take(kp)
            lines["c"] = _g17_words(c).view("V32").ravel()
            handle.write(lines.tobytes().translate(None, b"\0"))

    def span(energies: np.ndarray) -> str:
        ends = (energies.min(), energies.max()) if len(energies) else ()
        return "[" + ", ".join(fmt % au_to_ev(e) for e in ends) + "]"

    energies = cmat.mode_energies
    header = "\n".join((
        "{",
        f'  "floor": {fmt % floor},',
        '  "regions": {',
        f'    "P": {span(energies[cmat.n_s:])},',
        f'    "S": {span(energies[:cmat.n_s])}',
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
    eigenvalue route in the test suite.  ``mode_energies`` must hold one
    energy per continuum mode.
    """
    mags = np.abs(psi.b)
    if mode_energies is None:
        mode_energies = np.arange(len(mags), dtype=float)
    mode_energies = np.asarray(mode_energies, dtype=float)
    if len(mode_energies) != len(mags):
        raise ValueError(f"{len(mode_energies)} mode energies for "
                         f"{len(mags)} continuum modes")
    return ConcurrenceMatrix(
        mode_energies=mode_energies,
        magnitudes=mags,
        n_s=psi.n_s,
        time_stamp=psi.time_stamp,
    )
