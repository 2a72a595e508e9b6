import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import zenoauger as za
from zenoauger.entanglement import _g17_words
from zenoauger.propagator import StateVector


def continuum_state(b, n_s):
    data = np.concatenate(([0.0, 0.0], np.asarray(b, dtype=complex)))
    return StateVector(data=data.astype(complex), n_s=n_s)


def random_single_excitation(rng, n_modes, n_s):
    amps = rng.normal(size=n_modes + 2) + 1j * rng.normal(size=n_modes + 2)
    amps /= np.linalg.norm(amps)
    return StateVector(data=amps, n_s=n_s)


class TestTwoModeConcurrence:
    def test_unoccupied_mode_unentangled(self):
        psi = continuum_state([0.0, 0.8, 0.6], n_s=3)
        assert za.two_mode_concurrence(psi, 0, 1) == 0.0

    def test_balanced_pair_maximally_entangled(self):
        s = 1.0 / math.sqrt(2.0)
        psi = continuum_state([s, s, 0.0], n_s=3)
        assert za.two_mode_concurrence(psi, 0, 1) == pytest.approx(1.0,
                                                                   abs=1e-12)

    def test_same_mode_rejected(self):
        psi = continuum_state([1.0, 0.0], n_s=2)
        with pytest.raises(ValueError):
            za.two_mode_concurrence(psi, 1, 1)

    def test_closed_form_matches_eigenvalue_route(self):
        # 100 random mode pairs of random single-excitation states, each
        # also with its continuum amplitudes scaled to C ~ 1e-9, where
        # the eigenvalues of rho @ rho_tilde are of order C^2
        rng = np.random.default_rng(2024)
        n_modes = 24
        for _ in range(100):
            psi = random_single_excitation(rng, n_modes, n_s=12)
            k, kp = rng.choice(n_modes, size=2, replace=False)
            eig = za.two_mode_concurrence(psi, int(k), int(kp))
            closed = 2.0 * abs(psi.b[k]) * abs(psi.b[kp])
            assert abs(eig - closed) < 1e-10
            weak = psi.data.copy()
            weak[2:] *= math.sqrt(1e-9 / closed)
            eig = za.two_mode_concurrence(StateVector(weak, n_s=12),
                                          int(k), int(kp))
            assert abs(eig - 1e-9) < 1e-12 * 1e-9

    def test_reduced_density_matrix_structure(self):
        psi = continuum_state([0.6, 0.8j], n_s=2)
        rho = za.reduced_two_mode_density(psi, 0, 1)
        assert np.trace(rho).real == pytest.approx(1.0)
        assert rho[3, 3] == 0.0  # single excitation: |11> empty
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-15


class TestConcurrenceMatrix:
    def test_bound_state_gives_zero_matrix(self):
        data = np.zeros(10, dtype=complex)
        data[0] = 1.0
        cmat = za.concurrence_matrix(StateVector(data=data, n_s=4))
        assert np.all(cmat.C == 0.0)

    def test_symmetric_nonnegative_zero_diagonal(self):
        rng = np.random.default_rng(5)
        psi = random_single_excitation(rng, 30, n_s=15)
        cmat = za.concurrence_matrix(psi)
        assert np.array_equal(cmat.C, cmat.C.T)
        assert np.all(cmat.C >= 0.0)
        assert np.all(np.diag(cmat.C) == 0.0)
        assert np.all(cmat.C <= 1.0 + 1e-12)

    def test_matches_pairwise_computation(self):
        rng = np.random.default_rng(6)
        psi = random_single_excitation(rng, 12, n_s=6)
        cmat = za.concurrence_matrix(psi)
        for k in range(4):
            for kp in range(5, 9):
                assert cmat.C[k, kp] == pytest.approx(
                    za.two_mode_concurrence(psi, k, kp), abs=1e-10)

    def test_sparse_triplets_floor(self):
        psi = continuum_state([0.9, 1e-8, math.sqrt(1 - 0.81 - 1e-16)],
                              n_s=3)
        cmat = za.concurrence_matrix(psi, mode_energies=np.array([1., 2., 3.]))
        triplets = cmat.to_sparse_triplets(floor=1e-6)
        pairs = {(a, b) for a, b, _ in triplets}
        assert (1.0, 3.0) in pairs
        assert (1.0, 2.0) not in pairs  # below floor

    @pytest.mark.parametrize("floor", [0.0, -1.0])
    def test_sparse_triplets_upper_triangle_at_nonpositive_floor(self, floor):
        psi = continuum_state([0.6, 0.8, 0.0], n_s=2)
        cmat = za.concurrence_matrix(psi, mode_energies=np.array([1., 2., 3.]))
        triplets = cmat.to_sparse_triplets(floor=floor)
        assert len(triplets) == 3  # n (n - 1) / 2 pairs, each once
        assert all(e_k < e_kp for e_k, e_kp, _ in triplets)

    @pytest.mark.parametrize("n_energies", [2, 4], ids=["short", "long"])
    def test_refuses_energies_not_one_per_mode(self, n_energies):
        # a long array would shift the region spans of concurrence.json,
        # a short one fail inside the writer's row formatting
        psi = continuum_state([0.6, 0.8, 0.0], n_s=2)
        with pytest.raises(ValueError, match=rf"{n_energies} mode energies "
                                             r"for 3 continuum modes"):
            za.concurrence_matrix(psi, mode_energies=np.arange(n_energies))

    def test_stores_only_magnitudes(self):
        n_modes, n_s = 40, 25
        rng = np.random.default_rng(7)
        psi = random_single_excitation(rng, n_modes, n_s=n_s)
        energies = np.linspace(1.0, 2.0, n_modes)
        cmat = za.concurrence_matrix(psi, mode_energies=energies)
        arrays = [v for v in vars(cmat).values() if isinstance(v, np.ndarray)]
        assert arrays and all(a.shape == (n_modes,) for a in arrays)
        mags = np.abs(psi.b)
        dense = 2.0 * np.outer(mags, mags)
        off = ~np.eye(n_modes, dtype=bool)
        assert np.array_equal(cmat.C[off], dense[off])
        assert np.all(np.diag(cmat.C) == 0.0)
        assert np.array_equal(cmat.block("S", "P"), dense[:n_s, n_s:])
        assert np.array_equal(cmat.block("P", "S"), dense[n_s:, :n_s])
        assert np.array_equal(cmat.block("P", "P"), cmat.C[n_s:, n_s:])
        rows, cols = np.triu_indices(n_modes, k=1)
        assert np.array_equal(
            cmat.to_sparse_triplets(floor=0.0),
            np.column_stack((energies[rows], energies[cols], dense[rows, cols])))

    def test_cross_region_block_zero_without_drive(self):
        cfg = za.preset_config("li", overrides=[
            "drive.mode=off", "model.N=101", "propagation.T_total=10 fs",
        ])
        res = za.execute(cfg)
        psi = res.trace.final_state
        modes = np.concatenate((res.grid_s.energies, res.grid_p.energies))
        cmat = za.concurrence_matrix(psi, mode_energies=modes)
        assert np.max(cmat.block("S", "P")) == 0.0
        assert np.max(cmat.block("S", "S")) > 0.0

    def test_cross_region_block_nonzero_with_drive(self):
        cfg = za.preset_config("li", overrides=[
            "model.N=101", "propagation.T_total=10 fs",
        ])
        res = za.execute(cfg)
        cmat = za.concurrence_matrix(res.trace.final_state)
        assert np.max(cmat.block("S", "P")) > 1e-6

    def test_block_never_builds_the_dense_matrix(self, monkeypatch):
        n_modes, n_s = 40, 25
        psi = random_single_excitation(np.random.default_rng(11), n_modes,
                                       n_s=n_s)
        cmat = za.concurrence_matrix(psi)
        dense = cmat.C
        sel = {"S": slice(0, n_s), "P": slice(n_s, None)}

        def refuse(_self):
            raise AssertionError("block built the dense matrix")

        monkeypatch.setattr(za.ConcurrenceMatrix, "C", property(refuse))
        for row in "SP":
            for col in "SP":
                assert np.array_equal(cmat.block(row, col),
                                      dense[sel[row], sel[col]])


class TestEmission:
    def test_sparse_csv_and_header(self, tmp_path):
        cfg = za.preset_config("li", overrides=[
            "model.N=51", "propagation.T_total=8 fs",
        ])
        res = za.execute(cfg)
        modes = np.concatenate((res.grid_s.energies, res.grid_p.energies))
        cmat = za.concurrence_matrix(res.trace.final_state,
                                     mode_energies=modes)
        out = za.write_concurrence(cmat, tmp_path / "ent", floor=1e-8)
        lines = (out / "concurrence.csv").read_text().splitlines()
        assert lines[0] == "eps_k_eV,eps_kp_eV,concurrence"
        assert len(lines) - 1 == len(cmat.to_sparse_triplets(1e-8))
        e_k, e_kp, value = (float(x) for x in lines[1].split(","))
        assert e_kp >= e_k
        assert 0.0 < value <= 1.0

        import json
        header = json.loads((out / "concurrence.json").read_text())
        assert header["floor"] == 1e-8
        assert header["time_fs"] == pytest.approx(8.0)
        assert header["regions"]["S"][0] == pytest.approx(50.0)
        assert header["regions"]["P"][1] == pytest.approx(56.5)

    @pytest.mark.parametrize("floor, zero_rows, wide", [
        *(pytest.param(floor, zero_rows, False,
                       id=f"{floor}-zero-rows" if zero_rows else f"{floor}")
          for zero_rows in (0, 40) for floor in (1e-12, 1e-3, 1.0, 0.0, -1.0)),
        *(pytest.param(floor, 0, True, id=f"{floor}-wide")
          for floor in (1e-12, 1e-3, 0.0, -1.0))])
    def test_csv_bytes_match_dense_reference(self, tmp_path, floor, zero_rows,
                                             wide):
        # 400 modes give 79 800 pairs over 399 mode rows; with zero_rows
        # the leading modes are exactly zero, so above a floor of 0 their
        # whole rows emit nothing.  A wide state scales its amplitudes by
        # exp(uniform(-120, 0)): its C cross the switch from 0.000ddd to
        # d.ddde-XX, reach 3-digit exponents and, with the 12 zero modes,
        # exact zeros
        n_modes, n_s = 400, 200
        rng = np.random.default_rng(11)
        data = rng.normal(size=n_modes + 2) + 1j * rng.normal(size=n_modes + 2)
        data[2 + rng.choice(n_modes, size=12, replace=False)] = 0.0
        data[2:2 + zero_rows] = 0.0
        if wide:
            data[2:] *= np.exp(rng.uniform(-120.0, 0.0, size=n_modes))
        data /= np.linalg.norm(data)
        energies = np.sort(rng.uniform(1.5, 2.5, size=n_modes))
        cmat = za.concurrence_matrix(StateVector(data=data, n_s=n_s),
                                     mode_energies=energies)
        # one formatted line per upper-triangle pair, read from the dense
        # matrix
        dense = cmat.C
        rows, cols = np.triu_indices(n_modes, k=1)
        keep = dense[rows, cols] >= floor
        fmt = "%.17g"
        lines = ["eps_k_eV,eps_kp_eV,concurrence"]
        for i, j in zip(rows[keep], cols[keep]):
            lines.append(",".join((fmt % za.au_to_ev(float(energies[i])),
                                   fmt % za.au_to_ev(float(energies[j])),
                                   fmt % float(dense[i, j]))))
        out = za.write_concurrence(cmat, tmp_path, floor=floor)
        written = (out / "concurrence.csv").read_bytes()
        assert written == ("\n".join(lines) + "\n").encode("utf-8")
        if wide and floor <= 0.0:
            values = dense[rows, cols]
            assert np.any(values == 0.0) and np.any(values < 1e-100)
            assert np.any((values >= 1e-4) & (values < 1.0))
            assert np.any((values >= 1e-5) & (values < 1e-4))

    @pytest.mark.parametrize("floor", [math.nan, math.inf, -math.inf])
    def test_refuses_a_floor_that_is_not_finite(self, tmp_path, floor):
        # concurrence.json would hold "floor": nan, which is not JSON
        cmat = za.concurrence_matrix(continuum_state([0.6, 0.0, 0.8], 2))
        with pytest.raises(ValueError, match=rf"floor {floor} is not finite"):
            za.write_concurrence(cmat, tmp_path / "ent", floor=floor)
        assert not (tmp_path / "ent").exists()

    @pytest.mark.parametrize("n_s", [0, 3])
    def test_region_without_modes_is_written_empty(self, tmp_path, n_s):
        # n_s == len(b) leaves the P region empty, n_s == 0 the S region
        import json
        cmat = za.concurrence_matrix(continuum_state([0.6, 0.0, 0.8], n_s),
                                     mode_energies=[1.5, 2.0, 2.5])
        out = za.write_concurrence(cmat, tmp_path, floor=1e-8)
        regions = json.loads((out / "concurrence.json").read_text())["regions"]
        full = [za.au_to_ev(1.5), za.au_to_ev(2.5)]
        assert regions == ({"S": [], "P": full} if n_s == 0
                           else {"S": full, "P": []})
        lines = (out / "concurrence.csv").read_text().splitlines()
        assert len(lines) == 2 and float(lines[1].split(",")[2]) == 0.96

    def test_write_memory_does_not_grow_with_pairs(self, tmp_path):
        # 2N = 2000 modes at floor 0: 1 999 000 triplets, 115 MB of text;
        # a writer that streams mode rows holds one row at a time
        n_modes = 2000
        rng = np.random.default_rng(12)
        data = rng.normal(size=n_modes + 2) + 1j * rng.normal(size=n_modes + 2)
        data /= np.linalg.norm(data)
        cmat = za.concurrence_matrix(
            StateVector(data=data, n_s=n_modes // 2),
            mode_energies=np.linspace(1.5, 2.5, n_modes))
        tracemalloc.start()
        try:
            out = za.write_concurrence(cmat, tmp_path, floor=0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        with open(out / "concurrence.csv", "rb") as handle:
            assert sum(1 for _ in handle) == 1 + n_modes * (n_modes - 1) // 2


def g17_lines(values):
    """The lines that ``_g17_words`` spells, NUL bytes dropped."""
    words = _g17_words(np.asarray(values, dtype=float))
    return [bytes(row[row != 0])
            for row in words.view(np.uint8).reshape(len(words), 32)]


def printf_lines(values):
    return [("%.17g\n" % v).encode() for v in values]


class TestG17Oracle:
    """``_g17_words`` against Python's ``'%.17g'``, byte for byte."""

    @given(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
    def test_any_nonnegative_double(self, x):
        assert g17_lines([x]) == printf_lines([x])

    @given(st.floats(min_value=1e-95, max_value=1.0, exclude_max=True))
    def test_any_double_of_the_numpy_path(self, x):
        assert g17_lines([x]) == printf_lines([x])

    def test_powers_of_ten_within_three_ulps(self):
        powers = np.array([float(f"1e{k}") for k in range(-320, 309)])
        values = [powers]
        for direction in (-np.inf, np.inf):
            near = powers
            for _ in range(3):
                near = np.nextafter(near, direction)
                values.append(near)
        values = np.concatenate(values).tolist()
        assert g17_lines(values) == printf_lines(values)

    def test_exact_decimal_ties_round_to_even(self):
        # t / 2^(q + 1) with t odd and 5^q | t is D + 1/2 at 17 digits
        # (q = 16 - e); Python rounds such a tie to even
        values = []
        for q in range(17, 25):
            low, high = -(-2 * 10**16 // 5**q), 2 * 10**17 // 5**q
            values += [t / 2**(q + 1) for t in range(low | 1, high, 2)[:400]]
        assert g17_lines(values) == printf_lines(values)

    def test_decimal_halfway_points(self):
        rng = np.random.default_rng(29)
        digits = rng.integers(10**16, 10**17, size=2000).tolist()
        powers = rng.integers(-120, 20, size=2000).tolist()
        values = [float(f"{d}5e{k}") for d, k in zip(digits, powers)]
        assert g17_lines(values) == printf_lines(values)

    def test_zero_subnormals_and_three_digit_exponents(self):
        rng = np.random.default_rng(30)
        values = [0.0, 5e-324, 2.2250738585072009e-308, 1e-310,
                  *rng.uniform(0.0, 2.3e-308, size=200).tolist(),
                  *(10.0 ** rng.uniform(-300, -95, size=500)).tolist(),
                  1e-100, 9.9999999999999999e-101, 1.5e-99]
        assert g17_lines(values) == printf_lines(values)

    def test_switch_between_the_two_notations(self):
        # '%.17g' writes 0.000ddd from 1e-4 and d.ddde-05 below, after
        # rounding: 9.99999999999999999e-5 rounds up to 0.0001
        values = []
        for edge in (1e-4, 1e-5):
            near = np.full(1, edge)
            for direction in (-np.inf, np.inf):
                for _ in range(20):
                    near = np.nextafter(near, direction)
                    values.append(float(near[0]))
        values += [1e-4, 1e-5, 9.99999999999999999e-5, 9.9999999999999991e-5,
                   1.2345e-4, 1.2345e-5, 0.5, 0.1, 0.099999999999999992]
        assert g17_lines(values) == printf_lines(values)

    def test_values_of_one_and_above(self):
        values = [1.0, 1.0000000000000002, 2.5, 10.0, 123456789.123,
                  1e16, 1e17, 9007199254740993.0, 1e95, 1e300,
                  1.7976931348623157e308]
        assert g17_lines(values) == printf_lines(values)

    def test_loguniform_spread(self):
        rng = np.random.default_rng(31)
        values = (10.0 ** rng.uniform(-100.0, 0.0, size=20000)).tolist()
        assert g17_lines(values) == printf_lines(values)


class TestWoottersOracle:
    def test_bell_state_concurrence_one(self):
        bell = np.zeros((4, 4), dtype=complex)
        for i in (1, 2):
            for j in (1, 2):
                bell[i, j] = 0.5
        assert za.wootters_concurrence(bell) == pytest.approx(1.0, abs=1e-12)

    def test_product_state_concurrence_zero(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        assert za.wootters_concurrence(rho) == 0.0

    def test_werner_state_threshold(self):
        # Werner mixtures are entangled only above p = 1/3
        bell = np.zeros((4, 4), dtype=complex)
        for i in (1, 2):
            for j in (1, 2):
                bell[i, j] = 0.5 * (-1.0 if i != j else 1.0)
        eye = np.eye(4) / 4.0
        for p, expected in ((0.2, 0.0), (0.6, (3 * 0.6 - 1) / 2)):
            rho = p * bell + (1 - p) * eye
            assert za.wootters_concurrence(rho) == pytest.approx(expected,
                                                                 abs=1e-12)
