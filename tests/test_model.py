import math

import numpy as np
import pytest
import scipy.sparse
from scipy.optimize import curve_fit

import zenoauger as za
import zenoauger.model as model
from zenoauger.cli import main
from zenoauger.model import arrowhead_eigensystem, density_of_states

from conftest import random_state, small_system


class TestLifetimeToCoupling:
    def test_infinite_lifetime_no_decay(self):
        assert za.lifetime_to_coupling(math.inf, 1.0) == 0.0

    def test_doubling_density_halves_m_squared(self):
        m1 = za.lifetime_to_coupling(500.0, 1.0)
        m2 = za.lifetime_to_coupling(500.0, 2.0)
        assert m2**2 == pytest.approx(0.5 * m1**2, rel=1e-12)

    def test_lithium_value(self):
        # golden rule at tau = 17.6 fs = 727.608 a.u. with rho = 1
        m = za.lifetime_to_coupling(za.fs_to_au(17.6), 1.0)
        assert m == pytest.approx(0.01478976429997465, rel=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            za.lifetime_to_coupling(-1.0, 1.0)
        with pytest.raises(ValueError):
            za.lifetime_to_coupling(1.0, 0.0)


class TestBuildGrid:
    def test_flat_density_gives_equal_couplings(self):
        grid = za.build_grid("S", 1.0, 0.2, 51, 2, 100.0)
        assert np.ptp(grid.couplings) == 0.0

    def test_center_coupling_is_m_times_sqrt_spacing(self):
        tau = za.fs_to_au(17.6)
        grid = za.build_grid("S", 2.0, 0.1, 41, 1, tau)
        m = za.lifetime_to_coupling(tau, 1.0)
        center = grid.couplings[20]  # odd grid, midpoint at the center
        assert center == pytest.approx(m * math.sqrt(grid.d_eps), rel=1e-12)

    def test_spacing_and_recurrence_time(self):
        grid = za.build_grid("S", za.ev_to_au(52.0), za.ev_to_au(2.0), 801,
                             1, za.fs_to_au(17.6))
        assert za.au_to_ev(grid.d_eps) == pytest.approx(0.005, rel=1e-12)
        assert za.au_to_fs(grid.recurrence_time) == pytest.approx(
            827.1334202321211, rel=1e-10)

    def test_energies_strictly_increasing_and_positive(self):
        grid = za.build_grid("P", 1.5, 0.5, 101, 3, 200.0)
        assert np.all(np.diff(grid.energies) > 0)
        assert np.all(grid.energies > 0)

    def test_window_must_stay_above_threshold(self):
        with pytest.raises(ValueError):
            za.build_grid("S", 1.0, 1.0, 51, 1, 100.0)
        with pytest.raises(ValueError):
            za.build_grid("S", 1.0, 0.2, 2, 1, 100.0)

    def test_infinite_lifetime_zero_couplings(self):
        grid = za.build_grid("P", 1.0, 0.3, 51, 1, math.inf)
        assert np.all(grid.couplings == 0.0)


class TestAssemble:
    def test_dimension_counts(self):
        _, grid_s, grid_p, ham = small_system(n_points=63)
        assert ham.dimension == 2 + len(grid_s.energies) + len(grid_p.energies)

    def test_hermitian_by_construction(self):
        _, _, _, ham = small_system(n_points=31)
        dense = ham.dense(0.3 + 0.1j)
        assert np.max(np.abs(dense - dense.conj().T)) == 0.0

    def test_arrowhead_matches_dense_product(self):
        _, _, _, ham = small_system(n_points=63)
        for seed, g in ((0, 0.0), (1, 0.02), (2, 0.01 - 0.03j)):
            v = random_state(ham, seed)
            direct = ham.apply(v.copy(), g)
            assert np.max(np.abs(direct - ham.dense(g) @ v)) < 1e-13

    def test_grid_center_mismatch_rejected(self):
        levels, grid_s, _, _ = small_system()
        wrong = za.build_grid("P", levels.epsA2 * 1.1, za.ev_to_au(3.0),
                              63, 1, levels.tau2)
        with pytest.raises(ValueError):
            za.assemble(levels, grid_s, wrong)

    def test_resonance_width_from_dense_eigensolver(self):
        # Strength function of |1> over the eigenstates of the static
        # Hamiltonian is a Lorentzian whose squared half-width is
        # (Gamma/2)^2 + m^2: the per-level coupling m adds the discrete
        # level repulsion on top of the decay width Gamma = 1/tau1.
        tau1 = za.fs_to_au(8.0)
        levels = za.LevelScheme(E1=za.ev_to_au(35.0), E2=za.ev_to_au(45.0),
                                eps_c=0.0, tau1=tau1, tau2=math.inf)
        grid_s = za.build_grid("S", levels.epsA1, za.ev_to_au(4.0), 1801, 1,
                               tau1)
        grid_p = za.build_grid("P", levels.epsA2, za.ev_to_au(4.0), 51, 1,
                               math.inf)
        ham = za.assemble(levels, grid_s, grid_p)
        evals, evecs = np.linalg.eigh(ham.dense(0.0))
        weight = np.abs(evecs[0]) ** 2
        sel = np.abs(evals - levels.E1) < za.ev_to_au(0.3)

        def lorentz(e, center, gamma, amp):
            return amp * (gamma / 2) ** 2 / ((e - center) ** 2 + (gamma / 2) ** 2)

        p0 = (levels.E1, 1.0 / tau1, weight[sel].max())
        popt, _ = curve_fit(lorentz, evals[sel], weight[sel], p0=p0)
        m_center = za.lifetime_to_coupling(tau1, 1.0) * math.sqrt(grid_s.d_eps)
        gamma = 2.0 * math.sqrt((popt[1] / 2) ** 2 - m_center**2)
        assert gamma == pytest.approx(1.0 / tau1, rel=0.02)


class TestStaticCSR:
    """``static_csr.dot`` calls scipy's private ``csr_matvec`` directly; it
    must give the bits of ``scipy.sparse.csr_matrix.dot``, so a scipy that
    moves or changes that kernel fails here."""

    @staticmethod
    def reference(ham):
        n, n_s = ham.dimension, ham.n_s
        s_idx = list(range(2, 2 + n_s))
        p_idx = list(range(2 + n_s, n))
        rows = list(range(n)) + [0] * n_s + s_idx + [1] * ham.n_p + p_idx
        cols = list(range(n)) + s_idx + [0] * n_s + p_idx + [1] * ham.n_p
        vals = np.concatenate((ham.diag, ham.m_s, ham.m_s, ham.m_p,
                               ham.m_p)).astype(complex)
        return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))

    @pytest.fixture(scope="class", params=["small", "li_plus", "li"])
    def ham(self, request):
        if request.param == "small":
            return small_system(n_points=63)[3]
        p = za.plan(za.preset_config(request.param))
        return za.assemble(p.levels, p.grid_s, p.grid_p)

    def test_arrays_match_scipy(self, ham):
        mat, ref = ham.static_csr, self.reference(ham)
        assert mat.shape == ref.shape == (ham.dimension, ham.dimension)
        for name in ("data", "indices", "indptr"):
            got, want = getattr(mat, name), getattr(ref, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name

    @pytest.mark.parametrize("kind", ["complex", "real", "strided"])
    def test_dot_is_bit_identical_to_scipy(self, ham, kind):
        rng = np.random.default_rng(7)
        n = ham.dimension
        wide = rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)
        v = {"complex": wide[:n].copy(), "real": wide.real[:n].copy(),
             "strided": wide[::2]}[kind]
        assert v.flags.c_contiguous == (kind != "strided")
        got, want = ham.static_csr.dot(v), self.reference(ham).dot(v)
        assert got.dtype == want.dtype == np.complex128
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_dot_refuses_a_wrong_shape(self, ham):
        n = ham.dimension
        for v in (np.zeros(n + 1, complex), np.zeros((n, 1), complex)):
            with pytest.raises(ValueError, match=f"length {n}"):
                ham.static_csr.dot(v)


def arrowhead_block(name):
    """(alpha, d, z) of one test block of the arrowhead eigensystem tests."""
    rng = np.random.default_rng(16)
    d = np.sort(rng.normal(size=60))
    z = 0.1 * rng.normal(size=60)
    if name == "random":
        return 0.3, d, z
    if name == "clustered":  # poles 1e-9 and 1e-13 apart
        d = np.sort(np.concatenate((rng.normal(size=20),
                                    1.0 + 1e-9 * np.arange(20),
                                    2.0 + 1e-13 * np.arange(10))))
        return 1.0, d, 0.1 * rng.normal(size=50)
    if name == "tiny":
        z[::3] *= 1e-10
        z[5], z[7] = 1e-14, 1e-17
        return 0.3, d, z
    if name == "zero":
        z[::4] = 0.0
        return 0.3, d, z
    if name == "one pole":
        return 0.3, d[:1], z[:1]
    preset, block = name.split()
    p = za.plan(za.preset_config(preset))
    ham = za.assemble(p.levels, p.grid_s, p.grid_p)
    if block == "S":
        return ham.diag[0], ham.diag[ham.s_block], ham.m_s
    return ham.diag[1], ham.diag[ham.p_block], ham.m_p


def formula_eigenvectors(eig):
    """Q written out column by column from (q0, origin, mu): q0_j times
    (1, z_k/((d_origin - d_k) + mu_j)), or e_k for an uncoupled pole."""
    n = len(eig.d)
    q = np.zeros((n + 1, n + 1))
    for j in range(n + 1):
        if eig.q0[j] == 0.0:
            q[1 + eig.origin[j], j] = 1.0
            continue
        q[0, j] = eig.q0[j]
        coupled = eig.z != 0.0
        gaps = (eig.d[eig.origin[j]] - eig.d[coupled]) + eig.mu[j]
        q[1 + np.flatnonzero(coupled), j] = eig.q0[j] * eig.z[coupled] / gaps
    return q


def dense_block(alpha, d, z):
    n = len(d)
    h = np.zeros((n + 1, n + 1))
    h[0, 0] = alpha
    h[0, 1:] = h[1:, 0] = z
    h[np.arange(1, n + 1), np.arange(1, n + 1)] = d
    return h


class TestArrowheadEigensystem:
    """The secular-equation eigensystem against numpy.linalg.eigh, and
    its Cauchy transforms against dense eigenvector matrices."""

    BLOCKS = ["random", "clustered", "tiny", "zero", "one pole", "li S",
              "li P", "fig4 S", "li_plus P"]

    @pytest.mark.parametrize("name", BLOCKS)
    def test_matches_dense_eigensolver(self, name):
        alpha, d, z = arrowhead_block(name)
        eig = arrowhead_eigensystem(alpha, d, z)
        h = dense_block(alpha, d, z)
        evals, evecs = np.linalg.eigh(h)
        order = np.argsort(eig.lam, kind="stable")
        scale = max(1.0, np.max(np.abs(evals)))
        assert np.max(np.abs(eig.lam[order] - evals)) < 4e-15 * scale
        assert np.max(np.abs(eig.q0[order] - np.abs(evecs[0]))) < 1e-11
        assert np.all(eig.q0 >= 0.0)
        q = formula_eigenvectors(eig)
        identity = np.eye(len(h))
        assert np.max(np.abs(q.T @ q - identity)) < 1e-13
        assert np.max(np.abs(q @ np.diag(eig.lam) @ q.T - h)) < 1e-14 * scale

    @pytest.mark.parametrize("name", ["random", "zero", "li S", "li_plus P"])
    def test_transforms_match_dense_eigenvectors(self, name):
        # eigh's eigenvectors, signed as the formula signs them: q0 > 0,
        # or +1 on the pole of an uncoupled one
        alpha, d, z = arrowhead_block(name)
        eig = arrowhead_eigensystem(alpha, d, z)
        evals, evecs = np.linalg.eigh(dense_block(alpha, d, z))
        q = evecs[:, np.argsort(np.argsort(eig.lam, kind="stable"))]
        lead = np.where(eig.q0 > 0.0, 0, 1 + eig.origin)
        q *= np.sign(q[lead, np.arange(len(lead))])
        rng = np.random.default_rng(3)
        c = rng.normal(size=(len(d) + 1, 5)) + 1j * rng.normal(
            size=(len(d) + 1, 5))
        c /= np.linalg.norm(c, axis=0)  # unit states
        assert np.max(np.abs(eig.sites(c) - q @ c)) < 1e-12
        assert np.max(np.abs(eig.coefficients(c) - q.T @ c)) < 1e-12
        assert np.max(np.abs(eig.sites(c[:, 0]) - q @ c[:, 0])) < 1e-12
        assert np.array_equal(eig.sites(np.asfortranarray(c)), eig.sites(c))
        assert np.max(np.abs(eig.coefficients(eig.sites(c)) - c)) < 1e-12
        # the transforms return new arrays and leave their input alone
        before = c.copy()
        assert not np.shares_memory(eig.sites(c), c)
        assert not np.shares_memory(eig.coefficients(c), c)
        assert np.array_equal(c, before)

    @pytest.mark.parametrize("name", ["random", "zero", "li S", "li P"])
    def test_empty_continuum_skips_the_cauchy_pass_bit_for_bit(self, name):
        # the bound state alone (|1> in its block, |2> in its own) and the
        # zero vector (the other block of either) give the bits of the
        # full Cauchy loop, which adds only signed zeros to +0
        alpha, d, z = arrowhead_block(name)
        eig = arrowhead_eigensystem(alpha, d, z)
        n_roots, _, uncoupled = eig._layout
        bound = np.zeros(len(d) + 1, dtype=complex)
        bound[0] = 0.6 - 0.8j
        for x in (bound, np.zeros_like(bound)):
            acc = np.zeros((n_roots, 2))
            for chunk, inv in eig._inverse_gaps():
                weighted = z[chunk, None] * x[1 + chunk, None]
                acc += inv.T @ weighted.view(float)
            full = np.empty_like(x)
            full[:n_roots] = eig.q0[:n_roots] * (x[0] + acc.view(complex)[:, 0])
            full[n_roots:] = x[1 + uncoupled]
            assert np.array_equal(eig.coefficients(x).view(np.uint64),
                                  full.view(np.uint64))

    def test_uncoupled_block_is_the_identity(self):
        # tau2 = inf: the P block of fig3_circles has no coupling
        alpha, d, z = arrowhead_block("fig3_circles P")
        assert not np.any(z)
        eig = arrowhead_eigensystem(alpha, d, z)
        assert np.array_equal(eig.lam, np.concatenate(([alpha], d)))
        assert np.array_equal(eig.q0, np.eye(len(d) + 1)[0])
        c = np.random.default_rng(4).normal(size=(len(d) + 1, 2)) + 0j
        assert np.array_equal(eig.sites(c), c)
        assert np.array_equal(eig.coefficients(c), c)

    def test_block_without_continuum_is_one_by_one(self):
        eig = arrowhead_eigensystem(0.7, np.zeros(0), np.zeros(0))
        assert eig.lam.tolist() == [0.7] and eig.q0.tolist() == [1.0]
        assert eig.sites(np.array([0.5 - 2j])).tolist() == [0.5 - 2j]

    def test_hamiltonian_caches_its_two_blocks(self):
        _, _, _, ham = small_system(n_points=31)
        eig_s, eig_p = ham.eigensystems
        assert ham.eigensystems[0] is eig_s
        assert eig_s.lam[0] < ham.diag[0] < eig_s.lam[-1]
        assert np.array_equal(eig_p.d, ham.diag[ham.p_block])

    def test_refuses_unordered_poles(self):
        with pytest.raises(ValueError, match="increase strictly"):
            arrowhead_eigensystem(0.0, [1.0, 1.0], [0.1, 0.1])
        with pytest.raises(ValueError, match="shapes"):
            arrowhead_eigensystem(0.0, [1.0, 2.0], [0.1])


@pytest.fixture
def solves(monkeypatch):
    """The secular solves made after the memo is emptied, one entry (the
    number of coupled poles) per solve."""
    model._solve_block.cache_clear()
    made = []
    roots = model._secular_roots

    def counting(alpha, d, z):
        made.append(len(d))
        return roots(alpha, d, z)

    monkeypatch.setattr(model, "_secular_roots", counting)
    yield made
    model._solve_block.cache_clear()


class TestEigensystemMemo:
    """Each distinct block is solved once per process, and the memo's
    eigensystems are safe to share between runs."""

    FAST = ["model.N=201", "propagation.T_total=20 fs"]

    def test_field_free_run_reuses_the_driven_runs_blocks(self, solves):
        za.execute(za.preset_config("li", self.FAST))
        za.execute(za.preset_config("li", [*self.FAST, "drive.mode=off"]))
        assert solves == [201, 201]

    def test_sweep_solves_its_model_once(self, solves, tmp_path):
        overrides = [arg for key in self.FAST for arg in ("--override", key)]
        assert main(["sweep", "--preset", "li", *overrides, "--out",
                     str(tmp_path / "sweep"), "--axis", "t_m", "--values",
                     "0.2,0.3,0.4", "--workers", "1"]) == 0
        assert solves == [201, 201]

    def test_results_are_read_only(self):
        eig = arrowhead_eigensystem(*arrowhead_block("random"))
        for name in ("lam", "q0", "origin", "mu", "d", "z"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(eig, name)[0] = 1.0

    def test_results_share_no_memory_with_the_hamiltonian(self):
        _, _, _, ham = small_system(n_points=31)
        for eig in ham.eigensystems:
            for ours in (eig.d, eig.z):
                for theirs in (ham.diag, ham.m_s, ham.m_p):
                    assert not np.shares_memory(ours, theirs)

    def test_keyed_by_exact_content(self, solves):
        alpha, d, z = arrowhead_block("random")
        first = arrowhead_eigensystem(alpha, d, z)
        assert arrowhead_eigensystem(alpha, d.copy(), list(z)) is first
        moved = d.copy()
        moved[30] = np.nextafter(moved[30], np.inf)
        assert arrowhead_eigensystem(alpha, moved, z) is not first
        assert arrowhead_eigensystem(0.0, d, z) is not arrowhead_eigensystem(
            -0.0, d, z)
        assert solves == [60, 60, 60, 60]

    def test_memo_is_bounded(self, solves):
        alpha, d, z = arrowhead_block("random")
        for k in range(model._EIGENSYSTEM_MEMO + 3):
            arrowhead_eigensystem(alpha + k, d, z)
        info = model._solve_block.cache_info()
        assert info.currsize == info.maxsize == model._EIGENSYSTEM_MEMO
        assert len(solves) == model._EIGENSYSTEM_MEMO + 3


class TestRotatingFrame:
    def test_shifts_partner_level_and_p_block_only(self):
        _, _, _, ham = small_system(n_points=31)
        omega = za.ev_to_au(10.0)
        rot = za.rotating_frame(ham, omega)
        assert rot.diag[0] == ham.diag[0]
        assert rot.diag[1] == pytest.approx(ham.diag[1] - omega)
        assert np.allclose(rot.diag[rot.s_block], ham.diag[ham.s_block])
        assert np.allclose(rot.diag[rot.p_block], ham.diag[ham.p_block] - omega)


class TestLevelScheme:
    def test_derived_quantities(self):
        levels = za.LevelScheme(E1=1.9, E2=2.0, eps_c=0.05, tau1=100.0)
        assert levels.epsA1 == pytest.approx(1.85)
        assert levels.epsA2 == pytest.approx(1.95)

    def test_rejects_nonpositive_emission_energy(self):
        with pytest.raises(ValueError):
            za.LevelScheme(E1=0.1, E2=2.0, eps_c=0.2, tau1=100.0)

    def test_rejects_nonpositive_lifetime(self):
        with pytest.raises(ValueError):
            za.LevelScheme(E1=1.0, E2=2.0, eps_c=0.0, tau1=0.0)


class TestValidateResolution:
    def test_lithium_default_grid(self):
        grid = za.build_grid("S", za.ev_to_au(52.0), za.ev_to_au(2.0), 801,
                             1, za.fs_to_au(17.6))
        report = za.validate_resolution(grid, za.fs_to_au(100.0),
                                        za.fs_to_au(17.6))
        # recurrence-safe, but 7.48 points per linewidth misses the
        # 10-point rule: run allowed, named diagnostic emitted
        assert not report.linewidth_ok
        assert report.points_per_linewidth == pytest.approx(7.4797, rel=1e-4)
        assert report.recurrence_time == grid.recurrence_time
        assert len(report.diagnostics) == 1
        assert "linewidth" in report.diagnostics[0]

    def test_recurrence_violation_is_hard(self):
        grid = za.build_grid("S", za.ev_to_au(52.0), za.ev_to_au(2.0), 801,
                             1, za.fs_to_au(17.6))
        with pytest.raises(ValueError, match=r"recurrence bound violated in "
                           r"region S: .* fs exceeds T_rec = .* fs; "
                           r"decrease d_eps"):
            za.validate_resolution(grid, za.fs_to_au(700.0), za.fs_to_au(17.6))

    def test_fine_grid_passes_linewidth_rule(self):
        grid = za.build_grid("S", za.ev_to_au(52.0), za.ev_to_au(2.0), 20001,
                             1, za.fs_to_au(17.6))
        report = za.validate_resolution(grid, za.fs_to_au(100.0),
                                        za.fs_to_au(17.6))
        assert report.linewidth_ok
        assert report.diagnostics == ()


class TestGoldenRuleConsistency:
    @pytest.mark.parametrize("tau_fs,n_points", [(12.0, 401), (25.0, 601)])
    def test_field_free_decay_matches_lifetime(self, tau_fs, n_points):
        # window of 15 linewidths, propagation from |1>, fitted lifetime
        # within 5% of the golden-rule target
        tau = za.fs_to_au(tau_fs)
        window = 15.0 / tau
        cfg = za.preset_config("li", overrides=[
            "drive.mode=off",
            f"model.tau1={tau_fs} fs",
            "model.tau2=inf",
            f"model.W={za.au_to_ev(window):.6f} eV",
            f"model.N={n_points}",
            f"propagation.T_total={3.5 * tau_fs:.3f} fs",
        ])
        result = za.execute(cfg)
        assert za.au_to_fs(result.fit.tau_eff) == pytest.approx(tau_fs,
                                                                rel=0.05)

    def test_density_exponent_insensitivity(self):
        taus = []
        for exponent in (1, 2, 3):
            cfg = za.preset_config("li", overrides=[
                "drive.mode=off", "model.N=601",
                f"model.n_exponent={exponent}",
                "propagation.T_total=60 fs",
            ])
            taus.append(za.execute(cfg).fit.tau_eff)
        assert (max(taus) - min(taus)) / min(taus) < 0.03


def test_density_profile_exponents():
    eps = np.array([0.25, 1.0, 4.0])
    assert np.allclose(density_of_states(eps, 1), eps**-0.5)
    assert np.allclose(density_of_states(eps, 2), np.ones(3))
    assert np.allclose(density_of_states(eps, 3), eps**0.5)
