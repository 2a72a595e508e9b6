import math

import numpy as np
import pytest

import zenoauger as za
from zenoauger.observables import ObservableTrace, Spectrum
from zenoauger.propagator import StateVector


def make_state(a1=0.0, a2=0.0, b=(), n_s=0):
    b = np.asarray(b, dtype=complex)
    data = np.concatenate(([a1, a2], b)).astype(complex)
    return StateVector(data=data, n_s=n_s)


def synthetic_trace(times, p_bound):
    return ObservableTrace(
        times=times, n_c=1.0 - p_bound, P1=p_bound, P2=np.zeros_like(times),
        cycle_flags=np.zeros_like(times, dtype=bool))


class TestOrbitalPopulations:
    def test_fast_decayer_occupations(self):
        n_c, n_v1, n_v2, n_v3, _ = za.orbital_populations(make_state(a1=1.0))
        assert (n_c, n_v1, n_v2, n_v3) == (0.0, 1.0, 1.0, 0.0)

    def test_continuum_state_occupations(self):
        psi = make_state(b=[0.0, 1.0, 0.0], n_s=3)
        n_c, n_v1, n_v2, n_v3, n_modes = za.orbital_populations(psi)
        assert n_c == 1.0
        assert n_v1 == n_v2 == n_v3 == 0.0
        assert list(n_modes) == [0.0, 1.0, 0.0]

    def test_bound_superposition(self):
        s = 1.0 / math.sqrt(2.0)
        n_c, n_v1, n_v2, n_v3, _ = za.orbital_populations(
            make_state(a1=s, a2=s))
        assert n_v1 == pytest.approx(1.0)
        assert n_v2 == pytest.approx(0.5)
        assert n_v3 == pytest.approx(0.5)
        assert n_c == 0.0


class TestFitLifetime:
    def test_exact_exponential_recovered(self):
        tau = za.fs_to_au(50.0)
        times = np.linspace(0.0, 6.0 * tau, 400)
        fit = za.fit_lifetime(synthetic_trace(times, np.exp(-times / tau)))
        assert fit.tau_eff == pytest.approx(tau, rel=1e-6)
        assert fit.tau_one_over_e == pytest.approx(tau, rel=1e-3)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.accepted

    def test_non_exponential_flagged_not_fatal(self):
        tau = 100.0
        times = np.linspace(0.0, 4.0 * tau, 300)
        fit = za.fit_lifetime(synthetic_trace(times,
                                              np.exp(-((times / tau) ** 2))))
        assert not fit.accepted
        assert fit.r_squared < 0.98
        assert math.isfinite(fit.tau_eff)

    def test_no_decay_gives_infinite_lifetime(self):
        times = np.linspace(0.0, 100.0, 50)
        fit = za.fit_lifetime(synthetic_trace(times, np.ones_like(times)))
        assert math.isinf(fit.tau_eff)
        assert math.isinf(fit.tau_one_over_e)

    def test_envelope_uses_cycle_boundaries_when_pulsed(self):
        # corrupt the non-boundary samples; envelope fit must ignore them
        tau = 200.0
        times = np.linspace(0.0, 5.0 * tau, 501)
        clean = np.exp(-times / tau)
        noisy = clean * (1.0 + 0.3 * np.sin(40.0 * times / tau))
        trace = synthetic_trace(times, noisy)
        flags = np.zeros_like(times, dtype=bool)
        flags[::25] = True
        noisy[flags] = clean[flags]
        trace.cycle_flags = flags
        fit = za.fit_lifetime(trace)
        assert fit.tau_eff == pytest.approx(tau, rel=1e-6)


class TestLineshape:
    def test_nothing_emitted_at_time_zero(self, li_baseline):
        trace = li_baseline.trace
        # re-run not needed: emission at t=0 is identically zero by
        # construction of the initial state
        assert trace.P_bound[0] == 1.0

    def test_total_weight_complements_bound_population(self):
        cfg = za.preset_config("li", overrides=[
            "model.N=201", "propagation.T_total=10 fs",
            "propagation.spectrum_snapshot_times=5 fs",
        ])
        res = za.execute(cfg)
        trace = res.trace
        spec = za.lineshape(trace, za.fs_to_au(5.0))
        idx = np.argmin(np.abs(trace.times - za.fs_to_au(5.0)))
        assert np.sum(spec.A_s) + np.sum(spec.A_p) == pytest.approx(
            1.0 - trace.P_bound[idx], abs=1e-9)

    def test_nearest_snapshot_returned(self):
        cfg = za.preset_config("li", overrides=[
            "model.N=201", "propagation.T_total=20 fs",
            "propagation.spectrum_snapshot_times=19.99999 fs",
        ])
        trace = za.execute(cfg).trace
        early, final = (psi.time_stamp for psi in trace.states)
        assert early < final == trace.T
        assert za.lineshape(trace, trace.T).time == final
        assert za.lineshape(trace, early).time == early

    def test_missing_snapshot_is_informative(self, li_baseline):
        with pytest.raises(ValueError, match="snapshot"):
            za.lineshape(li_baseline.trace, za.fs_to_au(33.33))

    def test_field_free_long_time_lorentzian(self):
        tau_fs = 6.0
        cfg = za.preset_config("li", overrides=[
            "drive.mode=off", f"model.tau1={tau_fs} fs", "model.tau2=inf",
            "model.N=801", "model.W=2.5 eV",
            "propagation.T_total=70 fs",
        ])
        res = za.execute(cfg)
        spec = za.lineshape(res.trace, res.trace.T)
        peaks = za.find_peaks(spec, noise_floor=1e-3)
        s_peaks = [p for p in peaks if p.region == "S"]
        assert len(s_peaks) == 1
        peak = s_peaks[0]
        assert peak.position == pytest.approx(za.ev_to_au(52.0),
                                              abs=spec.d_eps_s)
        hbar_over_tau = 1.0 / za.fs_to_au(tau_fs)
        assert peak.width == pytest.approx(hbar_over_tau, rel=0.10)


class TestFindPeaks:
    @staticmethod
    def double_lorentzian_spectrum(split, gamma=0.02, d_eps=0.002):
        energies = np.arange(1.0, 1.5, d_eps)
        centers = (1.25 - split / 2, 1.25 + split / 2)
        dens = sum((gamma / 2) ** 2 / ((energies - c) ** 2 + (gamma / 2) ** 2)
                   for c in centers)
        a = dens * d_eps
        return Spectrum(time=0.0, energies_s=energies, A_s=a,
                        energies_p=np.array([]), A_p=np.array([]),
                        d_eps_s=d_eps, d_eps_p=1.0)

    def test_positions_refined_below_grid(self):
        spec = self.double_lorentzian_spectrum(split=0.1603)
        peaks = za.find_peaks(spec)
        assert len(peaks) == 2
        split = peaks[1].position - peaks[0].position
        assert split == pytest.approx(0.1603, abs=0.5 * spec.d_eps_s)

    def test_noise_floor_suppresses_small_features(self):
        spec = self.double_lorentzian_spectrum(split=0.3)
        # tiny bump far in the tail
        spec.A_s[10] *= 1.5
        peaks = za.find_peaks(spec, noise_floor=1e-2)
        assert len(peaks) == 2

    def test_empty_spectrum_no_peaks(self):
        spec = Spectrum(time=0.0, energies_s=np.linspace(1, 2, 50),
                        A_s=np.zeros(50), energies_p=np.array([]),
                        A_p=np.array([]), d_eps_s=0.02, d_eps_p=1.0)
        assert za.find_peaks(spec) == []

    def test_pairwise_splittings_per_region(self):
        peaks = [za.Peak("S", 1.0, 1.0, 0.1), za.Peak("S", 1.4, 1.0, 0.1),
                 za.Peak("P", 2.0, 0.5, 0.1), za.Peak("P", 2.3, 0.5, 0.1),
                 za.Peak("P", 2.9, 0.5, 0.1)]
        spl = za.stark_splittings(peaks)
        assert spl["S"] == pytest.approx([0.4])
        assert spl["P"] == pytest.approx([0.3, 0.9, 0.6])


class TestZenoPhaseScan:
    def test_off_point_recovers_bare_lifetime(self):
        cfg = za.preset_config("li", overrides=[
            "model.N=301", "model.tau1=8 fs", "model.tau2=inf",
            "propagation.T_total=30 fs",
        ])
        values = [0.0, za.ev_to_au(0.4) ** 2, za.ev_to_au(0.6) ** 2]
        rows = za.zeno_phase_scan(cfg, "Omega2", values)
        assert len(rows) == 3
        assert za.au_to_fs(rows[0]["tau_eff"]) == pytest.approx(8.0, rel=0.05)
        # driving the transition can only slow this decay down
        assert rows[1]["tau_eff"] > rows[0]["tau_eff"]
        assert rows[2]["tau_eff"] > rows[1]["tau_eff"]

    def test_requires_three_points(self):
        cfg = za.preset_config("li")
        with pytest.raises(ValueError):
            za.zeno_phase_scan(cfg, "Omega2", [0.0, 1.0])

    def test_plans_every_point_before_running_any(self, monkeypatch):
        cfg = za.preset_config("li", overrides=[
            "model.N=101", "propagation.T_total=6 fs",
        ])
        runs = []
        execute = za.config.execute
        monkeypatch.setattr(za.config, "execute",
                            lambda point: runs.append(point) or execute(point))
        values = [za.fs_to_au(t) for t in (0.2, 0.3, -0.1)]
        with pytest.raises(ValueError, match="t_m"):
            za.zeno_phase_scan(cfg, "t_m", values)
        assert runs == []  # the negative t_m is refused up front


class TestRwaAgreement:
    def test_lifetimes_agree_at_weak_coupling(self):
        # (hbar Omega)^2 = 1 eV^2 against a 10 eV carrier: the
        # rotating-wave and full-field effective lifetimes agree to 5%
        overrides = ["model.N=1001", "propagation.T_total=400 fs",
                     "propagation.sample_stride=1 fs",
                     "propagation.dt_max=0.42743545175798071 au"]
        taus = {}
        for mode in ("pulsed", "rwa_pulsed"):
            cfg = za.preset_config("fig3_circles",
                                   overrides=overrides + [f"drive.mode={mode}"])
            taus[mode] = za.execute(cfg).fit.tau_eff
        rel = abs(taus["pulsed"] - taus["rwa_pulsed"]) / taus["rwa_pulsed"]
        assert rel < 0.05


class TestTraceChecks:
    def test_core_population_monotone_field_free(self, li_baseline):
        assert np.all(np.diff(li_baseline.trace.n_c) >= -1e-12)

    def test_populations_bounded(self, li_baseline):
        trace = li_baseline.trace
        for arr in (trace.n_c, trace.n_v1, trace.n_v2, trace.n_v3,
                    trace.P_bound):
            assert np.all(arr >= -1e-12)
            assert np.all(arr <= 1.0 + 1e-9)

    def test_stable_partner_region_never_populated(self):
        # tau2 = inf and no drive: P block has nothing to couple to
        cfg = za.preset_config("li", overrides=[
            "drive.mode=off", "model.tau2=inf", "model.N=201",
            "propagation.T_total=20 fs",
        ])
        res = za.execute(cfg)
        final = res.trace.final_state
        assert np.max(np.abs(final.b_p)) == 0.0
        assert abs(final.a2) == 0.0
