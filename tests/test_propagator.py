import math

import numpy as np
import pytest
import scipy.linalg

import zenoauger as za
import zenoauger.propagator as prop
from zenoauger.drive import build_schedule, coupling_at
from zenoauger.model import rotating_frame

from conftest import random_state, small_system


def make_schedule(T, mode="pulsed", Omega_ev=1.0, omega_ev=10.0, t_m_fs=0.32,
                  **kwargs):
    return build_schedule(za.ev_to_au(Omega_ev), za.ev_to_au(omega_ev), 0.0,
                          za.fs_to_au(t_m_fs), 0.0, mode, T, **kwargs)


class TestStep:
    def test_vanishing_step_is_identity(self):
        _, _, _, ham = small_system(n_points=31)
        sched = make_schedule(100.0)
        psi = prop.initial_state(ham)
        out = prop.step(psi, 0.1, 1e-12, ham, sched)
        assert np.max(np.abs(out.data - psi.data)) < 1e-11

    @pytest.mark.parametrize("n_points,seed", [(31, 0), (63, 1)])
    def test_matches_dense_exponential(self, n_points, seed):
        # dims 64 and 128 against scipy's dense expm at the same midpoint
        _, _, _, ham = small_system(n_points=n_points)
        sched = make_schedule(900.0)
        vec = random_state(ham, seed)
        t, dt = 3.7, 0.8
        g = coupling_at(sched, t + dt / 2)
        exact = scipy.linalg.expm(-1j * dt * ham.dense(g)) @ vec
        out = prop.step(prop.StateVector(vec.copy(), ham.n_s, t), t, dt,
                        ham, sched, residual_tol=1e-12)
        assert np.max(np.abs(out.data - exact)) < 1e-10

    def test_multi_step_field_free_against_dense(self):
        _, _, _, ham = small_system(n_points=31)
        sched = build_schedule(0.0, 0.0, 0.0, 0.0, 0.0, "off", 500.0)
        vec = random_state(ham, 2)
        T = 400.0
        exact = scipy.linalg.expm(-1j * T * ham.dense(0.0)) @ vec
        out = prop.evolve_interval(vec.copy(), 0.0, T, ham, sched, 25.0,
                                   residual_tol=1e-12)
        assert np.max(np.abs(out - exact)) < 1e-9

    def test_stationary_state_only_rotates(self):
        _, _, _, ham = small_system(n_points=31)
        sched = build_schedule(0.0, 0.0, 0.0, 0.0, 0.0, "off", 500.0)
        evals, evecs = np.linalg.eigh(ham.dense(0.0))
        vec = evecs[:, 10].astype(complex)
        out = prop.evolve_interval(vec.copy(), 0.0, 50.0, ham, sched, 10.0)
        assert np.max(np.abs(np.abs(out) ** 2 - np.abs(vec) ** 2)) < 1e-13

    def test_norm_preserved_per_step(self):
        _, _, _, ham = small_system(n_points=63)
        sched = make_schedule(900.0)
        vec = random_state(ham, 4)
        out = prop.step(prop.StateVector(vec, ham.n_s, 0.0), 0.2, 0.6,
                        ham, sched)
        assert abs(np.linalg.norm(out.data) - 1.0) < 1e-12

    def test_rejects_nonpositive_dt(self):
        _, _, _, ham = small_system(n_points=31)
        sched = make_schedule(100.0)
        with pytest.raises(ValueError):
            prop.step(prop.initial_state(ham), 0.0, 0.0, ham, sched)

    def test_nonconvergence_raises_named_diagnostic(self, monkeypatch):
        _, _, _, ham = small_system(n_points=31)
        sched = make_schedule(100.0)
        monkeypatch.setattr(prop, "MAX_HALVINGS", 0)
        with pytest.raises(prop.ConvergenceError, match="residual"):
            prop.step(prop.initial_state(ham), 0.0, 50.0, ham, sched,
                      krylov_dim=4, residual_tol=0.0)


class TestPropagate:
    def test_initial_state_is_fast_decayer(self):
        _, _, _, ham = small_system(n_points=31)
        psi = prop.initial_state(ham)
        assert psi.a1 == 1.0
        assert psi.a2 == 0.0
        assert np.all(psi.b == 0.0)
        assert psi.norm == 1.0

    def test_decoupled_state_stays_put(self):
        # no couplings, no drive: P1 stays exactly 1
        ham = za.Hamiltonian(diag=np.array([1.0, 2.0, 3.0]),
                             m_s=np.zeros(1), m_p=np.zeros(0))
        sched = build_schedule(0.0, 0.0, 0.0, 0.0, 0.0, "off", 100.0)
        cfg = prop.PropagationConfig(T_total=100.0, sample_dt=10.0)
        trace = prop.propagate(prop.initial_state(ham), ham, sched, cfg)
        assert np.max(np.abs(trace.P1 - 1.0)) < 1e-13

    def test_samples_include_window_edges_and_boundaries(self):
        _, _, _, ham = small_system()
        T = za.fs_to_au(6.0)
        sched = make_schedule(T, Omega_ev=2.0)
        cfg = prop.PropagationConfig(T_total=T, sample_dt=T / 7)
        trace = prop.propagate(prop.initial_state(ham), ham, sched, cfg)
        for edge in sched.windows.ravel():
            assert np.min(np.abs(trace.times - edge)) < 1e-8
        for boundary in sched.cycle_boundaries:
            idx = np.argmin(np.abs(trace.times - boundary))
            assert trace.cycle_flags[idx]

    def test_two_electron_sum_rule_driven(self):
        _, _, _, ham = small_system(n_points=101)
        T = za.fs_to_au(8.0)
        sched = make_schedule(T, Omega_ev=1.5)
        cfg = prop.PropagationConfig(T_total=T, sample_dt=T / 40)
        trace = prop.propagate(prop.initial_state(ham), ham, sched, cfg)
        assert trace.sum_rule_error() < 1e-9
        assert trace.norm_error() < 1e-9

    def test_snapshot_states_and_spectra_recorded(self):
        _, _, _, ham = small_system(n_points=51)
        T = za.fs_to_au(4.0)
        snap = za.fs_to_au(2.0)
        sched = make_schedule(T, Omega_ev=1.5)
        cfg = prop.PropagationConfig(T_total=T, sample_dt=T / 16,
                                     snapshot_times=(0.0, snap))
        trace = prop.propagate(prop.initial_state(ham), ham, sched, cfg)
        snap_times = [s.time for s in trace.spectra]
        assert len(snap_times) == 3  # 0, 2 fs, final
        assert snap_times == [psi.time_stamp for psi in trace.states]
        assert np.max(trace.spectra[0].A_s) == 0.0  # nothing emitted yet
        assert trace.final_state is trace.states[-1]
        assert trace.final_state.norm == pytest.approx(1.0, abs=1e-9)
        for spectrum, psi in zip(trace.spectra, trace.states):
            assert np.array_equal(spectrum.A_s, abs(psi.b_s) ** 2)
            assert np.array_equal(spectrum.A_p, abs(psi.b_p) ** 2)

    def test_step_halving_converges_final_populations(self):
        # full-field drive; at 640 carrier samples the exponential-midpoint
        # scheme is deep in its quadratic regime
        dt0 = 0.05342943283595029
        base = ["propagation.T_total=5 fs", "model.N=201",
                "propagation.sample_stride=1 fs"]

        def finals(dt):
            cfg = za.preset_config("li", overrides=base + [
                f"propagation.dt_max={dt:.17g} au"])
            res = za.execute(cfg)
            return np.array([res.trace.P1[-1], res.trace.P2[-1],
                             res.trace.n_c[-1]])

        diff = np.max(np.abs(finals(dt0) - finals(dt0 / 2)))
        assert diff < 1e-6

    def test_square_rwa_run_takes_one_exponential_per_sample(self, monkeypatch):
        calls = []

        def counting(schedule, t):
            calls.append(t)
            return coupling_at(schedule, t)

        monkeypatch.setattr(prop, "coupling_at", counting)
        cfg = za.preset_config("li", overrides=[
            "drive.mode=rwa_pulsed", "propagation.T_total=20 fs",
            "model.N=201"])
        trace = za.execute(cfg).trace
        assert len(calls) == len(trace.times) - 1

    def test_rwa_pulse_train_matches_dense_products(self):
        # dimension 40; the oracle steps the same piecewise-constant H with
        # scipy's dense expm, taking g from the window list directly
        levels, _, _, ham = small_system(n_points=19)
        Omega, delta = za.ev_to_au(4.0), za.ev_to_au(0.2)
        omega = levels.E2 - levels.E1 + delta
        T = za.fs_to_au(6.0)
        sched = build_schedule(Omega, omega, delta, za.fs_to_au(0.4),
                               za.fs_to_au(0.3), "rwa_pulsed", T)
        assert len(sched.cycle_boundaries) >= 3
        frame = rotating_frame(ham, omega)
        cfg = prop.PropagationConfig(T_total=T, sample_dt=T / 25,
                                     residual_tol=1e-12)
        trace = prop.propagate(prop.initial_state(frame), frame, sched, cfg)

        vec = prop.initial_state(frame).data
        for i in range(1, len(trace.times)):
            t0, t1 = trace.times[i - 1], trace.times[i]
            mid = 0.5 * (t0 + t1)
            inside = np.any((sched.windows[:, 0] <= mid)
                            & (mid < sched.windows[:, 1]))
            g = 0.5 * Omega if inside else 0.0
            vec = scipy.linalg.expm(-1j * (t1 - t0) * frame.dense(g)) @ vec
            assert abs(trace.P1[i] - abs(vec[0]) ** 2) < 1e-9
            assert abs(trace.P2[i] - abs(vec[1]) ** 2) < 1e-9
            assert abs(trace.n_c[i] - np.sum(abs(vec[2:]) ** 2)) < 1e-9
        assert np.max(np.abs(trace.final_state.data - vec)) < 1e-9

    def test_config_validation(self):
        for T in (0.0, math.inf):
            with pytest.raises(ValueError):
                prop.PropagationConfig(T_total=T)
        for snap in (-1.0, 2.0):
            with pytest.raises(ValueError,
                               match="propagation.spectrum_snapshot_times"):
                prop.PropagationConfig(T_total=1.0, snapshot_times=(snap,))
        assert prop.PropagationConfig(T_total=4.0).sample_dt == 0.01
        with pytest.raises(ValueError):
            prop.PropagationConfig(T_total=1.0, krylov_dim=2)
        for tol in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="residual_tol"):
                prop.PropagationConfig(T_total=1.0, residual_tol=tol)
        for bad in (-1.0, 0.0):
            with pytest.raises(ValueError, match="propagation.dt_max"):
                prop.PropagationConfig(T_total=1.0, dt_max=bad)
            with pytest.raises(ValueError, match="propagation.sample_stride"):
                prop.PropagationConfig(T_total=1.0, sample_dt=bad)


class TestDriveStepBound:
    def test_carrier_limits_when_fast(self):
        sched = make_schedule(1000.0, Omega_ev=1.0, omega_ev=10.0)
        bound = prop.drive_step_bound(sched)
        carrier = 2 * math.pi / za.ev_to_au(10.0)
        assert bound == pytest.approx(carrier / prop.CARRIER_STEP_FRACTION)

    def test_pulse_limits_when_strong(self):
        sched = make_schedule(1000.0, Omega_ev=8.0, omega_ev=10.0)
        bound = prop.drive_step_bound(sched)
        assert bound == pytest.approx(sched.t_pi / prop.PULSE_STEP_FRACTION)

    def test_no_bound_without_drive(self):
        sched = build_schedule(0.0, 0.0, 0.0, 0.0, 0.0, "off", 10.0)
        assert prop.drive_step_bound(sched) == math.inf

    @pytest.mark.parametrize("mode", ["rwa_pulsed", "rwa_continuous"])
    def test_no_bound_for_square_rwa_windows(self, mode):
        for kwargs in ({}, {"envelope": "cosine_ramp", "ramp": 0.0}):
            sched = make_schedule(1000.0, mode=mode, **kwargs)
            assert prop.drive_step_bound(sched) == math.inf

    def test_ramped_rwa_keeps_pulse_and_carrier_bound(self):
        sched = make_schedule(1000.0, mode="rwa_pulsed", envelope="cosine_ramp",
                              ramp=2.0)
        carrier = 2 * math.pi / za.ev_to_au(10.0)
        assert prop.drive_step_bound(sched) == min(
            sched.t_pi / prop.PULSE_STEP_FRACTION,
            carrier / prop.CARRIER_STEP_FRACTION)
