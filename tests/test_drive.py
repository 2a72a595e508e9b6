import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import zenoauger as za
from zenoauger.drive import build_schedule, coupling_at, envelope_at
from zenoauger.propagator import PropagationConfig, initial_state, propagate


def fs(x):
    return za.fs_to_au(x)


class TestBuildSchedule:
    def test_pi_pulse_duration_lithium(self):
        sched = build_schedule(za.ev_to_au(0.3), za.ev_to_au(2.5), 0.0,
                               fs(0.32), 0.0, "pulsed", fs(100.0))
        assert za.au_to_fs(sched.t_pi) == pytest.approx(6.8928, rel=1e-4)
        assert za.au_to_fs(sched.cycle_period) == pytest.approx(14.1056,
                                                                rel=1e-4)

    def test_windows_sorted_disjoint(self):
        sched = build_schedule(0.05, 0.4, 0.0, 2.0, 3.0, "pulsed", 1000.0)
        w = sched.windows
        assert np.all(w[:, 1] > w[:, 0])
        assert np.all(w[1:, 0] >= w[:-1, 1])

    def test_on_time_is_two_t_pi_per_cycle(self):
        omega_r = 0.05
        sched = build_schedule(omega_r, 0.4, 0.0, 2.0, 3.0, "pulsed", 1000.0)
        n_cycles = len(sched.cycle_boundaries)
        full_cycle_on_time = 2.0 * n_cycles * sched.t_pi
        # trailing partial windows, if any, add on top
        assert sched.total_on_time() >= full_cycle_on_time * (1 - 1e-12)
        trailing = sched.total_on_time() - full_cycle_on_time
        assert 0.0 <= trailing < 2.0 * sched.t_pi

    def test_continuous_is_single_window(self):
        sched = build_schedule(0.05, 0.4, 0.0, 0.0, 0.0, "continuous", 500.0)
        assert sched.windows.shape == (1, 2)
        assert sched.windows[0, 0] == 0.0
        assert sched.windows[0, 1] == 500.0

    def test_off_mode_empty(self):
        sched = build_schedule(0.0, 0.0, 0.0, 0.0, 0.0, "off", 100.0)
        assert len(sched.windows) == 0
        assert not sched.drive_active

    def test_zero_rabi_rejected_when_driven(self):
        with pytest.raises(ValueError):
            build_schedule(0.0, 0.4, 0.0, 0.0, 0.0, "pulsed", 100.0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            build_schedule(0.05, 0.4, 0.0, 0.0, 0.0, "chirped", 100.0)


class TestCoupling:
    def test_zero_before_start(self):
        sched = build_schedule(0.05, 0.4, 0.0, 1.0, 0.0, "pulsed", 100.0)
        assert coupling_at(sched, -1.0) == 0.0

    def test_full_field_peak_value(self):
        omega = 0.4
        sched = build_schedule(0.05, omega, 0.0, 0.0, 0.0, "continuous",
                               1000.0)
        t_peak = 0.5 * math.pi / omega  # sin maximum
        assert coupling_at(sched, t_peak) == pytest.approx(0.05, rel=1e-12)

    def test_rwa_magnitude_is_half_rabi(self):
        sched = build_schedule(0.05, 0.4, 0.0, 1.0, 0.0, "rwa_pulsed", 100.0)
        assert abs(coupling_at(sched, 0.3 * sched.t_pi)) == pytest.approx(
            0.025, rel=1e-12)

    def test_zero_between_windows(self):
        sched = build_schedule(0.05, 0.4, 0.0, 5.0, 0.0, "pulsed", 1000.0)
        t_gap = sched.windows[0, 1] + 2.5
        assert envelope_at(sched, t_gap) == 0.0
        assert coupling_at(sched, t_gap) == 0.0

    def test_phase_reset_restarts_carrier(self):
        kwargs = dict(Omega=0.05, omega=0.4, delta=0.0, t_m=5.0, dt_delay=0.0,
                      mode="pulsed", T_total=1000.0)
        plain = build_schedule(**kwargs)
        reset = build_schedule(**kwargs, phase_reset=True)
        start = reset.windows[2, 0]
        assert coupling_at(reset, start + 1.0) == pytest.approx(
            0.05 * math.sin(0.4 * 1.0), rel=1e-12)
        assert coupling_at(plain, start + 1.0) == pytest.approx(
            0.05 * math.sin(0.4 * (start + 1.0)), rel=1e-12)

    def test_cosine_ramp_preserves_area(self):
        sched = build_schedule(0.05, 0.4, 0.0, 5.0, 0.0, "pulsed", 500.0,
                               envelope="cosine_ramp", ramp=4.0)
        a, b = sched.windows[0]
        assert b - a == pytest.approx(sched.t_pi + 4.0)
        grid = np.linspace(a, b, 20001)
        area = np.trapezoid([envelope_at(sched, t) for t in grid], grid)
        assert area == pytest.approx(sched.t_pi, rel=1e-6)


class TestPiPulseTransfer:
    def test_resonant_rwa_is_complete(self):
        p2 = za.pi_pulse_transfer_check(za.ev_to_au(0.3), za.ev_to_au(2.5),
                                        0.0, mode="rwa_pulsed")
        assert p2 == pytest.approx(1.0, abs=1e-6)

    def test_detuned_rwa_matches_two_level_solution(self):
        # exact closed form: P2 = Omega^2/(Omega^2+delta^2)
        #                         * sin^2(sqrt(Omega^2+delta^2) t_pi / 2)
        omega_r = za.ev_to_au(0.3)
        delta = omega_r
        generalized = math.hypot(omega_r, delta)
        expected = (omega_r / generalized) ** 2 * math.sin(
            generalized * (math.pi / omega_r) / 2.0) ** 2
        assert expected == pytest.approx(0.3165638355103539, rel=1e-12)
        p2 = za.pi_pulse_transfer_check(omega_r, za.ev_to_au(2.5) + delta,
                                        delta, mode="rwa_pulsed")
        assert p2 == pytest.approx(expected, abs=1e-9)

    def test_full_field_weak_coupling(self):
        p2 = za.pi_pulse_transfer_check(za.ev_to_au(0.1), za.ev_to_au(10.0),
                                        0.0, mode="pulsed")
        assert p2 == pytest.approx(1.0, abs=1e-3)

    def test_full_field_against_ode_oracle(self):
        omega_r = za.ev_to_au(0.1)
        omega = za.ev_to_au(10.0)
        t_pi = math.pi / omega_r

        def rhs(t, y):
            g = omega_r * math.sin(omega * t)
            a1 = y[0] + 1j * y[1]
            a2 = y[2] + 1j * y[3]
            d1 = -1j * g * a2
            d2 = -1j * (omega * a2 + g * a1)
            return [d1.real, d1.imag, d2.real, d2.imag]

        sol = solve_ivp(rhs, (0.0, t_pi), [1.0, 0.0, 0.0, 0.0],
                        rtol=1e-11, atol=1e-13, dense_output=False)
        p2_oracle = sol.y[2, -1] ** 2 + sol.y[3, -1] ** 2
        p2 = za.pi_pulse_transfer_check(omega_r, omega, 0.0, mode="pulsed")
        assert p2 == pytest.approx(p2_oracle, abs=1e-5)

    @pytest.mark.parametrize("Omega", [0.0, -0.01])
    def test_nonpositive_rabi_frequency_named(self, Omega):
        with pytest.raises(ValueError, match="Omega must be positive"):
            za.pi_pulse_transfer_check(Omega, za.ev_to_au(2.5), 0.0)


class TestDriveInvariants:
    def test_rwa_tracks_full_field_at_cycle_boundaries(self):
        # Omega/omega = 0.01, decay off, three measurement cycles
        omega_r, omega = za.ev_to_au(0.1), za.ev_to_au(10.0)
        bare = za.Hamiltonian(diag=np.array([0.0, omega]),
                              m_s=np.zeros(0), m_p=np.zeros(0))
        t_m = fs(0.32)
        T = 3.2 * (2.0 * math.pi / omega_r + t_m)
        boundary_pops = {}
        for mode in ("pulsed", "rwa_pulsed"):
            sched = build_schedule(omega_r, omega, 0.0, t_m, 0.0, mode, T)
            ham = za.rotating_frame(bare, omega) if sched.is_rwa else bare
            cfg = PropagationConfig(T_total=T, sample_dt=T / 64)
            trace = propagate(initial_state(ham), ham, sched, cfg)
            boundary_pops[mode] = trace.P1[trace.cycle_flags]
        assert len(boundary_pops["pulsed"]) >= 3
        diff = np.abs(boundary_pops["pulsed"] - boundary_pops["rwa_pulsed"])
        assert np.max(diff) < 1e-2

    def test_field_free_energy_constant(self, tmp_path):
        from conftest import random_state, small_system
        from zenoauger.propagator import evolve_interval
        _, _, _, ham = small_system(n_points=101, window_ev=2.0)
        sched = build_schedule(0.0, 0.0, 0.0, 0.0, 0.0, "off", 200.0)
        vec = random_state(ham, 3)
        e0 = np.vdot(vec, ham.apply(vec)).real
        drift = 0.0
        for i in range(20):
            vec = evolve_interval(vec, i * 10.0, (i + 1) * 10.0, ham, sched,
                                  10.0, krylov_dim=16, residual_tol=1e-13)
            energy = np.vdot(vec, ham.apply(vec)).real
            drift = max(drift, abs(energy - e0) / abs(e0))
        assert drift < 1e-12
