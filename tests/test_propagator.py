import gc
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg

import zenoauger as za
import zenoauger.model as model
import zenoauger.propagator as prop
from zenoauger.drive import build_schedule, coupling_at, envelope_at
from zenoauger.model import rotating_frame

from conftest import random_state, small_system


def make_schedule(T, mode="pulsed", Omega_ev=1.0, omega_ev=10.0, t_m_fs=0.32,
                  **kwargs):
    return build_schedule(za.ev_to_au(Omega_ev), za.ev_to_au(omega_ev), 0.0,
                          za.fs_to_au(t_m_fs), 0.0, mode, T, **kwargs)


def interval_flows(p):
    """(S6 step count, flow lengths) of each sample interval of a planned
    run on the eigencoordinate path, laid out one interval at a time: S6
    steps of h = span / n, n the fewest steps of at most the step bound,
    inside the windows, one flow over the span outside them."""
    times = prop.sample_times(p.schedule, p.propagation)
    h_max = p.propagation.dt_max or prop.drive_step_bound(p.schedule)
    a1, a2, a3, a4 = prop._A1, prop._A2, prop._A3, prop._A4
    layout = []
    for t0, t1 in zip(times[:-1], times[1:]):
        if not envelope_at(p.schedule, 0.5 * (t0 + t1)) > 0.0:
            layout.append((0, (t1 - t0,)))
            continue
        t0, t1 = float(t0), float(t1)
        n = max(1, math.ceil((t1 - t0) / h_max - 1e-12))
        h = (t1 - t0) / n
        merged = (2.0 * a1 * h,) if n > 1 else ()
        layout.append((n, (a1 * h, a2 * h, a3 * h, a4 * h, *merged)))
    return layout


def dense_expv(h, dt, vec):
    """exp(-i dt h) vec for a dense Hermitian h, by its full eigensystem."""
    lam, q = np.linalg.eigh(h.astype(complex))
    return q @ (np.exp(-1j * dt * lam) * (q.conj().T @ vec))


def dense_cf4_product(ham, vec, times, sched, coupling, dt_max):
    """vec carried over the sample times by dense exponentials: inside a
    window, two-stage Gauss CF4:2 steps of at most dt_max with g from
    ``coupling(t)``; outside, one exact field-free exponential per
    interval.  It shares no code with the propagator."""
    root3_6 = math.sqrt(3.0) / 6.0
    h0, v = ham.dense(0.0), ham.dense(1.0) - ham.dense(0.0)
    for t0, t1 in zip(times[:-1], times[1:]):
        mid = 0.5 * (t0 + t1)
        if not np.any((sched.windows[:, 0] <= mid)
                      & (mid < sched.windows[:, 1])):
            vec = dense_expv(h0, t1 - t0, vec)
            continue
        n = math.ceil((t1 - t0) / dt_max)
        dt = (t1 - t0) / n
        for j in range(n):
            t = t0 + j * dt
            g1 = coupling(t + (0.5 - root3_6) * dt)
            g2 = coupling(t + (0.5 + root3_6) * dt)
            g_a = 2 * ((0.25 + root3_6) * g1 + (0.25 - root3_6) * g2)
            g_b = 2 * ((0.25 - root3_6) * g1 + (0.25 + root3_6) * g2)
            vec = dense_expv(h0 + g_a * v, 0.5 * dt, vec)
            vec = dense_expv(h0 + g_b * v, 0.5 * dt, vec)
    return vec


class TestStep:
    def test_vanishing_step_is_identity(self):
        _, _, _, ham = small_system(n_points=31)
        sched = make_schedule(100.0)
        vec = prop.initial_state(ham).data
        out = prop.evolve_interval(vec, 0.1, 0.1 + 1e-12, ham, sched)
        assert np.max(np.abs(out - vec)) < 1e-11

    @pytest.mark.parametrize("n_points,seed", [(31, 0), (63, 1)])
    def test_matches_dense_exponential(self, n_points, seed):
        # dims 64 and 128 against scipy's dense expm at the same midpoint
        _, _, _, ham = small_system(n_points=n_points)
        sched = make_schedule(900.0)
        vec = random_state(ham, seed)
        t, dt = 3.7, 0.8
        g = coupling_at(sched, t + dt / 2)
        exact = scipy.linalg.expm(-1j * dt * ham.dense(g)) @ vec
        out = prop.evolve_interval(vec.copy(), t, t + dt, ham, sched,
                                   residual_tol=1e-12)
        assert np.max(np.abs(out - exact)) < 1e-10

    def test_multi_step_field_free_against_dense(self):
        _, _, _, ham = small_system(n_points=31)
        sched = build_schedule(0.0, 0.0, 0.0, 0.0, 0.0, "off", 500.0)
        vec = random_state(ham, 2)
        T = 400.0
        exact = scipy.linalg.expm(-1j * T * ham.dense(0.0)) @ vec
        out = vec
        for i in range(16):  # 16 intervals of 25 au
            out = prop.evolve_interval(out, i * 25.0, (i + 1) * 25.0, ham,
                                       sched, residual_tol=1e-12)
        assert np.max(np.abs(out - exact)) < 1e-9

    def test_stationary_state_only_rotates(self):
        _, _, _, ham = small_system(n_points=31)
        sched = build_schedule(0.0, 0.0, 0.0, 0.0, 0.0, "off", 500.0)
        evals, evecs = np.linalg.eigh(ham.dense(0.0))
        vec = evecs[:, 10].astype(complex)
        out = vec
        for i in range(5):  # 5 intervals of 10 au
            out = prop.evolve_interval(out, i * 10.0, (i + 1) * 10.0, ham,
                                       sched)
        assert np.max(np.abs(np.abs(out) ** 2 - np.abs(vec) ** 2)) < 1e-13

    def test_norm_preserved_per_step(self):
        _, _, _, ham = small_system(n_points=63)
        sched = make_schedule(900.0)
        vec = random_state(ham, 4)
        out = prop.evolve_interval(vec, 0.2, 0.8, ham, sched)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_rejects_nonpositive_dt(self):
        _, _, _, ham = small_system(n_points=31)
        sched = make_schedule(100.0)
        for t1 in (0.0, -1.0, math.nan):  # empty, reversed, undefined
            with pytest.raises(ValueError, match="t1 must exceed t0"):
                prop.evolve_interval(prop.initial_state(ham).data, 0.0, t1,
                                     ham, sched)

    def test_unreached_interval_is_served_in_dyadic_pieces_in_time_order(
            self, monkeypatch):
        # H is constant in a square rotating-frame window: a space that
        # reaches no sample serves the longest dyadic fraction of its first
        # interval that passes, and the next space starts there.  Each
        # space reads the coupling at the midpoint of what is left; the
        # pieces tile [t0, t1) in time order, no exponential's result is
        # dropped, and the result is one dense exponential over [t0, t1)
        _, _, _, ham = small_system(n_points=31)
        sched = make_schedule(900.0, mode="rwa_pulsed")
        t0, t1 = 3.0, 23.0
        assert sched.windows[0, 0] <= t0 < t1 <= sched.windows[0, 1]
        reads, pieces = [], []
        coupling, expv = prop.coupling_at, prop._lanczos_expv

        def traced_coupling(schedule, t):
            reads.append(t)
            return coupling(schedule, t)

        def traced_expv(ham_, g, v, dt, m_max, tol):
            states, err, halvings = expv(ham_, g, v, dt, m_max, tol)
            assert len(states) == 1
            pieces.append(math.ldexp(dt[0], -halvings))
            return states, err, halvings

        monkeypatch.setattr(prop, "coupling_at", traced_coupling)
        monkeypatch.setattr(prop, "_lanczos_expv", traced_expv)
        vec = random_state(ham, 5)
        out = prop.evolve_interval(vec.copy(), t0, t1, ham, sched,
                                   krylov_dim=6, residual_tol=1e-12)
        assert len(reads) == len(pieces) > 2
        assert reads[0] == 0.5 * (t0 + t1)
        start = t0
        for read, piece in zip(reads, pieces):
            assert read == pytest.approx(0.5 * (start + t1), abs=1e-12)
            assert 0 < piece <= t1 - start + 1e-12
            start += piece
        assert start == pytest.approx(t1, abs=1e-12)
        exact = scipy.linalg.expm(
            -1j * (t1 - t0) * ham.dense(coupling(sched, reads[0]))) @ vec
        assert np.max(np.abs(out - exact)) < 1e-10

    def test_nonconvergence_raises_named_diagnostic(self, monkeypatch):
        _, _, _, ham = small_system(n_points=31)
        sched = make_schedule(100.0)
        monkeypatch.setattr(prop, "MAX_HALVINGS", 0)
        with pytest.raises(prop.ConvergenceError, match="residual"):
            prop.evolve_interval(prop.initial_state(ham).data, 0.0, 50.0,
                                 ham, sched, krylov_dim=4, residual_tol=0.0)


def textbook_expv(ham, g, v, dt, m_max):
    """The Lanczos exponential in plain complex arithmetic: the reference
    that every rewrite of ``_lanczos_expv`` must match bit for bit.  The
    recurrence runs to the cap or to breakdown, then one eigensystem of
    the tridiagonal matrix gives the exponential."""
    m_cap = min(m_max, len(v))
    basis = np.empty((m_cap, len(v)), dtype=complex)
    basis[0] = v
    alphas = np.empty(m_cap)
    betas = np.empty(m_cap)
    w = ham.apply(basis[0], g)
    alphas[0] = np.vdot(basis[0], w).real
    w -= alphas[0] * basis[0]
    for j in range(1, m_cap + 1):
        beta = float(np.linalg.norm(w))
        if beta < prop._BREAKDOWN or j == m_cap:
            break
        betas[j] = beta
        basis[j] = w / beta
        w = ham.apply(basis[j], g)
        alphas[j] = np.vdot(basis[j], w).real
        w -= alphas[j] * basis[j]
        w -= beta * basis[j - 1]
    idx = np.arange(j)
    tri = np.zeros((j, j))
    tri[idx, idx] = alphas[:j]
    tri[idx[:-1], idx[:-1] + 1] = betas[1:j]
    tri[idx[:-1] + 1, idx[:-1]] = betas[1:j]
    lam, q = np.linalg.eigh(tri)
    u = q @ (np.exp(-1j * dt * lam) * q[0])
    return basis[:j].T @ u, abs(dt) * beta * abs(u[-1]), j


class TestLanczosBitExact:
    # |dt| from 1e-3 to 20 au, each read out of a space of the full 16
    # vectors (one product per vector); |1> has exact zeros, a random
    # state none.  |1> of an uncoupled three-level Hamiltonian spans an
    # invariant space, {|1>} at g = 0 and {|1>, |2>} otherwise: beta
    # vanishes and the space stops.  An infinite tolerance passes every
    # residual, so each time is read out of the space itself
    DTS = (1e-3, 0.05, 0.3, 1.0, 4.0, -1.0, 20.0)

    @pytest.mark.parametrize("g", [0.0, 0.013, 0.01 - 0.02j])
    @pytest.mark.parametrize("start", ["bound", "random", "uncoupled"])
    def test_matches_textbook_recurrence(self, g, start, monkeypatch):
        if start == "uncoupled":
            ham = za.Hamiltonian(diag=np.array([1.0, 2.0, 3.0]),
                                 m_s=np.zeros(1), m_p=np.zeros(0))
            expected = 1 if g == 0 else 2
        else:
            _, _, _, ham = small_system(n_points=31)
            expected = 16
        v = (random_state(ham, 5) if start == "random"
             else prop.initial_state(ham).data)
        products = []
        apply = za.Hamiltonian.apply

        def counting_apply(*args):
            products[-1] += 1
            return apply(*args)

        dims = set()
        for dt in self.DTS:
            products.append(0)
            with monkeypatch.context() as patch:
                patch.setattr(za.Hamiltonian, "apply", counting_apply)
                (out,), err, halvings = prop._lanczos_expv(
                    ham, g, v, np.array([dt]), 16, math.inf)
            ref, ref_err, ref_j = textbook_expv(ham, g, v, dt, 16)
            assert halvings == 0
            assert products[-1] == ref_j
            assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))
            assert (np.float64(err).view(np.uint64)
                    == np.float64(ref_err).view(np.uint64))
            dims.add(ref_j)
        assert dims == {expected}


class TestPropagate:
    def test_initial_state_is_fast_decayer(self):
        _, _, _, ham = small_system(n_points=31)
        psi = prop.initial_state(ham)
        assert psi.a1 == 1.0
        assert psi.a2 == 0.0
        assert np.all(psi.b == 0.0)
        assert np.linalg.norm(psi.data) == 1.0

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
        # n_c + n_v1 + n_v2 + n_v3 + n_c - 2 = 2 (n_c + P1 + P2 - 1): the
        # sum rule is twice the norm
        assert trace.norm_error() < 5e-10

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
        assert np.linalg.norm(trace.final_state.data) == pytest.approx(1.0, abs=1e-9)
        for spectrum, psi in zip(trace.spectra, trace.states):
            assert np.array_equal(spectrum.A_s, abs(psi.b_s) ** 2)
            assert np.array_equal(spectrum.A_p, abs(psi.b_p) ** 2)

    def test_step_halving_converges_final_populations(self):
        # full-field drive; at 640 carrier samples the fourth-order S6
        # scheme is deep in its asymptotic regime
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

    @pytest.mark.parametrize("mode", ["pulsed", "continuous",
                                      "rwa_continuous"])
    def test_clipped_ramped_run_matches_longer_run(self, mode):
        # the state at t must not depend on where the run stops
        def trace(t_total_fs):
            cfg = za.preset_config("li", overrides=[
                "model.N=201", f"propagation.T_total={t_total_fs} fs",
                "drive.envelope=cosine_ramp", "drive.ramp=0.5 fs",
                f"drive.mode={mode}"])
            return za.execute(cfg).trace

        short, long = trace(20), trace(30)
        shared = np.flatnonzero(np.isin(long.times, short.times))
        assert np.array_equal(long.times[shared], short.times)
        for name in ("P1", "P2", "n_c"):
            assert np.max(np.abs(getattr(long, name)[shared]
                                 - getattr(short, name))) < 1e-12

    def test_samples_do_not_depend_on_t_total(self):
        # a sample's bits do not depend on how many samples follow it: at
        # T_total = 100 fs, 100 fs is the last sample of the run, and in
        # both runs a snapshot whose site amplitudes are transformed alone.
        # li's last window is clipped at both 100 and 101 fs, so in the
        # rotating frame a Lanczos space that reached past 100 fs in the
        # longer run must give the same states up to 100 fs
        def trace(mode, t_total_fs):
            return za.execute(za.preset_config("li", overrides=[
                f"drive.mode={mode}", f"propagation.T_total={t_total_fs} fs",
                "propagation.spectrum_snapshot_times=100 fs"])).trace

        for mode in ("pulsed", "rwa_pulsed"):
            short, long = trace(mode, 100), trace(mode, 101)
            shared = np.flatnonzero(np.isin(long.times, short.times))
            assert np.array_equal(long.times[shared], short.times)
            for name in ("n_c", "P1", "P2"):
                assert np.array_equal(getattr(long, name)[shared],
                                      getattr(short, name)), (mode, name)
            (state,) = short.states
            (twin,) = [s for s in long.states
                       if s.time_stamp == state.time_stamp]
            assert np.array_equal(twin.data, state.data), mode

    @pytest.mark.parametrize("mode", ["pulsed", "off", "rwa_pulsed"])
    def test_snapshots_match_their_samples(self, mode):
        # the split path (pulsed, off) reads the populations of other
        # samples from the eigencoordinates; on both paths each snapshot
        # must be the state its sample's populations were read from, and
        # own its memory
        trace = za.execute(za.preset_config("li", overrides=[
            f"drive.mode={mode}", "propagation.T_total=30 fs",
            "propagation.spectrum_snapshot_times=5 fs, 12 fs, 25 fs"])).trace
        indices = [int(np.flatnonzero(trace.times == psi.time_stamp)[0])
                   for psi in trace.states]
        assert len(indices) == 4  # 5, 12 and 25 fs, and the final sample
        for i, psi in zip(indices, trace.states):
            n_c, _, p1, p2, _ = za.orbital_populations(psi)
            assert (n_c, p1, p2) == (trace.n_c[i], trace.P1[i], trace.P2[i])
        for a, b in itertools.combinations(trace.states, 2):
            assert not np.shares_memory(a.data, b.data)

    def test_li_run_holds_its_memory_budget(self):
        # the row chunks of the secular solve and of the Cauchy transforms
        # are the largest allocations of a run; nothing holds a sample
        # batch or a whole Cauchy matrix
        for mode in ("pulsed", "off"):
            p = za.plan(za.preset_config("li", [f"drive.mode={mode}"]))
            ham = za.assemble(p.levels, p.grid_s, p.grid_p)
            model._solve_block.cache_clear()  # a cold run solves its blocks
            tracemalloc.start()
            try:
                prop.propagate(prop.initial_state(ham), ham, p.schedule,
                               p.propagation)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2**20, mode

    def test_field_free_run_computes_each_interval_flow_once(
            self, monkeypatch):
        computed = []
        phase = prop._phase

        def counting(lam, tau):
            computed.append(tau)
            return phase(lam, tau)

        monkeypatch.setattr(prop, "_phase", counting)
        trace = za.execute(za.preset_config("li", overrides=[
            "drive.mode=off", "propagation.T_total=20 fs",
            "model.N=201"])).trace
        lengths = np.unique(np.diff(trace.times))
        assert 0 < len(computed) <= len(lengths) < len(trace.times) - 1

    def test_split_from_the_initial_state_takes_no_cauchy_pass(
            self, monkeypatch):
        # |1> has no continuum amplitude in either block
        passes = []
        gaps = model.ArrowheadEigensystem._inverse_gaps

        def counting(eig):
            passes.append(eig)
            return gaps(eig)

        monkeypatch.setattr(model.ArrowheadEigensystem, "_inverse_gaps",
                            counting)
        p = za.plan(za.preset_config("li"))
        ham = za.assemble(p.levels, p.grid_s, p.grid_p)
        ham.eigensystems  # solved before counting starts
        passes.clear()
        split = prop._Split(prop.initial_state(ham), ham, p.schedule)
        assert passes == []
        assert np.max(np.abs(split.sites()
                             - prop.initial_state(ham).data)) < 1e-12

    def test_phase_memo_keeps_no_reference_to_its_split(self, monkeypatch):
        # a memo that held the instance (an lru_cache over a bound method)
        # would keep it, its coefficients and its vectors alive until the
        # cyclic collector runs
        splits = []

        class Recorded(prop._Split):
            def __init__(self, *args):
                super().__init__(*args)
                splits.append(weakref.ref(self))

        monkeypatch.setattr(prop, "_Split", Recorded)
        p = za.plan(za.preset_config("li", ["propagation.T_total=20 fs",
                                            "model.N=201"]))
        ham = za.assemble(p.levels, p.grid_s, p.grid_p)
        gc.disable()
        try:
            prop.propagate(prop.initial_state(ham), ham, p.schedule,
                           p.propagation)
            (split,) = splits
            assert split() is None
        finally:
            gc.enable()

    @staticmethod
    def computed_flows(monkeypatch, preset, overrides=()):
        """The flow length of every phase vector a run computes."""
        computed = []
        phase = prop._phase

        def counting(lam, tau):
            computed.append(tau)
            return phase(lam, tau)

        monkeypatch.setattr(prop, "_phase", counting)
        za.execute(za.preset_config(preset, list(overrides)))
        return computed

    @pytest.mark.parametrize("preset, most", [
        ("li", 217), ("li_plus", 156), ("fig4", 151)])
    def test_planned_memo_computes_few_phase_vectors(self, monkeypatch,
                                                     preset, most):
        # a window's sample intervals alternate between lengths a few ulp
        # apart, of five flows each: the ten most recent lengths computed
        # 355, 314 and 236 vectors here
        assert len(self.computed_flows(monkeypatch, preset)) <= most

    def test_field_free_li_computes_13_phase_vectors(self, monkeypatch):
        computed = self.computed_flows(monkeypatch, "li", ["drive.mode=off"])
        assert len(computed) == len(set(computed)) == 13

    def test_plan_lays_out_each_interval_as_stepped_alone(self):
        for overrides in ([], ["drive.mode=off"], ["propagation.dt_max=1 fs"],
                          ["drive.envelope=cosine_ramp", "drive.ramp=0.5 fs"]):
            p = za.plan(za.preset_config("li", overrides))
            ham = za.assemble(p.levels, p.grid_s, p.grid_p)
            times = prop.sample_times(p.schedule, p.propagation)
            flows = prop._Flows(ham.eigensystems[0].lam, p.schedule, times,
                                p.propagation.dt_max
                                or prop.drive_step_bound(p.schedule))
            plan = zip(flows.steps.tolist(), flows.lengths.tolist())
            for (n, h), laid_out in zip(plan, interval_flows(p), strict=True):
                a = (prop._A1, prop._A2, prop._A3, prop._A4,
                     2.0 * prop._A1)[:5 if n > 1 else 4]
                assert laid_out == (n, tuple(x * h for x in a) if n else (h,))

    def test_flow_memo_holds_at_most_phase_memo_vectors(self, monkeypatch):
        # after each interval the memo holds at most _PHASE_MEMO vectors,
        # each of a length some later interval needs; li's windows fill it
        p = za.plan(za.preset_config("li"))
        needed = [set(lengths) for _, lengths in interval_flows(p)]
        kept = []
        interval = prop._Flows.interval

        def recording(flows, k):
            result = interval(flows, k)
            kept.append(set(flows.kept))
            return result

        monkeypatch.setattr(prop._Flows, "interval", recording)
        za.execute(p.config)
        assert len(kept) == len(needed)
        assert max(map(len, kept)) == prop._PHASE_MEMO
        for k, lengths in enumerate(kept):
            assert lengths <= set().union(*needed[k + 1:]), k
        assert kept[-1] == set()

    def test_one_step_interval_computes_no_merged_flow(self, monkeypatch):
        # at dt_max = 1 fs every 0.25 fs window interval is one S6 step,
        # whose closing flow is its opening A1 h, never 2 A1 h
        overrides = ["propagation.T_total=20 fs", "model.N=201",
                     "propagation.dt_max=1 fs"]
        layout = interval_flows(za.plan(za.preset_config("li", overrides)))
        assert {n for n, _ in layout} == {0, 1}
        computed = set(self.computed_flows(monkeypatch, "li", overrides))
        openings = [lengths[0] for n, lengths in layout if n]
        assert set(openings) <= computed
        assert not computed & {2.0 * a1 for a1 in openings}

    @staticmethod
    def count_calls(monkeypatch, mode, overrides=()):
        """(coupling_at calls, Lanczos exponentials, S6 steps, trace) of an
        li run."""
        calls = {"coupling": 0, "expv": 0, "s6": 0}
        expv, s6 = prop._lanczos_expv, prop._s6_step

        def counting_coupling(schedule, t):
            calls["coupling"] += 1
            return coupling_at(schedule, t)

        def counting_expv(*args):
            calls["expv"] += 1
            return expv(*args)

        def counting_s6(*args):
            calls["s6"] += 1
            return s6(*args)

        monkeypatch.setattr(prop, "coupling_at", counting_coupling)
        monkeypatch.setattr(prop, "_lanczos_expv", counting_expv)
        monkeypatch.setattr(prop, "_s6_step", counting_s6)
        cfg = za.preset_config("li", overrides=[
            f"drive.mode={mode}", "propagation.T_total=20 fs", "model.N=201",
            *overrides])
        trace = za.execute(cfg).trace
        return calls["coupling"], calls["expv"], calls["s6"], trace

    def test_square_rwa_run_serves_several_samples_per_exponential(
            self, monkeypatch):
        # H is constant in a square rotating-frame window: one Lanczos space
        # serves several samples, dt_max does not apply there, and the run
        # stays on the Krylov path
        counts = []
        for overrides in ([], ["propagation.dt_max=3 au"]):
            with monkeypatch.context() as patch:
                couplings, exponentials, steps, trace = self.count_calls(
                    patch, "rwa_pulsed", overrides)
            assert couplings == exponentials < len(trace.times) - 1
            assert steps == 0
            counts.append((exponentials, trace.P1))
        (plain, p1), (pinned, pinned_p1) = counts
        assert plain == pinned and np.array_equal(p1, pinned_p1)

    def test_square_rwa_space_is_built_in_full_and_solved_once(
            self, monkeypatch):
        # every Lanczos space takes krylov_dim products, whatever times it
        # serves, and one tridiagonal eigensystem; li's spaces never break
        # down.  16-vector spaces, so that the run takes many of them
        spaces = []
        counts = {"apply": 0, "eigh": 0}
        expv, eigh = prop._lanczos_expv, prop._tridiagonal_eigh
        apply = za.Hamiltonian.apply

        def counting_apply(*args):
            counts["apply"] += 1
            return apply(*args)

        def counting_eigh(*args):
            counts["eigh"] += 1
            return eigh(*args)

        def counting_expv(ham, *args):
            counts.update(apply=0, eigh=0)
            result = expv(ham, *args)
            spaces.append((counts["apply"], counts["eigh"], ham.dimension))
            return result

        monkeypatch.setattr(za.Hamiltonian, "apply", counting_apply)
        monkeypatch.setattr(prop, "_tridiagonal_eigh", counting_eigh)
        monkeypatch.setattr(prop, "_lanczos_expv", counting_expv)
        cfg = za.preset_config("li", overrides=[
            "drive.mode=rwa_pulsed", "propagation.T_total=20 fs",
            "model.N=201", "propagation.krylov_dim=16"])
        za.execute(cfg)
        assert len(spaces) > 10
        assert all(products == min(cfg.krylov_dim, dimension) and solves == 1
                   for products, solves, dimension in spaces)

    def test_square_rwa_run_keeps_every_exponential(self, monkeypatch):
        # fig3_circles' 1 fs sample intervals are longer than one 16-vector
        # space reaches (the default 32-vector space reaches them): each
        # such space serves a dyadic fraction of its first interval
        # instead, and every state an exponential returns is a sample or
        # the start of the next space.  Redoing a failed step as halves
        # took 63 exponentials here, 15 of them thrown away
        returned = []
        expv = prop._lanczos_expv

        def counting(*args):
            states, err, halvings = expv(*args)
            returned.append((len(states), halvings))
            return states, err, halvings

        monkeypatch.setattr(prop, "_lanczos_expv", counting)
        trace = za.execute(za.preset_config("fig3_circles", overrides=[
            "drive.mode=rwa_pulsed", "propagation.T_total=20 fs",
            "propagation.krylov_dim=16"])).trace
        assert all(n == 1 for n, halvings in returned if halvings)
        assert sum(n for n, halvings in returned
                   if not halvings) == len(trace.times) - 1
        assert any(halvings for _, halvings in returned)
        assert len(returned) < 63

    def test_default_li_rwa_run_takes_36_full_spaces(self, monkeypatch):
        # the default 32-vector space reaches about 11 of li's 0.25 fs
        # rotating-frame samples; at 16 vectors the run took 135 spaces
        # and 2160 products
        counts = {"spaces": 0, "products": 0}
        expv, apply = prop._lanczos_expv, za.Hamiltonian.apply

        def counting_expv(*args):
            counts["spaces"] += 1
            return expv(*args)

        def counting_apply(*args):
            counts["products"] += 1
            return apply(*args)

        monkeypatch.setattr(prop, "_lanczos_expv", counting_expv)
        monkeypatch.setattr(za.Hamiltonian, "apply", counting_apply)
        cfg = za.preset_config("li", overrides=["drive.mode=rwa_pulsed"])
        assert cfg.krylov_dim == 32
        za.execute(cfg)
        assert counts == {"spaces": 36, "products": 1152}

    def test_dt_max_replaces_the_drive_step_bound(self, monkeypatch):
        # a dt_max above the built-in bound sets the S6 step; it does not
        # merely cap it
        base = ["propagation.T_total=20 fs", "model.N=201"]
        bound = prop.drive_step_bound(
            za.config.plan(za.preset_config("li", overrides=base)).schedule)
        s6 = prop._s6_step
        lengths = []

        def counting(split, t, h, *rest):
            lengths.append(h)
            return s6(split, t, h, *rest)

        monkeypatch.setattr(prop, "_s6_step", counting)

        def s6_steps(overrides):
            lengths.clear()
            za.execute(za.preset_config("li", overrides=base + overrides))
            return len(lengths), max(lengths)

        default, coarse = s6_steps([]), s6_steps(
            [f"propagation.dt_max={2 * bound!r} au"])
        assert default[1] <= bound < coarse[1] <= 2 * bound
        assert 0 < coarse[0] < default[0]

    def test_full_field_run_takes_one_coupling_call_per_exponential(
            self, monkeypatch):
        # an S6 step reads the coupling once for each of its six rotations,
        # and a full-field run reads it nowhere else; it takes no Lanczos
        # exponential
        couplings, exponentials, steps, _ = self.count_calls(monkeypatch,
                                                             "pulsed")
        assert steps > 0
        assert couplings == 6 * steps
        assert exponentials == 0

    def test_full_field_run_discards_no_cf4_step(self, monkeypatch):
        # no step is tried and redone: the run takes exactly the
        # ceil(span / bound) uniform steps of each sample interval inside a
        # window, counted here from the trace's sample times
        _, exponentials, steps, trace = self.count_calls(monkeypatch,
                                                         "pulsed")
        sched = za.config.plan(za.preset_config("li", overrides=[
            "propagation.T_total=20 fs", "model.N=201"])).schedule
        bound = prop.drive_step_bound(sched)
        expected = 0
        for t0, t1 in zip(trace.times[:-1], trace.times[1:]):
            mid = 0.5 * (t0 + t1)
            if np.any((sched.windows[:, 0] <= mid)
                      & (mid < sched.windows[:, 1])):
                expected += math.ceil((t1 - t0) / bound - 1e-12)
        assert exponentials == 0
        assert steps == expected > 0
        assert trace.norm_error() < 1e-12

    def test_full_field_pulses_fourth_order_against_dense_products(self):
        # dimension 40, resonant carrier, strong drive; the oracle takes
        # dense products of the two-stage Gauss scheme CF4:2 at 1/64
        # of the coarse step h, with g(t) written out from the window list.
        # dt_max sets the S6 step; each halving of it must cut the error of
        # the final state about 16-fold.  Pulses, gaps and samples are
        # whole multiples of h, so that every halving halves every step.
        levels, _, _, ham = small_system(n_points=19)
        omega = levels.E2 - levels.E1
        h = (2 * math.pi / omega) / 10
        Omega = math.pi / (12 * h)  # 4.2 eV, pulses of 12 h
        T = 72 * h  # two cycles of pulse, 8 h, pulse, 4 h
        sched = build_schedule(Omega, omega, 0.0, 8 * h, 4 * h, "pulsed", T)
        assert len(sched.windows) == 4

        def run(dt_max):
            cfg = prop.PropagationConfig(T_total=T, sample_dt=4 * h,
                                         dt_max=dt_max)
            return prop.propagate(prop.initial_state(ham), ham, sched, cfg)

        traces = [run(h / 2**k) for k in range(4)]
        vec = dense_cf4_product(
            ham, prop.initial_state(ham).data, traces[0].times, sched,
            lambda t: Omega * math.sin(omega * t), h / 64)
        errors = [np.max(np.abs(trace.final_state.data - vec))
                  for trace in traces]
        for coarse, fine in zip(errors, errors[1:]):
            assert 12.0 <= coarse / fine <= 20.0

    def test_rwa_pulse_train_matches_dense_products(self, monkeypatch):
        # dimension 40; the oracle steps the same piecewise-constant H with
        # scipy's dense expm, taking g from the window list directly.  Some
        # Lanczos space serves two or more samples
        served = []
        expv = prop._lanczos_expv

        def counting(*args):
            states, err, halvings = expv(*args)
            served.append(0 if halvings else len(states))
            return states, err, halvings

        monkeypatch.setattr(prop, "_lanczos_expv", counting)
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
        assert max(served) >= 2

    def test_config_validation(self):
        for T in (0.0, math.inf):
            with pytest.raises(ValueError):
                prop.PropagationConfig(T_total=T)
        for snap in (-1.0, 2.0):
            with pytest.raises(ValueError,
                               match="propagation.spectrum_snapshot_times"):
                prop.PropagationConfig(T_total=1.0, snapshot_times=(snap,))
        assert prop.PropagationConfig(T_total=4.0).sample_dt == 0.01
        for dim in (2, prop.MAX_KRYLOV_DIM + 1):
            with pytest.raises(ValueError, match="propagation.krylov_dim"):
                prop.PropagationConfig(T_total=1.0, krylov_dim=dim)
        for tol in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="residual_tol"):
                prop.PropagationConfig(T_total=1.0, residual_tol=tol)
        for bad in (-1.0, 0.0):
            with pytest.raises(ValueError, match="propagation.dt_max"):
                prop.PropagationConfig(T_total=1.0, dt_max=bad)
            with pytest.raises(ValueError, match="propagation.sample_stride"):
                prop.PropagationConfig(T_total=1.0, sample_dt=bad)
        # at most MAX_COUNT samples or S6 steps per run
        limit = 1.0 / prop.MAX_COUNT
        prop.PropagationConfig(T_total=1.0, dt_max=limit, sample_dt=limit)
        with pytest.raises(ValueError, match="propagation.dt_max = .* S6 steps"):
            prop.PropagationConfig(T_total=1.0, dt_max=0.5 * limit)
        with pytest.raises(ValueError,
                           match="propagation.sample_stride = .* samples"):
            prop.PropagationConfig(T_total=1.0, sample_dt=0.5 * limit)


@pytest.mark.skipif(prop.openblas_threads() is None,
                    reason="numpy's OpenBLAS exports no thread setter")
def test_propagate_runs_on_one_blas_thread_and_restores_the_pool(
        monkeypatch):
    get, set_threads = prop.openblas_threads()
    inside = []
    expv = prop._lanczos_expv

    def recording(*args):
        inside.append(get())
        return expv(*args)

    def failing(*args):
        raise prop.ConvergenceError("stop")

    cfg = za.preset_config("li", ["drive.mode=rwa_pulsed", "model.N=201",
                                  "propagation.T_total=20 fs"])
    before = get()
    set_threads(2)
    try:
        monkeypatch.setattr(prop, "_lanczos_expv", recording)
        za.execute(cfg)
        assert get() == 2
        monkeypatch.setattr(prop, "_lanczos_expv", failing)
        with pytest.raises(prop.ConvergenceError):
            za.execute(cfg)
        assert get() == 2
    finally:
        set_threads(before)
    assert inside and set(inside) == {1}


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

    def test_no_bound_without_drive(self, monkeypatch):
        # a field-free run takes no step at all: one exact phase flow per
        # sample interval, whatever dt_max says
        couplings, exponentials, steps, _ = TestPropagate.count_calls(
            monkeypatch, "off", ["propagation.dt_max=3 au"])
        assert couplings == exponentials == steps == 0

    @pytest.mark.parametrize("mode", ["rwa_pulsed", "rwa_continuous"])
    def test_no_bound_for_square_rwa_windows(self, mode, monkeypatch):
        # H is constant in a square rotating-frame window: one Lanczos
        # space serves several sample intervals, whatever dt_max says, and
        # the run is the same with and without dt_max
        pinned = "propagation.dt_max=3 au"
        counts = []
        for overrides in ([], [pinned],
                          [pinned, "drive.envelope=cosine_ramp",
                           "drive.ramp=0 fs"],
                          [pinned, "drive.envelope=square", "drive.ramp=2 fs"]):
            with monkeypatch.context() as patch:
                couplings, exponentials, steps, trace = (
                    TestPropagate.count_calls(patch, mode, overrides))
            assert couplings == exponentials < len(trace.times) - 1
            assert steps == 0
            counts.append((exponentials, trace.P1))
        for exponentials, p1 in counts[1:]:
            assert exponentials == counts[0][0]
            assert np.array_equal(p1, counts[0][1])

    def test_negative_carrier_keeps_carrier_bound(self):
        assert (prop.drive_step_bound(make_schedule(1000.0, omega_ev=-10.0))
                == prop.drive_step_bound(make_schedule(1000.0, omega_ev=10.0)))

    @pytest.mark.parametrize("overrides", [
        [],
        ["drive.phase_reset=true"],
        ["drive.envelope=cosine_ramp", "drive.ramp=0.5 fs"],
    ])
    def test_negative_carrier_mirrors_positive_run(self, overrides):
        # g(t) only changes sign with omega; flipping the sign of |2> and
        # the P block maps one run onto the other exactly
        def trace(omega):
            cfg = za.preset_config("li", overrides=[
                "model.N=201", "propagation.T_total=20 fs",
                f"drive.omega={omega} eV", *overrides])
            return za.execute(cfg).trace

        plus, minus = trace(2.5), trace(-2.5)
        for name in ("times", "P1", "P2", "n_c"):
            assert np.array_equal(getattr(minus, name), getattr(plus, name))

    def test_ramped_rwa_keeps_pulse_and_carrier_bound(self):
        # and adds the ramp bound, which binds for this 2 au ramp
        sched = make_schedule(1000.0, mode="rwa_pulsed", envelope="cosine_ramp",
                              ramp=2.0)
        assert sched.coupling_varies
        carrier = 2 * math.pi / za.ev_to_au(10.0)
        assert prop.drive_step_bound(sched) == min(
            sched.t_pi / prop.PULSE_STEP_FRACTION,
            carrier / prop.CARRIER_STEP_FRACTION,
            2.0 / prop.RAMP_STEP_FRACTION) == 2.0 / prop.RAMP_STEP_FRACTION

    def test_short_ramp_sets_the_step(self):
        # li, rotating frame, 0.1 fs cosine ramps: carrier/10 alone left
        # tau_eff 6.8e-5 (relative) off the run at carrier/160
        base = ["model.N=201", "propagation.T_total=30 fs",
                "drive.mode=rwa_pulsed", "drive.envelope=cosine_ramp",
                "drive.ramp=0.1 fs"]
        carrier = 2 * math.pi / za.ev_to_au(2.5)

        def tau(overrides):
            cfg = za.preset_config("li", overrides=base + overrides)
            return za.execute(cfg).fit.tau_eff

        default = tau([])
        fine = tau([f"propagation.dt_max={carrier / 160!r} au"])
        assert abs(default - fine) <= 2e-5 * fine


class TestSplitOracles:
    """Runs whose coupling varies, against dense products and against the
    Krylov CF4 stepper that propagated them before the split."""

    def test_continuous_drive_fourth_order_against_dense_products(self):
        # dimension 64, resonant continuous carrier: each halving of the
        # S6 step cuts the error of the final state 16-fold.  Samples lie
        # four coarse steps apart, so that every halving halves every step.
        levels, _, _, ham = small_system(n_points=31)
        Omega, omega = za.ev_to_au(2.0), levels.E2 - levels.E1
        h = (2 * math.pi / omega) / 10
        T = 40 * h
        sched = build_schedule(Omega, omega, 0.0, 0.0, 0.0, "continuous", T)

        def run(dt_max):
            cfg = prop.PropagationConfig(T_total=T, sample_dt=4 * h,
                                         dt_max=dt_max)
            return prop.propagate(prop.initial_state(ham), ham, sched, cfg)

        traces = [run(h / 2**k) for k in range(3)]
        vec = dense_cf4_product(
            ham, prop.initial_state(ham).data, traces[0].times, sched,
            lambda t: Omega * math.sin(omega * t), h / 64)
        errors = [np.max(np.abs(trace.final_state.data - vec))
                  for trace in traces]
        for coarse, fine in zip(errors, errors[1:]):
            assert 14.0 <= coarse / fine <= 18.0

    def test_li_matches_krylov_cf4_at_carrier_over_40(self, li_point_a):
        # the li preset under Krylov CF4 steps of carrier/40, the stepper
        # of full-field runs before the split: tau_eff in fs, then P1, P2
        # and n_c at four samples
        krylov_tau = 32.70582740264287
        krylov = {100: (0.13145586381453914, 0.3837441211829595,
                        0.4848000150024483),
                  200: (0.03206052619531816, 0.19258755775840178,
                        0.7753519160462312),
                  400: (0.02283270068907002, 0.035105431437245954,
                        0.9420618678736467),
                  421: (0.04043005527560976, 0.006156781225234245,
                        0.9534131634991155)}
        trace = li_point_a.trace
        assert len(trace.times) == 422
        tau = za.au_to_fs(li_point_a.fit.tau_eff)
        assert abs(tau - krylov_tau) < 1e-6 * krylov_tau
        for i, want in krylov.items():
            got = (trace.P1[i], trace.P2[i], trace.n_c[i])
            assert np.max(np.abs(np.subtract(got, want))) < 1e-6

    def test_full_field_two_level_pulse_against_dense_products(self):
        # criterion 10's full-field run: no continuum, so both blocks are
        # 1 x 1, and one pi pulse at Omega/omega = 0.01
        Omega, omega = za.ev_to_au(0.1), za.ev_to_au(10.0)
        ham = za.Hamiltonian(diag=np.array([0.0, omega]), m_s=np.zeros(0),
                             m_p=np.zeros(0))
        sched = build_schedule(Omega, omega, 0.0, 0.0, 0.0, "pulsed",
                               math.pi / Omega)
        cfg = prop.PropagationConfig(T_total=sched.t_pi)
        trace = prop.propagate(prop.initial_state(ham), ham, sched, cfg)
        vec = dense_cf4_product(
            ham, prop.initial_state(ham).data, trace.times, sched,
            lambda t: Omega * math.sin(omega * t),
            prop.drive_step_bound(sched) / 16)
        # S6 at carrier/10 reads 4.3e-8 off here
        assert np.max(np.abs(trace.final_state.data - vec)) < 1e-7
        assert trace.P2[-1] == za.pi_pulse_transfer_check(
            Omega, omega, 0.0, mode="pulsed")
        assert abs(trace.P2[-1] - 1.0) < 1e-3


class TestTransformInvariants:
    """Where site amplitudes x are formed from eigencoordinates c, the
    transform keeps the norm and the drive-free energy,
    <x|H0|x> = sum_j lam_j |c_j|^2.  The second checks the eigenvalues
    and the eigenvectors together; the populations of the other samples
    are read from c and check neither."""

    @pytest.mark.parametrize("preset, overrides", [
        ("li", []), ("li_plus", []), ("fig4", ["model.N=601"]),
        ("li", ["drive.mode=off"])], ids=["li", "li_plus", "fig4", "li_off"])
    def test_final_transform_keeps_norm_and_energy(self, preset, overrides,
                                                   monkeypatch):
        formed = []
        sites = prop._Split.sites

        def recording(split):
            x = sites(split)
            formed.append((split.coeffs.copy(), split.lam, x))
            return x

        monkeypatch.setattr(prop._Split, "sites", recording)
        cfg = za.preset_config(preset, overrides)
        result = za.execute(cfg)
        c, lam, x = formed[-1]  # at T_total
        assert np.array_equal(x, result.trace.final_state.data)
        p = za.plan(cfg)
        h0 = za.assemble(p.levels, p.grid_s, p.grid_p)
        energy = np.sum(lam * np.abs(c) ** 2)
        assert abs(np.vdot(x, x).real - np.vdot(c, c).real) <= 1e-13
        assert (abs(np.vdot(x, h0.apply(x)).real - energy)
                <= 1e-13 * abs(energy))


def wide_band_populations(result):
    """P1 and P2 on the run's sample grid from the wide-band 2 x 2 model
    [[-i G1/2, g], [g, (E2 - E1) - i G2/2]], G = 1/tau: each bound state
    decays at its golden-rule rate into a flat continuum of infinite
    width (Wigner & Weisskopf).  g(t) is Omega sin(omega t) inside the
    schedule's windows and 0 outside; RK4 steps of at most carrier/200
    span each sample interval.  E1 is taken out of the diagonal: left in,
    its phase (E1 h = 0.6 at li's step) makes RK4 damp the amplitudes.
    Nothing here is shared with either propagator."""
    cfg, sched, times = result.config, result.schedule, result.trace.times
    d1 = -0.5j / cfg.tau1
    d2 = (cfg.E2 - cfg.E1) - 0.5j / cfg.tau2
    Omega, omega = sched.Omega, sched.omega
    h_max = (2 * math.pi / omega) / 200
    windows = sched.windows.tolist()
    a1, a2 = 1.0 + 0j, 0j
    p1, p2 = [1.0], [0.0]
    for t0, t1 in zip(times[:-1].tolist(), times[1:].tolist()):
        mid = 0.5 * (t0 + t1)
        amp = Omega if any(s <= mid < e for s, e in windows) else 0.0

        def rhs(t, x1, x2):
            g = amp * math.sin(omega * t)
            return -1j * (d1 * x1 + g * x2), -1j * (g * x1 + d2 * x2)

        n = math.ceil((t1 - t0) / h_max)
        h = (t1 - t0) / n
        for j in range(n):
            t = t0 + j * h
            k1 = rhs(t, a1, a2)
            k2 = rhs(t + h / 2, a1 + h / 2 * k1[0], a2 + h / 2 * k1[1])
            k3 = rhs(t + h / 2, a1 + h / 2 * k2[0], a2 + h / 2 * k2[1])
            k4 = rhs(t + h, a1 + h * k3[0], a2 + h * k3[1])
            a1 += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            a2 += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        p1.append(abs(a1) ** 2)
        p2.append(abs(a2) ** 2)
    return np.array(p1), np.array(p2)


class TestWideBandOracle:
    @pytest.mark.parametrize("preset", ["li", "li_plus"])
    def test_driven_tau_eff_near_the_full_model(self, preset, request):
        # The full model's continua are windows of finite width W around
        # each line, discretised in N modes, so its decay rates differ
        # from the golden-rule rates of the infinitely wide continuum.
        # Measured: li 32.912 against 32.706 fs (+0.63 %), li_plus 4.755
        # against 4.700 fs (+1.17 %); the band is 2 %.
        result = (request.getfixturevalue("li_point_a") if preset == "li"
                  else za.execute(za.preset_config(preset)))
        p1, p2 = wide_band_populations(result)
        oracle = za.fit_lifetime(za.ObservableTrace(
            times=result.trace.times, n_c=1.0 - p1 - p2, P1=p1, P2=p2,
            cycle_flags=result.trace.cycle_flags))
        assert abs(oracle.tau_eff / result.fit.tau_eff - 1.0) < 0.02
