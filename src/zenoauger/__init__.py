"""Measurement-slowed Auger-type decay simulator.

A two-bound-state/two-continuum model driven by pulse trains: build the
arrowhead Hamiltonian, propagate the time-dependent Schroedinger equation
(exact flows in the eigenbasis of the drive-free blocks, split by a
fourth-order scheme where the coupling varies; Lanczos exponentials,
each read out at several samples, in square rotating-frame windows,
where it is a nonzero constant), and extract effective lifetimes, time-resolved
lineshapes, drive-induced line splittings and continuum mode-entanglement
matrices.
"""

__version__ = "0.1.0"

from .units import (
    AU_INTENSITY_WCM2, AU_TIME_FS, DEFAULT_DIPOLE_AU, HARTREE_EV, UnitError,
    au_to_ev, au_to_fs, ev_to_au, fs_to_au, rabi_from_intensity, to_atomic,
)
from .model import (
    ContinuumGrid, Hamiltonian, LevelScheme, ResolutionReport, StateVector,
    assemble, build_grid, default_window, lifetime_to_coupling,
    rotating_frame, validate_resolution,
)
from .drive import PulseSchedule, build_schedule, coupling_at, envelope_at
from .propagator import (
    ConvergenceError, PropagationConfig, evolve_interval, initial_state,
    pi_pulse_transfer_check, propagate,
)
from .observables import (
    LifetimeFit, ObservableTrace, Peak, Spectrum, find_peaks, fit_lifetime,
    lineshape, orbital_populations, stark_splittings,
)
from .entanglement import (
    ConcurrenceMatrix, concurrence_matrix, reduced_two_mode_density,
    two_mode_concurrence, wootters_concurrence, write_concurrence,
)
from .config import (
    ConfigError, PRESETS, RunConfig, RunResult, apply_axis_value,
    canonical_text, execute, expand, load_config, plan, preset_config,
    sweep_points,
)
