"""Run configuration: flat key-value files, presets, expansion, execution.

The on-disk format is one ``section.key = value`` pair per line with
optional unit suffixes (eV, Ha, fs, au, TWcm2) and ``#`` comments; no
nesting, so configurations diff cleanly.  A configuration expands to a
fully explicit canonical form (every key present, all values in atomic
units, 17 significant digits) before execution, and that expanded form
re-expands to itself.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import units
from .drive import ENVELOPES, MODES, PulseSchedule, build_schedule
from .model import (ContinuumGrid, LevelScheme, ResolutionReport, assemble,
                    build_grid, default_window, rotating_frame,
                    validate_resolution)
from .observables import (LifetimeFit, ObservableTrace, find_peaks,
                          fit_lifetime, in_fit_window, lineshape,
                          stark_splittings)
from .propagator import (PropagationConfig, initial_state, propagate,
                         sample_times)


class ConfigError(ValueError):
    """Invalid configuration; carries the offending key when known."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message if key is None else f"{key}: {message}")
        self.key = key


FLOAT_FORMAT = "%.16e"  # canonical: scientific, 17 significant digits


def format_float(x: float) -> str:
    """Canonical scientific notation with 17 significant digits."""
    return FLOAT_FORMAT % x


def _key(key: str, kind: str, default=None):
    """A RunConfig field read from config ``key``; ``kind`` names its parser."""
    return field(default=default, metadata={"key": key, "kind": kind})


@dataclass(frozen=True)
class RunConfig:
    """Fully parsed configuration; every physical value in atomic units."""

    E1: float = _key("model.E1", "energy", math.nan)
    E2: float = _key("model.E2", "energy", math.nan)
    eps_c: float = _key("model.eps_c", "energy", 0.0)
    tau1: float = _key("model.tau1", "time", math.nan)
    tau2: float = _key("model.tau2", "time_or_inf", math.inf)
    W: float | None = _key("model.W", "energy")
    N: int = _key("model.N", "int", 801)
    n_exponent: int = _key("model.n_exponent", "int", 1)
    mode: str = _key("drive.mode", "str", "off")
    Omega: float | None = _key("drive.Omega", "energy")
    intensity: float | None = _key("drive.intensity", "intensity")
    dipole: float = _key("drive.dipole", "dipole", units.DEFAULT_DIPOLE_AU)
    omega: float | None = _key("drive.omega", "energy")
    delta: float | None = _key("drive.delta", "energy")
    t_m: float = _key("drive.t_m", "time", 0.0)
    dt_delay: float = _key("drive.dt_delay", "time", 0.0)
    envelope: str = _key("drive.envelope", "str", "square")
    ramp: float = _key("drive.ramp", "time", 0.0)
    phase_reset: bool = _key("drive.phase_reset", "bool", False)
    T_total: float = _key("propagation.T_total", "time", math.nan)
    dt_max: float | None = _key("propagation.dt_max", "time")
    krylov_dim: int = _key("propagation.krylov_dim", "int",
                           PropagationConfig.krylov_dim)
    residual_tol: float = _key("propagation.residual_tol", "float",
                               PropagationConfig.residual_tol)
    sample_stride: float | None = _key("propagation.sample_stride", "time")
    snapshot_times: tuple[float, ...] = _key(
        "propagation.spectrum_snapshot_times", "time_list", ())
    preset: str | None = _key("preset", "str")


# key -> (attribute, kind)
_KEYS = {f.metadata["key"]: (f.name, f.metadata["kind"])
         for f in dataclasses.fields(RunConfig)}

_REQUIRED = ("model.E1", "model.E2", "model.tau1", "propagation.T_total")

_DIMENSIONED = {"energy": "energy", "time": "time", "time_or_inf": "time",
                "intensity": "intensity", "dipole": "dipole"}


def _parse_scalar(text: str, kind: str, key: str) -> float:
    parts = text.split()
    if kind == "time_or_inf" and parts == ["inf"]:
        return math.inf
    if len(parts) != 2:
        raise ConfigError(
            f"expected '<number> <unit>' with a unit suffix, got {text!r}", key)
    num, unit = parts
    try:
        value = float(num)
    except ValueError:
        raise ConfigError(f"not a number: {num!r}", key) from None
    try:
        value = units.to_atomic(value, unit, _DIMENSIONED[kind])
    except units.UnitError as exc:
        raise ConfigError(str(exc), key) from None
    # only model.tau2 may be infinite (a stable partner level)
    if not (math.isfinite(value) or (kind == "time_or_inf"
                                      and value == math.inf)):
        raise ConfigError(f"must be finite, got {text!r}", key)
    return value


def _parse_value(text: str, kind: str, key: str):
    text = text.strip()
    if kind in _DIMENSIONED:
        return _parse_scalar(text, kind, key)
    if kind == "int":
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"not an integer: {text!r}", key) from None
    if kind == "float":
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"not a number: {text!r}", key) from None
    if kind == "bool":
        if text in ("true", "false"):
            return text == "true"
        raise ConfigError(f"expected true or false, got {text!r}", key)
    if kind == "time_list":
        if not text:
            return ()
        return tuple(_parse_scalar(part.strip(), "time", key)
                     for part in text.split(","))
    return text  # str


def parse_config_text(text: str) -> dict[str, str]:
    """Raw ``key -> value-text`` pairs from a flat config document."""
    raw: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno} is not 'key = value': {line!r}")
        key, value = body.split("=", 1)
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError("unknown configuration key", key)
        if key in raw:
            raise ConfigError(f"given on lines {lines[key]} and {lineno}", key)
        raw[key], lines[key] = value.strip(), lineno
    return raw


def apply_overrides(raw: dict[str, str], overrides) -> dict[str, str]:
    out = dict(raw)
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, value = item.split("=", 1)
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError("unknown configuration key", key)
        out[key] = value.strip()
    return out


def build_config(raw: dict[str, str]) -> RunConfig:
    """Typed configuration from raw pairs, preset defaults filled in."""
    preset_name = raw.get("preset")
    if preset_name is not None:
        if preset_name not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset_name!r}; available: {sorted(PRESETS)}",
                "preset")
        merged = dict(PRESETS[preset_name])
        merged.update({k: v for k, v in raw.items() if k != "preset"})
        merged["preset"] = preset_name
        raw = merged
    missing = [key for key in _REQUIRED if key not in raw]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    values = {}
    for key, text in raw.items():
        attr, kind = _KEYS[key]
        values[attr] = _parse_value(text, kind, key)
    return RunConfig(**values)


def expand(cfg: RunConfig) -> RunConfig:
    """Resolve every derived quantity so the configuration is explicit.

    Fills the Rabi energy (from intensity if needed), the drive frequency
    (resonant by default), the detuning, and the continuum window.
    Expanding an already expanded configuration is the identity.
    """
    if cfg.mode not in MODES:
        raise ConfigError(f"unknown mode {cfg.mode!r}", "drive.mode")
    if cfg.envelope not in ENVELOPES:
        raise ConfigError(f"unknown envelope {cfg.envelope!r}", "drive.envelope")
    if cfg.n_exponent not in (1, 2, 3):
        raise ConfigError("density exponent must be 1, 2 or 3",
                          "model.n_exponent")

    split = cfg.E2 - cfg.E1
    if cfg.omega is not None:
        omega = cfg.omega
        delta = omega - split
        # false for a NaN omega (a sweep value), which build_schedule refuses
        if cfg.delta is not None and abs(cfg.delta - delta) > 1e-12:
            raise ConfigError(
                "drive.delta conflicts with drive.omega; give one of the two",
                "drive.delta")
    else:
        delta = cfg.delta if cfg.delta is not None else 0.0
        omega = split + delta

    if cfg.Omega is not None:
        rabi = cfg.Omega
    elif cfg.intensity is not None:
        rabi = units.rabi_from_intensity(cfg.intensity, cfg.dipole)
    elif cfg.mode == "off":
        rabi = 0.0
    else:
        raise ConfigError("driven modes need drive.Omega or drive.intensity",
                          "drive.Omega")

    window = cfg.W if cfg.W is not None else default_window(
        min(cfg.tau1, cfg.tau2), rabi)

    return dataclasses.replace(cfg, Omega=rabi, intensity=None, omega=omega,
                               delta=delta, W=window)


def canonical_text(cfg: RunConfig) -> str:
    """Expanded configuration as a flat document, atomic units throughout."""
    cfg = expand(cfg)
    lines = []
    for key in sorted(k for k in _KEYS if k != "preset"):
        attr, kind = _KEYS[key]
        value = getattr(cfg, attr)
        if value is None:
            continue
        if kind in _DIMENSIONED:
            if isinstance(value, float) and math.isinf(value):
                lines.append(f"{key} = inf")
            else:
                lines.append(f"{key} = {format_float(value)} au")
        elif kind == "time_list":
            if value:
                body = ", ".join(f"{format_float(v)} au" for v in value)
                lines.append(f"{key} = {body}")
        elif kind == "bool":
            lines.append(f"{key} = {'true' if value else 'false'}")
        elif kind == "float":
            lines.append(f"{key} = {format_float(value)}")
        else:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def load_config(path: str, overrides=None, preset: str | None = None) -> RunConfig:
    """Read, override and type a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    raw = parse_config_text(text)
    if preset is not None:
        raw["preset"] = preset
    raw = apply_overrides(raw, overrides)
    return build_config(raw)


def preset_config(name: str, overrides=None) -> RunConfig:
    raw = apply_overrides({"preset": name}, overrides)
    return build_config(raw)


# sweep axis -> conversion of its command-line value (Omega2 in eV^2,
# intensity in TW/cm^2, t_m and dt_delay in fs, omega in eV) to atomic units
SWEEP_AXES = {
    "Omega2": lambda v: v / units.HARTREE_EV**2,
    "intensity": lambda v: units.to_atomic(v, "TWcm2", "intensity"),
    "t_m": units.fs_to_au,
    "dt_delay": units.fs_to_au,
    "omega": units.ev_to_au,
}


def apply_axis_value(cfg: RunConfig, axis: str, value: float) -> RunConfig:
    """Expanded configuration with one sweep axis set (value in a.u.).

    ``Omega2`` is the squared Rabi energy (proportional to intensity); the
    others set the named drive parameter.  The axis replaces the other way
    of giving that input, so the point expands as ``run`` would expand it.
    """
    if axis == "Omega2":
        if value < 0:
            raise ConfigError("squared Rabi energy cannot be negative")
        cfg = dataclasses.replace(cfg, Omega=math.sqrt(value), intensity=None)
    elif axis == "intensity":
        cfg = dataclasses.replace(cfg, Omega=None, intensity=value)
    elif axis in ("t_m", "dt_delay"):
        cfg = dataclasses.replace(cfg, **{axis: value})
    elif axis == "omega":
        cfg = dataclasses.replace(cfg, omega=value, delta=None)
    else:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    cfg = expand(cfg)
    if axis in ("Omega2", "intensity") and cfg.Omega == 0.0:
        return dataclasses.replace(cfg, Omega=0.0, mode="off")  # never -0.0
    return cfg


@dataclass(eq=False)
class RunPlan:
    """An expanded configuration and all a run builds before propagating."""

    config: RunConfig
    levels: LevelScheme
    grid_s: ContinuumGrid
    grid_p: ContinuumGrid
    reports: tuple[ResolutionReport, ResolutionReport]
    schedule: PulseSchedule
    propagation: PropagationConfig

    @property
    def warnings(self) -> tuple[str, ...]:
        return tuple(d for report in self.reports for d in report.diagnostics)


@dataclass(eq=False)
class RunResult(RunPlan):
    """Everything a single run produces, pre-emission."""

    trace: ObservableTrace
    fit: LifetimeFit
    peaks: list
    splittings: dict


def plan(cfg: RunConfig) -> RunPlan:
    """Expand a configuration and build what a run needs before propagating.

    Every check a run makes raises ConfigError or ValueError here.
    """
    cfg = expand(cfg)
    levels = LevelScheme(E1=cfg.E1, E2=cfg.E2, eps_c=cfg.eps_c,
                         tau1=cfg.tau1, tau2=cfg.tau2)
    grid_s = build_grid("S", levels.epsA1, cfg.W, cfg.N, cfg.n_exponent,
                        cfg.tau1)
    grid_p = build_grid("P", levels.epsA2, cfg.W, cfg.N, cfg.n_exponent,
                        cfg.tau2)
    reports = (validate_resolution(grid_s, cfg.T_total, cfg.tau1),
               validate_resolution(grid_p, cfg.T_total, cfg.tau2))
    schedule = build_schedule(
        Omega=cfg.Omega, omega=cfg.omega, delta=cfg.delta, t_m=cfg.t_m,
        dt_delay=cfg.dt_delay, mode=cfg.mode, T_total=cfg.T_total,
        envelope=cfg.envelope, ramp=cfg.ramp, phase_reset=cfg.phase_reset)
    propagation = PropagationConfig(
        T_total=cfg.T_total, dt_max=cfg.dt_max, sample_dt=cfg.sample_stride,
        krylov_dim=cfg.krylov_dim, residual_tol=cfg.residual_tol,
        snapshot_times=cfg.snapshot_times)
    if np.count_nonzero(in_fit_window(sample_times(schedule, propagation))) < 2:
        raise ConfigError("the lifetime fit window holds fewer than two "
                          "output samples", "propagation.sample_stride")
    return RunPlan(cfg, levels, grid_s, grid_p, reports, schedule, propagation)


def execute(cfg: RunConfig) -> RunResult:
    """Plan a run from a configuration, propagate and post-process."""
    p = plan(cfg)
    ham = assemble(p.levels, p.grid_s, p.grid_p)
    if p.schedule.is_rwa:
        ham = rotating_frame(ham, p.config.omega)
    trace = propagate(initial_state(ham), ham, p.schedule, p.propagation,
                      grids=(p.grid_s, p.grid_p))

    fit = fit_lifetime(trace)
    peaks = find_peaks(lineshape(trace, trace.T))
    return RunResult(**vars(p), trace=trace, fit=fit, peaks=peaks,
                     splittings=stark_splittings(peaks))


def sweep_points(cfg: RunConfig, axis: str, values) -> list[RunConfig]:
    """The expanded configuration of each scan point, planned but not run.

    Values are in the axis's unit (``SWEEP_AXES``).  Every point is
    planned before any is returned, so a scan is refused before it runs
    a point; the refusal names the first bad point.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    points = []
    for value in values:
        try:
            point = apply_axis_value(cfg, axis, SWEEP_AXES[axis](value))
            plan(point)
        except ValueError as exc:
            raise ConfigError(
                f"sweep point {axis} = {float(value)!r}: {exc}") from None
        points.append(point)
    return points


# Named scenarios.  li / li_plus are the lithium atom and the hollow
# lithium ion; fig3_* are the slow model system used for lifetime trend
# scans (circles: stable partner level, squares: partner decaying at
# 300 fs); fig4 is the model system at the intensity used for the
# entanglement snapshots.
PRESETS: dict[str, dict[str, str]] = {
    "li": {
        "model.E1": "52.0 eV",
        "model.E2": "54.5 eV",
        "model.eps_c": "0.0 eV",
        "model.tau1": "17.6 fs",
        "model.tau2": "174.0 fs",
        "model.W": "2.0 eV",
        "model.N": "801",
        "model.n_exponent": "1",
        "drive.mode": "pulsed",
        "drive.intensity": "5.1 TWcm2",
        "drive.dipole": "0.9145 au",
        "drive.omega": "2.5 eV",
        "drive.t_m": "0.32 fs",
        "drive.dt_delay": "0.0 fs",
        "propagation.T_total": "100.0 fs",
        "propagation.sample_stride": "0.25 fs",
    },
    "li_plus": {
        "model.E1": "40.0 eV",
        "model.E2": "44.1 eV",
        "model.eps_c": "0.0 eV",
        "model.tau1": "3.3 fs",
        "model.tau2": "8.4 fs",
        "model.W": "5.0 eV",
        "model.N": "501",
        "model.n_exponent": "1",
        "drive.mode": "pulsed",
        "drive.Omega": "1.0 eV",
        "drive.omega": "4.1 eV",
        "drive.t_m": "0.32 fs",
        "drive.dt_delay": "0.0 fs",
        "propagation.T_total": "25.0 fs",
        "propagation.sample_stride": "0.05 fs",
    },
    "fig3_circles": {
        "model.E1": "35.0 eV",
        "model.E2": "45.0 eV",
        "model.eps_c": "0.0 eV",
        "model.tau1": "100.0 fs",
        "model.tau2": "inf",
        "model.W": "3.2 eV",
        "model.N": "1101",
        "model.n_exponent": "1",
        "drive.mode": "pulsed",
        "drive.Omega": "1.0 eV",
        "drive.omega": "10.0 eV",
        "drive.t_m": "0.32 fs",
        "drive.dt_delay": "0.0 fs",
        "propagation.T_total": "450.0 fs",
        "propagation.sample_stride": "1.0 fs",
    },
    "fig3_squares": {
        "model.E1": "35.0 eV",
        "model.E2": "45.0 eV",
        "model.eps_c": "0.0 eV",
        "model.tau1": "100.0 fs",
        "model.tau2": "300.0 fs",
        "model.W": "3.2 eV",
        "model.N": "1101",
        "model.n_exponent": "1",
        "drive.mode": "pulsed",
        "drive.Omega": "1.0 eV",
        "drive.omega": "10.0 eV",
        "drive.t_m": "0.32 fs",
        "drive.dt_delay": "0.0 fs",
        "propagation.T_total": "450.0 fs",
        "propagation.sample_stride": "1.0 fs",
    },
    "fig4": {
        "model.E1": "35.0 eV",
        "model.E2": "45.0 eV",
        "model.eps_c": "0.0 eV",
        "model.tau1": "100.0 fs",
        "model.tau2": "300.0 fs",
        "model.W": "6.0 eV",
        "model.N": "1201",
        "model.n_exponent": "1",
        "drive.mode": "pulsed",
        "drive.intensity": "210.0 TWcm2",
        "drive.dipole": "0.9145 au",
        "drive.omega": "10.0 eV",
        "drive.t_m": "0.32 fs",
        "drive.dt_delay": "0.0 fs",
        "propagation.T_total": "12.0 fs",
        "propagation.sample_stride": "0.05 fs",
        "propagation.spectrum_snapshot_times": "12.0 fs",
    },
}
