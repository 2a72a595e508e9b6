"""Atomic-unit bookkeeping and boundary conversions.

Everything inside the package is computed in Hartree atomic units with
hbar = 1, so energies double as angular frequencies and inverse times.
Electron-volts, femtoseconds and TW/cm^2 exist only at the configuration
and output boundary; this module owns the conversion factors.
"""
from __future__ import annotations

import math

HARTREE_EV = 27.211386           # 1 Hartree in eV
AU_TIME_FS = 0.02418884          # 1 a.u. of time in fs
AU_INTENSITY_WCM2 = 3.50945e16   # intensity of a 1 a.u. field, W/cm^2

# Transition dipole used when the drive strength is specified as an
# intensity.  Derived (not tabulated): inverting the lithium pairs
# 5.1 TW/cm^2 <-> 0.3 eV and 20.4 TW/cm^2 <-> 0.6 eV gives d = 0.9145 a.u.
DEFAULT_DIPOLE_AU = 0.9145

# suffix -> (dimension it measures, factor to atomic units)
# "au" is accepted for every dimension and maps to factor 1.
_UNITS = {
    "Ha": ("energy", 1.0),
    "eV": ("energy", 1.0 / HARTREE_EV),
    "fs": ("time", 1.0 / AU_TIME_FS),
    "TWcm2": ("intensity", 1.0e12 / AU_INTENSITY_WCM2),
    "au": (None, 1.0),
}


class UnitError(ValueError):
    """Unknown unit suffix or unit/dimension mismatch."""


def _factor(unit: str, dimension: str) -> float:
    try:
        unit_dim, factor = _UNITS[unit]
    except KeyError:
        raise UnitError(f"unknown unit suffix {unit!r}") from None
    if unit_dim is not None and unit_dim != dimension:
        raise UnitError(f"unit {unit!r} does not measure {dimension!r}")
    return factor


def to_atomic(value: float, unit: str, dimension: str) -> float:
    """Convert a raw number carrying a unit suffix to atomic units."""
    return value * _factor(unit, dimension)


def ev_to_au(energy_ev: float) -> float:
    return energy_ev / HARTREE_EV


def au_to_ev(energy_au: float) -> float:
    return energy_au * HARTREE_EV


def fs_to_au(time_fs: float) -> float:
    return time_fs / AU_TIME_FS


def au_to_fs(time_au: float) -> float:
    return time_au * AU_TIME_FS


def rabi_from_intensity(intensity: float, dipole: float) -> float:
    """Rabi energy (a.u.) of a drive with the given peak intensity (a.u.).

    The peak field of a beam with intensity I is sqrt(I) in atomic units,
    so the Rabi energy is dipole * sqrt(I); it scales as the square root
    of the intensity.
    """
    if intensity < 0:
        raise ValueError(f"intensity must be non-negative, got {intensity}")
    if dipole <= 0:
        raise ValueError(f"dipole must be positive, got {dipole}")
    return dipole * math.sqrt(intensity)

