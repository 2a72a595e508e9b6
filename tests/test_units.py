import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import zenoauger.units as u


def test_hartree_in_ev_round_value():
    assert u.to_atomic(27.211386, "eV", "energy") == pytest.approx(1.0,
                                                                   rel=1e-12)
    assert u.ev_to_au(27.211386) == pytest.approx(1.0, rel=1e-12)
    assert u.au_to_ev(1.0) == 27.211386
    assert u.to_atomic(2.5, "Ha", "energy") == 2.5


def test_zero_is_zero_in_any_unit():
    for unit, dimension in (("eV", "energy"), ("Ha", "energy"),
                            ("fs", "time"), ("TWcm2", "intensity"),
                            ("au", "dipole")):
        assert u.to_atomic(0.0, unit, dimension) == 0.0
    assert u.ev_to_au(0.0) == u.au_to_ev(0.0) == 0.0
    assert u.fs_to_au(0.0) == u.au_to_fs(0.0) == 0.0


def test_au_time_in_fs():
    assert u.to_atomic(0.02418884, "fs", "time") == pytest.approx(1.0,
                                                                  rel=1e-12)
    assert u.fs_to_au(0.02418884) == pytest.approx(1.0, rel=1e-12)
    assert u.au_to_fs(1.0) == 0.02418884


def test_dimension_mismatch_rejected():
    with pytest.raises(u.UnitError):
        u.to_atomic(1.0, "fs", "energy")
    with pytest.raises(u.UnitError):
        u.to_atomic(1.0, "eV", "time")
    with pytest.raises(u.UnitError):
        u.to_atomic(1.0, "TWcm2", "energy")


def test_unknown_unit_rejected():
    with pytest.raises(u.UnitError):
        u.to_atomic(1.0, "meV", "energy")


@given(value=st.floats(min_value=1e-6, max_value=1e6),
       unit=st.sampled_from(["eV", "Ha", "au"]))
def test_energy_conversion_round_trips(value, unit):
    atomic = u.to_atomic(value, unit, "energy")
    back = u.au_to_ev(atomic) if unit == "eV" else atomic
    assert back == pytest.approx(value, rel=1e-12)
    assert u.au_to_ev(u.ev_to_au(value)) == pytest.approx(value, rel=1e-12)


@given(value=st.floats(min_value=1e-6, max_value=1e6))
def test_time_conversion_round_trips(value):
    back = u.au_to_fs(u.to_atomic(value, "fs", "time"))
    assert back == pytest.approx(value, rel=1e-12)
    assert u.au_to_fs(u.fs_to_au(value)) == pytest.approx(value, rel=1e-12)


def test_lithium_intensity_rabi_pair():
    intensity = u.to_atomic(5.1, "TWcm2", "intensity")
    rabi = u.rabi_from_intensity(intensity, 0.9145)
    assert u.au_to_ev(rabi) == pytest.approx(0.3, rel=1e-3)


def test_intensity_ratio_four_doubles_rabi():
    d = 0.9145
    i1 = u.to_atomic(5.1, "TWcm2", "intensity")
    i2 = u.to_atomic(20.4, "TWcm2", "intensity")
    r1 = u.rabi_from_intensity(i1, d)
    r2 = u.rabi_from_intensity(i2, d)
    assert r2 == pytest.approx(2.0 * r1, rel=1e-12)


def test_zero_intensity_zero_rabi():
    assert u.rabi_from_intensity(0.0, 0.9145) == 0.0


def test_negative_intensity_rejected():
    with pytest.raises(ValueError):
        u.rabi_from_intensity(-1.0, 0.9145)
    with pytest.raises(ValueError):
        u.rabi_from_intensity(1.0, 0.0)


def test_rabi_scales_as_sqrt_intensity():
    rng = np.random.default_rng(42)
    d = 0.9145
    for intensity in rng.uniform(1e-8, 1e-2, size=10):
        expected = d * math.sqrt(intensity)
        assert u.rabi_from_intensity(intensity, d) == pytest.approx(
            expected, rel=1e-14)

