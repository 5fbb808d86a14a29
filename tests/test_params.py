"""Parameter containers, constants and unit helpers."""

import math

import pytest

from snspin.params import (
    G_ELECTRON,
    MU_B_HZ_PER_T,
    SN117_GYRO_HZ_PER_T,
    ManifoldParams,
    MagneticField,
    electron_larmor_hz,
    field_for_larmor,
    excited_defaults,
    ground_defaults,
    reference_field,
)


def test_constants():
    assert MU_B_HZ_PER_T == 13.996246e9
    assert SN117_GYRO_HZ_PER_T == -15.261e6
    assert SN117_GYRO_HZ_PER_T < 0  # moment anti-parallel to the spin
    assert G_ELECTRON == 2.0


def test_ground_defaults_values():
    p = ground_defaults()
    assert p.lambda_soc == 830e9
    assert p.a_par == 673.8e6
    assert p.a_perp == 670.95e6
    assert p.strain_egx == 928.4e9
    assert p.strain_egy == 0.0
    assert p.upsilon_ioc == 0.0
    assert p.orbital_quench_q == 0.171


def test_excited_defaults_values():
    p = excited_defaults()
    assert p.lambda_soc == 3.02e12
    assert p.a_par == -232e6
    assert p.a_perp == 464e6
    assert p.strain_egx == -209e9


def test_delta_total():
    p = ManifoldParams(lambda_soc=3.0, strain_egx=2.0)
    assert p.delta_total == pytest.approx(math.sqrt(9.0 + 16.0))
    p = ManifoldParams(lambda_soc=3.0, strain_egx=2.0, strain_egy=-2.0)
    assert p.strain_total == pytest.approx(math.sqrt(8.0))
    assert p.delta_total == pytest.approx(math.sqrt(9.0 + 32.0))


def test_larmor_round_trip():
    b = field_for_larmor(6.03e6)
    assert electron_larmor_hz(b) == pytest.approx(6.03e6, rel=1e-12)
    # 6.03 MHz electron Larmor is a fraction of a millitesla
    assert 1e-4 < b < 3e-4


def test_reference_field_larmor_components():
    f = reference_field()
    assert electron_larmor_hz(f.bx) == pytest.approx(6.03e6, rel=1e-12)
    assert electron_larmor_hz(f.bz) == pytest.approx(1.55e6, rel=1e-12)
    assert f.by == 0.0


def test_params_reject_non_numbers():
    with pytest.raises(ValueError):
        ManifoldParams(lambda_soc=float("nan"))
    with pytest.raises(ValueError):
        ManifoldParams(lambda_soc="big")
    with pytest.raises(ValueError):
        MagneticField(bx=float("nan"))
    for value in (float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite"):
            ManifoldParams(lambda_soc=value)
        with pytest.raises(ValueError, match="finite"):
            MagneticField(bx=value)
    # a bool is an int to Python, but no coupling or field component
    for value in (True, False):
        with pytest.raises(ValueError, match="a_par"):
            ManifoldParams(lambda_soc=1e12, a_par=value)
        with pytest.raises(ValueError, match="bz"):
            MagneticField(bz=value)
    assert ManifoldParams(lambda_soc=1).lambda_soc == 1  # plain ints still pass
