"""Phonon-limited dephasing: lambda_eff, T2 formula, strain maps."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from snspin.csvio import grid_lines, save_csv
from snspin.params import GAMMA_PHONON_1P7K, MagneticField, ManifoldParams, ground_defaults
from snspin.spinmodel import manifold_eigensystem
from snspin.coherence import (
    coherence_map,
    lambda_eff,
    ridge_upsilon,
    t2_phonon,
)

# Broker splitting difference at the fitted ground parameters (Hz).
LAMBDA_B_FITTED = 1.843063e4
# Without strain the full transverse hyperfine second order survives.
LAMBDA_B_ZERO_STRAIN = 2.711891e5
# Hopping-limited broker T2 at the fitted parameters and 1.7 K (s).
T2_FITTED_S = 1.500341

RIDGE_FITTED_HZ = -2.258158e4


def branch_differences(params):
    """(broker, memory) transition difference upper minus lower branch."""
    system = manifold_eigensystem(params, MagneticField())
    out = []
    for a, b in (("0B0M", "1B0M"), ("0B0M", "0B1M")):
        upper = system.energy(f"upper.{b}") - system.energy(f"upper.{a}")
        lower = system.energy(f"lower.{b}") - system.energy(f"lower.{a}")
        out.append(upper - lower)
    return tuple(out)


def test_lambda_eff_fitted_values(ground):
    lam_b, lam_m = lambda_eff(ground)
    assert lam_b == pytest.approx(LAMBDA_B_FITTED, rel=1e-6)
    assert lam_m == 0.0


def test_lambda_eff_zero_strain():
    p = ManifoldParams(lambda_soc=830e9, a_perp=670.95e6)
    lam_b, _ = lambda_eff(p)
    # A_perp^2 / (2 lambda) when the mixing angle closes
    assert lam_b == pytest.approx(p.a_perp ** 2 / (2 * p.lambda_soc), rel=1e-12)
    assert lam_b == pytest.approx(LAMBDA_B_ZERO_STRAIN, rel=1e-4)


def test_lambda_eff_rejects_zero_gap():
    with pytest.raises(ValueError, match="splitting"):
        lambda_eff(ManifoldParams(lambda_soc=0.0))


@settings(max_examples=40, deadline=None)
@given(
    lam=st.floats(4e11, 5e12),
    alpha=st.floats(0.0, 2e12),
    a_par=st.floats(-8e8, 8e8),
    a_perp=st.floats(1e6, 8e8),
)
def test_lambda_matches_diagonalization(lam, alpha, a_par, a_perp):
    """|lambda_B| tracks the diagonalized broker branch difference, and the
    memory branch difference vanishes to third order (upsilon = 0)."""
    p = ManifoldParams(lambda_soc=lam, strain_egx=alpha, a_par=a_par,
                       a_perp=a_perp)
    if p.delta_total < 500 * a_perp:
        return
    diff_b, diff_m = branch_differences(p)
    lam_b, lam_m = lambda_eff(p)
    bound3 = 10.0 * a_perp ** 3 / p.delta_total ** 2 + 5e-9 * p.delta_total
    assert abs(abs(diff_b) - abs(lam_b)) < bound3
    assert lam_m == 0.0
    assert abs(diff_m) < bound3


def test_lambda_b_with_upsilon_fitted_strain(ground):
    """First-order upsilon term dominates; formula within 10% of the
    diagonalized difference at the fitted orbital mixing."""
    from dataclasses import replace

    for ups in (1e6, -1e6):
        p = replace(ground, upsilon_ioc=ups)
        diff_b, _ = branch_differences(p)
        lam_b, _ = lambda_eff(p)
        assert abs(abs(diff_b) - abs(lam_b)) / abs(diff_b) < 0.10


def test_t2_fitted_value(ground):
    lam_b, _ = lambda_eff(ground)
    assert t2_phonon(lam_b) == pytest.approx(T2_FITTED_S, rel=1e-5)


def test_t2_limits():
    gamma = GAMMA_PHONON_1P7K
    # slow hopping: static dephasing 4 pi / lambda
    lam = 0.1
    assert t2_phonon(lam) == pytest.approx(4 * math.pi / lam, rel=1e-2)
    # fast hopping: motional narrowing saturates at 2 gamma, from above
    lam = 1e7
    assert t2_phonon(lam) == pytest.approx(2 * gamma, rel=1e-2)
    assert t2_phonon(lam) > 2 * gamma
    assert t2_phonon(0.0) == math.inf


def test_t2_increases_with_hopping():
    lam = 1e4
    values = [t2_phonon(lam, gamma_phonon=g)
              for g in (0.1, 0.5, 2.0, 10.0)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_t2_sign_insensitive():
    assert t2_phonon(-1.5e4) == t2_phonon(1.5e4)


def test_coherence_params_validation():
    with pytest.raises(ValueError, match="gamma"):
        t2_phonon(1e4, gamma_phonon=-1.0)
    with pytest.raises(ValueError, match="gamma"):
        t2_phonon(1e4, gamma_phonon=0.0)


def test_ridge_value(ground):
    ridge = ridge_upsilon(ground.lambda_soc, ground.a_perp, ground.strain_egx)
    assert ridge == pytest.approx(RIDGE_FITTED_HZ, rel=1e-6)
    # opposite sign to the spin-orbit splitting by construction
    assert ridge * ground.lambda_soc < 0
    # lambda_B vanishes exactly on the ridge
    from dataclasses import replace

    lam_b, _ = lambda_eff(replace(ground, upsilon_ioc=ridge))
    assert abs(lam_b) < 1e-9 * abs(LAMBDA_B_FITTED)


@pytest.mark.parametrize("alpha", [928.4e9, 1e11, -3e11])
def test_lambda_b_exactly_zero_on_ridge(ground, alpha):
    """On the analytic ridge lambda_B is exactly zero, not a rounding
    residue, in both the per-point closed form and the map."""
    ridge = ridge_upsilon(ground.lambda_soc, ground.a_perp, alpha)
    on_ridge = replace(ground, upsilon_ioc=ridge, strain_egx=alpha, strain_egy=0.0)
    assert lambda_eff(on_ridge)[0] == 0.0
    cmap = coherence_map(ground, [abs(ridge)], [abs(alpha)], "opposite")
    assert cmap.upsilon_hz[0] == ridge_upsilon(ground.lambda_soc, ground.a_perp,
                                               abs(alpha)) == ridge
    assert cmap.t2_s[0, 0] == math.inf


def test_coherence_map_opposite_sign_has_ridge(ground):
    ridge_mag = abs(ridge_upsilon(ground.lambda_soc, ground.a_perp,
                                  ground.strain_egx))
    ups_grid = np.linspace(0.0, 3 * ridge_mag, 31)
    ups_grid[10] = ridge_mag  # place one sample exactly on the ridge
    alpha_grid = np.array([ground.strain_egx])
    cmap = coherence_map(ground, ups_grid, alpha_grid, "opposite")
    assert cmap.t2_s.shape == (31, 1)
    # interior maximum many orders above the off-ridge background
    assert np.argmax(cmap.t2_s[:, 0]) == 10
    assert cmap.t2_s[10, 0] > 1e6 * cmap.t2_s[0, 0]
    assert ridge_upsilon(ground.lambda_soc, ground.a_perp, alpha_grid)[0] == pytest.approx(
        RIDGE_FITTED_HZ, rel=1e-6)
    # evaluated upsilon values carry the opposite sign of lambda_soc
    assert np.all(cmap.upsilon_hz[1:] < 0)


def test_coherence_map_same_sign_is_monotone(ground):
    ups_grid = np.linspace(0.0, 5e4, 21)
    alpha_grid = np.array([ground.strain_egx])
    cmap = coherence_map(ground, ups_grid, alpha_grid, "same")
    t2 = cmap.t2_s[:, 0]
    assert np.argmax(t2) == 0
    assert all(a >= b for a, b in zip(t2, t2[1:]))
    assert np.all(cmap.upsilon_hz >= 0)


def test_coherence_map_validation(ground):
    with pytest.raises(ValueError, match="sign_convention"):
        coherence_map(ground, [1e4], [1e11], "up")
    with pytest.raises(ValueError, match="magnitude"):
        coherence_map(ground, [-1e4], [1e11])
    with pytest.raises(ValueError, match="non-empty"):
        coherence_map(ground, [], [1e11])


def test_coherence_map_csv(ground, tmp_path):
    cmap = coherence_map(ground, [0.0, 1e4], [8e11, 9e11])
    path = tmp_path / "coherence.csv"
    save_csv(path, ("upsilon_hz", "alpha_hz", "t2_s"),
             grid_lines(cmap.upsilon_hz, cmap.alpha_hz, cmap.t2_s))
    lines = path.read_text().splitlines()
    assert lines[0] == "upsilon_hz,alpha_hz,t2_s"
    assert len(lines) == 1 + 4
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    # strain outer, and every value survives the text exactly
    assert [row[:2] for row in rows] == [[u, a] for u in cmap.upsilon_hz
                                         for a in cmap.alpha_hz]
    assert [row[2] for row in rows] == cmap.t2_s.ravel().tolist()


@pytest.mark.parametrize("lambda_sign", [1.0, -1.0])
@pytest.mark.parametrize("sign_convention", ["opposite", "same"])
def test_coherence_map_matches_per_point_formulas(ground, sign_convention,
                                                  lambda_sign):
    """The map equals t2_phonon(lambda_eff(...)) of ``base`` with each grid
    point's strain and Jahn-Teller amplitude, including alpha = 0,
    upsilon = 0 and points exactly on the ridge, and warns of nothing."""
    base = replace(ground, lambda_soc=lambda_sign * ground.lambda_soc)
    alphas = np.array([0.0, 1e11, ground.strain_egx, 1.5e12])
    ridges = [abs(ridge_upsilon(base.lambda_soc, base.a_perp, a)) for a in alphas]
    ups = np.concatenate([np.linspace(0.0, 2.2e5, 23), ridges])
    gamma = 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cmap = coherence_map(base, ups, alphas, sign_convention, gamma_phonon=gamma)
    expected = np.array([
        [t2_phonon(lambda_eff(replace(base, upsilon_ioc=float(u),
                                      strain_egx=float(a), strain_egy=0.0))[0],
                   gamma_phonon=gamma)
         for a in alphas]
        for u in cmap.upsilon_hz
    ])
    np.testing.assert_allclose(cmap.t2_s, expected, rtol=1e-15, atol=0.0)
    # lambda_B vanishes exactly on the alpha = 0 ridge of the opposite sign
    assert np.isinf(cmap.t2_s[23, 0]) == (sign_convention == "opposite")
