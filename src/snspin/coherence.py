"""Phonon-limited coherence of the broker and memory qubits.

Between orbital branches, thermally activated phonon hopping samples
two slightly different qubit splittings.  The dephasing is set by the
effective splitting difference lambda_eff of each qubit: for the broker
qubit the difference is first order in the in-plane strain and second
order in the transverse hyperfine coupling, while for the memory qubit
(nuclear-like at second order) it vanishes identically -- the origin of
the memory's orders-of-magnitude longer coherence.

The sign of the strain parameter upsilon relative to the spin-orbit
splitting is not known experimentally; map generation therefore treats
it as a convention: the opposite-sign case contains a zero of lambda_B
(a ridge of diverging T2), the same-sign case does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ManifoldParams, GAMMA_PHONON_1P7K

# Sign of the strain relative to the spin-orbit splitting; see coherence_map.
SIGN_CONVENTIONS = ("opposite", "same")


def _k_c(lambda_soc, a_perp, alpha):
    """K = A_perp^2 / (2 Delta) and c = lambda_soc / Delta, from scalars or
    arrays, with the orbital gap Delta at strain magnitude alpha rounded
    like ``ManifoldParams.delta_total``."""
    delta = np.sqrt(lambda_soc * lambda_soc + 4.0 * alpha * alpha)
    if np.any(delta <= 0):
        raise ValueError("orbital splitting must be positive")
    return a_perp * a_perp / (2.0 * delta), lambda_soc / delta


def _lambda_b(lambda_soc, upsilon, a_perp, alpha):
    """lambda_B of :func:`lambda_eff` from scalars or broadcasting arrays.

    Written c (2 upsilon + K c), so that at the ridge upsilon = -K c / 2
    of :func:`ridge_upsilon`, made from the same K and c, the bracket is
    exactly zero: halving and doubling are exact, and both of its terms
    round the one product K c.  Squares are products, so that scalars
    and arrays round alike."""
    k, c = _k_c(lambda_soc, a_perp, alpha)
    return c * (2.0 * upsilon + k * c)


def _t2(lambda_b, gamma):
    """T2 of :func:`t2_phonon` from a scalar or an array of lambda_b."""
    if not gamma > 0:
        raise ValueError("gamma_phonon must be positive")
    lam = np.abs(lambda_b)
    # lam = 0 divides by zero twice on its way to the exact limit, inf
    with np.errstate(divide="ignore"):
        return 4.0 * np.pi / (lam * -np.expm1(-2.0 * np.pi / (lam * gamma)))


def lambda_eff(params: ManifoldParams) -> tuple:
    """Branch-to-branch splitting difference (broker, memory) in Hz.

    lambda_B = 2 upsilon c + (A_perp^2 / (2 Delta)) c^2 with
    c = lambda_soc / Delta and Delta the total orbital splitting; the
    memory term cancels at this order, so lambda_M is exactly zero.
    The sign of lambda_B follows the formula; the dephasing rate only
    depends on its magnitude.
    """
    return float(_lambda_b(params.lambda_soc, params.upsilon_ioc, params.a_perp,
                           params.strain_total)), 0.0


def t2_phonon(lambda_b_hz: float, gamma_phonon: float = GAMMA_PHONON_1P7K) -> float:
    """Hopping-limited T2 (s) of a qubit with splitting difference lambda_b.

    T2 = 4 pi / (lambda_b (1 - exp(-2 pi / (lambda_b gamma)))) with the
    phonon hopping parameter gamma.  Slow hopping (lambda_b gamma <<
    2 pi) gives the static limit 4 pi / lambda_b; fast hopping gives
    2 gamma.  A vanishing lambda_b means no phonon dephasing at all
    (infinite T2).  ``gamma_phonon`` is a direct calibration input per
    temperature, used literally; the default is its value at 1.7 K.
    """
    return float(_t2(lambda_b_hz, gamma_phonon))


def ridge_upsilon(lambda_soc_hz: float, a_perp_hz: float, alpha_hz):
    """Strain value maximizing broker T2 at fixed spin-orbit and Jahn-Teller,
    for a scalar or an array of alpha.

    The hyperfine and strain contributions to lambda_B cancel at
    upsilon = -A_perp^2 lambda_soc / (4 Delta^2), which requires
    upsilon and lambda_soc of opposite sign.  It is computed as
    -K c / 2 from the terms of :func:`_lambda_b`, so that lambda_B is
    exactly zero there.
    """
    k, c = _k_c(lambda_soc_hz, a_perp_hz, alpha_hz)
    return -0.5 * k * c


@dataclass(frozen=True)
class CoherenceMap:
    """Broker T2 over a (strain, Jahn-Teller) grid.

    ``upsilon_hz`` holds the signed strain values actually evaluated;
    :func:`ridge_upsilon` gives the analytic lambda_B zero per alpha
    (on the grid only under the opposite-sign convention).
    """

    upsilon_hz: np.ndarray
    alpha_hz: np.ndarray
    t2_s: np.ndarray               # shape (n_upsilon, n_alpha)


def coherence_map(base: ManifoldParams, upsilon_grid, alpha_grid,
                  sign_convention: str = "opposite",
                  gamma_phonon: float = GAMMA_PHONON_1P7K) -> CoherenceMap:
    """Broker T2 versus in-plane strain magnitude and Jahn-Teller coupling.

    ``upsilon_grid``/``alpha_grid`` are magnitudes; ``sign_convention``
    selects whether upsilon opposes ("opposite", the high-coherence
    ridge case) or follows ("same") the sign of the spin-orbit
    splitting.  Every grid point is ``base`` with its strain and
    Jahn-Teller amplitude replaced (the x component carries all of
    alpha), evaluated with the closed forms of :func:`lambda_eff` and
    :func:`t2_phonon` (at ``gamma_phonon``) over the whole grid at once.
    """
    if sign_convention not in SIGN_CONVENTIONS:
        raise ValueError("sign_convention must be 'opposite' or 'same'")
    upsilon_grid = np.asarray(upsilon_grid, dtype=float)
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    if upsilon_grid.size == 0 or alpha_grid.size == 0:
        raise ValueError("grids must be non-empty")
    if np.any(upsilon_grid < 0) or np.any(alpha_grid < 0):
        raise ValueError("grids are magnitudes; signs come from sign_convention")
    sign = -1.0 if sign_convention == "opposite" else 1.0
    signed_ups = sign * math.copysign(1.0, base.lambda_soc) * upsilon_grid

    lam_b = _lambda_b(base.lambda_soc, signed_ups[:, None], base.a_perp, alpha_grid)
    return CoherenceMap(signed_ups, alpha_grid, _t2(lam_b, gamma_phonon))


__all__ = [
    "lambda_eff", "t2_phonon", "ridge_upsilon",
    "CoherenceMap", "coherence_map",
]
