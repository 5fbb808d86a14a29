"""Physical constants and parameter containers.

All energies and couplings are expressed as frequencies in Hz (the
Hamiltonian is H/h).  Magnetic fields are in Tesla.  The sign and
magnitude conventions follow the usual group-IV color center effective
Hamiltonian for a single S=1/2 electron coupled to one I=1/2 nucleus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

# Bohr magneton over Planck constant, Hz per Tesla.
MU_B_HZ_PER_T = 13.996246e9

# Gyromagnetic ratio (gamma/2pi) of the spin-1/2 tin nucleus, Hz per Tesla.
# Negative: the nuclear moment is anti-parallel to the spin.
SN117_GYRO_HZ_PER_T = -15.261e6

# Default electron g-factor.
G_ELECTRON = 2.0

# Optical lifetime of the excited manifold, seconds.
LIFETIME_S = 6e-9

# Homogeneous optical linewidth used for spectra, Hz (FWHM).
OPTICAL_LINEWIDTH_HZ = 61.859e6

# Phonon-limited correlation parameter of the two-level orbital bath at
# 1.7 K.  Enters the dephasing-time formula of :mod:`snspin.coherence`
# as written there; the value below reproduces second-scale coherence in
# the weak-strain-coupling regime.
GAMMA_PHONON_1P7K = 0.75


class _NumberRecord:
    """Base of the parameter dataclasses: every field is a finite number
    (an int or a float; a bool is not a number here)."""

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not math.isfinite(value)):
                raise ValueError(f"{field.name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class ManifoldParams(_NumberRecord):
    """Coupling constants of one orbital doublet manifold (Hz).

    :param lambda_soc: spin-orbit splitting of the orbital doublet.
    :param upsilon_ioc: nucleus-orbit coupling (same operator structure
        as spin-orbit, acting on the nuclear spin).
    :param a_par: longitudinal hyperfine constant.
    :param a_perp: transverse (flip-flop) hyperfine constant.
    :param strain_egx: Egx-symmetric strain/Jahn-Teller coupling.
    :param strain_egy: Egy-symmetric strain/Jahn-Teller coupling.
    :param orbital_quench_q: quenching factor of the orbital Zeeman
        response (dimensionless).
    :param g_electron: electron g-factor (dimensionless).
    :param nuclear_gyro: nuclear gyromagnetic ratio, Hz/T (signed).
    """

    lambda_soc: float
    upsilon_ioc: float = 0.0
    a_par: float = 0.0
    a_perp: float = 0.0
    strain_egx: float = 0.0
    strain_egy: float = 0.0
    orbital_quench_q: float = 0.171
    g_electron: float = G_ELECTRON
    nuclear_gyro: float = SN117_GYRO_HZ_PER_T

    @property
    def strain_total(self) -> float:
        """Magnitude of the transverse strain coupling, Hz."""
        # products and sqrt, which round like numpy's array arithmetic;
        # Python's ``x ** 2`` does not on about one value in a thousand
        return math.sqrt(self.strain_egx * self.strain_egx
                         + self.strain_egy * self.strain_egy)

    @property
    def delta_total(self) -> float:
        """Total orbital gap sqrt(lambda^2 + 4 alpha^2), Hz.

        This is the splitting between the two orbital branches produced
        by spin-orbit coupling and transverse strain together (for one
        electron-spin orientation, ignoring hyperfine corrections).
        """
        strain = self.strain_total
        return math.sqrt(self.lambda_soc * self.lambda_soc + 4.0 * strain * strain)


@dataclass(frozen=True)
class MagneticField(_NumberRecord):
    """Static or envelope magnetic field vector in Tesla."""

    bx: float = 0.0
    by: float = 0.0
    bz: float = 0.0


def electron_larmor_hz(b_tesla: float, g_electron: float = G_ELECTRON) -> float:
    """Electron Larmor frequency g * mu_B * B / h in Hz."""
    return g_electron * MU_B_HZ_PER_T * b_tesla


def field_for_larmor(f_hz: float, g_electron: float = G_ELECTRON) -> float:
    """Magnetic field in Tesla that gives electron Larmor frequency ``f_hz``."""
    return f_hz / (g_electron * MU_B_HZ_PER_T)


def ground_defaults() -> ManifoldParams:
    """Best-fit parameters of the ground-state orbital doublet."""
    return ManifoldParams(
        lambda_soc=830e9,
        upsilon_ioc=0.0,
        a_par=673.8e6,
        a_perp=670.95e6,
        strain_egx=928.4e9,
        strain_egy=0.0,
    )


def excited_defaults() -> ManifoldParams:
    """Nominal parameters of the optically excited orbital doublet.

    The hyperfine and strain couplings come from ab-initio estimates;
    the spin-orbit splitting is the bulk value for the excited doublet.
    """
    return ManifoldParams(
        lambda_soc=3.02e12,
        upsilon_ioc=0.0,
        a_par=-232e6,
        a_perp=464e6,
        strain_egx=-209e9,
        strain_egy=0.0,
    )


def reference_field() -> MagneticField:
    """Bias field of the reference experiment.

    Expressed via the fitted electron Larmor strengths (6.03 MHz
    transverse, 1.55 MHz longitudinal).
    """
    return MagneticField(
        bx=field_for_larmor(6.03e6),
        by=0.0,
        bz=field_for_larmor(1.55e6),
    )


__all__ = [
    "MU_B_HZ_PER_T",
    "SN117_GYRO_HZ_PER_T",
    "G_ELECTRON",
    "LIFETIME_S",
    "OPTICAL_LINEWIDTH_HZ",
    "GAMMA_PHONON_1P7K",
    "ManifoldParams",
    "MagneticField",
    "electron_larmor_hz",
    "field_for_larmor",
    "ground_defaults",
    "excited_defaults",
    "reference_field",
]
