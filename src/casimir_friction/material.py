"""Permittivity models, the surface response R = (eps-1)/(eps+1), and spectral densities.

Frequency convention
--------------------
The Drude permittivity is evaluated as

    eps(omega) = 1 + omega_p^2 / (xi (xi + nu)),   xi = i omega,

which puts the dissipative part on the negative imaginary axis
(Im eps <= 0 for omega > 0).  The oscillator spectral density therefore
carries an explicit minus sign,

    m^2 alpha_I(m^2) = -Im R(omega) / (2 pi^2 rho),   m = hbar omega,

so that densities come out non-negative for passive media.  Tabulated
permittivity files use the more common engineering convention
Im eps >= 0 and are conjugated on load.

For a Drude metal the surface response has the closed form

    R(omega) = omega_sp^2 / (omega_sp^2 - omega^2 + i nu omega),

with surface plasma frequency omega_sp = omega_p / sqrt(2), and the
small-frequency density is linear, m^2 alpha_I(m^2) = D m with
D = hbar nu / (rho (pi hbar omega_p)^2).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import CONST, DomainError


class SingularResponse(ArithmeticError):
    """eps is at (or numerically indistinguishable from) the surface-mode pole eps = -1."""


class SpectrumCutoffExceeded(ValueError):
    """A dissipation integral probes frequencies beyond the spectral density's validity."""


#: Default validity cutoff of the linear Drude density, as a fraction of hbar*omega_sp.
#: Keeps the linear approximation within about 1% where it is used.
DRUDE_SLOPE_CUTOFF_FRACTION = 0.1


@dataclass(frozen=True)
class Drude:
    """Drude metal: plasma frequency omega_p and damping rate nu, both rad/s."""

    omega_p: float
    nu: float = 0.0

    def __post_init__(self):
        if not (self.omega_p >= 0 and math.isfinite(self.omega_p)):
            raise ValueError(f"omega_p must be finite and >= 0, got {self.omega_p}")
        if not (self.nu >= 0 and math.isfinite(self.nu)):
            raise ValueError(f"nu must be finite and >= 0, got {self.nu}")

    @property
    def omega_sp(self) -> float:
        """Surface plasma frequency omega_p / sqrt(2)."""
        return self.omega_p / math.sqrt(2.0)


@dataclass(frozen=True)
class PlasmonLine:
    """Single sharp surface-plasmon line at omega_sp (lossless Drude limit)."""

    omega_sp: float

    def __post_init__(self):
        if not self.omega_sp > 0:
            raise ValueError(f"omega_sp must be > 0, got {self.omega_sp}")

    @classmethod
    def from_plasma_frequency(cls, omega_p: float) -> "PlasmonLine":
        return cls(omega_sp=omega_p / math.sqrt(2.0))


@dataclass(frozen=True)
class Tabulated:
    """Tabulated complex permittivity on a strictly increasing omega grid.

    Interpolation is linear in log(omega), separately for the real and
    imaginary parts; extrapolation outside the grid is an error.
    Internally eps is stored in the xi = i*omega convention (Im eps <= 0).
    """

    omega: np.ndarray
    eps: np.ndarray

    def __post_init__(self):
        om = np.asarray(self.omega, dtype=float)
        ep = np.asarray(self.eps, dtype=complex)
        if om.ndim != 1 or om.size < 2:
            raise ValueError("need at least two (omega, eps) samples")
        if om[0] <= 0:
            raise ValueError("omega grid must be positive")
        if not np.all(np.diff(om) > 0):
            raise ValueError("omega grid must be strictly increasing")
        if ep.shape != om.shape:
            raise ValueError("omega and eps must have the same length")
        object.__setattr__(self, "omega", om)
        object.__setattr__(self, "eps", ep)
        object.__setattr__(self, "_log_omega", np.log(om))

    @classmethod
    def from_csv(cls, path) -> "Tabulated":
        """Load a CSV with header ``omega_rad_s,eps_re,eps_im``.

        The file uses the Im eps >= 0 convention; values are conjugated
        into the internal convention on load.
        """
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != [
                "omega_rad_s",
                "eps_re",
                "eps_im",
            ]:
                raise ValueError(
                    f"expected header 'omega_rad_s,eps_re,eps_im', got {header!r}"
                )
            omega, eps = [], []
            for row in reader:
                if not row:
                    continue
                w, re_, im_ = (float(x) for x in row)
                if im_ < 0:
                    raise ValueError(
                        f"passivity violated in {path}: Im eps < 0 at omega={w}"
                    )
                omega.append(w)
                eps.append(complex(re_, -im_))  # conjugate into xi = i*omega convention
        return cls(omega=np.array(omega), eps=np.array(eps))

    def eps_at(self, omega: float) -> complex:
        if not omega > 0:
            raise DomainError(f"omega must be > 0, got {omega}")
        if omega < self.omega[0] or omega > self.omega[-1]:
            raise DomainError(
                f"omega={omega:.6e} outside tabulated range "
                f"[{self.omega[0]:.6e}, {self.omega[-1]:.6e}]; extrapolation forbidden"
            )
        lw = math.log(omega)
        re_ = np.interp(lw, self._log_omega, self.eps.real)
        im_ = np.interp(lw, self._log_omega, self.eps.imag)
        return complex(re_, im_)


MaterialModel = Drude | PlasmonLine | Tabulated


def eps_drude(omega: float, model: Drude) -> complex:
    """Drude permittivity 1 + omega_p^2/(xi(xi+nu)) at xi = i*omega.

    Raises
    ------
    DomainError
        If omega <= 0.
    """
    if not omega > 0:
        raise DomainError(f"omega must be > 0, got {omega}")
    if model.omega_p == 0.0:
        return 1.0 + 0.0j
    xi = 1j * omega
    return 1.0 + model.omega_p**2 / (xi * (xi + model.nu))


def response_R(eps: complex) -> complex:
    """Surface response (eps - 1)/(eps + 1).

    Raises
    ------
    SingularResponse
        If eps is numerically at the surface-mode pole eps = -1.
    """
    den = eps + 1.0
    if abs(den) < 1e-14 * (1.0 + abs(eps)):
        raise SingularResponse(f"eps={eps} is at the surface-mode pole eps = -1")
    return (eps - 1.0) / den


def surface_response(model: MaterialModel, omega: float) -> complex:
    """R(omega) for a material model with a continuous response.

    For a Drude model the exact closed form
    omega_sp^2/(omega_sp^2 - omega^2 + i nu omega) is used.  A
    PlasmonLine has a delta-function Im R and no pointwise value; it is
    rejected here and handled symbolically by `spectral_density_from_R`.
    """
    if isinstance(model, Drude):
        if not omega > 0:
            raise DomainError(f"omega must be > 0, got {omega}")
        if model.omega_p == 0.0:
            return 0.0 + 0.0j
        wsp2 = 0.5 * model.omega_p**2
        den = wsp2 - omega * omega + 1j * model.nu * omega
        if abs(den) < 1e-14 * wsp2:
            raise SingularResponse(
                f"undamped surface-mode pole at omega={omega:.6e}"
            )
        return wsp2 / den
    if isinstance(model, Tabulated):
        return response_R(model.eps_at(omega))
    raise TypeError(
        "PlasmonLine has a delta-line response; use spectral_density_from_R"
    )


@dataclass(frozen=True)
class ContinuousSpectralDensity:
    """Continuous oscillator spectral density m -> m^2 alpha_I(m^2), m in J.

    Attributes
    ----------
    density : callable
        Maps oscillator energy m (J) to the density value (m^3).
    omega_support : (float, float)
        Frequency interval (rad/s) on which the density is defined.
    small_m_slope : float or None
        Linear-head slope D (m^3/J) when the model admits one (Drude).
    m_max : float or None
        Validity cutoff (J) of the linear head.
    """

    density: Callable[[float], float]
    omega_support: tuple[float, float] = (0.0, math.inf)
    small_m_slope: float | None = None
    m_max: float | None = None

    def __call__(self, m: float) -> float:
        return self.density(m)


@dataclass(frozen=True)
class DrudeSmallM:
    """Linear small-energy density m^2 alpha_I(m^2) = D*m, valid for m < m_max."""

    slope: float  # D, m^3/J
    m_max: float  # J

    def __post_init__(self):
        if not self.slope > 0:
            raise ValueError(f"slope D must be > 0, got {self.slope}")
        if not self.m_max > 0:
            raise ValueError(f"m_max must be > 0, got {self.m_max}")

    def __call__(self, m: float) -> float:
        return self.slope * m


@dataclass(frozen=True)
class DeltaLines:
    """Delta-line spectrum: -Im R(omega) = sum_k weight_k * delta(omega - omega_k)."""

    lines: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for w, wt in self.lines:
            if not w > 0 or not wt > 0:
                raise ValueError(f"line frequencies and weights must be > 0: {self.lines}")


SpectralDensity = ContinuousSpectralDensity | DrudeSmallM | DeltaLines


def drude_small_m_slope(model: Drude, rho: float) -> float:
    """Linear-head slope D = hbar*nu / (rho (pi hbar omega_p)^2)."""
    if not rho > 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    if model.omega_p == 0.0:
        raise ValueError("small-m slope undefined for omega_p = 0")
    return CONST.hbar * model.nu / (rho * (math.pi * CONST.hbar * model.omega_p) ** 2)


def spectral_density_from_R(
    model: MaterialModel,
    rho: float,
    m_max: float | None = None,
) -> SpectralDensity:
    """Oscillator spectral density extracted from the surface response.

    Parameters
    ----------
    model : MaterialModel
        Drude, PlasmonLine or Tabulated permittivity description.
    rho : float
        Oscillator number density (1/m^3), > 0.  Physical forces combine
        rho^2 with the squared density, so results are rho-independent.
    m_max : float, optional
        Override for the linear-head validity cutoff (J); defaults to
        0.1 * hbar * omega_sp for Drude input.

    Returns
    -------
    ContinuousSpectralDensity for Drude/Tabulated input (Drude also
    carries the small-m slope D), DeltaLines for PlasmonLine input.
    """
    if not rho > 0:
        raise ValueError(f"rho must be > 0, got {rho}")

    if isinstance(model, PlasmonLine):
        return DeltaLines(lines=((model.omega_sp, 0.5 * math.pi * model.omega_sp),))

    norm = 1.0 / (2.0 * math.pi**2 * rho)

    def density(m: float) -> float:
        if m <= 0:
            return 0.0
        return -surface_response(model, m / CONST.hbar).imag * norm

    if isinstance(model, Drude):
        slope = None
        cutoff = None
        if model.nu > 0 and model.omega_p > 0:
            slope = drude_small_m_slope(model, rho)
            cutoff = (
                m_max
                if m_max is not None
                else DRUDE_SLOPE_CUTOFF_FRACTION * CONST.hbar * model.omega_sp
            )
        return ContinuousSpectralDensity(
            density=density,
            omega_support=(0.0, math.inf),
            small_m_slope=slope,
            m_max=cutoff,
        )
    if isinstance(model, Tabulated):
        return ContinuousSpectralDensity(
            density=density,
            omega_support=(float(model.omega[0]), float(model.omega[-1])),
        )
    raise TypeError(f"unsupported material model: {model!r}")


def drude_small_m(model: Drude, rho: float, m_max: float | None = None) -> DrudeSmallM:
    """Linear-head density for a Drude model, with its validity cutoff."""
    slope = drude_small_m_slope(model, rho)
    cutoff = (
        m_max
        if m_max is not None
        else DRUDE_SLOPE_CUTOFF_FRACTION * CONST.hbar * model.omega_sp
    )
    return DrudeSmallM(slope=slope, m_max=cutoff)
