"""Permittivity models and the surface response R = (eps-1)/(eps+1).

Frequency convention
--------------------
The Drude permittivity is evaluated as

    eps(omega) = 1 + omega_p^2 / (xi (xi + nu)),   xi = i omega,

which puts the dissipative part on the negative imaginary axis
(Im eps <= 0, hence Im R <= 0, for omega > 0).  Tabulated permittivity
files use the more common engineering convention Im eps >= 0 and are
conjugated on load.

For a Drude metal the surface response has the closed form

    R(omega) = omega_sp^2 / (omega_sp^2 - omega^2 + i nu omega),

with surface plasma frequency omega_sp = omega_p / sqrt(2), and a
linear small-frequency head Im R = -nu omega / omega_sp^2.  Im R is the
only material quantity the force needs: the paper's oscillator density
m^2 alpha_I(m^2) = -Im R / (2 pi^2 rho) enters every result squared
against rho^2 and cancels.  A PlasmonLine is the nu -> 0 limit,
-Im R = (pi omega_sp / 2) delta(omega - omega_sp).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .numerics import DomainError


class SingularResponse(ArithmeticError):
    """eps is at (or numerically indistinguishable from) the surface-mode pole eps = -1."""


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

    def eps_at(self, omega: float) -> complex:
        """Permittivity 1 + omega_p^2/(xi(xi+nu)) at xi = i*omega, omega > 0."""
        if not omega > 0:
            raise DomainError(f"omega must be > 0, got {omega}")
        if self.omega_p == 0.0:
            return 1.0 + 0.0j
        xi = 1j * omega
        return 1.0 + self.omega_p**2 / (xi * (xi + self.nu))


@dataclass(frozen=True)
class PlasmonLine:
    """Single sharp surface-plasmon line at omega_sp (lossless Drude limit)."""

    omega_sp: float

    def __post_init__(self):
        if not self.omega_sp > 0:
            raise ValueError(f"omega_sp must be > 0, got {self.omega_sp}")


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
    omega_sp^2/(omega_sp^2 - omega^2 + i nu omega) is used, which equals
    response_R(model.eps_at(omega)) without forming eps.  A
    PlasmonLine has a delta-function Im R and no pointwise value; it is
    rejected here, and its force is the closed form `friction.force_plasmon`.
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
        "PlasmonLine has a delta-line response; use friction.force_plasmon"
    )
