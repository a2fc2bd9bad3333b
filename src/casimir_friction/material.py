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
against rho^2 and cancels.  The sharp surface-plasmon line is the
nu -> 0 limit of the same Drude metal, -Im R = (pi omega_sp / 2)
delta(omega - omega_sp), whose force is the closed form
`friction.force_plasmon(material.omega_sp, ...)`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from .numerics import DomainError, float_guard, np


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
        with float_guard("material", f"eps = 1 + omega_p^2 / (xi (xi + nu)) at omega = {omega!r}"):
            return 1.0 + self.omega_p**2 / (xi * (xi + self.nu))


@dataclass(frozen=True)
class Tabulated:
    """Tabulated complex permittivity on a strictly increasing omega grid.

    Interpolation is linear in log(omega), separately for the real and
    imaginary parts; extrapolation outside the grid is an error.
    Internally eps is stored in the xi = i*omega convention (Im eps <= 0).
    A grid that is not finite, positive and strictly increasing, or an
    eps that is not finite or not passive, is a ValueError.
    """

    omega: np.ndarray
    eps: np.ndarray

    def __post_init__(self):
        om = np.asarray(self.omega, dtype=float)
        ep = np.asarray(self.eps, dtype=complex)
        if om.ndim != 1 or om.size < 2:
            raise ValueError("need at least two (omega, eps) samples")
        if ep.shape != om.shape:
            raise ValueError("omega and eps must have the same length")
        bad = ~(np.isfinite(om) & np.isfinite(ep))
        if bad.any():
            i = np.flatnonzero(bad)[0]
            raise ValueError(f"omega and eps must be finite, got eps={ep[i]} at omega={om[i]}")
        if om[0] <= 0:
            raise ValueError("omega grid must be positive")
        if not np.all(np.diff(om) > 0):
            raise ValueError("omega grid must be strictly increasing")
        active = ep.imag > 0.0
        if active.any():
            i = np.flatnonzero(active)[0]
            raise ValueError(f"passivity violated at omega={om[i]}: Im eps = {ep[i].imag} > 0 "
                             f"in the xi = i omega convention ({-ep[i].imag} < 0 in a CSV file's)")
        object.__setattr__(self, "omega", om)
        object.__setattr__(self, "eps", ep)
        object.__setattr__(self, "_log_omega", np.log(om))

    @classmethod
    def from_csv(cls, path) -> "Tabulated":
        """Load a CSV with header ``omega_rad_s,eps_re,eps_im``.

        The file uses the Im eps >= 0 convention; values are conjugated
        into the internal convention on load.  A row that is not three
        numbers raises ValueError naming its line.
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
                try:
                    w, re_, im_ = (float(x) for x in row)
                except ValueError:
                    raise ValueError(f"line {reader.line_num}: expected omega_rad_s,eps_re,eps_im, "
                                     f"got {','.join(row)!r}") from None
                omega.append(w)
                eps.append(complex(re_, -im_))  # conjugate into xi = i*omega convention
        return cls(omega=np.array(omega), eps=np.array(eps))

    def eps_at(self, omega):
        """eps at omega (a float, or an array of them), interpolated in log omega."""
        w = _positive(omega)
        outside = (w < self.omega[0]) | (w > self.omega[-1])
        if outside.any():
            raise DomainError(
                f"omega={w[outside].flat[0]:.6e} outside tabulated range "
                f"[{self.omega[0]:.6e}, {self.omega[-1]:.6e}]; extrapolation forbidden"
            )
        eps = np.interp(np.log(w), self._log_omega, self.eps)
        return complex(eps) if eps.ndim == 0 else eps


MaterialModel = Drude | Tabulated


def _positive(omega) -> np.ndarray:
    """omega as an array, checked > 0."""
    w = np.asarray(omega, dtype=float)
    bad = ~(w > 0)
    if bad.any():
        raise DomainError(f"omega must be > 0, got {w[bad].flat[0]}")
    return w


def response_R(eps):
    """Surface response (eps - 1)/(eps + 1), of a complex eps or an array of them.

    Raises
    ------
    SingularResponse
        If eps is numerically at the surface-mode pole eps = -1.
    """
    den = eps + 1.0
    pole = np.abs(den) < 1e-14 * (1.0 + np.abs(eps))
    if pole.any():
        raise SingularResponse(
            f"eps={np.asarray(eps)[pole].flat[0]} is at the surface-mode pole eps = -1"
        )
    return (eps - 1.0) / den


def surface_response(model: MaterialModel, omega):
    """R(omega) for a Drude or tabulated material, at a float omega or an array of them.

    For a Drude model the exact closed form
    omega_sp^2/(omega_sp^2 - omega^2 + i nu omega) is used, which equals
    response_R(model.eps_at(omega)) without forming eps.  A float omega
    gives a complex R in Python's arithmetic, an array an array in numpy's.
    """
    if isinstance(model, Drude):
        w = _positive(omega)
        if model.omega_p == 0.0:
            return 0.0 + 0.0j if w.ndim == 0 else np.zeros(w.shape, dtype=complex)
        wsp2 = 0.5 * model.omega_p**2
        den = wsp2 - omega * omega + 1j * model.nu * omega
        pole = np.abs(den) < 1e-14 * wsp2
        if pole.any():
            raise SingularResponse(
                f"undamped surface-mode pole at omega={w[pole].flat[0]:.6e}"
            )
        return wsp2 / den
    return response_R(model.eps_at(omega))
