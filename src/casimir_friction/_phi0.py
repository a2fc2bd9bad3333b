"""Phi of two Drude plates in closed form, at every temperature.

Phi(omega) = Int Im R1(u) Im R2(omega - u) [coth(b u) + coth(b (omega - u))] du,
b = beta hbar / 2, of `response.im_r_dissipation_integral`, for lossy,
underdamped Drude plates (omega_p > 0, 0 < nu < 2 omega_sp).  Im R is
four simple poles at +-Omega +- i nu/2, so the integrand is a rational
function of u times the thermal factor, and from half the smaller
omega_sp up Phi is a sum over its poles (`_pole_sum`): of digamma
functions at finite T, of logarithms at T = 0, their b -> inf limit,
where the difference channel closes.  Below, its terms cancel, and Phi
is left to the quadrature at every T.  The sum carries a bound on its
rounding and is used only where that bound holds the tolerance asked
for (`closed_form`).  `response` imports this module at its first Phi,
so that a closed-form CLI call, which evaluates no Phi, does not
compile it.
"""

from __future__ import annotations

import math

from .material import Drude
from .numerics import np


def _log1p(z):
    """log(1 + z) for a complex array z, to a few ulps near z = 0 and near z = -1.

    numpy's complex log1p takes the log of |1 + z| as formed, which loses
    the digits of a small z.
    """
    x, y = z.real, z.imag
    small = 0.5 * np.log1p(x * (2.0 + x) + y * y) + 1j * np.arctan2(y, 1.0 + x)
    return np.where(np.abs(z) < 0.5, small, np.log(1.0 + z))


#: `_digamma` takes psi(z) as its asymptotic series to z^-16 at |z| >= _PSI_FAR or
#: Re z >= _PSI_FROM, where the rest of the series is below 1e-17 of psi for Re z > 0,
#: and elsewhere first moves z to Re z >= _PSI_FROM by psi(z) = psi(z + 1) - 1/z.
_PSI_FAR, _PSI_FROM = 15.0, 10.0
#: B_2k / (2k), k = 1 .. 8: psi(z) ~ log z - 1/(2z) - sum_k B_2k / (2k z^2k).
_PSI_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12,
               -3617 / 8160)


def _digamma(z):
    """The digamma function psi(z) on a complex array z with Re z > 0, to a few ulps of max(1, |psi|).

    Each element takes its own number of recurrence steps, so that its
    value does not depend on the others.
    """
    steps = np.where(np.abs(z) < _PSI_FAR, np.maximum(np.ceil(_PSI_FROM - z.real), 0.0), 0.0)
    total = np.zeros(z.shape, dtype=complex)
    for k in range(int(steps.max(initial=0.0))):
        total -= np.where(k < steps, 1.0 / (z + k), 0.0)
    w = z + steps
    r = 1.0 / (w * w)
    s = _PSI_SERIES[-1]
    for c in _PSI_SERIES[-2::-1]:
        s = s * r + c
    return total + np.log(w) - 0.5 / w - s * r


def _underdamped(material: Drude) -> bool:
    """Whether Im R has four simple poles off the axes: a lossy Drude metal with Omega > 0."""
    half_nu = 0.5 * material.nu  # its square is a product: a power would raise past the float range
    return material.omega_p > 0.0 and half_nu > 0.0 and 0.5 * material.omega_p**2 > half_nu * half_nu


def _poles(material: Drude):
    """The poles p_j of Im R in the upper half-plane and their residues a_j, as arrays.

    For an underdamped lossy Drude metal (`_underdamped`),
    R = -omega_sp^2 / ((omega - p_+)(omega - p_-)) with p_+- = +-Omega + i nu/2,
    Omega = sqrt(omega_sp^2 - nu^2/4) > 0, so that Im R = (R - R*)/(2i) is
    sum_j a_j / (omega - p_j) plus its conjugate, a_+- = +-i omega_sp^2 / (4 Omega).
    omega_sp^2 is 0.5 omega_p^2, rounded as `material.surface_response` rounds it.
    """
    half_nu, square = 0.5 * material.nu, 0.5 * material.omega_p**2
    big = math.sqrt(square - half_nu * half_nu)
    a = 0.25j * square / big
    return np.array([complex(big, half_nu), complex(-big, half_nu)]), np.array([a, -a])


#: The pole sum is used from this multiple of the smaller omega_sp up; below,
#: its terms cancel to many orders of magnitude more than Phi's tolerance allows.
POLES_FROM = 0.5
#: Rounding of the pole sum, in ulps of the sum of its terms' sizes: calibrated
#: against the sum evaluated in 40-digit arithmetic
#: (tests/phi_pole_sum_calibration.py), with a margin of 5.
_POLE_ULPS = 4.5


def _pole_sum(w, material1: Drude, material2: Drude, b: float):
    """Phi by the poles of its integrand, and a bound on its rounding.

    With Im R1 = sum_j a_j / (u - p_j) and Im R2 = sum_k c_k / (u - q_k),
    Im R1(u) Im R2(w - u) has simple poles at u = p_j and u = w - q_k.  By
    the Mittag-Leffler series coth(b u) = sum_n 1 / (b u - i pi n), a pole
    z of residue r adds r G(z) to the integral against coth(b u), with

        G(z) = i pi / (b z) - 2 psi(1 - i b z / pi)   (Im z > 0),
        G(conj z) = conj G(z),

    up to a constant that cancels, since the residues sum to 0.  The half
    against coth(b (w - u)) is the same with the plates swapped, so

        Phi = sum_jk a_j c_k [D(p_j) + D(q_k)] / A_jk,   A_jk = w - p_j - q_k,
        D(p) = G(p) - G(w - p) = i pi w / (b p (w - p)) + 2 [psi(x + i b w / pi) - psi(x)],

    x = 1 - i b p / pi, for Im p > 0, and D(conj p) = conj D(p).  At T = 0
    (b = inf) D(p) is its limit 2 log(1 - w/p) = 2 Int_0^w du / (u - p), and
    Phi = 2 Int_0^w Im R1(u) Im R2(w - u) du.  The terms of the
    lower-half-plane p_j are the conjugates of those of the upper ones, so
    Phi is twice the real part of the 8 upper-half-plane terms.

    The size of D(p) is that of its parts, and of the rounding of p and of
    w - p, through 1 / (w - p) and the arguments of psi
    (psi'(x) ~ 1 / (x - 1/2)) or of the logarithm.  The rounding of each D
    enters all the terms of its pole, so it is weighed by their sum, a
    residue of the integrand; each term adds its own rounding, and that of
    w in A_jk, eps w / |A_jk| of itself.  The bound is _POLE_ULPS ulps of
    the sum of these sizes.  It grows without limit where a pair's poles
    merge (A_jk -> 0 at w = Omega_1 + Omega_2 for equal widths).
    """
    scale = b / math.pi

    def d(material: Drude):
        """The upper poles and residues of a plate, and D and its size at them, one row each."""
        p, a = _poles(material)
        poles = p[:, None]
        gap = w - poles
        if math.isinf(b):
            logs = 2.0 * _log1p(-w / poles)
            return p, a, logs, 2.0 * np.abs(logs) + 4.0 * w / np.abs(gap)
        x = 1.0 - 1j * scale * poles
        # psi at x and at x + i b w / pi, in one call
        args = np.concatenate((x, x + 1j * scale * w), axis=1)
        psi = _digamma(args)
        rational = 1j * math.pi / b * w / (poles * gap)
        size = (np.abs(rational) * (2.0 + w / np.abs(gap)) + 2.0 * np.abs(psi[:, :1])
                + 2.0 * np.abs(psi[:, 1:])
                + 2.0 * scale * (np.abs(poles) / np.abs(x - 0.5)
                                 + (np.abs(poles) + w) / np.abs(args[:, 1:] - 0.5)))
        return p, a, rational + 2.0 * (psi[:, 1:] - psi[:, :1]), size

    p, a, dp, sp = d(material1)
    q, c, dq, sq = (p, a, dp, sp) if material2 is material1 else d(material2)
    q, c = np.concatenate((q, q.conj())), np.concatenate((c, c.conj()))
    dq = np.concatenate((dq, dq.conj()))
    # the 8 pairs (p_j, q_k), j-major
    big = w - (np.repeat(p, 4) + np.tile(q, 2))[:, None]
    ratio = (np.repeat(a, 4) * np.tile(c, 2))[:, None] / big
    term = ratio * (np.repeat(dp, 4, axis=0) + np.tile(dq, (2, 1)))
    sizes = np.abs(term) * (2.0 + w / np.abs(big))
    # summed term by term, so that each omega's sum does not depend on the others
    value, bound = term.real[0], sizes[0]
    for i in range(1, 8):
        value, bound = value + term.real[i], bound + sizes[i]
    # the rounding of each D enters the 16 terms of its pole, weighed by their
    # sum, a residue of the integrand: a row of D(p_j), and for D(q_k) a column
    # and the conjugate of the column of conj q_k
    r = ratio.reshape(2, 4, -1)
    rows, columns = r[:, 0] + r[:, 1] + r[:, 2] + r[:, 3], r[0] + r[1]
    bound = bound + (sp * np.abs(rows) + sq * np.abs(columns[:2] + columns[2:].conj())).sum(axis=0)
    return 2.0 * value, 2.0 * _POLE_ULPS * math.ulp(1.0) * bound


def closed_form(omegas, material1: Drude, material2: Drude, b: float, tol: float):
    """Phi without quadrature, where its rounding bound holds tol.

    For lossy, underdamped Drude plates (omega_p > 0, 0 < nu < 2 omega_sp),
    b = beta hbar / 2 (inf at T = 0): the pole sum (`_pole_sum`) at
    omega >= POLES_FROM times the smaller omega_sp, where its bound is at
    most tol * Phi.  Elsewhere, and for other plates, Phi and its bound
    are 0 and ``used`` is False.  The sum is evaluated at the omegas of its
    window alone, each apart from the others.

    Returns
    -------
    (phi, bound, used) : arrays over omegas
    """
    value, bound = np.zeros(omegas.size), np.zeros(omegas.size)
    used = np.zeros(omegas.size, dtype=bool)
    if not (_underdamped(material1) and _underdamped(material2)):
        return value, bound, used
    i = np.flatnonzero(omegas >= POLES_FROM * min(material1.omega_sp, material2.omega_sp))
    if i.size:
        # a pair's poles may merge at an omega (A_jk = 0): a bound that is
        # not finite there leaves it unused
        with np.errstate(all="ignore"):
            phi, err = _pole_sum(omegas[i], material1, material2, b)
        ok = err <= tol * phi
        used[i], value[i], bound[i] = ok, np.where(ok, phi, 0.0), np.where(ok, err, 0.0)
    return value, bound, used
