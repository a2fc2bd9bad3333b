"""The T = 0 sum channel of two Drude plates in closed form.

Phi_0(omega) = 2 Int_0^omega Im R1(u) Im R2(omega - u) du, the sum
channel of `response.im_r_dissipation_integral` at T = 0, for lossy,
underdamped Drude plates (omega_p > 0, 0 < nu < 2 omega_sp): a sum over
the poles of Im R above omega_sp (`_pole_sum`), and its power series
below (`_power_series`), each with a bound on its rounding and used only
where that bound holds the tolerance asked for (`sum_channel_zero_t`).
`response` imports this module at its first Phi, so that a closed-form
CLI call, which evaluates no Phi, does not compile it.
"""

from __future__ import annotations

import functools
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


def _poles(material: Drude):
    """Im R of an underdamped lossy Drude metal as sum_j a_j / (omega - p_j): (p_j, a_j).

    R = -omega_sp^2 / ((omega - p_+)(omega - p_-)) with p_+- = +-Omega + i nu/2,
    Omega = sqrt(omega_sp^2 - nu^2/4); Im R = (R - R*)/(2i) adds the conjugate
    poles.  The upper-half-plane poles come first.
    """
    half_nu = 0.5 * material.nu
    big = math.sqrt(material.omega_sp**2 - half_nu**2)
    a = 0.25j * material.omega_sp**2 / big
    return ((complex(big, half_nu), a), (complex(-big, half_nu), -a),
            (complex(big, -half_nu), -a), (complex(-big, -half_nu), a))


#: The pole sum of the T = 0 sum channel is used from this multiple of the
#: larger omega_sp up, where no pole of Im R lies near the real omega it is
#: evaluated at; below, its 16 terms cancel to many orders of magnitude.
CLOSED_FORM_FROM = 1.1
#: Rounding of one term of the pole sum, in ulps of the term: calibrated
#: against the sum evaluated in 40-digit arithmetic, with a margin of 5.
_TERM_ULPS = 4.0
#: The power series of the T = 0 sum channel is used up to this fraction of
#: the smaller omega_sp, where its terms fall by about 4x each.
SERIES_UP_TO = 0.5
#: Terms of the power series: its m-th term is below m^2 4^-m of the first
#: one up to SERIES_UP_TO, so the rest of the series is below 1e-21 of it.
_SERIES_TERMS = 40
#: Rounding of the power series, in ulps of the sum of its terms' sizes,
#: calibrated as _TERM_ULPS is, with a margin of 4.
_SERIES_ULPS = 16.0


def _pole_sum(w, material1: Drude, material2: Drude):
    """Phi_0 = 2 Int_0^w Im R1(u) Im R2(w - u) du by its poles, and a bound on its rounding.

    With Im R1 = sum_j a_j / (u - p_j) and Im R2 = sum_k b_k / (u - q_k),

        Phi_0 = 2 sum_jk a_j b_k [l(p_j) + l(q_k)] / A_jk,   A_jk = w - p_j - q_k,

    with l(p) = Int_0^w du / (u - p) = log(1 - w/p): no u - p crosses the
    branch cut, since Im p != 0.  For a pair whose poles lie in opposite
    half-planes, l(p) + l(q) = log1p(A/q) + log1p(A/p) exactly, and A may
    vanish (at w = Omega_1 + Omega_2 for equal widths): that form is used,
    with its limit 1/p + 1/q at A = 0.  The terms of the lower-half-plane
    p_j are the conjugates of those of the upper ones, so Phi_0 is four
    times the real part of the 8 upper-half-plane terms.  Each term is
    rounded to about _TERM_ULPS ulps of itself, and a term of a
    same-half-plane pair also carries the rounding of w in A, eps w / |A|
    of itself; the bound is the sum of these.
    """
    pairs = [(p, q, a * b) for p, a in _poles(material1)[:2] for q, b in _poles(material2)]
    p, q, ab = (np.array(x)[:, None] for x in zip(*pairs))
    opposite = p.imag * q.imag < 0.0
    big = w - p - q
    logs = _log1p(np.concatenate((np.where(opposite, big / q, -w / p),
                                  np.where(opposite, big / p, -w / q))))
    terms = ab * np.where(big == 0.0, 1.0 / p + 1.0 / q, (logs[:8] + logs[8:]) / big)
    ulps = _TERM_ULPS * np.where(opposite, 1.0, 1.0 + w / np.abs(big))
    # summed row by row, so that each omega's sum does not depend on the others
    value = bound = 0.0
    for t, u in zip(terms, ulps):
        value, bound = value + t.real, bound + np.abs(t) * u
    return 4.0 * value, 4.0 * math.ulp(1.0) * bound


def _im_r_series(material: Drude, scale: float):
    """c_k of Im R(u) = sum_k c_k t^(2k+1), t = u / scale, for k < _SERIES_TERMS.

    Im R = -n W t / (W^2 - (2 W - n^2) t^2 + t^4) with W = (omega_sp/scale)^2
    and n = nu/scale: c_k = -n W e_k, where sum_k e_k x^k = 1/(W^2 - (2W - n^2) x + x^2).
    """
    big, n = (material.omega_sp / scale) ** 2, material.nu / scale
    e = [1.0 / big**2, (2.0 * big - n * n) / big**4]
    while len(e) < _SERIES_TERMS:
        e.append(((2.0 * big - n * n) * e[-1] - e[-2]) / big**2)
    return -n * big * np.array(e)


@functools.cache
def _beta():
    """B(2k+2, 2l+2) = 1 / ((2m+3) C(2m+2, 2k+1)), m = k + l, as a matrix.

    0 where m >= _SERIES_TERMS.
    """
    return np.array([[1.0 / ((2 * (k + l) + 3) * math.comb(2 * (k + l) + 2, 2 * k + 1))
                      if k + l < _SERIES_TERMS else 0.0
                      for l in range(_SERIES_TERMS)] for k in range(_SERIES_TERMS)])


@functools.lru_cache(maxsize=64)
def _series_coefficients(material1: Drude, material2: Drude):
    """The scale s and the coefficients a_m of `_power_series`, with their sizes |a_m|."""
    scale = min(material1.omega_sp, material2.omega_sp)
    c, d = _im_r_series(material1, scale), _im_r_series(material2, scale)
    k = np.arange(_SERIES_TERMS)
    a = 2.0 * np.bincount((k[:, None] + k).ravel(), (np.outer(c, d) * _beta()).ravel(),
                          2 * _SERIES_TERMS)[:_SERIES_TERMS]
    sizes = np.abs(a)
    a.flags.writeable = sizes.flags.writeable = False  # shared by every caller
    return scale, a, sizes


def _power_series(w, material1: Drude, material2: Drude):
    """Phi_0 = 2 Int_0^w Im R1(u) Im R2(w - u) du by its power series, and a bound on its rounding.

    Im R is odd and analytic within |u| < omega_sp, so with t = w / s
    (s the smaller omega_sp) and Im R_i(u) = sum_k c_ik (u/s)^(2k+1),

        Phi_0 = s sum_m a_m t^(2m+3),
        a_m = 2 sum_{k+l=m} c_1k c_2l B(2k+2, 2l+2),

    B(2k+2, 2l+2) = (2k+1)! (2l+1)! / (2m+3)!.  Its first term is the
    Drude head Phi_3 w^3 = nu_1 nu_2 w^3 / (3 omega_sp1^2 omega_sp2^2).  The
    bound is _SERIES_ULPS ulps of sum_m |a_m| t^(2m+3).
    """
    scale, a, sizes = _series_coefficients(material1, material2)
    t = w / scale
    # one row of powers t^(2m) per omega, each row summed alone
    powers = (t * t)[:, None] ** np.arange(_SERIES_TERMS)
    t3 = scale * t**3
    bound = _SERIES_ULPS * math.ulp(1.0) * t3 * (powers * sizes).sum(axis=1)
    return t3 * (powers * a).sum(axis=1), bound


def sum_channel_zero_t(omegas, material1: Drude, material2: Drude, tol: float, series: bool):
    """Phi_0 = 2 Int_0^w Im R1(u) Im R2(w - u) du without quadrature, where it holds tol.

    For lossy, underdamped Drude plates (omega_p > 0, 0 < nu < 2 omega_sp):
    the pole sum (`_pole_sum`) at omega >= CLOSED_FORM_FROM times both
    omega_sp, and, if ``series``, the power series (`_power_series`) at
    omega <= SERIES_UP_TO times both omega_sp; each only where its bound
    is at most tol * Phi_0.  Elsewhere, and for other plates, Phi_0 and
    its bound are 0 and ``used`` is False.

    Returns
    -------
    (phi_0, bound, used) : arrays over omegas
    """
    value = bound = np.zeros(omegas.size)
    used = value.astype(bool)
    if not all(m.omega_p > 0.0 and 0.0 < m.nu < 2.0 * m.omega_sp for m in (material1, material2)):
        return value, bound, used
    high = omegas >= CLOSED_FORM_FROM * max(material1.omega_sp, material2.omega_sp)
    low = omegas <= SERIES_UP_TO * min(material1.omega_sp, material2.omega_sp) if series else used
    any_high, any_low = high.any(), low.any()
    if not (any_high or any_low):
        return value, bound, used
    # each form is evaluated at every omega or none, so that a value does not
    # depend on the other omegas of the call
    if any_high:
        value, bound = _pole_sum(omegas, material1, material2)
    if any_low:
        near, near_bound = _power_series(omegas, material1, material2)
        value, bound = np.where(low, near, value), np.where(low, near_bound, bound)
    used = (high | low) & (bound <= tol * value)
    return np.where(used, value, 0.0), np.where(used, bound, 0.0), used
