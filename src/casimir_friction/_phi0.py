"""Phi of two Drude plates in closed form: a pole sum, and at finite T a small-omega series.

Phi(omega) = Int Im R1(u) Im R2(omega - u) [coth(b u) + coth(b (omega - u))] du,
b = beta hbar / 2, of `response.im_r_dissipation_integral`, for lossy,
underdamped Drude plates (omega_p > 0, 0 < nu < 2 omega_sp).  Im R is
four simple poles at +-Omega +- i nu/2, so the integrand is a rational
function of u times the thermal factor, and from half the smaller
omega_sp up Phi is a sum over its poles (`_pole_sum`): of digamma
functions at finite T, of logarithms at T = 0, their b -> inf limit,
where the difference channel closes.  Each pole is taken with its
conjugate, so that every term carries the widths nu1 nu2 that Phi is of
order in below the lines: the sum holds for lines 1e-9 to 1.99 omega_sp
wide at every T, but next to the merge Omega1 + Omega2 of a pair of its
poles, where two of its terms are 0/0.  Below half the smaller omega_sp
its terms cancel as omega^2 / omega_sp^2.
There, at finite T, Phi is its power series in omega (`series_coefficients`,
`_series`): Im R of each plate is a power series inside its omega_sp,
and each Bose factor weighs the other plate's Taylor series by moments
of zeta values, each product of the two series' coefficients by one
constant (`_series_constants`).  At T = 0 Phi is left to the quadrature
below half the smaller omega_sp.  Each form carries a bound, on the pole
sum's rounding and on the series' rounding and truncation, and is used
only where that bound holds the tolerance asked for (`closed_form`).
`response` imports this module at its first Phi, so that a closed-form
CLI call, which evaluates no Phi, does not compile it.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .material import Drude
from .numerics import np


def _log1p(z):
    """log(1 + z) for a complex array z, to a few ulps near z = 0 and near z = -1.

    numpy's complex log1p takes the log of |1 + z| as formed, which loses
    the digits of a small z.
    """
    x, y = z.real, z.imag
    value = 0.5 * np.log1p(x * (2.0 + x) + y * y) + 1j * np.arctan2(y, 1.0 + x)
    far = np.abs(z) >= 0.5
    if far.any():
        value[far] = np.log(1.0 + z[far])
    return value


#: `_digamma` takes psi(z) as its asymptotic series to z^-16 at |z| >= _PSI_FAR or
#: Re z >= _PSI_FROM, where the rest of the series is below 1e-17 of psi for Re z > 0,
#: and elsewhere first moves z to Re z >= _PSI_FROM by psi(z) = psi(z + 1) - 1/z.
_PSI_FAR, _PSI_FROM = 15.0, 10.0
#: B_2k / (2k), k = 1 .. 8: psi(z) ~ log z - 1/(2z) - sum_k B_2k / (2k z^2k).
_PSI_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12,
               -3617 / 8160)


def _digamma(z, step: float):
    """psi(z) - i s pi/2 and psi(z + step) - psi(z) on a complex array z, and their sizes.

    For Re z > 0 and a real step >= 0; s = sign(Im z), +1 on the real
    axis.  Both take the recurrence psi(z) = psi(z + 1) - 1/z over the
    same steps, each element its own number of them, so that its value
    does not depend on the others, and then the asymptotic series at
    y = z + steps.  Its
    log y is log|y| + i arg y, with arg y - s pi/2 = -s atan2(Re y, |Im y|)
    formed as such, so that an imaginary part next to +-pi/2 keeps its
    digits.  The difference is formed without cancellation, with the step
    as a factor: step sum_n 1 / ((z + n)(z + step + n)) over the
    recurrence, and of the series log1p(step/y) + step A B / 2 +
    step A B (A + B) sum_k c_k h_(k-1), A = 1/(y + step), B = 1/y,
    h_m = sum_j A^2j B^2(m-j) (c_k = _PSI_SERIES); it and its size are 0
    for a step of 0.  The sizes are the sums of the moduli of each value's
    parts: of psi's real part, of its imaginary part, and of the difference.
    """
    def steps_of(x):
        return np.where(np.abs(x) < _PSI_FAR, np.maximum(np.ceil(_PSI_FROM - x.real), 0.0), 0.0)

    # a step >= 0 moves z away from the poles, and takes no more steps than z
    steps = steps_of(z)
    y = z + steps
    r = 1.0 / (y * y)
    s = _PSI_SERIES[-1]
    for c in _PSI_SERIES[-2::-1]:
        s = s * r + c
    tail = 0.5 / y + s * r
    log, arg = np.log(np.abs(y)), np.arctan2(y.real, np.abs(y.imag))
    psi = log - 1j * np.where(y.imag < 0.0, -arg, arg) - tail
    size, pairs, step_size = np.abs(tail), 0.0, 0.0
    some = np.nonzero(steps)
    if some[0].size:
        # over the elements that take steps, the rows k < steps, summed in the order of k
        x, n = z[some], steps[some]
        k = np.arange(n.max())[:, None]
        inverse = np.where(k < n, 1.0 / (x + k), 0.0)
        psi[some] -= inverse.sum(axis=0)
        size[some] += np.abs(inverse).sum(axis=0)  # the rounding of 1/(z + k) enters both parts
        if step:
            terms = inverse / (x + (step + k))
            pairs, step_size = np.zeros(z.shape, dtype=complex), np.zeros(z.shape)
            pairs[some], step_size[some] = terms.sum(axis=0), np.abs(terms).sum(axis=0)
    re_size, im_size = size + np.abs(log), size + arg
    if not step:
        return psi, 0.0, re_size, im_size, 0.0
    a, b = 1.0 / (y + step), 1.0 / y
    a2, b2 = a * a, b * b
    h = power = 1.0
    total = _PSI_SERIES[0]
    for c in _PSI_SERIES[1:]:
        power = power * b2
        h = a2 * h + power
        total = total + c * h
    log1p, half, rest = _log1p(step / y), 0.5 * step * a * b, step * a * b * (a + b) * total
    step_size = np.abs(step) * step_size + np.abs(log1p) + np.abs(half) + np.abs(rest)
    return psi, step * pairs + log1p + half + rest, re_size, im_size, step_size


def _expm1(z):
    """exp(z) - 1 for a complex array z, to a few ulps of its modulus where Re z <= 0.

    exp(Re z) is taken at Re z >= -700, where it is still normal: below,
    it is far under an ulp of the result, and underflow is slow.
    """
    x, y = z.real, z.imag
    return (np.expm1(x) * np.cos(y) - 2.0 * np.sin(0.5 * y) ** 2
            + 1j * np.exp(np.maximum(x, -700.0)) * np.sin(y))


def _underdamped(material: Drude) -> bool:
    """Whether Im R has four simple poles off the axes: a lossy Drude metal with Omega > 0."""
    half_nu = 0.5 * material.nu  # its square is a product: a power would raise past the float range
    return material.omega_p > 0.0 and half_nu > 0.0 and 0.5 * material.omega_p**2 > half_nu * half_nu


def _omega(material: Drude) -> float:
    """Omega = sqrt(omega_sp^2 - nu^2 / 4) of an underdamped Drude metal, omega_sp^2 = omega_p^2 / 2."""
    half_nu = 0.5 * material.nu
    return math.sqrt(0.5 * material.omega_p**2 - half_nu * half_nu)


@functools.lru_cache(maxsize=16)
def _pole(material: Drude):
    """omega_sp^2, nu/2, Omega and the rest of Omega of an underdamped lossy Drude metal.

    Im R has its poles at +-Omega +- i nu/2, Omega = sqrt(omega_sp^2 - nu^2/4),
    omega_sp^2 = 0.5 omega_p^2 rounded as `material.surface_response`
    rounds it.  Omega is the float `_omega` plus its rest, formed exactly,
    so that w - Omega keeps its digits within a few nu of a narrow line.
    """
    square, half_nu, big = 0.5 * material.omega_p**2, 0.5 * material.nu, _omega(material)
    rest = (Fraction(square) - Fraction(half_nu) ** 2 - Fraction(big) ** 2) / (2 * Fraction(big))
    return square, half_nu, big, float(rest)


#: The pole sum is used from this multiple of the smaller omega_sp up; below,
#: its terms cancel as omega^2 / omega_sp^2 more than Phi does.
POLES_FROM = 0.5
#: Rounding of the pole sum, in ulps of the sum of its parts' sizes: calibrated
#: against the sum evaluated in 40-digit arithmetic
#: (tests/phi_pole_sum_calibration.py), with a margin of 5.
_POLE_ULPS = 2.2


def _two_sum(a, b):
    """a + b as s + t: s the float sum and t its rounding error, exactly (Knuth)."""
    s = a + b
    c = s - a
    return s, (a - (s - c)) + (b - c)


def _d_parts(w, e, pole, b: float):
    """Re D(p) and Im D(p) with their sizes at the upper poles p of a plate, one row each.

    D(p) = G(p) - G(w - p) of `_pole_sum`, for p = sigma Omega + i h,
    sigma = +1, -1, h = nu/2, |p|^2 = omega_sp^2, and e = w - sigma Omega.
    At T = 0 D is 2 log(1 - w/p): Re D = log((e^2 + h^2) / omega_sp^2), by
    log1p of w (w - 2 sigma Omega) / omega_sp^2 near 0, and
    Im D = 2 arg(1 - w/p) = 2 atan2(w h, h^2 - sigma Omega e), which climbs
    from O(nu) below the line to 2 pi above it.  At finite T, with
    x = 1 - i b p / pi and eta = b nu / pi, the real step between the psi
    arguments of p and of conj p once psi's reflection formula has brought
    them onto one line,

        Im D = Im [dpsi(Y_w) - dpsi(Y_0)] + pi Re [coth(b conj p) - coth(b (conj p - w))],

    dpsi(Y) = psi(Y + eta) - psi(Y), Y_0 = x - eta and Y_w = Y_0 + i b w / pi,
    each step formed without cancellation (`_digamma`), and the coth
    difference as -sinh(b w) / (sinh z1 sinh z2) over exponentials that
    cannot overflow, so that Im D carries its O(nu) below the line
    explicitly.  This form needs Re Y_0 = 1 - eta/2 > 0; for eta > 1 the
    thermal scale is below nu, and Im D is taken from the psi at x and
    x + i b w / pi themselves, their imaginary parts measured from +-pi/2,
    where the terms cancel by at most about 1 + 1/eta.  Re D is the real
    part of i pi w / (b p (w - p)) + 2 [psi(x + i b w / pi) - psi(x)].
    """
    square, h, big, _ = pole
    sign = np.array([[1.0], [-1.0]])  # the rows of sigma = +1, -1
    ee = e * e + h * h  # |w - p|^2
    if math.isinf(b):
        x, y = h * h - sign * big * e, w * h
        im = 2.0 * np.arctan2(y, x)
        im_size = np.abs(im) + 2.0 * y * (np.abs(x) + h * h + 2.0 * big * np.abs(e)) / (x * x + y * y)
        v = w * (w - 2.0 * sign * big) / square
        re = np.where(v > -0.5, np.log1p(np.maximum(v, -0.5)), np.log(ee / square))
        return re, np.abs(re) + 6.0, im, im_size
    scale, eta = b / math.pi, b * (2.0 * h) / math.pi
    rational = math.pi * w / (b * square * ee)  # i pi w / (b p (w - p)): its re and im
    re_rational = rational * h * (w - 2.0 * sign * big)
    corner = 1.0 - 0.5 * eta if eta <= 1.0 else 1.0 + 0.5 * eta
    z = np.concatenate((corner - 1j * scale * big * sign, corner + 1j * scale * e), axis=1)
    psi, dpsi, re_psi_size, im_psi_size, step_size = _digamma(z, eta if eta <= 1.0 else 0.0)
    values = psi + dpsi
    re = re_rational + 2.0 * (values[:, 1:] - values[:, :1]).real
    # the argument of each psi is rounded to a few ulps: psi'(z) dz is at most about 2
    # ulps of 1 + |Re z| / |z|
    sizes = re_psi_size + step_size
    re_size = 3.0 * np.abs(re_rational) + 2.0 * (sizes[:, 1:] + sizes[:, :1]) + 16.0
    if eta <= 1.0:
        # coth(z1) - coth(z2), z1 = b conj p, z2 = b (conj p - w), z1 - z2 = b w
        z1, z2 = b * big * sign - 1j * b * h, -b * e - 1j * b * h
        s1, s2 = sign, np.where(e > 0.0, -1.0, 1.0)  # the signs of Re z1, Re z2
        d1, d2 = -_expm1(-2.0 * s1 * z1), -_expm1(-2.0 * s2 * z2)
        # b w - |Re z1| - |Re z2| and its phase, formed from e itself; its exponential
        # is taken from -700 up, where it is still normal (see `_expm1`)
        power = np.maximum(2.0 * b * np.minimum(e, 0.0) - b * big * (1.0 - sign), -700.0)
        power = power + 1j * b * h * (s1 + s2)
        jump = -2.0 * s1 * s2 * np.exp(power) * -np.expm1(-2.0 * b * w) / (d1 * d2)
        # coth' = -csch^2 = -4 e^(-2 |Re z|) / (1 - e^(-2 s z))^2, times a few ulps of z
        slope = (np.abs(z1) * np.exp(np.maximum(-2.0 * b * big, -700.0)) / np.abs(d1) ** 2
                 + np.abs(z2) * np.exp(np.maximum(-2.0 * b * np.abs(e), -700.0)) / np.abs(d2) ** 2)
        im = (dpsi[:, 1:] - dpsi[:, :1]).imag + math.pi * jump.real
        im_size = step_size[:, 1:] + step_size[:, :1] + math.pi * (4.0 * np.abs(jump) + 8.0 * slope)
    else:
        # Im psi(z) = s pi/2 + Im (psi - i s pi/2): s = -sigma at x, sign(e) at x + i b w / pi
        jump = math.pi * (np.where(e < 0.0, -1.0, 1.0) + sign)
        im_rational = rational * (sign * big * e + h * h)
        im = im_rational + jump + 2.0 * (psi[:, 1:] - psi[:, :1]).imag
        im_size = (3.0 * rational * (big * np.abs(e) + h * h)
                   + 2.0 * (im_psi_size[:, 1:] + im_psi_size[:, :1])
                   + 4.0 * corner * (1.0 / np.abs(z[:, 1:]) + 1.0 / np.abs(z[:, :1])))
    return re, re_size, im, im_size


def _pole_sum(w, material1: Drude, material2: Drude, b: float):
    """Phi by the poles of its integrand, each with its conjugate, and a bound on its rounding.

    With Im R1 = sum_j a_j / (u - p_j) and Im R2 = sum_k c_k / (u - q_k),
    Im R1(u) Im R2(w - u) has simple poles at u = p_j and u = w - q_k.  By
    the Mittag-Leffler series coth(b u) = sum_n 1 / (b u - i pi n), a pole
    z of residue r adds r G(z) to the integral against coth(b u), with

        G(z) = i pi / (b z) - 2 psi(1 - i b z / pi)   (Im z > 0),
        G(conj z) = conj G(z),

    up to a constant that cancels, since the residues sum to 0.  The half
    against coth(b (w - u)) is the same with the plates swapped, so

        Phi = sum_j a_j f2(w - p_j) D(p_j) + sum_k c_k f1(w - q_k) D(q_k),
        D(p) = G(p) - G(w - p) = i pi w / (b p (w - p)) + 2 [psi(x + i b w / pi) - psi(x)],

    x = 1 - i b p / pi, D(conj p) = conj D(p), and f = Im R continued off
    the axis.  At T = 0 (b = inf) D(p) is its limit 2 log(1 - w/p).  The
    residues a = +-i omega_sp^2 / (4 Omega) are of order omega_sp, but Phi
    is of order nu1 nu2 below the lines, so each upper pole
    p = sigma Omega1 + i h1 (h = nu/2) is taken with conj p, whose residue
    is -a, over one denominator:
    a [f2(z) (D(p) - D(conj p)) + (f2(z) - f2(conj z)) D(conj p)], z = w - p.
    D(p) - D(conj p) = 2i Im D(p) (`_d_parts`), and f2 and its divided
    difference over conj z - z = i nu1 are nu2 times rational functions of
    d = w - sigma Omega1 - sigma' Omega2, so that every term carries its
    widths:

        Phi = sum_sigma 2 sigma alpha1 omega_sp2^2 nu2 e1 Q2 Im D(p)  (+ 1 <-> 2)
              + sum_(sigma sigma') 2 sigma sigma' alpha1 alpha2 nu1 nu2 d (Re D(p) + Re D(q)) / (S M),

    e1 = w - sigma Omega1, alpha = omega_sp^2 / (4 Omega), H = h1 + h2,
    K = h1 - h2, S = d^2 + H^2, M = d^2 + K^2, and Q2 the product over
    sigma' of 1/(S M) times (d+^2 - HK)(d-^2 - HK) - 4 h1^2 HK (-K for the
    plate-2 poles), which is prod 1/S for equal widths.  There M = d^2,
    and a pair's term is (Re D(p) + Re D(q)) / d, 0/0 where a pair of
    poles merges at w = Omega1 + Omega2.  Each Omega is taken with its
    rest (`_pole`), and e and d as a float and its rounding error
    (`_two_sum`), so that they keep their digits next to a line and to
    the merge.  Everything is formed in units of a power of 2 near the
    smaller omega_sp, which is exact and keeps the products of four
    frequencies inside the float range.

    The bound is _POLE_ULPS ulps of the sum of the terms' sizes: each
    factor's modulus times its relative rounding.  Where d -> 0 it grows
    as 1/|d| for equal widths and as 1/K^2 for unequal ones, and is not
    finite at d = 0.
    """
    unit = math.ldexp(1.0, -math.frexp(min(material1.omega_sp, material2.omega_sp))[1])
    w, b = w * unit, b / unit
    sign = np.array([[1.0], [-1.0]])  # the rows of sigma = +1, -1
    plates = []
    for m in (material1,) if material2 is material1 else (material1, material2):
        square, h, big, rest = _pole(m)
        pole = (square * unit * unit, h * unit, big * unit, rest * unit)
        hi, lo = _two_sum(w, -sign * pole[2])  # w - sigma Omega, as hi + lo
        lo = lo - sign * pole[3]
        e = hi + lo
        plates.append((pole, hi, lo, e, *_d_parts(w, e, pole, b)))
    (pole1, hi1, lo1, e1, re1, re1_size, im1, im1_size) = plates[0]
    (pole2, _, _, e2, re2, re2_size, im2, im2_size) = plates[-1]
    (sq1, h1, big1, _), (sq2, h2, big2, rest2) = pole1, pole2
    # over (sigma, sigma', w): d = w - sigma Omega1 - sigma' Omega2, formed to a few
    # ulps of itself
    other = sign.reshape(1, 2, 1)
    d, d_lo = _two_sum(hi1[:, None], -other * big2)
    d = d + ((d_lo + lo1[:, None]) - other * rest2)
    dd = d * d
    big_s = dd + (h1 + h2) ** 2
    alpha1, alpha2 = 0.25 * sq1 / big1, 0.25 * sq2 / big2
    nu1, nu2 = 2.0 * h1, 2.0 * h2
    hk, kk = h1 * h1 - h2 * h2, (h1 - h2) ** 2
    if kk:
        big_m = dd + kk
        # the relative rounding of S and M through d, whose own is that of its rest's
        # rest: it matters where M ~ K^2 is below it
        d_size = np.abs(d) + 2.0 * np.abs(d_lo) + np.abs(lo1[:, None]) + abs(rest2)
        spread = 2.0 * np.abs(d) * d_size * (1.0 / big_s + 1.0 / big_m)

    def edge(e, im, im_size, h, k, alpha, other_sq, other_nu, axis):
        """sum_sigma 2 sigma alpha omega_sp'^2 nu' e Q Im D over one plate's poles, and its size."""
        def pick(x):
            return (x[:, 0], x[:, 1]) if axis else (x[0], x[1])

        (sa, sb), (da, db) = pick(big_s), pick(dd)
        if kk:
            ma, mb = pick(big_m)
            q = ((da - k) * (db - k) - 4.0 * h * h * k) / (sa * sb * ma * mb)
            rounding = ((np.abs(da - k) * np.abs(db - k) + 4.0 * h * h * abs(k))
                        / (sa * sb * ma * mb) * (8.0 + sum(pick(spread))))
        else:
            q = 1.0 / (sa * sb)
            rounding = 12.0 * q  # 2 d^2 / S <= 2 for each S
        factor = (2.0 * alpha * other_sq * other_nu) * sign * e
        term = factor * q * im
        size = np.abs(factor) * (rounding * np.abs(im) + q * (im_size + 3.0 * np.abs(im)))
        return term[0] + term[1], size[0] + size[1]

    value, size = edge(e1, im1, im1_size, h1, hk, alpha1, sq2, nu2, True)
    if material2 is material1:
        value, size = 2.0 * value, 2.0 * size
    else:
        value2, size2 = edge(e2, im2, im2_size, h2, -hk, alpha2, sq1, nu1, False)
        value, size = value + value2, size + size2
    # the pairs' Re D: coefficient (Re D(p) + Re D(q)), and its size
    sums = re1[:, None] + re2[None, :]
    sums_size = re1_size[:, None] + re2_size[None, :]
    if kk:
        coefficient = d / (big_s * big_m)
        rounding = np.abs(coefficient) * (4.0 + spread) + d_size / (big_s * big_m)
    else:
        # M = d^2: 1/S times (Re D(p) + Re D(q)) / d
        coefficient, sums = 1.0 / big_s, sums / d
        sums_size = sums_size / np.abs(d) + 2.0 * np.abs(sums)
        rounding = 8.0 * coefficient
    pairs = sign.reshape(2, 1, 1) * other * (2.0 * alpha1 * alpha2 * nu1 * nu2)
    terms = pairs * coefficient * sums
    sizes = np.abs(pairs) * (rounding * np.abs(sums) + np.abs(coefficient) * sums_size)
    value = value + (terms[0, 0] + terms[0, 1]) + (terms[1, 0] + terms[1, 1])
    size = size + (sizes[0, 0] + sizes[0, 1]) + (sizes[1, 0] + sizes[1, 1])
    return value / unit, _POLE_ULPS * math.ulp(1.0) * size / unit


#: Blocks of the small-omega series at most: its terms of total degree 2s + 3 in
#: omega and k_B T / hbar, s = 0 .. _SERIES_BLOCKS.  At POLES_FROM omega_sp the
#: blocks of the T = 0 part fall by about 4 per block, and the last is below
#: 1e-17 of Phi.
_SERIES_BLOCKS = 28
#: The series' bound: _SERIES_ULPS ulps of the sum of its terms' sizes for its
#: rounding, and _SERIES_TAIL times the first block it leaves out and the
#: thermal weight of the lines it misses for its truncation; calibrated against
#: Phi in 40-digit arithmetic (tests/phi_series_calibration.py), with a margin of 5.
_SERIES_ULPS, _SERIES_TAIL = 19.0, 7.0
#: Phi / omega below which the series is not used: there its terms may have
#: left the normal floats, whose rounding is not a number of ulps.
_SERIES_FLOOR = 1e-200


@functools.cache
def _series_constants():
    """The weights of the small-omega series' block sums, which do not depend on T, and indices.

    weights[s, i, j] is what the product gamma_j gamma'_(s-j) of block s
    (`series_coefficients`) adds to phi_(2i+1) ref^(2i), a = 2j + 1,
    c = 2(s - j) + 1: 2 a! c! / (a + c + 1)! at i = s + 1, the T = 0 part;
    2 [C(c, 2i+1) + C(a, 2i+1)] M_(s-i) at i <= s, the thermal part, where
    M_q = 2 (2q + 1)! zeta(2q + 2) is I_(2q+1) / ref^(2q+2) without its
    tau^(2q+2), tau^powers[s, i], and zeta(2k) comes from the Bernoulli
    numbers of `_digamma` for k <= 8, and above from its sum, whose 20
    terms reach double precision there.  lag[s, j] = s - j picks gamma'_(s-j).
    """
    n = _SERIES_BLOCKS + 2
    fact = [math.factorial(k) for k in range(2 * n + 2)]
    moments = [abs(c) * (2.0 * math.pi) ** (2 * q + 2) for q, c in enumerate(_PSI_SERIES)]
    moments += [2.0 * fact[2 * q + 1] * math.fsum(m ** -(2.0 * q + 2.0) for m in range(1, 21))
                for q in range(len(moments), n)]
    binom = np.array([[math.comb(2 * k + 1, 2 * i + 1) for i in range(n + 1)] for k in range(n)],
                     dtype=float)
    beta = np.array([[fact[2 * j + 1] * fact[2 * (s - j) + 1] / fact[2 * s + 3] if j <= s else 0.0
                      for j in range(n)] for s in range(n)])
    s, i, j = np.ogrid[:n, :n + 1, :n]
    thermal = (binom[s - j, i] + binom[j, i]) * np.array(moments)[s - i]
    weights = 2.0 * np.where((i <= s) & (j <= s), thermal, np.where(i == s + 1, beta[s, j], 0.0))
    return weights, np.maximum(s - j, 0)[:, 0], np.where(i <= s, 2 * (s - i) + 2, 0)[:, :, 0]


def _heads(material: Drude, ref: float) -> list:
    """G_j, j = 0 .. _SERIES_BLOCKS + 1: -Im R(ref y) = sum_j G_j y^(2j+1) for ref |y| < omega_sp.

    -Im R(u) = (nu / omega_sp^2) u / (1 - A x + x^2), x = u^2 / omega_sp^2,
    A = 2 - nu^2 / omega_sp^2, and 1 / (1 - A x + x^2) = sum_j e_j x^j with
    the Chebyshev recurrence e_j = A e_(j-1) - e_(j-2), e_0 = 1, e_1 = A;
    G_j = (nu ref / omega_sp^2) e_j q^j, q = ref^2 / omega_sp^2, by the same
    recurrence scaled by q.
    """
    square, half_nu = 0.5 * material.omega_p**2, 0.5 * material.nu
    q = ref * ref / square
    aq = (2.0 - 4.0 * (half_nu * half_nu / square)) * q
    g = [material.nu * (ref / square)]
    g.append(aq * g[0])
    for _ in range(_SERIES_BLOCKS):
        g.append(aq * g[-1] - q * q * g[-2])
    return g


@functools.lru_cache(maxsize=16)
def series_coefficients(material1: Drude, material2: Drude, b: float):
    """The coefficients phi_n of Phi = sum_n phi_n omega^n (odd n) at finite T, with their bound.

    For lossy, underdamped Drude plates, b = beta hbar / 2 < inf.  With
    -Im R1(u) = sum_j gamma_j u^a and -Im R2(u) = sum_k gamma'_k u^c,
    a = 2j + 1, c = 2k + 1 (`_heads`), and coth x = sign x (1 + 2 n(|x|)),
    n(x) = 1 / (e^(2x) - 1), Phi is a T = 0 part and a thermal part:

        2 sum_jk gamma_j gamma'_k a! c! / (a + c + 1)! omega^(a + c + 1)
        + 2 sum_jk gamma_j gamma'_k sum_(m even) [C(c, m) I_(a+m) omega^(c-m)
                                                + C(a, m) I_(c+m) omega^(a-m)],

    I_p = 2 p! zeta(p + 1) / (2b)^(p + 1), the moment of u^p against each
    Bose factor, localized at u = 0 or u = omega, taken against the Taylor
    series of the other plate's Im R there.  p is odd, so only zeta at even
    arguments enters.  The T = 0 part converges for omega below both
    omega_sp; the thermal part is asymptotic in k_B T / hbar omega_sp.  The
    terms with j + k = s are block s, of total degree 2s + 3 in omega and
    k_B T / hbar.  The series keeps the blocks up to the smallest at
    omega -> 0, where the thermal part is all of Phi, and at most
    _SERIES_BLOCKS: the thermal part of every omega^n sums the same
    asymptotic series in k_B T / hbar, and by then the T = 0 part has
    converged.  Every block is formed once, from one array of the products
    gamma_j gamma'_(s-j) and the weights of `_series_constants`: the kept
    ones give the coefficients and their rounding, the first one left out
    the truncation.  The coefficients depend on the plates and T alone,
    and are kept for the next call.

    Returns
    -------
    (ref, rows, lines)
        ref, the smaller omega_sp; two rows over i = 0 .. _SERIES_BLOCKS + 2,
        phi_(2i+1) ref^(2i) and the coefficients of the bound on its
        rounding and truncation, so that at y = (omega / ref)^2
        Phi = omega sum_i rows[0, i] y^i and the bound is
        omega sum_i rows[1, i] y^i; and _SERIES_TAIL times a bound on
        `_line_weight` over the series' window.
    """
    weights, lag, powers = _series_constants()
    ref = min(material1.omega_sp, material2.omega_sp)
    g = _heads(material1, ref)
    h = g if material2 is material1 else _heads(material2, ref)
    # rows of values and, where Chebyshev's e_j change sign, of sizes: every
    # array below holds one row, or two
    g, h = (np.array((x, np.abs(x)) if min(x) < 0.0 else (x,)) for x in (g, h))
    # pairs[:, s, j] = gamma_j gamma'_(s-j); blocks[:, s, i], block s's share of
    # phi_(2i+1) ref^(2i), at tau = k_B T / (hbar ref) = 1 / (2 b ref)
    pairs = np.tril(g[:, None] * h[:, lag])
    blocks = np.einsum("rsj,sij->rsi", pairs, weights) * (0.5 / (b * ref)) ** powers
    # block s at omega -> 0 is its n = 1 term, 4 (s + 1) I_(2s+1) sum_j |pairs[s, j]|
    small = blocks[-1, :, 0]
    rising = np.flatnonzero(small[1:_SERIES_BLOCKS + 1] > small[:_SERIES_BLOCKS])
    last = int(rising[0]) if rising.size else _SERIES_BLOCKS
    rows = np.ones((2, 1)) * blocks[:, :last + 1].sum(axis=1)  # values, sizes
    # the rounding, by the sizes, and the truncation, by the first block left out
    rows[1] = _SERIES_ULPS * math.ulp(1.0) * rows[1] + _SERIES_TAIL * blocks[-1, last + 1]
    # _line_weight over the window: each line m meets the Bose factor no nearer to
    # u = 0 than d_m = |Omega_m - POLES_FROM ref + i nu_m / 2| and omega_sp,m,
    # and -Im R of the other plate m' is at most 2 omega_sp^3 / (nu Omega^2)
    def bose(x):
        """n(x / 2) = 1 / (e^x - 1) for x >= 0."""
        return math.inf if x == 0.0 else 1.0 / math.expm1(x) if x < 709.0 else 0.0

    weight = 0.0
    for m, other in ((material1, material2), (material2, material1)):
        near = math.hypot(max(_omega(m) - POLES_FROM * ref, 0.0), 0.5 * m.nu)
        factor = bose(2.0 * b * near) + bose(2.0 * b * m.omega_sp)
        if factor:  # and a peak past the float range weighs nothing
            ratio = other.omega_sp / _omega(other)
            weight += 2.0 * math.pi * m.omega_sp * factor * (2.0 * other.omega_sp / other.nu
                                                             * ratio * ratio)
    rows.flags.writeable = False  # kept for the next call
    return ref, rows, _SERIES_TAIL * weight


def _line_weight(w, material1: Drude, material2: Drude, b: float):
    """The thermal weight of the lines that the small-omega series misses, at each w.

    The series takes the Bose factor n(b |u|) at its Taylor series about
    u = 0, and so misses the exponentially small weight that it puts on
    each line.  With f = -Im R, odd, the line of plate 2 meets the factor
    of plate 1 at u = w -+ Omega_2, where it weighs
    f_1(Omega_2 - w) n(b |w - p_2|) - f_1(Omega_2 + w) n(b |w + conj p_2|),
    and the line of plate 1 meets it at u = +-Omega_1, where it weighs
    n(b omega_sp1) [f_2(Omega_1 + w) - f_2(Omega_1 - w)]; likewise with
    the plates swapped.  Each is taken by its size, times 2 (pi omega_sp / 2),
    twice the strength of the line.  Each pair is odd in w, as Phi is.

    Each difference is formed without cancellation, since below about an
    ulp of Omega its two terms round to one value: with f = k t / D,
    t = u / omega_sp, k = nu / omega_sp, D = (1 - t^2)^2 + k^2 t^2,
    f(t1) - f(t2) = k (t1 - t2) [1 + (2 - k^2) t1 t2 - t1 t2 (t1^2 + t1 t2 + t2^2)] / (D1 D2),
    and n(b h1) - n(b h2) = -expm1(-2b (h2 - h1)) n1 (1 + n2) at
    h1, h2 = |w -+ p_2|, with h2 - h1 = 4 Omega_2 w / (h1 + h2).
    """
    def split(m: Drude, centre: float):
        """f_m(centre + w), and f_m(centre - w) - f_m(centre + w)."""
        k, t1, t2 = m.nu / m.omega_sp, (centre - w) / m.omega_sp, (centre + w) / m.omega_sp
        d1, d2 = (1.0 - t1 * t1) ** 2 + (k * t1) ** 2, (1.0 - t2 * t2) ** 2 + (k * t2) ** 2
        p = t1 * t2
        bracket = 1.0 + (2.0 - k * k) * p - p * (t1 * t1 + p + t2 * t2)
        return k * t2 / d2, -2.0 * (w / m.omega_sp) * k * bracket / (d1 * d2)

    total = np.zeros(w.size)
    for x, y in ((material1, material2),) if material2 is material1 else (
            (material1, material2), (material2, material1)):
        big_x, big_y = _omega(x), _omega(y)
        f2, gap = split(x, big_y)
        h1, h2 = np.hypot(big_y - w, 0.5 * y.nu), np.hypot(big_y + w, 0.5 * y.nu)
        n1, n2 = 1.0 / np.expm1(2.0 * b * h1), 1.0 / np.expm1(2.0 * b * h2)
        bose = -np.expm1(-8.0 * b * big_y * w / (h1 + h2)) * n1 * (1.0 + n2)
        total += math.pi * (y.omega_sp * np.abs(gap * n1 + f2 * bose) + x.omega_sp
                            / np.expm1(2.0 * b * x.omega_sp) * np.abs(split(y, big_x)[1]))
    return total if material2 is not material1 else 2.0 * total


def _series(w, material1: Drude, material2: Drude, b: float):
    """Phi by its small-omega series (`series_coefficients`) at each w, and a bound on its error.

    The bound takes the thermal weight of the lines (`_line_weight`) at
    each w where its bound over the window exceeds an ulp of Phi.  Each
    omega's sum has the same terms, so that it does not depend on the others.
    """
    ref, rows, lines = series_coefficients(material1, material2, b)
    sums = np.einsum("ij,kj->ki", np.vander((w / ref) ** 2, rows.shape[1], increasing=True), rows)
    phi = w * sums[0]
    bound = w * sums[1] + (lines + math.ulp(0.0))
    if lines:
        near = np.flatnonzero(lines > math.ulp(1.0) * phi)
        if near.size:
            weight = _SERIES_TAIL * _line_weight(w[near], material1, material2, b)
            bound[near] = w[near] * sums[1, near] + (weight + math.ulp(0.0))
    bound[sums[0] < _SERIES_FLOOR] = np.inf
    return phi, bound


def closed_form(omegas, material1: Drude, material2: Drude, b: float, tol: float):
    """Phi without quadrature, where its bound holds tol.

    For lossy, underdamped Drude plates (omega_p > 0, 0 < nu < 2 omega_sp),
    b = beta hbar / 2 (inf at T = 0): the pole sum (`_pole_sum`) at
    omega >= POLES_FROM times the smaller omega_sp, and at finite T the
    small-omega series (`_series`) below, each where its bound is at most
    tol * Phi.  At a tol of 1e-9 the pole sum takes every such omega, at
    every T, for lines 1e-9 to 1.99 omega_sp wide, but next to the merge
    Omega1 + Omega2 of a pair of its poles, where two of its terms are
    0/0 and its bound grows as the inverse distance: it may leave omegas
    within 1e-2 of the merge to the quadrature.  Elsewhere, and for other
    plates, Phi and its bound are 0 and ``used`` is False.  Each form is evaluated at the omegas of its window alone,
    each apart from the others.

    Returns
    -------
    (phi, bound, used) : arrays over omegas
    """
    value, bound = np.zeros(omegas.size), np.zeros(omegas.size)
    used = np.zeros(omegas.size, dtype=bool)
    if not (_underdamped(material1) and _underdamped(material2)):
        return value, bound, used
    high = omegas >= POLES_FROM * min(material1.omega_sp, material2.omega_sp)
    # a bound that is not finite (at the merge Omega1 + Omega2) leaves its
    # omega unused
    windows = [(high, _pole_sum)] if math.isinf(b) else [(high, _pole_sum), (~high, _series)]
    with np.errstate(all="ignore"):
        for window, form in windows:
            i = np.flatnonzero(window)
            if i.size:
                phi, err = form(omegas[i], material1, material2, b)
                # and not where Phi overflowed, whose infinite bound holds any tol
                ok = (err <= tol * phi) & (phi < np.inf)
                i = i[ok]
                used[i], value[i], bound[i] = True, phi[ok], err[ok]
    return value, bound, used
