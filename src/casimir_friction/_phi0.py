"""Phi of two Drude plates in closed form: a pole sum, and at finite T a small-omega series.

Phi(omega) = Int Im R1(u) Im R2(omega - u) [coth(b u) + coth(b (omega - u))] du,
b = beta hbar / 2, of `response.im_r_dissipation_integral`, for lossy,
underdamped Drude plates (omega_p > 0, 0 < nu < 2 omega_sp).  Im R is
four simple poles at +-Omega +- i nu/2, so the integrand is a rational
function of u times the thermal factor, and from half the smaller
omega_sp up Phi is a sum over its poles (`_pole_sum`): of digamma
functions at finite T, of logarithms at T = 0, their b -> inf limit,
where the difference channel closes.  Below, its terms cancel.  There,
at finite T, Phi is its power series in omega (`series_coefficients`,
`_series`): Im R of each plate is a power series inside its omega_sp,
and each Bose factor weighs the other plate's Taylor series by moments
of zeta values, each product of the two series' coefficients by one
constant (`_series_constants`).  At T = 0 Phi is left to the quadrature
below half the smaller omega_sp.  Each form carries a bound, on the pole
sum's rounding and on the series' rounding and truncation, and is used
only where that bound holds the tolerance asked for (`closed_form`).  `response` imports
this module at its first Phi, so that a closed-form CLI call, which
evaluates no Phi, does not compile it.
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


def _omega(material: Drude) -> float:
    """Omega = sqrt(omega_sp^2 - nu^2 / 4) of an underdamped Drude metal, omega_sp^2 = omega_p^2 / 2."""
    half_nu = 0.5 * material.nu
    return math.sqrt(0.5 * material.omega_p**2 - half_nu * half_nu)


def _poles(material: Drude):
    """The poles p_j of Im R in the upper half-plane and their residues a_j, as arrays.

    For an underdamped lossy Drude metal (`_underdamped`),
    R = -omega_sp^2 / ((omega - p_+)(omega - p_-)) with p_+- = +-Omega + i nu/2,
    Omega = sqrt(omega_sp^2 - nu^2/4) > 0, so that Im R = (R - R*)/(2i) is
    sum_j a_j / (omega - p_j) plus its conjugate, a_+- = +-i omega_sp^2 / (4 Omega).
    omega_sp^2 is 0.5 omega_p^2, rounded as `material.surface_response` rounds it.
    """
    square, big = 0.5 * material.omega_p**2, _omega(material)
    a = 0.25j * square / big
    half_nu = 0.5 * material.nu
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
    tol * Phi.  Elsewhere, and for other plates, Phi and its bound are 0
    and ``used`` is False.  Each form is evaluated at the omegas of its
    window alone, each apart from the others.

    Returns
    -------
    (phi, bound, used) : arrays over omegas
    """
    value, bound = np.zeros(omegas.size), np.zeros(omegas.size)
    used = np.zeros(omegas.size, dtype=bool)
    if not (_underdamped(material1) and _underdamped(material2)):
        return value, bound, used
    high = omegas >= POLES_FROM * min(material1.omega_sp, material2.omega_sp)
    # a pair's poles may merge at an omega (A_jk = 0): a bound that is not
    # finite there leaves it unused
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
