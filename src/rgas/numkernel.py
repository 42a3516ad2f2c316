"""Special-function kernels: Riemann and Hurwitz zeta, digamma, log-gamma, Ei.

Everything here is self-contained double-precision numerics built on
Euler-Maclaurin summation (zeta family), Stirling series (gamma family),
and one exponential-integral kernel, h(z) = z e^z E1(z) - 1 (`_z_exp_e1`,
of which real Ei is a view).  All functions are pure and reentrant.

Conventions: complex arguments and results use the builtin ``complex`` type.
The private ``*_many`` kernels take 1-d numpy arrays (quadrature nodes,
zero-search grids); these, the real-axis zeta and the exponential-integral
kernels give each element the value it has alone.  The scalar zeta and
gamma-family functions wrap them, as one call on a one-element array.
Real in, real arithmetic: the Euler-Maclaurin zeta kernel, like the
digamma, runs a float64 array in float64 and anything else in complex128,
and the scalar zeta, zeta' and zeta'/zeta hand it a real-valued s with
Re s >= -1/2 as float64, so a real s has the bits of the real-axis kernels.
The zeta family has one fixed accuracy target: the Euler-Maclaurin
truncation estimate must be at most 1e-12, from a Dirichlet-sum cutoff of
ceil(|Im s|/2) + 10 terms (at least 21) capped at 200,000; past either it
raises AccuracyError.  From Re s = 1100 on, zeta is exactly 1 and zeta'
exactly 0.  ``_zeta_em_many`` sorts an array by |Im s| and cuts it into
kernel calls of bounded size and waste (``_zeta_em_batched``).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import AccuracyError, DomainError, PoleError

__all__ = [
    "zeta",
    "zeta_derivative",
    "log_zeta_principal",
    "zeta_log_derivative",
    "hurwitz_zeta",
    "hurwitz_finite_part",
    "digamma",
    "log_gamma",
    "exp_integral_ei",
    "EULER_GAMMA",
]

EULER_GAMMA = 0.5772156649015328606

# Bernoulli numbers B_{2k}, k = 1..13, frozen from the exact rationals
# 1/6, -1/30, 1/42, -1/30, 5/66, -691/2730, 7/6, -3617/510, 43867/798,
# -174611/330, 854513/138, -236364091/2730, 8553103/6.
_B2K = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
    854513.0 / 138.0,
    -236364091.0 / 2730.0,
    8553103.0 / 6.0,
)

# Correction order of the Euler-Maclaurin tail: terms k = 1..12 are summed,
# k = 13 drives the truncation-error estimate.
_EM_ORDER = 12
_B_OVER_FACT = tuple(_B2K[k - 1] / math.factorial(2 * k) for k in range(1, _EM_ORDER + 2))

# Shifts j = 0..2J of the rising product in the truncation estimate.
_RISING_SHIFTS = np.arange(2 * _EM_ORDER + 1, dtype=np.float64)

# Stirling tail coefficients B_{2n} / (2n (2n-1)) for log-gamma, and
# B_{2n} / (2n) for digamma.
_STIRLING = tuple(_B2K[n - 1] / (2 * n * (2 * n - 1)) for n in range(1, _EM_ORDER + 1))
_DIGAMMA_TAIL = tuple(_B2K[n - 1] / (2 * n) for n in range(1, 9))

_LOG_2PI = math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)


# The one accuracy target of the zeta family: the Euler-Maclaurin truncation
# estimate must be at most _TARGET_ABS_ERROR, with a Dirichlet-sum cutoff of
# at most _MAX_TERMS terms; past either, AccuracyError.
_TARGET_ABS_ERROR = 1e-12
_MAX_TERMS = 200_000

# From here on 2^(-Re s) underflows, so every Dirichlet term past n = 1 and
# every Euler-Maclaurin correction is 0.0: the sum reads zeta = 1, zeta' = 0.
_UNIT_RE_S = 1100.0


# ----------------------------------------------------------------------
# Euler-Maclaurin core
# ----------------------------------------------------------------------

def _em_cutoff(im_max: float, base: float) -> int:
    """Dirichlet-sum cutoff N = max(ceil(|Im s|/2) + 10, 20), shifted so the
    expansion point base + N is never below ~20.  N is checked against
    ``_MAX_TERMS`` while still a float, so a huge |Im s| cannot make a huge
    int."""
    n = max(float(np.ceil(im_max / 2.0)) + 10.0, 20.0)
    if base < 20.0:
        n = max(n, float(np.ceil(22.0 - base)))
    if not n <= _MAX_TERMS:
        raise AccuracyError(f"Euler-Maclaurin cutoff {n:.3g} exceeds max_terms={_MAX_TERMS}")
    return int(n)


def _hurwitz_em(s: np.ndarray, a: float, n_terms: int, want_derivative: bool):
    """Euler-Maclaurin evaluation of zeta(s, a) for an array of s, in the
    arithmetic of its dtype: a real array stays float64 throughout (powers,
    corrections, estimate and floor), anything else is complex128.

    Returns ``(value, derivative, estimate, floor)``; ``derivative`` is None
    unless ``want_derivative``.  ``estimate`` bounds the error: the first
    omitted correction term times the standard |s+2J+1| / (Re s + 2J+1)
    factor, plus ``floor``, the rounding floor of the summed pieces.

    The estimate only gates accuracy (``_check_est``, the zero finder's
    gate), so its rising product of |s+j| is one vectorized reduction
    whose last bits may differ from a step-by-step product; ``value`` and
    ``derivative`` keep a fixed order of operations.
    """
    real = not np.iscomplexobj(s)
    s = np.asarray(s, dtype=np.float64 if real else np.complex128)
    shape = s.shape
    sf = s.reshape(-1)

    ln_n = np.log(np.arange(0, n_terms, dtype=np.float64) + a)
    # main sum: sum_{n=0}^{N-1} (a+n)^(-s)
    powers = np.exp(-sf[:, None] * ln_n[None, :])
    main = powers.sum(axis=1)

    w = a + n_terms
    ln_w = math.log(w)
    w_ms = np.exp(-sf * ln_w)  # w^(-s)
    sm1 = sf - 1.0
    pole = w * w_ms / sm1  # w^(1-s) / (s-1)
    value = main + pole + 0.5 * w_ms

    if want_derivative:
        dmain = -(powers * ln_n[None, :]).sum(axis=1)
        dpole = -pole * ln_w - w * w_ms / (sm1 * sm1)
        dvalue = dmain + dpole - 0.5 * ln_w * w_ms

    # correction terms: B_{2k}/(2k)! * prod_{j=0}^{2k-2}(s+j) * w^(-s-2k+1)
    p = sf.copy()  # rising product, starts at (s+0)
    dp = np.ones_like(sf)  # its s-derivative
    w_pow = w_ms * w  # w^(-s+1); maintain w^(-s-2k+1) by dividing w^2 each k
    inv_w2 = 1.0 / (w * w)
    for k in range(1, _EM_ORDER + 1):
        if k > 1:
            for j in (2 * k - 3, 2 * k - 2):
                sj = sf + j
                if want_derivative:
                    dp *= sj
                    dp += p
                p *= sj
        w_pow *= inv_w2
        coef = _B_OVER_FACT[k - 1]
        value += coef * p * w_pow
        if want_derivative:
            dvalue += coef * (dp - p * ln_w) * w_pow

    # error estimate: the k = J+1 correction term, plus a summation-rounding
    # floor proportional to the absolute mass of the evaluated pieces; the
    # rising-product factors |s+j|, j = 0..2J, are clamped away from zero so
    # an exact hit on a negative integer cannot silence the estimate
    # (real s: the powers and w^(-s-2k+1) are positive, and hypot(x, 0) = |x|)
    w_pow = w_pow * inv_w2
    if real:
        shifted = np.abs(sf[:, None] + _RISING_SHIFTS)
        size_w_pow, size_w_ms, size_powers = w_pow, w_ms, main
    else:
        shifted = np.hypot(sf.real[:, None] + _RISING_SHIFTS, sf.imag[:, None])
        size_w_pow, size_w_ms = np.abs(w_pow), np.abs(w_ms)
        size_powers = np.abs(powers).sum(axis=1)
    rising = np.prod(np.maximum(shifted, 1.0), axis=1)
    denom = sf.real + 2 * _EM_ORDER + 1
    factor = np.abs(sf + (2 * _EM_ORDER + 1)) / np.where(denom > 0.5, denom, 0.5)
    est = abs(_B_OVER_FACT[_EM_ORDER]) * rising * size_w_pow * np.maximum(factor, 1.0)
    abs_mass = size_powers + np.abs(pole) + 0.5 * size_w_ms
    floor = 8.0 * np.finfo(float).eps * abs_mass

    if want_derivative:
        # the derivative's omitted term carries an extra ln(w)-size factor,
        # and its floor the rounding of the pole term w^(1-s)/(s-1)^2, which
        # outgrows every other piece next to s = 1
        pole_floor = 8.0 * np.finfo(float).eps * np.abs(pole / sm1)
        return (
            value.reshape(shape),
            dvalue.reshape(shape),
            (est * (ln_w + 1.0) + floor + pole_floor).reshape(shape),
            (floor * (ln_w + 1.0) + pole_floor).reshape(shape),
        )
    return value.reshape(shape), None, (est + floor).reshape(shape), floor.reshape(shape)


def _check_est(est, floor, what: str) -> None:
    # the gate fires on the truncation part only: the rounding floor is the
    # attainable accuracy at the operand scale and cannot be refined away by
    # adding terms (it matters near the pole and at the trivial zeros)
    if np.any(est > np.maximum(_TARGET_ABS_ERROR, 2.0 * floor)):
        raise AccuracyError(
            f"{what}: truncation estimate {float(np.max(est)):.3e} exceeds target {_TARGET_ABS_ERROR:.3e}"
        )


# Batching of the zeta sums: a call runs at the cutoff of its largest |Im s|,
# costed as 0.5 |Im s| + 11, ceil(|Im s|/2) + 10 rounded up (a real array's is
# the constant _em_cutoff(0.0, 1.0) = 21: calls of 6,241 points).  A call ends
# before the terms its points waste under that cutoff pass _EM_CHUNK_WASTE,
# about the fixed cost of one `_hurwitz_em` call (~190 us, ~3,500 terms at
# ~55 ns), or its points x cutoff pass _EM_CHUNK_TERMS (term matrices ~2 MB).
_EM_CHUNK_WASTE = 1 << 12
_EM_CHUNK_TERMS = 1 << 17


def _zeta_em_batched(s: np.ndarray, want_derivative: bool):
    """``_hurwitz_em``'s (value, derivative, estimate, floor) at a = 1 on a
    1-d array of s, ungated, from calls cut by the rule above from s sorted
    by |Im s|; a real point's bits are those of the point alone."""
    if np.iscomplexobj(s):
        size = np.abs(s.imag)
        order = np.argsort(size, kind="stable")
        cost = 0.5 * size[order] + 11.0
        calls, lo = [], 0
        while lo < s.size:
            # work and waste of the calls [lo, lo + k), k = 1, 2, ...; both grow
            # with k, and as no cost is below 11 no call passes the window
            window = cost[lo : lo + _EM_CHUNK_TERMS // 11]
            work = np.arange(1, window.size + 1) * window
            waste = work - np.cumsum(window)
            fits = (waste <= _EM_CHUNK_WASTE) & (work <= _EM_CHUNK_TERMS)
            part = order[lo : lo + max(1, int(np.count_nonzero(fits)))]
            calls.append((part, _em_cutoff(float(size[part[-1]]), 1.0)))
            lo += part.size
    else:  # one cost, so no waste: calls of _EM_CHUNK_TERMS // n points in order
        n = _em_cutoff(0.0, 1.0)
        step = _EM_CHUNK_TERMS // n
        calls = [(slice(lo, lo + step), n) for lo in range(0, s.size, step)]
    if len(calls) == 1:  # each point's bits are its own, so no reordering
        return _hurwitz_em(s, 1.0, calls[0][1], want_derivative)
    value, est, floor = np.empty_like(s), np.empty(s.size), np.empty(s.size)
    deriv = np.empty_like(s) if want_derivative else None
    for part, n in calls:
        value[part], d, est[part], floor[part] = _hurwitz_em(s[part], 1.0, n, want_derivative)
        if want_derivative:
            deriv[part] = d
    return value, deriv, est, floor


def _zeta_em_many(s: np.ndarray, want_derivative: bool = False):
    """zeta (and optionally zeta') on an array of s with Re s >= -1/2, in the
    arithmetic of its dtype as in ``_hurwitz_em``, from the calls of
    ``_zeta_em_batched`` under the gate ``_check_est``: float64 in, float64
    out; exactly 1 (and 0) from Re s = _UNIT_RE_S on, where the sum reads so
    and its terms would leave the float range on the way."""
    s = np.asarray(s, dtype=np.complex128 if np.iscomplexobj(s) else np.float64)
    if np.any(s == 1.0):
        raise PoleError("zeta has a pole at s = 1")
    far = s.real >= _UNIT_RE_S
    if far.any():
        value, deriv = np.ones_like(s), np.zeros_like(s)
        if not far.all():
            near = _zeta_em_many(s[~far], want_derivative)
            value[~far], deriv[~far] = near if want_derivative else (near, 0.0)
        return (value, deriv) if want_derivative else value
    value, deriv, est, floor = _zeta_em_batched(s, want_derivative)
    _check_est(est, floor, "zeta")
    return (value, deriv) if want_derivative else value


# ----------------------------------------------------------------------
# log-gamma / digamma
# ----------------------------------------------------------------------

def _gamma_family(z, dtype, what: str, closed: bool, right, reflect) -> np.ndarray:
    """``right`` on z with Re z > 0 (>= 0 unless ``closed``), ``reflect(z,
    right(1 - z))`` on the rest; DomainError for non-finite z, PoleError at
    0, -1, -2, ... and AccuracyError for a non-finite result."""
    z = np.asarray(z, dtype=dtype)
    if not np.isfinite(z).all():
        raise DomainError(f"{what} requires finite arguments")
    pole = (z.imag == 0.0) & (z.real <= 0.0) & (z.real == np.floor(z.real))
    if pole.any():
        raise PoleError(f"{what} pole at z = {z.real[pole][0]:.0f}")
    left = z.real <= 0.0 if closed else z.real < 0.0
    with np.errstate(all="ignore"):
        out = right(np.where(left, 1.0 - z, z))
        if left.any():
            out[left] = reflect(z[left], out[left])
    if not np.isfinite(out).all():
        raise AccuracyError(f"{what} exceeds the float range")
    return out


def _log_sin_pi(z: np.ndarray) -> np.ndarray:
    """Principal log(sin(pi z)) for |Im z| <= 1; else the log of each factor
    of (i/2) e^(-i pi z) (1 - e^(2 i pi z)), which cannot overflow (conjugated
    for Im z < -1).  The periodic parts take the exact r = z - round(Re z)."""
    n = np.round(z.real)
    flip = z.imag < -1.0
    z, r = (np.where(flip, a.conjugate(), a) for a in (z, z - n))
    far = -1j * math.pi * z + np.log(1.0 - np.exp(2j * math.pi * r)) + cmath.log(0.5j)
    near = np.log(np.sin(math.pi * r) * (1.0 - 2.0 * (n % 2.0)))
    out = np.where(z.imag > 1.0, far, near)
    return np.where(flip, out.conjugate(), out)


def _log_gamma_right(z: np.ndarray) -> np.ndarray:
    """Stirling series at w = z + k less sum_{j<k} log(z + j), k the fewest
    unit steps to Re w >= 10 and |w| >= 12; steps all elements take are unmasked."""
    reach = np.sqrt(np.maximum(144.0 - z.imag**2, 0.0))
    k = np.ceil(np.maximum(np.maximum(reach, 10.0) - z.real, 0.0))
    acc = np.zeros_like(z)
    for j in range(int(k.max(initial=0))):
        step = np.log(z + j)
        acc += step if j < k.min() else np.where(k > j, step, 0.0)
    w = z + k
    out = (w - 0.5) * np.log(w) - w + 0.5 * _LOG_2PI
    zinv2 = 1.0 / (w * w)
    term = 1.0 / w
    for c in _STIRLING:
        out += c * term
        term = term * zinv2
    return out - acc


def _log_gamma_many(z) -> np.ndarray:
    """log Gamma elementwise: the standard branch for Re z > 0 (exp gives
    Gamma, and Im is continuous there), log pi - log sin(pi z) - log Gamma(1-z)
    for Re z <= 0, where Im is determined only mod 2 pi."""
    return _gamma_family(z, np.complex128, "log_gamma", True, _log_gamma_right,
                         lambda zl, g: _LOG_PI - _log_sin_pi(zl) - g)


def log_gamma(s: complex) -> complex:
    """log Gamma(s), on the branch of ``_log_gamma_many``."""
    return complex(_log_gamma_many([s])[0])


def _digamma_right(x: np.ndarray) -> np.ndarray:
    """Upward recurrence by 8 steps, then the asymptotic series
    ln y - 1/(2y) - sum B_{2n} / (2n y^{2n}) at y = x + 8."""
    acc = np.zeros_like(x)
    for j in range(8):
        acc -= 1.0 / (x + j)
    y = x + 8.0
    out = np.log(y) - 0.5 / y
    yinv2 = 1.0 / (y * y)
    term = yinv2.copy()
    for c in _DIGAMMA_TAIL:
        out -= c * term
        term *= yinv2
    return out + acc


def _digamma_many(z) -> np.ndarray:
    """psi = (ln Gamma)' elementwise, real for a real array;
    psi(1 - z) - pi / tan(pi z) for Re z < 0."""
    dtype = np.complex128 if np.iscomplexobj(z) else np.float64
    return _gamma_family(z, dtype, "digamma", False, _digamma_right,
                         lambda zl, g: g - math.pi / np.tan(math.pi * (zl - np.round(zl.real))))


def digamma(x: float) -> float:
    """psi(x) for real x > 0."""
    if not x > 0.0:
        raise DomainError("digamma requires x > 0")
    return float(_digamma_many([x])[0])


# ----------------------------------------------------------------------
# Riemann zeta and friends
# ----------------------------------------------------------------------

# the scalar zeta family reflects left of Re s = -1/2 only: next to s = 0 it
# would take zeta(1 - s) at a rounded 1 - s, and Euler-Maclaurin keeps its target
_REFLECT_BELOW = -0.5


def _is_trivial_zero(s: complex) -> bool:
    return s.imag == 0.0 and s.real < 0.0 and s.real == 2.0 * round(s.real / 2.0)


def _reflect(s: complex, factor: complex) -> complex:
    """chi(s) * factor, for zeta(s) = chi(s) zeta(1-s) at Re s < -1/2, or
    chi'(s) * factor at a trivial zero, where chi vanishes linearly.
    AccuracyError where the product leaves the float range."""
    try:
        if _is_trivial_zero(s):
            n = round(-s.real / 2.0)
            lg = _log_gamma_many([n + 1.0, n + 0.5]).real
            chi = (-1.0) ** n * 0.5 * math.exp(lg[0] + lg[1] - (2 * n + 0.5) * _LOG_PI)
        else:
            lg = _log_gamma_many([(1.0 - s) / 2.0, s / 2.0])
            chi = cmath.exp((s - 0.5) * _LOG_PI + lg[0] - lg[1])
    except OverflowError:
        chi = math.inf
    value = complex(chi) * factor
    if not cmath.isfinite(value):
        raise AccuracyError(f"zeta reflection at s = {s} exceeds the float range")
    return value


def _chi_log_slope(s: complex) -> complex:
    """chi'(s)/chi(s) = ln pi - (psi((1-s)/2) + psi(s/2))/2."""
    psi = _digamma_many([(1.0 - s) / 2.0, s / 2.0])
    return complex(_LOG_PI - 0.5 * psi[0] - 0.5 * psi[1])


def _finite_arg(s: complex, what: str) -> complex:
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError(f"{what} requires a finite argument")
    return s


def _em_point(s: complex) -> np.ndarray:
    """s as a one-element kernel array: float64 where s is real, so the
    scalar functions take the real-axis kernels' arithmetic and bits."""
    return np.array([s.real if s.imag == 0.0 else s])


def zeta(s: complex) -> complex:
    """Riemann zeta by Euler-Maclaurin summation; reflection for Re s < -1/2."""
    s = _finite_arg(s, "zeta")
    if s == 1.0:
        raise PoleError("zeta has a pole at s = 1")
    if s.real < _REFLECT_BELOW:
        if _is_trivial_zero(s):
            return 0.0 + 0.0j
        return _reflect(s, zeta(1.0 - s))
    return complex(_zeta_em_many(_em_point(s))[0])


def zeta_derivative(s: complex) -> complex:
    """zeta'(s) by termwise differentiation of the same Euler-Maclaurin
    formula; the Re s < -1/2 branch differentiates the reflection formula."""
    s = _finite_arg(s, "zeta'")
    if s == 1.0:
        raise PoleError("zeta' has a pole at s = 1")
    if _is_trivial_zero(s):
        return _reflect(s, zeta(1.0 - s))
    if s.real < _REFLECT_BELOW:
        z1, d1 = zeta(1.0 - s), zeta_derivative(1.0 - s)
        return _reflect(s, _chi_log_slope(s) * z1 - d1)
    _, d = _zeta_em_many(_em_point(s), want_derivative=True)
    return complex(d[0])


def _principal_log(w: complex) -> complex:
    """Principal log with the real-negative-axis convention Im = +pi."""
    if w == 0.0:
        raise PoleError("log of zero")
    if w.imag == 0.0:
        return complex(math.log(abs(w.real)), 0.0 if w.real > 0.0 else math.pi)
    return cmath.log(w)


def log_zeta_principal(s: complex) -> complex:
    """Principal-branch log of zeta(s): Im in (-pi, pi], and exactly +pi on
    the real segment 0 < s < 1 where zeta is negative."""
    return _principal_log(zeta(s))


def zeta_log_derivative(s: complex) -> complex:
    """zeta'(s)/zeta(s); simple pole with residue -1 at s = 1."""
    s = _finite_arg(s, "zeta'/zeta")
    if s == 1.0:
        raise PoleError("zeta'/zeta has a pole at s = 1")
    if s.real < _REFLECT_BELOW:
        # log-derivative of the reflection: chi, possibly huge, cancels unformed
        return _chi_log_slope(s) - zeta_log_derivative(1.0 - s)
    z, d = _zeta_em_many(_em_point(s), want_derivative=True)
    zv = complex(z[0])
    if zv == 0.0:
        raise PoleError("zeta'/zeta evaluated at a zero of zeta")
    return complex(d[0]) / zv


def _zeta_log_derivative_real_many(s: np.ndarray) -> np.ndarray:
    """(zeta'/zeta)(s) for an array of real s > 0 (quadrature fast path)."""
    s = np.asarray(s, dtype=np.float64)
    if np.any(s <= 0.0) or np.any(s == 1.0):
        raise DomainError("fast path requires real s > 0, s != 1")
    z, d = _zeta_em_many(s, want_derivative=True)
    return d / z


def _log_regular_zeta_real_many(s: np.ndarray) -> np.ndarray:
    """L(s) = ln((s-1) zeta(s)) for an array of real s >= 0 (quadrature fast
    path).  (s-1) zeta(s) is positive and analytic there, so L is smooth
    through the pole, where it is exactly 0.0; ln |zeta| = L - ln |s-1|."""
    s = np.asarray(s, dtype=np.float64)
    if not (np.isfinite(s) & (s >= 0.0)).all():
        raise DomainError("L(s) requires finite real s >= 0")
    out = np.zeros_like(s)
    off = s != 1.0
    if off.any():
        sv = s[off]
        out[off] = np.log((sv - 1.0) * _zeta_em_many(sv))
    return out


# ----------------------------------------------------------------------
# Hurwitz zeta
# ----------------------------------------------------------------------

def hurwitz_zeta(z: complex, q: float) -> complex:
    """Hurwitz zeta(z, q) for q > 0 by the same Euler-Maclaurin scheme;
    reduces to the Riemann zeta at q = 1.

    Supported for Re z > -6: further left the continuation emerges from the
    cancellation of (q+N)^|z|-sized pieces and double precision cannot hold
    a meaningful absolute error.

    Far right it is q^-z: zeta(z, q) = q^-z (1 + S) with
    S = sum_{n>=1} (q/(q+n))^z.  With x = Re z >= 2 and r = q/(q+1), the
    terms n >= 2 are below the integral of (q/(q+u))^x over u >= 1, so
    |S| <= r^x (1 + (q+1)/(x-1)) <= r^x (q+2), which is under the unit
    roundoff 2^-53 once x ln(1 + 1/q) >= 53 ln 2 + ln(q+2) (x >= 54.6 at
    q = 1, 94.0 at q = 2).  From there on q^-z is returned: exactly 1 at
    q = 1, 0 where it underflows, and AccuracyError where it overflows
    (q < 1)."""
    z = complex(z)
    if z == 1.0:
        raise PoleError("hurwitz_zeta has a pole at z = 1")
    if not (q > 0.0 and math.isfinite(q) and cmath.isfinite(z)):
        raise DomainError("hurwitz_zeta requires finite z and finite q > 0")
    if z.real <= -6.0:
        raise DomainError("hurwitz_zeta supported for Re z > -6 only")
    if z.real >= max(2.0, (53.0 * math.log(2.0) + math.log(q + 2.0)) / math.log1p(1.0 / q)):
        try:
            size = math.pow(q, -z.real)  # not exp(-x ln q), which rounds x ln q
        except OverflowError:
            raise AccuracyError("hurwitz_zeta exceeds the float range") from None
        phase = -z.imag * math.log(q)
        return complex(size * math.cos(phase), size * math.sin(phase))
    n = _em_cutoff(abs(z.imag), q)
    with np.errstate(all="ignore"):
        val, _, est, floor = _hurwitz_em(np.array([z]), q, n, want_derivative=False)
    if not cmath.isfinite(val[0]):
        raise AccuracyError("hurwitz_zeta exceeds the float range")
    _check_est(est, floor, "hurwitz_zeta")
    return complex(val[0])


def hurwitz_finite_part(q: float) -> float:
    """The regular part of zeta(z, q) at the z = 1 pole:
    lim_{z->1} (zeta(z,q) - 1/(z-1)) = -psi(q)."""
    if not q > 0.0:
        raise DomainError("hurwitz_finite_part requires q > 0")
    return -digamma(q)


# ----------------------------------------------------------------------
# Exponential integral
# ----------------------------------------------------------------------

# h(z) = z e^z E1(z) - 1 by branch, with s = |z| + Re z: the power series
# where s <= 2, as its rounding grows like e^s; the backward continued
# fraction elsewhere to |z| = 50; the asymptotic series beyond
_E1_SERIES_EDGE = 2.0
_E1_ASYMPTOTIC_EDGE = 50.0
_E1_SERIES_COEF = tuple(1.0 / (k * math.factorial(k)) for k in range(1, 161))
# Step counts, closed forms in r = |z| and s = |z| + Re z.  Series: the fewest
# K with r^(K+1)/(K+1)! <= 1e-17 to r = 6.2 (K = 40); beyond, where e^r
# dominates the terms, the fewest K with r^(K+1)/(K+1)! <= 1e-17 e^r/r^2
# (129 terms at r = 50).  Fraction: its truncation error falls about like
# exp(-sqrt(8 n s)) with the depth n, so ceil(170/s) + 8 leaves it below
# e^-38 (g within 6e-16 of mpmath next to s = 2).  Asymptotic: the fewest
# K >= 2 whose first omitted term, (K+1)!/r^(K+1), is at most 1e-15/r^2, a
# hundredth of the scale of Re h next to the imaginary axis.  The reaches are
# the r up to which K = 1..40 series terms (K = 1..160 past r = 6.2), and from
# which K = 29..2 asymptotic terms, suffice.
_E1_SERIES_REACH = np.array(
    [math.exp((math.lgamma(k + 2.0) - 17.0 * math.log(10.0)) / (k + 1)) for k in range(1, 41)]
)


def _e1_series_far_reach() -> np.ndarray:
    """Past r = 6.2, the smallest roots of (K + 3) ln r - r = ln (K+1)! - 17 ln 10,
    from below by r <- e^((c + r)/(K + 3)), which contracts by r/(K + 3) <= 0.43."""
    k = np.arange(1.0, 161.0)
    c = np.array([math.lgamma(j + 2.0) for j in k.tolist()]) - 17.0 * math.log(10.0)
    r = np.zeros_like(k)
    for _ in range(40):
        r = np.exp((c + r) / (k + 3.0))
    return r


_E1_SERIES_FAR_REACH = _e1_series_far_reach()
_E1_ASYMPTOTIC_REACH = np.array(
    [math.exp((math.lgamma(k + 2.0) + 15.0 * math.log(10.0)) / (k - 1)) for k in range(29, 1, -1)]
)
_E1_STEPS = (
    lambda r, s: 1 + np.where(r <= _E1_SERIES_REACH[-1], _E1_SERIES_REACH.searchsorted(r),
                              _E1_SERIES_FAR_REACH.searchsorted(r)),
    lambda r, s: np.ceil(170.0 / s) + 8,
    lambda r, s: 30 - _E1_ASYMPTOTIC_REACH.searchsorted(r, side="right"),
)


def _prefixes(count: np.ndarray) -> list:
    """For a non-increasing count, entry k is the length of the prefix whose
    count is at least k, k = 0 .. count[0]: the elements step k runs on."""
    return (-count).searchsorted(-np.arange(count[0] + 1), side="right").tolist()


def _h_series(z: np.ndarray, terms: np.ndarray):
    """g = z e^z (-gamma_E - ln z - sum_{k <= K} (-z)^k/(k k!)) and h = g - 1,
    the sum in Horner form from each element's own K."""
    m = _prefixes(terms)
    p, mz = np.zeros(z.size, complex), -z
    for k in range(len(m) - 1, 0, -1):
        p[: m[k]] = (p[: m[k]] + _E1_SERIES_COEF[k - 1]) * mz[: m[k]]
    g = z * np.exp(z) * (-EULER_GAMMA - np.log(z) - p)
    return g - 1.0, g


def _h_fraction(z: np.ndarray, depth: np.ndarray):
    """e^z E1(z) = 1/t_0 with t_j = z + 2j + 1 - (j + 1)^2/t_(j+1), run back
    from each element's own t_n = z + 2n + 1 (the even part of A&S 5.1.22);
    g = z/t_0 and h = (1/t_1 - 1)/t_0, as t_0 = z + 1 - 1/t_1."""
    m = _prefixes(depth)
    t = z + (2.0 * depth + 1.0)
    for k in range(len(m) - 1, 1, -1):  # t_(k-1) from t_k, in place
        live = t[: m[k]]
        np.divide(k * k, live, out=live)
        np.subtract(z[: m[k]] + (2 * k - 1), live, out=live)
    r = 1.0 / t
    t0 = z + 1.0 - r
    return (r - 1.0) / t0, z / t0


def _h_asymptotic(z: np.ndarray, terms: np.ndarray):
    """h ~ sum_{k=1}^{K} (-1)^k k!/z^k, adding real parts term by term: Re h
    stays accurate where it is far below |h|; g = 1 + h."""
    m = _prefixes(terms)
    mw = -1.0 / z
    term, total = np.ones(z.size, complex), np.zeros(z.size, complex)
    for k in range(1, len(m)):
        live = term[: m[k]]
        np.multiply(live, k * mw[: m[k]], out=live)
        total[: m[k]] += live
    return total, total + 1.0


def _z_exp_e1(z) -> tuple[np.ndarray, np.ndarray]:
    """(h, g) elementwise, g(z) = z e^z E1(z) and h = g - 1, for finite
    complex z != 0; the negative real axis is taken on its upper side,
    where E1(-x + i0) = -Ei(x) - i pi.  No branch adds or subtracts 1 from a
    value near -+1 (h ~ -1/z for large |z|, g ~ -z ln z for small), so h
    and g each keep their relative accuracy.

    Each branch's step count is a closed form in |z| and s = |z| + Re z;
    the branch sorts its elements by it and runs step k on the prefix that
    still needs it.  So no loop waits on convergence, a call costs what its
    inputs fix, and a value alone equals the same value in a batch."""
    # adding +0j turns a -0 imaginary part into +0: the upper side of the cut
    z = np.asarray(z, dtype=np.complex128) + 0j
    if not (np.isfinite(z) & (z != 0.0)).all():
        raise DomainError("z e^z E1(z) needs finite z != 0")
    r = np.abs(z)
    s = r + z.real
    far = r > _E1_ASYMPTOTIC_EDGE
    near = ~far & (s <= _E1_SERIES_EDGE)
    h, g = np.empty_like(z), np.empty_like(z)
    branches = (_h_series, _h_fraction, _h_asymptotic)
    for branch, where, count in zip(branches, (near, ~far & ~near, far), _E1_STEPS):
        i = where.nonzero()[0]
        if i.size:
            n = count(r[i], s[i]).astype(np.intp)
            order = (-n).argsort(kind="stable")
            i, n = i[order], n[order]
            h[i], g[i] = branch(z[i], n)
    return h, g


def _exp_neg_ei(x, scale=1.0, g=None) -> np.ndarray:
    """scale * e^(-x) Ei(x) for a 1-d array of real x, as scale * Re g(-x + i0)/x,
    with no exponential formed; g, when given, holds those g(-x) from a
    larger batch.  x must be finite with |x| >= 2.2e-308: for a subnormal
    x, g ~ x ln|x| keeps too few bits."""
    x = np.asarray(x, dtype=np.float64)
    if not (np.abs(x) >= np.finfo(np.float64).tiny).all():
        raise DomainError("Ei needs finite x with |x| >= 2.2e-308")
    if g is None:
        g = _z_exp_e1(-x)[1]
    return scale * (g.real / x)


def exp_integral_ei(x: float) -> float:
    """Exponential integral Ei(x) for real x != 0, as e^(x/2) (e^(-x) Ei(x))
    e^(x/2), which is finite while Ei(x) is.  Within 1e-13 relative for
    |x| <= 716, except next to Ei's zero 0.3725..., where the error is that
    of moving x by a few ulps.  AccuracyError where Ei(x) leaves the float
    range (x above ~716.4)."""
    if not math.isfinite(x):
        raise DomainError("Ei requires a finite argument")
    if x == 0.0:
        raise PoleError("Ei is singular at x = 0")
    try:
        half = math.exp(0.5 * x)
    except OverflowError:
        half = math.inf
    value = half * float(_exp_neg_ei([x])[0]) * half
    if math.isinf(value):
        raise AccuracyError(f"Ei({x!r}) exceeds the float range")
    return value
