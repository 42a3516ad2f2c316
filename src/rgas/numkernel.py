"""Special-function kernels: Riemann and Hurwitz zeta, digamma, log-gamma, Ei.

Everything here is self-contained double-precision numerics built on
Euler-Maclaurin summation (zeta family), Stirling series (gamma family),
and power/asymptotic series (exponential integral).  All functions are pure
and reentrant.

Conventions:
  * complex arguments and results use the builtin ``complex`` type;
  * the zeta kernels accept scalars or 1-d numpy arrays (private ``*_many``
    helpers) so that quadrature nodes and zero-search grids can be evaluated
    in one vectorized pass.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError, PoleError

__all__ = [
    "EvalOptions",
    "DEFAULT_OPTIONS",
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

# Stirling tail coefficients B_{2n} / (2n (2n-1)) for log-gamma.
_STIRLING = tuple(_B2K[n - 1] / (2 * n * (2 * n - 1)) for n in range(1, _EM_ORDER + 1))

_LOG_2PI = math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)


@dataclass(frozen=True)
class EvalOptions:
    """Accuracy request for the zeta-family kernels.

    ``target_abs_error`` is the absolute error the Euler-Maclaurin tail
    estimate must reach; ``max_terms`` caps the truncated Dirichlet sum.
    """

    target_abs_error: float = 1e-12
    max_terms: int = 200_000

    def __post_init__(self) -> None:
        if not self.target_abs_error >= 1e-14:
            raise DomainError("target_abs_error must be >= 1e-14")
        if self.max_terms < 16:
            raise DomainError("max_terms must be >= 16")


DEFAULT_OPTIONS = EvalOptions()


# ----------------------------------------------------------------------
# Euler-Maclaurin core
# ----------------------------------------------------------------------

def _em_cutoff(im_max: float, base: float, opts: EvalOptions, re_min: float = 0.0) -> int:
    """Dirichlet-sum cutoff N = max(ceil(|Im s|/2) + 10, 20), shifted so the
    expansion point base + N is never below ~20; for Re s < 0 the expansion
    point additionally clears the rising-factorial growth of the correction
    terms."""
    n = max(int(math.ceil(im_max / 2.0)) + 10, 20)
    if base < 20.0:
        n = max(n, int(math.ceil(22.0 - base)))
    if n > opts.max_terms:
        raise AccuracyError(
            f"Euler-Maclaurin cutoff {n} exceeds max_terms={opts.max_terms}"
        )
    return n


def _hurwitz_em(s: np.ndarray, a: float, n_terms: int, want_derivative: bool):
    """Euler-Maclaurin evaluation of zeta(s, a) for an array of complex s.

    Returns ``(value, derivative, estimate, floor)``; ``derivative`` is None
    unless ``want_derivative``.  ``estimate`` bounds the error: the first
    omitted correction term times the standard |s+2J+1| / (Re s + 2J+1)
    factor, plus ``floor``, the rounding floor of the summed pieces.

    The estimate only gates accuracy (``_check_est``, the zero finder's
    chunk check), so its rising product of |s+j| is one vectorized reduction
    whose last bits may differ from a step-by-step product; ``value`` and
    ``derivative`` keep a fixed order of operations.
    """
    s = np.asarray(s, dtype=np.complex128)
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
                    dp = dp * sj + p
                p = p * sj
        w_pow = w_pow * inv_w2
        coef = _B_OVER_FACT[k - 1]
        value = value + coef * p * w_pow
        if want_derivative:
            dvalue = dvalue + coef * (dp - p * ln_w) * w_pow

    # error estimate: the k = J+1 correction term, plus a summation-rounding
    # floor proportional to the absolute mass of the evaluated pieces; the
    # rising-product factors |s+j|, j = 0..2J, are clamped away from zero so
    # an exact hit on a negative integer cannot silence the estimate
    shifted = np.hypot(sf.real[:, None] + _RISING_SHIFTS, sf.imag[:, None])
    rising = np.prod(np.maximum(shifted, 1.0), axis=1)
    w_pow = w_pow * inv_w2
    re_s = sf.real
    denom = re_s + 2 * _EM_ORDER + 1
    factor = np.abs(sf + (2 * _EM_ORDER + 1)) / np.where(denom > 0.5, denom, 0.5)
    est = abs(_B_OVER_FACT[_EM_ORDER]) * rising * np.abs(w_pow) * np.maximum(factor, 1.0)
    abs_mass = np.abs(powers).sum(axis=1) + np.abs(pole) + 0.5 * np.abs(w_ms)
    floor = 8.0 * np.finfo(float).eps * abs_mass

    if want_derivative:
        # the derivative's omitted term carries an extra ln(w)-size factor
        return (
            value.reshape(shape),
            dvalue.reshape(shape),
            (est * (ln_w + 1.0) + floor).reshape(shape),
            (floor * (ln_w + 1.0)).reshape(shape),
        )
    return value.reshape(shape), None, (est + floor).reshape(shape), floor.reshape(shape)


def _check_est(est, floor, opts: EvalOptions, what: str) -> None:
    # the gate fires on the truncation part only: the rounding floor is the
    # attainable accuracy at the operand scale and cannot be refined away by
    # adding terms (it matters near the pole and at the trivial zeros)
    threshold = np.maximum(opts.target_abs_error, 2.0 * floor)
    if np.any(est > threshold):
        worst = float(np.max(est))
        raise AccuracyError(
            f"{what}: truncation estimate {worst:.3e} exceeds target "
            f"{opts.target_abs_error:.3e}; raise max_terms or the target"
        )


def _zeta_em_many(s: np.ndarray, opts: EvalOptions, want_derivative: bool = False):
    """zeta (and optionally zeta') on an array of complex s with Re s >= 0."""
    s = np.asarray(s, dtype=np.complex128)
    if np.any(s == 1.0):
        raise PoleError("zeta has a pole at s = 1")
    im_max = float(np.max(np.abs(s.imag))) if s.size else 0.0
    n = _em_cutoff(im_max, 1.0, opts)
    value, deriv, est, floor = _hurwitz_em(s, 1.0, n, want_derivative)
    _check_est(est, floor, opts, "zeta")
    return (value, deriv) if want_derivative else value


# ----------------------------------------------------------------------
# log-gamma / digamma
# ----------------------------------------------------------------------

def _log_sin_pi(z: complex) -> complex:
    """log(sin(pi z)), overflow-safe for large |Im z| (branch not tracked)."""
    if abs(z.imag) <= 1.0:
        return cmath.log(cmath.sin(math.pi * z))
    if z.imag > 0:
        # sin(pi z) = (i/2) exp(-i pi z) (1 - exp(2 i pi z))
        return (
            -1j * math.pi * z
            + cmath.log(1.0 - cmath.exp(2j * math.pi * z))
            + cmath.log(0.5j)
        )
    return _log_sin_pi(z.conjugate()).conjugate()


def _log_gamma_stirling(z: complex) -> complex:
    """Stirling series; caller guarantees Re z > 0 and |z| large enough."""
    lz = cmath.log(z)
    out = (z - 0.5) * lz - z + 0.5 * _LOG_2PI
    zinv2 = 1.0 / (z * z)
    term = 1.0 / z
    for c in _STIRLING:
        out += c * term
        term *= zinv2
    return out


def log_gamma(s: complex) -> complex:
    """log Gamma(s), analytic for Re s > 0 (standard branch, so that
    exp(log_gamma(s)) = Gamma(s) and the imaginary part is continuous in the
    right half-plane).  For Re s <= 0 the reflection formula is used and the
    imaginary part is only determined mod 2*pi."""
    s = complex(s)
    if s.imag == 0.0 and s.real <= 0.0 and s.real == int(s.real):
        raise PoleError(f"log_gamma pole at s = {s.real:.0f}")
    if s.real <= 0.0:
        return _LOG_PI - _log_sin_pi(s) - log_gamma(1.0 - s)
    w = s
    shift = 0.0 + 0.0j
    while w.real < 10.0 or abs(w) < 12.0:
        shift += cmath.log(w)
        w += 1.0
    return _log_gamma_stirling(w) - shift


def _log_gamma_many(z: np.ndarray, shifts: int = 12) -> np.ndarray:
    """Vectorized log-gamma for arrays with 0 < Re z <= 10 (uniform shift)."""
    z = np.asarray(z, dtype=np.complex128)
    acc = np.zeros_like(z)
    for j in range(shifts):
        acc += np.log(z + j)
    w = z + shifts
    lw = np.log(w)
    out = (w - 0.5) * lw - w + 0.5 * _LOG_2PI
    zinv2 = 1.0 / (w * w)
    term = 1.0 / w
    for c in _STIRLING:
        out += c * term
        term = term * zinv2
    return out - acc


_DIGAMMA_TAIL = tuple(_B2K[n - 1] / (2 * n) for n in range(1, 9))


def digamma(x: float) -> float:
    """psi(x) = d/dx ln Gamma(x) for real x > 0.

    Upward recurrence to x >= 8, then the asymptotic series
    ln x - 1/(2x) - sum B_{2n} / (2n x^{2n})."""
    if not x > 0.0:
        raise DomainError("digamma requires x > 0")
    acc = 0.0
    while x < 8.0:
        acc -= 1.0 / x
        x += 1.0
    out = math.log(x) - 0.5 / x
    xinv2 = 1.0 / (x * x)
    term = xinv2
    for c in _DIGAMMA_TAIL:
        out -= c * term
        term *= xinv2
    return out + acc


def _digamma_many(x: np.ndarray) -> np.ndarray:
    """Vectorized digamma for arrays of positive reals (uniform 8-shift)."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= 0.0):
        raise DomainError("digamma requires x > 0")
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


def _digamma_complex(z: complex) -> complex:
    """psi(z) for complex z (meromorphic; reflection for Re z < 0.5)."""
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
        raise PoleError(f"digamma pole at z = {z.real:.0f}")
    if z.real < 0.5:
        return _digamma_complex(1.0 - z) - math.pi / cmath.tan(math.pi * z)
    acc = 0.0 + 0.0j
    while z.real < 8.0:
        acc -= 1.0 / z
        z += 1.0
    out = cmath.log(z) - 0.5 / z
    zinv2 = 1.0 / (z * z)
    term = zinv2
    for c in _DIGAMMA_TAIL:
        out -= c * term
        term *= zinv2
    return out + acc


# ----------------------------------------------------------------------
# Riemann zeta and friends
# ----------------------------------------------------------------------

def _chi(s: complex) -> complex:
    """Reflection factor: zeta(s) = chi(s) zeta(1-s)."""
    return cmath.exp(
        (s - 0.5) * _LOG_PI + log_gamma((1.0 - s) / 2.0) - log_gamma(s / 2.0)
    )


def _is_trivial_zero(s: complex) -> bool:
    return s.imag == 0.0 and s.real < 0.0 and s.real == 2.0 * round(s.real / 2.0)


def zeta(s: complex, opts: EvalOptions = DEFAULT_OPTIONS) -> complex:
    """Riemann zeta by Euler-Maclaurin summation; reflection for Re s < 0."""
    s = complex(s)
    if s == 1.0:
        raise PoleError("zeta has a pole at s = 1")
    if s.real < 0.0:
        if _is_trivial_zero(s):
            return 0.0 + 0.0j
        return _chi(s) * zeta(1.0 - s, opts)
    return complex(_zeta_em_many(np.array([s]), opts)[0])


def zeta_derivative(s: complex, opts: EvalOptions = DEFAULT_OPTIONS) -> complex:
    """zeta'(s) by termwise differentiation of the same Euler-Maclaurin
    formula; the Re s < 0 branch differentiates the reflection formula."""
    s = complex(s)
    if s == 1.0:
        raise PoleError("zeta' has a pole at s = 1")
    if s.real < 0.0:
        if _is_trivial_zero(s):
            # chi vanishes linearly at s = -2n; only chi' survives
            n = round(-s.real / 2.0)
            chi_slope = (
                (-1.0) ** n
                * 0.5
                * math.exp(
                    math.lgamma(n + 1)
                    + log_gamma(n + 0.5).real
                    - (2 * n + 0.5) * _LOG_PI
                )
            )
            return complex(chi_slope) * zeta(complex(1 + 2 * n), opts)
        z1 = zeta(1.0 - s, opts)
        d1 = zeta_derivative(1.0 - s, opts)
        chi = _chi(s)
        logslope = (
            _LOG_PI
            - 0.5 * _digamma_complex((1.0 - s) / 2.0)
            - 0.5 * _digamma_complex(s / 2.0)
        )
        return chi * (logslope * z1 - d1)
    _, d = _zeta_em_many(np.array([s]), opts, want_derivative=True)
    return complex(d[0])


def _principal_log(w: complex) -> complex:
    """Principal log with the real-negative-axis convention Im = +pi."""
    if w == 0.0:
        raise PoleError("log of zero")
    if w.imag == 0.0:
        if w.real > 0.0:
            return complex(math.log(w.real), 0.0)
        return complex(math.log(-w.real), math.pi)
    return cmath.log(w)


def log_zeta_principal(s: complex, opts: EvalOptions = DEFAULT_OPTIONS) -> complex:
    """Principal-branch log of zeta(s): Im in (-pi, pi], and exactly +pi on
    the real segment 0 < s < 1 where zeta is negative."""
    return _principal_log(zeta(s, opts))


def zeta_log_derivative(s: complex, opts: EvalOptions = DEFAULT_OPTIONS) -> complex:
    """zeta'(s)/zeta(s); simple pole with residue -1 at s = 1."""
    s = complex(s)
    if s == 1.0:
        raise PoleError("zeta'/zeta has a pole at s = 1")
    if s.real < 0.0:
        # logarithmic derivative of the reflection formula; avoids the huge
        # cancellation of chi against itself
        logslope = (
            _LOG_PI
            - 0.5 * _digamma_complex((1.0 - s) / 2.0)
            - 0.5 * _digamma_complex(s / 2.0)
        )
        return logslope - zeta_log_derivative(1.0 - s, opts)
    z, d = _zeta_em_many(np.array([s]), opts, want_derivative=True)
    zv = complex(z[0])
    if zv == 0.0:
        raise PoleError("zeta'/zeta evaluated at a zero of zeta")
    return complex(d[0]) / zv


def _zeta_log_derivative_real_many(s: np.ndarray, opts: EvalOptions = DEFAULT_OPTIONS) -> np.ndarray:
    """(zeta'/zeta)(s) for an array of real s > 0 (quadrature fast path)."""
    s = np.asarray(s, dtype=np.float64)
    if np.any(s <= 0.0) or np.any(s == 1.0):
        raise DomainError("fast path requires real s > 0, s != 1")
    z, d = _zeta_em_many(s.astype(np.complex128), opts, want_derivative=True)
    return d.real / z.real


def _log_abs_zeta_real_many(s: np.ndarray, opts: EvalOptions = DEFAULT_OPTIONS) -> np.ndarray:
    """ln |zeta(s)| for an array of real s > 0 (quadrature fast path)."""
    s = np.asarray(s, dtype=np.float64)
    z = _zeta_em_many(s.astype(np.complex128), opts)
    return np.log(np.abs(z.real))


# ----------------------------------------------------------------------
# Hurwitz zeta
# ----------------------------------------------------------------------

def hurwitz_zeta(z: complex, q: float, opts: EvalOptions = DEFAULT_OPTIONS) -> complex:
    """Hurwitz zeta(z, q) for q > 0 by the same Euler-Maclaurin scheme;
    reduces to the Riemann zeta at q = 1.

    Supported for Re z > -6: further left the continuation emerges from the
    cancellation of (q+N)^|z|-sized pieces and double precision cannot hold
    a meaningful absolute error."""
    z = complex(z)
    if z == 1.0:
        raise PoleError("hurwitz_zeta has a pole at z = 1")
    if not q > 0.0:
        raise DomainError("hurwitz_zeta requires q > 0")
    if z.real <= -6.0:
        raise DomainError("hurwitz_zeta supported for Re z > -6 only")
    n = _em_cutoff(abs(z.imag), q, opts)
    val, _, est, floor = _hurwitz_em(np.array([z]), q, n, want_derivative=False)
    _check_est(est, floor, opts, "hurwitz_zeta")
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

_EI_CROSSOVER = 32.0


def exp_integral_ei(x: float) -> float:
    """Exponential integral Ei(x) for real x != 0.

    Power series gamma + ln|x| + sum x^k / (k k!) for |x| <= 32, optimally
    truncated asymptotic expansion exp(x)/x * sum k!/x^k beyond."""
    if x == 0.0:
        raise PoleError("Ei is singular at x = 0")
    ax = abs(x)
    if ax <= _EI_CROSSOVER:
        total = EULER_GAMMA + math.log(ax)
        term = 1.0
        for k in range(1, 500):
            term *= x / k
            inc = term / k
            total += inc
            if abs(inc) < 1e-17 * max(1.0, abs(total)):
                break
        return total
    # asymptotic branch, smallest-term truncation
    total = 1.0
    term = 1.0
    for k in range(1, int(ax) + 1):
        nxt = term * k / x
        if abs(nxt) >= abs(term):
            break
        term = nxt
        total += term
    return math.exp(x) / x * total
