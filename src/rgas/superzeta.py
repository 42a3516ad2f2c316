"""Zeta-like sums over the nontrivial zeros and the pole/zero expansion of
zeta'/zeta.

Two families are provided, each computable by two independent routes so they
can cross-check each other:

  * ``g2(sigma, t)``     = sum_k (gamma_k^2 + t^2)^(-sigma)       (sigma > 1/2)
  * ``g1_zero_sum(s, t)`` = sum_rho (1/2 + t - rho)^(-s)          (Re s >= 1)

Zero sums are truncated at the table and completed with a smooth-density
tail: the local density of ordinates is theta'(gamma)/pi, and the tail
integral starts at the point T* where the smooth counting function equals
the number of zeros summed (so the boundary fluctuation term vanishes).
The remaining error is bounded by the counting-function fluctuation |S(T)|,
taken <= 2 at desk heights.  Each sum takes a ``ZeroTable`` of at least 10
zeros, and its tail expands in the shift to the fixed order 8.

``g1_via_identity`` evaluates the s = 1 family without any zeros at all,
through the expansion of zeta'/zeta in its pole, nontrivial-zero, and
trivial-zero parts; agreement of the two routes is the module's central
cross-check.

The constant term of that expansion, written with the nontrivial-zero sum
split off as a separate + sum_rho 1/rho term, is

    EXPANSION_CONSTANT = ln(2 pi) - 1 = zeta'(0)/zeta(0) - 1,

numerically validated in the test suite both against the direct kernel and
against the oracle-checked energy decomposition.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError, PoleError
from .numkernel import (
    EULER_GAMMA,
    _digamma_many,
    _zeta_log_derivative_real_many,
    digamma,
    zeta_log_derivative,
)
from .quadrature import _PANEL_ROUNDING, RowSet, dyadic_edges, integrate_rows
from .zerofinder import ZeroTable, _gram_points

__all__ = [
    "TailEstimate",
    "ZeroSumResult",
    "EXPANSION_CONSTANT",
    "RHO_SUM_CLOSED_FORM",
    "g2",
    "sum_inverse_rho",
    "g1_zero_sum",
    "g1_via_identity",
    "mellin_j",
    "zeta_log_derivative_expansion",
]

# Constant term of the zeta'/zeta expansion in the grouping that lists the
# paired zero sum and + sum_rho 1/rho separately; equals zeta'(0)/zeta(0) - 1.
EXPANSION_CONSTANT = math.log(2.0 * math.pi) - 1.0

# sum over all zeros of 1/rho (conjugate-paired): 1 + gamma_E/2 - ln(4 pi)/2
RHO_SUM_CLOSED_FORM = 1.0 + 0.5 * EULER_GAMMA - 0.5 * math.log(4.0 * math.pi)

_S_FLUCTUATION = 2.0  # bound on |N(T) - Nsmooth(T)| at desk-scale heights
_TAIL_ORDER = 8  # last power of the shift in the tail expansions


@dataclass(frozen=True)
class TailEstimate:
    """Smooth-density estimate of the truncated tail and a bound on it."""

    value: float
    bound: float

    def __post_init__(self) -> None:
        if self.bound < 0.0:
            raise DomainError("tail bound must be >= 0")
        if abs(self.value) > 10.0 * self.bound + 1e-300:
            raise DomainError("tail value inconsistent with its bound")


@dataclass(frozen=True)
class ZeroSumResult:
    """A truncated zero sum with its tail correction already applied."""

    value: float | complex
    partial: float | complex
    tail: TailEstimate


@functools.lru_cache(maxsize=64)
def _tail_start(count: int) -> float:
    """T* with smooth counting theta(T*)/pi + 1 = count, i.e. the Gram point
    g_{count-1}: starting the density tail there cancels the boundary term
    of the counting-function fluctuation.  A pure function of the table
    size, solved once per size.  Every zero sum takes its T* here, so this
    is where a table of fewer than 10 zeros is refused."""
    if count < 10:
        raise DomainError("superzeta sums need at least 10 zeros")
    return float(_gram_points(count - 1, count - 1)[0])


def _power_log_tail(exponent: complex, t_star: float) -> complex:
    """integral_{T*}^inf gamma^(-exponent) * (1/2pi) ln(gamma/2pi) dgamma,
    requiring Re exponent > 1."""
    nm1 = exponent - 1.0
    if not nm1.real > 0.0:
        raise DomainError("power-log tail needs Re exponent > 1")
    tp = cmath.exp(-nm1 * math.log(t_star))  # T*^(1-n)
    out = tp / nm1 * (math.log(t_star / (2.0 * math.pi)) + 1.0 / nm1) / (2.0 * math.pi)
    return complex(out)


def g2(sigma: float, t: float, zeros: ZeroTable) -> ZeroSumResult:
    """sum_k (gamma_k^2 + t^2)^(-sigma) over all zero ordinates, symmetric in
    t; partial sum over the table plus the smooth-density tail."""
    if not sigma > 0.5:
        raise DomainError("g2 requires sigma > 1/2")
    g = zeros.gammas
    t_star = _tail_start(zeros.count)
    if abs(t) >= 0.5 * t_star:
        raise DomainError("shift |t| too large for the stored table")
    partial = float(np.sum((g * g + t * t) ** (-sigma)))

    # (gamma^2 + t^2)^(-sigma) = sum_m C(-sigma, m) t^(2m) gamma^(-2 sigma - 2m)
    corr = 0.0
    coef = 1.0
    for m in range(_TAIL_ORDER + 1):
        if m > 0:
            coef *= (-sigma - (m - 1)) / m
        term = coef * t ** (2 * m) * _power_log_tail(2.0 * sigma + 2 * m, t_star).real
        corr += term
        if abs(term) < 1e-18:
            break
    f_edge = (t_star * t_star + t * t) ** (-sigma)
    bound = abs(corr) + 2.0 * _S_FLUCTUATION * f_edge
    return ZeroSumResult(partial + corr, partial, TailEstimate(corr, bound))


def sum_inverse_rho(zeros: ZeroTable) -> ZeroSumResult:
    """sum_rho 1/rho over all nontrivial zeros in conjugate pairs, which is
    g2 at sigma = 1, t = 1/2."""
    return g2(1.0, 0.5, zeros)


def _pair_sum_complex(w: complex, gammas: np.ndarray) -> complex:
    """sum over the table of 1/(w - i gamma) + 1/(w + i gamma)
    = 2 w / (w^2 + gamma^2)."""
    return complex(np.sum(2.0 * w / (w * w + gammas * gammas)))


def _pair_tail_first_order(w: complex, t_star: float) -> tuple[complex, float]:
    """Tail of the paired sum 2w/(w^2+gamma^2): expansion in w^2/gamma^2."""
    corr = 0.0 + 0.0j
    for m in range(_TAIL_ORDER + 1):
        term = 2.0 * (-1.0) ** m * w ** (2 * m + 1) * _power_log_tail(2 * m + 2, t_star)
        corr += term
        if abs(term) < 1e-18:
            break
    f_edge = abs(2.0 * w / (w * w + t_star * t_star))
    return corr, abs(corr) + 2.0 * _S_FLUCTUATION * f_edge


def g1_zero_sum(s: complex, t: float, zeros: ZeroTable) -> ZeroSumResult:
    """sum_rho (1/2 + t - rho)^(-s) over all zeros, conjugate-paired.

    Absolutely convergent for Re s > 1; at s = 1 the pairing
    1/(x - rho) + 1/(x - conj(rho)) = 2 t / (t^2 + gamma^2)  (x = 1/2 + t)
    makes the sum converge.  Other points on Re s = 1 are rejected."""
    s = complex(s)
    g = zeros.gammas
    t_star = _tail_start(zeros.count)
    if abs(t) >= 0.5 * t_star:
        raise DomainError("shift |t| too large for the stored table")
    if s == 1.0:
        w = complex(t)
        partial = _pair_sum_complex(w, g)
        corr, bound = _pair_tail_first_order(w, t_star)
        return ZeroSumResult(
            (partial + corr).real, partial.real, TailEstimate(corr.real, bound)
        )
    if not s.real > 1.0:
        raise DomainError("g1 zero sum needs Re s > 1 (or exactly s = 1, paired)")
    # pair terms (t - i gamma)^(-s) + (t + i gamma)^(-s)
    lg = np.log(t + 1j * g)
    pair = np.exp(-s * lg)
    pair = pair + np.exp(-s * np.conj(lg))
    partial = complex(np.sum(pair))

    # tail: pair(gamma) = 2 gamma^(-s) sum_m C(-s,m) (t/gamma)^m cos(pi(s+m)/2)
    corr = 0.0 + 0.0j
    coef = 1.0 + 0.0j
    for m in range(_TAIL_ORDER + 1):
        if m > 0:
            coef *= (-s - (m - 1)) / m
        term = 2.0 * coef * cmath.cos(0.5 * math.pi * (s + m)) * t**m * _power_log_tail(s + m, t_star)
        corr += term
        if abs(term) < 1e-18:
            break
    f_edge = 2.0 * t_star ** (-s.real)
    bound = abs(corr) + 2.0 * _S_FLUCTUATION * f_edge
    value = partial + corr
    if s.imag == 0.0:
        return ZeroSumResult(value.real, partial.real, TailEstimate(corr.real, bound))
    return ZeroSumResult(value, partial, TailEstimate(abs(corr), bound))


def g1_via_identity(t: float) -> float:
    """The paired zero sum sum_rho 1/(x - rho) at x = 1/2 + t, computed with
    no zeros at all by rearranging the zeta'/zeta expansion:

        (zeta'/zeta)(x) - C + 1/(x-1) - sum_rho 1/rho
                                      + (psi(1 + x/2) + gamma_E) / 2

    with C the expansion constant and the rho sum in its closed form."""
    x = 0.5 + t
    if x == 1.0:
        raise PoleError("identity route has the explicit pole at x = 1")
    if x <= 0.0:
        raise DomainError("identity route expects x = 1/2 + t > 0")
    zld = zeta_log_derivative(complex(x)).real
    return (
        zld
        - EXPANSION_CONSTANT
        + 1.0 / (x - 1.0)
        - RHO_SUM_CLOSED_FORM
        + 0.5 * (digamma(1.0 + 0.5 * x) + EULER_GAMMA)
    )


def mellin_j(s: complex, t: float, tol: float = 1e-10) -> complex:
    """J(s, t) = integral_0^inf (zeta'/zeta)(1/2 + t + y) y^(-s) dy for
    -6 < Re s < 1, along a ray starting right of the pole (1/2 + t > 1).

    In u = y^(1 - Re s) the y -> 0 endpoint is flattened: with
    p = 1/(1 - Re s) and g = zeta'/zeta, J is the integral of the real
    kernel p g(1/2 + t + u^p) against u^(-i p Im s).  Its real and imaginary
    parts are two rows of one integrate_rows call, with the weights
    cos(p Im s ln u) and -sin(p Im s ln u), and a third row of weight 1
    gives the magnitude |J(Re s, t)| of the integrand (g < 0); for real s
    the one row of weight 1 is J.  The rows start from dyadic panels above
    a head [0, u0] that is taken in closed form, since u^(-i p Im s)
    oscillates without end there, and the ray is truncated where the
    Dirichlet decay of g makes the remainder negligible.  Raises
    AccuracyError when the summed error estimate exceeds both tol and twice
    the rows' rounding floors.  Further left J grows like Gamma(1 - Re s)
    and, near the pole, the absolute tolerance is out of reach of double
    precision."""
    s = complex(s)
    if not s.real < 1.0:
        raise DomainError("mellin_j requires Re s < 1")
    if s.real <= -6.0:
        raise DomainError("mellin_j supported for Re s > -6 only")
    x0 = 0.5 + t
    if not x0 > 1.0:
        raise DomainError("integration ray passes through the pole: need 1/2 + t > 1")

    sigma = s.real
    p = 1.0 / (1.0 - sigma)
    # truncation point: extend past 60 until 2^-y y^(-Re s) is negligible
    y_cut = 60.0
    while 2.0**-y_cut * y_cut ** (-sigma) > 1e-18 and y_cut < 4000.0:
        y_cut *= 1.3
    # truncated-ray remainder, bounded by the Dirichlet decay of zeta'/zeta;
    # the cutoff loop above pushed it below double precision unless capped
    if not 3.0 * 2.0 ** (-(x0 + y_cut)) * y_cut ** (-sigma) < 1e-15:
        raise AccuracyError(f"mellin_j: ray cut at y = {y_cut:.4g} leaves a remainder")
    u_cut = y_cut ** (1.0 / p)

    # the head u < u0 = 2^first, where y0 = u0^p has y0^(2 - Re s) <= 2^-64:
    # g is increasing right of the pole, so the head is the integral of
    # p g(x0) u^(-i omega), up to (g(x0 + y0) - g(x0)) p u0
    first = math.floor(-64.0 * (1.0 - sigma) / (2.0 - sigma))
    u0 = 2.0**first
    omega = p * s.imag
    g0, g1 = _zeta_log_derivative_real_many(np.array([x0, x0 + u0**p])).tolist()
    head = p * g0 * u0 ** complex(1.0, -omega) / complex(1.0, -omega)
    head_bound = (g1 - g0) * p * u0

    def kernel(u):
        return p * _zeta_log_derivative_real_many(x0 + u**p)

    def weight(rows, u):
        phase = omega * np.log(u)
        return np.choose(rows[:, None], (np.ones_like(phase), np.cos(phase), -np.sin(phase)))

    # the panels [2^k, 2^(k+1)] from u0 on, and the last one ends at u_cut
    edges = np.append(dyadic_edges(first, math.ceil(math.log2(u_cut)) - 1)[1:], u_cut)
    n = 1 if s.imag == 0.0 else 3
    (rows,) = integrate_rows(RowSet(weight, [edges] * n, [tol / min(n, 2)] * n, kernel, list))
    parts = rows[1:] if n == 3 else rows
    value = complex(parts[0].value, parts[1].value if n == 3 else 0.0) + head
    # each row's rounding floor is 2 _PANEL_ROUNDING times the sum of its
    # |K15|, at most the integral of the magnitude, |rows[0].value|
    error = sum(r.abs_error for r in parts) + head_bound
    if error > max(tol, 4.0 * _PANEL_ROUNDING * abs(rows[0].value) * len(parts)):
        raise AccuracyError(f"mellin_j: error estimate {error:.3e} exceeds tol {tol:.3e} at s = {s!r}, t = {t!r}")
    return value


def zeta_log_derivative_expansion(s: complex, zeros: ZeroTable) -> ZeroSumResult:
    """(zeta'/zeta)(s) assembled from its pole, the paired nontrivial-zero
    sum over the table (with density tail), the closed pairing of the
    trivial zeros, and the expansion constant:

        C - 1/(s-1) + sum_rho 1/(s-rho) + sum_rho 1/rho
          - (psi(1 + s/2) + gamma_E) / 2
    """
    s = complex(s)
    if s == 1.0:
        raise PoleError("expansion has the explicit pole at s = 1")
    if s.imag == 0.0 and s.real < 0.0 and s.real == 2.0 * round(s.real / 2.0):
        raise PoleError("expansion has poles at the trivial zeros")
    w = s - 0.5
    pairsum = _pair_sum_complex(w, zeros.gammas)
    t_star = _tail_start(zeros.count)
    if abs(w) >= 0.5 * t_star:
        raise DomainError("s too far from the critical line for the stored table")
    corr, pair_bound = _pair_tail_first_order(w, t_star)

    rho = sum_inverse_rho(zeros)
    value = (
        EXPANSION_CONSTANT
        - 1.0 / (s - 1.0)
        + pairsum
        + corr
        + rho.value
        - 0.5 * (complex(_digamma_many([1.0 + 0.5 * s])[0]) + EULER_GAMMA)
    )
    bound = pair_bound + rho.tail.bound
    if s.imag == 0.0:
        return ZeroSumResult(value.real, (pairsum + rho.partial).real, TailEstimate(corr.real + rho.tail.value, bound))
    return ZeroSumResult(value, pairsum + rho.partial, TailEstimate(abs(corr) + rho.tail.value, bound))
