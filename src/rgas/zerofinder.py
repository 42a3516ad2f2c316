"""Locating ordinates of the nontrivial zeta zeros on the critical line.

The zeros are assumed to lie on Re s = 1/2 (Riemann hypothesis, as the model
requires); their ordinates gamma_k are found as sign changes of the rotated
real function Z(t) = exp(i theta(t)) zeta(1/2 + it).

theta has one kernel, `_theta_many`: its real asymptotic series from
t = 14 on and complex log Gamma below.  The Gram points, both Z kernels and
superzeta's T* take it.

`find_zeros` brackets the zeros by Gram blocks: by Rosser's rule a block
between consecutive good Gram points holds as many zeros as it spans Gram
intervals.  A one-interval block is its own bracket; longer blocks are
scanned on 8 cells per interval, and those that show fewer sign changes are
rescanned at 64, 512 and 4096.  From t = 200 on Z is the Riemann-Siegel
formula with Gabcke's C0..C6 corrections in one Horner pass, at O(sqrt(t))
terms, falling back to Euler-Maclaurin wherever |Z| is within its error
bound, so every sign is the Euler-Maclaurin sign.  Euler-Maclaurin Z, at
O(t) terms, runs on numkernel's batched zeta calls, sorted and cut so that
no point pays for a cutoff far above its own.  Vectorized Anderson-Bjorck
regula falsi narrows the brackets on the same fast kernel, and the chord of
each final bracket estimates its zero.  The table needs only the 12-digit
cell that holds each zero, so the estimate's cell is the certificate: where
the signs of Z at the cell's two ends differ, each beyond the Euler-
Maclaurin values' error, the zero is settled at the cell's value (the
rounding is one vector pass, `_quantize_many`).  The others, near-ties
and estimates that fell in the next cell, take one secant step between
Euler-Maclaurin values at the ends of two cells of the decimal grid, and
the stated error adds that step's bound.  The table is audited against
the smooth counting formula.

Zero tables are persisted as plain text:

    # rgas-zeros v1 count=<n> abs_error=<e>
    14.1347251417
    21.0220396388
    ...

with one ordinate per line at 12 significant digits.  Tables quantize their
ordinates to that precision at construction, so a save/load round trip is
the identity.
"""

from __future__ import annotations

import functools
import math
import os
import re
from dataclasses import dataclass, fields

import numpy as np

from .errors import AccuracyError, DomainError, MissedZeroError, TableFormatError
from .numkernel import (
    _LOG_PI,
    _TARGET_ABS_ERROR,
    _log_gamma_many,
    _zeta_em_batched,
)

__all__ = [
    "ZeroTable",
    "riemann_siegel_theta",
    "hardy_z",
    "gram_point",
    "find_zeros",
    "zero_count_estimate",
    "save_table",
    "load_table",
]

_TWO_PI = 2.0 * math.pi
_MAX_ZEROS = 10_000
_REALNESS_TOL = 1e-9  # |Im(e^{i theta} zeta(1/2+it))| beyond this flags kernel trouble


def _fields_equal(a, b):
    """Value equality for dataclasses with array fields: arrays compare by
    np.array_equal, other fields by ==.  The generated __eq__ compares field
    tuples, and numpy refuses a truth value for the array comparison."""
    if b.__class__ is not a.__class__:
        return NotImplemented
    return all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in ((getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    )


@dataclass(frozen=True)
class ZeroTable:
    """Ascending positive ordinates of nontrivial zeros with metadata.

    The work counters are those of the search that computed the table: Z
    evaluations by Euler-Maclaurin and by Riemann-Siegel, Gram intervals
    rescanned on a finer grid (summed over levels), and zeros whose value
    came from the Euler-Maclaurin polish.  They are 0 for loaded tables and
    heads."""

    gammas: np.ndarray
    abs_error: float
    count: int
    source: str  # "computed" | "loaded"
    em_evaluations: int = 0
    rs_evaluations: int = 0
    escalated_intervals: int = 0
    em_polished: int = 0

    def __post_init__(self) -> None:
        g = np.asarray(self.gammas, dtype=np.float64)
        if g.ndim != 1 or g.size != self.count:
            raise DomainError("gamma array does not match count")
        if g.size and g[0] <= 14.0:
            raise DomainError("first ordinate must exceed 14")
        if np.any(np.diff(g) <= 0.0):
            raise DomainError("ordinates must be strictly increasing")
        if self.source not in ("computed", "loaded"):
            raise DomainError("source must be 'computed' or 'loaded'")
        g.setflags(write=False)
        object.__setattr__(self, "gammas", g)

    __eq__ = _fields_equal

    def count_below(self, t: float) -> int:
        return int(np.searchsorted(self.gammas, t, side="right"))

    def head(self, count: int) -> "ZeroTable":
        """The first `count` ordinates as a table of their own."""
        if count < 1 or count > self.count:
            raise DomainError("head count out of range")
        return ZeroTable(self.gammas[:count].copy(), self.abs_error, count, self.source)


# ----------------------------------------------------------------------
# theta and Z
# ----------------------------------------------------------------------

def riemann_siegel_theta(t: float) -> float:
    """theta(t) = Im log Gamma(1/4 + i t/2) - (t/2) ln pi for t > 0."""
    if not 0.0 < t < math.inf:
        raise DomainError("theta requires finite t > 0")
    return float(_theta_many([t])[0])


# Asymptotic series of theta(t) - ((t/2) ln(t/2pi) - t/2 - pi/8) in 1/t,
# 1/t^3, ..., 1/t^9: the coefficient of t^(1-2k) is
# (1 - 2^(1-2k)) |B_2k| / (4k (2k-1)) (Edwards, Riemann's Zeta Function, 6.5).
_THETA_SERIES = (1.0 / 48.0, 7.0 / 5760.0, 31.0 / 80640.0, 127.0 / 430080.0, 511.0 / 1216512.0)

# theta takes the series from here on.  Its first omitted term,
# (2047/2048) |B_12| / 264 t^-11 = 9.58e-4 t^-11, must be under half an ulp
# of theta's rounding scale, the ulp of its largest piece (t/2) ln(t/2pi):
# that half ulp is 4.4e-16 for t in [12.3, 16.7), and the term is 5.3e-16
# at t = 13 and 2.4e-16 at t = 14, the first integer below it.  Under t0
# theta is Im log Gamma(1/4 + it/2) - (t/2) ln pi.
_THETA_SERIES_MIN_T = 14.0


def _theta_many(t: np.ndarray) -> np.ndarray:
    """theta(t) elementwise, the one theta kernel of the package: the real
    asymptotic series from t = _THETA_SERIES_MIN_T on, where it is as
    accurate as double precision allows and ~30 times cheaper than complex
    log Gamma, which serves only below.  Each value depends on its own t
    only, so a scalar equals its place in a batch bit for bit."""
    t = np.asarray(t, dtype=np.float64)
    x = np.maximum(t, _THETA_SERIES_MIN_T)  # the points below are replaced
    inv = 1.0 / x
    inv2 = inv * inv
    tail = _THETA_SERIES[-1]
    for c in reversed(_THETA_SERIES[:-1]):
        tail = tail * inv2 + c
    theta = 0.5 * x * np.log(x / _TWO_PI) - 0.5 * x - math.pi / 8.0 + tail * inv
    low = t < _THETA_SERIES_MIN_T
    if low.any():
        theta[low] = _log_gamma_many(0.25 + 0.5j * t[low]).imag - 0.5 * t[low] * _LOG_PI
    return theta


def _z_many(t: np.ndarray) -> np.ndarray:
    """Vectorized Hardy Z over arbitrary finite t > 0: exp(i theta(t)) times
    zeta(1/2 + it) from ``_zeta_em_batched``, whose estimates must be within
    1e-11 and whose rotated values must be real within _REALNESS_TOL."""
    t = np.asarray(t, dtype=np.float64)
    if not np.all((t > 0.0) & (t < math.inf)):
        raise DomainError("hardy_z requires finite t > 0")
    zeta_vals, _, est, _ = _zeta_em_batched(0.5 + 1j * t, False)
    worst = float(np.max(est, initial=0.0))
    if worst > max(_TARGET_ABS_ERROR, 1e-11):
        raise AccuracyError(f"zeta accuracy {worst:.2e} insufficient on the critical line")
    rotated = np.exp(1j * _theta_many(t)) * zeta_vals
    drift = float(np.max(np.abs(rotated.imag), initial=0.0))
    if drift > _REALNESS_TOL:
        raise AccuracyError(
            f"rotated zeta has imaginary part {drift:.2e}; kernel inaccurate"
        )
    return rotated.real


def hardy_z(t: float) -> float:
    """Hardy's real rotation of zeta on the critical line; its sign changes
    bracket the zero ordinates."""
    return float(_z_many(np.array([float(t)]))[0])


# ----------------------------------------------------------------------
# Riemann-Siegel Z (zero search only)
# ----------------------------------------------------------------------

_RS_MIN_T = 200.0  # Gabcke's remainder bound holds from here; below, Euler-Maclaurin is cheap

# Gabcke's C0..C6 in powers of x = p - 1/2, p the fractional part of
# sqrt(t/2pi).  C_k has the parity of k, so row k holds only the coefficients
# of x^(k%2), x^(k%2 + 2), ...; it ends where the rest of its terms sum to
# under 1e-18 in Z at t = 200.  Generated once at 80 digits by
# `rs_correction_series` in tests/test_zerofinder.py, Arias de Reyna's
# recursion (Math. Comp. 80 (2011)) at sigma = 1/2.  Its C0..C4 are Edwards's
# (Riemann's Zeta Function, 7.4), and its C5, C6 those of Gabcke's form in
# derivatives of Psi; the tests check both.
_RS_CORRECTIONS = (
    (0.3826834323650898, 1.7489618723100817, 2.118025207685496, -0.8707216670511481,
     -3.4733112243465167, -1.6626947308999325, 1.216731288919232, 1.3014304161007977,
     0.03051102182736167, -0.3755803051545095, -0.1085784416564066, 0.051832902999549624,
     0.029999480619902277, -0.0022759396706125644, -0.004382647416580339, -0.0004064230183729847,
     0.0004006097785422114, 8.971057991388841e-05, -2.3025650027239108e-05, -9.380006601906792e-06),
    (-0.053650205256750697, 0.11027818741081483, 1.2317200154315227, 1.2634964862799458,
     -1.695108997559503, -2.9998711967650102, -0.10819944959899208, 1.9407662946212714,
     0.7838423561500687, -0.5054829667900366, -0.38450723496057976, 0.03747264646531532,
     0.09092026610973176, 0.01044923755006451, -0.012582979651583417, -0.003399503721151274,
     0.0010410950537714891, 0.0005010949051118486, -3.956359669003182e-05, -4.7624592453571896e-05),
    (0.005188542830293168, 0.0012378633552253898, -0.18137505725166997, 0.14291492748532125,
     1.3303391766687565, 0.3522472353403734, -2.421001595891951, -1.6760787022538108,
     1.3689416723328371, 1.5539019430222982, -0.1722164273472998, -0.6359068055045431,
     -0.09911649873041208, 0.14033480067387008, 0.04782352019827292, -0.017356040641479782,
     -0.010225012534028593, 0.0009274149159794888, 0.0013572194372373386, 6.41369012029388e-05,
     -0.0001230080569819663),
    (-0.0026794321814389136, 0.02995372109103515, -0.042570172541828696, -0.28997965779803886,
     0.4888831999235446, 1.230855876395746, -0.8297560708527408, -2.249763536666567,
     0.07845139961005472, 1.7467492800868893, 0.45968080979749937, -0.6619353471039775,
     -0.31590441036173633, 0.12844792545207495, 0.10073382716626152, -0.009530183848825268,
     -0.019264421687514088, -0.001246463715876929, 0.0024243969641103086, 0.000437647697741857),
    (0.00046483389361763383, -0.004022642946136188, 0.003847177051796127, 0.06581175135809486,
     -0.19604124343694448, -0.20854053686358853, 0.9507754185141751, 0.5341535312914873,
     -1.67634944117634, -1.076747157875129, 1.235339301656597, 1.0257825340057276,
     -0.40124095793988546, -0.5036663995108304, 0.03573487795502745, 0.14431763086785418,
     0.01509152741790347, -0.026098874779194363, -0.006126628379519262, 0.003077503129870841),
    (0.00022686811845737363, 0.0011081246853718388, -0.016218579255550092, 0.052765034053987414,
     0.02570880200903324, -0.38058660440806397, 0.22531987892642316, 1.0344573316495222,
     -0.5528257697050813, -1.5287712641078073, 0.32828366427719585, 1.229110218540087,
     0.040936939383115295, -0.558604047264202, -0.11241976368059116, 0.1521267771179559,
     0.051737188455280386, -0.025612276897007284, -0.012963672514046178),
    (3.369099840108094e-05, -0.00048730387277374067, 0.0034913041151209494, -0.010636181410824536,
     -0.007962052861482919, 0.1237587562368654, -0.1849404122581205, -0.30393580239679546,
     0.7612833126395632, 0.4067440568556812, -1.2301721808541708, -0.5117640855696522,
     0.9962463615472547, 0.47056716161861106, -0.4414445866526114, -0.25918493310535273,
     0.11117688993542343, 0.08794868546608423, -0.014803271886103406),
)

# the rows zero-padded to one array; C1, C3 and C5 take one more factor x
_RS_WIDTH = max(len(row) for row in _RS_CORRECTIONS)
_RS_PARITY = np.array([row + (0.0,) * (_RS_WIDTH - len(row)) for row in _RS_CORRECTIONS])


def _rs_corrections(x: np.ndarray) -> np.ndarray:
    """C0(x)..C6(x) as rows, by one Horner pass in x^2 over `_RS_PARITY`."""
    x2 = x * x
    acc = np.repeat(_RS_PARITY[:, -1:], x.size, axis=1)
    for col in _RS_PARITY.T[-2::-1]:
        acc *= x2
        acc += col[:, None]
    acc[1::2] *= x
    return acc


def _z_rs(t: np.ndarray) -> np.ndarray:
    """Riemann-Siegel Z(t) for t >= 200: the main sum
    2 sum_{n <= sqrt(t/2pi)} n^{-1/2} cos(theta - t ln n) plus the C0..C6
    remainder terms, with theta from `_theta_many`.  It differs from
    Euler-Maclaurin Z by at most `_rs_error_bound(t)`.  The points are
    sorted, so term n is summed over the suffix of points with
    sqrt(t/2pi) >= n and no cosine is wasted; each value depends on its own
    t only, and the input order is restored on return."""
    t = np.asarray(t, dtype=np.float64)
    order = np.argsort(t, kind="stable")
    sorted_t = t[order]
    theta = _theta_many(sorted_t)
    tau = np.sqrt(sorted_t / _TWO_PI)
    n_max = np.floor(tau)  # nondecreasing, as sorted_t is
    main = np.zeros_like(sorted_t)
    for n in range(1, int(n_max.max(initial=0.0)) + 1):
        lo = int(np.searchsorted(n_max, n))
        main[lo:] += np.cos(theta[lo:] - sorted_t[lo:] * math.log(n)) / math.sqrt(n)
    x = tau - n_max - 0.5
    inv_tau = 1.0 / tau
    c = _rs_corrections(x)
    remainder = c[-1]
    for row in c[-2::-1]:
        remainder = remainder * inv_tau + row
    sign = np.where(n_max % 2.0 == 1.0, 1.0, -1.0)  # (-1)^(N-1)
    out = np.empty_like(t)
    out[order] = 2.0 * main + sign * remainder / np.sqrt(tau)
    return out


def _rs_error_bound(t: np.ndarray) -> np.ndarray:
    """Bound on |Z_RS(t) - Z_EM(t)| for t >= 200: Gabcke's d_6 t^(-15/4),
    d_6 = 0.661, for the remainder after C6 (W. Gabcke, thesis, Goettingen
    1979), plus rounding: theta and t ln n are of size t ln t, so the phases
    carry absolute errors growing like t.  The rounding term is about 8
    times the largest difference seen between the two kernels on 3,000
    points of t in [3000, 1e4], 6.4e-15 t; from t ~ 600 on it is the larger
    term."""
    return 0.661 * t**-3.75 + 5e-14 * t


# ----------------------------------------------------------------------
# counting
# ----------------------------------------------------------------------

def zero_count_estimate(t: float) -> float:
    """Smooth zero-counting estimate (T/2pi) ln(T/2pi) - T/2pi + 7/8."""
    if not t > _TWO_PI:
        raise DomainError("counting estimate needs T > 2 pi")
    x = t / _TWO_PI
    return x * math.log(x) - x + 0.875


def gram_point(n: int) -> float:
    """The Gram point g_n where theta(g_n) = n pi, for n >= -1."""
    if n < -1:
        raise DomainError("gram_point supports n >= -1")
    return float(_gram_points(n, n)[0])


# g_-1, the one Gram point below _THETA_SERIES_MIN_T, where theta takes a
# complex log Gamma: the value Newton gave it in batches reaching g_1341 or
# more (in smaller ones it was 4.4 ulps below the true 9.666908056130192;
# this one is 1.6 ulps above)
_GRAM_MINUS_1 = float.fromhex("0x1.35574f9050947p+3")


def _gram_points(n_lo: int, n_hi: int) -> np.ndarray:
    """Gram points g_n for n = n_lo..n_hi, n_lo >= -1: g_-1 the constant, the
    others by vectorized Newton iteration.  Each element stops on its own,
    so g_n has the same bits in every batch."""
    if n_lo == -1:
        rest = _gram_points(0, n_hi) if n_hi >= 0 else np.empty(0)
        return np.concatenate(([_GRAM_MINUS_1], rest))
    n = np.arange(n_lo, n_hi + 1, dtype=np.float64)
    target = n * math.pi
    # asymptotic seed from theta(t) ~ (t/2) ln(t/(2 pi e)) - pi/8; an element
    # freezes after its first step below 1e-9
    t = np.full_like(n, 18.0)
    live = np.arange(n.size)
    for _ in range(80):
        tl = t[live]
        x = tl / _TWO_PI
        guess = 0.5 * tl * np.log(x) - 0.5 * tl - math.pi / 8.0
        slope = 0.5 * np.log(x)
        step = (target[live] - guess) / np.where(np.abs(slope) < 0.05, 0.05, slope)
        t[live] = np.clip(tl + step, 8.0, None)
        live = live[~(np.abs(step) < 1e-9)]
        if not live.size:
            break
    # polish on the exact theta
    for _ in range(8):
        resid = _theta_many(t) - target
        slope = 0.5 * np.log(t / _TWO_PI)
        t = np.clip(t - resid / np.where(np.abs(slope) < 0.05, 0.05, slope), 7.5, None)
    if float(np.max(np.abs(_theta_many(t) - target))) > 1e-7:
        raise AccuracyError("Gram point iteration did not converge")
    return t


# ----------------------------------------------------------------------
# zero search
# ----------------------------------------------------------------------

_GRAM_BUFFER = 6  # Gram points searched beyond g_count for a good one
_LEVELS = (8, 64, 512, 4096)  # cells per Gram interval, base grid then rescans
_NARROW_RTOL = 1e-9  # fast-kernel brackets are narrowed to width <= this * t
_NARROW_MAX_ITER = 100


class _Search:
    """Z evaluations of one zero search, with their counts.  The fast kernel
    is Riemann-Siegel from t = 200 on and Euler-Maclaurin below."""

    def __init__(self) -> None:
        self.em_evaluations = 0
        self.rs_evaluations = 0

    def em(self, t: np.ndarray) -> np.ndarray:
        self.em_evaluations += t.size
        return _z_many(t)

    def fast(self, t: np.ndarray) -> np.ndarray:
        out = np.empty_like(t)
        rs = t >= _RS_MIN_T
        if rs.any():
            self.rs_evaluations += int(np.count_nonzero(rs))
            out[rs] = _z_rs(t[rs])
        if not rs.all():
            out[~rs] = self.em(t[~rs])
        return out

    def signs(self, t: np.ndarray) -> np.ndarray:
        """Z with the Euler-Maclaurin sign: the fast kernel, re-evaluated by
        Euler-Maclaurin wherever it is within its error bound of 0."""
        z = self.fast(t)
        near = (t >= _RS_MIN_T) & (np.abs(z) <= _rs_error_bound(t))
        if near.any():
            z[near] = self.em(t[near])
        return z

    def scan(self, gram: np.ndarray, zg: np.ndarray, idx: np.ndarray, level: int):
        """Grid rows over the Gram intervals `idx` (array indices into
        `gram`), `level` cells each; the row ends are the Gram points and
        keep their values `zg`."""
        lo, hi = gram[idx], gram[idx + 1]
        t = lo[:, None] + (hi - lo)[:, None] * (np.arange(level + 1) / level)
        t[:, 0], t[:, -1] = lo, hi
        z = np.empty_like(t)
        z[:, 0], z[:, -1] = zg[idx], zg[idx + 1]
        z[:, 1:-1] = self.signs(t[:, 1:-1].ravel()).reshape(idx.size, level - 1)
        return t, z


def _sign_changes(z: np.ndarray) -> np.ndarray:
    return z[..., :-1] * z[..., 1:] < 0.0


def _gram_blocks(search: _Search, count: int):
    """Gram points g_-1..g_m with their Z values, and the array index of the
    last good Gram point at or above g_count, extending m until there is one.
    g_n is good when (-1)^n Z(g_n) > 0."""
    m_hi = count + _GRAM_BUFFER
    while True:
        gram = _gram_points(-1, m_hi)
        zg = search.signs(gram)
        parity = np.where(np.arange(-1, m_hi + 1) % 2 == 0, 1.0, -1.0)
        good = np.flatnonzero(parity * zg > 0.0)
        top = good[good >= count + 1]  # array index n + 1 holds g_n
        if top.size:
            return gram, zg, good, int(top[-1])
        m_hi += _GRAM_BUFFER


def _bracket(search: _Search, gram, zg, good, last: int, count: int):
    """Brackets (a, b, Z(a), Z(b)) of the first `count` zeros, and the number
    of Gram intervals rescanned.  By Rosser's rule a Gram block below the
    good Gram point `gram[last]` holds as many zeros as it spans Gram
    intervals.  A one-interval block is its own bracket, as its good ends
    have opposite signs; the intervals of longer blocks are scanned on 8
    cells, and the blocks that show too few sign changes are rescanned on
    the finer levels."""
    ends = good[(good > 0) & (good <= last)]
    starts = np.concatenate(([0], ends[:-1]))
    one = starts[ends - starts == 1]
    rows = [(one, gram[one], gram[one + 1], zg[one], zg[one + 1])]  # interval, a, b, Z(a), Z(b)
    changes = np.ones(last, dtype=np.int64)
    idx = np.setdiff1d(np.arange(last), one)
    escalated = 0
    for level in _LEVELS:
        t, z = search.scan(gram, zg, idx, level)
        flips = _sign_changes(z)
        changes[idx] = np.count_nonzero(flips, axis=1)
        r, c = np.nonzero(flips)
        rows.append((idx[r], t[r, c], t[r, c + 1], z[r, c], z[r, c + 1]))
        short = np.flatnonzero(np.add.reduceat(changes, starts) < ends - starts)
        if short.size == 0:
            break
        idx = np.concatenate([np.arange(starts[b], ends[b]) for b in short])
        rows = [tuple(col[~np.isin(row[0], idx)] for col in row) for row in rows]
        escalated += idx.size
    else:
        b = int(short[0])
        raise MissedZeroError(
            f"Gram block g_{starts[b] - 1}..g_{ends[b] - 1} holds fewer than "
            f"{ends[b] - starts[b]} sign changes at {_LEVELS[-1]} cells per interval"
        )
    interval, a, b, za, zb = (np.concatenate(col) for col in zip(*rows))
    first = np.argsort(interval, kind="stable")[:count]
    return a[first], b[first], za[first], zb[first], escalated


def _narrow(search: _Search, a, b, fa, fb):
    """Vectorized Anderson-Bjorck regula falsi (BIT 12 (1973)) on the fast
    kernel, over the brackets still wider than _NARROW_RTOL * t.  Where the
    new point c keeps the sign of the last one b, the retained end's value
    is scaled by m = 1 - f(c)/f(b), or by 1/2 where m <= 0.  Returns the
    final bracket ends and their unscaled values."""
    a, b, fa, fb = a.copy(), b.copy(), fa.copy(), fb.copy()
    wa = fa.copy()  # Z(a), scaled each time a is retained
    active = np.flatnonzero(np.abs(b - a) > _NARROW_RTOL * b)
    for _ in range(_NARROW_MAX_ITER):
        if active.size == 0:
            return a, b, fa, fb
        aa, bb, wwa, ffb = a[active], b[active], wa[active], fb[active]
        c = bb - ffb * (bb - aa) / (ffb - wwa)
        fc = search.fast(c)
        flip = fc * ffb < 0.0
        m = 1.0 - fc / ffb
        a[active] = np.where(flip, bb, aa)
        fa[active] = np.where(flip, ffb, fa[active])
        wa[active] = np.where(flip, ffb, np.where(m > 0.0, m, 0.5) * wwa)
        b[active], fb[active] = c, fc
        keep = (np.abs(c - a[active]) > _NARROW_RTOL * c) & (fc != 0.0)
        active = active[keep]
    raise AccuracyError(f"regula falsi left {active.size} brackets unconverged")


def _chord(a, b, fa, fb):
    """Root of the chord through (a, fa) and (b, fb), or the midpoint where
    the end values are equal or the chord's root leaves [a, b]."""
    den = fb - fa
    flat = den == 0.0
    c = b - fb * (b - a) / np.where(flat, 1.0, den)
    return np.where(flat | ((c - a) * (c - b) > 0.0), 0.5 * (a + b), c)


def _em_allowance(t):
    """What an Euler-Maclaurin Z value may err by: `_z_many`'s gate 1e-11
    plus phase rounding 1e-14 t, about 6 times the largest error seen
    against mpmath.siegelz on 380 points of t in [14, 1e4]."""
    return 1e-11 + 1e-14 * t


def _certify(search: _Search, c, lo, hi, z_lo):
    """12-digit zeros settled by the signs of Z at the ends of their cell.
    The estimate c rounds to q = m / 10^d, whose cell is the reals within
    1/2 of m / 10^d; its ends, moved 2 ulps inward and clipped to the
    zero's bracket [lo, hi], take one `_Search.signs` call, and a value
    within `_em_allowance` of 0 counts as no sign (the Riemann-Siegel values
    that call keeps exceed their own bound, which exceeds the allowance).
    Where the two signs differ the zero lies in the cell, and it is settled
    at q.  Below a power of ten the cell is a tenth as wide, so a zero there
    is not settled.  Every zero also gets a polish window on the decimal
    grid, the two cells around the cell end that it is at or beyond: the
    lower end unless Z there has the sign of Z(lo), as the bracket holds one
    zero.  Returns q, the mask of settled zeros and the windows."""
    q = _quantize_many(c)
    scale = _POW10[11 - np.floor(np.log10(q)).astype(np.int64)]
    m = np.rint(q * scale)  # exact: q is the double nearest m / 10^d
    inward = np.array([[math.inf], [-math.inf]])
    ends = np.nextafter(np.nextafter(np.stack([m - 0.5, m + 0.5]) / scale, inward), inward)
    ends = np.stack([np.maximum(ends[0], lo), np.minimum(ends[1], hi)])
    z = search.signs(ends.ravel()).reshape(ends.shape)
    z[np.abs(z) <= _em_allowance(ends)] = 0.0
    settled = (z[0] * z[1] < 0.0) & (ends[0] < ends[1]) & (m > 1e11)
    edge = np.where(np.sign(z[0]) == np.sign(z_lo), m + 0.5, m - 0.5)
    return q, settled, np.maximum((edge - 1.0) / scale, lo), np.minimum((edge + 1.0) / scale, hi)


def _polish(search: _Search, lo, hi):
    """Euler-Maclaurin roots in the windows [lo, hi] of `_certify`, two
    12-digit cells each: one secant step between the Euler-Maclaurin values
    at the window ends, which must differ in sign.  Returns the roots and a
    bound on their error before rounding: the chord's error |Z''| w^2 / 8 on
    a window of width w plus the values' error `_em_allowance`, over the
    least |Z'| there, plus an ulp of t; |Z''| <= 8 sqrt(tau) (1 + ln tau)^2,
    tau = sqrt(t/2pi), twice the Riemann-Siegel main sum's bound."""
    f = search.em(np.concatenate([lo, hi]))
    flo, fhi = f[: lo.size], f[lo.size :]
    bad = np.flatnonzero(~((flo * fhi < 0.0) & np.isfinite(flo * fhi)))
    if bad.size:
        raise AccuracyError(
            f"no finite Euler-Maclaurin sign change on [{lo[bad[0]]:.12g}, {hi[bad[0]]:.12g}]"
        )
    width, tau = hi - lo, np.sqrt(hi / _TWO_PI)
    curve = 8.0 * np.sqrt(tau) * (1.0 + np.log(tau)) ** 2
    steep = np.abs(fhi - flo) / width - curve * width
    if not np.all(steep > 0.0):
        raise AccuracyError(f"Z' may vanish on the window at t={hi[np.argmin(steep)]:.12g}")
    error = (curve * width**2 / 8.0 + _em_allowance(hi)) / steep + np.spacing(hi)
    return hi - fhi * width / (fhi - flo), float(np.max(error, initial=0.0))


def find_zeros(count: int) -> ZeroTable:
    """First `count` zero ordinates.  Gram blocks bracket them: a one-
    interval block is its own bracket, and longer ones are scanned on 8
    cells per interval (Riemann-Siegel from t = 200, Euler-Maclaurin below
    and where Riemann-Siegel cannot settle the sign), rescanned at 64, 512
    and 4096 where short of Rosser's count.  Anderson-Bjorck regula falsi
    narrows each bracket to 1e-9 t on the same fast kernel.  Each zero is
    settled by the signs of Z at the two ends of its estimate's 12-digit
    cell (`_certify`); the others (19 of the first 3,000, 50 of the first
    10^4, all near-ties) take one secant step between Euler-Maclaurin values
    on two cells of the decimal grid (`_polish`).
    The table is audited against the smooth counting formula."""
    if count < 1:
        raise DomainError("count must be >= 1")
    if count > _MAX_ZEROS:
        raise DomainError(f"zero search supports at most {_MAX_ZEROS} zeros")

    search = _Search()
    gram, zg, good, last = _gram_blocks(search, count)
    lo, hi, zlo, zhi, escalated = _bracket(search, gram, zg, good, last, count)
    a, b, za, zb = _narrow(search, lo, hi, zlo, zhi)
    quantized, settled, w_lo, w_hi = _certify(search, _chord(a, b, za, zb), lo, hi, zlo)
    rest = np.flatnonzero(~settled)
    roots, root_error = _polish(search, w_lo[rest], w_hi[rest])
    quantized[rest] = _quantize_many(roots)
    # half a unit of the 12th digit plus the polished roots' own error (a
    # settled zero's cell rounds to its value), up to the header's 6 digits
    bound = 0.5 * 10.0 ** (math.floor(math.log10(float(quantized[-1]))) - 11) + root_error
    scale = 10.0 ** (5 - math.floor(math.log10(bound)))
    abs_error = math.ceil(bound * scale) / scale
    table = ZeroTable(
        quantized, abs_error, count, "computed",
        em_evaluations=search.em_evaluations,
        rs_evaluations=search.rs_evaluations,
        escalated_intervals=escalated,
        em_polished=rest.size,
    )

    # audit against the counting formula at a spread of checkpoints
    for k in range(9, count, max(1, count // 8)):
        t_mid = 0.5 * (table.gammas[k] + (table.gammas[k + 1] if k + 1 < count else float(gram[k + 2])))
        if t_mid > _TWO_PI:
            drift = abs(table.count_below(t_mid) - round(zero_count_estimate(t_mid)))
            if drift > 1:
                raise MissedZeroError(
                    f"counting audit failed near t={t_mid:.3f}: drift {drift}"
                )
    return table


_POW10 = np.array([float(10**k) for k in range(23)])  # exact doubles


def _quantize_many(g: np.ndarray) -> np.ndarray:
    """Round to the 12 significant digits of the file format, equal to
    float(format(g, ".12g")) elementwise.  With d = 11 - floor(log10 g),
    p = g 10^d is one rounding (at most 6.1e-5 off below 1e12) from the
    exact product, so where p lies more than 1e-3 from a half-integer,
    rint(p) is the correctly rounded 12-digit integer m, and m / 10^d, a
    quotient of exact doubles, is the double nearest the decimal, as float()
    reads it.  Near-ties and p outside [1e11, 1e12) (log10 off by one next
    to a power of ten) go through format."""
    g = np.asarray(g, dtype=np.float64)
    d = 11 - np.floor(np.log10(g)).astype(np.int64)
    scale = _POW10[np.clip(d, 0, _POW10.size - 1)]
    p = g * scale
    out = np.rint(p) / scale
    exact = (d >= 0) & (p >= 1e11) & (p < 1e12) & (np.abs(p - np.floor(p) - 0.5) > 1e-3)
    for i in np.flatnonzero(~exact):
        out[i] = float(format(g[i], ".12g"))
    return out


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------

_HEADER_RE = re.compile(
    r"^# rgas-zeros v1 count=(\d+) abs_error=([0-9.eE+-]+)\s*$"
)


def _table_text(table: ZeroTable) -> str:
    """The text format: header line, then one ordinate per line with 12
    significant digits."""
    lines = [f"# rgas-zeros v1 count={table.count} abs_error={table.abs_error:.6g}"]
    lines.extend(map("{:.12g}".format, table.gammas.tolist()))
    return "\n".join(lines) + "\n"


def save_table(table: ZeroTable, path) -> None:
    """Write the table in the text format of ``_table_text``."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(_table_text(table))


def load_table(path) -> ZeroTable:
    """Read a zero-table file, validating header, parse, and monotonicity.
    Tables are immutable, so a file is parsed again only once rewritten."""
    st = os.stat(path)
    return _load_table_file(os.path.realpath(path), st.st_mtime_ns, st.st_size)


@functools.lru_cache(maxsize=16)
def _load_table_file(path: str, mtime_ns: int, size: int) -> ZeroTable:
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise TableFormatError("line 1: empty zero-table file")
    m = _HEADER_RE.match(lines[0])
    if m is None:
        raise TableFormatError(f"line 1: malformed header: {lines[0]!r}")
    count = int(m.group(1))
    abs_error = float(m.group(2))
    body = [(i, line) for i, line in enumerate(lines[1:], start=2) if line.strip()]
    try:  # numpy parses a line as float() does; the loop names a bad one
        g = np.array([line for _, line in body], dtype=np.float64)
    except ValueError:
        for i, line in body:
            try:
                float(line)
            except ValueError as exc:
                raise TableFormatError(f"line {i}: not a number: {line!r}") from exc
        raise
    if g.size != count:
        raise TableFormatError(
            f"line {len(lines)}: header promises {count} ordinates, found {g.size}"
        )
    if np.any(np.diff(g) <= 0.0):
        bad = body[int(np.flatnonzero(np.diff(g) <= 0.0)[0]) + 1][0]
        raise TableFormatError(f"line {bad}: ordinates not strictly increasing")
    try:
        return ZeroTable(g, abs_error, count, "loaded")
    except DomainError as exc:
        raise TableFormatError(f"line 2: {exc}") from exc
