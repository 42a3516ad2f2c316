"""Locating ordinates of the nontrivial zeta zeros on the critical line.

The zeros are assumed to lie on Re s = 1/2 (Riemann hypothesis, as the model
requires); their ordinates gamma_k are found as sign changes of the rotated
real function Z(t) = exp(i theta(t)) zeta(1/2 + it).

theta has one kernel, `_theta_many`: its real asymptotic series from
t = 14 on and complex log Gamma below.  The Gram points, both Z kernels and
superzeta's T* take it.

`find_zeros` brackets the zeros on a grid of 8 cells per Gram interval.
From t = 200 on it evaluates Z by the Riemann-Siegel formula with Gabcke's
C0..C4 corrections in one Horner pass, which costs O(sqrt(t)) terms, and
falls back to Euler-Maclaurin wherever |Z| is within the Riemann-Siegel
error bound, so every sign on the grid is the Euler-Maclaurin sign.
Euler-Maclaurin Z, at O(t) terms, runs on sorted chunks sized so that no
point pays for a cutoff far above its own.  Completeness is judged by Gram
blocks: by Rosser's rule a block between consecutive good Gram points holds
as many zeros as it spans Gram intervals, and only the blocks that show
fewer sign changes are rescanned at 64, 512 and 4096 cells per interval.
The brackets are narrowed by vectorized Illinois regula falsi on the same
fast kernel.  A chord step on that kernel gives each root r, and its error
bound gives a window r -/+ delta that must hold the Euler-Maclaurin zero;
the signs at the window ends confirm it (they are Euler-Maclaurin signs,
like those of the grid).  Where both ends round to the same 12 digits (one
vector pass, `_quantize_many`) the zero is settled; only the others (mostly
below t ~ 600, where the Riemann-Siegel bound is coarse, and those near a
rounding edge) are polished by two secant steps on Euler-Maclaurin.  The
table is audited against the smooth counting formula.

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
    _em_cutoff,
    _hurwitz_em,
    _log_gamma_many,
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


def _z_chunk(t: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Z(t) for an ascending chunk sharing one Euler-Maclaurin cutoff, given
    theta(t)."""
    s = 0.5 + 1j * t
    n = _em_cutoff(float(t[-1]), 1.0)
    zeta_vals, _, est, _ = _hurwitz_em(s, 1.0, n, want_derivative=False)
    worst = float(np.max(est))
    if worst > max(_TARGET_ABS_ERROR, 1e-11):
        raise AccuracyError(f"zeta accuracy {worst:.2e} insufficient on the critical line")
    rotated = np.exp(1j * theta) * zeta_vals
    drift = float(np.max(np.abs(rotated.imag)))
    if drift > _REALNESS_TOL:
        raise AccuracyError(
            f"rotated zeta has imaginary part {drift:.2e}; kernel inaccurate"
        )
    return rotated.real


# Chunking of `_z_many`: a chunk shares the cutoff of its largest t, so each
# of its points pays for the terms between its own cutoff and that one.  A
# chunk ends before those wasted terms pass _EM_CHUNK_WASTE, about the fixed
# cost of one `_hurwitz_em` call (~190 us, ~3,500 terms at ~55 ns), or its
# points x cutoff pass _EM_CHUNK_TERMS, which bounds the term matrices to
# ~2 MB each.
_EM_CHUNK_WASTE = 1 << 12
_EM_CHUNK_TERMS = 1 << 17


def _z_many(t: np.ndarray) -> np.ndarray:
    """Vectorized Hardy Z over arbitrary finite t > 0: the points are sorted
    and cut into chunks sized by their Euler-Maclaurin cutoffs
    N = ceil(t/2) + 10, so no point pays for a cutoff far above its own.
    theta is taken once for all points (`_theta_many` is elementwise, so
    this gives the same bits as per chunk)."""
    t = np.asarray(t, dtype=np.float64)
    if not np.all((t > 0.0) & (t < math.inf)):
        raise DomainError("hardy_z requires finite t > 0")
    order = np.argsort(t, kind="stable")
    sorted_t = t[order]
    theta = _theta_many(sorted_t)
    cutoff = 0.5 * sorted_t + 11.0  # the cutoff at t, rounded up
    out = np.empty_like(sorted_t)
    lo = 0
    while lo < sorted_t.size:
        # work and waste of the chunks [lo, lo + k), k = 1, 2, ...; both grow
        # with k, and as every cutoff exceeds 11 no chunk passes the window
        window = cutoff[lo : lo + _EM_CHUNK_TERMS // 11]
        work = np.arange(1, window.size + 1) * window
        waste = work - np.cumsum(window)
        fits = (waste <= _EM_CHUNK_WASTE) & (work <= _EM_CHUNK_TERMS)
        hi = lo + max(1, int(np.count_nonzero(fits)))
        out[lo:hi] = _z_chunk(sorted_t[lo:hi], theta[lo:hi])
        lo = hi
    result = np.empty_like(out)
    result[order] = out
    return result


def hardy_z(t: float) -> float:
    """Hardy's real rotation of zeta on the critical line; its sign changes
    bracket the zero ordinates."""
    return float(_z_many(np.array([float(t)]))[0])


# ----------------------------------------------------------------------
# Riemann-Siegel Z (zero search only)
# ----------------------------------------------------------------------

_RS_MIN_T = 200.0  # Gabcke's remainder bound holds from here; below, Euler-Maclaurin is cheap

# Taylor coefficients of Psi(1/2 + x), Psi(p) = cos 2pi(p^2 - p - 1/16) / cos 2pi p,
# in the even powers x^0, x^2, ..., x^50 (Psi is even about p = 1/2; the odd
# coefficients vanish).  Generated once with mpmath.taylor at 60 digits.
_PSI_TAYLOR = (
    0.3826834323650898, 1.7489618723100817, 2.118025207685496, -0.8707216670511481,
    -3.4733112243465167, -1.6626947308999325, 1.216731288919232, 1.3014304161007977,
    0.03051102182736167, -0.3755803051545095, -0.1085784416564066, 0.051832902999549624,
    0.029999480619902277, -0.0022759396706125644, -0.004382647416580339,
    -0.0004064230183729847, 0.0004006097785422114, 8.971057991388841e-05,
    -2.3025650027239108e-05, -9.380006601906792e-06, 6.323514947609108e-07,
    6.551022819231502e-07, 2.210523745552697e-08, -3.322316176445629e-08,
    -3.734910989933656e-09, 1.2445067060797738e-09,
)


def _rs_correction_polys() -> tuple[np.ndarray, ...]:
    """Gabcke's C0..C4 as polynomials in x = p - 1/2 (ascending coefficients),
    each a combination of derivatives of Psi (Edwards, ch. 7)."""
    psi = np.zeros(2 * len(_PSI_TAYLOR) - 1)
    psi[::2] = _PSI_TAYLOR
    d = [psi]  # d[j]: coefficients of the j-th derivative, zero-padded
    for _ in range(12):
        d.append(np.append(d[-1][1:] * np.arange(1.0, psi.size), 0.0))
    pi2 = math.pi**2
    return (
        d[0],
        -d[3] / (96.0 * pi2),
        d[2] / (64.0 * pi2) + d[6] / (18432.0 * pi2**2),
        -d[1] / (64.0 * pi2) - d[5] / (3840.0 * pi2**2) - d[9] / (5308416.0 * pi2**3),
        d[0] / (128.0 * pi2) + 19.0 * d[4] / (24576.0 * pi2**2)
        + 11.0 * d[8] / (5898240.0 * pi2**3) + d[12] / (2038431744.0 * pi2**4),
    )


_RS_CORRECTIONS = _rs_correction_polys()

# C0..C4 in powers of x^2: C0, C2 and C4 are even in x, C1 and C3 odd (their
# coefficients of the other parity are exact zeros), so row k holds the
# nonzero coefficients of C_k, and C1, C3 take one more factor x.
_RS_PARITY = np.array([np.append(poly, 0.0)[k % 2 :: 2] for k, poly in enumerate(_RS_CORRECTIONS)])

def _rs_corrections(x: np.ndarray) -> np.ndarray:
    """C0(x)..C4(x) as rows, by one Horner pass in x^2 over `_RS_PARITY`."""
    x2 = x * x
    acc = np.repeat(_RS_PARITY[:, -1:], x.size, axis=1)
    for col in _RS_PARITY.T[-2::-1]:
        acc *= x2
        acc += col[:, None]
    acc[1::2] *= x
    return acc


def _z_rs(t: np.ndarray) -> np.ndarray:
    """Riemann-Siegel Z(t) for t >= 200: the main sum
    2 sum_{n <= sqrt(t/2pi)} n^{-1/2} cos(theta - t ln n) plus the C0..C4
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
    """Bound on |Z_RS(t) - Z_EM(t)| for t >= 200: Gabcke's 0.017 t^(-11/4)
    for the remainder after C4, plus rounding: theta and t ln n are of size
    t ln t, so the phases carry absolute errors growing like t.  The
    rounding term is about 8 times the largest difference seen between the
    two kernels on 3,000 points of t in [3000, 1e4], 6.4e-15 t."""
    return 0.017 * t**-2.75 + 5e-14 * t


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
_ILLINOIS_RTOL = 1e-9  # fast-kernel brackets are narrowed to width <= this * t
_ILLINOIS_MAX_ITER = 100


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

    def error(self, t: np.ndarray) -> np.ndarray:
        """Bound on |fast(t) - em(t)|; below t = 200 it covers the rounding
        noise between Euler-Maclaurin evaluations with different cutoffs."""
        return np.where(t >= _RS_MIN_T, _rs_error_bound(t), 5e-14 * t)

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
    of Gram intervals rescanned.  Every Gram block below the good Gram point
    `gram[last]` must show as many sign changes as it spans Gram intervals
    (Rosser's rule); only the blocks that fall short are rescanned on the
    finer levels."""
    t_base, z_base = search.scan(gram, zg, np.arange(last), _LEVELS[0])
    t_rows, z_rows = list(t_base), list(z_base)
    changes = np.count_nonzero(_sign_changes(z_base), axis=1)
    ends = good[(good > 0) & (good <= last)]
    starts = np.concatenate(([0], ends[:-1]))
    escalated = 0
    for level in _LEVELS[1:] + (None,):
        short = np.flatnonzero(np.add.reduceat(changes, starts) < ends - starts)
        if short.size == 0:
            break
        if level is None:
            b = int(short[0])
            raise MissedZeroError(
                f"Gram block g_{starts[b] - 1}..g_{ends[b] - 1} holds fewer than "
                f"{ends[b] - starts[b]} sign changes at {_LEVELS[-1]} cells per interval"
            )
        idx = np.concatenate([np.arange(starts[b], ends[b]) for b in short])
        t, z = search.scan(gram, zg, idx, level)
        changes[idx] = np.count_nonzero(_sign_changes(z), axis=1)
        for i, row_t, row_z in zip(idx, t, z):
            t_rows[i], z_rows[i] = row_t, row_z
        escalated += idx.size

    t_lo = np.concatenate([t[:-1] for t in t_rows])
    t_hi = np.concatenate([t[1:] for t in t_rows])
    z_lo = np.concatenate([z[:-1] for z in z_rows])
    z_hi = np.concatenate([z[1:] for z in z_rows])
    hit = np.flatnonzero(z_lo * z_hi < 0.0)[:count]
    return t_lo[hit], t_hi[hit], z_lo[hit], z_hi[hit], escalated


def _illinois(search: _Search, a, b, fa, fb):
    """Vectorized Illinois regula falsi (Dowell & Jarratt 1971) on the fast
    kernel, over the brackets still wider than _ILLINOIS_RTOL * t.  Returns
    the final bracket ends."""
    a, b, fb = a.copy(), b.copy(), fb.copy()
    wa = fa.copy()  # Z(a), halved each time a is retained
    active = np.flatnonzero(np.abs(b - a) > _ILLINOIS_RTOL * b)
    for _ in range(_ILLINOIS_MAX_ITER):
        if active.size == 0:
            return a, b
        aa, bb, wwa, ffb = a[active], b[active], wa[active], fb[active]
        c = bb - ffb * (bb - aa) / (ffb - wwa)
        fc = search.fast(c)
        flip = fc * ffb < 0.0
        a[active] = np.where(flip, bb, aa)
        wa[active] = np.where(flip, ffb, 0.5 * wwa)
        b[active], fb[active] = c, fc
        keep = (np.abs(c - a[active]) > _ILLINOIS_RTOL * c) & (fc != 0.0)
        active = active[keep]
    raise AccuracyError(f"Illinois iteration left {active.size} brackets unconverged")


def _central_slope(search: _Search, mid: np.ndarray):
    """Signed slope of the fast kernel at `mid`, and the value there of the
    chord it spans: a central difference over _ILLINOIS_RTOL * mid, because
    the final Illinois bracket can be so narrow that rounding dominates its
    end values."""
    h = _ILLINOIS_RTOL * mid
    f = search.fast(np.concatenate([mid - h, mid + h]))
    f_lo, f_hi = f[: mid.size], f[mid.size :]
    return (f_hi - f_lo) / (2.0 * h), 0.5 * (f_lo + f_hi)


def _refine(search: _Search, a, b):
    """Fast-kernel roots of the brackets (a, b) with a certificate window:
    the root r of the central chord, moved by one step along that chord, and
    delta = 2 (error(r) + target) / |Z'| + 4 ulps of r, twice the distance
    to the Euler-Maclaurin root that the fast kernel's error bound allows.
    Brackets whose slope is 0 or not finite get no root; returns the indices
    of the others with their r and delta."""
    mid = 0.5 * (a + b)
    slope, f_mid = _central_slope(search, mid)
    idx = np.flatnonzero(np.isfinite(slope) & (slope != 0.0))
    slope = slope[idx]
    r = mid[idx] - f_mid[idx] / slope
    r -= search.fast(r) / slope
    delta = 2.0 * (search.error(r) + _TARGET_ABS_ERROR) / np.abs(slope)
    return idx, r, delta + 4.0 * np.spacing(r)


def _certify(search: _Search, a, b):
    """12-digit zeros settled without Euler-Maclaurin polish.  Each root of
    `_refine` is confirmed by a sign change of Z at r -/+ delta (Euler-
    Maclaurin signs, by `_Search.signs`), so the zero lies in that window;
    it is settled where both window ends round to the same 12 digits.
    Returns the rounded zeros and the mask of settled ones."""
    idx, r, delta = _refine(search, a, b)
    ends = np.concatenate([r - delta, r + delta])
    z = search.signs(ends)
    same = np.flatnonzero(z[: r.size] * z[r.size :] >= 0.0)
    if same.size:
        bad = int(same[0])
        raise AccuracyError(
            f"no Euler-Maclaurin sign change on [{ends[bad]:.12g}, {ends[r.size + bad]:.12g}]"
        )
    rounded = _quantize_many(ends)
    values = np.zeros(a.size)
    settled = np.zeros(a.size, dtype=bool)
    values[idx] = rounded[: r.size]
    settled[idx] = rounded[: r.size] == rounded[r.size :]
    return values, settled


def _polish(search: _Search, a, b) -> np.ndarray:
    """Euler-Maclaurin roots from fast-kernel brackets: widen each bracket by
    the fast kernel's error over the slope of Z, confirm the sign change on
    Euler-Maclaurin, and take two secant steps."""
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    slope = np.abs(_central_slope(search, 0.5 * (lo + hi))[0])
    flat = np.flatnonzero(~(np.isfinite(slope) & (slope > 0.0)))
    if flat.size:
        bad = int(flat[0])
        raise AccuracyError(f"slope {slope[bad]:.3g} of Z on [{lo[bad]:.12g}, {hi[bad]:.12g}]")
    pad = 2.0 * search.error(hi) / slope
    lo, hi = lo - pad, hi + pad
    f = search.em(np.concatenate([lo, hi]))
    flo, fhi = f[: lo.size], f[lo.size :]
    if np.any(flo * fhi >= 0.0):
        bad = int(np.flatnonzero(flo * fhi >= 0.0)[0])
        raise AccuracyError(
            f"no Euler-Maclaurin sign change on [{lo[bad]:.12g}, {hi[bad]:.12g}]"
        )
    c1 = hi - fhi * (hi - lo) / (fhi - flo)
    f1 = search.em(c1)
    left = f1 * flo < 0.0  # the root lies between lo and c1
    other = np.where(left, lo, hi)
    f_other = np.where(left, flo, fhi)
    return c1 - f1 * (c1 - other) / (f1 - f_other)


def find_zeros(count: int) -> ZeroTable:
    """First `count` zero ordinates.  Sign changes of Z on 8 cells per Gram
    interval (Riemann-Siegel from t = 200, Euler-Maclaurin below and where
    Riemann-Siegel cannot settle the sign) bracket them; Gram blocks short of
    Rosser's count are rescanned at 64, 512 and 4096 cells.  Illinois regula
    falsi narrows each bracket to 1e-9 t on the same fast kernel, whose chord
    root settles the 12 digits wherever its certified window (`_certify`)
    rounds to one value; the other zeros, mostly below t ~ 600 where the
    Riemann-Siegel bound is coarse, are polished by two Euler-Maclaurin
    secant steps.  The table is audited against the smooth counting
    formula."""
    if count < 1:
        raise DomainError("count must be >= 1")
    if count > _MAX_ZEROS:
        raise DomainError(f"zero search supports at most {_MAX_ZEROS} zeros")

    search = _Search()
    gram, zg, good, last = _gram_blocks(search, count)
    lo, hi, zlo, zhi, escalated = _bracket(search, gram, zg, good, last, count)
    a, b = _illinois(search, lo, hi, zlo, zhi)
    quantized, settled = _certify(search, a, b)
    rest = np.flatnonzero(~settled)
    quantized[rest] = _quantize_many(_polish(search, a[rest], b[rest]))
    g_max = float(quantized[-1])
    half_ulp = 0.5 * 10.0 ** (math.floor(math.log10(g_max)) - 11)
    abs_error = max(1e-11, half_ulp)
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
    lines.extend(format(g, ".12g") for g in table.gammas)
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
