"""Quenched thermodynamics of the randomized boson gas.

The gas has partition function zeta(beta omega); omega is random.  For a
discrete ensemble (frequencies omega_k with masses P_k) the average free
energy density is

    f(beta) = -(1/(beta V)) sum_k P_k ln zeta(omega_k beta),

singular once beta omega_1 <= 1 (the Hagedorn point).  For the continuum
ensemble with density lam exp(-lam omega) the average is finite at every
temperature, because the zeta pole enters only as the integrable ln|s - 1|
in int_0^inf e^(-kappa s) ln|zeta(s)| ds, kappa = lam/beta, but it picks up
the imaginary part -(pi/(beta V)) (1 - exp(-lam/beta)) from the segment
0 < s < 1 where zeta is negative.  The real part is computed as the
quadrature of e^(-kappa s) L(s), with the smooth L(s) = ln((s-1) zeta(s)),
plus -int_0^2 e^(-kappa s) ln|s - 1| ds in closed form (Ei and E1); from
kappa = 40 on, it is Watson's series in 1/kappa, with no quadrature.

The average energy density is eps = d(beta f)/d beta.  Integrated by parts,
its principal value of zeta'/zeta becomes the integral of ln|zeta| that f
takes, under the weight (1 - kappa s) e^(-kappa s):

    eps = -(lam/V) PV int_0^inf omega e^(-lam omega) (zeta'/zeta)(beta omega) d omega
        = (lam/(beta^2 V)) int_0^inf (1 - kappa s) e^(-kappa s) ln|zeta(s)| ds,

the module's ground truth, ``energy_oracle``.  It is also expanded through
the pole/zero decomposition of zeta'/zeta into six pieces eps1..eps6 (pole,
nontrivial zeros in pairs, trivial zeros in their convergent combination,
and constants), whose sum is checked against the oracle.  eps3 (the
nontrivial zeros) is the complex-E1 kernel on the table plus a quadrature
of the same kernel against the zero density past it; eps5 (the trivial
zeros) is a sum of the E1 kernel at 2k lam/beta with an Euler-Maclaurin
tail.  The breakdown is one E1 call and one integrate_rows call.

Closed forms printed in terms of Ei and the factorially divergent series
sum g(k) (beta/lam)^k are also provided verbatim ("printed" forms) with
their deviations from the oracle reported, never asserted.

A continuum beta grid is one ``thermo_scan``.  f and eps at every beta
are transforms at the rate kappa of the one function ln|zeta(s)|, so every
beta adds rows to one ``quadrature.integrate_rows`` call, which evaluates
L once per distinct panel of a dyadic tree that all rows share.  Each row
refines on its own, so every point equals the one computed alone, and on
failure the scan raises what a beta-by-beta loop raises first.  A discrete
grid is one zeta pass on all omega_k beta of its finite points; a beta at or
past the Hagedorn point becomes a flagged point with nan values.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import AccuracyError, DomainError, HagedornError, RgasError
from .numkernel import (
    EULER_GAMMA,
    _B_OVER_FACT,
    _exp_neg_ei,
    _log_regular_zeta_real_many,
    _z_exp_e1,
    _zeta_em_many,
    zeta,
)
from .quadrature import RowSet, dyadic_edges, fuse_rows, integrate_rows
from .superzeta import EXPANSION_CONSTANT, _S_FLUCTUATION, _tail_start, sum_inverse_rho
from .zerofinder import ZeroTable, _fields_equal

__all__ = [
    "EnsembleSpec",
    "ThermoPoint",
    "EnergyBreakdown",
    "PRINTED_EXPANSION_CONSTANT",
    "free_energy_discrete",
    "energy_entropy_discrete",
    "hagedorn_scan",
    "free_energy_continuum",
    "free_energy_im_closed_form",
    "energy_oracle",
    "energy_breakdown",
    "series_coefficient",
    "thermo_point",
    "thermo_scan",
]

# The printed value of the expansion constant, -1 - zeta'(0)/zeta(0); the
# oracle-consistent constant is EXPANSION_CONSTANT = zeta'(0)/zeta(0) - 1.
# Both are carried so the deviation can be reported.
PRINTED_EXPANSION_CONSTANT = -1.0 - math.log(2.0 * math.pi)

# The printed series is cut below this index, and zeta(k) is tabulated up to it.
_SERIES_END = 400


@dataclass(frozen=True)
class EnsembleSpec:
    """Disorder specification: discrete frequency grid with masses, or the
    exponential continuum with rate lam; plus the system volume."""

    kind: str
    volume: float = 1.0
    omegas: np.ndarray | None = None
    masses: np.ndarray | None = None
    rate: float | None = None

    def __post_init__(self) -> None:
        if not (self.volume > 0.0 and math.isfinite(self.volume)):
            raise DomainError("volume must be positive and finite")
        if self.kind == "discrete":
            om = np.asarray(self.omegas, dtype=np.float64)
            ms = np.asarray(self.masses, dtype=np.float64)
            if om.ndim != 1 or om.size == 0 or om.shape != ms.shape:
                raise DomainError("discrete spec needs matching omega/mass arrays")
            if not (np.all(np.isfinite(om)) and np.all(np.isfinite(ms))):
                raise DomainError("omegas and masses must be finite")
            if om[0] <= 0.0 or np.any(np.diff(om) <= 0.0):
                raise DomainError("omegas must be ascending and positive")
            if np.any(ms < 0.0):
                raise DomainError("masses must be non-negative")
            if abs(float(ms.sum()) - 1.0) > 1e-12:
                raise DomainError("masses must sum to 1 within 1e-12")
            om.setflags(write=False)
            ms.setflags(write=False)
            object.__setattr__(self, "omegas", om)
            object.__setattr__(self, "masses", ms)
        elif self.kind == "continuum":
            if self.rate is None or not (self.rate > 0.0 and math.isfinite(self.rate)):
                raise DomainError("continuum spec needs a positive, finite rate")
        else:
            raise DomainError("kind must be 'discrete' or 'continuum'")

    __eq__ = _fields_equal

    @staticmethod
    def discrete(omegas, masses, volume: float = 1.0) -> "EnsembleSpec":
        return EnsembleSpec("discrete", volume, np.asarray(omegas, float), np.asarray(masses, float), None)

    @staticmethod
    def continuum(rate: float, volume: float = 1.0) -> "EnsembleSpec":
        return EnsembleSpec("continuum", volume, None, None, float(rate))


@dataclass(frozen=True)
class ThermoPoint:
    """One temperature point: complex free energy density, energy density,
    entropy density, and status flags.

    For the continuum, ``abs_error`` holds the error budgets of f and eps
    (its row's estimate times lam/(beta^2 V), or from kappa = lam/beta = 40
    on the bound of Watson's series plus rounding; eps adds a bound on ln
    zeta past the last panel, f the rounding of Im f), not printed, and
    ``converged`` whether every row met its tolerance; a point where one
    did not has the flag ``unconverged``.  A discrete point has no
    quadrature: its ``abs_error`` is None, and its zeta values pass the
    Euler-Maclaurin accuracy gate or raise.  A discrete beta at or past the
    Hagedorn point beta omega_1 <= 1 has nan f, eps and entropy and the flag
    ``hagedorn_divergent``."""

    beta: float
    f: complex
    eps: float
    entropy: float
    flags: frozenset[str] = field(default_factory=frozenset)
    abs_error: tuple[float, float] | None = None
    converged: bool = True


@dataclass(frozen=True)
class EnergyBreakdown:
    """The six-term split of the average energy density, its vacuum/thermal
    regrouping, the quadrature oracle, and the verbatim printed closed forms
    with their (reported, never asserted) deviations."""

    beta: float
    rate: float
    volume: float
    eps1: float
    eps2: float
    eps3: float
    eps4: float
    eps5: float
    eps6: float
    eps_a: float
    eps_b: float
    total: float
    oracle: float
    abs_error: float
    # verbatim printed forms and their deviations
    eps1_printed: float
    eps3_printed: float
    eps5_printed: float
    thermal_printed: float
    printed_truncation_index: int
    printed_truncation_error: float
    deviation_eps1: float
    deviation_eps3: float
    deviation_thermal: float


# ----------------------------------------------------------------------
# discrete ensemble
# ----------------------------------------------------------------------

_DIVERGENT = frozenset({"hagedorn_divergent"})


def _discrete_points(spec: EnsembleSpec, betas, with_energy: bool) -> list[ThermoPoint]:
    """The thermo points of a discrete ensemble along betas, from one
    ``_zeta_em_many`` call on all omega_k beta of the finite betas (an
    omega_k beta past the float range reads zeta = 1).  A beta at or past
    the Hagedorn point beta omega_1 <= 1 becomes a flagged point with nan
    values; a finite point whose f, eps or entropy leaves the float range
    raises AccuracyError.  Without the energy, eps and entropy are nan and
    the value-only call keeps the accuracy gate of zeta; with it the gate is
    that of zeta'.  On failure it raises what a loop over the betas, one
    pass each, raises first."""
    if spec.kind != "discrete":
        raise DomainError("discrete ensemble required")
    betas = [float(b) for b in betas]
    try:
        return _discrete_block(spec, betas, with_energy)
    except RgasError:
        if len(betas) > 1:
            for beta in betas:
                _discrete_block(spec, [beta], with_energy)
        raise


def _discrete_block(spec: EnsembleSpec, betas: list, with_energy: bool) -> list[ThermoPoint]:
    for beta in betas:
        if not beta > 0.0:
            raise DomainError("beta must be positive")
    omega_1 = float(spec.omegas[0])
    finite = [beta for beta in betas if beta * omega_1 > 1.0]
    with np.errstate(over="ignore"):  # a beta omega_k past the float range reads zeta = 1
        s = np.multiply.outer(finite, spec.omegas).ravel()
    z, d = _zeta_em_many(s, want_derivative=True) if with_energy else (_zeta_em_many(s), None)
    k = spec.omegas.size
    nan = math.nan
    points, row = [], 0
    for beta in betas:
        if beta * omega_1 <= 1.0:
            points.append(ThermoPoint(beta, complex(nan, nan), nan, nan, _DIVERGENT))
            continue
        zb = z[row * k : (row + 1) * k]
        with np.errstate(all="ignore"):  # a value past the float range is refused below
            f = float(-(spec.masses @ np.log(zb)) / (beta * spec.volume))
            eps = nan
            if d is not None:
                db = d[row * k : (row + 1) * k]
                eps = float(-(spec.masses @ (spec.omegas * (db / zb))) / spec.volume)
        entropy = beta * (eps - f)
        if not all(math.isfinite(v) for v in ((f, eps, entropy) if d is not None else (f,))):
            raise AccuracyError(f"thermo at beta = {beta!r} exceeds the float range")
        points.append(ThermoPoint(beta, complex(f, 0.0), eps, entropy))
        row += 1
    return points


def _finite_point(spec: EnsembleSpec, beta: float, with_energy: bool) -> ThermoPoint:
    """The discrete point at beta; HagedornError where it is flagged."""
    (point,) = _discrete_points(spec, [beta], with_energy)
    if point.flags:
        raise HagedornError(
            f"beta*omega_1 = {point.beta * float(spec.omegas[0]):.6g} <= 1: "
            "free energy diverges at the zeta pole"
        )
    return point


def free_energy_discrete(spec: EnsembleSpec, beta: float) -> float:
    """-(1/(beta V)) sum_k P_k ln zeta(omega_k beta) for beta omega_1 > 1.

    All omega_k beta go to the zeta kernel in one vectorized call; raises
    HagedornError at or beyond the Hagedorn point beta omega_1 <= 1."""
    return _finite_point(spec, beta, with_energy=False).f.real


def energy_entropy_discrete(spec: EnsembleSpec, beta: float) -> tuple[float, float]:
    """Energy density (1/V) sum_k P_k omega_k (-zeta'/zeta)(omega_k beta) and
    entropy density beta (eps - f).

    zeta and zeta' at all omega_k beta come from one vectorized kernel call
    that also yields f, so f is not evaluated a second time."""
    point = _finite_point(spec, beta, with_energy=True)
    return point.eps, point.entropy


def hagedorn_scan(spec: EnsembleSpec, beta_grid) -> list[ThermoPoint]:
    """The free energy view of a discrete thermo_scan: the same points with
    nan eps and entropy, from one value-only kernel pass per grid."""
    return _discrete_points(spec, beta_grid, with_energy=False)


# ----------------------------------------------------------------------
# continuum ensemble
# ----------------------------------------------------------------------

def _im_free_energy(kappa: float, beta: float, volume: float) -> float:
    """Im f = -(pi/(beta V)) (1 - e^(-kappa)), kappa = lam/beta: the principal
    branch of ln zeta is +pi on 0 < s < 1, where zeta < 0, and 0 past it."""
    return -(math.pi * -math.expm1(-kappa)) / beta / volume


def free_energy_im_closed_form(spec: EnsembleSpec, beta: float) -> float:
    """Im f = -(pi/(beta V)) (1 - exp(-lam/beta)), the imaginary part of
    free_energy_continuum; AccuracyError where it leaves the float range."""
    if spec.kind != "continuum":
        raise DomainError("continuum ensemble required")
    if not beta > 0.0:
        raise DomainError("beta must be positive")
    im = _im_free_energy(spec.rate / beta, beta, spec.volume)
    if not math.isfinite(im):
        raise AccuracyError(f"Im f at beta = {beta!r} exceeds the float range")
    return im


# 2 / ((2j+1) (2j+1)!), j = 0..9: 2 Shi(k)/k = sum_j c_j k^(2j) to double
# precision for k <= 1 (the j = 9 term is below 5e-19)
_SHI_COEF = tuple(2.0 / ((2 * j + 1) * math.factorial(2 * j + 1)) for j in range(10))


def _window_z(kappa: np.ndarray) -> np.ndarray:
    """The E1 arguments -k, then k, of the pole windows of 1 < kappa < _WATSON_KAPPA."""
    k = kappa[(kappa > 1.0) & (kappa < _WATSON_KAPPA)]
    return np.concatenate((-k, k))


def _e1_parts(*parts) -> list:
    """(h, g) of _z_exp_e1 on each array of z from one kernel call, none if
    all are empty; the kernel is elementwise, so each is its own call's."""
    z = np.concatenate([np.asarray(p, dtype=np.complex128).reshape(-1) for p in parts])
    h, g = _z_exp_e1(z) if z.size else (z, z)
    ends = list(itertools.accumulate(np.size(p) for p in parts))
    return [(h[a:b], g[a:b]) for a, b in zip([0] + ends, ends)]


def _pole_log_window(kappa: np.ndarray, e1=None) -> np.ndarray:
    """The pole window -int_0^2 e^(-kappa s) ln|s - 1| ds, which equals
    e^(-kappa) (Ei(kappa) + E1(kappa))/kappa, for an array of kappa > 0,
    elementwise.  Above kappa = 1 it is
    (e^(-kappa) Ei(kappa) + e^(-2 kappa) g(kappa)/kappa)/kappa with
    g = kappa e^kappa E1(kappa), from e1, (h, g) at -k and then k for the
    kappas k above 1, if given; at or below 1, where Ei and E1 nearly
    cancel, the same value as 2 e^(-kappa) Shi(kappa)/kappa by its series."""
    kappa = np.asarray(kappa, dtype=np.float64)
    out = np.empty_like(kappa)
    small = kappa <= 1.0
    if small.any():
        k2 = kappa[small] ** 2
        series = np.zeros_like(k2)
        for c in reversed(_SHI_COEF):
            series = series * k2 + c
        out[small] = np.exp(-kappa[small]) * series
    if not small.all():
        k = kappa[~small]
        _, g = _e1_parts(np.concatenate((-k, k)))[0] if e1 is None else e1
        out[~small] = (g[: k.size].real / k + np.exp(-2.0 * k) * g[k.size :].real / k) / k
    return out


def _energy_pole_window(kappa: np.ndarray, e1=None) -> np.ndarray:
    """The pole window of eps, -int_0^2 (1 - kappa s) e^(-kappa s) ln|s - 1| ds
    = d/dkappa [kappa W] = (1 - e^(-2 kappa))/kappa - kappa W, W the window of
    f, for an array of kappa >= 0, elementwise.  Above kappa = 1, where the two
    terms cancel to ~ -1/kappa^2, it is -(Re h(-kappa) + e^(-2 kappa) (1 +
    g(kappa)))/kappa with h = g - 1 the E1 kernel (e1 as in the window of
    f), terms that do not cancel."""
    kappa = np.asarray(kappa, dtype=np.float64)
    out = np.empty_like(kappa)
    small = kappa <= 1.0
    if small.any():
        k = kappa[small]
        # (1 - e^(-2 kappa))/kappa tends to 2 at kappa = 0
        ratio = np.divide(-np.expm1(-2.0 * k), k, out=np.full_like(k, 2.0), where=k > 0.0)
        out[small] = ratio - k * _pole_log_window(k)
    if not small.all():
        k = kappa[~small]
        h, g = _e1_parts(np.concatenate((-k, k)))[0] if e1 is None else e1
        out[~small] = -(h[: k.size].real + np.exp(-2.0 * k) * (1.0 + g[k.size :].real)) / k
    return out


# the rows of a continuum point: Re f, eps
_RE, _EPS = range(2)


# Taylor coefficients a_n of ln(-zeta(s)) at s = 0, n = 0..35 (a_0 = -ln 2,
# a_1 = ln 2pi, n a_n -> 1 from the pole at s = 1), generated once with
# mpmath at 50 digits as the Cauchy sum (1/512) sum_k ln(-zeta(r w^k)) (r w^k)^-n
# with w = e^(2 pi i/512) and r = 9/10
_LOG_ZETA_TAYLOR = (
    -0.6931471805599453, 1.8378770664093456, 0.317460400291874, 0.38345609037546713,
    0.23307029266794804, 0.2064806554509749, 0.16401738268215166, 0.14398253332910535,
    0.12450972769481046, 0.111328560845996, 0.09990224662412245, 0.09095350205029076,
    0.08331298327460386, 0.07693246809939659, 0.0714242115075329, 0.06666870123410693,
    0.062499046311109294, 0.05882397820310579, 0.055555343627120696, 0.05263167933433013,
    0.04999995231623869, 0.04761907032558979, 0.04545453461733473, 0.04347826605257842,
    0.041666664183139655, 0.04000000119209293, 0.03846153788841687, 0.03703703731298447,
    0.03571428558123963, 0.0344827586849188, 0.03333333330228925, 0.03225806453115036,
    0.031249999992724042, 0.03030303030655804, 0.029411764704170364, 0.02857142857226011,
)
_TAYLOR_A = np.array(_LOG_ZETA_TAYLOR)
_TAYLOR_N = np.arange(_TAYLOR_A.size, dtype=np.float64)
# kappa_0, from which a continuum point is Watson's series, and its split rho
_WATSON_KAPPA, _WATSON_RHO = 40.0, 0.95


def _watson(kappa: np.ndarray) -> tuple:
    """(kappa I, kappa J, budget of kappa I, budget of kappa J) for kappa >=
    _WATSON_KAPPA, where I, J = int_0^inf w ln|zeta(s)| ds are the
    s-integrals of f and eps, w = e^(-kappa s) resp. (1 - kappa s) e^(-kappa s).

    ln|zeta| = ln(-zeta) = sum a_n s^n on |s| < 1, so by Watson's lemma
    (Olver, Asymptotics and Special Functions, 1974, ch. 3 sec. 3) kappa I ~
    sum a_n c_n and kappa J ~ -sum n a_n c_n, c_n = n!/kappa^n a running
    product of j/kappa < 1, over the N = 36 terms of _LOG_ZETA_TAYLOR.  The
    bound: |w| <= W = e^(-kappa s) resp. (1 + kappa s) e^(-kappa s), which
    falls; P is the N-term polynomial and d = 1 - rho.  On [0, rho],
    |ln|zeta| - P| <= A s^N/(N d), as n |a_n| <= A = 1 + 1e-6 past N (the
    n a_n - 1 are n times the coefficients of ln((s - 1) zeta), analytic in
    |s| < 2 and at most 4.7 on |s| = 1.9), which integrates to the Watson
    remainder A (N-1)!/(d kappa^(N+1)), times N + 2 for J.  Past rho,
    |ln|zeta|| <= |ln|1 - s|| + 1/2, so int W |ln|zeta|| <= 2 d (1 + ln(1/d))
    W(rho) + (ln(1/d) + 1/2) int_rho^inf W; and W s^n <= W(rho) rho^n
    e^(-(kappa - N/rho)(s - rho)) for n < N, so int W |P| <= W(rho)
    A1/(kappa - N/rho), A1 = sum |a_n| rho^n.  kappa_0 = 40 > N/rho + 2;
    there the bound is 5e-15 of |I| and 3e-12 of |J| (the errors against
    mpmath are 1e-17 and 6e-15 of them), and it falls like e^(-kappa rho).
    Rounding adds 4 eps sum (n + 1) |t_n|: a term t_n takes 2n + 2
    roundings, the sum, from the last term, n + 1, and 1/(beta V) two."""
    n, rho = _TAYLOR_N.size, _WATSON_RHO
    ratio = _TAYLOR_N / kappa[:, None]
    ratio[:, 0] = 1.0
    c = np.cumprod(ratio, axis=1)
    values, errors = [], []
    for t in (c * _TAYLOR_A, c * -(_TAYLOR_N * _TAYLOR_A)):
        # running sums from the last term: a point alone equals it in a batch
        values.append(np.cumsum(t[:, ::-1], axis=1)[:, -1])
        rounding = np.cumsum(np.abs(t) * (_TAYLOR_N + 1.0), axis=1)[:, -1]
        errors.append(4.0 * sys.float_info.epsilon * rounding)
    d, a1 = 1.0 - rho, float(np.abs(_TAYLOR_A) @ rho**_TAYLOR_N)
    near, far = 2.0 * d * (1.0 - math.log(d)) + a1 / (kappa - n / rho), 0.5 - math.log(d)
    remainder = (1.0 + 1e-6) / d * np.exp(math.lgamma(n) - n * np.log(kappa))
    e, e_rho = np.exp(-rho * kappa), 1.0 + rho * kappa
    errors[0] += remainder + e * kappa * near + e * far
    errors[1] += (n + 2) * remainder + e * kappa * e_rho * near + e * (1.0 + e_rho) * far
    return (*values, *errors)


def _log_zeta_kernel(s: np.ndarray) -> np.ndarray:
    """ln|zeta(s)| + ln|s - 1| on [0, 2], which is the smooth L(s) =
    ln((s-1) zeta(s)), and ln zeta(s) = L(s) - ln(s - 1) past 2, for an
    array of s >= 0."""
    out = _log_regular_zeta_real_many(s)
    tail = s > 2.0
    out[tail] -= np.log(s[tail] - 1.0)
    return out


def _kappa(rate: float, beta: float) -> float:
    """kappa = lam/beta; DomainError unless beta > 0 and lam/beta^2 is finite."""
    if not beta > 0.0:
        raise DomainError("beta must be positive")
    kappa = rate / beta
    if not kappa / beta < math.inf:
        raise DomainError(
            f"kappa = lam/beta = {kappa:.6g} at beta = {beta:.6g}: lam/beta^2 is not finite"
        )
    return kappa


def _continuum_rows(spec: EnsembleSpec, betas: list, tol: float, kinds: tuple, window_e1=None) -> RowSet:
    """The rows of the continuum points at betas, whose finish gives
    (f, eps, entropy, (f budget, eps budget), converged) at each beta, with
    None for f unless kinds holds _RE, for eps unless it holds _EPS, and
    for the entropy unless it holds both.

    A beta with kappa = lam/beta >= _WATSON_KAPPA has no rows: kappa times
    the s-integrals of f and eps are Watson's series.  Each other beta has
    one row per kind, each to tol/2: e^(-kappa s) K(s) for Re f and
    (1 - kappa s) e^(-kappa s) K(s) for eps (K = _log_zeta_kernel).  The
    rows end at the first power of two past s_max, where the ln zeta tail
    (~2^-s) is below double precision; every row starts graded toward 0,
    down to a first leaf of at most min(1/2, 4/kappa), across which
    e^(-kappa s) falls by at most e^4, so most rows need one round.  The
    windows -int_0^2 w ln|s - 1| ds are added in closed form, from
    window_e1, (h, g) at _window_z of the kappas of the rows, if given, and
    Im f is _im_free_energy.  A beta where lam/beta^2 is not finite is refused."""
    if spec.kind != "continuum":
        raise DomainError("continuum ensemble required")
    kappas, ends, edges, rows = [], [], [], []
    for beta in betas:
        kappa = _kappa(spec.rate, beta)
        kappas.append(kappa)
        if kappa >= _WATSON_KAPPA:
            continue
        fine = max(1, math.ceil(math.log2(kappa / 4.0))) if kappa > 4.0 else 1
        last = math.ceil(math.log2(max(4.0, math.log(1e18) / (kappa + math.log(2.0)))))
        ends.append(2.0**last)
        edges += [dyadic_edges(-fine, last)] * len(kinds)
        rows += [(kappa, kind) for kind in kinds]
    row_kappa, row_kind = np.array(rows).reshape(-1, 2).T

    def weight(r, x):
        kx = row_kappa[r, None] * x
        w = np.exp(-kx)
        eps = row_kind[r] == _EPS
        w[eps] *= 1.0 - kx[eps]
        return w

    def finish(results):
        kappa_array = np.array(kappas)
        series = kappa_array >= _WATSON_KAPPA
        quad = kappa_array[~series]
        e1 = _e1_parts(_window_z(quad))[0] if window_e1 is None else window_e1
        window_f = _pole_log_window(quad, e1).tolist() if _RE in kinds else None
        window_eps = _energy_pole_window(quad, e1).tolist() if _EPS in kinds else None
        watson = zip(*(v.tolist() for v in _watson(kappa_array[series]))) if series.any() else None
        points, i = [], 0
        for beta, kappa in zip(betas, kappas):
            # kappa I, kappa J and their budgets, I and J the s-integrals, so
            # divide by beta, then by V: an order that cannot overflow beta^2
            if kappa >= _WATSON_KAPPA:
                re, j, re_err, j_err = next(watson)
                converged = True
            else:
                part = dict(zip(kinds, results[i * len(kinds) : (i + 1) * len(kinds)]))
                if _RE in part:
                    re = kappa * (part[_RE].value + window_f[i])
                    re_err = kappa * part[_RE].abs_error
                if _EPS in part:
                    # past the end, 0 < ln zeta(s) <= zeta(s) - 1 <= (5/3) 2^-s as
                    # s >= 4, and (1 + kappa s) e^(-decay s) integrates in closed form
                    decay, end = kappa + math.log(2.0), ends[i]
                    err = 5.0 / 3.0 * math.exp(-decay * end) * (1.0 + kappa * (end + 1.0 / decay)) / decay
                    err += part[_EPS].abs_error
                    if err > max(tol, 1e-12) * 50.0:
                        raise AccuracyError(f"energy oracle error estimate {err:.2e} too large")
                    j, j_err = kappa * (part[_EPS].value + window_eps[i]), kappa * err
                converged = all(r.converged for r in part.values())
                i += 1
            f = eps = entropy = f_err = eps_err = None
            if _RE in kinds:
                im = _im_free_energy(kappa, beta, spec.volume)
                f = complex(-re / beta / spec.volume, im)
                f_err = re_err / beta / spec.volume + 4.0 * sys.float_info.epsilon * abs(im)
            if _EPS in kinds:
                eps, eps_err = j / beta / spec.volume, j_err / beta / spec.volume
            if f is not None and eps is not None:
                entropy = beta * (eps - f.real)
            if not all(np.isfinite(v) for v in (f, eps, entropy) if v is not None):
                raise AccuracyError(
                    f"thermo at beta = {beta!r} exceeds the float range "
                    f"(lam/beta^2 = {kappa / beta:.6g})"
                )
            points.append((f, eps, entropy, (f_err, eps_err), converged))
        return points

    return RowSet(weight, edges, [tol / 2.0] * len(rows), [True] * len(rows), finish)


def _integrate(rows: RowSet):
    """rows.finish of integrate_rows on rows, with kernel _log_zeta_kernel."""
    results = integrate_rows(_log_zeta_kernel, rows.weight, rows.edges, rows.tols, rows.with_kernel)
    return rows.finish(results)


def _continuum(spec: EnsembleSpec, beta_grid, tol: float, kinds: tuple) -> list:
    """The finish of _continuum_rows on a beta grid, from one integrate_rows
    call.  On failure it raises what a loop over the betas, one call each,
    raises first."""
    betas = [float(b) for b in beta_grid]
    try:
        return _integrate(_continuum_rows(spec, betas, tol, kinds))
    except RgasError:
        if len(betas) > 1:
            for beta in betas:
                _integrate(_continuum_rows(spec, [beta], tol, kinds))
        raise


def free_energy_continuum(spec: EnsembleSpec, beta: float, tol: float = 1e-10) -> complex:
    """-(lam/(beta^2 V)) int_0^inf exp(-lam s / beta) log zeta(s) ds.

    The real part splits ln|zeta(s)| = L(s) - ln|s - 1| with the smooth
    L(s) = ln((s-1) zeta(s)): e^(-kappa s) L on [0, 2] and e^(-kappa s)
    ln zeta past it are one row on the panels of a dyadic tree (kappa =
    lam/beta), and -int_0^2 e^(-kappa s) ln|s - 1| ds, which holds the
    integrable singularity at the pole, is added in closed form; from
    kappa = 40 on, it is Watson's series in 1/kappa.  The principal-branch
    phase is exactly +pi where zeta < 0, i.e. on 0 < s < 1, and 0 past it,
    so the imaginary part is free_energy_im_closed_form at every kappa."""
    return _continuum(spec, [beta], tol, (_RE,))[0][0]


def energy_oracle(spec: EnsembleSpec, beta: float, tol: float = 1e-9) -> float:
    """Ground truth for the average energy density, eps = d(beta f)/d beta:

        eps = -(lam/V) PV int_0^inf omega e^(-lam omega) (zeta'/zeta)(beta omega) d omega
            = (lam/(beta^2 V)) int_0^inf (1 - kappa s) e^(-kappa s) ln|zeta(s)| ds,

    integrated by parts (kappa = lam/beta; the boundary terms vanish, the
    symmetric ones at the pole too).  The panels and the pole window, or
    from kappa = 40 on Watson's series, are those of free_energy_continuum
    under the weight (1 - kappa s) e^(-kappa s); a row's budget adds a
    closed-form bound on ln zeta past the last panel, and AccuracyError
    when the budget exceeds 50 max(tol, 1e-12)."""
    return _continuum(spec, [beta], tol, (_EPS,))[0][1]


# ----------------------------------------------------------------------
# printed closed forms
# ----------------------------------------------------------------------

@functools.cache
def _zeta_at_integers() -> np.ndarray:
    """zeta(k) at index k for k = 2.._SERIES_END-1 (indices 0 and 1 hold
    nan), from one batched real Euler-Maclaurin call.  zeta(k) is a
    constant, so the read-only table is kept for the life of the process;
    each entry equals the scalar zeta(k).real."""
    k = np.arange(2, _SERIES_END, dtype=np.float64)
    table = np.full(_SERIES_END, np.nan)
    table[2:] = _zeta_em_many(k)
    table.setflags(write=False)
    return table


def _zeta_integer(k: int) -> float:
    """zeta(k) for an integer k >= 2, from the table below _SERIES_END."""
    return float(_zeta_at_integers()[k]) if k < _SERIES_END else zeta(k).real


def series_coefficient(k: int) -> float:
    """g(k) = (-1)^k / 2^k * Gamma(k+1) * zeta(k), the coefficient of the
    digamma power series integrated against the exponential density."""
    if k < 2:
        raise DomainError("series coefficients start at k = 2")
    return (-1.0) ** k / 2.0**k * math.factorial(k) * _zeta_integer(k)


def _series_term(k: int, x: float) -> float:
    """g(k) x^k.  Where the plain product leaves the normal floats (x^k
    underflows for small x, and k! overflows a float past k = 170) the
    magnitude is exp(lgamma(k+1) + k ln(x/2)) zeta(k) instead.
    AccuracyError where the term exceeds the float range."""
    try:
        x_k = x**k if k <= 170 else 0.0
        term = series_coefficient(k) * x_k if x_k >= sys.float_info.min else 0.0
        if abs(term) < sys.float_info.min:
            magnitude = math.exp(math.lgamma(k + 1) + k * math.log(0.5 * x)) * _zeta_integer(k)
            term = -magnitude if k % 2 else magnitude
    except OverflowError:
        term = math.inf
    if math.isinf(term):
        raise AccuracyError(f"printed series term {k} at beta/lam = {x:.6g} exceeds the float range")
    return term


def _series_optimally_truncated(beta: float, lam: float) -> tuple[float, int, float]:
    """Sum to just before the smallest term; returns (sum, k_opt, omitted).
    Terms below the float range read 0 and do not end the sum; they occur
    only for x below ~0.003, whose smallest term lies past the index cap."""
    x = beta / lam
    total = 0.0
    prev = math.inf
    k = 2
    while k < _SERIES_END:
        term = _series_term(k, x)
        if term != 0.0 and abs(term) >= prev:
            return total, k - 1, abs(term)
        total += term
        prev = abs(term)
        k += 1
    return total, k - 1, prev


def _ei_terms(beta: float, lam: float, volume: float, g=None) -> list:
    """(lam/(beta^2 V)) e^(-x) Ei(x) and (lam/(4 beta^2 V)) e^(-x/4) Ei(x/4)
    at x = lam/beta, from one kernel call, or from g at -x and -x/4."""
    x = lam / beta
    scale = np.array([lam / (beta * beta * volume), lam / (4.0 * beta * beta * volume)])
    return _exp_neg_ei(np.array([x, 0.25 * x]), scale, g).tolist()


# ----------------------------------------------------------------------
# the six-term decomposition
# ----------------------------------------------------------------------

def _pair_z(gammas, beta: float, lam: float) -> np.ndarray:
    """The E1 arguments z = -lam rho/beta of the pair integrals; DomainError
    naming lam/beta where one leaves the float range."""
    gammas = np.asarray(gammas, dtype=np.float64)
    if not lam / beta * float(np.max(gammas, initial=0.0)) < math.inf:
        raise DomainError(f"lam/beta = {lam / beta:.6g} puts the pair integrals' E1 arguments past the float range")
    return (-lam / beta) * (0.5 + 1j * gammas)


def _pair_integrals(gammas, beta: float, lam: float, h=None) -> np.ndarray:
    """I(gamma) = int_0^inf omega e^(-lam omega) 2u/(u^2 + gamma^2) d omega
    with u = beta omega - 1/2, per gamma.  As 2u/(u^2 + gamma^2) =
    2 Re 1/(beta omega - rho), rho = 1/2 + i gamma, the Laplace transform
    of 1/(omega + a) gives I = -(2/(beta lam)) Re h(-lam rho/beta) with
    h(z) = z e^z E1(z) - 1: one kernel call, or h at _pair_z if given."""
    if h is None:
        h = _z_exp_e1(_pair_z(gammas, beta, lam))[0]
    return (-2.0 / (beta * lam)) * h.real


def _eps3_tail_rows(count: int, beta: float, lam: float, tol: float, edge_h=None) -> RowSet:
    """The pair integrals past the table as the integral of I against the
    zero density (1/2pi) ln(gamma/2pi) from T* on, with its bound: the
    quadrature error plus 2 |S| |I(T*)| for the counting fluctuation, I(T*)
    from edge_h, h at the _pair_z of T*, if given.  In gamma = T*/v^2 the
    integrand vanishes like v ln(1/v) at v = 0; it is one row on [0, 1],
    from dyadic panels graded toward v = 0, one kernel call per round."""
    t_star = _tail_start(count)

    def weight(rows, v):
        with np.errstate(over="ignore"):
            gam = t_star / (v * v)
        pair = _pair_integrals(gam.reshape(-1), beta, lam).reshape(v.shape)
        with np.errstate(over="ignore"):
            w = pair * np.log(gam / (2.0 * math.pi)) * gam / (math.pi * v)
        if not np.isfinite(w).all():
            raise DomainError(f"lam/beta = {lam / beta:.6g} puts the eps3 tail's integrand past the float range")
        return w

    def finish(results):
        edge = abs(float(_pair_integrals([t_star], beta, lam, edge_h)[0]))
        return results[0].value, results[0].abs_error + 2.0 * _S_FLUCTUATION * edge

    # graded down past v = sqrt(T* lam/beta), where gamma = beta/lam and the
    # integrand peaks; past 2^-450 T*/v^2 nears the float range, and there
    # beta/lam is far past where the printed series leaves it
    peak = 0.5 * (math.log2(t_star) + math.log2(lam) - math.log2(beta))
    first = min(-20, math.floor(peak) - 2) if peak > -450.0 else -20
    return RowSet(weight, [dyadic_edges(first, 0)], [tol], [False], finish)


def _eps3_tail(count: int, beta: float, lam: float, tol: float) -> tuple[float, float]:
    """(value, bound) of the tail row alone."""
    return _integrate(_eps3_tail_rows(count, beta, lam, tol))


# eps5's sum: k < _EPS5_HEAD from the E1 batch, then Euler-Maclaurin to order
# _EPS5_ORDER, from z = _EPS5_SERIES_Z on with the series (13 terms, 1 omitted)
_EPS5_HEAD, _EPS5_ORDER, _EPS5_SERIES_Z = 32, 6, 128.0
_EPS5_B, _EPS5_N = np.array(_B_OVER_FACT[: _EPS5_ORDER + 1]), np.arange(1.0, 2 * _EPS5_ORDER + 2)
_EPS5_C = [math.factorial(n - 1) / _EPS5_HEAD**n for n in range(1, _EPS5_N.size + 1)]
_EPS5_K, _EPS5_M = np.arange(1.0, _EPS5_HEAD + 1.0), np.arange(2.0, 16.0)[:, None]
_EPS5_SERIES = (-1.0) ** (_EPS5_M + _EPS5_N) * _EPS5_M / float(_EPS5_HEAD) ** _EPS5_N * np.array(
    [[math.factorial(m + n - 1) for n in range(1, 14)] for m in range(2, 16)], dtype=float)


def _eps5(beta: float, lam: float, volume: float, e1=None) -> tuple[float, float]:
    """(eps5, budget): the trivial zeros' piece, (1/(2V)) int lam e^(-lam w)
    w psi(1 + beta w/2) dw.  psi(1 + y) = -gamma + sum_k y/(k (k + y)) makes
    each k an E1 transform: with x = beta/lam and z_k = 2k/x,

        eps5 = -gamma/(2 lam V) + (1/(beta V)) sum_{k>=1} phi(z_k),  phi = 1/z + h,

    h = g - 1 the E1 kernel, from e1, (h, g) at 2 _EPS5_K/x, if given.  From
    K = _EPS5_HEAD on the sum is Euler-Maclaurin: (x/2)(1 - (z - 1) u) +
    phi/2 - sum_{j<=p} b_j w^n phi^(n) at z = z_K, u = g/z = e^z E1(z), n =
    2j - 1, b_j = B_2j/(2j)!, w = 2/x.  u' = u - 1/z gives A_n = w^n u^(n) =
    w A_(n-1) + (-1)^n (n-1)!/K^n from A_0 = u, and w^n phi^(n) = (-1)^n
    n!/(z K^n) + z A_n + n w A_(n-1); from z = _EPS5_SERIES_Z on, where that
    cancels, it is sum_m (-1)^(m+n) m (m+n-1)!/(K^n z^m), termwise from
    phi ~ sum_{m>=2} (-1)^m m!/z^m.

    The budget is a bound.  phi(z) = int_0^inf e^(-t) t^2/(z (z + t)) dt is
    completely monotone, so the Euler-Maclaurin remainder lies between 0 and
    the first omitted term (Knuth, TAOCP 1, 1.2.11.2).  Expanding 1/(z + t)
    in t/z, the series envelops phi and each phi^(n) (and, summed over k,
    the printed series envelops eps5), so its first omitted term bounds its
    remainder.  Rounding adds 8 eps times the magnitudes of the terms (h
    and g are within 1e-15 relative)."""
    x, z = beta / lam, _EPS5_K * (2.0 / (beta / lam))
    h, g = (v.real for v in (_e1_parts(z)[0] if e1 is None else e1))
    zk, uk, w = z[-1], g[-1] / z[-1], 2.0 / x
    if zk < _EPS5_SERIES_Z:  # A_n, and the same sum of magnitudes
        a, a_size, d, size, cut = uk, uk, [], [], 0.0
        for n, c in enumerate(_EPS5_C, 1):
            sc = (-1) ** n * c
            d.append(n * sc / zk + zk * (w * a + sc) + n * w * a)
            size.append(n * c / zk + zk * (w * a_size + c) + n * w * a_size)
            a, a_size = w * a + sc, w * a_size + c
    else:
        t = _EPS5_SERIES * zk**-_EPS5_M
        d, size, cut = t[:-1].sum(axis=0), np.abs(t[:-1]).sum(axis=0), np.abs(t[-1])
    em, phi, eps = _EPS5_B * np.asarray(d)[::2], 1.0 / z + h, 8.0 * sys.float_info.epsilon
    total = np.sum(phi[:-1]) + (0.5 * x * (1.0 - (zk - 1.0) * uk) + 0.5 * phi[-1] - np.sum(em[:-1]))
    sizes = 0.5 * EULER_GAMMA * x + np.sum(1.0 / z + np.abs(h)) + 0.5 * x * (1.0 + abs(zk - 1.0) * uk)
    bound = abs(em[-1]) + np.abs(_EPS5_B) @ (cut + eps * np.asarray(size))[::2] + eps * sizes
    total, bound = float(total), float(bound)  # a quotient past the float range is inf, unwarned
    return -EULER_GAMMA / (2.0 * lam * volume) + total / (beta * volume), bound / (beta * volume)


def energy_breakdown(
    spec: EnsembleSpec,
    beta: float,
    zeros: ZeroTable,
    tol: float = 1e-8,
) -> EnergyBreakdown:
    """All six pieces of the average energy density (convergent routes), the
    vacuum/thermal regrouping, the quadrature oracle, and the printed forms
    with deviations.  ``abs_error`` sums the error budgets of eps3 (its
    tail: the closed-form pair integrals carry rounding only), eps4 and
    eps5 (a bound at rounding level, see ``_eps5``); the printed series
    envelops eps5, so ``printed_truncation_error`` bounds |eps5 - eps5_printed|.

    One E1 call makes every E1 value known up front, eps5's head among
    them, and one integrate_rows call the rows of the oracle and the eps3
    tail, so the values are those of their own entries; on failure it
    raises what those, one at a time in the order of the sum, raise first.
    A beta that _kappa refuses, or a lam/beta that puts an E1 argument or
    the eps3 tail past the float range, is a DomainError; a piece or a
    printed form past the float range is an AccuracyError."""
    if spec.kind != "continuum":
        raise DomainError("continuum ensemble required")
    lam, vol = spec.rate, spec.volume
    lv, x = lam * vol, _kappa(lam, beta)
    if not 0.25 * x >= sys.float_info.min:
        raise DomainError(f"lam/beta = {x:.6g} puts Ei's argument lam/(4 beta) below the normal floats")
    past = f"energy breakdown at lam = {lam!r}, beta = {beta!r} exceeds the float range"
    # the pieces divide by these: one that underflows to 0 takes them past the float range
    if not min(lv, beta * vol, beta * beta * vol, beta * lam) > 0.0:
        raise AccuracyError(past)
    tail_tol, quad_tol = tol * 0.1 * vol / lam, tol * 0.1

    try:
        t_star_z = _pair_z([_tail_start(zeros.count)], beta, lam)
        (pair_h, _), (edge_h, _), (_, ei_g), window, eps5_e1 = _e1_parts(
            _pair_z(zeros.gammas, beta, lam), t_star_z, [-x, -0.25 * x], _window_z(np.array([x])),
            _EPS5_K * (2.0 / (beta / lam)),
        )
        whole, quarter = _ei_terms(beta, lam, vol, ei_g)
        pairs = float(np.sum(_pair_integrals(zeros.gammas, beta, lam, pair_h)))
        rho = sum_inverse_rho(zeros)
        rows = [
            _continuum_rows(spec, [beta], quad_tol, (_EPS,), window),
            _eps3_tail_rows(zeros.count, beta, lam, tail_tol, edge_h),
        ]
        (point,), (tail, tail_bound) = _integrate(fuse_rows(rows))
    except RgasError:
        _ei_terms(beta, lam, vol)
        _pair_integrals(zeros.gammas, beta, lam)
        _eps3_tail(zeros.count, beta, lam, tail_tol)
        sum_inverse_rho(zeros)
        _eps5(beta, lam, vol)
        energy_oracle(spec, beta, quad_tol)
        raise
    oracle = point[1]

    eps1 = -EXPANSION_CONSTANT / lv
    eps2 = 1.0 / (beta * vol) - whole

    eps3 = -(lam / vol) * (pairs + tail)
    eps3_err = (lam / vol) * tail_bound

    eps4 = -rho.value / lv
    eps4_err = rho.tail.bound / lv

    eps5, eps5_err = _eps5(beta, lam, vol, eps5_e1)

    eps6 = EULER_GAMMA / (2.0 * lv)  # -psi(1) / (2 lam V)

    total = eps1 + eps2 + eps3 + eps4 + eps5 + eps6
    eps_a = eps1 + eps4 + eps6
    eps_b = total - eps_a

    abs_error = eps3_err + eps4_err + eps5_err

    # printed forms, verbatim, with smallest-term truncation of the series
    series_sum, k_opt, omitted = _series_optimally_truncated(beta, lam)
    eps1_printed = -PRINTED_EXPANSION_CONSTANT / lv
    eps3_printed = EULER_GAMMA / (2.0 * lv) - series_sum / (beta * vol) + quarter
    eps5_printed = -EULER_GAMMA / (2.0 * lv) + series_sum / (beta * vol)
    # the thermal part, 1/(beta V) - (lam/(beta^2 V)) e^(-x) Ei(x)
    # + (lam/(4 beta^2 V)) e^(-x/4) Ei(x/4) at x = lam/beta
    thermal_printed = eps2 + quarter

    bd = EnergyBreakdown(
        beta=beta,
        rate=lam,
        volume=vol,
        eps1=eps1,
        eps2=eps2,
        eps3=eps3,
        eps4=eps4,
        eps5=eps5,
        eps6=eps6,
        eps_a=eps_a,
        eps_b=eps_b,
        total=total,
        oracle=oracle,
        abs_error=abs_error,
        eps1_printed=eps1_printed,
        eps3_printed=eps3_printed,
        eps5_printed=eps5_printed,
        thermal_printed=thermal_printed,
        printed_truncation_index=k_opt,
        printed_truncation_error=omitted / (beta * vol),
        deviation_eps1=eps1_printed - eps1,
        deviation_eps3=eps3_printed - eps3,
        deviation_thermal=thermal_printed - (oracle - eps_a),
    )
    if not all(math.isfinite(getattr(bd, f.name)) for f in fields(bd)):
        raise AccuracyError(past)
    return bd


# ----------------------------------------------------------------------
# scans
# ----------------------------------------------------------------------

def thermo_point(spec: EnsembleSpec, beta: float, tol: float = 1e-9) -> ThermoPoint:
    """Free energy, energy, and entropy densities at one temperature; a
    continuum point is a one-point thermo_scan.  Raises HagedornError at or
    past the Hagedorn point of a discrete ensemble."""
    if spec.kind == "discrete":
        return _finite_point(spec, beta, with_energy=True)
    return thermo_scan(spec, [beta], tol)[0]


def thermo_scan(spec: EnsembleSpec, beta_grid, tol: float = 1e-9) -> list[ThermoPoint]:
    """The thermo points of a beta grid, equal to thermo_point at each beta.

    A continuum grid is one integrate_rows call for the rows of every beta,
    with L evaluated once per distinct panel; a point whose rows miss their
    tolerance is flagged ``unconverged``, and on failure the scan raises
    what a beta-by-beta loop raises first.  A discrete grid is one kernel
    pass on all its finite betas, and its betas at or past the Hagedorn
    point are flagged ``hagedorn_divergent`` with nan values where
    thermo_point raises."""
    if spec.kind == "discrete":
        return _discrete_points(spec, beta_grid, with_energy=True)
    betas = [float(b) for b in beta_grid]
    points = []
    for beta, (f, eps, entropy, budget, converged) in zip(
        betas, _continuum(spec, betas, tol, (_RE, _EPS))
    ):
        flags = {"complex_branch_active"} if f.imag != 0.0 else set()
        if not converged:
            flags.add("unconverged")
        points.append(ThermoPoint(beta, f, eps, entropy, frozenset(flags), budget, converged))
    return points
