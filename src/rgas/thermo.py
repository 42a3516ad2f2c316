"""Quenched thermodynamics of the randomized boson gas.

The gas has partition function zeta(beta omega); omega is random.  For a
discrete ensemble (frequencies omega_k with masses P_k) the average free
energy density is

    f(beta) = -(1/(beta V)) sum_k P_k ln zeta(omega_k beta),

singular once beta omega_1 <= 1 (the Hagedorn point).  For the continuum
ensemble with density lam exp(-lam omega) the average is finite at every
temperature but picks up the imaginary part
-(pi/(beta V)) (1 - exp(-lam/beta)) from the segment 0 < s < 1 where zeta
is negative.

The average energy density is expanded through the pole/zero decomposition
of zeta'/zeta into six pieces eps1..eps6 (pole, nontrivial zeros in pairs,
trivial zeros in their convergent combination, and constants); their sum is
checked against the module's ground truth, ``energy_oracle``: the direct
principal-value quadrature of

    eps = -(lam/V) PV int_0^inf omega e^(-lam omega) (zeta'/zeta)(beta omega) d omega.

Closed forms printed in terms of Ei and the factorially divergent series
sum g(k) (beta/lam)^k are also provided verbatim ("printed" forms) with
their deviations from the oracle reported, never asserted.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import AccuracyError, DomainError, HagedornError
from .numkernel import (
    DEFAULT_OPTIONS,
    EULER_GAMMA,
    EvalOptions,
    _digamma_many,
    _log_abs_zeta_real_many,
    _zeta_em_many,
    _zeta_log_derivative_real_many,
    digamma,
    exp_integral_ei,
    zeta,
)
from .quadrature import QuadResult, integrate, integrate_exp_weight, principal_value
from .superzeta import (
    EXPANSION_CONSTANT,
    SuperzetaParams,
    _S_FLUCTUATION,
    _power_log_tail,
    _tail_start,
    sum_inverse_rho,
)
from .zerofinder import ZeroTable, _fields_equal

__all__ = [
    "EnsembleSpec",
    "ThermoPoint",
    "EnergyBreakdown",
    "HagedornPoint",
    "PRINTED_EXPANSION_CONSTANT",
    "free_energy_discrete",
    "energy_entropy_discrete",
    "hagedorn_scan",
    "free_energy_continuum",
    "free_energy_im_closed_form",
    "energy_oracle",
    "energy_breakdown",
    "thermal_part_printed_form",
    "series_coefficient",
    "series_partial",
    "thermo_point",
    "energy_scan",
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
    entropy density, and status flags."""

    beta: float
    f: complex
    eps: float
    entropy: float
    flags: frozenset[str] = field(default_factory=frozenset)


@dataclass(frozen=True)
class HagedornPoint:
    beta: float
    f: float | None
    divergent: bool


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

def _require_below_hagedorn(spec: EnsembleSpec, beta: float) -> None:
    if spec.kind != "discrete":
        raise DomainError("discrete ensemble required")
    if not beta > 0.0:
        raise DomainError("beta must be positive")
    if beta * float(spec.omegas[0]) <= 1.0:
        raise HagedornError(
            f"beta*omega_1 = {beta * float(spec.omegas[0]):.6g} <= 1: "
            "free energy diverges at the zeta pole"
        )


def _discrete_sums(
    spec: EnsembleSpec, beta: float, opts: EvalOptions, with_energy: bool
) -> tuple[float, float | None]:
    """f(beta) and, when asked, eps(beta) from one Euler-Maclaurin call on
    all omega_k beta.  The value-only call keeps the accuracy gate of zeta;
    with the energy it is the gate of zeta'."""
    _require_below_hagedorn(spec, beta)
    s = (spec.omegas * beta).astype(np.complex128)
    if with_energy:
        z, d = _zeta_em_many(s, opts, want_derivative=True)
    else:
        z, d = _zeta_em_many(s, opts), None
    # contiguous copy: np.log on the strided .real view may round differently
    ln_z = np.log(np.ascontiguousarray(z.real))
    f = float(-(spec.masses @ ln_z) / (beta * spec.volume))
    if d is None:
        return f, None
    zld = d.real / z.real
    return f, float(-(spec.masses @ (spec.omegas * zld)) / spec.volume)


def free_energy_discrete(spec: EnsembleSpec, beta: float, opts: EvalOptions = DEFAULT_OPTIONS) -> float:
    """-(1/(beta V)) sum_k P_k ln zeta(omega_k beta) for beta omega_1 > 1.

    All omega_k beta go to the zeta kernel in one vectorized call; raises
    HagedornError at or beyond the Hagedorn point beta omega_1 <= 1."""
    return _discrete_sums(spec, beta, opts, with_energy=False)[0]


def energy_entropy_discrete(
    spec: EnsembleSpec, beta: float, opts: EvalOptions = DEFAULT_OPTIONS
) -> tuple[float, float]:
    """Energy density (1/V) sum_k P_k omega_k (-zeta'/zeta)(omega_k beta) and
    entropy density beta (eps - f).

    zeta and zeta' at all omega_k beta come from one vectorized kernel call
    that also yields f, so f is not evaluated a second time."""
    f, eps = _discrete_sums(spec, beta, opts, with_energy=True)
    return eps, beta * (eps - f)


def hagedorn_scan(spec: EnsembleSpec, beta_grid) -> list[HagedornPoint]:
    """Free energy along a beta grid, flagging the divergent points
    beta omega_1 <= 1 instead of raising; each finite point is one
    free_energy_discrete call (one kernel call)."""
    if spec.kind != "discrete":
        raise DomainError("hagedorn_scan is for discrete ensembles")
    out = []
    for beta in np.asarray(beta_grid, dtype=np.float64):
        b = float(beta)
        if not b > 0.0:
            raise DomainError("beta grid must be positive")
        if b * float(spec.omegas[0]) <= 1.0:
            out.append(HagedornPoint(b, None, True))
        else:
            out.append(HagedornPoint(b, free_energy_discrete(spec, b), False))
    return out


# ----------------------------------------------------------------------
# continuum ensemble
# ----------------------------------------------------------------------

def free_energy_im_closed_form(spec: EnsembleSpec, beta: float) -> float:
    """Im f = -(pi/(beta V)) (1 - exp(-lam/beta)): the principal branch
    contributes +pi on the whole segment 0 < s < 1 where zeta < 0."""
    if spec.kind != "continuum":
        raise DomainError("continuum ensemble required")
    return -math.pi / (beta * spec.volume) * (1.0 - math.exp(-spec.rate / beta))


def free_energy_continuum(spec: EnsembleSpec, beta: float, tol: float = 1e-10) -> complex:
    """-(lam/(beta^2 V)) int_0^inf exp(-lam s / beta) log zeta(s) ds.

    The real part integrates ln |zeta| with geometric panel grading into the
    integrable logarithmic singularity at s = 1 from both sides; the
    imaginary part integrates the principal-branch phase (exactly +pi where
    zeta < 0, i.e. on 0 < s < 1)."""
    if spec.kind != "continuum":
        raise DomainError("continuum ensemble required")
    if not beta > 0.0:
        raise DomainError("beta must be positive")
    lam, vol = spec.rate, spec.volume
    kappa = lam / beta

    def re_integrand(sv):
        return np.exp(-kappa * sv) * _log_abs_zeta_real_many(sv)

    def im_integrand(sv):
        # every node lies inside 0 < s < 1, where zeta < 0
        return np.exp(-kappa * sv) * math.pi

    # keep panels no wider than the exponential scale so no mass is skipped;
    # s_max puts the ln-zeta Dirichlet tail (~2^-s) below double precision
    mid = min(0.5, 40.0 / kappa)
    s_max = max(4.0, math.log(1e18) / (kappa + math.log(2.0)))
    re_val = (
        integrate(re_integrand, 0.0, mid, tol / 4.0).value
        + integrate(re_integrand, mid, 1.0, tol / 4.0, singular_right=True).value
        + integrate(re_integrand, 1.0, s_max, tol / 4.0, singular_left=True).value
    )
    im_val = (
        integrate(im_integrand, 0.0, mid, tol / 4.0).value
        + integrate(im_integrand, mid, 1.0, tol / 4.0).value
    )

    pref = -lam / (beta * beta * vol)
    return complex(pref * re_val, pref * im_val)


def _q_many(s: np.ndarray, opts: EvalOptions) -> np.ndarray:
    """(s-1) * (zeta'/zeta)(s) for real s > 0, smooth through s = 1 where it
    equals the pole residue -1."""
    s = np.asarray(s, dtype=np.float64)
    out = np.empty_like(s)
    at_pole = s == 1.0
    if np.any(~at_pole):
        sv = s[~at_pole]
        out[~at_pole] = (sv - 1.0) * _zeta_log_derivative_real_many(sv, opts)
    out[at_pole] = -1.0
    return out


def energy_oracle(spec: EnsembleSpec, beta: float, tol: float = 1e-9) -> float:
    """Ground truth for the average energy density:

        -(lam/V) PV int_0^inf omega e^(-lam omega) (zeta'/zeta)(beta omega) d omega

    with the simple pole at omega = 1/beta handled by principal value after
    extracting the smooth factor omega e^(-lam omega) (beta omega - 1)
    (zeta'/zeta)(beta omega) / beta."""
    if spec.kind != "continuum":
        raise DomainError("continuum ensemble required")
    if not beta > 0.0:
        raise DomainError("beta must be positive")
    lam, vol = spec.rate, spec.volume
    pole = 1.0 / beta
    d = 0.5 * pole
    omega_max = pole + 45.0 / lam

    def h(om):
        om = np.asarray(om, dtype=np.float64)
        return om * np.exp(-lam * om) * _q_many(beta * om, DEFAULT_OPTIONS) / beta

    def full(om):
        om = np.asarray(om, dtype=np.float64)
        return om * np.exp(-lam * om) * _zeta_log_derivative_real_many(beta * om)

    total = 0.0
    err = 0.0
    left_edges = sorted({0.0, min(pole - d, 40.0 / lam), pole - d})
    for lo, hi in zip(left_edges[:-1], left_edges[1:]):
        if hi > lo:
            res = integrate(full, lo, hi, tol / 5.0)
            total += res.value
            err += res.abs_error
    pv = principal_value(h, pole, pole - d, pole + d, tol / 5.0)
    total += pv.value
    err += pv.abs_error
    # the zeta'/zeta structure lives on the omega scale 1/beta; keep a panel
    # edge at its far end so wide panels cannot overlook it
    right_edges = sorted({pole + d, min(pole + 42.0 / beta, omega_max), omega_max})
    for lo, hi in zip(right_edges[:-1], right_edges[1:]):
        if hi > lo:
            res = integrate(full, lo, hi, tol / 5.0)
            total += res.value
            err += res.abs_error
    # Dirichlet tail: |zeta'/zeta(s)| <= 1.4 ln 2 2^-s beyond omega_max, so
    # the remainder integrates omega e^(-decay omega) in closed form
    decay = lam + beta * math.log(2.0)
    err += (
        1.4
        * math.log(2.0)
        * math.exp(-decay * omega_max)
        * (omega_max / decay + 1.0 / (decay * decay))
    )
    if err > max(tol, 1e-12) * 50.0:
        raise AccuracyError(f"energy oracle error estimate {err:.2e} too large")
    return float(-(lam / vol) * total)


# ----------------------------------------------------------------------
# printed closed forms
# ----------------------------------------------------------------------

@functools.cache
def _zeta_at_integers() -> np.ndarray:
    """zeta(k) at index k for k = 2.._SERIES_END-1 (indices 0 and 1 hold
    nan), from one batched Euler-Maclaurin call.  zeta(k) is a constant, so
    the read-only table is kept for the life of the process; each entry
    equals the scalar zeta(complex(k)).real."""
    k = np.arange(2, _SERIES_END, dtype=np.float64)
    table = np.full(_SERIES_END, np.nan)
    table[2:] = _zeta_em_many(k.astype(np.complex128), DEFAULT_OPTIONS).real
    table.setflags(write=False)
    return table


def _zeta_integer(k: int) -> float:
    """zeta(k) for an integer k >= 2, from the table below _SERIES_END."""
    return float(_zeta_at_integers()[k]) if k < _SERIES_END else zeta(complex(k)).real


def series_coefficient(k: int) -> float:
    """g(k) = (-1)^k / 2^k * Gamma(k+1) * zeta(k), the coefficient of the
    digamma power series integrated against the exponential density."""
    if k < 2:
        raise DomainError("series coefficients start at k = 2")
    return (-1.0) ** k / 2.0**k * math.factorial(k) * _zeta_integer(k)


def _series_term(k: int, x: float) -> float:
    """g(k) x^k.  Where the plain product leaves the normal floats (x^k
    underflows for small x, and k! overflows a float past k = 170) the
    magnitude is exp(lgamma(k+1) + k ln(x/2)) zeta(k) instead."""
    x_k = x**k if k <= 170 else 0.0
    if x_k >= sys.float_info.min:
        term = series_coefficient(k) * x_k
        if abs(term) >= sys.float_info.min:
            return term
    magnitude = math.exp(math.lgamma(k + 1) + k * math.log(0.5 * x)) * _zeta_integer(k)
    return -magnitude if k % 2 else magnitude


@dataclass(frozen=True)
class SeriesPartial:
    """Partial sum of the asymptotic series sum g(k) (beta/lam)^k with the
    smallest-term index; the first omitted term sizes the intrinsic error."""

    value: float
    terms: int
    optimal_index: int
    smallest_term: float


def series_partial(beta: float, lam: float, k_max: int) -> SeriesPartial:
    """Plain partial sum to k_max, reporting the smallest-term truncation
    index (the factorial growth of g(k) makes the series asymptotic)."""
    if k_max < 2:
        raise DomainError("need k_max >= 2")
    x = beta / lam
    total = 0.0
    best_k, best_abs = 2, math.inf
    for k in range(2, k_max + 1):
        term = _series_term(k, x)
        total += term
        # terms too small for a float read 0; the smallest lies at or past them
        if abs(term) < best_abs or term == 0.0:
            best_abs = abs(term)
            best_k = k
    return SeriesPartial(total, k_max - 1, best_k, best_abs)


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


def thermal_part_printed_form(beta: float, lam: float, volume: float = 1.0) -> float:
    """The printed closed form of the thermal part of the energy density:

        1/(beta V) - (lam/(beta^2 V)) e^(-lam/beta) Ei(lam/beta)
                   + (lam/(4 beta^2 V)) e^(-lam/(4 beta)) Ei(lam/(4 beta))

    Reported verbatim; its deviation from (oracle - vacuum part) is part of
    the breakdown record."""
    if not (beta > 0.0 and lam > 0.0 and volume > 0.0):
        raise DomainError("positive beta, lam, volume required")
    x = lam / beta
    return (
        1.0 / (beta * volume)
        - lam / (beta * beta * volume) * math.exp(-x) * exp_integral_ei(x)
        + lam / (4.0 * beta * beta * volume) * math.exp(-0.25 * x) * exp_integral_ei(0.25 * x)
    )


# ----------------------------------------------------------------------
# the six-term decomposition
# ----------------------------------------------------------------------

# Zeros screened before a pair-integral level is run on the whole table.
_SCREEN_ZEROS = 8


def _eps3_pair_integrals(
    gammas: np.ndarray, beta: float, lam: float, tol: float
) -> tuple[np.ndarray, float]:
    """Inner integrals I_k = int_0^inf omega e^(-lam omega)
    2 (beta omega - 1/2) / ((beta omega - 1/2)^2 + gamma_k^2) d omega for
    every stored zero, on one composite Gauss-Kronrod grid shared across k
    (each integrand is smooth; the denominator never vanishes).

    The grid has 40, 80 or 160 panels: the first level whose largest
    per-zero |K15 - G7| sum is within tol, else 160, whose values are kept
    whatever their error; the summed error is returned.  Before a level
    runs on the whole table it is screened on the lowest zeros, where the
    largest error sits, with all panels in one array.  The full maximum is
    at least the screened one up to rounding, so a level whose screened
    error exceeds 2 tol would fail its full check and is skipped; the
    factor 2 covers the rounding of the two sums, which differ by far less
    than tol (at most 5e-14 on the benchmark's breakdown ops).  The chosen
    level, its values and its error are those of running every level in
    turn."""
    from .quadrature import _NODES, _WGAUSS, _GAUSS_IDX, _WK

    omega_max = 45.0 / lam + 1.0 / beta
    g2c = gammas * gammas

    def grid(n_panels: int) -> np.ndarray:
        dense = np.linspace(0.0, 4.0 / lam, max(8, n_panels // 4) + 1)
        sparse = np.linspace(4.0 / lam, omega_max, n_panels + 1)[1:]
        return np.concatenate([dense, sparse])

    def screened_error(n_panels: int) -> float:
        edges = grid(n_panels)
        hw = 0.5 * (edges[1:] - edges[:-1])
        om = (0.5 * (edges[1:] + edges[:-1]))[:, None] + hw[:, None] * _NODES
        u = beta * om - 0.5
        frame = (om * np.exp(-lam * om) * 2.0 * u) / (u * u + g2c[:_SCREEN_ZEROS, None, None])
        diff = frame @ _WK - frame[..., _GAUSS_IDX] @ _WGAUSS
        return float(np.max(np.abs(hw * diff).sum(axis=1)))

    def accumulate(n_panels: int) -> tuple[np.ndarray, np.ndarray]:
        edges = grid(n_panels)
        vals = np.zeros(g2c.size)
        errs = np.zeros(g2c.size)
        for lo, hi in zip(edges[:-1], edges[1:]):
            c, hw = 0.5 * (lo + hi), 0.5 * (hi - lo)
            om = c + hw * _NODES
            u = beta * om - 0.5
            frame = (om * np.exp(-lam * om) * 2.0 * u)[None, :] / (
                u[None, :] ** 2 + g2c[:, None]
            )
            i15 = hw * frame @ _WK
            i7 = hw * frame[:, _GAUSS_IDX] @ _WGAUSS
            vals += i15
            errs += np.abs(i15 - i7)
        return vals, errs

    levels = (40, 80, 160)
    for n_panels in levels:
        if n_panels < levels[-1] and screened_error(n_panels) > 2.0 * tol:
            continue
        vals, errs = accumulate(n_panels)
        if float(np.max(errs)) <= tol:
            break
    return vals, float(np.sum(errs))


def _eps3_moment(j: int, beta: float, lam: float) -> float:
    """int_0^inf omega e^(-lam omega) (beta omega - 1/2)^j d omega."""
    total = 0.0
    for i in range(j + 1):
        total += (
            math.comb(j, i)
            * beta**i
            * (-0.5) ** (j - i)
            * math.factorial(i + 1)
            / lam ** (i + 2)
        )
    return total


def _eps3_tail(count: int, beta: float, lam: float, order: int = 12) -> tuple[float, float]:
    """Smooth-density tail of the pair integrals beyond the table: expansion
    of the Lorentzian in odd moments against the zero density."""
    t_star = _tail_start(count)
    corr = 0.0
    last = math.inf
    for m in range(order + 1):
        moment = _eps3_moment(2 * m + 1, beta, lam)
        term = (-1.0) ** m * 2.0 * moment * _power_log_tail(2 * m + 2, t_star).real
        if abs(term) > last:
            break
        corr += term
        last = abs(term)
        if last < 1e-19:
            break
    edge = abs(2.0 * _eps3_moment(1, beta, lam)) / (t_star * t_star)
    bound = last + 2.0 * _S_FLUCTUATION * edge
    return corr, bound


def energy_breakdown(
    spec: EnsembleSpec,
    beta: float,
    zeros: ZeroTable,
    tol: float = 1e-8,
) -> EnergyBreakdown:
    """All six pieces of the average energy density (convergent routes), the
    vacuum/thermal regrouping, the quadrature oracle, and the printed forms
    with deviations."""
    if spec.kind != "continuum":
        raise DomainError("continuum ensemble required")
    lam, vol = spec.rate, spec.volume
    lv = lam * vol

    eps1 = -EXPANSION_CONSTANT / lv
    x = lam / beta
    eps2 = 1.0 / (beta * vol) - lam / (beta * beta * vol) * math.exp(-x) * exp_integral_ei(x)

    pair_vals, pair_err = _eps3_pair_integrals(zeros.gammas, beta, lam, tol * 0.1)
    tail_corr, tail_bound = _eps3_tail(zeros.count, beta, lam)
    eps3 = -(lam / vol) * (float(np.sum(pair_vals)) + tail_corr)
    eps3_err = (lam / vol) * (pair_err + tail_bound)

    params = SuperzetaParams(zeros)
    rho = sum_inverse_rho(params)
    eps4 = -rho.value / lv
    eps4_err = rho.tail.bound / lv

    def psi_weighted(om):
        om = np.asarray(om, dtype=np.float64)
        return om * _digamma_many(0.5 * beta * om)

    ipsi = integrate_exp_weight(psi_weighted, lam, tol * 0.1)
    eps5 = 1.0 / (beta * vol) + lam / (2.0 * vol) * (ipsi.value / lam)
    eps5_err = ipsi.abs_error / (2.0 * vol)

    eps6 = -digamma(1.0) / (2.0 * lv)

    total = eps1 + eps2 + eps3 + eps4 + eps5 + eps6
    eps_a = eps1 + eps4 + eps6
    eps_b = total - eps_a

    oracle = energy_oracle(spec, beta, tol * 0.1)
    abs_error = eps3_err + eps4_err + eps5_err

    # printed forms, verbatim, with smallest-term truncation of the series
    series_sum, k_opt, omitted = _series_optimally_truncated(beta, lam)
    eps1_printed = -PRINTED_EXPANSION_CONSTANT / lv
    eps3_printed = (
        EULER_GAMMA / (2.0 * lv)
        - series_sum / (beta * vol)
        + lam / (4.0 * beta * beta * vol) * math.exp(-0.25 * x) * exp_integral_ei(0.25 * x)
    )
    eps5_printed = -EULER_GAMMA / (2.0 * lv) + series_sum / (beta * vol)
    thermal_printed = thermal_part_printed_form(beta, lam, vol)

    return EnergyBreakdown(
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


# ----------------------------------------------------------------------
# scans
# ----------------------------------------------------------------------

def thermo_point(spec: EnsembleSpec, beta: float, tol: float = 1e-9) -> ThermoPoint:
    """Free energy, energy, and entropy densities at one temperature."""
    if spec.kind == "discrete":
        f, eps = _discrete_sums(spec, beta, DEFAULT_OPTIONS, with_energy=True)
        return ThermoPoint(beta, complex(f, 0.0), eps, beta * (eps - f), frozenset())
    f = free_energy_continuum(spec, beta, tol)
    eps = energy_oracle(spec, beta, tol)
    entropy = beta * (eps - f.real)
    flags = frozenset({"complex_branch_active"}) if f.imag != 0.0 else frozenset()
    return ThermoPoint(beta, f, eps, entropy, flags)


def energy_scan(
    spec: EnsembleSpec,
    beta_grid,
    zeros: ZeroTable | None = None,
    tol: float = 1e-8,
) -> list[tuple[ThermoPoint, EnergyBreakdown | None]]:
    """Thermo points along a beta grid (with a breakdown per point when a
    zero table is supplied), plus a grid-level continuity check on the
    energy density."""
    betas = np.asarray(beta_grid, dtype=np.float64)
    if betas.ndim != 1 or betas.size < 1 or np.any(betas <= 0.0):
        raise DomainError("beta grid must be positive")
    out = []
    for b in betas:
        point = thermo_point(spec, float(b), tol)
        bd = energy_breakdown(spec, float(b), zeros, tol) if zeros is not None else None
        out.append((point, bd))
    if betas.size >= 3:
        eps = np.array([p.eps for p, _ in out])
        jumps = np.abs(np.diff(eps))
        db = np.abs(np.diff(betas))
        slope = np.abs(np.gradient(eps, betas))
        local = np.maximum(slope[:-1], slope[1:])
        tolerance = db * (4.0 * local + 1e-6) + 1e-9
        if np.any(jumps > tolerance):
            k = int(np.argmax(jumps - tolerance))
            raise AccuracyError(
                f"energy not continuous on the grid near beta={betas[k]:.6g}"
            )
    return out
