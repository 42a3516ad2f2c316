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
plus -int_0^2 e^(-kappa s) ln|s - 1| ds in closed form (Ei and E1).

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
of the same kernel against the zero density past it.  The breakdown is one
E1 call and one integrate_rows call (see ``energy_breakdown``).

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
from dataclasses import dataclass, field

import numpy as np

from .errors import AccuracyError, DomainError, HagedornError, RgasError
from .numkernel import (
    EULER_GAMMA,
    _digamma_many,
    _exp_neg_ei,
    _log_regular_zeta_real_many,
    _em_cutoff,
    _z_exp_e1,
    _zeta_em_many,
    zeta,
)
from .quadrature import (
    RowSet, dyadic_edges, exp_weight_rows, fuse_rows, integrate_exp_weight, integrate_rows
)
from .superzeta import EXPANSION_CONSTANT, _S_FLUCTUATION, _tail_start, sum_inverse_rho
from .zerofinder import _EM_CHUNK_TERMS, ZeroTable, _fields_equal

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

    For the continuum, ``abs_error`` holds the quadrature error budgets of f
    and eps (each its rows' summed estimates times lam/(beta^2 V); eps adds
    a bound on ln zeta past the last panel), which are not printed, and
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
    Euler-Maclaurin pass on all omega_k beta of the finite betas, cut into
    calls of at most _EM_CHUNK_TERMS points x terms.  A beta at or past the
    Hagedorn point beta omega_1 <= 1 becomes a flagged point with nan
    values.  Without the energy, eps and entropy are nan and the value-only
    call keeps the accuracy gate of zeta; with it the gate is that of
    zeta'.  On failure it raises what a loop over the betas, one pass each,
    raises first."""
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
    s = np.multiply.outer(finite, spec.omegas).ravel()
    z = np.empty_like(s)
    d = np.empty_like(s) if with_energy else None
    step = max(1, _EM_CHUNK_TERMS // _em_cutoff(0.0, 1.0))  # real s: no Im part
    for lo in range(0, s.size, step):
        part = slice(lo, lo + step)
        if with_energy:
            z[part], d[part] = _zeta_em_many(s[part], want_derivative=True)
        else:
            z[part] = _zeta_em_many(s[part])
    k = spec.omegas.size
    nan = math.nan
    points, row = [], 0
    for beta in betas:
        if beta * omega_1 <= 1.0:
            points.append(ThermoPoint(beta, complex(nan, nan), nan, nan, _DIVERGENT))
            continue
        zb = z[row * k : (row + 1) * k]
        f = float(-(spec.masses @ np.log(zb)) / (beta * spec.volume))
        eps = nan
        if d is not None:
            db = d[row * k : (row + 1) * k]
            eps = float(-(spec.masses @ (spec.omegas * (db / zb))) / spec.volume)
        points.append(ThermoPoint(beta, complex(f, 0.0), eps, beta * (eps - f)))
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

def free_energy_im_closed_form(spec: EnsembleSpec, beta: float) -> float:
    """Im f = -(pi/(beta V)) (1 - exp(-lam/beta)): the principal branch
    contributes +pi on the whole segment 0 < s < 1 where zeta < 0."""
    if spec.kind != "continuum":
        raise DomainError("continuum ensemble required")
    return -math.pi / (beta * spec.volume) * (1.0 - math.exp(-spec.rate / beta))


# 2 / ((2j+1) (2j+1)!), j = 0..9: 2 Shi(k)/k = sum_j c_j k^(2j) to double
# precision for k <= 1 (the j = 9 term is below 5e-19)
_SHI_COEF = tuple(2.0 / ((2 * j + 1) * math.factorial(2 * j + 1)) for j in range(10))


def _window_z(kappa: np.ndarray) -> np.ndarray:
    """The E1 arguments of the pole windows: -k, then k, for kappa above 1."""
    k = kappa[~(kappa <= 1.0)]
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
    g = kappa e^kappa E1(kappa), from e1, (h, g) at _window_z(kappa), if
    given; at or below 1, where Ei and E1 nearly
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
        _, g = _e1_parts(_window_z(kappa))[0] if e1 is None else e1
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
        h, g = _e1_parts(_window_z(kappa))[0] if e1 is None else e1
        out[~small] = -(h[: k.size].real + np.exp(-2.0 * k) * (1.0 + g[k.size :].real)) / k
    return out


# A row's first leaf is [0, 2^-fine] with 2^-fine <= 40/kappa and fine <= 52;
# past this kappa, e^(-kappa s) would be narrower than that leaf allows
_KAPPA_MAX = 40.0 * 2.0**52

# the rows of a continuum point: Re f, Im f, eps
_RE, _IM, _EPS = range(3)


def _log_zeta_kernel(s: np.ndarray) -> np.ndarray:
    """ln|zeta(s)| + ln|s - 1| on [0, 2], which is the smooth L(s) =
    ln((s-1) zeta(s)), and ln zeta(s) = L(s) - ln(s - 1) past 2, for an
    array of s >= 0."""
    out = _log_regular_zeta_real_many(s)
    tail = s > 2.0
    out[tail] -= np.log(s[tail] - 1.0)
    return out


def _continuum_rows(spec: EnsembleSpec, betas: list, tol: float, kinds: tuple, window_e1=None) -> RowSet:
    """The rows of the continuum points at betas, whose finish gives
    (f, eps, entropy, (f budget, eps budget), converged) at each beta, with
    None for f unless kinds holds _RE and _IM, for eps unless it holds
    _EPS, and for the entropy unless it holds all three.

    Each beta has one row per kind, each to tol/2: e^(-kappa s) K(s) for
    Re f, (1 - kappa s) e^(-kappa s) K(s) for eps, pi e^(-kappa s) on
    [0, 1] for Im f (K = _log_zeta_kernel, kappa = lam/beta).  Re f and eps
    end at the first power of two past s_max, where the ln zeta tail
    (~2^-s) is below double precision; every row starts graded toward 0,
    down to a first leaf of at most min(1/2, 40/kappa).  The windows
    -int_0^2 w ln|s - 1| ds are added in closed form, from window_e1 if given."""
    if spec.kind != "continuum":
        raise DomainError("continuum ensemble required")
    kappas, ends, edges, rows = [], [], [], []
    for beta in betas:
        if not beta > 0.0:
            raise DomainError("beta must be positive")
        kappa = spec.rate / beta
        if not kappa <= _KAPPA_MAX:
            raise DomainError(
                f"kappa = lam/beta = {kappa:.6g} exceeds {_KAPPA_MAX:.6g}: "
                "e^(-kappa s) is narrower than the finest panels"
            )
        fine = max(1, math.ceil(math.log2(kappa / 40.0))) if kappa > 0.0 else 1
        last = math.ceil(math.log2(max(4.0, math.log(1e18) / (kappa + math.log(2.0)))))
        kappas.append(kappa)
        ends.append(2.0**last)
        edges += [dyadic_edges(-fine, 0 if kind == _IM else last) for kind in kinds]
        rows += [(kappa, kind) for kind in kinds]
    row_kappa, row_kind = np.array(rows).reshape(-1, 2).T

    def weight(r, x):
        kx = row_kappa[r, None] * x
        w = np.exp(-kx)
        eps, im = row_kind[r] == _EPS, row_kind[r] == _IM
        w[eps] *= 1.0 - kx[eps]
        w[im] *= math.pi
        return w

    def finish(results):
        kappa_array = np.array(kappas)
        e1 = _e1_parts(_window_z(kappa_array))[0] if window_e1 is None else window_e1
        window_f = _pole_log_window(kappa_array, e1).tolist() if _RE in kinds else None
        window_eps = _energy_pole_window(kappa_array, e1).tolist() if _EPS in kinds else None
        points = []
        for i, (beta, kappa, end) in enumerate(zip(betas, kappas, ends)):
            part = dict(zip(kinds, results[i * len(kinds) : (i + 1) * len(kinds)]))

            def scaled(v):
                # lam/(beta^2 V) v, in an order that cannot overflow beta^2
                return kappa * v / beta / spec.volume

            f = eps = entropy = f_err = eps_err = None
            if _RE in part:
                re, im = part[_RE], part[_IM]
                f = complex(-scaled(re.value + window_f[i]), -scaled(im.value))
                f_err = scaled(re.abs_error + im.abs_error)
            if _EPS in part:
                # past the end, 0 < ln zeta(s) <= zeta(s) - 1 <= (5/3) 2^-s as
                # s >= 4, and (1 + kappa s) e^(-decay s) integrates in closed form
                decay = kappa + math.log(2.0)
                err = 5.0 / 3.0 * math.exp(-decay * end) * (1.0 + kappa * (end + 1.0 / decay)) / decay
                err += part[_EPS].abs_error
                if err > max(tol, 1e-12) * 50.0:
                    raise AccuracyError(f"energy oracle error estimate {err:.2e} too large")
                eps = scaled(part[_EPS].value + window_eps[i])
                eps_err = scaled(err)
                entropy = beta * (eps - f.real) if f is not None else None
            if not all(np.isfinite(v) for v in (f, eps, entropy) if v is not None):
                raise AccuracyError(
                    f"thermo at beta = {beta!r} exceeds the float range "
                    f"(lam/beta^2 = {kappa / beta:.6g})"
                )
            converged = all(r.converged for r in part.values())
            points.append((f, eps, entropy, (f_err, eps_err), converged))
        return points

    return RowSet(weight, edges, [tol / 2.0] * len(rows), row_kind != _IM, finish)


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
    integrable singularity at the pole, is added in closed form.  The
    imaginary part integrates the principal-branch phase (exactly +pi where
    zeta < 0, i.e. on 0 < s < 1)."""
    return _continuum(spec, [beta], tol, (_RE, _IM))[0][0]


def energy_oracle(spec: EnsembleSpec, beta: float, tol: float = 1e-9) -> float:
    """Ground truth for the average energy density, eps = d(beta f)/d beta:

        eps = -(lam/V) PV int_0^inf omega e^(-lam omega) (zeta'/zeta)(beta omega) d omega
            = (lam/(beta^2 V)) int_0^inf (1 - kappa s) e^(-kappa s) ln|zeta(s)| ds,

    integrated by parts (kappa = lam/beta; the boundary terms vanish, the
    symmetric ones at the pole too).  The panels and the pole window are
    those of free_energy_continuum under the weight (1 - kappa s) e^(-kappa s),
    and the budget adds a closed-form bound on ln zeta past the last panel;
    AccuracyError when the budget exceeds 50 max(tol, 1e-12)."""
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
    magnitude is exp(lgamma(k+1) + k ln(x/2)) zeta(k) instead."""
    x_k = x**k if k <= 170 else 0.0
    if x_k >= sys.float_info.min:
        term = series_coefficient(k) * x_k
        if abs(term) >= sys.float_info.min:
            return term
    magnitude = math.exp(math.lgamma(k + 1) + k * math.log(0.5 * x)) * _zeta_integer(k)
    return -magnitude if k % 2 else magnitude


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
    """The E1 arguments z = -lam rho/beta of the pair integrals."""
    return (-lam / beta) * (0.5 + 1j * np.asarray(gammas, dtype=np.float64))


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
        gam = t_star / (v * v)
        pair = _pair_integrals(gam.reshape(-1), beta, lam).reshape(v.shape)
        return pair * np.log(gam / (2.0 * math.pi)) * gam / (math.pi * v)

    def finish(results):
        edge = abs(float(_pair_integrals([t_star], beta, lam, edge_h)[0]))
        return results[0].value, results[0].abs_error + 2.0 * _S_FLUCTUATION * edge

    return RowSet(weight, [dyadic_edges(-20, 0)], [tol], [False], finish)


def _eps3_tail(count: int, beta: float, lam: float, tol: float) -> tuple[float, float]:
    """(value, bound) of the tail row alone."""
    return _integrate(_eps3_tail_rows(count, beta, lam, tol))


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
    eps5.

    One E1 call makes every E1 value known up front, and one integrate_rows
    call the rows of the oracle, the eps3 tail and eps5, so the values are
    those of their own entries; on failure it raises what those, one at a
    time in the order of the sum, raise first."""
    if spec.kind != "continuum":
        raise DomainError("continuum ensemble required")
    lam, vol = spec.rate, spec.volume
    lv, x = lam * vol, lam / beta
    tail_tol, quad_tol = tol * 0.1 * vol / lam, tol * 0.1

    def psi(om):  # the integrand of eps5 against the density
        return om * _digamma_many(0.5 * beta * om)

    try:
        t_star_z = _pair_z([_tail_start(zeros.count)], beta, lam)
        (pair_h, _), (edge_h, _), (_, ei_g), window = _e1_parts(
            _pair_z(zeros.gammas, beta, lam), t_star_z, [-x, -0.25 * x], _window_z(np.array([x]))
        )
        whole, quarter = _ei_terms(beta, lam, vol, ei_g)
        pairs = float(np.sum(_pair_integrals(zeros.gammas, beta, lam, pair_h)))
        rho = sum_inverse_rho(zeros)
        rows = [
            _continuum_rows(spec, [beta], quad_tol, (_EPS,), window),
            _eps3_tail_rows(zeros.count, beta, lam, tail_tol, edge_h),
            exp_weight_rows(psi, lam, quad_tol),
        ]
        (point,), (tail, tail_bound), ipsi = _integrate(fuse_rows(rows))
    except RgasError:
        _ei_terms(beta, lam, vol)
        _pair_integrals(zeros.gammas, beta, lam)
        _eps3_tail(zeros.count, beta, lam, tail_tol)
        sum_inverse_rho(zeros)
        integrate_exp_weight(psi, lam, quad_tol)
        energy_oracle(spec, beta, quad_tol)
        raise
    oracle = point[1]

    eps1 = -EXPANSION_CONSTANT / lv
    eps2 = 1.0 / (beta * vol) - whole

    eps3 = -(lam / vol) * (pairs + tail)
    eps3_err = (lam / vol) * tail_bound

    eps4 = -rho.value / lv
    eps4_err = rho.tail.bound / lv

    eps5 = 1.0 / (beta * vol) + lam / (2.0 * vol) * (ipsi.value / lam)
    eps5_err = ipsi.abs_error / (2.0 * vol)

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
        betas, _continuum(spec, betas, tol, (_RE, _IM, _EPS))
    ):
        flags = {"complex_branch_active"} if f.imag != 0.0 else set()
        if not converged:
            flags.add("unconverged")
        points.append(ThermoPoint(beta, f, eps, entropy, frozenset(flags), budget, converged))
    return points
