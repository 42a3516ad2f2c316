"""Prime-number machinery for the arithmetic gas.

The boson gas with single-particle energies omega * ln(p_k) over the primes
p_k has partition function zeta(beta omega); the fermionic counterpart is
zeta(beta omega) / zeta(2 beta omega).  This module provides the sieve, the
Moebius function, truncated Euler products and Dirichlet series, the
partition-function ratios, and a brute-force occupation-state enumeration
that ties the gas picture back to the zeta function through unique
factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, HagedornError
from .numkernel import zeta

__all__ = [
    "PrimeTable",
    "OccupationState",
    "sieve",
    "mobius",
    "mobius_sieve",
    "euler_product_bosonic",
    "dirichlet_inverse_zeta",
    "partition_bosonic",
    "partition_fermionic",
    "partition_parafermion",
    "mixture_identity_residual",
    "enumerate_occupation_states",
    "state_enumeration_partition",
]

_ENUMERATION_GUARD = 1_000_000  # max occupation states touched per call


@dataclass(frozen=True)
class PrimeTable:
    """Ascending primes up to a limit."""

    primes: np.ndarray
    limit: int

    def __post_init__(self) -> None:
        p = self.primes
        if p.size == 0 or p[0] != 2:
            raise DomainError("prime table must start at 2")
        if np.any(np.diff(p) <= 0):
            raise DomainError("prime table must be strictly increasing")

    def __len__(self) -> int:
        return int(self.primes.size)


@dataclass(frozen=True)
class OccupationState:
    """Bosonic Fock state: occupation numbers per prime index (sparse).

    ``value`` is the integer prod p_k^{n_k}; the state energy is
    omega * ln(value)."""

    occupations: tuple[tuple[int, int], ...]  # (prime index, count), count > 0
    value: int

    def log_energy(self) -> float:
        return math.log(self.value)


def sieve(limit: int) -> PrimeTable:
    """All primes <= limit by the classic Eratosthenes bit sieve."""
    if limit < 2:
        raise DomainError("sieve limit must be >= 2")
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(math.isqrt(limit)) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return PrimeTable(primes=np.flatnonzero(flags).astype(np.int64), limit=limit)


def mobius(n: int) -> int:
    """Moebius mu(n): 1 at n=1, (-1)^r for a product of r distinct primes,
    0 when any square divides n.  Trial division; fine for n up to ~10^12."""
    if n < 1:
        raise DomainError("mobius requires n >= 1")
    if n == 1:
        return 1
    r = 0
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            r += 1
        d += 1 if d == 2 else 2
    if n > 1:
        r += 1
    return -1 if r % 2 else 1


def mobius_sieve(limit: int) -> np.ndarray:
    """mu(1..limit) as an int8 array (index 0 unused), via a linear sieve."""
    if limit < 1:
        raise DomainError("mobius_sieve limit must be >= 1")
    mu = np.ones(limit + 1, dtype=np.int8)
    primes = sieve(max(2, limit)).primes if limit >= 2 else np.array([], dtype=np.int64)
    for p in primes:
        mu[p::p] *= -1
        p2 = int(p) * int(p)
        if p2 <= limit:
            mu[p2::p2] = 0
    return mu


def euler_product_bosonic(s: float, table: PrimeTable) -> tuple[float, float]:
    """Truncated Euler product prod_{p <= P} (1 - p^-s)^-1 with a rigorous
    absolute tail bound.

    Each local factor is (1 - p^-s)^-1, the spectral partition function of
    a single circle of circumference 1/ln p.  The product over all primes is
    zeta(s); the missing factors are bounded through
    ln zeta(s) - ln(partial) = sum_{p > P} -ln(1 - p^-s) <= 2 sum_{n > P} n^-s
    and the integral tail bound for the Dirichlet sum."""
    if not s > 1.0:
        raise HagedornError("euler product diverges for s <= 1")
    p = table.primes.astype(np.float64)
    value = float(np.prod(1.0 / (1.0 - p**-s)))
    tail_sum = dirichlet_tail_bound(table.limit, s)
    rounding = 4.0 * len(table) * np.finfo(float).eps
    bound = value * (math.expm1(2.0 * tail_sum) + rounding)
    return value, bound


def dirichlet_tail_bound(n: int, s: float) -> float:
    """integral bound sum_{m > n} m^-s <= n^(1-s) / (s-1) for s > 1."""
    if not s > 1.0:
        raise DomainError("tail bound needs s > 1")
    return n ** (1.0 - s) / (s - 1.0)


def dirichlet_inverse_zeta(s: float, n_terms: int) -> float:
    """Truncated Moebius series sum_{n <= N} mu(n) n^-s, approximating
    1/zeta(s) for s > 1."""
    if not s > 1.0:
        raise DomainError("dirichlet_inverse_zeta requires s > 1")
    if n_terms < 1:
        raise DomainError("need at least one term")
    mu = mobius_sieve(n_terms)
    n = np.arange(1, n_terms + 1, dtype=np.float64)
    return float(np.sum(mu[1:].astype(np.float64) * n**-s))


def partition_bosonic(beta_omega: float) -> float:
    """Z_B = zeta(beta omega); diverges at and below the pole."""
    if not beta_omega > 1.0:
        raise HagedornError(f"bosonic partition diverges for beta*omega = {beta_omega} <= 1")
    return zeta(beta_omega).real


def partition_fermionic(beta_omega: float) -> float:
    """Z_F = zeta(beta omega) / zeta(2 beta omega)."""
    if not beta_omega > 1.0:
        raise HagedornError(f"fermionic partition diverges for beta*omega = {beta_omega} <= 1")
    return zeta(beta_omega).real / zeta(2.0 * beta_omega).real


def partition_parafermion(beta_omega: float, r: int) -> float:
    """Z_r = zeta(beta omega) / zeta(r beta omega): at most r-1 quanta per
    mode.  r = 2 recovers the fermionic gas."""
    if r < 2:
        raise DomainError("parafermion order must be >= 2")
    if not beta_omega > 1.0:
        raise HagedornError(f"parafermion partition diverges for beta*omega = {beta_omega} <= 1")
    return zeta(beta_omega).real / zeta(r * beta_omega).real


def mixture_identity_residual(beta_omega: float, n_terms: int = 100_000) -> float:
    """Residual of Z_F(x) Z_B(2x) = Z_B(x) at x = beta omega, with Z_F built
    independently from the Moebius series: Z_F = zeta(x) * sum mu(n) n^(-2x).

    The Moebius route keeps the check non-circular: it never divides by
    zeta(2x)."""
    if not beta_omega > 1.0:
        raise HagedornError("mixture identity needs beta*omega > 1")
    zb = zeta(beta_omega).real
    zb2 = zeta(2.0 * beta_omega).real
    zf_indep = zb * dirichlet_inverse_zeta(2.0 * beta_omega, n_terms)
    return abs(zf_indep * zb2 - zb)


def enumerate_occupation_states(energy_cutoff: float) -> list[OccupationState]:
    """All bosonic occupation states with sum n_k ln p_k <= cutoff, i.e. all
    integers prod p_k^{n_k} <= exp(cutoff), enumerated by depth-first search
    over the primes.  By unique factorization each integer appears exactly
    once.  Guarded against combinatorial explosion."""
    if energy_cutoff < 0.0:
        raise DomainError("energy cutoff must be >= 0")
    # tiny slack so cutoffs written as ln(N) include the state with value N
    max_value = int(math.floor(math.exp(energy_cutoff) * (1.0 + 1e-12)))
    if max_value > _ENUMERATION_GUARD:
        raise DomainError(
            f"cutoff admits ~{max_value} states; guard is {_ENUMERATION_GUARD}"
        )
    primes = sieve(max(2, max_value)).primes.tolist() if max_value >= 2 else []
    out: list[OccupationState] = []

    def descend(idx: int, value: int, occ: list[tuple[int, int]]) -> None:
        out.append(OccupationState(occupations=tuple(occ), value=value))
        for j in range(idx, len(primes)):
            p = primes[j]
            if value * p > max_value:
                # primes are ascending: later branches only grow
                break
            v = value * p
            count = 1
            while v <= max_value:
                descend(j + 1, v, occ + [(j, count)])
                v *= p
                count += 1

    descend(0, 1, [])
    out.sort(key=lambda st: st.value)
    return out


def state_enumeration_partition(beta_omega: float, energy_cutoff: float) -> tuple[float, float]:
    """Brute-force partition sum over occupation states below the cutoff,
    sum_states exp(-beta omega sum n_k ln p_k) = sum_{n <= e^cutoff} n^(-beta omega),
    plus the integral remainder bound for the discarded states."""
    if not beta_omega > 1.0:
        raise HagedornError("state enumeration needs beta*omega > 1")
    states = enumerate_occupation_states(energy_cutoff)
    values = np.array([st.value for st in states], dtype=np.float64)
    total = float(np.sum(values**-beta_omega))
    remainder = dirichlet_tail_bound(max(int(values[-1]), 1), beta_omega)
    return total, remainder
