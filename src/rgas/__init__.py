"""rgas: thermodynamics of the bosonic randomized Riemann gas.

A numpy-based library (plus a small CLI) for the statistical mechanics of a
boson gas whose single-particle energies are logarithms of primes, so that
the canonical partition function is the Riemann zeta function.  The gas
frequency is treated as a random variable; quenched averages of the free
energy, energy, and entropy densities are computed for discrete and
exponential-continuum ensembles, including the decomposition of the average
energy density into pole, nontrivial-zero, and trivial-zero contributions,
whose sum is validated against an independent oracle: the quadrature of
ln|zeta| under the weight (1 - kappa s) e^(-kappa s), kappa = lam/beta.
"""

from . import arith, numkernel, quadrature, superzeta, thermo, zerofinder
from .errors import (
    AccuracyError,
    ConvergenceError,
    DomainError,
    HagedornError,
    MissedZeroError,
    PoleError,
    RgasError,
    TableFormatError,
)

__version__ = "0.1.0"

__all__ = [
    "arith",
    "numkernel",
    "quadrature",
    "superzeta",
    "thermo",
    "zerofinder",
    "RgasError",
    "PoleError",
    "DomainError",
    "AccuracyError",
    "HagedornError",
    "ConvergenceError",
    "MissedZeroError",
    "TableFormatError",
    "__version__",
]
