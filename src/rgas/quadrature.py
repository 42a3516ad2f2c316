"""Adaptive quadrature with explicit error accounting.

Panel rule: embedded Gauss(7)/Kronrod(15) pair; the reported panel error is
the raw |K15 - G7| difference plus a rounding floor of 50 eps |K15|, which
is deliberately conservative so that the returned ``abs_error`` bounds the
true error on well-behaved integrands.

One engine.  ``integrate_rows`` integrates many real rows at once, the
integrals of weight(row, s) kernel(s), or of the weight alone, on the
panels of one dyadic tree.  Each row refines on its own leaves, by its own
weight and tolerance, and sums its value and error over them in s order.
Each round splits every leaf whose error exceeds its share of the row's
tolerance, except a leaf at its rounding floor, which a split cannot lower,
and a leaf at the depth limit; a leaf that ends at 0 has no depth limit, so
an integrable singularity belongs at s = 0.  A row's tolerance is floored
at 4 times the sum of its leaves' rounding floors, what doubles can resolve
of it.  A row that cannot meet its tolerance ends with ``converged`` False
and its true error estimate; one that needs more than ``_MAX_PANELS``
leaves raises ConvergenceError.

Panels are dyadic intervals [k 2^e, (k+1) 2^e], so rows that need the same
panel share its nodes bit for bit; one call keeps the values of each kernel
per panel, and each round calls a kernel once per set that names it, for
the panels no row has asked for before.  So a row returns the same
QuadResult whatever rows run beside it.

A ``RowSet`` is one integral: its rows, the kernel that multiplies their
weights (or None), and the step that makes its value of their QuadResults.
``integrate_rows`` runs any number of sets in one call.

The other entry points are one-set calls of it, for real elementwise
integrands that receive one 1-d array holding the nodes of all the panels
of a round and return an array of the same length whose k-th value depends
on the k-th node alone:
  * ``integrate``            one row on [a, b], starting from that panel;
  * ``integrate_exp_weight`` integrals of g against a normalized exponential
                             density on [0, inf), one row on panels graded
                             toward 0;
  * ``principal_value``      Cauchy principal values through a simple pole,
                             by symmetric subtraction of the smooth factor,
                             as plain ``integrate`` calls on either side.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "QuadResult",
    "RowSet",
    "dyadic_edges",
    "integrate",
    "integrate_exp_weight",
    "integrate_rows",
    "principal_value",
]

# Gauss-Kronrod 15/7 abscissae and weights on [-1, 1] (positive half).
_XGK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)
_WGK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)

# full 15-node arrays, ordered left to right
_NODES = np.array([-x for x in _XGK[:-1]] + [0.0] + [x for x in reversed(_XGK[:-1])])
_WK = np.array([w for w in _WGK[:-1]] + [_WGK[-1]] + [w for w in reversed(_WGK[:-1])])
# Gauss-7 lives on nodes 1, 3, 5, 7, 9, 11, 13 of the 15-point set
_GAUSS_IDX = np.arange(1, 15, 2)
_WGAUSS = np.array([_WG[0], _WG[1], _WG[2], _WG[3], _WG[2], _WG[1], _WG[0]])

# rounding floor added to each panel's |K15 - G7|, relative to |K15|
_PANEL_ROUNDING = 50.0 * np.finfo(float).eps


@dataclass
class QuadResult:
    """Value with a conservative absolute-error estimate."""

    value: float | complex
    abs_error: float
    evaluations: int
    converged: bool


# one integral for integrate_rows: weight(rows, x) numbering its rows from 0,
# their edges and tolerances, kernel, None or a real elementwise function
# that multiplies every row's weight, and finish, which makes the
# integral's value of their QuadResults
RowSet = namedtuple("RowSet", "weight edges tols kernel finish")


def _gk15(lo, hi, y):
    """K15 and G7 values of the panels [lo[i], hi[i]] from the integrand's
    values y[i] at their nodes; DomainError where a value is not finite."""
    finite = np.all(np.isfinite(y), axis=1)
    if not np.all(finite):
        k = int(np.argmin(finite))
        raise DomainError(f"integrand not finite inside [{float(lo[k])!r}, {float(hi[k])!r}]")
    h = 0.5 * (hi - lo)
    # a row sum over C-contiguous rows rounds as np.sum does on one panel's
    # values; the fancy-indexed Gauss columns are not C-contiguous, and a
    # row sum over them accumulates in another order
    gauss = np.ascontiguousarray(y[:, _GAUSS_IDX])
    return h * np.sum(_WK * y, axis=1), h * np.sum(_WGAUSS * gauss, axis=1)


def integrate(f, a: float, b: float, tol: float = 1e-10) -> QuadResult:
    """integral_a^b f for a real elementwise f: one row of integrate_rows,
    with weight f and no kernel, that starts from the single panel [a, b].
    A panel that ends at 0 keeps splitting while its error is above its
    share, so an integrable singularity belongs at a = 0 or b = 0."""
    if not a < b:
        raise DomainError("integrate requires a < b")
    return integrate_rows(_real_row(f, [a, b], tol, lambda results: results[0]))[0]


def _real_row(f, edges, tol: float, finish) -> RowSet:
    """The integral of f over [edges[0], edges[-1]] as one row without
    kernel, starting from the panels between the edges."""

    def weight(rows, x):
        y = np.asarray(f(x.reshape(-1)))
        if np.iscomplexobj(y):
            raise DomainError("integrand must be real")
        return np.asarray(y, dtype=np.float64).reshape(x.shape)

    return RowSet(weight, [np.asarray(edges, dtype=np.float64)], [tol], None, finish)


def integrate_exp_weight(g, rate: float, tol: float = 1e-10) -> QuadResult:
    """integral_0^inf g(w) * rate * exp(-rate w) dw for a real g.

    The density is integrated exactly over [0, 40/rate], from panels graded
    toward 0 in rate w; the remainder is bounded by exp(-40) times a sampled
    bound on |g| and folded into the error estimate.  g must grow
    sub-exponentially."""
    if not rate > 0.0:
        raise DomainError("rate must be positive")
    probes = np.abs(np.asarray(g(np.array([1.0, 1.25, 1.5]) * (40.0 / rate)), dtype=complex))
    if probes[2] > 1e6 * (1.0 + probes[0]):
        raise DomainError("integrand grows too fast for the exponential weight")
    edges = np.append(dyadic_edges(-3, 5), 40.0) / rate
    tail = 4.0 * (float(np.max(probes)) + 1e-300) * math.exp(-40.0)

    def finish(results):
        (res,) = results
        return QuadResult(res.value, res.abs_error + tail, res.evaluations + 3, res.converged)

    return integrate_rows(_real_row(lambda w: np.asarray(g(w)) * (rate * np.exp(-rate * w)), edges, tol, finish))[0]


def principal_value(h, pole: float, a: float, b: float, tol: float = 1e-10) -> QuadResult:
    """PV integral of h(x) / (x - pole) over (a, b), a < pole < b, for a
    real h.

    Uses the symmetric subtraction
      PV = int (h(x) - h(pole)) / (x - pole) dx + h(pole) ln((b-pole)/(pole-a)),
    which leaves a smooth integrand; b may be math.inf, in which case the
    finite part is taken symmetric around the pole and the remainder is
    integrated on geometrically growing panels (h must decay).  h is called
    at the pole, then on one side of it per call.  A node that rounds onto
    the pole leaves the difference quotient 0/0 and raises ConvergenceError."""
    if not a < pole:
        raise DomainError("principal_value requires a < pole < b")
    infinite = math.isinf(b)
    b_eff = pole + (pole - a) if infinite else b
    if not pole < b_eff:
        raise DomainError("principal_value requires a < pole < b")

    h_pole = np.asarray(h(np.array([pole])))[0].item()

    def smooth(x):
        if np.any(x == pole):
            raise ConvergenceError(f"principal_value: a node rounds onto the pole {pole!r}")
        return (np.asarray(h(x)) - h_pole) / (x - pole)

    left = integrate(smooth, a, pole, tol / 3.0)
    right = integrate(smooth, pole, b_eff, tol / 3.0)
    log_term = h_pole * math.log((b_eff - pole) / (pole - a))
    value = left.value + right.value + log_term
    err = left.abs_error + right.abs_error
    evals = left.evaluations + right.evaluations
    converged = left.converged and right.converged

    if infinite:
        def full(x):
            return np.asarray(h(x)) / (x - pole)

        lo = b_eff
        width = max(pole - a, 1.0)
        quiet = 0
        for _ in range(64):
            hi = lo + width
            piece = integrate(full, lo, hi, tol / 8.0)
            value += piece.value
            err += piece.abs_error
            evals += piece.evaluations
            if abs(piece.value) < tol / 16.0:
                quiet += 1
                if quiet >= 2:
                    break
            else:
                quiet = 0
            lo = hi
            width *= 2.0
        else:
            raise ConvergenceError("principal_value: semi-infinite tail did not settle")

    return QuadResult(value, float(err), evals, converged and err <= tol)


# ----------------------------------------------------------------------
# rows on a dyadic panel tree
# ----------------------------------------------------------------------

# a leaf is split only while wider than 2^-_MAX_DEPTH times its larger
# |end|, so that its nodes stay far apart in floating point
_MAX_DEPTH = 40
# most leaves one row may hold; a row that needs more raises ConvergenceError
_MAX_PANELS = 4096
# rows refined together; every block shares the kernel table of the call
_ROW_BLOCK = 256


@functools.cache
def dyadic_edges(first: int, last: int) -> np.ndarray:
    """Edges 0, 2^first, 2^(first+1), ..., 2^last: panels of the dyadic
    tree, graded toward 0.  One read-only array per (first, last), kept for
    the life of the process."""
    edges = np.concatenate(([0.0], np.ldexp(1.0, np.arange(first, last + 1))))
    edges.setflags(write=False)
    return edges


def _kernel_table(kernel):
    """A lookup (c, h) -> kernel at the 15 nodes of each panel with center
    c[i] and half-width h[i], one row per panel, that makes one kernel call
    for the panels it has not seen before and keeps their values."""
    index = {}
    values = []

    def lookup(c, h):
        keys = list(zip(c.tolist(), h.tolist()))
        new = [k for k in dict.fromkeys(keys) if k not in index]
        if new:
            cn, hn = np.array(new).T
            s = cn[:, None] + hn[:, None] * _NODES
            values.append(np.asarray(kernel(s.reshape(-1)), dtype=np.float64).reshape(s.shape))
            index.update(zip(new, range(len(index), len(index) + len(new))))
        return np.concatenate(values)[[index[k] for k in keys]]

    return lookup


def integrate_rows(*sets: RowSet) -> list:
    """The finish of each set on its rows' QuadResults, in one call.  Row r
    of a set is the integral of weight(r, s) kernel(s), or of weight(r, s)
    alone where kernel is None, over [edges[r][0], edges[r][-1]].

    weight(rows, x) gives the real weights of the given rows, in ascending
    order, at the nodes x, one row of x per panel; a kernel is real and
    elementwise on a 1-d array of s, and sets that name the same kernel
    share its table.  Row r starts from the panels between its edges, which
    should be dyadic intervals where it has a kernel (see ``dyadic_edges``),
    and each round splits every leaf whose error exceeds its share
    tols[r]/(2 n) of the n leaves, until the summed estimates are within
    tols[r]/2 or no such leaf can be split, being at its rounding floor or
    at the depth limit (then ``converged`` is whether they are within
    tols[r]); tols[r] is floored at 4 times the sum of the leaves' floors,
    so a row asked for less stops there, unconverged.  A row needing more
    than ``_MAX_PANELS`` leaves raises ConvergenceError."""
    starts = np.cumsum([0] + [len(s.edges) for s in sets]).tolist()
    tables = {kernel: _kernel_table(kernel) for kernel in {s.kernel for s in sets} - {None}}

    def integrand(rows, c, h):
        # the rows come in ascending order, so each set's panels are a slice
        y = np.empty((rows.size, _NODES.size))
        cuts = rows.searchsorted(starts).tolist()
        for s, first, a, b in zip(sets, starts, cuts, cuts[1:]):
            if a < b:
                y[a:b] = s.weight(rows[a:b] - first, c[a:b, None] + h[a:b, None] * _NODES)
                if s.kernel is not None:
                    y[a:b] *= tables[s.kernel](c[a:b], h[a:b])
        return y

    edges = [e for s in sets for e in s.edges]
    tols = np.array([t for s in sets for t in s.tols], dtype=np.float64)
    results = []
    for start in range(0, len(edges), _ROW_BLOCK):
        block = slice(start, start + _ROW_BLOCK)
        results += _refine(integrand, edges[block], tols[block], start)
    return [s.finish(results[a:b]) for s, a, b in zip(sets, starts, starts[1:])]


def _refine(integrand, edges, tols, first_row):
    """The QuadResults of one block of rows, numbered from first_row, whose
    values at the 15 nodes of the panels with centers c and half-widths h
    are integrand(rows, c, h)."""
    n = len(edges)
    results = [None] * n
    evals = np.zeros(n, dtype=np.int64)
    # the panels to evaluate this round, and the leaves so far, one line
    # each: row (exact as a float), lo, hi, K15 value, error
    row = np.repeat(np.arange(n), [len(e) - 1 for e in edges])
    lo = np.concatenate([e[:-1] for e in edges])
    hi = np.concatenate([e[1:] for e in edges])
    leaves = np.empty((5, 0))
    while row.size:
        c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
        y = integrand(row + first_row, c, h)
        i15, i7 = _gk15(lo, hi, y)
        err = np.abs(i15 - i7) + _PANEL_ROUNDING * np.abs(i15)
        evals += 15 * np.bincount(row, minlength=n)
        leaves = np.concatenate((leaves, np.array((row, lo, hi, i15, err))), axis=1)
        # sorted by row, then s: bincount adds up each row's leaves in s order
        leaves = leaves[:, np.lexsort(leaves[1::-1])]
        r, (a, b, v, e) = leaves[0].astype(np.intp), leaves[1:]

        count = np.bincount(r, minlength=n)
        total = np.bincount(r, weights=e, minlength=n)
        # a row is asked for no less than 4 times its rounding floor, the
        # sum of its leaves' floors: a tighter tolerance ends unconverged
        goal = np.maximum(tols, np.bincount(r, weights=np.abs(v), minlength=n) * (4.0 * _PANEL_ROUNDING))
        done = total <= 0.5 * goal
        wide = b - a > np.ldexp(np.maximum(-a, b), -_MAX_DEPTH)
        # a leaf at its rounding floor, |K15 - G7| <= _PANEL_ROUNDING |K15|,
        # is not split: its halves would carry the same floor
        above_floor = e > 2.0 * _PANEL_ROUNDING * np.abs(v)
        split = ~done[r] & (e * 2.0 * count[r] > goal[r]) & wide & above_floor
        n_split = np.bincount(r[split], minlength=n)
        over = (count > 0) & (n_split > 0) & (count + n_split > _MAX_PANELS)
        if over.any():
            j = int(np.argmax(over))
            raise ConvergenceError(
                f"integrate_rows: {_MAX_PANELS}-panel budget exhausted "
                f"(err={total[j]:.3e}, tol={tols[j]:.3e})"
            )
        stop = (count > 0) & (n_split == 0)
        values = np.bincount(r, weights=v, minlength=n)
        for j in np.flatnonzero(stop).tolist():
            value, error = float(values[j]), float(total[j])
            results[j] = QuadResult(value, error, int(evals[j]), bool(error <= tols[j]))
        # each split leaf [a, b] becomes [a, mid] and [mid, b], in row order
        row = np.repeat(r[split], 2)
        lo, hi = np.repeat(a[split], 2), np.repeat(b[split], 2)
        lo[1::2] = hi[::2] = 0.5 * (lo[1::2] + hi[::2])
        leaves = leaves[:, ~split & ~stop[r]]
    return results
