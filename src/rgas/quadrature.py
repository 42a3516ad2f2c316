"""Adaptive quadrature with explicit error accounting.

Panel rule: embedded Gauss(7)/Kronrod(15) pair; the reported panel error is
the raw |K15 - G7| difference, which is deliberately conservative so that the
returned ``abs_error`` bounds the true error on well-behaved integrands.

Integrands must be vectorized and elementwise: they receive one 1-d numpy
array holding the nodes of many panels at once (every panel of the initial
grid, or both halves of a split panel) and return an array of the same
length whose k-th value depends on the k-th node alone (real or complex).

Three entry points:
  * ``integrate``            finite interval, optional endpoint-log grading;
  * ``integrate_exp_weight`` integrals of g against a normalized exponential
                             density on [0, inf);
  * ``principal_value``      Cauchy principal values through a simple pole,
                             by symmetric subtraction of the smooth factor,
                             as plain ``integrate`` calls on either side.

Step generators.  The adaptive loop is written once, as the generator
``_adaptive``: it yields an array of nodes (a sliver probe, a panel set or
a split panel), is sent the integrand's values there and finally returns
the QuadResult.  ``integrate`` answers each yield with a plain callable.

Batch steps run many integrals in lockstep, so that an expensive kernel is
called once per round for all of them.  A batch step generator yields a
list of requests (kernel, s), a vectorized elementwise kernel and the 1-d
array it is wanted at, and is sent the list of answers in the same order:

  * ``ask(kernel, s)``         one request; returns kernel(s);
  * ``integrate_steps``        ``integrate`` whose integrand is itself a
                               batch step generator (``yield from ask(...)``);
  * ``gather(jobs)``           advances every job one step per round and
                               returns their results; on failure it raises
                               the error of the first failing job in list
                               order, as a sequential loop would;
  * ``serve(job)``             runs a job: each round, one call per kernel on
                               the concatenated nodes, cut into chunks of at
                               most ``_MAX_BATCH`` = 1024 nodes.

Because kernels are elementwise, every integral receives the values it
would receive alone, makes the same splits and sums in the same order: a
lockstep run returns the QuadResults of running the integrals one by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = ["QuadResult", "integrate", "integrate_exp_weight", "principal_value"]

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

_GRADE_LEVELS = 60  # geometric grading (ratio 1/2) toward a log endpoint

# rounding floor added to each panel's |K15 - G7|, relative to |K15|
_PANEL_ROUNDING = 50.0 * np.finfo(float).eps


@dataclass
class QuadResult:
    """Value with a conservative absolute-error estimate."""

    value: float | complex
    abs_error: float
    evaluations: int
    converged: bool


def _panel_steps(edges):
    """One GK15 pass over each panel [edges[i], edges[i+1]]: yields the
    nodes of all panels as one array and is sent the integrand there.
    Returns a list of (lo, hi, I15, err_est), one per panel, in the order
    of the edges."""
    lo = np.asarray(edges[:-1], dtype=np.float64)
    hi = np.asarray(edges[1:], dtype=np.float64)
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    x = c[:, None] + h[:, None] * _NODES
    y = np.asarray((yield x.reshape(-1))).reshape(x.shape)
    finite = np.all(np.isfinite(y), axis=1)
    if not np.all(finite):
        k = int(np.argmin(finite))
        raise DomainError(f"integrand not finite inside [{edges[k]!r}, {edges[k + 1]!r}]")
    # a row sum over C-contiguous rows rounds as np.sum does on one panel's
    # values; the fancy-indexed Gauss columns are not C-contiguous, and a
    # row sum over them accumulates in another order
    gauss = np.ascontiguousarray(y[:, _GAUSS_IDX])
    i15 = (h * np.sum(_WK * y, axis=1)).tolist()
    i7 = (h * np.sum(_WGAUSS * gauss, axis=1)).tolist()
    return [
        (a, b, k15, abs(k15 - g7) + _PANEL_ROUNDING * abs(k15))
        for a, b, k15, g7 in zip(edges[:-1], edges[1:], i15, i7)
    ]


def _drive(steps, f):
    """Run a step generator to its result, answering each node array x with
    f(x)."""
    x = next(steps)
    while True:
        try:
            x = steps.send(f(x))
        except StopIteration as stop:
            return stop.value


def _graded_edges(a: float, b: float, singular_left: bool, singular_right: bool):
    """Panel edges for [a, b], geometrically graded (ratio 1/2) toward
    flagged endpoints.  Grading stops once panels are so narrow that the
    quadrature nodes would round onto the endpoint; the uncovered sliver is
    returned so the caller can fold a bound on it into the error estimate.

    Returns (edges, slivers) where slivers is a list of (endpoint, width,
    direction) with direction +1 when the singularity is at the left edge."""
    if not (singular_left or singular_right):
        return [a, b], []
    width = b - a
    if singular_left and singular_right:
        mid = a + 0.5 * width
        left, sl = _graded_edges(a, mid, True, False)
        right, sr = _graded_edges(mid, b, False, True)
        return left + right[1:], sl + sr
    # keep the innermost node at least ~16 ulp away from the endpoint
    scale = max(1.0, abs(a), abs(b))
    w_stop = max(16.0 * np.finfo(float).eps * scale / 0.004, width * 2.0 ** (-_GRADE_LEVELS))
    levels = max(1, min(_GRADE_LEVELS, int(math.floor(math.log2(width / w_stop)))))
    offsets = [width * 0.5**k for k in range(1, levels + 1)]
    if singular_left:
        edges = [a + off for off in reversed(offsets)] + [b]
        slivers = [(a, offsets[-1], +1)]
    else:
        edges = [a] + [b - off for off in offsets]
        slivers = [(b, offsets[-1], -1)]
    return edges, slivers


def _adaptive(
    a: float,
    b: float,
    tol: float = 1e-10,
    singular_left: bool = False,
    singular_right: bool = False,
    max_panels: int = 4096,
    rel_tol: float = 0.0,
):
    """The GK15 loop of ``integrate`` as a generator: yields node arrays, is
    sent the integrand's values there, and returns the QuadResult."""
    if not a < b:
        raise DomainError("integrate requires a < b")
    edges, slivers = _graded_edges(a, b, singular_left, singular_right)
    evals = 0
    sliver_bound = 0.0
    for endpoint, delta, direction in slivers:
        # integrable singularity: bound the uncovered sliver by 3 * width *
        # |f| sampled just inside the first resolved panel
        probe = endpoint + direction * 0.6 * delta
        fval = np.asarray((yield np.array([probe])))[0]
        evals += 1
        sliver_bound += 3.0 * delta * abs(complex(fval))
    panels = yield from _panel_steps(edges)
    evals += 15 * len(panels)

    min_width = (b - a) * 1e-14
    while True:
        total_err = sum(p[3] for p in panels)
        if total_err <= 0.5 * max(tol, rel_tol * abs(sum(p[2] for p in panels))):
            break
        # split the worst panel that is still splittable
        worst = max(
            (p for p in panels if (p[1] - p[0]) > min_width),
            key=lambda p: p[3],
            default=None,
        )
        if worst is None:
            break
        if len(panels) >= max_panels:
            raise ConvergenceError(
                f"integrate: {max_panels}-panel budget exhausted "
                f"(err={total_err:.3e}, tol={tol:.3e})"
            )
        panels.remove(worst)
        lo, hi = worst[0], worst[1]
        panels.extend((yield from _panel_steps([lo, 0.5 * (lo + hi), hi])))
        evals += 30

    panels.sort(key=lambda p: p[0])
    value = sum(p[2] for p in panels)
    abs_error = float(sum(p[3] for p in panels)) + sliver_bound
    return QuadResult(value, abs_error, evals, abs_error <= max(tol, rel_tol * abs(value)))


def integrate(
    f,
    a: float,
    b: float,
    tol: float = 1e-10,
    singular_left: bool = False,
    singular_right: bool = False,
    max_panels: int = 4096,
    rel_tol: float = 0.0,
) -> QuadResult:
    """Adaptive bisection of [a, b] until the summed |K15 - G7| estimates
    drop below max(tol, rel_tol |value|)/2.  Integrable endpoint (log-type)
    singularities should be flagged so the panels are graded toward them."""
    return _drive(_adaptive(a, b, tol, singular_left, singular_right, max_panels, rel_tol), f)


def integrate_exp_weight(g, rate: float, tol: float = 1e-10) -> QuadResult:
    """integral_0^inf g(w) * rate * exp(-rate w) dw.

    The density is integrated exactly over [0, 40/rate]; the remainder is
    bounded by exp(-40) times a sampled bound on |g| and folded into the
    error estimate.  g must grow sub-exponentially."""
    if not rate > 0.0:
        raise DomainError("rate must be positive")
    cutoff = 40.0 / rate
    probes = np.abs(np.asarray(g(np.array([1.0, 1.25, 1.5]) * cutoff), dtype=complex))
    g40 = float(probes[0])
    g60 = float(probes[2])
    if g60 > 1e6 * (1.0 + g40):
        raise DomainError("integrand grows too fast for the exponential weight")
    res = integrate(lambda w: np.asarray(g(w)) * (rate * np.exp(-rate * w)), 0.0, cutoff, tol)
    tail = 4.0 * (float(np.max(probes)) + 1e-300) * math.exp(-40.0)
    return QuadResult(res.value, res.abs_error + tail, res.evaluations + 3, res.converged)


def principal_value(h, pole: float, a: float, b: float, tol: float = 1e-10) -> QuadResult:
    """PV integral of h(x) / (x - pole) over (a, b), a < pole < b.

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

    h_pole = complex(np.asarray(h(np.array([pole])))[0])
    if h_pole.imag == 0.0:
        h_pole = h_pole.real

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
# batch steps: many adaptive integrals in lockstep
# ----------------------------------------------------------------------

# Most nodes one kernel call receives from ``serve``; a round holding more
# is cut into chunks of this size, which bounds the kernels' work arrays.
_MAX_BATCH = 1024


def ask(kernel, s):
    """Batch step: request kernel(s) and return it.  Raises what the kernel
    raised on s alone."""
    (value,) = yield [(kernel, s)]
    if isinstance(value, Exception):
        raise value
    return value


def integrate_steps(
    integrand,
    a: float,
    b: float,
    tol: float = 1e-10,
    singular_left: bool = False,
    singular_right: bool = False,
    max_panels: int = 4096,
):
    """``integrate`` as a batch step generator; integrand(x) is a step
    integrand that yields requests and returns the values at x."""
    steps = _adaptive(a, b, tol, singular_left, singular_right, max_panels)
    x = next(steps)
    while True:
        y = yield from integrand(x)
        try:
            x = steps.send(y)
        except StopIteration as stop:
            return stop.value


def gather(jobs):
    """Batch step generator that advances every job one step per round and
    returns their results in order.

    When jobs raise, the error raised is that of the first failing job in
    list order, the one a loop running the jobs one after another would
    meet: jobs after a failed one are dropped, earlier ones run on."""
    jobs = list(jobs)
    results = [None] * len(jobs)
    pending = {}  # job index -> its requests of this round, ascending
    failure = None

    def advance(i, answers):
        """Step job i (send None starts it); False once it has raised."""
        nonlocal failure
        try:
            pending[i] = jobs[i].send(answers)
        except StopIteration as stop:
            results[i] = stop.value
            pending.pop(i, None)
        except Exception as exc:
            failure = exc
            for j in [j for j in pending if j >= i]:
                del pending[j]
            return False
        return True

    for i in range(len(jobs)):
        if not advance(i, None):
            break
    while pending:
        order = list(pending.items())
        answers = yield [r for _, requests in order for r in requests]
        pos = 0
        for i, requests in order:
            if not advance(i, answers[pos : pos + len(requests)]):
                break
            pos += len(requests)
    if failure is not None:
        raise failure
    return results


def serve(job):
    """Run a batch step generator to its result.

    Each round's requests are grouped by kernel; every group is one
    concatenated node array, evaluated in chunks of at most ``_MAX_BATCH``
    nodes and split back.  Kernels must be elementwise, so a request gets the
    values it would get alone.  When a group's evaluation raises, each of
    its requests is evaluated alone and answered with its values or with the
    exception it raised, which ``ask`` raises inside the requesting job."""
    try:
        requests = next(job)
        while True:
            requests = job.send(_answer(requests))
    except StopIteration as stop:
        return stop.value


def _answer(requests):
    answers = [None] * len(requests)
    groups = {}
    for k, (kernel, _) in enumerate(requests):
        groups.setdefault(kernel, []).append(k)
    for kernel, ks in groups.items():
        nodes = np.concatenate([requests[k][1] for k in ks])
        try:
            values = np.concatenate(
                [kernel(nodes[i : i + _MAX_BATCH]) for i in range(0, nodes.size, _MAX_BATCH)]
            )
        except Exception:
            for k in ks:
                try:
                    answers[k] = kernel(requests[k][1])
                except Exception as exc:
                    answers[k] = exc
            continue
        sizes = np.cumsum([requests[k][1].size for k in ks])[:-1]
        for k, part in zip(ks, np.split(values, sizes)):
            answers[k] = part
    return answers
