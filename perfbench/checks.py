"""Output checks for each op, run after the timed passes.

Each check gets the op's plan entry and its captured stdout and returns a
list of problems (empty when the output is right).  The references are
independent of the program: mpmath for zeta values and zero ordinates, and
closed forms or identities written out here.  mpmath is imported under a
guard; without it the mpmath comparisons are skipped and said to be.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

try:
    import mpmath
except ImportError:  # the reference checks that need it are skipped
    mpmath = None

# printed numbers carry 12 significant digits
ROUNDING = 1e-11


def _close(x: float, ref: float, abs_tol: float) -> bool:
    return math.isfinite(x) and abs(x - ref) <= abs_tol + ROUNDING * abs(ref)


def _rows(stdout: str, fmt: str, columns: tuple[str, ...]) -> list[dict]:
    """Rows of a `thermo` or `hagedorn` table in either output format (JSON
    renders nan as a string, which float() reads)."""
    if fmt == "json":
        return json.loads(stdout)
    lines = stdout.splitlines()
    if not lines or tuple(lines[0].split(",")) != columns:
        raise ValueError(f"unexpected CSV header {lines[:1]!r}")
    return [dict(zip(columns, line.split(","))) for line in lines[1:]]


def _grid(c: dict) -> np.ndarray:
    if c["steps"] == 1:
        return np.array([c["beta_min"]])
    return np.linspace(c["beta_min"], c["beta_max"], c["steps"])


def _check_grid(rows: list[dict], c: dict, problems: list) -> np.ndarray:
    betas = _grid(c)
    if len(rows) != len(betas):
        problems.append(f"{len(rows)} rows, expected {len(betas)}")
        return betas[:0]
    for row, b in zip(rows, betas):
        if not _close(float(row["beta"]), b, 0.0):
            problems.append(f"beta {row['beta']} where {b!r} was asked")
            break
    return betas


def check_thermo_continuum(c: dict, stdout: str) -> list[str]:
    """Im f against the closed form -(pi/beta)(1 - exp(-lam/beta)) (the one
    rgas.thermo.free_energy_im_closed_form states, volume 1), the entropy
    identity S = beta (eps - Re f), and the branch flag."""
    problems: list[str] = []
    rows = _rows(stdout, c["format"], ("beta", "f_re", "f_im", "eps", "entropy", "flags"))
    betas = _check_grid(rows, c, problems)
    lam, tol = c["lam"], 1e-8
    for row, b in zip(rows, betas):
        f_re, f_im, eps, s = (float(row[k]) for k in ("f_re", "f_im", "eps", "entropy"))
        im_ref = -math.pi / b * (1.0 - math.exp(-lam / b))
        # the quadrature answers to `tol` in the integral, scaled by lam/beta^2
        if not _close(f_im, im_ref, tol * lam / (b * b)):
            problems.append(f"beta={b!r}: Im f {f_im!r}, closed form {im_ref!r}")
        s_ref = b * (eps - f_re)
        if not _close(s, s_ref, ROUNDING * b * (abs(eps) + abs(f_re))):
            problems.append(f"beta={b!r}: entropy {s!r}, beta*(eps - Re f) = {s_ref!r}")
        want_flag = "complex_branch_active" if f_im != 0.0 else ""
        if row["flags"] != want_flag:
            problems.append(f"beta={b!r}: flags {row['flags']!r}, expected {want_flag!r}")
    return problems


def _discrete_reference(c: dict, beta: float, want_eps: bool) -> tuple[float, float]:
    """f = -(1/beta) sum P_k ln zeta(beta w_k) and eps = -sum P_k w_k
    (zeta'/zeta)(beta w_k), volume 1, in 30-digit arithmetic."""
    with mpmath.workdps(30):
        f = mpmath.mpf(0)
        eps = mpmath.mpf(0)
        for w, p in zip(c["omegas"], c["masses"]):
            s = mpmath.mpf(beta) * mpmath.mpf(w)
            z = mpmath.zeta(s)
            f += mpmath.mpf(p) * mpmath.log(z)
            if want_eps:
                eps += mpmath.mpf(p) * mpmath.mpf(w) * mpmath.zeta(s, derivative=1) / z
        return float(-f / mpmath.mpf(beta)), float(-eps)


def check_discrete(c: dict, stdout: str) -> list[str]:
    """Hagedorn flags exactly where beta*omega_1 <= 1, and sampled finite
    rows against mpmath."""
    problems: list[str] = []
    thermo = c["kind"] == "thermo"
    columns = ("beta", "f_re", "f_im", "eps", "entropy", "flags") if thermo else ("beta", "f", "flags")
    rows = _rows(stdout, c["format"], columns)
    betas = _check_grid(rows, c, problems)
    w1 = c["omegas"][0]
    for j, (row, b) in enumerate(zip(rows, betas)):
        divergent = b * w1 <= 1.0
        if thermo or c["format"] == "csv":
            flagged = row["flags"] == "hagedorn_divergent"
            if not flagged and row["flags"] != "":
                problems.append(f"row {j}: unexpected flags {row['flags']!r}")
        else:
            flagged = row["divergent"] is True
        if flagged != divergent:
            problems.append(f"row {j}: beta*omega_1 = {b * w1!r} but divergent flag is {flagged}")
            continue
        values = [float(row[k]) for k in (("f_re", "f_im", "eps", "entropy") if thermo else ("f",))]
        if divergent and not all(math.isnan(v) for v in values):
            problems.append(f"row {j}: divergent row carries numbers")
        if not divergent and not all(math.isfinite(v) for v in values):
            problems.append(f"row {j}: non-finite value below the Hagedorn point")
        if thermo and not divergent and values[1] != 0.0:
            problems.append(f"row {j}: discrete free energy has an imaginary part")
    if mpmath is None or problems:
        return problems
    for j in c["sample_rows"]:
        b = float(betas[j])
        f_ref, eps_ref = _discrete_reference(c, b, thermo)
        f = float(rows[j]["f_re" if thermo else "f"])
        # kernels answer to 1e-12 absolute; 1e-9 leaves room for the sums
        if not _close(f, f_ref, 1e-9):
            problems.append(f"row {j}: f {f!r}, mpmath {f_ref!r}")
        if thermo:
            eps, s = float(rows[j]["eps"]), float(rows[j]["entropy"])
            if not _close(eps, eps_ref, 1e-9):
                problems.append(f"row {j}: eps {eps!r}, mpmath {eps_ref!r}")
            if not _close(s, b * (eps_ref - f_ref), 1e-9 * max(1.0, b)):
                problems.append(f"row {j}: entropy {s!r}, mpmath {b * (eps_ref - f_ref)!r}")
    return problems


def check_breakdown(c: dict, stdout: str) -> list[str]:
    """|total - oracle| within the reported abs_error."""
    d = json.loads(stdout)
    problems = []
    if d.get("zeros_used") != c["zeros"]:
        problems.append(f"zeros_used {d.get('zeros_used')!r}, asked {c['zeros']}")
    total, oracle, err = float(d["total"]), float(d["oracle"]), float(d["abs_error"])
    if not (math.isfinite(err) and _close(total, oracle, err)):
        problems.append(f"|total - oracle| = {abs(total - oracle)!r} > abs_error {err!r}")
    return problems


_WROTE = re.compile(r"^wrote (\d+) ordinates to (\S+) \(abs_error ([0-9.eE+-]+)\)\n$")
_HEADER = re.compile(r"^# rgas-zeros v1 count=(\d+) abs_error=([0-9.eE+-]+)$")


def check_zeros(c: dict, stdout: str) -> list[str]:
    """Count, strictly increasing ordinates, and sampled ordinates within the
    table's stated abs_error of mpmath.zetazero."""
    m = _WROTE.match(stdout)
    if m is None or int(m.group(1)) != c["count"] or m.group(2) != c["out"]:
        return [f"unexpected stdout {stdout!r}"]
    with open(c["out"], encoding="ascii") as fh:
        lines = fh.read().splitlines()
    h = _HEADER.match(lines[0]) if lines else None
    if h is None or int(h.group(1)) != c["count"]:
        return [f"bad table header {lines[:1]!r}"]
    err = float(h.group(2))
    gammas = np.array([float(x) for x in lines[1:]])
    problems = []
    if gammas.size != c["count"]:
        problems.append(f"{gammas.size} ordinates, expected {c['count']}")
    if gammas.size and (gammas[0] <= 14.0 or np.any(np.diff(gammas) <= 0.0)):
        problems.append("ordinates not strictly increasing above 14")
    if mpmath is None or problems:
        return problems
    for n in c["samples"]:
        with mpmath.workdps(20):
            ref = float(mpmath.zetazero(n).imag)
        if abs(gammas[n - 1] - ref) > err:
            problems.append(f"zero {n}: {gammas[n - 1]!r}, mpmath {ref!r}, abs_error {err!r}")
    return problems


CHECKS = {
    "zeros": check_zeros,
    "thermo-continuum": check_thermo_continuum,
    "thermo": check_discrete,
    "hagedorn": check_discrete,
    "breakdown": check_breakdown,
}


def check(op: dict, stdout: str) -> list[str]:
    c = op["check"]
    try:
        return CHECKS[c["kind"]](c, stdout)
    except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
