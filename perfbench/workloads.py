"""Seeded op generators for the four benchmark workloads.

Each workload is a *pass*: a fixed list of ``rgas`` CLI invocations whose
inputs are drawn from the seed.  The benchmark repeats the pass back to back
(a closed loop with one client) and reports per-pass figures.

Inputs come from the whole advertised domain.  They are drawn with
stratified (Latin) sampling, in antithetic pairs where an op's cost varies
with its input.  So every seed covers the range of each input, and the work
of a pass is nearly the same from seed to seed.  That keeps the spread of
the timings across seeds small without trimming any part of the domain.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

WORKLOADS = ("zeros", "thermo-continuum", "thermo-discrete", "breakdown")

# Fixed zero table read by every `breakdown` op.  It was written once by
# `rgas zeros --count 3000` and spot-checked against mpmath (see README.md).
ZERO_TABLE = os.path.join("perfbench", "data", "zeros-3000.txt")
ZERO_TABLE_COUNT = 3000


def rng_for(workload: str, seed: int) -> np.random.Generator:
    """Generator that depends only on (workload, seed)."""
    digest = hashlib.sha256(f"{workload}:{seed}:inputs".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def _strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """n points in [0, 1), one in each of n equal strata, in random order."""
    return (rng.permutation(n) + rng.random(n)) / n


def _log_uniform(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _num(x: float) -> str:
    """Exact decimal for a float argument, so the program parses the very
    value the checker uses."""
    return repr(float(x))


def make_plan(workload: str, seed: int, workdir: str, scale: float = 1.0) -> dict:
    """The pass for `workload` and `seed`: ops (argv plus what the checker
    needs) and the input files to write before the run.  `scale` shrinks the
    sizes for the self-test; the benchmark runs at 1."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = rng_for(workload, seed)
    build = {
        "zeros": _zeros,
        "thermo-continuum": _thermo_continuum,
        "thermo-discrete": _thermo_discrete,
        "breakdown": _breakdown,
    }[workload]
    ops, files = build(rng, workdir, scale)
    return {"workload": workload, "seed": seed, "ops": ops, "files": files}


def _zeros(rng, workdir, scale):
    # Two tables per pass with antithetic counts N and 5000 - N, both in
    # [2000, 3000] around the test-suite fixture size: the pass covers the
    # range while its cost barely depends on the seed.
    n1 = 2000 + int(rng.integers(0, 1001))
    counts = [max(2, round(n * scale)) for n in (n1, 5000 - n1)]
    ops = []
    for i, n in enumerate(counts):
        out = os.path.join(workdir, f"zeros-{i}.txt")
        samples = sorted({int(k) for k in rng.integers(1, n + 1, size=2)})
        ops.append(
            {
                "argv": ["zeros", "--count", str(n), "--out", out],
                "check": {"kind": "zeros", "count": n, "out": out, "samples": samples},
            }
        )
    return ops, {}


def _thermo_continuum(rng, workdir, scale):
    # A point costs about twice as much at lam = 0.01 as at lam = 100, so
    # every op gets the same number of steps and lam is stratified.
    n_ops = max(2, round(6 * scale))
    steps = [max(2, round(8 * scale))] * n_ops
    lams = _log_uniform(_strata(rng, n_ops), 0.01, 100.0)
    ops = []
    for i in range(n_ops):
        b_lo, b_hi = sorted(_log_uniform(rng.random(2), 0.05, 20.0))
        fmt = "json" if rng.random() < 0.5 else "csv"
        argv = [
            "thermo", "--lam", _num(lams[i]),
            "--beta-min", _num(b_lo), "--beta-max", _num(b_hi),
            "--steps", str(int(steps[i])),
        ]
        if fmt == "json":
            argv += ["--format", "json"]
        ops.append(
            {
                "argv": argv,
                "check": {
                    "kind": "thermo-continuum", "format": fmt, "lam": float(lams[i]),
                    "beta_min": float(b_lo), "beta_max": float(b_hi), "steps": int(steps[i]),
                },
            }
        )
    return ops, {}


def _thermo_discrete(rng, workdir, scale):
    # Ops come in pairs with K and 205 - K frequencies and the same number of
    # finite rows.  A row's cost is about a + b K, so a pair costs the same
    # whatever K the seed draws.  A thermo row makes 3K one-point kernel
    # calls and a hagedorn row K, so hagedorn ops get more rows.
    k_lo, k_hi = 5, max(6, round(200 * scale))
    ops, files = [], {}
    pairs = (("thermo", 3), ("thermo", 3), ("hagedorn", 8))
    for u, (cmd, finite) in zip(_strata(rng, len(pairs)), pairs):
        k1 = k_lo + round(u * (k_hi - k_lo))
        d1 = int(rng.integers(1, 4))
        for k, divergent in ((k1, d1), (k_lo + k_hi - k1, 4 - d1)):
            ops.append(_discrete_op(rng, workdir, len(ops), cmd, k, finite, divergent, files))
    return ops, files


def _discrete_op(rng, workdir, i, cmd, k, finite, divergent, files):
    omegas = np.sort(rng.uniform(0.5, 5.0, size=k))
    masses = rng.dirichlet(np.ones(k))
    spec = os.path.join(workdir, f"ensemble-{i}.csv")
    files[spec] = "# omega,probability\n" + "".join(
        f"{_num(w)},{_num(p)}\n" for w, p in zip(omegas, masses)
    )
    # put the Hagedorn point 1/omega_1 strictly between grid points
    # `divergent - 1` and `divergent`, 1/4 to 3/4 of a step past the former
    x = 1.0 / omegas[0]
    b_lo = x * rng.uniform(0.2, 0.8)
    step = (x - b_lo) / (divergent - 1 + rng.uniform(0.25, 0.75))
    steps = divergent + finite
    b_hi = b_lo + (steps - 1) * step
    fmt = "json" if rng.random() < 0.5 else "csv"
    argv = [
        cmd, "--spec-file", spec,
        "--beta-min", _num(b_lo), "--beta-max", _num(b_hi), "--steps", str(steps),
    ]
    if fmt == "json":
        argv += ["--format", "json"]
    picks = sorted(int(j) for j in rng.choice(np.arange(divergent, steps), size=2, replace=False))
    return {
        "argv": argv,
        "check": {
            "kind": cmd, "format": fmt, "spec": spec,
            "omegas": omegas.tolist(), "masses": masses.tolist(),
            "beta_min": b_lo, "beta_max": b_hi, "steps": steps,
            "divergent": divergent, "sample_rows": picks,
        },
    }


def _breakdown(rng, workdir, scale):
    # A jittered full factorial: one op in every cell of a 4 x 4 x 4 grid
    # over log lam, log beta and M.  The cost depends on all three and on
    # how they combine, and a full grid keeps the pass's total steady.
    cells = max(1, round(4 * scale ** (1 / 3)))
    m_lo, m_hi = 100, max(101, round(ZERO_TABLE_COUNT * scale))
    ops = []
    for i in range(cells):
        for j in range(cells):
            for k in range(cells):
                ul, ub, um = (np.array([i, j, k]) + rng.random(3)) / cells
                lam = float(_log_uniform(ul, 0.01, 100.0))
                beta = float(_log_uniform(ub, 0.1, 10.0))
                ops.append(breakdown_op(lam, beta, m_lo + round(um * (m_hi - m_lo))))
    return ops, {}


def breakdown_op(lam: float, beta: float, m: int) -> dict:
    return {
        "argv": [
            "breakdown", "--lam", _num(lam), "--beta", _num(beta),
            "--zeros-file", ZERO_TABLE, "--zeros-count", str(m),
        ],
        "check": {"kind": "breakdown", "lam": lam, "beta": beta, "zeros": m},
    }
