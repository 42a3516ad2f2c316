"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are fixed here and nowhere else.
"""

import cmath
import math

import numpy as np
import pytest

from rgas import arith
from rgas import numkernel as nk
from rgas import quadrature as q
from rgas import superzeta as sz
from rgas import thermo as th
from rgas import zerofinder as zf

import oracles

PI = math.pi


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} [{name}]: {detail}"


def test_01_kernel_values():
    errors = {
        "zeta(2)": abs(nk.zeta(2.0).real - PI**2 / 6.0),
        "zeta(0)": abs(nk.zeta(0.0).real + 0.5),
        "zeta(1/2)": abs(nk.zeta(0.5).real - oracles.ZETA_HALF),
        "psi(1)": abs(nk.digamma(1.0) + oracles.EULER_GAMMA),
        "Ei(1)": abs(nk.exp_integral_ei(1.0) - oracles.EI_1),
    }
    worst = max(errors.values())
    printed_psi = abs(nk.digamma(1.0) - (-0.577215))
    ok = worst <= 1e-9 and printed_psi <= 1e-6
    _report(1, "kernel-values", ok, f"worst={worst:.2e}, psi-vs-printed={printed_psi:.2e}")


def test_02_functional_equation_grid():
    rng = np.random.default_rng(20260811)
    worst = 0.0
    for _ in range(50):
        s = complex(rng.uniform(0.05, 0.95), rng.uniform(-30.0, 30.0))
        left = cmath.exp(-s / 2 * math.log(PI) + nk.log_gamma(s / 2)) * nk.zeta(s)
        right = cmath.exp(-(1 - s) / 2 * math.log(PI) + nk.log_gamma((1 - s) / 2)) * nk.zeta(1 - s)
        worst = max(worst, abs(left - right))
    _report(2, "functional-equation", worst <= 1e-10, f"max residual={worst:.2e}")


def test_03_mixture_identity():
    residual = arith.mixture_identity_residual(2.0, 100_000)
    _report(3, "mixture-identity", residual <= 1e-4, f"residual={residual:.2e}")


def test_04_zero_finder(zeros200):
    e1 = abs(zeros200.gammas[0] - oracles.GAMMA_1)
    e2 = abs(zeros200.gammas[1] - oracles.GAMMA_2)
    below_100 = zeros200.count_below(100.0)
    audit_ok = all(
        abs(zeros200.count_below(t) - round(zf.zero_count_estimate(t))) <= 1
        for t in (50.0, 100.0, 200.0)
    )
    ok = e1 <= 1e-6 and e2 <= 1e-6 and below_100 == 29 and audit_ok
    _report(
        4,
        "zero-finder",
        ok,
        f"|g1 err|={e1:.1e}, |g2 err|={e2:.1e}, N(100)={below_100}, audit={'ok' if audit_ok else 'FAIL'}",
    )


def test_05_superzeta_constant(zeros1000):
    value = sz.sum_inverse_rho(zeros1000).value
    closed = 1.0 + 0.5 * oracles.EULER_GAMMA - 0.5 * math.log(4.0 * PI)
    err_closed = abs(value - closed)
    err_printed = abs(value - 0.0230957)
    ok = err_closed <= 1e-5 and err_printed <= 1e-5
    _report(5, "superzeta-constant", ok, f"value={value:.9f}, |err|={err_closed:.2e}")


def test_06_expansion_vs_direct(zeros1000):
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(20):
        s = complex(rng.uniform(1.5, 6.0), rng.uniform(-10.0, 10.0))
        diff = abs(sz.zeta_log_derivative_expansion(s, zeros1000).value - nk.zeta_log_derivative(s))
        worst = max(worst, diff)
    _report(6, "expansion-vs-direct", worst <= 1e-6, f"worst |diff|={worst:.2e}")


def test_07_central_energy_contract(zeros3000):
    worst = 0.0
    for beta in (0.5, 1.0, 2.0):
        for lam in (1.0, 3.0):
            spec = th.EnsembleSpec.continuum(lam)
            bd = th.energy_breakdown(spec, beta, zeros3000)
            rel = abs(bd.total - bd.oracle) / abs(bd.oracle)
            worst = max(worst, rel)
    _report(7, "central-energy-contract", worst <= 1e-6, f"worst relative={worst:.2e}")


def test_08_complex_free_energy():
    # Im f against the kernel's phase Im ln zeta(s) integrated against
    # kappa e^(-kappa s): -(1/beta) times the integral on [0, 1] and [1, 64]
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(10):
        beta = rng.uniform(0.3, 4.0)
        lam = rng.uniform(0.3, 4.0)
        kappa = lam / beta

        def integrand(s):
            phase = [nk.log_zeta_principal(complex(x)).imag for x in s]
            return kappa * np.exp(-kappa * s) * np.array(phase)

        im = -sum(q.integrate(integrand, a, b, 1e-14).value for a, b in ((0.0, 1.0), (1.0, 64.0))) / beta
        f = th.free_energy_continuum(th.EnsembleSpec.continuum(lam), beta, 1e-10)
        worst = max(worst, abs(f.imag - im))
    _report(8, "complex-free-energy", worst <= 1e-8, f"worst |Im err|={worst:.2e}")


def test_09_hagedorn_behavior():
    spec = th.EnsembleSpec.discrete([1.0], [1.0])
    points = th.hagedorn_scan(spec, [0.5, 0.9, 1.0, 1.1, 2.0])
    flags_ok = [p.flags for p in points] == [{"hagedorn_divergent"}] * 3 + [frozenset()] * 2
    beta = 1.0 + 1e-4
    f = th.free_energy_discrete(spec, beta)
    asym = -(1.0 / beta) * math.log(1.0 / (beta - 1.0))
    ratio_ok = abs(f / asym - 1.0) <= 0.05
    _report(
        9,
        "hagedorn",
        flags_ok and ratio_ok,
        f"flags={'ok' if flags_ok else 'FAIL'}, asymptote ratio err={abs(f / asym - 1.0):.2e}",
    )


def test_10_entropy_identity_scan():
    spec = th.EnsembleSpec.continuum(1.0)
    worst = 0.0
    h = 1e-3
    for beta in np.linspace(0.5, 4.0, 16):
        b = float(beta)
        point = th.thermo_point(spec, b, 1e-10)
        fp = th.free_energy_continuum(spec, b + h, 1e-11).real
        fm = th.free_energy_continuum(spec, b - h, 1e-11).real
        fp2 = th.free_energy_continuum(spec, b + 2 * h, 1e-11).real
        fm2 = th.free_energy_continuum(spec, b - 2 * h, 1e-11).real
        s_fd = b * b * (8.0 * (fp - fm) - (fp2 - fm2)) / (12.0 * h)
        worst = max(worst, abs(point.entropy - s_fd))
    _report(10, "entropy-identity", worst <= 1e-6, f"worst |s - b^2 df/db|={worst:.2e}")


def test_11_printed_form_deviation_report(zeros1000):
    rows = []
    finite = True
    for beta, lam in ((1.0, 1.0), (2.0, 1.0), (1.0, 3.0), (0.5, 2.0)):
        bd = th.energy_breakdown(th.EnsembleSpec.continuum(lam), beta, zeros1000)
        rows.append(
            f"    beta={beta} lam={lam}: thermal_printed={bd.thermal_printed:+.6f} "
            f"oracle-eps_A={bd.oracle - bd.eps_a:+.6f} deviation={bd.deviation_thermal:+.6f}"
        )
        finite &= all(
            math.isfinite(x)
            for x in (bd.thermal_printed, bd.deviation_thermal, bd.deviation_eps3)
        )
    print()
    print("  printed-closed-form deviation report (reported, not asserted):")
    for row in rows:
        print(row)
    _report(11, "printed-form-report", finite, "all deviations finite and reported")
