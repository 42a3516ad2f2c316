import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rgas import numkernel as nk
from rgas import quadrature as q
from rgas import thermo as th
from rgas.errors import AccuracyError, ConvergenceError, DomainError, HagedornError
from rgas.superzeta import sum_inverse_rho

import oracles


SINGLE = th.EnsembleSpec.discrete([1.0], [1.0])
CONT = th.EnsembleSpec.continuum(1.0)


class TestEnsembleSpec:
    def test_discrete_validation(self):
        with pytest.raises(DomainError):
            th.EnsembleSpec.discrete([2.0, 1.0], [0.5, 0.5])  # not ascending
        with pytest.raises(DomainError):
            th.EnsembleSpec.discrete([1.0, 2.0], [0.6, 0.6])  # not normalized
        with pytest.raises(DomainError):
            th.EnsembleSpec.discrete([1.0], [1.0], volume=0.0)

    def test_continuum_validation(self):
        with pytest.raises(DomainError):
            th.EnsembleSpec.continuum(-1.0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: th.EnsembleSpec.discrete([1.0, math.nan], [0.5, 0.5]),
            lambda: th.EnsembleSpec.discrete([1.0, math.inf], [0.5, 0.5]),
            lambda: th.EnsembleSpec.discrete([1.0, 2.0], [math.nan, 0.5]),
            lambda: th.EnsembleSpec.continuum(math.inf),
            lambda: th.EnsembleSpec.continuum(math.nan),
            lambda: th.EnsembleSpec.continuum(1.0, volume=math.inf),
        ],
        ids=["nan-omega", "inf-omega", "nan-mass", "inf-rate", "nan-rate", "inf-volume"],
    )
    def test_non_finite_rejected(self, make):
        with pytest.raises(DomainError):
            make()

    def test_value_equality(self):
        spec = th.EnsembleSpec.discrete([1.5, 2.0], [0.5, 0.5])
        assert spec == th.EnsembleSpec.discrete([1.5, 2.0], [0.5, 0.5])
        assert spec != th.EnsembleSpec.discrete([1.5, 2.5], [0.5, 0.5])
        assert spec != th.EnsembleSpec.discrete([1.5, 2.0], [0.5, 0.5], volume=2.0)
        assert spec != th.EnsembleSpec.continuum(1.0)
        assert th.EnsembleSpec.continuum(1.0) == th.EnsembleSpec.continuum(1.0)
        assert th.EnsembleSpec.continuum(1.0) != th.EnsembleSpec.continuum(2.0)


class TestDiscreteFreeEnergy:
    def test_single_copy(self):
        f = th.free_energy_discrete(SINGLE, 2.0)
        assert f == pytest.approx(-0.5 * math.log(nk.zeta(2.0).real), abs=1e-13)
        assert f == pytest.approx(-0.24885015123537266, abs=1e-12)

    def test_two_copies(self):
        spec = th.EnsembleSpec.discrete([1.0, 2.0], [0.5, 0.5])
        expect = -0.25 * (math.log(nk.zeta(2.0).real) + math.log(nk.zeta(4.0).real))
        assert th.free_energy_discrete(spec, 2.0) == pytest.approx(expect, abs=1e-13)
        assert th.free_energy_discrete(spec, 2.0) == pytest.approx(-0.1442025438845, abs=1e-10)

    def test_hagedorn_guard(self):
        with pytest.raises(HagedornError):
            th.free_energy_discrete(SINGLE, 1.0)
        with pytest.raises(HagedornError):
            th.free_energy_discrete(SINGLE, 0.5)

    def test_near_pole_asymptote(self):
        beta = 1.0 + 1e-6
        f = th.free_energy_discrete(SINGLE, beta)
        asym = -(1.0 / beta) * math.log(1.0 / (beta - 1.0))
        assert f / asym == pytest.approx(1.0, abs=5e-2)

    def test_volume_scaling(self):
        half = th.EnsembleSpec.discrete([1.0], [1.0], volume=2.0)
        assert th.free_energy_discrete(half, 2.0) == pytest.approx(
            0.5 * th.free_energy_discrete(SINGLE, 2.0), abs=1e-15
        )


class TestDiscreteEnergyEntropy:
    def test_energy_single_copy(self):
        eps, _ = th.energy_entropy_discrete(SINGLE, 2.0)
        assert eps == pytest.approx(-nk.zeta_log_derivative(2.0).real, abs=1e-13)
        assert eps == pytest.approx(0.5699609930945326, abs=1e-12)

    def test_entropy_identity_finite_difference(self):
        beta, h = 2.0, 1e-4
        eps, entropy = th.energy_entropy_discrete(SINGLE, beta)
        s_fd = beta * beta * (
            th.free_energy_discrete(SINGLE, beta + h) - th.free_energy_discrete(SINGLE, beta - h)
        ) / (2 * h)
        assert entropy == pytest.approx(s_fd, abs=1e-6)

    def test_energy_dies_at_low_temperature(self):
        eps, _ = th.energy_entropy_discrete(SINGLE, 50.0)
        assert abs(eps) < 2.0**-50 * 50 * math.log(2.0) * 2.0

    def test_energy_positive_below_hagedorn(self):
        for beta in np.linspace(1.1, 6.0, 12):
            eps, _ = th.energy_entropy_discrete(SINGLE, float(beta))
            assert eps > 0.0


def _random_spec(seed: int, k: int, volume: float = 1.0) -> th.EnsembleSpec:
    rng = np.random.default_rng(seed)
    omegas = np.sort(rng.uniform(0.5, 5.0, size=k))
    masses = rng.dirichlet(np.ones(k))
    return th.EnsembleSpec.discrete(omegas, masses, volume)


class TestDiscreteBatching:
    """One Euler-Maclaurin pass per grid, with the rounding of the one-point
    scalar path it replaced."""

    @staticmethod
    def scalar_reference(spec, beta):
        ln_z = np.log(np.array([nk.zeta(complex(w * beta)).real for w in spec.omegas]))
        f = float(-(spec.masses @ ln_z) / (beta * spec.volume))
        zld = np.array([nk.zeta_log_derivative(complex(w * beta)).real for w in spec.omegas])
        eps = float(-(spec.masses @ (spec.omegas * zld)) / spec.volume)
        return f, eps, beta * (eps - f)

    def test_equals_scalar_loop(self):
        for seed, k, volume in ((1, 1, 1.0), (2, 7, 1.0), (3, 50, 2.5), (4, 200, 1.0)):
            spec = _random_spec(seed, k, volume)
            for beta in np.linspace(1.0001, 3.0, 5) / float(spec.omegas[0]):
                beta = float(beta)
                f, eps, entropy = self.scalar_reference(spec, beta)
                assert th.free_energy_discrete(spec, beta) == f
                assert th.energy_entropy_discrete(spec, beta) == (eps, entropy)
                point = th.thermo_point(spec, beta)
                assert (point.f, point.eps, point.entropy) == (complex(f, 0.0), eps, entropy)

    @staticmethod
    def counted_kernel(monkeypatch):
        """Patch the Euler-Maclaurin core to record the points x terms of
        each call."""
        calls = []
        original = nk._hurwitz_em

        def counted(s, a, n_terms, want_derivative):
            calls.append(np.size(s) * n_terms)
            return original(s, a, n_terms, want_derivative)

        monkeypatch.setattr(nk, "_hurwitz_em", counted)
        return calls

    def test_one_kernel_call_per_grid(self, monkeypatch):
        calls = self.counted_kernel(monkeypatch)
        spec = _random_spec(5, 50)
        beta = 2.0 / float(spec.omegas[0])
        th.thermo_point(spec, beta)
        assert len(calls) == 1
        calls.clear()
        points = th.hagedorn_scan(spec, [0.5 / float(spec.omegas[0]), beta])
        assert [p.flags for p in points] == [{"hagedorn_divergent"}, frozenset()]
        assert len(calls) == 1
        calls.clear()
        th.thermo_scan(spec, [0.5 / float(spec.omegas[0]), beta, 2.0 * beta])
        assert len(calls) == 1

    @staticmethod
    def same_point(a, b):
        return a.beta == b.beta and a.flags == b.flags and np.array_equal(
            [a.f.real, a.f.imag, a.eps, a.entropy],
            [b.f.real, b.f.imag, b.eps, b.entropy],
            equal_nan=True,
        )

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=2, max_value=80),
        st.booleans(),
    )
    @example(seed=7, k=200, steps=80, with_energy=True)  # 3 calls at the cap
    def test_scan_equals_points_alone(self, seed, k, steps, with_energy):
        """A grid across 1/omega_1 equals its finite betas computed alone,
        bit for bit, and no kernel call exceeds the chunk cap."""
        spec = _random_spec(seed, k)
        edge = 1.0 / float(spec.omegas[0])
        grid = np.linspace(0.5 * edge, 3.0 * edge, steps)
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = self.counted_kernel(monkeypatch)
            points = th._discrete_points(spec, grid, with_energy)
        assert calls and max(calls) <= nk._EM_CHUNK_TERMS
        for beta, point in zip(grid, points):
            if beta * float(spec.omegas[0]) <= 1.0:
                assert point.flags == {"hagedorn_divergent"}
            else:
                assert self.same_point(point, th._finite_point(spec, float(beta), with_energy))

    def test_failure_is_that_of_the_first_failing_beta(self, monkeypatch):
        spec = _random_spec(6, 20)
        edge = 1.0 / float(spec.omegas[0])
        with pytest.raises(DomainError, match="beta must be positive"):
            th.thermo_scan(spec, [2.0 * edge, 0.0, 3.0 * edge])
        original = th._zeta_em_many

        # fails on any call holding an s past 2 edge omega_K, naming the call's size
        def failing(s, want_derivative=False):
            if np.max(s.real) > 2.0 * edge * float(spec.omegas[-1]):
                raise AccuracyError(f"fails on {s.size} points from {np.min(s.real)!r}")
            return original(s, want_derivative)

        monkeypatch.setattr(th, "_zeta_em_many", failing)
        grid = [1.5 * edge, 4.0 * edge, 3.0 * edge]
        with pytest.raises(AccuracyError) as alone:
            th._finite_point(spec, grid[1], True)
        with pytest.raises(AccuracyError) as scan:
            th.thermo_scan(spec, grid)
        assert str(scan.value) == str(alone.value)


def _divergent(point) -> bool:
    return "hagedorn_divergent" in point.flags


class TestHagedornScan:
    def test_flags(self):
        points = th.hagedorn_scan(SINGLE, [0.5, 0.9, 1.1, 2.0])
        assert [_divergent(p) for p in points] == [True, True, False, False]
        assert math.isnan(points[0].f.real) and math.isfinite(points[3].f.real)
        assert all(math.isnan(p.eps) and math.isnan(p.entropy) for p in points)
        # the free energy view of thermo_scan
        full = th.thermo_scan(SINGLE, [1.1, 2.0])
        assert [p.f for p in points[2:]] == [p.f for p in full]

    def test_flag_set_is_exactly_the_pole_region(self):
        spec = th.EnsembleSpec.discrete([2.0], [1.0])  # beta* = 0.5
        grid = np.linspace(0.05, 1.0, 20)
        points = th.hagedorn_scan(spec, grid)
        for p in points:
            assert _divergent(p) == (p.beta * 2.0 <= 1.0)

    def test_monotone_flags(self):
        points = th.hagedorn_scan(SINGLE, np.linspace(0.2, 3.0, 29))
        flags = [_divergent(p) for p in points]
        assert flags == sorted(flags, reverse=True)

    def test_asymptote_within_5_percent(self):
        beta = 1.0 + 1e-4
        points = th.hagedorn_scan(SINGLE, [beta])
        asym = -(1.0 / beta) * math.log(1.0 / (beta * 1.0 - 1.0))
        assert points[0].f.real / asym == pytest.approx(1.0, abs=0.05)


def _phase_quadrature(lam, beta):
    """Im f at volume 1 from the kernel: the principal phase Im ln zeta(s) of
    numkernel.log_zeta_principal against kappa e^(-kappa s), integrated on
    [0, 1] and [1, 64], over -beta; (value, quadrature budget)."""
    kappa = lam / beta

    def integrand(s):
        phase = [nk.log_zeta_principal(complex(x)).imag for x in s]
        return kappa * np.exp(-kappa * s) * np.array(phase)

    parts = [q.integrate(integrand, a, b, 1e-14) for a, b in ((0.0, 1.0), (1.0, 64.0))]
    return -sum(p.value for p in parts) / beta, sum(p.abs_error for p in parts) / beta


# (lam, beta) from kappa = 1e-5 to 2000, on both sides of kappa = 1 and of
# _WATSON_KAPPA = 40
IM_POINTS = [
    (1e-4, 10.0), (3e-4, 0.5), (0.02, 3.0), (0.3, 0.9), (1.0, 1.0), (1.0, 1.3),
    (5.0, 0.5), (39.0, 1.0), (40.0, 1.0), (100.0, 1.0), (2000.0, 1.0),
]


class TestContinuumFreeEnergy:
    def test_imaginary_part_closed_form(self):
        f = th.free_energy_continuum(CONT, 1.0, 1e-10)
        expect = -math.pi * (1.0 - math.exp(-1.0))
        assert f.imag == pytest.approx(expect, abs=1e-8)
        assert f.imag == pytest.approx(-1.98587, abs=1e-5)
        # the closed form against the kernel's phase, within the quadrature
        # budget and the closed form's rounding, at volume 1 and 0.25
        for lam, beta in IM_POINTS:
            value, budget = _phase_quadrature(lam, beta)
            for volume in (1.0, 0.25):
                closed = th.free_energy_im_closed_form(th.EnsembleSpec.continuum(lam, volume), beta)
                slack = budget / volume + 4.0 * np.finfo(float).eps * abs(closed)
                assert abs(closed - value / volume) <= slack

    def test_imaginary_part_random_parameters(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            beta = rng.uniform(0.3, 4.0)
            lam = rng.uniform(0.3, 4.0)
            spec = th.EnsembleSpec.continuum(lam)
            f = th.free_energy_continuum(spec, beta, 1e-10)
            assert f.imag == pytest.approx(
                th.free_energy_im_closed_form(spec, beta), abs=1e-8
            )
            value, budget = _phase_quadrature(lam, beta)
            assert abs(f.imag - value) <= budget + 4.0 * np.finfo(float).eps * abs(value)

    def test_imaginary_part_is_the_closed_form_at_every_kappa(self):
        # f, the scan and the public closed form share one Im f, bit for bit
        for lam, beta in IM_POINTS:
            spec = th.EnsembleSpec.continuum(lam, 0.5)
            closed = th.free_energy_im_closed_form(spec, beta)
            assert th.free_energy_continuum(spec, beta).imag == closed
            assert th.thermo_point(spec, beta).f.imag == closed

    def test_imaginary_part_past_the_float_range(self):
        # -(pi/(beta V)) overflows: AccuracyError, not a ZeroDivisionError
        spec = th.EnsembleSpec.continuum(1.0, volume=1e-200)
        with pytest.raises(AccuracyError, match="float range"):
            th.free_energy_im_closed_form(spec, 1e-200)
        with pytest.raises(DomainError):
            th.free_energy_im_closed_form(CONT, 0.0)
        with pytest.raises(DomainError):
            th.free_energy_im_closed_form(SINGLE, 1.0)

    def test_concentration_limit(self):
        # lam/beta -> inf: beta V f -> ln 2 - i pi
        f = th.free_energy_continuum(th.EnsembleSpec.continuum(1e4), 1.0, 1e-9)
        assert f.real == pytest.approx(math.log(2.0), abs=1e-3)
        assert f.imag == pytest.approx(-math.pi, abs=1e-3)

    def test_high_temperature_limit(self):
        f = th.free_energy_continuum(th.EnsembleSpec.continuum(0.01), 1.0, 1e-9)
        assert abs(f) < 0.1
        assert f.real < 0.0


class TestEnergyOracle:
    def test_reproducible_across_tolerances(self):
        a = th.energy_oracle(CONT, 1.0, 1e-8)
        b = th.energy_oracle(CONT, 1.0, 1e-9)
        assert a == pytest.approx(b, abs=1e-8)

    def test_flattens_at_low_temperature(self):
        # the energy dies like 1/beta^2, so doubling beta shrinks the gap 4x
        d1 = abs(th.energy_oracle(CONT, 100.0) - th.energy_oracle(CONT, 200.0))
        d2 = abs(th.energy_oracle(CONT, 200.0) - th.energy_oracle(CONT, 400.0))
        assert d1 < 2e-4
        assert d2 < 1e-4
        assert d2 < d1 / 2.0

    def test_volume_linearity(self):
        v2 = th.EnsembleSpec.continuum(1.0, volume=2.0)
        assert th.energy_oracle(v2, 1.0) == pytest.approx(
            0.5 * th.energy_oracle(CONT, 1.0), abs=1e-12
        )

    def test_scaling_covariance(self):
        # eps(beta, lam) = (1/c) eps(c beta, c lam)
        c = 2.0
        lhs = th.energy_oracle(CONT, 1.3)
        rhs = th.energy_oracle(th.EnsembleSpec.continuum(c * 1.0), c * 1.3) * c
        assert lhs == pytest.approx(rhs, abs=1e-8)


class TestEnergyBreakdown:
    def test_constant_pieces(self, zeros1000):
        bd = th.energy_breakdown(CONT, 1.0, zeros1000)
        assert bd.eps1 == pytest.approx(1.0 - math.log(2.0 * math.pi), abs=1e-14)
        assert bd.eps1_printed == pytest.approx(2.837877, abs=1e-6)
        assert bd.eps4 == pytest.approx(-0.0230957, abs=1e-5)
        assert bd.eps6 == pytest.approx(0.5 * oracles.EULER_GAMMA, abs=1e-13)
        assert bd.eps_a == pytest.approx(-0.5 * math.log(math.pi), abs=1e-7)

    def test_eps2_closed_form_equals_pv_quadrature(self, zeros1000):
        beta = lam = 1.0
        bd = th.energy_breakdown(CONT, beta, zeros1000)
        pv = q.principal_value(
            lambda om: lam * om * np.exp(-lam * om) / beta, 1.0 / beta, 0.0, math.inf, 1e-11
        )
        assert bd.eps2 == pytest.approx(pv.value, abs=1e-9)
        assert bd.eps2 == pytest.approx(0.3028, abs=1e-4)

    def test_central_contract_example_points(self, zeros3000):
        for beta, lam in ((1.0, 1.0), (2.0, 1.0), (1.0, 3.0), (0.5, 2.0)):
            spec = th.EnsembleSpec.continuum(lam)
            bd = th.energy_breakdown(spec, beta, zeros3000)
            assert abs(bd.total - bd.oracle) <= 1e-6 * abs(bd.oracle)

    def test_vacuum_pieces_beta_independent(self, zeros1000):
        a = th.energy_breakdown(CONT, 1.0, zeros1000)
        b = th.energy_breakdown(CONT, 7.0, zeros1000)
        assert (a.eps1, a.eps4, a.eps6) == (b.eps1, b.eps4, b.eps6)
        assert a.eps_a == b.eps_a

    def test_regrouping_identity(self, zeros1000):
        bd = th.energy_breakdown(CONT, 2.0, zeros1000)
        assert bd.eps_a + bd.eps_b == pytest.approx(bd.total, abs=1e-14)
        assert bd.eps_a == pytest.approx(bd.eps1 + bd.eps4 + bd.eps6, abs=1e-14)

    def test_printed_forms_reported_and_finite(self, zeros1000):
        for beta, lam in ((1.0, 1.0), (2.0, 1.0), (1.0, 3.0), (0.5, 2.0)):
            bd = th.energy_breakdown(th.EnsembleSpec.continuum(lam), beta, zeros1000)
            for x in (
                bd.eps3_printed,
                bd.eps5_printed,
                bd.thermal_printed,
                bd.deviation_eps1,
                bd.deviation_eps3,
                bd.deviation_thermal,
                bd.printed_truncation_error,
            ):
                assert math.isfinite(x)
            assert bd.printed_truncation_index >= 2

    def test_requires_continuum(self, zeros1000):
        with pytest.raises(DomainError):
            th.energy_breakdown(SINGLE, 2.0, zeros1000)

    def test_tightest_tolerance_grid(self, zeros1000):
        # at the smallest tolerance the CLI accepts every breakdown must
        # still finish within its abs_error
        for lam in np.logspace(-2.0, 2.0, 9):
            for beta in np.geomspace(0.1, 100.0, 7):
                bd = th.energy_breakdown(th.EnsembleSpec.continuum(float(lam)), float(beta), zeros1000, 1e-12)
                assert abs(bd.total - bd.oracle) <= bd.abs_error


class TestPrintedForms:
    @staticmethod
    def thermal_printed(beta, zeros):
        return th.energy_breakdown(th.EnsembleSpec.continuum(1.0), beta, zeros).thermal_printed

    def test_thermal_closed_form_value(self, zeros100):
        v = self.thermal_printed(1.0, zeros100)
        assert v == pytest.approx(0.19719183692273015, abs=1e-12)
        assert v == pytest.approx(0.1972, abs=1e-4)

    def test_thermal_closed_form_pieces(self, zeros100):
        # 1 - e^-1 Ei(1) - (1/4) e^-1/4 Ei(1/4) with Ei from the kernel
        expect = (
            1.0
            - math.exp(-1.0) * oracles.EI_1
            + 0.25 * math.exp(-0.25) * oracles.EI_QUARTER
        )
        assert self.thermal_printed(1.0, zeros100) == pytest.approx(expect, abs=1e-13)

    def test_thermal_low_temperature_bound(self, zeros100):
        beta = 100.0
        assert abs(self.thermal_printed(beta, zeros100)) <= 3.0 / beta

    def test_series_coefficients(self):
        assert th.series_coefficient(2) == pytest.approx(math.pi**2 / 12.0, abs=1e-12)
        assert th.series_coefficient(2) == pytest.approx(0.8225, abs=1e-4)
        assert th.series_coefficient(3) == pytest.approx(-0.9015, abs=1e-4)

    def test_series_smallest_term_rule(self):
        assert th._series_optimally_truncated(1.0, 1.0)[1] >= 2
        # at beta/lam = 1/4 the terms decrease before the factorial growth bites
        total, k_opt, omitted = th._series_optimally_truncated(1.0, 4.0)
        assert k_opt > 2
        mags = [abs(th._series_term(k, 0.25)) for k in range(2, k_opt + 2)]
        assert mags[k_opt - 2] == min(mags) and omitted == mags[-1]
        assert total == sum(th._series_term(k, 0.25) for k in range(2, k_opt + 1))
        terms = [abs(th.series_coefficient(k) * 0.25**k) for k in range(2, 12)]
        assert terms[1] < terms[0]
        assert terms[-1] > min(terms)

    def test_series_domain(self):
        with pytest.raises(DomainError):
            th.series_coefficient(1)

    def test_series_truncation_past_underflow(self):
        # x^k underflows before the smallest term at x = 0.011 (near k = 2/x)
        x = 0.011
        _, k_opt, omitted = th._series_optimally_truncated(x, 1.0)
        assert abs(k_opt - 2.0 / x) <= 2.0
        assert omitted > 0.0
        # at x = 0.005 the smallest term lies past the index cap
        assert th._series_optimally_truncated(0.005, 1.0)[1] == th._SERIES_END - 1
        # k! is past the float range from k = 171, and zeta(k) past the table
        mags = np.array([abs(th._series_term(k, 0.005)) for k in range(2, 251)])
        assert np.all(np.diff(mags) < 0.0)
        mags = np.array([abs(th._series_term(k, 0.001)) for k in range(2, 451)])
        assert np.all(np.diff(mags) <= 0.0) and mags[-1] == 0.0
        assert th._series_term(171, 1.0) == pytest.approx(
            -math.exp(math.lgamma(172) - 171 * math.log(2.0)) * th._zeta_integer(171), rel=1e-12
        )
        assert th._series_term(450, 0.01) == pytest.approx(
            math.exp(math.lgamma(451) + 450 * math.log(0.005)), rel=1e-12
        )


def _mp_eps5(beta, lam, volume):
    """eps5 = (2/(x beta V)) int_0^inf y e^(-2y/x) psi(1 + y) dy, x = beta/lam,
    by mpmath quadrature at 30 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        x = mp.mpf(beta) / lam
        edges = sorted({mp.mpf(0), mp.mpf(1)} | {x * 2**j for j in range(-3, 5)}) + [mp.inf]
        integral = mp.quad(lambda y: y * mp.exp(-2 * y / x) * mp.digamma(1 + y), edges)
        return float(2 * integral / (x * beta * volume))


class TestEps5ClosedForm:
    """eps5 is the convergent sum over the trivial zeros: E1 values for
    k < _EPS5_HEAD, Euler-Maclaurin past them, with a proven budget."""

    # (lam, beta, volume): beta/lam from 1e-3 to 1e3, and 0.55 next to the
    # zero of eps5, where its terms cancel
    POINTS = [
        (100.0, 0.1, 1.0), (10.0, 0.1, 1.0), (1.0, 0.1, 0.5), (2.0, 0.6, 1.0), (2.0, 1.1, 1.0),
        (1.0, 1.0, 1.0), (0.3, 1.0, 2.0), (0.1, 1.0, 1.0), (0.05, 5.0, 1.0), (0.01, 10.0, 1.0),
    ]

    @pytest.mark.parametrize("lam,beta,volume", POINTS)
    def test_against_the_psi_quadrature_and_mpmath(self, lam, beta, volume):
        value, budget = th._eps5(beta, lam, volume)
        quad = q.integrate_exp_weight(lambda om: om * nk._digamma_many(0.5 * beta * om), lam, 1e-10)
        assert abs(value - (1.0 / (beta * volume) + quad.value / (2.0 * volume))) <= (
            budget + quad.abs_error / (2.0 * volume)
        )
        assert abs(value - _mp_eps5(beta, lam, volume)) <= budget
        # at rounding level: of the two parts that cancel, -gamma/(2 lam V)
        # and the sum, everywhere, and of eps5 away from its zero
        vacuum = nk.EULER_GAMMA / (2.0 * lam * volume)
        assert budget <= 1e-13 * (vacuum + abs(value + vacuum))
        if not 0.3 < beta / lam < 0.8:
            assert budget <= 1e-13 * abs(value)

    def test_within_the_printed_series_truncation(self, zeros3000):
        # the printed series envelops the sum: a jittered 4 x 4 x 4 grid over
        # log lam in [log 0.01, log 100], log beta in [log 0.1, log 10] and
        # the zero count in [100, 3000]
        rng, eps = np.random.default_rng(5), np.finfo(float).eps
        for cell in np.ndindex(4, 4, 4):
            ul, ub, um = (np.array(cell) + rng.random(3)) / 4.0
            lam, beta = 0.01 * 1e4**ul, 0.1 * 100.0**ub
            bd = th.energy_breakdown(th.EnsembleSpec.continuum(lam), beta, zeros3000.head(100 + round(2900 * um)))
            slack = 4.0 * eps * (abs(bd.eps5) + abs(bd.eps5_printed))
            assert abs(bd.eps5 - bd.eps5_printed) <= bd.printed_truncation_error + slack

    def test_batch_values_equal_the_entry(self):
        z = th._EPS5_K * (2.0 / 0.3)
        assert th._eps5(0.3, 1.0, 1.0, th._e1_parts(z)[0]) == th._eps5(0.3, 1.0, 1.0)

    @pytest.mark.parametrize("x", [1e-300, 1e-12, 1e12, 1e300])
    def test_finite_far_out(self, x):
        # the closed branch works in powers of 1/K and the series in z^-m, so
        # nothing overflows or underflows with a warning
        value, budget = th._eps5(x, 1.0, 1.0)
        assert math.isfinite(value) and 0.0 < budget <= 1e-13 * abs(value)


class TestBreakdownPastTheExpRange:
    @pytest.mark.parametrize("lam,beta,count", [(100.0, 0.1, 3000), (90.0, 0.11, 500), (60.0, 0.08, 200)])
    def test_total_matches_oracle(self, zeros3000, lam, beta, count):
        bd = th.energy_breakdown(th.EnsembleSpec.continuum(lam), beta, zeros3000.head(count))
        assert abs(bd.total - bd.oracle) <= bd.abs_error
        assert bd.eps2 == 1.0 / beta - nk._exp_neg_ei([lam / beta], lam / (beta * beta))[0]
        quarter = nk._exp_neg_ei([0.25 * (lam / beta)], lam / (4.0 * beta * beta))[0]
        assert bd.thermal_printed == bd.eps2 + quarter
        assert math.isfinite(bd.thermal_printed)


class TestScan:
    def test_points_finite_no_flags(self):
        scan = th.thermo_scan(CONT, np.linspace(0.5, 4.0, 16), 1e-8)
        assert len(scan) == 16
        for point in scan:
            assert math.isfinite(point.eps)
            assert math.isfinite(point.entropy)
            assert "hagedorn_divergent" not in point.flags

    def test_refinement_stability(self):
        coarse = th.thermo_scan(CONT, np.linspace(0.5, 4.0, 4), 1e-9)
        fine = th.thermo_scan(CONT, np.linspace(0.5, 4.0, 7), 1e-9)
        shared = {p.beta: p.eps for p in fine}
        for point in coarse:
            assert point.eps == pytest.approx(shared[point.beta], abs=1e-8)

    def test_entropy_identity_on_scan(self):
        for point in th.thermo_scan(CONT, np.linspace(0.8, 3.0, 4), 1e-9):
            assert point.entropy == pytest.approx(
                point.beta * (point.eps - point.f.real), abs=1e-10
            )

    def test_breakdowns_attached(self, zeros200):
        for point in th.thermo_scan(CONT, np.linspace(1.0, 2.0, 3), 1e-6):
            bd = th.energy_breakdown(CONT, point.beta, zeros200, 1e-6)
            assert bd.oracle == pytest.approx(point.eps, abs=1e-6)

    @pytest.mark.parametrize("lam", [0.05, 1.0, 20.0])
    def test_energy_continuous_on_grid(self, lam):
        # no jump between neighbours beyond what the local slope allows,
        # across the beta = 1/omega region where the discrete ensemble diverges
        betas = np.linspace(0.2, 6.0, 30)
        eps = np.array([p.eps for p in th.thermo_scan(th.EnsembleSpec.continuum(lam), betas, 1e-9)])
        assert np.all(np.isfinite(eps))
        slope = np.abs(np.gradient(eps, betas))
        allowed = np.diff(betas) * (4.0 * np.maximum(slope[:-1], slope[1:]) + 1e-6) + 1e-9
        assert np.all(np.abs(np.diff(eps)) <= allowed)


def _pair_integrals_reference(gammas, beta, lam, tol):
    """The pair integrals by a GK15 grid of 40 -> 80 -> 160 panels shared by
    all zeros, stopping at the first level whose largest per-zero
    |K15 - G7| sum is within tol; also returns that level and the per-zero
    error sums.  An independent quadrature of the closed form's integrals."""
    omega_max = 45.0 / lam + 1.0 / beta
    g2c = gammas * gammas

    def accumulate(n_panels):
        dense = np.linspace(0.0, 4.0 / lam, max(8, n_panels // 4) + 1)
        sparse = np.linspace(4.0 / lam, omega_max, n_panels + 1)[1:]
        edges = np.concatenate([dense, sparse])
        vals = np.zeros(g2c.size)
        errs = np.zeros(g2c.size)
        for lo, hi in zip(edges[:-1], edges[1:]):
            c, hw = 0.5 * (lo + hi), 0.5 * (hi - lo)
            om = c + hw * q._NODES
            u = beta * om - 0.5
            frame = (om * np.exp(-lam * om) * 2.0 * u)[None, :] / (
                u[None, :] ** 2 + g2c[:, None]
            )
            i15 = hw * frame @ q._WK
            i7 = hw * frame[:, q._GAUSS_IDX] @ q._WGAUSS
            vals += i15
            errs += np.abs(i15 - i7)
        return vals, errs

    n_panels = 40
    for _ in range(3):
        vals, errs = accumulate(n_panels)
        if float(np.max(errs)) <= tol:
            break
        n_panels *= 2
    return vals, errs, min(n_panels, 160)


class TestBreakdownInvariants:
    """Each invariant of the breakdown computed once, with the values of
    computing it every time."""

    def test_zeta_table_equals_scalar(self):
        table = th._zeta_at_integers()
        assert not table.flags.writeable
        for k in range(2, th._SERIES_END):
            assert table[k] == nk.zeta(complex(k)).real

    @pytest.mark.parametrize(
        "lam,beta,count,level,converged",
        [
            (1.0, 1.0, 300, 40, True),
            (0.03, 0.9, 500, 80, True),
            (0.02, 2.0, 500, 160, True),
            (0.011, 5.9, 500, 160, False),
        ],
    )
    def test_pair_integrals_equal_level_loop(self, zeros3000, lam, beta, count, level, converged):
        # the closed form lies within the grid's per-zero error estimate and
        # within 1e-10, also where the grid gives up at 160 panels with an
        # estimate far larger than its true error
        gammas = zeros3000.head(count).gammas
        tol = 1e-9
        ref_vals, ref_errs, ref_level = _pair_integrals_reference(gammas, beta, lam, tol)
        assert (ref_level, float(np.max(ref_errs)) <= tol) == (level, converged)
        vals = th._pair_integrals(gammas, beta, lam)
        bound = np.minimum(ref_errs, 1e-10) + 1e-13 * np.abs(ref_vals)
        assert np.all(np.abs(vals - ref_vals) <= bound)

    def test_kernel_calls_of_repeated_breakdown(self, monkeypatch, zeros3000):
        spec = th.EnsembleSpec.continuum(50.0)
        table = zeros3000.head(500)
        th.energy_breakdown(spec, 1.0, table)
        calls = []
        original = nk._hurwitz_em

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(nk, "_hurwitz_em", counted)
        th.energy_breakdown(spec, 1.0, table)
        assert len(calls) <= 6


def _breakdown_from_pieces(spec, beta, zeros, tol):
    """The breakdown's fields built from its pieces, each from its own
    entry, in the order of the sum."""
    lam, vol = spec.rate, spec.volume
    lv = lam * vol
    whole, quarter = th._ei_terms(beta, lam, vol)
    pairs = float(np.sum(th._pair_integrals(zeros.gammas, beta, lam)))
    tail, tail_bound = th.integrate_rows(th._eps3_tail_rows(zeros.count, beta, lam, tol * 0.1 * vol / lam))[0]
    rho = sum_inverse_rho(zeros)
    eps5, eps5_err = th._eps5(beta, lam, vol)
    oracle = th.energy_oracle(spec, beta, tol * 0.1)
    eps1 = -th.EXPANSION_CONSTANT / lv
    eps2 = 1.0 / (beta * vol) - whole
    eps3 = -(lam / vol) * (pairs + tail)
    eps4 = -rho.value / lv
    eps6 = nk.EULER_GAMMA / (2.0 * lv)
    total = eps1 + eps2 + eps3 + eps4 + eps5 + eps6
    eps_a = eps1 + eps4 + eps6
    series_sum, k_opt, omitted = th._series_optimally_truncated(beta, lam)
    eps1_printed = -th.PRINTED_EXPANSION_CONSTANT / lv
    eps3_printed = nk.EULER_GAMMA / (2.0 * lv) - series_sum / (beta * vol) + quarter
    thermal_printed = eps2 + quarter
    return th.EnergyBreakdown(
        beta, lam, vol, eps1, eps2, eps3, eps4, eps5, eps6, eps_a, total - eps_a, total, oracle,
        (lam / vol) * tail_bound + rho.tail.bound / lv + eps5_err,
        eps1_printed, eps3_printed, -nk.EULER_GAMMA / (2.0 * lv) + series_sum / (beta * vol),
        thermal_printed, k_opt, omitted / (beta * vol), eps1_printed - eps1, eps3_printed - eps3,
        thermal_printed - (oracle - eps_a),
    )


class TestBreakdownInOnePass:
    """The breakdown is one integrate_rows call and one batch of the E1
    kernel, with the values and the first error of its pieces."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(math.log(0.01), math.log(100.0)),
        st.floats(math.log(0.1), math.log(10.0)),
        st.integers(10, 3000),
        st.sampled_from([1e-6, 1e-8, 1e-10]),
        st.sampled_from([1.0, 0.3]),
    )
    @example(math.log(100.0), math.log(0.1), 3000, 1e-8, 1.0)  # lam/beta = 1000
    @example(math.log(0.01), math.log(10.0), 10, 1e-8, 1.0)  # lam/beta = 0.001
    def test_equals_its_pieces(self, zeros3000, log_lam, log_beta, count, tol, volume):
        spec = th.EnsembleSpec.continuum(math.exp(log_lam), volume)
        beta = math.exp(log_beta)
        table = zeros3000.head(count)
        fused = dataclasses.astuple(th.energy_breakdown(spec, beta, table, tol))
        pieces = dataclasses.astuple(_breakdown_from_pieces(spec, beta, table, tol))
        # == on each field: bit for bit, and no nan
        assert all(a == b for a, b in zip(fused, pieces, strict=True))

    def test_failure_is_that_of_the_first_failing_piece(self, monkeypatch, zeros100):
        # with 8 panels per row the eps3 tail row and the oracle's row both
        # run out: the one pass meets the oracle's row first, and the pieces
        # in turn meet the eps3 tail's failure first
        monkeypatch.setattr(q, "_MAX_PANELS", 8)
        spec, beta, tol = th.EnsembleSpec.continuum(0.01), 5.0, 1e-8
        with pytest.raises(ConvergenceError) as tail:
            th.integrate_rows(th._eps3_tail_rows(zeros100.count, beta, spec.rate, tol * 0.1 / spec.rate))
        with pytest.raises(ConvergenceError) as oracle:
            th.energy_oracle(spec, beta, tol * 0.1)
        assert str(tail.value) != str(oracle.value)
        raised, rows = [], th.integrate_rows

        def recorded(*args):
            try:
                return rows(*args)
            except ConvergenceError as exc:
                raised.append(str(exc))
                raise

        monkeypatch.setattr(th, "integrate_rows", recorded)
        with pytest.raises(ConvergenceError) as breakdown:
            th.energy_breakdown(spec, beta, zeros100, tol)
        assert raised[0] == str(oracle.value)
        assert str(breakdown.value) == str(tail.value)

    def test_small_table_refused_by_tail_start(self, zeros100):
        with pytest.raises(DomainError, match="at least 10 zeros"):
            th.energy_breakdown(CONT, 1.0, zeros100.head(9))

    @staticmethod
    def count_calls(monkeypatch):
        """Count integrate_rows calls, and the sizes of the E1 kernel calls."""
        counts = {"rows": 0, "e1": []}
        rows, e1 = q.integrate_rows, nk._z_exp_e1

        def counted_rows(*args, **kwargs):
            counts["rows"] += 1
            return rows(*args, **kwargs)

        def counted_e1(z):
            counts["e1"].append(np.size(z))
            return e1(z)

        for module in (q, th):
            monkeypatch.setattr(module, "integrate_rows", counted_rows)
        for module in (nk, th):
            monkeypatch.setattr(module, "_z_exp_e1", counted_e1)
        return counts

    @pytest.mark.parametrize(
        "lam,beta,count", [(1.0, 1.0, 300), (50.0, 0.2, 3000), (0.01, 5.0, 100), (3.0, 1.0, 10)]
    )
    def test_one_engine_pass_and_one_e1_batch(self, monkeypatch, zeros3000, lam, beta, count):
        # the breakdown makes one integrate_rows call and one E1 call ahead
        # of it, which holds eps5's _EPS5_HEAD arguments; the others are the
        # tail row's, one per round, as many as the tail row alone makes with
        # its one call for the pair at T*
        spec, table = th.EnsembleSpec.continuum(lam), zeros3000.head(count)
        counts = self.count_calls(monkeypatch)
        th.integrate_rows(th._eps3_tail_rows(count, beta, lam, 1e-8 * 0.1 / lam))
        tail_calls = len(counts["e1"])
        counts["e1"].clear()
        counts["rows"] = 0
        th.energy_breakdown(spec, beta, table, 1e-8)
        assert counts["rows"] == 1
        # the pole window's pair -kappa, kappa only where a row reads it
        window = 2 if 1.0 < lam / beta < th._WATSON_KAPPA else 0
        assert counts["e1"][0] == count + 1 + 2 + window + th._EPS5_HEAD
        assert len(counts["e1"]) == tail_calls
        assert 0 not in counts["e1"]

    def test_continuum_scan_windows_take_one_e1_call(self, monkeypatch):
        counts = self.count_calls(monkeypatch)
        th.thermo_scan(CONT, [0.5, 2.0, 4.0], 1e-8)  # kappa = 2, 0.5, 0.25
        assert counts["e1"] == [2]
        counts["e1"].clear()
        th.thermo_scan(CONT, [1.0, 2.0, 4.0], 1e-8)
        assert counts["e1"] == []
        th.energy_oracle(CONT, 2.0)
        assert counts["e1"] == []


def _reference_point(spec, beta, tol):
    """An independent continuum point, (f, f budget, eps, eps budget): each
    s-integral as plain integrate calls to tol/4 on [0, mid], [mid, 2] and
    [2, s_max] (mid = min(1/2, 40/kappa)), with the closed-form pole
    windows, and Im f as the quadrature of the kernel's phase Im ln zeta
    (numkernel.log_zeta_principal) on [0, mid], [mid, 1] and [1, s_max]; eps
    adds the bound on ln zeta past s_max."""
    lam, vol = spec.rate, spec.volume
    kappa = lam / beta
    mid = min(0.5, 40.0 / kappa)
    s_max = max(4.0, math.log(1e18) / (kappa + math.log(2.0)))

    def log_zeta_integral(weight, window):
        # weight ln|zeta|: L on [0, 2], ln zeta past 2, and the window
        def regular(sv):
            return weight(sv) * nk._log_regular_zeta_real_many(sv)

        def tail(sv):
            return weight(sv) * (nk._log_regular_zeta_real_many(sv) - np.log(sv - 1.0))

        parts = [
            q.integrate(regular, 0.0, mid, tol / 4.0),
            q.integrate(regular, mid, 2.0, tol / 4.0),
            q.integrate(tail, 2.0, s_max, tol / 4.0),
        ]
        value = sum(r.value for r in parts) + float(window(np.array([kappa]))[0])
        return value, sum(r.abs_error for r in parts)

    pref = lam / (beta * beta * vol)
    re, re_err = log_zeta_integral(lambda sv: np.exp(-kappa * sv), th._pole_log_window)
    def phase(sv):
        return np.exp(-kappa * sv) * np.array([nk.log_zeta_principal(complex(x)).imag for x in sv])

    im = [q.integrate(phase, a, b, tol / 4.0) for a, b in ((0.0, mid), (mid, 1.0), (1.0, s_max))]
    f = complex(-pref * re, -pref * sum(r.value for r in im))
    f_err = pref * (re_err + sum(r.abs_error for r in im))
    total, err = log_zeta_integral(
        lambda sv: (1.0 - kappa * sv) * np.exp(-kappa * sv), th._energy_pole_window
    )
    decay = kappa + math.log(2.0)
    err += 5.0 / 3.0 * math.exp(-decay * s_max) * (1.0 + kappa * (s_max + 1.0 / decay)) / decay
    return f, f_err, pref * total, pref * err


def _scan_cases():
    rng = np.random.default_rng(2027)
    cases = [
        (1.0, 0.5, 4.0, 8, 1e-9),
        (0.05, 0.1, 10.0, 5, 1e-8),  # small kappa
        (0.01, 0.05, 0.05, 1, 1e-8),
        (100.0, 20.0, 20.0, 1, 1e-9),
        (0.02, 0.3, 6.0, 3, 1e-9),
        (3.0, 0.05, 0.07, 2, 1e-10),
    ]
    for _ in range(26):
        lam = float(np.exp(rng.uniform(math.log(0.01), math.log(100.0))))
        b_lo, b_hi = sorted(np.exp(rng.uniform(math.log(0.05), math.log(20.0), 2)).tolist())
        cases.append((lam, b_lo, b_hi, int(rng.integers(1, 4)), float(rng.choice([1e-8, 1e-9]))))
    return cases


class TestThermoScan:
    def test_equals_the_sequential_points(self):
        for lam, b_lo, b_hi, steps, tol in _scan_cases():
            spec = th.EnsembleSpec.continuum(lam)
            betas = np.linspace(b_lo, b_hi, steps) if steps > 1 else np.array([b_lo])
            scan = th.thermo_scan(spec, betas, tol)
            assert scan == [th.thermo_point(spec, float(b), tol) for b in betas]
            assert all(0.0 < e < math.inf for p in scan for e in p.abs_error)

    def test_within_the_budgets_of_an_independent_reference(self):
        # plain integrate calls on other panels agree within the two budgets
        for lam, b_lo, b_hi, steps, tol in _scan_cases():
            spec = th.EnsembleSpec.continuum(lam)
            betas = np.linspace(b_lo, b_hi, steps) if steps > 1 else np.array([b_lo])
            for point in th.thermo_scan(spec, betas, tol):
                f, f_err, eps, eps_err = _reference_point(spec, point.beta, tol)
                assert abs(point.f.real - f.real) <= point.abs_error[0] + f_err
                assert abs(point.f.imag - f.imag) <= point.abs_error[0] + f_err
                assert abs(point.eps - eps) <= point.abs_error[1] + eps_err

    def test_equals_thermo_point_and_public_parts(self):
        spec = th.EnsembleSpec.continuum(0.3, volume=2.0)
        betas = np.linspace(0.2, 5.0, 6)
        scan = th.thermo_scan(spec, betas, 1e-9)
        assert scan == [th.thermo_point(spec, float(b), 1e-9) for b in betas]
        for point in scan:
            assert point.f == th.free_energy_continuum(spec, point.beta, 1e-9)
            assert point.eps == th.energy_oracle(spec, point.beta, 1e-9)

    def test_small_kappa_budget_is_carried(self):
        point = th.thermo_point(th.EnsembleSpec.continuum(0.05), 0.1, 1e-8)
        assert point.converged
        f_err, eps_err = point.abs_error
        assert f_err > 0.0 and eps_err > 0.0
        assert th.thermo_point(SINGLE, 2.0).abs_error is None

    def test_two_rows_per_beta_below_the_watson_kappa(self, monkeypatch):
        # Re f and eps are rows, Im f is its closed form, and from kappa = 40
        # on a point is Watson's series, with no rows
        sent, original = [], th.integrate_rows

        def counted(*sets):
            sent.append(sum(len(rows.edges) for rows in sets))
            return original(*sets)

        monkeypatch.setattr(th, "integrate_rows", counted)
        spec = th.EnsembleSpec.continuum(4.0)
        th.thermo_scan(spec, [0.05, 0.1, 0.5, 1.0, 2.0], 1e-9)  # kappa = 80, 40, 8, 4, 2
        th.thermo_scan(spec, [0.01, 0.1], 1e-9)
        th.free_energy_continuum(spec, 1.0)
        th.free_energy_continuum(spec, 0.1)
        th.energy_oracle(spec, 1.0)
        assert sent == [2 * 3, 0, 1, 0, 1]

    @staticmethod
    def mark_one_row_unconverged(monkeypatch, which):
        """Patch integrate_rows so that row `which` of each set reports
        converged=False to its finish; a point's rows are Re f and eps."""
        original = th.integrate_rows

        def marked_finish(finish):
            def finish_marked(results):
                if which < len(results):
                    results[which] = dataclasses.replace(results[which], converged=False)
                return finish(results)

            return finish_marked

        def marked(*sets):
            return original(*(rows._replace(finish=marked_finish(rows.finish)) for rows in sets))

        monkeypatch.setattr(th, "integrate_rows", marked)

    def test_unconverged_integral_reaches_the_point(self, monkeypatch):
        # the row of Re f at the second of three betas misses its tolerance:
        # that point says so in `converged` and its flags, and every value
        # is that of the converged run
        spec = th.EnsembleSpec.continuum(0.3)
        expected = th.thermo_scan(spec, [0.9, 1.2, 1.5], 1e-9)
        self.mark_one_row_unconverged(monkeypatch, 2)
        scan = th.thermo_scan(spec, [0.9, 1.2, 1.5], 1e-9)
        assert [p.converged for p in scan] == [True, False, True]
        assert scan[1].flags == {"complex_branch_active", "unconverged"}
        assert scan[1] == dataclasses.replace(expected[1], flags=scan[1].flags, converged=False)
        assert [scan[0], scan[2]] == [expected[0], expected[2]]

    def test_unconverged_energy_integral_reaches_the_point(self, monkeypatch):
        # the same for the row of eps, which f does not share
        spec = th.EnsembleSpec.continuum(0.3)
        expected = th.thermo_scan(spec, [0.9, 1.2, 1.5], 1e-9)
        self.mark_one_row_unconverged(monkeypatch, 3)
        scan = th.thermo_scan(spec, [0.9, 1.2, 1.5], 1e-9)
        assert [p.converged for p in scan] == [True, False, True]
        assert scan[1] == dataclasses.replace(expected[1], flags=scan[1].flags, converged=False)
        assert "unconverged" in scan[1].flags

    def test_kernel_calls_of_a_continuum_scan(self, monkeypatch):
        sizes = []
        original = nk._hurwitz_em

        def counted(s, *args, **kwargs):
            sizes.append(np.asarray(s).size)
            return original(s, *args, **kwargs)

        monkeypatch.setattr(nk, "_hurwitz_em", counted)
        th.thermo_scan(CONT, np.linspace(0.5, 4.0, 8), 1e-8)
        assert len(sizes) <= 25
        # one call per round, on the panels no row has asked for before
        assert max(sizes) <= 1024

    @pytest.mark.parametrize(
        "grid,tol,most",
        [
            ((1.0, 0.05, 20.0, 200), 1e-8, 2000),
            ((1.0, 0.5, 4.0, 8), 1e-8, 2000),
            ((0.01, 0.05, 20.0, 40), 1e-12, 6000),
            ((100.0, 0.05, 20.0, 40), 1e-12, 6000),
        ],
    )
    def test_each_node_once(self, monkeypatch, grid, tol, most):
        # L is evaluated once per distinct panel of the scan: no s reaches
        # the kernel twice, and the 200-step scan of the CLI's default
        # tolerance costs at most 2000 nodes (76,080 with one set of
        # integrals per beta)
        sent = []
        original = th._log_regular_zeta_real_many

        def recorded(s, *args):
            sent.append(np.array(s))
            return original(s, *args)

        monkeypatch.setattr(th, "_log_regular_zeta_real_many", recorded)
        lam, b_lo, b_hi, steps = grid
        th.thermo_scan(th.EnsembleSpec.continuum(lam), np.linspace(b_lo, b_hi, steps), tol)
        nodes = np.concatenate(sent)
        assert np.unique(nodes).size == nodes.size
        assert nodes.size <= most

    def test_discrete_scan_is_a_loop_of_points(self):
        spec = _random_spec(8, 20)
        betas = np.linspace(1.1, 3.0, 4) / float(spec.omegas[0])
        assert th.thermo_scan(spec, betas) == [th.thermo_point(spec, float(b)) for b in betas]
        # at and past the Hagedorn point: flagged nan points, where thermo_point raises
        for sp, beta in ((spec, 0.5 / float(spec.omegas[0])), (SINGLE, 1.0)):
            (point,) = th.thermo_scan(sp, [beta])
            assert point.flags == {"hagedorn_divergent"}
            assert all(math.isnan(v) for v in (point.f.real, point.f.imag, point.eps, point.entropy))
            with pytest.raises(HagedornError):
                th.thermo_point(sp, beta)
        assert th.thermo_scan(CONT, []) == []

    # a beta-by-beta loop first meets a poisoned node at the second beta (in
    # its first round, then its second), the fourth (second round, then
    # first) and the first
    @pytest.mark.parametrize(
        "moduli", [(37, 53), (53, 131), (53, 101), (53, 97), (3, 5)]
    )
    def test_first_error_is_the_sequential_one(self, monkeypatch, moduli):
        # a kernel that fails on a pseudo-random set of nodes: the scan raises
        # what a beta-by-beta loop of thermo_point raises first
        # L is the only kernel behind f and eps; it fails where the node's
        # bits are a multiple of either modulus
        kernel = th._log_regular_zeta_real_many

        def poisoned(s, *args):
            s = np.ascontiguousarray(s, dtype=np.float64)
            bits = s.view(np.uint64)
            bad = (bits % moduli[0] == 0) | (bits % moduli[1] == 0)
            if np.any(bad):
                raise AccuracyError(f"L {float(s[bad][0])!r}")
            return kernel(s, *args)

        monkeypatch.setattr(th, "_log_regular_zeta_real_many", poisoned)
        betas = [0.3, 0.7, 1.1, 2.0, 3.5, 6.0]
        with pytest.raises(AccuracyError) as sequential:
            for b in betas:
                th.thermo_point(CONT, b, 1e-9)
        with pytest.raises(AccuracyError) as batched:
            th.thermo_scan(CONT, betas, 1e-9)
        assert str(batched.value) == str(sequential.value)

    def test_first_domain_error_wins(self):
        with pytest.raises(DomainError, match="continuum ensemble required"):
            th.energy_oracle(SINGLE, 1.0)
        with pytest.raises(DomainError, match="beta must be positive"):
            th.thermo_scan(CONT, [1.0, -1.0, 2.0])


class TestFreeEnergyConvergence:
    """f takes ln|s - 1| at the zeta pole in closed form, so its integrals
    meet their tolerance where grading toward the pole left an unresolved
    sliver."""

    @pytest.mark.parametrize("lam", [0.05, 0.3, 1.0])
    def test_sweep_converges(self, lam):
        scan = th.thermo_scan(th.EnsembleSpec.continuum(lam), np.linspace(0.1, 5.0, 50), 1e-8)
        assert all(p.converged for p in scan)

    @pytest.mark.parametrize("lam,beta", [(0.05, 0.1), (1.0, 1.7), (0.01, 20.0), (100.0, 0.05)])
    def test_real_part_within_its_budget(self, lam, beta):
        mp = pytest.importorskip("mpmath")
        point = th.thermo_point(th.EnsembleSpec.continuum(lam), beta, 1e-9)
        kappa = lam / beta
        # breakpoints at the pole, on the e^(-kappa s) scale and along the
        # ~2^-s decay of ln zeta
        edges = sorted({0.0, 1.0, 2.0, 8.0, 30.0, 90.0} | {c / kappa for c in (1, 5, 20, 60) if c < kappa})
        with mp.workdps(25):
            k = mp.mpf(kappa)
            integral = mp.quad(lambda s: mp.exp(-k * s) * mp.log(abs(mp.zeta(s))), edges)
            ref = float(-lam / beta**2 * integral)
        assert abs(point.f.real - ref) <= point.abs_error[0]


@pytest.fixture(scope="module")
def mp_log_zeta_taylor():
    """mpmath and the Taylor coefficients a_0..a_59 of ln(-zeta(s)) at s = 0
    at 40 digits, as the Cauchy sum over 128 points on |s| = 1/2."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        m, r = 128, mp.mpf(1) / 2
        w = [mp.expjpi(mp.mpf(2 * k) / m) for k in range(m)]
        values = [mp.log(-mp.zeta(r * wk)) for wk in w]
        taylor = [mp.re(mp.fsum(v * wk**-n for v, wk in zip(values, w))) / (m * r**n) for n in range(60)]
    return mp, taylor


def _mp_transforms(mp, taylor, kappa):
    """(kappa I, kappa J) at 30 digits, I and J the s-integrals of f and eps.
    Up to kappa = 1e3, mpmath quadrature in u = kappa s of e^(-u) (1 or
    1 - u) ln|zeta(u/kappa)|; past it, Watson's sums over 60 coefficients,
    whose remainder, below 60!/kappa^60, is far under double precision."""
    with mp.workdps(30):
        k = mp.mpf(kappa)
        if kappa > 1e3:
            terms = [a * mp.factorial(n) / k**n for n, a in enumerate(taylor)]
            return mp.fsum(terms), -mp.fsum(n * t for n, t in enumerate(terms))
        edges = sorted({mp.mpf(0), 1, 5, 20, 60} | ({k, 2 * k} if kappa <= 100 else set()))
        edges += [mp.inf] if kappa <= 100 else [mp.mpf(100)]  # past u = 100: below 1e-40

        def transform(weight):
            return mp.quad(lambda u: weight(u) * mp.exp(-u) * mp.log(abs(mp.zeta(u / k))), edges)

        return transform(lambda u: 1), transform(lambda u: 1 - u)


class TestWatsonSeries:
    """From kappa = lam/beta = _WATSON_KAPPA on, f and eps are Watson's
    series in 1/kappa, with no rows; below it each row starts from a first
    leaf of at most 4/kappa and meets tol on its first panels."""

    @pytest.mark.parametrize("kappa,rounds", [(5.0, 1), (12.0, 1), (30.0, 1), (39.0, 1), (40.0, 0), (1e18, 0)])
    def test_rows_take_one_round(self, monkeypatch, kappa, rounds):
        counts = {"rounds": 0, "kernel": 0}
        gk15, kernel = q._gk15, th._log_zeta_kernel

        def counted_gk15(*args):
            counts["rounds"] += 1  # one call per round
            return gk15(*args)

        def counted_kernel(s):
            counts["kernel"] += 1
            return kernel(s)

        monkeypatch.setattr(q, "_gk15", counted_gk15)
        monkeypatch.setattr(th, "_log_zeta_kernel", counted_kernel)
        (point,) = th.thermo_scan(CONT, [1.0 / kappa], 1e-8)
        assert point.converged
        assert counts == {"rounds": rounds, "kernel": rounds}

    def test_against_mpmath_within_the_budget(self, mp_log_zeta_taylor):
        # kappa log-uniform on [kappa_0, 1e300/beta], beta log-uniform on
        # [1e-3, 1e3], and four kappa where the quadrature reference runs
        mp, taylor = mp_log_zeta_taylor
        rng = np.random.default_rng(2112)
        betas = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 24))
        kappas = np.exp(rng.uniform(math.log(th._WATSON_KAPPA), np.log(1e300 / betas)))
        kappas[:4] = [th._WATSON_KAPPA, 57.0, 150.0, 700.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kappa, beta in zip(kappas.tolist(), betas.tolist()):
                point = th.thermo_point(th.EnsembleSpec.continuum(kappa * beta), beta, 1e-8)
                i, j = _mp_transforms(mp, taylor, kappa)
                assert abs(point.f.real + i / beta) <= point.abs_error[0]
                assert abs(point.eps - j / beta) <= point.abs_error[1]
                assert point.converged and point.flags == {"complex_branch_active"}

    def test_both_ends_of_the_beta_axis(self):
        # lam = 1, beta from 1e-12 to 1e12: eps lam V -> -ln 2pi as beta -> 0
        # (the next term, 4 a_2/(a_1 kappa), is 0.69/kappa), and eps -> 0 as
        # beta -> inf like (lam/beta^2) int_0^inf ln|zeta(s)| ds
        betas = np.geomspace(1e-12, 1e12, 49)
        scan = th.thermo_scan(CONT, betas, 1e-8)
        assert all(p.converged and math.isfinite(p.eps) and math.isfinite(p.entropy) for p in scan)
        eps = np.array([p.eps for p in scan])
        series = eps[1.0 / betas >= th._WATSON_KAPPA]
        assert series.size >= 20
        assert np.all(np.abs(series / -math.log(2.0 * math.pi) - 1.0) <= betas[: series.size])
        assert abs(eps[0] / -math.log(2.0 * math.pi) - 1.0) <= 1e-12
        # int_0^inf ln|zeta(s)| ds, from mpmath quad at 20 digits
        assert eps[-1] * betas[-1] ** 2 == pytest.approx(2.4724628273177464, rel=1e-8)
        assert abs(eps[-1]) < 1e-23
        assert np.abs(eps).max() < 2.5  # the largest, -2.2, lies near beta = 0.3

    @pytest.mark.parametrize("lam", [1e8, 1e12])
    def test_large_lam_at_unit_beta(self, mp_log_zeta_taylor, lam):
        mp, taylor = mp_log_zeta_taylor
        point = th.thermo_point(th.EnsembleSpec.continuum(lam), 1.0, 1e-8)
        assert point.f.imag == pytest.approx(-math.pi * (1.0 - math.exp(-lam)), rel=1e-12, abs=0.0)
        i, j = _mp_transforms(mp, taylor, lam)
        assert abs(point.f.real + i) <= point.abs_error[0]
        assert abs(point.eps - j) <= point.abs_error[1]
        assert point.abs_error[1] <= 1e-13 * abs(point.eps)


# the (lam, beta) grid: lam in [0.01, 100] and beta in [0.05, 20], 9 x 9
# log-spaced
GRID_LAMS = np.logspace(-2.0, 2.0, 9)
GRID_BETAS = np.geomspace(0.05, 20.0, 9)


def _principal_value_energy(lam, beta, tol):
    """eps = -(lam/beta^2) PV int_0^inf s e^(-kappa s) (zeta'/zeta)(s) ds, the
    form before the integration by parts, from the public principal_value
    around the pole on [0.5, 1.5], plain integrals on either side and a
    Dirichlet-tail bound past s_max; returns (eps, budget)."""
    kappa = lam / beta

    def full(s):
        return s * np.exp(-kappa * s) * nk._zeta_log_derivative_real_many(s)

    def h(s):
        # (s - 1) zeta'/zeta(s), which tends to the residue -1 at the pole
        residue = np.full_like(s, -1.0)
        off = s != 1.0
        residue[off] = (s[off] - 1.0) * nk._zeta_log_derivative_real_many(s[off])
        return s * np.exp(-kappa * s) * residue

    s_max = max(4.0, math.log(1e18) / (kappa + math.log(2.0)))
    parts = [
        q.integrate(full, 0.0, 0.5, tol / 3.0),
        q.principal_value(h, 1.0, 0.5, 1.5, tol / 3.0),
        q.integrate(full, 1.5, s_max, tol / 3.0),
    ]
    assert all(p.converged for p in parts)
    # |zeta'/zeta(s)| <= 1.4 ln 2 2^-s for s >= 4
    decay = kappa + math.log(2.0)
    tail = 1.4 * math.log(2.0) * math.exp(-decay * s_max) * (s_max / decay + 1.0 / decay**2)
    pref = lam / (beta * beta)
    return -pref * sum(p.value for p in parts), pref * (sum(p.abs_error for p in parts) + tail)


class TestEnergyConvergence:
    """eps is the integral of ln|zeta| under the weight (1 - kappa s)
    e^(-kappa s), on the pieces of f: no principal value, so no node can
    round onto the pole."""

    @pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-11, 1e-12])
    def test_grid_converges(self, tol):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lam in GRID_LAMS:
                scan = th.thermo_scan(th.EnsembleSpec.continuum(float(lam)), GRID_BETAS, tol)
                assert all(p.converged for p in scan)

    @pytest.mark.parametrize("lam,beta", [(0.01, 0.4729), (0.01, 1.0), (0.01, 2.115), (0.0316, 1.0)])
    def test_within_its_budget(self, lam, beta):
        mp = pytest.importorskip("mpmath")
        point = th.thermo_point(th.EnsembleSpec.continuum(lam), beta, 1e-11)
        kappa = lam / beta
        edges = sorted({0.0, 1.0, 2.0, 8.0, 30.0, 90.0} | {c / kappa for c in (1, 5, 20, 60) if c < kappa})
        with mp.workdps(25):
            k = mp.mpf(kappa)
            integral = mp.quad(
                lambda s: (1 - k * s) * mp.exp(-k * s) * mp.log(abs(mp.zeta(s))), edges
            )
            ref = float(lam / beta**2 * integral)
        assert abs(point.eps - ref) <= point.abs_error[1]

    @pytest.mark.parametrize("lam", GRID_LAMS[::2].tolist())
    def test_equals_the_principal_value_of_the_log_derivative(self, lam):
        # an independent route through zeta'/zeta: the two agree within the
        # sum of their budgets
        spec = th.EnsembleSpec.continuum(lam)
        for beta in GRID_BETAS[::2]:
            ((_, eps, _, (_, budget), _),) = th._continuum(spec, [float(beta)], 1e-9, (th._EPS,))
            pv, pv_budget = _principal_value_energy(lam, float(beta), 1e-9)
            assert abs(eps - pv) <= budget + pv_budget


class TestKernelContract:
    """integrate_rows concatenates the nodes of many panels into one kernel
    call: a kernel's value at s must not depend on the batch around it, nor
    on where a cut into chunks of CHUNK nodes falls."""

    CHUNK = 1024

    KERNELS = (nk._log_regular_zeta_real_many, nk._zeta_log_derivative_real_many)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=1e-3, max_value=80.0).filter(lambda s: s != 1.0),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([1, 2, 15, 1023, 1024, 1025, 2100]),
        st.sampled_from(["first", "last", "chunk_end", "chunk_start", "random"]),
    )
    def test_value_alone_equals_value_in_a_batch(self, s, seed, size, where):
        rng = np.random.default_rng(seed)
        batch = rng.uniform(1e-3, 60.0, size)
        batch[batch == 1.0] = 2.0
        k = {
            "first": 0,
            "last": size - 1,
            "chunk_end": min(self.CHUNK - 1, size - 1),
            "chunk_start": min(self.CHUNK, size - 1),
            "random": int(rng.integers(0, size)),
        }[where]
        batch[k] = s
        for kernel in self.KERNELS:
            alone = kernel(np.array([s]))[0]
            whole = kernel(batch)
            chunked = np.concatenate(
                [kernel(batch[i : i + self.CHUNK]) for i in range(0, size, self.CHUNK)]
            )
            assert whole[k] == alone
            assert np.array_equal(whole, chunked)

    def test_pole_node_of_the_regular_log(self):
        batch = np.array([0.5, 1.0, 2.0, 1.0 + 2.0**-40])
        values = nk._log_regular_zeta_real_many(batch)
        assert values[1] == 0.0
        assert nk._log_regular_zeta_real_many(np.array([1.0]))[0] == 0.0
        for k in (0, 2, 3):
            assert values[k] == nk._log_regular_zeta_real_many(batch[k : k + 1])[0]


class TestRealAxisArithmetic:
    """At real temperature thermo evaluates zeta on the real axis only, so
    the Euler-Maclaurin kernel gets float64 arrays and no complex128 one."""

    @staticmethod
    def dtypes(monkeypatch):
        """Patch the Euler-Maclaurin core to record the dtype of each
        call's points."""
        seen = []
        original = nk._hurwitz_em

        def recorded(s, a, n_terms, want_derivative):
            seen.append(np.asarray(s).dtype)
            return original(s, a, n_terms, want_derivative)

        monkeypatch.setattr(nk, "_hurwitz_em", recorded)
        return seen

    def assert_real_only(self, seen):
        assert set(seen) == {np.dtype(np.float64)}

    def test_discrete_scan(self, monkeypatch):
        seen = self.dtypes(monkeypatch)
        spec = _random_spec(6, 20)
        th.thermo_scan(spec, np.linspace(0.5, 3.0, 6) / float(spec.omegas[0]))
        self.assert_real_only(seen)

    def test_continuum_scan(self, monkeypatch):
        seen = self.dtypes(monkeypatch)
        th.thermo_scan(th.EnsembleSpec.continuum(1.0), [0.3, 1.0, 4.0])
        self.assert_real_only(seen)

    def test_energy_breakdown(self, monkeypatch, zeros200):
        seen = self.dtypes(monkeypatch)
        th.energy_breakdown(th.EnsembleSpec.continuum(0.5), 1.5, zeros200)
        self.assert_real_only(seen)
