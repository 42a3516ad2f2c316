import math

import numpy as np
import pytest

from rgas import numkernel as nk
from rgas import quadrature as q
from rgas import thermo as th
from rgas.errors import DomainError, HagedornError

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
    """One Euler-Maclaurin call per beta, with the rounding of the one-point
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

    def test_one_kernel_call_per_beta(self, monkeypatch):
        calls = []
        original = nk._hurwitz_em

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(nk, "_hurwitz_em", counted)
        spec = _random_spec(5, 50)
        beta = 2.0 / float(spec.omegas[0])
        th.thermo_point(spec, beta)
        assert len(calls) == 1
        calls.clear()
        points = th.hagedorn_scan(spec, [0.5 / float(spec.omegas[0]), beta])
        assert [p.divergent for p in points] == [True, False]
        assert len(calls) == 1


class TestHagedornScan:
    def test_flags(self):
        points = th.hagedorn_scan(SINGLE, [0.5, 0.9, 1.1, 2.0])
        assert [p.divergent for p in points] == [True, True, False, False]
        assert points[0].f is None and points[3].f is not None

    def test_flag_set_is_exactly_the_pole_region(self):
        spec = th.EnsembleSpec.discrete([2.0], [1.0])  # beta* = 0.5
        grid = np.linspace(0.05, 1.0, 20)
        points = th.hagedorn_scan(spec, grid)
        for p in points:
            assert p.divergent == (p.beta * 2.0 <= 1.0)

    def test_monotone_flags(self):
        points = th.hagedorn_scan(SINGLE, np.linspace(0.2, 3.0, 29))
        flags = [p.divergent for p in points]
        assert flags == sorted(flags, reverse=True)

    def test_asymptote_within_5_percent(self):
        beta = 1.0 + 1e-4
        points = th.hagedorn_scan(SINGLE, [beta])
        asym = -(1.0 / beta) * math.log(1.0 / (beta * 1.0 - 1.0))
        assert points[0].f / asym == pytest.approx(1.0, abs=0.05)


class TestContinuumFreeEnergy:
    def test_imaginary_part_closed_form(self):
        f = th.free_energy_continuum(CONT, 1.0, 1e-10)
        expect = -math.pi * (1.0 - math.exp(-1.0))
        assert f.imag == pytest.approx(expect, abs=1e-8)
        assert f.imag == pytest.approx(-1.98587, abs=1e-5)

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


class TestPrintedForms:
    def test_thermal_closed_form_value(self):
        v = th.thermal_part_printed_form(1.0, 1.0, 1.0)
        assert v == pytest.approx(0.19719183692273015, abs=1e-12)
        assert v == pytest.approx(0.1972, abs=1e-4)

    def test_thermal_closed_form_pieces(self):
        # 1 - e^-1 Ei(1) - (1/4) e^-1/4 Ei(1/4) with Ei from the kernel
        expect = (
            1.0
            - math.exp(-1.0) * oracles.EI_1
            + 0.25 * math.exp(-0.25) * oracles.EI_QUARTER
        )
        assert th.thermal_part_printed_form(1.0, 1.0, 1.0) == pytest.approx(expect, abs=1e-13)

    def test_thermal_low_temperature_bound(self):
        beta = 100.0
        assert abs(th.thermal_part_printed_form(beta, 1.0, 1.0)) <= 3.0 / beta

    def test_series_coefficients(self):
        assert th.series_coefficient(2) == pytest.approx(math.pi**2 / 12.0, abs=1e-12)
        assert th.series_coefficient(2) == pytest.approx(0.8225, abs=1e-4)
        assert th.series_coefficient(3) == pytest.approx(-0.9015, abs=1e-4)

    def test_series_smallest_term_rule(self):
        sp = th.series_partial(1.0, 1.0, 12)
        assert sp.optimal_index >= 2
        # at beta/lam = 1/4 the terms decrease before the factorial growth bites
        sp = th.series_partial(1.0, 4.0, 30)
        assert sp.optimal_index > 2
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
        assert th.series_partial(1.0, 200.0, 250).optimal_index == 250
        assert th.series_partial(1.0, 1000.0, 450).optimal_index == 450


class TestScan:
    def test_points_finite_no_flags(self):
        scan = th.energy_scan(CONT, np.linspace(0.5, 4.0, 16), None, 1e-8)
        assert len(scan) == 16
        for point, bd in scan:
            assert bd is None
            assert math.isfinite(point.eps)
            assert math.isfinite(point.entropy)
            assert "hagedorn_divergent" not in point.flags

    def test_refinement_stability(self):
        coarse = th.energy_scan(CONT, np.linspace(0.5, 4.0, 4), None, 1e-9)
        fine = th.energy_scan(CONT, np.linspace(0.5, 4.0, 7), None, 1e-9)
        shared = {p.beta: p.eps for p, _ in fine}
        for point, _ in coarse:
            assert point.eps == pytest.approx(shared[point.beta], abs=1e-8)

    def test_entropy_identity_on_scan(self):
        for point, _ in th.energy_scan(CONT, np.linspace(0.8, 3.0, 4), None, 1e-9):
            assert point.entropy == pytest.approx(
                point.beta * (point.eps - point.f.real), abs=1e-10
            )

    def test_breakdowns_attached(self, zeros200):
        scan = th.energy_scan(CONT, np.linspace(1.0, 2.0, 3), zeros200, 1e-6)
        for point, bd in scan:
            assert bd is not None
            assert bd.oracle == pytest.approx(point.eps, abs=1e-6)


def _pair_integrals_reference(gammas, beta, lam, tol):
    """The 40 -> 80 -> 160 panel loop with every level run on the whole
    table; also returns the level it stopped at and its largest error."""
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
    return vals, float(np.sum(errs)), min(n_panels, 160), float(np.max(errs))


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
        gammas = zeros3000.head(count).gammas
        tol = 1e-9
        ref_vals, ref_err, ref_level, ref_max = _pair_integrals_reference(gammas, beta, lam, tol)
        assert (ref_level, ref_max <= tol) == (level, converged)
        vals, err = th._eps3_pair_integrals(gammas, beta, lam, tol)
        assert np.array_equal(vals, ref_vals)
        assert err == ref_err

    def test_pair_integrals_at_the_tolerance_boundary(self, zeros3000):
        # tol 1% above and below the 40-panel error: the loop stops at 40 and
        # at 80 panels, and the screen must skip neither level
        gammas = zeros3000.head(500).gammas
        error_40 = _pair_integrals_reference(gammas, 0.9, 0.03, math.inf)[3]
        for tol, level in ((error_40 * 1.01, 40), (error_40 * 0.99, 80)):
            ref_vals, ref_err, ref_level, _ = _pair_integrals_reference(gammas, 0.9, 0.03, tol)
            assert ref_level == level
            vals, err = th._eps3_pair_integrals(gammas, 0.9, 0.03, tol)
            assert np.array_equal(vals, ref_vals)
            assert err == ref_err

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
