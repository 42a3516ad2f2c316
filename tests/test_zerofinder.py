import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgas import zerofinder as zf
from rgas.errors import AccuracyError, DomainError, TableFormatError

import oracles


class TestTheta:
    def test_first_gram_point(self):
        g0 = zf.gram_point(0)
        assert g0 == pytest.approx(17.8456, abs=1e-4)
        assert abs(zf.riemann_siegel_theta(g0)) <= 1e-8

    def test_monotone_beyond_18(self):
        assert zf.riemann_siegel_theta(30.0) > zf.riemann_siegel_theta(20.0)

    def test_asymptotic_form_at_100(self):
        t = 100.0
        asym = 0.5 * t * math.log(t / (2 * math.pi)) - 0.5 * t - math.pi / 8.0
        assert zf.riemann_siegel_theta(t) == pytest.approx(asym, abs=1e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            zf.riemann_siegel_theta(0.0)

    def test_infinite_t_is_domain_error(self):
        with pytest.raises(DomainError):
            zf.riemann_siegel_theta(math.inf)


class TestHardyZ:
    def test_sign_change_brackets_first_zero(self):
        assert zf.hardy_z(14.0) * zf.hardy_z(14.2) < 0.0

    def test_small_at_first_ordinate(self):
        assert abs(zf.hardy_z(oracles.GAMMA_1)) < 1e-8

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_non_finite_t_is_domain_error(self, t):
        with pytest.raises(DomainError):
            zf.hardy_z(t)

    def test_rotation_is_real(self):
        from rgas import numkernel as nk

        t = 50.0
        rotated = np.exp(1j * zf.riemann_siegel_theta(t)) * nk.zeta(complex(0.5, t))
        assert abs(rotated.imag) < 1e-9


class TestRiemannSiegel:
    def test_agrees_with_euler_maclaurin(self):
        rng = np.random.default_rng(20140131)
        t = np.concatenate(([200.0, 1e4], rng.uniform(200.0, 1e4, 300)))
        diff = np.abs(zf._z_rs(t) - zf._z_many(t))
        assert np.all(diff <= zf._rs_error_bound(t))

    def test_psi_taylor_coefficients(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            psi = lambda p: mp.cos(2 * mp.pi * (p * p - p - mp.mpf(1) / 16)) / mp.cos(2 * mp.pi * p)
            coeffs = mp.taylor(psi, mp.mpf(1) / 2, 2 * len(zf._PSI_TAYLOR) - 2)
        assert all(abs(c) < 1e-25 for c in coeffs[1::2])
        for fresh, embedded in zip(coeffs[::2], zf._PSI_TAYLOR):
            assert embedded == pytest.approx(float(fresh), rel=1e-15)


class TestFastKernels:
    """The pieces of the zero finder's Z kernels: the real theta series, the
    one-pass Gabcke correction and the sorted term sums of Riemann-Siegel Z,
    and the cutoff-sized chunks of Euler-Maclaurin Z."""

    def test_theta_series_matches_theta(self):
        from rgas import numkernel as nk

        t = np.geomspace(zf._THETA_SERIES_MIN_T, 1e4, 5001)
        log_gamma = nk._log_gamma_many(0.25 + 0.5j * t).imag - 0.5 * t * math.log(math.pi)
        ulps = np.spacing(t * np.log(t))
        assert np.all(np.abs(zf._theta_many(t) - log_gamma) <= 4.0 * ulps)

    def test_parity_horner_matches_polyval(self):
        x = np.linspace(-0.5, 0.5, 2001)
        rows = zf._rs_corrections(x)
        for row, poly in zip(rows, zf._RS_CORRECTIONS):
            assert np.max(np.abs(row - np.polynomial.polynomial.polyval(x, poly))) <= 1e-15

    def test_rs_value_does_not_depend_on_order(self):
        rng = np.random.default_rng(11)
        t = np.sort(rng.uniform(200.0, 1e4, 2000))
        perm = rng.permutation(t.size)
        assert np.array_equal(zf._z_rs(t[perm]), zf._z_rs(t)[perm])

    def test_chunked_em_matches_one_point_hardy_z(self):
        t = np.random.default_rng(12).uniform(40.0, 2600.0, 1000)
        alone = np.array([zf.hardy_z(x) for x in t])
        assert np.max(np.abs(zf._z_many(t) - alone)) <= 1e-12


@pytest.fixture(scope="module")
def zeros4770():
    return zf.find_zeros(4770)


class TestFindZeros:
    def test_first_two_ordinates(self, zeros200):
        assert zeros200.gammas[0] == pytest.approx(oracles.GAMMA_1, abs=1e-6)
        assert zeros200.gammas[1] == pytest.approx(oracles.GAMMA_2, abs=1e-6)

    def test_count_straddles_100(self, zeros200):
        assert zeros200.count_below(100.0) == 29
        assert zeros200.gammas[29] > 100.0

    def test_all_stored_ordinates_are_zeros(self, zeros200):
        z = zf._z_many(zeros200.gammas)
        assert float(np.max(np.abs(z))) < 1e-8
        below = zf._z_many(zeros200.gammas - 1e-6)
        above = zf._z_many(zeros200.gammas + 1e-6)
        assert np.all(below * above < 0.0)

    def test_monotone_no_duplicates(self, zeros200):
        gaps = np.diff(zeros200.gammas)
        assert np.all(gaps > 1e-9)

    def test_determinism_and_consistency_with_head(self, zeros3000):
        small = zf.find_zeros(30)
        assert np.array_equal(small.gammas, zeros3000.gammas[:30])

    def test_gram_law_shortfall_is_not_escalated(self, zeros3000):
        # For these counts the base grid shows one sign change fewer below
        # g_{N+6} than N + 7, only because Gram's law fails there; only Gram
        # blocks short of Rosser's count may be rescanned, not the range.
        for n in (120, 2139):
            table = zf.find_zeros(n)
            assert np.array_equal(table.gammas, zeros3000.gammas[:n])
            assert table.escalated_intervals <= 200

    def test_short_gram_block_is_rescanned(self, zeros4770):
        # The 8-cell grid misses the close pair of zeros in the Gram block
        # g_4763..g_4765; that block alone is rescanned at 64 cells.
        table = zeros4770
        assert table.escalated_intervals == 2
        assert table.count_below(zf.gram_point(4765)) == 4766

    def test_table_bytes_are_stable(self, zeros3000, tmp_path):
        p = tmp_path / "zeros-3000.txt"
        zf.save_table(zeros3000, p)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == (
            "adb60bf06c1b1ee545dfb83144fe7412425c77f491f9a811e2b08a86e2627c7c"
        )

    @pytest.mark.parametrize("count, digest", [
        (4770, "88edca1ff4c8f833435cc0fddbbe03ff7ea38cf322d40ecb68b4e6d75014fd9a"),
        (10_000, "7c556a5956091c7c91853b10cfd7f93969c24897ce473119523c2d5215368dd2"),
    ])
    def test_large_table_bytes_are_stable(self, count, digest, request):
        table = request.getfixturevalue(f"zeros{count}")
        assert hashlib.sha256(zf._table_text(table).encode()).hexdigest() == digest

    def test_work_counters(self, zeros3000, zeros10000, tmp_path):
        # Polishing every zero on Euler-Maclaurin costs 3 evaluations per
        # zero (over 9,000 for 3000 zeros); the certificate sends ~360 zeros
        # to the polish.
        assert zeros3000.em_evaluations <= 4_000
        assert zeros10000.em_evaluations <= 4_000
        assert zeros3000.escalated_intervals <= 200
        assert zeros3000.rs_evaluations > 0
        assert 0 < zeros3000.em_polished <= 600
        head = zeros3000.head(10)
        p = tmp_path / "z.txt"
        zf.save_table(head, p)
        for table in (head, zf.load_table(p)):
            counters = (table.em_evaluations, table.rs_evaluations,
                        table.escalated_intervals, table.em_polished)
            assert counters == (0, 0, 0, 0)

    def test_count_bounds(self):
        with pytest.raises(DomainError):
            zf.find_zeros(0)
        with pytest.raises(DomainError):
            zf.find_zeros(10_001)


class TestCertificate:
    def test_rs_bound_holds_on_the_windows(self, zeros10000):
        # The certificate trusts Riemann-Siegel signs at r -/+ delta wherever
        # |Z_RS| exceeds its error bound; check the bound and the signs there.
        g = zeros10000.gammas[::20]
        g = g[g >= 200.0]
        search = zf._Search()
        idx, r, delta = zf._refine(search, g, g)
        assert idx.size == g.size
        t = np.concatenate([r - delta, r + delta])
        em = zf._z_many(t)
        assert np.all(np.abs(zf._z_rs(t) - em) <= zf._rs_error_bound(t))
        assert np.array_equal(np.sign(search.signs(t)), np.sign(em))
        assert np.all(np.sign(em[: g.size]) != np.sign(em[g.size :]))

    def test_polish_fallback_gives_the_same_table(self, monkeypatch):
        default = zf.find_zeros(1000)
        certify = zf._certify

        def reject_all(search, a, b):
            values, settled = certify(search, a, b)
            return values, np.zeros_like(settled)

        monkeypatch.setattr(zf, "_certify", reject_all)
        forced = zf.find_zeros(1000)
        assert forced.em_polished == 1000
        assert 0 < default.em_polished < 1000
        assert zf._table_text(forced) == zf._table_text(default)

    def test_flat_slope_is_escalated(self, monkeypatch, zeros200):
        slope_of = zf._central_slope

        def half_flat(search, mid):
            slope, f_mid = slope_of(search, mid)
            slope[::2] = 0.0
            slope[1::4] = np.nan
            return slope, f_mid

        monkeypatch.setattr(zf, "_central_slope", half_flat)
        g = zeros200.gammas
        values, settled = zf._certify(zf._Search(), g, g)
        assert not settled[::2].any() and not settled[1::4].any()
        assert settled[3::4].any()
        assert np.array_equal(values[settled], g[settled])

    @pytest.mark.parametrize("slope", [0.0, np.nan, np.inf])
    def test_flat_slope_is_accuracy_error(self, monkeypatch, slope):
        # A flat slope must not widen the polish bracket to t <= 0, where
        # Z raises DomainError (a usage error) instead of a numerical one.
        monkeypatch.setattr(
            zf, "_central_slope",
            lambda search, mid: (np.full_like(mid, slope), np.zeros_like(mid)),
        )
        with pytest.raises(AccuracyError, match="slope"):
            zf.find_zeros(50)


def _steps(x: float, ulps: int) -> float:
    """x moved by `ulps` adjacent doubles (down for a negative count)."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.inf if ulps > 0 else -math.inf)
    return x


# a 12-digit integer m in [1e11, 1e12) and d = 6..10 place m / 10^d, or the
# decimal midpoint (m + 1/2) / 10^d, in [10, 1e6)
_digits = st.integers(min_value=10**11, max_value=10**12 - 1)
_places = st.integers(min_value=6, max_value=10)
_offsets = st.integers(min_value=-4, max_value=4)


class TestQuantize:
    """The vectorized 12-digit rounding equals format + float, including
    values a few ulps from a rounding tie, where its fallback decides."""

    @staticmethod
    def assert_matches(values):
        values = np.asarray(values, dtype=np.float64)
        expected = np.array([float(format(g, ".12g")) for g in values])
        assert np.array_equal(zf._quantize_many(values), expected)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=10.0, max_value=1e6, exclude_max=True), min_size=1, max_size=50))
    def test_plain_floats(self, values):
        self.assert_matches(values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_digits, _places, _offsets), min_size=1, max_size=20))
    def test_near_decimal_midpoints(self, draws):
        self.assert_matches(
            [_steps(float(Fraction(2 * m + 1, 2 * 10**d)), k) for m, d, k in draws]
        )

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(_digits, _places, _offsets), min_size=1, max_size=20))
    def test_near_exact_twelve_digit_values(self, draws):
        self.assert_matches([_steps(m / 10**d, k) for m, d, k in draws])

    def test_powers_of_ten(self):
        powers = [10.0**k for k in range(1, 6)]
        self.assert_matches(powers + [_steps(p, k) for p in powers for k in (-4, -1, 1, 4)])


class TestCountEstimate:
    def test_values_track_true_counts(self, zeros200):
        for t, true_count in ((50.0, 10), (100.0, 29), (200.0, 79)):
            assert zeros200.count_below(t) == true_count
            assert abs(true_count - round(zf.zero_count_estimate(t))) <= 1

    def test_increasing(self):
        grid = np.linspace(20.0, 500.0, 60)
        vals = [zf.zero_count_estimate(float(t)) for t in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            zf.zero_count_estimate(6.0)


class TestPersistence:
    def test_round_trip_identity(self, zeros200, tmp_path):
        p = tmp_path / "z.csv"
        zf.save_table(zeros200, p)
        loaded = zf.load_table(p)
        assert np.array_equal(loaded.gammas, zeros200.gammas)
        assert loaded.count == zeros200.count
        assert loaded.source == "loaded"
        # text round trip is byte-exact
        p2 = tmp_path / "z2.csv"
        zf.save_table(loaded, p2)
        assert p.read_bytes() == p2.read_bytes()

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("# wrong header\n14.1\n")
        with pytest.raises(TableFormatError, match="line 1"):
            zf.load_table(p)

    def test_wrong_count(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("# rgas-zeros v1 count=3 abs_error=1e-9\n14.134725\n21.02204\n")
        with pytest.raises(TableFormatError, match="promises 3"):
            zf.load_table(p)

    def test_unordered_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("# rgas-zeros v1 count=3 abs_error=1e-9\n14.13\n25.01\n21.02\n")
        with pytest.raises(TableFormatError, match="increasing"):
            zf.load_table(p)

    def test_garbage_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("# rgas-zeros v1 count=2 abs_error=1e-9\n14.13\npotato\n")
        with pytest.raises(TableFormatError, match="line 3"):
            zf.load_table(p)

    def test_unordered_line_named_past_blank_lines(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("# rgas-zeros v1 count=3 abs_error=1e-9\n\n14.13\n25.01\n21.02\n")
        with pytest.raises(TableFormatError, match="line 5: ordinates not strictly"):
            zf.load_table(p)

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "z.csv"
        p.write_text("# rgas-zeros v1 count=2 abs_error=1e-9\n14.13\n\n  \n21.02\n")
        assert zf.load_table(p).gammas.tolist() == [14.13, 21.02]

    def test_loaded_once_and_reread_when_rewritten(self, zeros200, tmp_path):
        p = tmp_path / "z.csv"
        zf.save_table(zeros200, p)
        first = zf.load_table(p)
        assert zf.load_table(str(p)) is first
        zf.save_table(zeros200.head(150), p)
        assert zf.load_table(p).count == 150


class TestZeroTable:
    def test_validation(self):
        with pytest.raises(DomainError):
            zf.ZeroTable(np.array([10.0, 20.0]), 1e-9, 2, "computed")  # first <= 14
        with pytest.raises(DomainError):
            zf.ZeroTable(np.array([15.0, 15.0]), 1e-9, 2, "computed")
        with pytest.raises(DomainError):
            zf.ZeroTable(np.array([15.0, 16.0]), 1e-9, 2, "elsewhere")

    def test_head(self, zeros200):
        head = zeros200.head(10)
        assert head.count == 10
        assert np.array_equal(head.gammas, zeros200.gammas[:10])
        with pytest.raises(DomainError):
            zeros200.head(0)

    def test_value_equality(self):
        table = zf.find_zeros(2)
        assert table == zf.find_zeros(2)
        assert not table != zf.find_zeros(2)
        assert table != table.head(1)
