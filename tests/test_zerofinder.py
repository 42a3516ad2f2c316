import hashlib
import math
from decimal import Decimal
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


class TestGramPointBatches:
    """A Gram point has the same bits alone (gram_point, T* of the zero
    sums) and in any batch (a zero search)."""

    def test_every_point_alone_equals_the_batch(self):
        whole = zf._gram_points(-1, 3006)
        alone = np.array([zf.gram_point(n) for n in range(-1, 3007)])
        assert np.array_equal(whole, alone)

    def test_sub_batches(self):
        whole = zf._gram_points(0, 10006)
        rng = np.random.default_rng(3006)
        for size in (1, 2, 17, 500, 4000):
            lo = int(rng.integers(0, 10007 - size))
            assert np.array_equal(zf._gram_points(lo, lo + size - 1), whole[lo : lo + size])


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


def rs_correction_series(mp, count: int, degree: int):
    """Taylor coefficients in x = p - 1/2 of the Riemann-Siegel corrections
    C_0..C_{count-1}, up to x^degree, as mpf lists, by Arias de Reyna's
    recursion (Math. Comp. 80 (2011); mpmath/functions/rszeta.py, `_coef`
    and the `xd` recursion of `Rzeta_set`) at sigma = 1/2.  His terms are
    complex, C*_n = 2 (-1)^n sum_l d_{n,l} F^(3n-2l)(2x) / (pi^(2n-l) (2i)^l)
    with F(z) = (e^{pi i (z^2/2 + 3/8)} - i sqrt(2) cos(pi z/2)) / (2 cos pi z);
    Gabcke's real C_n is the real part of the coefficient of tau^-n in
    e^{i(theta - theta_0)} sum_n C*_n tau^-n, where theta - theta_0 = t^-1/48
    + ..., t = 2 pi tau^2, is the tail of theta's series that his phase
    leaves out.  Run at mp.dps = 80 (count <= 14); `zerofinder._RS_CORRECTIONS` was
    generated by `rs_correction_series(mp, 7, 60)`."""
    size = degree + 3 * count  # F's series must reach the highest derivative
    half_turn = mp.expjpi(mp.mpf(3) / 8)
    num, den = [], []
    for k in range(0, size, 2):  # F is even in z
        h = k // 2
        num += [half_turn * (mp.j * mp.pi / 2) ** h / mp.factorial(h)
                - mp.j * mp.sqrt(2) * (-1) ** h * (mp.pi / 2) ** k / mp.factorial(k), 0]
        den += [2 * (-1) ** h * mp.pi ** k / mp.factorial(k), 0]
    f = []
    for k in range(size):
        f.append((num[k] - mp.fsum(f[j] * den[k - j] for j in range(k))) / den[0])

    d = {(0, 0): Fraction(1)}
    for n in range(1, count):
        for l in range(3 * n // 2 + 1):
            m = 3 * n - 2 * l
            if m:
                d[n, l] = -(m + 1) * d.get((n - 1, l - 2), 0) + d.get((n - 1, l), 0) / Fraction(4 * m)
            else:
                d[n, l] = -sum((-1) ** (l - r) * d[n, r] * Fraction(math.factorial(2 * (l - r)),
                                                                     math.factorial(l - r))
                               for r in range(l))
    starred = []
    for n in range(count):
        row = [mp.mpc(0)] * (degree + 1)
        for l in range(3 * n // 2 + 1):
            m = 3 * n - 2 * l
            w = 2 * (-1) ** n * mp.mpf(d[n, l].numerator) / d[n, l].denominator
            w /= mp.pi ** (2 * n - l) * (2 * mp.j) ** l
            for j in range(degree + 1):
                row[j] += w * f[j + m] * mp.ff(j + m, m) * 2**j
        starred.append(row)

    # e^{i(theta - theta_0)} as a series in 1/tau: theta - theta_0 = t^-1/48
    # + 7 t^-3/5760 + 31 t^-5/80640 + ... (Edwards, 6.5), t = 2 pi tau^2
    phase = [mp.mpc(0)] * count
    for k, c in enumerate((Fraction(1, 48), Fraction(7, 5760), Fraction(31, 80640)), start=1):
        if 4 * k - 2 < count:
            phase[4 * k - 2] = mp.j * mp.mpf(c.numerator) / c.denominator * (2 * mp.pi) ** (1 - 2 * k)
    expo = term = [mp.mpc(1)] + [mp.mpc(0)] * (count - 1)
    for q in range(1, count):
        term = [mp.fsum(term[j] * phase[k - j] for j in range(k + 1)) / q for k in range(count)]
        expo = [a + b for a, b in zip(expo, term)]
    return [
        [mp.re(mp.fsum(expo[n - m] * starred[m][j] for m in range(n + 1))) for j in range(degree + 1)]
        for n in range(count)
    ]


# Gabcke's C_n = sum_k d_k^(n) Psi^(3n-4k)(p) / pi^(2n-2k), Psi(p) =
# cos 2pi(p^2 - p - 1/16) / cos 2pi p: the d_k^(n) of C0..C4 as Edwards
# gives them (Riemann's Zeta Function, 7.4), as (numerator, denominator)
_EDWARDS_D = (
    ((1, 1),),
    ((-1, 96),),
    ((1, 18432), (1, 64)),
    ((-1, 5308416), (-1, 3840), (-1, 64)),
    ((1, 2038431744), (11, 5898240), (19, 24576), (1, 128)),
)


class TestRiemannSiegel:
    def test_agrees_with_euler_maclaurin(self):
        rng = np.random.default_rng(20140131)
        t = np.concatenate(([200.0, 1e4], rng.uniform(200.0, 1e4, 300)))
        diff = np.abs(zf._z_rs(t) - zf._z_many(t))
        assert np.all(diff <= zf._rs_error_bound(t))

    def test_agrees_with_mpmath_siegelz(self):
        # Z_RS against mpmath's Z at 500 seeded t: the bound is Gabcke's
        # remainder after C6 plus the phases' rounding.  The largest ratio of
        # error to bound is 0.056, at t = 2180 where rounding dominates;
        # below t = 400, where the C6 remainder dominates, it is 0.016
        mp = pytest.importorskip("mpmath")
        t = np.sort(np.random.default_rng(2011).uniform(200.0, 3000.0, 500))
        ref = np.array([float(mp.siegelz(x)) for x in t])
        ratio = np.abs(zf._z_rs(t) - ref) / zf._rs_error_bound(t)
        assert ratio.max() <= 1.0, (t[ratio.argmax()], ratio.max())

    def test_psi_taylor_coefficients(self):
        # C0 = Psi, so the table's first row is Psi's Taylor series
        mp = pytest.importorskip("mpmath")
        c0 = zf._RS_CORRECTIONS[0]
        with mp.workdps(30):
            psi = lambda p: mp.cos(2 * mp.pi * (p * p - p - mp.mpf(1) / 16)) / mp.cos(2 * mp.pi * p)
            coeffs = mp.taylor(psi, mp.mpf(1) / 2, 2 * len(c0) - 2)
        assert all(abs(c) < 1e-25 for c in coeffs[1::2])
        for fresh, embedded in zip(coeffs[::2], c0):
            assert embedded == pytest.approx(float(fresh), rel=1e-15)

    def test_generator_gives_edwards_c0_to_c4(self):
        # Two derivations agree, per coefficient to 1e-30 relative.  The
        # generator reproduces Edwards's C0..C4.  On C5 and C6 it agrees with
        # Gabcke's form, its d_k^(n) from d_k^(n) = -(m+1)/2 d_{k-1}^(n-1) -
        # d_k^(n-1) / 32m, m = 3n - 4k: that recursion gives Edwards's d for
        # n <= 4 except the one at m = 0, and m is never 0 for n = 5, 6
        mp = pytest.importorskip("mpmath")
        with mp.workdps(80):
            series = rs_correction_series(mp, 7, 30)
            psi = mp.taylor(
                lambda p: mp.cos(2 * mp.pi * (p * p - p - mp.mpf(1) / 16)) / mp.cos(2 * mp.pi * p),
                mp.mpf(1) / 2, 50,
            )
            d = [[Fraction(*c) for c in row] for row in _EDWARDS_D]
            for n in (5, 6):
                d.append([
                    -Fraction(3 * n - 4 * k + 1, 2) * (d[n - 1][k - 1] if k else 0)
                    - (d[n - 1][k] if k < len(d[n - 1]) else Fraction(0)) / (32 * (3 * n - 4 * k))
                    for k in range(3 * n // 4 + 1)
                ])
            for n, row in enumerate(d):
                for j in range(n % 2, 31, 2):
                    gabcke = mp.fsum(
                        mp.mpf(dk.numerator) / dk.denominator * psi[j + 3 * n - 4 * k]
                        * mp.ff(j + 3 * n - 4 * k, 3 * n - 4 * k) / mp.pi ** (2 * n - 2 * k)
                        for k, dk in enumerate(row)
                    )
                    assert abs(series[n][j] - gabcke) <= 1e-30 * abs(gabcke), (n, j)
                for j in range(1 - n % 2, 31, 2):
                    assert abs(series[n][j]) <= 1e-40, (n, j)

    def test_corrections_are_the_generated_coefficients(self):
        # the literal table is the generator's output rounded to doubles and
        # cut where a term stays under 1e-18 at t = 200; per coefficient to
        # 1e-15 relative, and the cut-off terms sum to less than 1e-18
        mp = pytest.importorskip("mpmath")
        with mp.workdps(80):
            series = rs_correction_series(mp, 7, 60)
        tau = math.sqrt(zf._RS_MIN_T / (2.0 * math.pi))
        for n, (row, full) in enumerate(zip(zf._RS_CORRECTIONS, series)):
            exact = full[n % 2 :: 2]
            for embedded, fresh in zip(row, exact):
                assert abs(embedded - fresh) <= 1e-15 * abs(fresh), n
            cut = sum(abs(float(c)) * 0.5 ** (n % 2 + 2 * j) for j, c in enumerate(exact) if j >= len(row))
            assert cut * tau ** (-n - 0.5) <= 1e-18, n


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
        for k, (row, coeffs) in enumerate(zip(rows, zf._RS_CORRECTIONS)):
            poly = np.zeros(2 * len(coeffs) + 1)
            poly[k % 2 :: 2][: len(coeffs)] = coeffs
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
            "8c1dd05f3d33bdc3fda2efbedf180f722a2a69448ccc30b8793bc657e0a795e2"
        )

    @pytest.mark.parametrize("count, digest", [
        (4770, "bd45cdbe00c394fc558f5b0fcc05644e91aa01906743485e7ae465f19ab30567"),
        (10_000, "cb2886e29a84f597ecc76cd89eaed1c45fbc418098e233fd028f021bdbf6f45a"),
    ])
    def test_large_table_bytes_are_stable(self, count, digest, request):
        table = request.getfixturevalue(f"zeros{count}")
        assert hashlib.sha256(zf._table_text(table).encode()).hexdigest() == digest

    def test_work_counters(self, zeros3000, zeros10000, tmp_path):
        # Polishing every zero on Euler-Maclaurin costs 2 evaluations per
        # zero (6,000 for 3000 zeros); the cell certificate sends the near-
        # ties to the polish, 19 of 3000 zeros and 50 of 10^4.  One-interval
        # Gram blocks take no grid, and each zero costs 2 signs after the
        # narrowing: 29,854 and 101,628 Riemann-Siegel evaluations.
        assert zeros3000.em_evaluations <= 950
        assert zeros10000.em_evaluations <= 1_100
        assert zeros3000.escalated_intervals <= 200
        assert 0 < zeros3000.rs_evaluations <= 31_000
        assert 0 < zeros10000.rs_evaluations <= 105_000
        assert 0 < zeros3000.em_polished <= 25
        assert 0 < zeros10000.em_polished <= 60
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


class TestRosserBrackets:
    """A Gram block between consecutive good Gram points holds as many zeros
    as it spans intervals (Rosser's rule), so a one-interval block brackets
    its zero by its ends and only longer blocks are scanned on a grid."""

    @pytest.mark.parametrize("count", [1000, 4770])
    def test_only_longer_blocks_are_gridded(self, monkeypatch, count):
        scanned = []
        scan = zf._Search.scan

        def record(search, gram, zg, idx, level):
            scanned.append((level, idx.copy()))
            return scan(search, gram, zg, idx, level)

        monkeypatch.setattr(zf._Search, "scan", record)
        zf.find_zeros(count)
        _, _, good, last = zf._gram_blocks(zf._Search(), count)
        ends = good[(good > 0) & (good <= last)]
        starts = np.concatenate(([0], ends[:-1]))
        longer = np.concatenate([np.arange(a, b) for a, b in zip(starts, ends) if b - a > 1])
        assert scanned[0][0] == zf._LEVELS[0]
        assert np.array_equal(scanned[0][1], longer)
        one_interval = starts[ends - starts == 1]
        assert one_interval.size > 0.8 * count
        assert not np.isin(one_interval, np.concatenate([idx for _, idx in scanned])).any()

    @pytest.mark.parametrize("count", [1000, 3000])
    def test_grid_everywhere_gives_the_same_table(self, monkeypatch, zeros3000, count):
        # keeping only the last good Gram point makes one block of every
        # interval, which the 8-cell grid scans in full
        default = zeros3000 if count == 3000 else zf.find_zeros(count)
        gram_blocks = zf._gram_blocks

        def one_block(search, n):
            gram, zg, good, last = gram_blocks(search, n)
            return gram, zg, good[good == last], last

        monkeypatch.setattr(zf, "_gram_blocks", one_block)
        gridded = zf.find_zeros(count)
        assert gridded.escalated_intervals == 0
        assert gridded.rs_evaluations > default.rs_evaluations
        assert zf._table_text(gridded) == zf._table_text(default)


class _Scripted:
    """A stand-in for `_Search` whose fast kernel returns given values, one
    per call, and records where it was called."""

    def __init__(self, values):
        self.values = list(values)
        self.calls = []

    def fast(self, t):
        self.calls.append(float(t[0]))
        return np.array([self.values.pop(0)])


class TestNarrowing:
    def _narrow(self, values):
        search = _Scripted(values)
        a, b, fa, fb = zf._narrow(search, np.array([0.0]), np.array([1.0]), np.array([-1.0]), np.array([1.0]))
        return search.calls, float(a[0]), float(b[0]), float(fa[0]), float(fb[0])

    def test_retained_end_is_scaled_by_m(self):
        # c = 0.5 keeps the sign of f(1) = 1: m = 1 - 0.25 = 0.75 scales
        # f(0) to -0.75, and the next secant point is 0.5 - 0.25 * 0.5 / 1;
        # the returned f(0) is the unscaled value
        calls, a, b, fa, fb = self._narrow([0.25, 0.0])
        assert calls == [0.5, 0.375]
        assert (a, b, fa, fb) == (0.0, 0.375, -1.0, 0.0)

    def test_m_not_positive_falls_back_to_half(self):
        # f(c) = 2 gives m = -1; f(0) is halved to -0.5 instead
        calls, _, _, fa, _ = self._narrow([2.0, 0.0])
        assert calls == [0.5, 0.5 - 2.0 * 0.5 / 2.5]
        assert fa == -1.0

    def test_sign_change_moves_the_retained_end(self):
        # f(0.5) = -0.5 changes sign against f(1) = 1, so 1 becomes the
        # retained end with its value unscaled
        calls, a, b, fa, fb = self._narrow([-0.5, 0.0])
        assert calls == [0.5, pytest.approx(0.5 + 0.25 / 1.5, rel=1e-15)]
        assert (a, b, fa, fb) == (1.0, calls[1], 1.0, 0.0)

    def test_stops_on_an_exact_zero(self):
        calls, a, b, fa, fb = self._narrow([0.0, 1.0])
        assert calls == [0.5]
        assert (a, b, fa, fb) == (0.0, 0.5, -1.0, 0.0)

    def test_converges_with_the_sign_change_kept(self):
        class Cubic:
            calls = 0

            def fast(self, t):
                self.calls += 1
                return t**3 - 0.2

        search = Cubic()
        a0 = np.array([0.1, 0.5, 0.58])
        b0 = np.array([1.0, 0.6, 0.6])
        a, b, fa, fb = zf._narrow(search, a0, b0, search.fast(a0), search.fast(b0))
        root = 0.2 ** (1.0 / 3.0)
        assert np.all(np.abs(b - a) <= zf._NARROW_RTOL * b)
        assert np.array_equal(fa, a**3 - 0.2) and np.array_equal(fb, b**3 - 0.2)
        assert np.all(fa * fb <= 0.0)
        assert np.all(np.abs(b - root) <= 1e-9)
        assert search.calls < 30

    def test_chord_root_or_midpoint(self):
        a, b = np.array([0.0, 0.0, 0.0]), np.array([1.0, 1.0, 1.0])
        c = zf._chord(a, b, np.array([-1.0, 0.0, 2.0]), np.array([3.0, 0.0, 1.0]))
        # the chord's root; equal end values; a root outside the bracket
        assert c.tolist() == [0.25, 0.5, 0.5]


class _Signs:
    """A stand-in for `_Search` whose signs are given values."""

    def __init__(self, values):
        self.values = np.array(values)

    def signs(self, t):
        return self.values.copy()


class TestCertificate:
    def test_rs_bound_holds_on_the_windows(self, zeros10000):
        # The certificate trusts Riemann-Siegel signs at the cell ends
        # wherever |Z_RS| exceeds its error bound; check the bound and the
        # signs there, and that the settled cells hold an Euler-Maclaurin
        # sign change.
        g = zeros10000.gammas[::20]
        g = g[g >= 200.0]
        seen = []

        class Recording(zf._Search):
            def signs(self, t):
                seen.append(t.copy())
                return super().signs(t)

        _, settled, _, _ = zf._certify(Recording(), g, g - 0.01, g + 0.01, zf._z_many(g - 0.01))
        (t,) = seen
        em = zf._z_many(t)
        assert np.all(np.abs(zf._z_rs(t) - em) <= zf._rs_error_bound(t))
        assert np.array_equal(np.sign(zf._Search().signs(t)), np.sign(em))
        lower, upper = em.reshape(2, g.size)
        assert np.count_nonzero(settled) >= g.size - 5
        assert np.all(lower[settled] * upper[settled] < 0.0)

    def test_near_tie_is_escalated(self):
        # Z within the Euler-Maclaurin allowance of 0 at a cell end is no
        # sign: that zero is not settled, and its polish window is the two
        # cells around that end.  Z is negative below the bracket.
        c = np.array([1234.56789012])
        lo, hi, z_lo = c - 0.1, c + 0.1, np.array([-1.0])
        assert 2e-11 < zf._em_allowance(c[0]) < 3e-11
        cases = [
            ([-1.0, 3e-11], True, 123456789012.5),
            ([-1.0, 2e-11], False, 123456789012.5),
            ([-2e-11, 1.0], False, 123456789011.5),
            ([1.0, 1.0], False, 123456789011.5),  # the zero is below the cell
            ([-1.0, -1.0], False, 123456789012.5),  # and here above it
        ]
        for values, settled_expected, edge in cases:
            q, settled, w_lo, w_hi = zf._certify(_Signs(values), c, lo, hi, z_lo)
            assert q.tolist() == [1234.56789012]
            assert settled.tolist() == [settled_expected], values
            assert (w_lo.tolist(), w_hi.tolist()) == ([(edge - 1.0) / 1e8], [(edge + 1.0) / 1e8]), values

    def test_cell_ends_are_inside_the_cell_and_the_bracket(self):
        seen = []

        class Recording(_Signs):
            def signs(self, t):
                seen.append(t.copy())
                return super().signs(t)

        c = np.array([1234.56789012, 99.1234567891])
        zf._certify(Recording([-1.0, -1.0, 1.0, 1.0]), c, c - 1.0, np.array([1300.0, 99.12345678912]),
                    np.array([-1.0, -1.0]))
        (t,) = seen
        first = (123456789012 - 0.5) / 1e8
        assert t[0] == math.nextafter(math.nextafter(first, math.inf), math.inf)
        assert t[2] == math.nextafter(math.nextafter((123456789012 + 0.5) / 1e8, 0.0), 0.0)
        assert t[3] == 99.12345678912  # the bracket ends below the cell's end

    def test_polish_fallback_gives_the_same_table(self, monkeypatch):
        default = zf.find_zeros(1000)
        certify = zf._certify

        def reject_all(*args):
            values, settled, lo, hi = certify(*args)
            return values, np.zeros_like(settled), lo, hi

        monkeypatch.setattr(zf, "_certify", reject_all)
        forced = zf.find_zeros(1000)
        assert forced.em_polished == 1000
        assert 0 < default.em_polished < 1000
        # the ordinates agree; the stated error adds the polish's bound, so
        # it grows with the set of polished zeros
        lines = [zf._table_text(t).splitlines()[1:] for t in (forced, default)]
        assert lines[0] == lines[1]
        assert forced.abs_error >= default.abs_error > 5e-9

    def test_abs_error_covers_near_ties(self, zeros10000):
        # mpmath.zetazero at 30 digits: each of these lies within 2e-12 of a
        # 12-digit rounding tie, so its rounded ordinate is about half a unit
        # of the 12th digit (5e-9) from the zero, plus the polish's own error
        refs = {6246: "6588.1335345150000234", 8956: "8980.7899750949984069",
                9408: "9370.7633662350017334"}
        for k, ref in refs.items():
            err = abs(Fraction(float(zeros10000.gammas[k - 1])) - Fraction(ref))
            assert Fraction(4.99e-9) < err <= Fraction(zeros10000.abs_error)

    def test_polish_without_a_slope_bound_is_accuracy_error(self):
        # Values 2e-12 apart across a 1e-3 window: |Z''| could make Z' vanish
        # there, so the polish has no error bound
        class Flat:
            def em(self, t):
                return np.array([-1e-12, 1e-12])

        with pytest.raises(AccuracyError, match="vanish"):
            zf._polish(Flat(), np.array([1000.0]), np.array([1000.001]))

    @pytest.mark.parametrize("slope", [0.0, np.nan, np.inf])
    def test_flat_slope_is_accuracy_error(self, slope):
        # A polish window whose Euler-Maclaurin values have no finite,
        # nonzero slope gives no root: a numerical failure, not a guess.
        class Values:
            def em(self, t):
                return slope * np.array([-1e-9, 1e-9])

        with pytest.raises(AccuracyError, match="sign change"):
            zf._polish(Values(), np.array([1000.0]), np.array([1000.00000002]))

    def test_estimates_off_their_cell_are_accuracy_error(self, monkeypatch):
        # estimates hundreds of cells from their zeros: no cell's ends differ
        # in sign, and the polish windows beside them hold no zero
        chord = zf._chord
        monkeypatch.setattr(zf, "_chord", lambda a, b, fa, fb: chord(a, b, fa, fb) + 1e-7)
        with pytest.raises(AccuracyError, match="sign change"):
            zf.find_zeros(50)


@pytest.mark.slow
def test_every_settled_cell_holds_an_euler_maclaurin_sign_change(monkeypatch):
    # An independent check of the certificate on the 10^4 table: the ends of
    # each settled zero's cell from its printed digits in exact decimal
    # arithmetic, moved 2 ulps inward, and Euler-Maclaurin Z there, with no
    # Riemann-Siegel value: the two signs are opposite and each |Z| exceeds
    # the Euler-Maclaurin allowance
    certify, record = zf._certify, []

    def spy(*args):
        out = certify(*args)
        record.append(out[1])
        return out

    monkeypatch.setattr(zf, "_certify", spy)
    table = zf.find_zeros(10_000)
    (settled,) = record
    assert np.count_nonzero(~settled) == table.em_polished
    lower, upper = [], []
    for g in table.gammas[settled].tolist():
        digits = Decimal(format(g, ".12g"))
        half = Decimal(1).scaleb(digits.adjusted() - 11) / 2
        lower.append(math.nextafter(math.nextafter(float(digits - half), math.inf), math.inf))
        upper.append(math.nextafter(math.nextafter(float(digits + half), 0.0), 0.0))
    t = np.array(lower + upper)
    z = zf._z_many(t)
    assert np.all(np.abs(z) > zf._em_allowance(t))
    assert np.all(z[: len(lower)] * z[len(lower) :] < 0.0)


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
        # the stated error is rounded up to the header's 6 digits
        assert loaded.abs_error == zeros200.abs_error
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
