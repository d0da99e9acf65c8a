import cmath
import itertools
import math

import mpmath
import numpy as np
import pytest
from scipy import special

from ncspectral.incgamma import upper_gamma
from ncspectral.zeta import (
    PoleEvaluationError,
    TwistedSeries,
    evaluate,
    poisson_dual,
    residue,
    residue_shifted,
    sphere_integral,
    theta_sum,
    vol_sphere,
    zeta_D,
    zeta_D_residue,
)
from ncspectral import zeta
from ncspectral.zeta import _dual_points, _lattice_shell_sums


def brute_force_sum(series, t, radius):
    """Direct reference sum over a fixed box, no radius machinery."""
    total = 0j
    n = series.n
    for k in itertools.product(range(-radius, radius + 1), repeat=n):
        if not any(k):
            continue
        pk = sum(c * np.prod([k[j] ** e[j] for j in range(n)]) for e, c in series.poly.items())
        phase = 2.0 * math.pi * sum(kj * aj for kj, aj in zip(k, series.twist))
        total += pk * complex(math.cos(phase), math.sin(phase)) * math.exp(-t * sum(x * x for x in k))
    return total


def gross_scale(series, t):
    """Sum of |P(k)| e^{-t |k|^2} over the lattice, via 1D separability.

    This is the magnitude against which float cancellation noise must be
    measured when the two-representation identity is checked.
    """
    n = series.n
    radius = int(math.ceil(math.sqrt(42.0 / t))) + 1
    ks = np.arange(-radius, radius + 1, dtype=float)
    gauss = np.exp(-t * ks ** 2)
    total = 0.0
    for e, c in series.poly.items():
        prod = 1.0
        for ej in e:
            prod *= float(np.sum(np.abs(ks) ** ej * gauss))
        total += abs(c) * prod
    return total


def brute_force_dirichlet(series, s, radius):
    total = 0j
    n = series.n
    for k in itertools.product(range(-radius, radius + 1), repeat=n):
        if not any(k):
            continue
        pk = sum(c * np.prod([k[j] ** e[j] for j in range(n)]) for e, c in series.poly.items())
        phase = 2.0 * math.pi * sum(kj * aj for kj, aj in zip(k, series.twist))
        nrm = math.sqrt(sum(x * x for x in k))
        total += pk * complex(math.cos(phase), math.sin(phase)) * nrm ** (-s)
    return total


class TestSeriesValidation:
    def test_inhomogeneous_rejected(self):
        with pytest.raises(ValueError):
            TwistedSeries(2, {(1, 0): 1.0, (2, 0): 1.0})

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            TwistedSeries(1, {(7,): 1.0})

    def test_twist_length(self):
        with pytest.raises(ValueError):
            TwistedSeries(2, {(0, 0): 1.0}, (0.5,))


class TestThetaSum:
    def test_large_t_approaches_zero(self):
        s = TwistedSeries(2, {(0, 0): 1.0})
        assert abs(theta_sum(s, 60.0)) < 1e-20

    def test_matches_brute_force(self):
        s = TwistedSeries(1, {(0,): 1.0})
        got = theta_sum(s, math.pi)
        want = brute_force_sum(s, math.pi, 12)
        assert abs(got - want) < 1e-16

    def test_half_integer_twist_sign_flip(self):
        plain = TwistedSeries(1, {(0,): 1.0})
        flipped = TwistedSeries(1, {(0,): 1.0}, (0.5,))
        got = theta_sum(flipped, 0.8)
        want = brute_force_sum(flipped, 0.8, 15)
        assert abs(got - want) < 1e-15
        # sign flip on odd modes only
        direct = sum(2 * (-1) ** k * math.exp(-0.8 * k * k) for k in range(1, 15))
        assert got.real == pytest.approx(direct, abs=1e-15)
        assert abs(plain.constant_coefficient()) == 1.0

    def test_rejects_nonpositive_t(self):
        s = TwistedSeries(1, {(0,): 1.0})
        with pytest.raises(ValueError):
            theta_sum(s, 0.0)


def box_shells(series, radius, weight):
    """Shell sums of the box |k|_inf <= radius by enumerating every point (np.indices).

    Returns the weighted shell sums, the sum of |term| per shell and the terms
    of the band |k|_inf >= radius - 1, origin excluded throughout.
    """
    n = series.n
    k = np.indices((2 * radius + 1,) * n).reshape(n, -1).T - radius
    nsq = np.sum(k * k, axis=1)
    k, nsq = k[nsq > 0], nsq[nsq > 0]
    kf = k.astype(float)
    terms = sum(c * np.prod(kf ** np.array(e), axis=1) for e, c in series.poly.items())
    terms = terms * np.exp(2j * math.pi * (kf @ np.array(series.twist))) * weight(nsq)
    size = n * radius * radius + 1
    shells = np.bincount(nsq, terms.real, size) + 1j * np.bincount(nsq, terms.imag, size)
    gross = np.bincount(nsq, np.abs(terms), size)
    return shells, gross, terms[np.max(np.abs(k), axis=1) >= radius - 1]


def fold_polys(n):
    """1, k1, k1 k2, k1^2 + 0.7 k2^2 and k1^3 k2 in dimension n (the first two when n = 1)."""
    def mono(*e):
        return tuple(e) + (0,) * (n - len(e))
    polys = [{mono(0): 1.0}, {mono(1): 1.0}]
    if n >= 2:
        polys += [{mono(1, 1): 1.0}, {mono(2, 0): 1.0, mono(0, 2): 0.7}, {mono(3, 1): 1.0}]
    return polys


FOLD_CASES = [(n, P, twisted) for n in (1, 2, 3, 4) for P in fold_polys(n)
              for twisted in (False, True)]


class TestShellFold:
    TWIST = (0.23, -0.41, 0.37, 0.11)

    @staticmethod
    def weight(nsq):
        return 1.0 / (1.0 + nsq)

    def check(self, series, radius, got, band):
        want, gross, edge = box_shells(series, radius, self.weight)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-13 * gross)
        assert abs(band - abs(np.sum(edge))) <= 1e-12 * np.sum(np.abs(edge))

    @pytest.mark.parametrize("n,P,twisted", FOLD_CASES)
    def test_matches_box_enumeration(self, n, P, twisted):
        series = TwistedSeries(n, P, self.TWIST[:n] if twisted else None)
        for radius in (1, 2, 6):
            calls = []

            def weight(nsq):
                calls.append(nsq)
                return self.weight(nsq)

            shells, band = _lattice_shell_sums(series, radius, weight)
            self.check(series, radius, shells, band)
            # one call, on the occupied shells only: every nonzero shell, never the origin
            assert len(calls) == 1
            assert np.all(np.diff(calls[0]) > 0) and calls[0].min(initial=1) > 0
            assert set(np.flatnonzero(shells)) <= set(calls[0].tolist())

    def test_chunk_cap_matches_uncapped(self, monkeypatch):
        series = TwistedSeries(3, {(2, 0, 0): 1.0, (0, 2, 0): 0.7}, self.TWIST[:3])
        whole, whole_band = _lattice_shell_sums(series, 6, self.weight)
        monkeypatch.setattr(zeta, "_CHUNK_POINTS", 64)
        capped, capped_band = _lattice_shell_sums(series, 6, self.weight)
        self.check(series, 6, capped, capped_band)
        _, gross, _ = box_shells(series, 6, self.weight)
        assert np.all(np.abs(capped - whole) <= 1e-13 * gross)
        assert capped_band == pytest.approx(whole_band, rel=1e-12)


class TestPoissonDual:
    def test_jacobi_identity_dimension_one(self):
        s = TwistedSeries(1, {(0,): 1.0})
        for t in (0.01, 0.2, 1.0, 5.0):
            lhs = poisson_dual(s, t)
            want = -1.0 + math.sqrt(math.pi / t) * sum(
                math.exp(-math.pi ** 2 * m * m / t) for m in range(-40, 41))
            assert abs(lhs - want) < 1e-14 * max(1.0, abs(want))

    def test_odd_polynomial_untwisted_vanishes(self):
        s = TwistedSeries(1, {(1,): 1.0})
        for t in (0.05, 1.0, 4.0):
            assert abs(poisson_dual(s, t)) < 1e-14
            assert abs(theta_sum(s, t)) < 1e-14

    def test_odd_polynomial_half_integer_twist_vanishes(self):
        # parity: odd numerator with twist in {0, 1/2}^n forces a zero sum
        for n, expo, twist in [(1, (1,), (0.5,)), (2, (1, 0), (0.5, 0.0)),
                               (2, (1, 2), (0.5, 0.5))]:
            s = TwistedSeries(n, {expo: 1.0}, twist)
            for t in (0.3, 1.0):
                noise = 1e-13 * gross_scale(s, t)
                assert abs(theta_sum(s, t)) <= noise + 1e-14
                assert abs(poisson_dual(s, t)) <= noise + 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_dual_points_match_brute_force(self, n):
        # oracle: every m of a box around all twists, kept when |a - m| <= rho, in
        # lexicographic (itertools.product) order
        rng = np.random.default_rng(40 + n)
        twists = [(0.0,) * n, (0.5,) * n, tuple(rng.uniform(-1.5, 1.5, size=n)),
                  tuple(rng.uniform(-0.2, 0.2, size=n))]
        for twist in twists:
            for rho in (1e-3, 0.3, 1.0, 2.7):
                box = range(-5, 6)
                want = [m for m in itertools.product(box, repeat=n)
                        if sum((a - mj) * (a - mj) for a, mj in zip(twist, m)) <= rho * rho]
                got = _dual_points(TwistedSeries(n, {(0,) * n: 1.0}, twist), rho)
                assert got.shape == (len(want), n)
                assert [tuple(m) for m in got.tolist()] == want

    def test_two_sided_identity_with_twist(self):
        s = TwistedSeries(2, {(1, 1): 1.0}, (0.23, 0.41))
        for t in (0.08, 0.5, 1.5):
            d = theta_sum(s, t)
            p = poisson_dual(s, t)
            assert abs(d - p) <= 1e-12 * max(abs(d), abs(p)) + 1e-14 * gross_scale(s, t)


THETA_IDENTITY_CASES = []
for n in (1, 2, 4):
    base = [(0,) * n]
    degs = []
    e = [0] * n
    e[0] = 2
    degs.append(tuple(e))
    if n >= 2:
        e = [0] * n
        e[0], e[1] = 1, 1
        degs.append(tuple(e))
        e = [0] * n
        e[0], e[1] = 2, 2
        degs.append(tuple(e))
    for expo in base + degs:
        THETA_IDENTITY_CASES.append((n, expo))


@pytest.mark.parametrize("n,expo", THETA_IDENTITY_CASES)
def test_theta_identity_grid(n, expo):
    # representative slice of the identity sweep; the full >= 100 pair grid
    # runs in the acceptance suite
    tvals = (0.05, 0.9) if n == 4 else (1e-3, 0.4, 2.0)
    series = TwistedSeries(n, {expo: 1.0})
    for t in tvals:
        d = theta_sum(series, t)
        p = poisson_dual(series, t)
        noise = 1e-14 * gross_scale(series, t)
        scale = max(abs(d), abs(p))
        if scale <= noise:
            assert abs(d - p) <= 2 * noise  # parity zero, agreement at the noise floor
        else:
            assert abs(d - p) <= 1e-12 * scale + noise


class TestEvaluate:
    def test_riemann_oracle(self):
        z1 = TwistedSeries(1, {(0,): 1.0})
        for s in (4.0, 2.0, 0.5, -1.5, complex(3, 2)):
            got = evaluate(z1, s).value
            with mpmath.workdps(30):
                want = 2.0 * complex(mpmath.zeta(s))
            assert abs(got - want) < 1e-12 * max(1.0, abs(want))

    def test_two_squares_oracle(self):
        # sum over nonzero Gaussian integers of |k|^{-s} factors through
        # the zeta and beta functions
        z2 = TwistedSeries(2, {(0, 0): 1.0})

        @mpmath.workdps(30)
        def reference(s):
            beta = mpmath.nsum(lambda k: (-1) ** k / mpmath.mpf(2 * k + 1) ** (s / 2),
                               [0, mpmath.inf])
            return 4.0 * complex(mpmath.zeta(s / 2)) * complex(beta)

        for s in (6.0, 3.0, 1.0, complex(2.5, 1)):
            got = evaluate(z2, s).value
            want = reference(s)
            assert abs(got - want) < 1e-11 * max(1.0, abs(want))

    def test_four_squares_oracle(self):
        # lattice sum in four dimensions via the divisor-sum representation
        z4 = TwistedSeries(4, {(0, 0, 0, 0): 1.0})

        @mpmath.workdps(30)
        def r4_series(s):
            w = s / 2.0
            return 8.0 * (1.0 - 4.0 ** (1.0 - w)) * complex(mpmath.zeta(w)) \
                * complex(mpmath.zeta(w - 1.0))

        for s in (7.0, 5.5, 9.0):
            got = evaluate(z4, s).value
            want = r4_series(s)
            assert abs(got - want) < 1e-11 * max(1.0, abs(want))

    def test_value_at_origin(self):
        for n in (1, 2, 3, 4):
            zn = TwistedSeries(n, {(0,) * n: 1.0})
            assert abs(evaluate(zn, 0.0).value - (-1.0)) < 1e-12

    def test_matches_direct_summation_at_large_re(self):
        series = TwistedSeries(2, {(1, 1): 1.0}, (0.3, 0.15))
        s = 8.0
        got = evaluate(series, s).value
        want = brute_force_dirichlet(series, s, 60)
        assert abs(got - want) < 1e-10 * max(1.0, abs(want))

    def test_pole_rejected_for_integral_twist(self):
        z2 = TwistedSeries(2, {(0, 0): 1.0})
        with pytest.raises(PoleEvaluationError):
            evaluate(z2, 2.0)

    def test_no_pole_for_generic_twist(self):
        s = TwistedSeries(2, {(0, 0): 1.0}, (0.3, 0.7))
        val = evaluate(s, 2.0).value  # would be the pole without the twist
        assert np.isfinite(val.real) and np.isfinite(val.imag)

    def test_twist_periodicity(self):
        base = TwistedSeries(2, {(2, 0): 1.0}, (0.3, 0.6))
        shifted = TwistedSeries(2, {(2, 0): 1.0}, (1.3, -0.4))
        for s in (5.0, 1.5):
            v1 = evaluate(base, s).value
            v2 = evaluate(shifted, s).value
            assert abs(v1 - v2) < 1e-11 * max(1.0, abs(v1))

    def test_error_estimate_honest(self):
        series = TwistedSeries(2, {(0, 0): 1.0})
        res = evaluate(series, 8.0)
        want = brute_force_dirichlet(series, 8.0, 50)
        assert abs(res.value - want) < 1e-9  # brute tail dominates at radius 50
        assert math.isfinite(res.est_error) and res.est_error > 0


@mpmath.workdps(30)
def hurwitz_reference(a, s):
    """n = 1, P = 1 series at a non-integral twist a, by the functional equation.

    f_a(s) = pi^{s-1/2} Gamma((1-s)/2) / Gamma(s/2) sum_m |m - a|^{s-1}, and the
    sum over Z is zeta(1-s, a) + zeta(1-s, 1-a) (Hurwitz) for 0 < a < 1.
    """
    s, a = mpmath.mpc(s), mpmath.mpf(a)
    return complex(mpmath.pi ** (s - 0.5) * mpmath.gamma((1 - s) / 2) / mpmath.gamma(s / 2)
                   * (mpmath.zeta(1 - s, a) + mpmath.zeta(1 - s, 1 - a)))


_FE_TWISTS = [0.3, 0.5, 0.17, 0.71, 0.999] + [10.0 ** -k for k in range(2, 9)]
_FE_S = [0.5, -1.5, -3.2, 2.5, 0.25 + 1j, -0.7 + 2j, 3.7]


class TestFunctionalEquation:
    @pytest.mark.parametrize("a", [9e-10, 1e-12])
    @pytest.mark.parametrize("s", [0.5, -1.5, 3.2, 0.999])
    def test_near_integral_twist_not_snapped(self, a, s):
        # within 1e-9 of Z the twist used to be taken as integral: a = 9e-10 at
        # s = 0.5 gave -2.92 against 33,330.41
        res = evaluate(TwistedSeries(1, {(0,): 1.0}, (a,)), s)
        want = hurwitz_reference(a, s)
        assert abs(res.value - want) <= min(res.est_error, 1e-13 * abs(want))

    @pytest.mark.parametrize("a", _FE_TWISTS)
    def test_error_estimate_bounds_gap(self, a):
        for s in _FE_S:
            res = evaluate(TwistedSeries(1, {(0,): 1.0}, (a,)), s)
            gap = abs(res.value - hurwitz_reference(a, s))
            assert gap <= res.est_error <= 1e-12 * abs(res.value), (s, gap, res.est_error)


class TestNearIntegralTwist:
    # a twist within 1e-13 of Z^n cannot be told from rounding noise on a lattice
    # point; it used to be snapped onto it: a = 1e-13 at s = 0.5 gave -2.92 with an
    # error estimate of 6.4e-14, where the Hurwitz form gives 3.16e6
    @pytest.mark.parametrize("twist", [(1e-13,), (1.0 - 5e-14,), (2.0, -1e-13)])
    def test_rejected_not_snapped(self, twist):
        series = TwistedSeries(len(twist), {(0,) * len(twist): 1.0}, twist)
        with pytest.raises(PoleEvaluationError, match="within"):
            evaluate(series, 0.5)
        with pytest.raises(PoleEvaluationError, match="within"):
            residue(series, series.pole_location)

    def test_lattice_twist_takes_pole_path(self):
        on = evaluate(TwistedSeries(1, {(0,): 1.0}, (3.0,)), 0.5)
        plain = evaluate(TwistedSeries(1, {(0,): 1.0}), 0.5)
        assert on.flags == ("pole-term",) and on.value == pytest.approx(plain.value, rel=1e-14)
        assert residue(TwistedSeries(2, {(0, 0): 1.0}, (-1.0, 2.0)), 2.0) == \
            residue(TwistedSeries(2, {(0, 0): 1.0}), 2.0)


def continuation_radii(series, s):
    """R of the direct shells |k|^2 <= R^2 and rho of the dual ball, as `evaluate` sizes them."""
    n, p = series.n, series.degree
    c_exp = max((p + n) / 2.0, 1.0)
    x_max = zeta._LOG_EPS + abs(s.real)
    for _ in range(40):
        x_max = zeta._LOG_EPS + max(c_exp + abs(s.real) / 2.0, 1.0) * math.log(x_max + 2.0)
    beta_max = zeta._LOG_EPS + (p + 2.0) * math.log(zeta._LOG_EPS + 4.0)
    return max(2, int(math.ceil(math.sqrt(x_max)))), math.sqrt(beta_max) / math.pi


def box_evaluate(series, s):
    """(value, est_error) of the continuation summed over every shell of the box.

    The earlier algorithm of `evaluate`, kept as a second route: the direct
    side takes all shells of |k|_inf <= R, corners beyond |k|^2 = R^2 included,
    and the dual side computes one incomplete gamma per point and Hermite row.
    """
    s = complex(s)
    n, p = series.n, series.degree
    radius, rho = continuation_radii(series, s)
    shells, direct_band = _lattice_shell_sums(series, radius, lambda nsq: np.ones(len(nsq)))
    half_s = 0.5 * s
    direct = [shells[x] * upper_gamma(half_s, float(x)) * cmath.exp(-half_s * math.log(x))
              for x in np.flatnonzero(shells).tolist()]
    b = np.array(series.twist)[None, :] - _dual_points(series, rho)
    bsq = np.sum(b * b, axis=1)
    keep = bsq > 0.0
    coeffs = zeta._hermite_power_coeffs(series, b[keep]).T.tolist()
    pref = math.pi ** (n / 2.0) * (0.5j) ** p
    beta_max = (math.pi * rho) ** 2
    dual, dual_band = [], 0.0
    for x, row in zip(bsq[keep].tolist(), coeffs):
        beta = math.pi ** 2 * x
        local = 0j
        for r, cr in enumerate(row):
            if cr != 0:
                alpha = (s - n - p - r) / 2.0
                local += cr * cmath.exp(alpha * math.log(beta)) * upper_gamma(-alpha, beta)
        dual.append(pref * local)
        if beta > 0.8 * beta_max:
            dual_band += abs(pref * local)
    total = zeta._fsum_complex(direct or [0j]) + zeta._fsum_complex(dual or [0j])
    summed = sum(map(abs, direct)) + sum(map(abs, dual))
    kappa = zeta._pole_coefficient(series) if zeta._on_lattice(series) else 0.0
    if kappa != 0.0:
        pole_term = kappa * 2.0 / (s - series.pole_location)
        total += pole_term
        summed += abs(pole_term)
    rg = complex(special.rgamma(half_s))
    const = series.constant_coefficient() * complex(special.rgamma(half_s + 1.0))
    est = (direct_band * abs(upper_gamma(half_s, float(radius - 1) ** 2))
           * float(radius - 1) ** (-s.real))
    est = abs(rg) * (est + dual_band) + zeta._ROUND_REL * (abs(rg) * summed + abs(const))
    return total * rg - const, est


_CONT_S = [0.5, -1.5, 2.5, -0.7 + 2j, 1.25 + 3j, 3.7]


class TestCompleteShells:
    """`evaluate` sums the ball |k|^2 <= R^2 and computes each incomplete gamma once."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_box_summation(self, n):
        rng = np.random.default_rng(17)
        polys = [{(0,) * n: 1.0}, {(2,) + (0,) * (n - 1): 1.0, (0,) * (n - 1) + (2,): 0.7}]
        twists = [None, (0.5,) * n, tuple(rng.uniform(-1.0, 1.0, n))]
        for P in polys:
            for twist in twists:
                series = TwistedSeries(n, P, twist)
                for s in _CONT_S:
                    got = evaluate(series, s)
                    value, est = box_evaluate(series, s)
                    if n == 1:  # the box is the ball
                        assert (got.value, got.est_error) == (value, est)
                    assert abs(got.value - value) <= 2e-15 * abs(value), (P, twist, s)
                    assert abs(got.est_error - est) <= 2e-15 * est, (P, twist, s)

    @pytest.fixture
    def gamma_calls(self, monkeypatch):
        calls = []

        def counting(a, x):
            calls.append((complex(a), float(x)))
            return upper_gamma(a, x)

        monkeypatch.setattr(zeta, "upper_gamma", counting)
        return calls

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_no_incomplete_gamma_repeats(self, gamma_calls, n):
        rng = np.random.default_rng(5)
        for twist in (None, (0.5,) * n, tuple(rng.uniform(-1.0, 1.0, n))):
            series = TwistedSeries(n, {(2,) + (0,) * (n - 1): 1.0}, twist)
            for s in _CONT_S:
                gamma_calls.clear()
                evaluate(series, s)
                assert len(set(gamma_calls)) == len(gamma_calls), (twist, s)

    def test_call_count_untwisted_four_dimensions(self, gamma_calls):
        series = TwistedSeries(4, {(0, 0, 0, 0): 1.0})
        for s in _CONT_S:
            gamma_calls.clear()
            evaluate(series, s)
            radius, rho = continuation_radii(series, complex(s))
            m = _dual_points(series, rho)
            radii = set(np.sum(m * m, axis=1).tolist()) - {0}
            assert len(gamma_calls) <= radius ** 2 + len(radii), s


@mpmath.workdps(30)
def xi_factor(s):
    """pi^{-s/2} Gamma(s/2), the factor completing the Epstein zeta of Z^n."""
    s = mpmath.mpc(s)
    return complex(mpmath.pi ** (-s / 2) * mpmath.gamma(s / 2))


class TestEpsteinReflection:
    # xi(s) = pi^{-s/2} Gamma(s/2) Z(s) of Z^n is symmetric under s -> n - s, and
    # the two sides run the Mellin split at different points: a second route for
    # est_error beyond n = 1
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_error_estimate_bounds_gap(self, n):
        series = TwistedSeries(n, {(0,) * n: 1.0})
        for sigma in (-1.5, -0.7, 0.3, 0.5, 1.25):
            for tau in np.arange(1, 11) / 2.0:
                s = complex(sigma, tau)
                a, b = evaluate(series, s), evaluate(series, n - s)
                fa, fb = xi_factor(s), xi_factor(n - s)
                gap = abs(fa * a.value - fb * b.value)
                assert gap <= abs(fa) * a.est_error + abs(fb) * b.est_error, (s, gap)


class TestResidue:
    def test_circle_and_three_sphere(self):
        z2 = TwistedSeries(2, {(0, 0): 1.0})
        assert residue(z2, 2.0).real == pytest.approx(2.0 * math.pi, abs=1e-12)
        z4 = TwistedSeries(4, {(0, 0, 0, 0): 1.0})
        assert residue(z4, 4.0).real == pytest.approx(2.0 * math.pi ** 2, abs=1e-12)

    def test_wrong_point_rejected(self):
        z2 = TwistedSeries(2, {(0, 0): 1.0})
        with pytest.raises(ValueError):
            residue(z2, 3.0)

    def test_generic_twist_entire(self):
        s = TwistedSeries(2, {(0, 0): 1.0}, (0.37, 0.11))
        assert residue(s, 2.0) == 0j

    def test_equals_sphere_moment_all_monomials(self):
        # Hermite-value route vs gamma-function route, degrees <= 4
        for n in (2, 3, 4):
            for deg in range(0, 5):
                for expo in itertools.combinations_with_replacement(range(n), deg):
                    e = [0] * n
                    for j in expo:
                        e[j] += 1
                    series = TwistedSeries(n, {tuple(e): 1.0})
                    got = residue(series, n + deg)
                    want = sphere_integral({tuple(e): 1.0}, n)
                    assert abs(got - want) < 1e-12 * max(1.0, abs(want))


class TestResidueShifted:
    def test_dimension_two_table(self):
        for i in range(2):
            for j in range(2):
                e = [0, 0]
                e[i] += 1
                e[j] += 1
                r = residue_shifted(2, {tuple(e): 1.0}, 4)
                want = math.pi if i == j else 0.0
                assert r.value.real == pytest.approx(want, abs=1e-12)
                if i == j:
                    assert r.pole_at_zero

    def test_displaced_pole_reported(self):
        r = residue_shifted(4, {(2, 2, 0, 0): 1.0}, 6)
        assert r.value.real == pytest.approx(math.pi ** 2 / 12.0, abs=1e-12)
        assert r.pole == pytest.approx(2.0)
        assert not r.pole_at_zero and r.has_pole

    def test_quartic_diagonal(self):
        r = residue_shifted(4, {(4, 0, 0, 0): 1.0}, 8)
        assert r.value.real == pytest.approx(3.0 * math.pi ** 2 / 12.0, abs=1e-12)
        assert r.pole_at_zero

    def test_odd_polynomial_no_pole(self):
        r = residue_shifted(2, {(1, 0): 1.0}, 3)
        assert r.value == 0j and not r.has_pole and "no-pole" in r.flags


class TestSphereIntegral:
    def test_total_measures(self):
        assert sphere_integral({(0, 0): 1.0}, 2).real == pytest.approx(2 * math.pi, rel=1e-14)
        assert sphere_integral({(0, 0, 0): 1.0}, 3).real == pytest.approx(4 * math.pi, rel=1e-14)
        assert sphere_integral({(0, 0, 0, 0): 1.0}, 4).real == pytest.approx(2 * math.pi ** 2,
                                                                             rel=1e-14)

    def test_odd_monomials_vanish(self):
        assert sphere_integral({(1, 1): 1.0}, 2) == 0j
        assert sphere_integral({(3, 0, 1, 0): 2.0}, 4) == 0j

    def test_quadrature_oracle(self):
        # independent check by direct angular quadrature on the circle
        from scipy.integrate import quad
        got = sphere_integral({(2, 2): 1.0}, 2).real
        want, _ = quad(lambda t: math.cos(t) ** 2 * math.sin(t) ** 2, 0.0, 2 * math.pi)
        assert got == pytest.approx(want, rel=1e-12)

    def test_known_four_dimensional_moment(self):
        got = sphere_integral({(2, 2, 0, 0): 1.0}, 4).real
        assert got == pytest.approx(math.pi ** 2 / 12.0, rel=1e-13)


class TestZetaD:
    def test_vanishes_at_origin(self):
        for n in (2, 4):
            assert abs(zeta_D(0.0, n)) < 1e-12

    def test_residue_is_sphere_volume_with_multiplicity(self):
        assert zeta_D_residue(2) == pytest.approx(2 * vol_sphere(2), rel=1e-13)
        assert zeta_D_residue(4) == pytest.approx(4 * vol_sphere(4), rel=1e-13)

    def test_pole_guard(self):
        with pytest.raises(PoleEvaluationError):
            zeta_D(2.0, 2)

    def test_large_s_matches_eigenvalue_sum(self):
        # independent oracle: explicit eigenvalue enumeration over a box
        n, s = 2, 9.0
        series = TwistedSeries(n, {(0, 0): 1.0})
        want = 2.0 * brute_force_dirichlet(series, s, 40) + 2.0
        assert abs(zeta_D(s, n) - want) < 1e-10

