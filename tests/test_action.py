import functools
import itertools
import math
import time

import mpmath
import numpy as np
import pytest
from scipy.sparse import csr_matrix, identity, kron
from scipy.special import gamma as gamma_fn

from ncspectral.action import (
    CutoffProfile,
    MomentError,
    constant_term,
    correction_scaling,
    fit_expansion,
    heat_trace,
    moments,
    nc_integral_power,
    spectral_action,
    tau_F_squared,
    twisted_heat_trace,
)
from ncspectral.action import (_block_eigenvalues, _chiral_gram, _collinear, _lanczos_quadrature,
                               _outside_tail)
from ncspectral.clifford import build_gamma
from ncspectral.diophantine import golden_ratio, jarnik_construct, power_profile
from ncspectral.operators import (
    ModeWindow,
    OneForm,
    WindowError,
    assemble_dense,
    assemble_sparse,
    covariant_dirac,
)
from ncspectral.weyl import DeformationMatrix, FourierElement
from ncspectral.zeta import vol_sphere

from conftest import random_element

GOLD = float(golden_ratio(50)) - 1.0


def theta_block(n):
    return DeformationMatrix.standard_block(n, 2.0 * math.pi * GOLD)


class TestMoments:
    def test_gaussian_closed_form(self):
        # oracle: moment k equals Gamma(k/2)/2 for the squared-exponential
        p = CutoffProfile.gaussian()
        for k in range(1, 9):
            assert moments(p, k) == pytest.approx(0.5 * gamma_fn(k / 2.0), rel=1e-11)

    def test_super_gaussian_closed_form(self):
        p = CutoffProfile.super_gaussian()
        for k in (1, 2, 4):
            assert moments(p, k) == pytest.approx(0.25 * gamma_fn(k / 4.0), rel=1e-10)

    def test_rational_beta_form(self):
        p = CutoffProfile.rational_decay(3.0)
        # moment 2 of (1+x^2)^-3 is B(1, 2)/2 = 1/4
        assert moments(p, 2) == pytest.approx(0.25, rel=1e-11)

    def test_divergent_moment_rejected(self):
        p = CutoffProfile.rational_decay(1.0)
        with pytest.raises(MomentError):
            moments(p, 2)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            moments(CutoffProfile.gaussian(), 0)


class TestHeatTrace:
    def test_leading_term_dimension_two(self):
        # Poisson leading term: 2 (pi/t) at small t
        t = 1e-2
        hs = heat_trace(2, t)
        assert hs.value == pytest.approx(2.0 * math.pi / t, rel=1e-8)

    def test_kernel_limit(self):
        assert heat_trace(2, 1e4).value == pytest.approx(2.0, abs=1e-12)
        assert heat_trace(4, 1e4).value == pytest.approx(4.0, abs=1e-12)

    def test_brute_force_lattice_oracle(self):
        # same t on both sides of the method switch, against a raw box sum
        for t in (0.34, 0.36):
            want = 2.0 * sum(math.exp(-t * (k1 * k1 + k2 * k2))
                             for k1 in range(-14, 15) for k2 in range(-14, 15))
            assert heat_trace(2, t).value == pytest.approx(want, rel=1e-12)

    def test_dense_window_matches_exact_for_zero_potential(self, monkeypatch):
        th = theta_block(2)
        exact = heat_trace(2, 0.5).value

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.eigvalsh called on one-row blocks")

        # a zero one-form leaves G diagonal: every row is a one-row block, with no solve
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        dense = heat_trace(2, 0.5, theta=th, A=OneForm.zero(2), method="dense-window")
        assert dense.value == pytest.approx(exact, rel=1e-10)
        assert dense.tail_bound < 1e-10 * abs(exact)

    def test_small_perturbation_continuity(self):
        # two noncollinear components make the perturbation effect visible;
        # it must shrink to zero with the coupling
        th = theta_block(2)
        base = heat_trace(2, 0.5).value
        deltas = []
        for eps in (0.4, 0.2, 0.05):
            A = OneForm.from_terms(2, [(1, (1, 0), eps), (2, (0, 1), eps * 0.7)])
            val = heat_trace(2, 0.5, theta=th, A=A).value
            deltas.append(abs(val - base))
        assert deltas[0] > deltas[1] > deltas[2]
        assert deltas[2] < 1e-3

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            heat_trace(2, 0.0)

    def test_rejects_unknown_method(self):
        th = theta_block(2)
        A = OneForm.from_terms(2, [(1, (1, 0), 0.3), (2, (0, 1), 0.2j)])
        for method in ("bogus", "exact", "chain", "exact-formula"):
            with pytest.raises(ValueError, match="unknown heat-trace method"):
                heat_trace(2, 0.8, theta=th, A=A, method=method)

    def test_chain_rejects_noncollinear_support(self):
        th = theta_block(2)
        A = OneForm.from_terms(2, [(1, (1, 0), 0.3), (2, (0, 1), 0.2j)])
        assert heat_trace(2, 0.8, theta=th, A=A, window_K=3).method == "dense-window"

    def test_chain_rejects_zero_one_form(self):
        hs = heat_trace(2, 0.8, theta=theta_block(2), A=OneForm.zero(2), window_K=3)
        assert hs.method == "exact-formula"


class TestTwistedHeatTrace:
    def test_identity_elements_reduce_to_plain_trace(self):
        th = theta_block(2)
        one = FourierElement.unit(2, (0, 0))
        got = twisted_heat_trace(one, one, th, 0.7).value
        want = heat_trace(2, 0.7).value
        assert got == want

    def test_dense_window_oracle(self):
        # brute-force the trace of L(a) R(b) e^{-t D^2} over a mode box
        from ncspectral.operators import left_rep, right_rep

        th = theta_block(2)
        rng = np.random.default_rng(12)
        a = random_element(rng, 2, terms=3, radius=1)
        b = random_element(rng, 2, terms=3, radius=1)
        t = 1.1
        got = twisted_heat_trace(a, b, th, t).value

        op = left_rep(a, th, 2) @ right_rep(b, th, 2)
        want = 0j
        for k1 in range(-7, 8):
            for k2 in range(-7, 8):
                for i in range(2):
                    for k2_, i2, amp in op.apply_basis((k1, k2), i):
                        if k2_ == (k1, k2) and i2 == i:
                            want += amp * math.exp(-t * (k1 * k1 + k2 * k2))
        assert abs(got - want) < 1e-9 * max(1.0, abs(want))

    def test_far_twist_exponentially_small(self):
        th = theta_block(2)
        q = (1, 0)
        a = FourierElement.unit(2, q)
        b = FourierElement.unit(2, tuple(-x for x in q))
        small_t = twisted_heat_trace(a, b, th, 1e-3).value
        # plain trace at the same t is huge; the twisted one must be negligible
        assert abs(small_t) < 1e-12 * abs(heat_trace(2, 1e-3).value)

    def test_rational_resonance_power_law(self):
        th = DeformationMatrix.standard_block(2, 2.0 * math.pi * 0.5)
        q = (2, 0)  # twist lands on the integer lattice
        a = FourierElement.unit(2, q)
        b = FourierElement.unit(2, tuple(-x for x in q))
        v1 = twisted_heat_trace(a, b, th, 1e-2).value
        v2 = twisted_heat_trace(a, b, th, 1e-3).value
        assert abs(v2) / abs(v1) == pytest.approx(10.0, rel=1e-3)  # ~ 1/t


class TestCorrectionScaling:
    def test_three_regimes(self):
        support = [(1, 0), (2, 0), (11, 0)]
        a = FourierElement(2, {k: abs(k[0]) ** -1.5 for k in support})
        b = FourierElement(2, {tuple(-x for x in k): abs(k[0]) ** -1.5 for k in support})
        jar = jarnik_construct(power_profile(4), depth=5)
        fam = [
            ("rational", DeformationMatrix.standard_block(2, 2 * math.pi * 0.5), a, b),
            ("golden", theta_block(2), a, b),
            ("jarnik", DeformationMatrix.standard_block(2, 2 * math.pi * jar.value), a, b),
        ]
        reports = {r.label: r for r in correction_scaling(fam, np.logspace(-4, -1, 13),
                                                          rel_floor=1e-25)}
        assert reports["rational"].slope == pytest.approx(-1.0, abs=0.1)
        assert reports["golden"].flag == "exponentially-small"
        assert reports["jarnik"].flag == "ok"
        assert -0.9 < reports["jarnik"].slope < -0.05

    def test_grid_size_precondition(self):
        with pytest.raises(ValueError):
            correction_scaling([], [1e-3, 1e-2])


class TestSpectralAction:
    def test_gaussian_shares_heat_code_path(self):
        res = spectral_action(CutoffProfile.gaussian(), 10.0, 2)
        ht = heat_trace(2, 1e-2)
        assert res.value == ht.value  # identical evaluation, not just close

    def test_dimension_two_leading(self):
        res = spectral_action(CutoffProfile.gaussian(), 10.0, 2)
        assert res.value == pytest.approx(2.0 * math.pi * 100.0, rel=1e-8)

    def test_dimension_four_leading(self):
        res = spectral_action(CutoffProfile.gaussian(), 8.0, 4)
        assert res.value == pytest.approx(4.0 * math.pi ** 2 * 8.0 ** 4, rel=1e-8)

    def test_small_scale_counts_kernel(self):
        res = spectral_action(CutoffProfile.gaussian(), 0.05, 2)
        assert res.value == pytest.approx(2.0, abs=1e-10)

    def test_super_gaussian_lattice_oracle(self):
        lam = 4.0
        res = spectral_action(CutoffProfile.super_gaussian(), lam, 2)
        want = sum(2.0 * math.exp(-((k1 * k1 + k2 * k2) ** 2) / lam ** 4)
                   for k1 in range(-30, 31) for k2 in range(-30, 31))
        assert res.value == pytest.approx(want, rel=1e-10)
        # n = 4 weights many points per shell |k|^2
        lam = 2.0
        res = spectral_action(CutoffProfile.super_gaussian(), lam, 4)
        axis = np.arange(-12, 13)
        box = np.stack(np.meshgrid(*[axis] * 4, indexing="ij"), axis=-1).reshape(-1, 4)
        nsq = np.sum(box * box, axis=1).astype(float)
        want = 4.0 * float(np.sum(np.exp(-nsq ** 2 / lam ** 4)))
        assert res.value == pytest.approx(want, rel=1e-10)

    def test_rational_tail_bounds_remainder(self):
        # reference: the ball |k| <= R summed row by row, plus the power-law rest
        # 2 pi int_R^inf rho (rho / lam)^-6 d rho = pi lam^6 / (2 R^4)
        p = CutoffProfile.rational_decay(3.0)
        R = 1500
        for lam in (1.0, 2.0):
            res = spectral_action(p, lam, 2)
            rows = []
            for k1 in range(-R, R + 1):
                k2 = np.arange(-math.isqrt(R * R - k1 * k1), math.isqrt(R * R - k1 * k1) + 1)
                rows.append(np.sum((1.0 + (k1 * k1 + k2 * k2) / lam ** 2) ** -3.0))
            want = 2.0 * (math.fsum(rows) + math.pi * lam ** 6 / (2 * R ** 4))
            assert 0.0 < want - res.value <= res.tail_bound <= 10.0 * (want - res.value)

    def test_divergent_rational_raises_before_window(self):
        # Tr (1 + D^2 / lam^2)^-1 has no finite value in n = 2; without window_K the
        # policy radius is 10^7, a window of (2 10^7 + 1)^2 modes
        th = theta_block(2)
        A = OneForm.from_terms(2, [(1, (1, 0), 0.4)])
        for K in (6, None):
            start = time.perf_counter()
            with pytest.raises(MomentError, match="too slowly decaying"):
                spectral_action(CutoffProfile.rational_decay(1.0), 1.0, 2, theta=th, A=A,
                                window_K=K)
            assert time.perf_counter() - start < 1.0

    def test_power_law_tail_bounded_past_shell_budget(self):
        # r = 3 converges in n = 4, but its shells fall only like j^-3: none adds
        # less than 1e-18 of the sum within the shell budget, so the rest past the
        # last shell is bounded by an integral; reference: 2^2 sum_{j=6}^{2e6} 8 (2j+1)^3
        # (1 + j^2)^-3, whose own rest is about 4 * 32 / (2e6)^2 = 3.2e-11
        bound = _outside_tail(CutoffProfile.rational_decay(3.0), 1.0, OneForm.zero(4), 5)
        j = np.arange(6, 2_000_001, dtype=float)
        want = 4.0 * float(np.sum(8.0 * (2.0 * j + 1.0) ** 3 * (1.0 + j * j) ** -3.0))
        assert math.isfinite(bound)
        assert want <= bound <= want + 1e-9

    def test_growing_tail_raises(self):
        # r = 1.5 in n = 4: the shells level off at 2 * 4 * 8 and the sum diverges;
        # r = 1 makes them grow like j
        for r in (1.5, 1.0):
            with pytest.raises(MomentError, match="still grows"):
                _outside_tail(CutoffProfile.rational_decay(r), 1.0, OneForm.zero(4), 5)

    def test_rational_tail_past_shell_budget(self):
        # lam = 12 in n = 2: the window radius is 2585 and the tail needs the integral
        # bound; reference: the ball |k| <= R row by row plus the exact rest of the
        # integral, 2 pi int_R^inf rho (1 + rho^2 / lam^2)^-3 d rho = pi lam^2 / (2 (1 + R^2 / lam^2)^2)
        lam, R = 12.0, 3000
        res = spectral_action(CutoffProfile.rational_decay(3.0), lam, 2)
        rows = []
        for k1 in range(-R, R + 1):
            k2 = np.arange(-math.isqrt(R * R - k1 * k1), math.isqrt(R * R - k1 * k1) + 1)
            rows.append(np.sum((1.0 + (k1 * k1 + k2 * k2) / lam ** 2) ** -3.0))
        want = 2.0 * (math.fsum(rows) + math.pi * lam ** 2 / (2.0 * (1.0 + R * R / lam ** 2) ** 2))
        assert 0.0 < want - res.value <= res.tail_bound <= 10.0 * (want - res.value)

    def test_gauge_invariance_chain_path(self):
        from ncspectral.operators import gauge_transform

        th = theta_block(2)
        rng = np.random.default_rng(21)
        p = CutoffProfile.gaussian()
        A = OneForm.from_terms(2, [(1, (1, 0), 0.4 + 0.1j), (2, (2, 0), -0.3j)])
        u = FourierElement.unit(2, (1, -2))
        s1 = spectral_action(p, 10.0, 2, theta=th, A=A)
        s2 = spectral_action(p, 10.0, 2, theta=th, A=gauge_transform(u, A, th))
        assert s1.method == "chain-window"
        assert abs(s1.value - s2.value) < 1e-10 * abs(s1.value)

    def test_chain_matches_dense_window(self):
        th = theta_block(2)
        p = CutoffProfile.gaussian()
        for z in (0.4, 0.3j):
            A = OneForm.from_terms(2, [(1, (1, 0), z)])
            chain = spectral_action(p, 2.5, 2, theta=th, A=A, window_K=8)
            dense_val = _dense_reference(p, 2.5, th, A, 8)
            assert chain.method == "chain-window"
            assert chain.value == pytest.approx(dense_val, rel=1e-12)


def _window_eigs(n, K, th, A):
    # oracle: full-window eigvalsh of the dense compression
    window = ModeWindow(n, K, spinor_dim=2 ** (n // 2))
    return np.linalg.eigvalsh(assemble_dense(covariant_dirac(A, th), window,
                                             basis_limit=window.basis_size))


def _dense_reference(profile, lam, th, A, K):
    # reference: the full radius-K window, summed directly
    return float(np.sum([profile(abs(x) / lam) for x in _window_eigs(2, K, th, A)]))


class TestChainDecomposition:
    def test_direction_detection(self):
        A = OneForm.from_terms(2, [(1, (1, 0), 0.4), (2, (-2, 0), -0.3j)])
        assert _collinear(A)
        B = OneForm.from_terms(2, [(1, (1, 0), 0.4), (2, (0, 1), -0.3j)])
        assert not _collinear(B)
        assert not _collinear(OneForm.from_terms(2, [(1, (0, 0), 0.4)]))

    def test_eigenvalues_match_dense(self):
        # a purely imaginary coefficient gives purely imaginary hops, which a
        # pattern taken from real parts would drop
        th = theta_block(2)
        window = ModeWindow(2, 4, spinor_dim=2)
        for z in (0.4 - 0.2j, 0.3j):
            DA = covariant_dirac(OneForm.from_terms(2, [(1, (0, 1), z)]), th)
            chain = np.sort(_block_eigenvalues(assemble_sparse(DA, window), banded=True))
            dense = np.linalg.eigvalsh(assemble_dense(DA, window))
            assert np.allclose(chain, dense, atol=1e-11)


THETA_3 = DeformationMatrix(np.array([[0.0, 1.3, 0.4], [-1.3, 0.0, 0.7], [-0.4, -0.7, 0.0]]))

_CHIRAL_CASES = {
    "n2-collinear-real": (2, 6, 2.0, [(1, (1, 0), 0.4)]),
    "n2-collinear-imag": (2, 6, 2.0, [(1, (0, 1), 0.3j)]),
    "n2-collinear-complex": (2, 6, 2.0, [(2, (1, 1), 0.3 - 0.2j), (1, (2, 2), 0.1j)]),
    "n2-collinear-hop-2": (2, 6, 2.0, [(1, (1, 0), 0.3 + 0.1j), (2, (2, 0), 0.2j)]),
    "n2-noncollinear-real": (2, 6, 2.0, [(1, (1, 0), 0.3), (2, (0, 1), 0.25)]),
    "n2-noncollinear-imag": (2, 6, 2.0, [(1, (1, 0), 0.3j), (2, (0, 1), -0.2j)]),
    "n2-noncollinear-complex": (2, 6, 2.0, [(1, (1, 0), 0.3 + 0.1j), (2, (1, 1), 0.2 - 0.3j)]),
    "n2-index2-complex": (2, 6, 2.0, [(1, (1, 1), 0.3 - 0.1j), (2, (1, -1), 0.2j)]),
    "n2-index4-imag": (2, 6, 2.0, [(1, (2, 0), 0.3j), (2, (0, 2), -0.25j)]),
    "n4-collinear": (4, 2, 1.0, [(1, (0, 1, 0, 0), 0.37)]),
    "n4-noncollinear": (4, 2, 1.0, [(1, (1, 0, 0, 0), 0.3), (2, (0, 1, 0, 0), 0.25j)]),
    "n3-collinear": (3, 3, 1.5, [(2, (1, 0, 0), 0.3 - 0.1j)]),
    "n3-noncollinear": (3, 3, 1.5, [(1, (1, 0, 0), 0.3), (3, (0, 1, 0), 0.2j)]),
}


class TestChiralRoute:
    @pytest.mark.parametrize("case", list(_CHIRAL_CASES))
    def test_matches_full_window_eigvalsh(self, case):
        n, K, lam, terms = _CHIRAL_CASES[case]
        th = THETA_3 if n == 3 else theta_block(n)
        A = OneForm.from_terms(n, terms)
        collinear = _collinear(A)
        gauss, sgauss = CutoffProfile.gaussian(), CutoffProfile.super_gaussian()
        eigs = _window_eigs(n, K, th, A)

        def want(profile):
            return float(np.sum([profile(abs(x) / lam) for x in eigs]))

        for method in ("auto", "dense-window"):
            hs = heat_trace(n, lam ** -2, theta=th, A=A, method=method, window_K=K)
            assert hs.method == ("chain-window" if collinear and method == "auto"
                                 else "dense-window")
            assert hs.value == pytest.approx(want(gauss), rel=1e-12)
        sa = spectral_action(sgauss, lam, n, theta=th, A=A, window_K=K)
        assert sa.method == ("chain-window" if collinear else "dense-window")
        assert sa.value == pytest.approx(want(sgauss), rel=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_window_matrix_is_chirally_off_diagonal(self, n):
        # every term of D_A carries one gamma matrix, so the ++ and -- blocks vanish;
        # one component per axis, shifted by e_a + 2 e_{a+1}: a non-collinear support
        A = OneForm.from_terms(n, [(a + 1, tuple(1 if i == a else 2 if i == (a + 1) % n else 0
                                                 for i in range(n)), 0.3 - 0.2j * a)
                                   for a in range(n)])
        window = ModeWindow(n, 1, spinor_dim=2 ** (n // 2))
        M = assemble_sparse(covariant_dirac(A, theta_block(n)), window)
        w, U = np.linalg.eigh(build_gamma(n).chirality)
        assert np.allclose(w, np.repeat([-1.0, 1.0], len(w) // 2))
        modes = identity(len(window.grid), format="csr")
        for cols in (U[:, w < 0], U[:, w > 0]):
            P = kron(modes, csr_matrix(cols), format="csr")
            block = (P.conj().T @ M @ P).toarray()
            assert np.max(np.abs(block), initial=0.0) < 1e-14

    def test_dense_limit_counts_full_window(self):
        # basis 162 = 81 modes x 2 spinors; the limit 100 lies between N/2 and N
        th = theta_block(2)
        A = OneForm.from_terms(2, [(1, (1, 0), 0.3), (2, (0, 1), 0.2j)])
        hs = heat_trace(2, 0.8, theta=th, A=A, window_K=4, dense_limit=100, probes=4)
        sa = spectral_action(CutoffProfile.gaussian(), 1.2, 2, theta=th, A=A, window_K=4,
                             dense_limit=100)
        for res in (hs, sa):
            assert res.method == "hutchinson" and res.stderr > 0


class TestFitExpansion:
    def test_dimension_two_flat(self):
        fit = fit_expansion(CutoffProfile.gaussian(),
                            [6, 7.3, 9, 11, 13.5, 16.4, 20, 24], 2)
        assert fit.coeffs[2] == pytest.approx(4.0 * math.pi, rel=1e-10)
        assert abs(fit.coeffs[1]) < 1e-8
        assert abs(fit.coeffs[0]) < 1e-8

    def test_dimension_four_flat(self):
        fit = fit_expansion(CutoffProfile.gaussian(),
                            [6, 7.3, 9, 11, 13.5, 16.4, 20, 24], 4)
        assert fit.coeffs[4] == pytest.approx(8.0 * math.pi ** 2, rel=1e-10)
        for k in (3, 2, 1, 0):
            assert abs(fit.coeffs[k]) < 1e-6

    def test_grid_preconditions(self):
        p = CutoffProfile.gaussian()
        with pytest.raises(ValueError):
            fit_expansion(p, [6, 7, 8], 2)
        with pytest.raises(ValueError):
            fit_expansion(p, [6, 6.5, 7, 7.5, 8, 8.5], 2)


class TestNcIntegrals:
    def test_tadpole_exact_zero(self):
        th = theta_block(2)
        rng = np.random.default_rng(9)
        for _ in range(5):
            A = OneForm.from_terms(2, [
                (int(rng.integers(1, 3)), tuple(int(x) for x in rng.integers(-2, 3, size=2)),
                 complex(rng.normal(), rng.normal()))])
            r = nc_integral_power(A, th, 1)
            assert r.value == 0j  # identical cancellation, not a tolerance

    def test_zero_potential(self):
        th = theta_block(4)
        for q in (1, 2, 3, 4):
            assert nc_integral_power(OneForm.zero(4), th, q).value == 0j

    def test_power_range_validated(self):
        th = theta_block(2)
        A = OneForm.from_terms(2, [(1, (1, 0), 0.3)])
        with pytest.raises(ValueError):
            nc_integral_power(A, th, 3)

    def test_quadratic_scaling_in_coupling(self):
        th = theta_block(4)
        base = nc_integral_power(OneForm.from_terms(4, [(1, (0, 1, 0, 0), 0.2)]), th, 2).value
        double = nc_integral_power(OneForm.from_terms(4, [(1, (0, 1, 0, 0), 0.4)]), th, 2).value
        assert double == pytest.approx(4.0 * base, rel=1e-12)

    def test_commutative_limit_vanishes(self):
        th0 = DeformationMatrix.zero(4)
        A = OneForm.from_terms(4, [(1, (0, 1, 0, 0), 0.3)])
        for q in (1, 2, 3, 4):
            assert nc_integral_power(A, th0, q).value == 0j


def reference_poly_mul(p, q):
    """Product of two polynomial maps {exponent tuple: coefficient}."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def reference_is_integral(twist):
    """Whether a twist vector lies on Z^n, up to the float noise of Theta w / 4 pi."""
    return all(abs(x - round(x)) <= 1e-9 for x in twist)


@functools.lru_cache(maxsize=None)
@mpmath.workdps(30)
def reference_sphere_moment(e):
    """Integral of prod_j u_j^{e_j} over the unit sphere in R^len(e), by the Gamma formula."""
    if any(x % 2 for x in e):
        return mpmath.mpf(0)
    mom = 2 * mpmath.fprod(mpmath.gamma(mpmath.mpf(x + 1) / 2) for x in e)
    return mom / mpmath.gamma(mpmath.mpf(len(e) + sum(e)) / 2)


@mpmath.workdps(30)
def reference_nc_integral(A, theta, q):
    """Per-path oracle for `nc_integral_power`: polynomial maps, one path at a time.

    Each zero-sum shift path builds its spinor-trace numerator as a map
    {exponent vector: trace}, multiplies it into the complete homogeneous
    H_r of the expanded denominator, keeps the terms of residue degree and
    integrates them over the sphere; the sign choices with an integral twist
    add their coefficients.  Moments, phases and sums are taken in 30-digit
    mpmath.  The polynomial product, the integral-twist test and the sphere
    moments are its own, so it shares no code with `zeta` or `polynomials`.
    """
    n = A.n
    gs = build_gamma(n)
    gammas = np.array(gs.gammas)
    zero = (0,) * n
    steps = [(gs.gammas[ai] @ gammas, h, v) for ai, comp in enumerate(A.components)
             for h, v in comp.items() if any(h)]
    signs = list(itertools.product((-1, 1), repeat=q))
    lift = np.vstack([np.zeros((1, n), dtype=int), np.eye(n, dtype=int)])
    linear = list(map(tuple, lift.tolist()))
    terms = []
    for path in itertools.product(steps, repeat=q):
        hs = [h for _, h, _ in path]
        if any(map(sum, zip(*hs))):
            continue
        c = np.cumsum([zero, *hs[:-1]], axis=0)
        phase = theta.bilinear_batch(np.array(hs), c).tolist()
        twists = -(np.array(signs) @ np.array(hs) @ theta.theta.T) / (4.0 * math.pi)
        kernel = [math.prod(sig) * mpmath.expj(0.5 * mpmath.fsum(s * b for s, b in zip(sig, phase)))
                  for sig, twist in zip(signs, twists.tolist()) if reference_is_integral(twist)]
        mats = np.eye(gs.spinor_dim)[None]
        exps = np.zeros((1, n), dtype=int)
        for (gg, _, _), cj in zip(path, c):
            factor = np.concatenate([np.tensordot(cj, gg, 1)[None], gg])
            mats = (factor[:, None] @ mats[None]).reshape(-1, *mats.shape[1:])
            exps = (lift[:, None] + exps[None]).reshape(-1, n)
        numer = {}
        for e, tr in zip(map(tuple, exps.tolist()), np.trace(mats, axis1=1, axis2=2)):
            if tr:
                numer[e] = numer.get(e, 0j) + tr
        H = [{zero: 1.0}] + [{} for _ in range(n - q)]
        for cj in c.tolist():
            s = {e: v for e, v in zip(linear, [float(np.dot(cj, cj))] + [2.0 * x for x in cj])
                 if v}
            for r in range(1, len(H)):
                for e, v in reference_poly_mul(s, H[r - 1]).items():
                    H[r][e] = H[r].get(e, 0.0) + v
        pick = [(-1) ** r * v * reference_sphere_moment(e) for r, h in enumerate(H)
                for e, v in reference_poly_mul(numer, h).items() if sum(e) == 2 * q + 2 * r - n]
        terms.append(mpmath.fprod([1j ** q, *(v for _, _, v in path),
                                   mpmath.fsum(kernel), mpmath.fsum(pick)]))
    return complex(mpmath.fsum(terms))


def oracle_one_forms(n):
    """Seeded one-forms with 1-3 terms, plus one with a diagonal shift."""
    rng = np.random.default_rng(40 + n)
    forms = []
    for count in (1, 2, 3):
        terms = []
        while len(terms) < count:
            h = tuple(int(x) for x in rng.integers(-1, 2, size=n))
            if any(h):
                terms.append((int(rng.integers(1, n + 1)), h,
                              complex(rng.normal(), rng.normal()) * 0.4))
        forms.append(terms)
    diagonal = (1, 1) if n == 2 else (0,) * (n - 2) + (1, 1)
    forms.append([(1, diagonal, 0.3 + 0.1j), (n, (1,) + (0,) * (n - 1), 0.25)])
    return forms


class TestNcIntegralOracle:
    THETAS = {"golden": lambda n: theta_block(n),
              "half": lambda n: DeformationMatrix.standard_block(n, 2.0 * math.pi * 0.5),
              "zero": DeformationMatrix.zero}

    @pytest.mark.parametrize("name", sorted(THETAS))
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_per_path_reference(self, n, name):
        # worst gaps measured: 7.1e-16 relative on the 10 values above 1e-10, 1.7e-14
        # absolute on the 98 below (n = 2 and 3 give exact zeros throughout)
        th = self.THETAS[name](n)
        for terms in oracle_one_forms(n):
            A = OneForm.from_terms(n, terms)
            for q in range(1, n + 1):
                got = nc_integral_power(A, th, q).value
                want = reference_nc_integral(A, th, q)
                if q == 1 or name == "zero":
                    assert got == 0j and want == 0j  # exact, not a tolerance
                elif abs(want) > 1e-10:
                    assert abs(got - want) <= 1e-12 * abs(want)
                else:  # resonant cancellation noise
                    assert abs(got - want) <= 1e-13


class TestConstantTerm:
    def test_dimension_two_vanishes(self):
        th = theta_block(2)
        rng = np.random.default_rng(13)
        for _ in range(4):
            A = OneForm.from_terms(2, [
                (int(rng.integers(1, 3)), tuple(int(x) for x in rng.integers(-1, 2, size=2)),
                 complex(rng.normal(), rng.normal()) * 0.5)])
            ct = constant_term(A, th)
            assert abs(ct.value) < 1e-6

    def test_dimension_four_matches_curvature(self):
        th = theta_block(4)
        cases = [
            [(1, (0, 1, 0, 0), 0.37)],
            [(1, (0, 1, 0, 0), 0.4), (2, (1, 0, 0, 0), 0.25)],
            [(1, (0, 1, 0, 0), 0.2 + 0.3j), (3, (0, 0, 0, 1), 0.15 - 0.1j)],
        ]
        for terms in cases:
            A = OneForm.from_terms(4, terms)
            ct = constant_term(A, th)
            target = -(4.0 * math.pi ** 2 / 3.0) * tau_F_squared(A, th)
            assert abs(ct.value - target) <= 0.01 * abs(target)

    def test_zero_potential(self):
        th = theta_block(4)
        assert constant_term(OneForm.zero(4), th).value == 0j

    def test_resonant_rational_theta(self, monkeypatch):
        # at Theta = 2 pi / 2 the sign choices with w = sum sigma_j h_j in 4 Z^n,
        # w != 0, have an integral twist and contribute beside the w = 0 ones
        from ncspectral import action

        th = DeformationMatrix.standard_block(4, 2.0 * math.pi * 0.5)
        A = OneForm.from_terms(4, [(1, (0, 1, 0, 0), 0.4), (2, (1, 0, 0, 0), 0.25)])
        resonant = []
        orig = action.integral_mask

        def recording(twists):
            mask = orig(twists)
            resonant.extend(np.asarray(twists)[mask & np.any(np.asarray(twists) != 0, axis=-1)])
            return mask

        monkeypatch.setattr(action, "integral_mask", recording)
        ct = constant_term(A, th)
        target = -(4.0 * math.pi ** 2 / 3.0) * tau_F_squared(A, th)
        assert len(resonant) == 24
        assert target.real == pytest.approx(15.923, abs=1e-3)
        assert abs(ct.value - target) <= 1e-12 * abs(target)

    def test_path_slices_bit_identical(self, monkeypatch):
        # slicing the candidate paths bounds memory and never changes a bit of the sum
        from ncspectral import action

        th = theta_block(4)
        A = OneForm.from_terms(4, [(1, (0, 1, 0, 0), 0.4), (2, (1, 0, 0, 0), 0.25),
                                   (3, (0, 0, 1, 1), 0.2 + 0.1j)])
        whole = constant_term(A, th)
        for cap in (1, 7):
            monkeypatch.setattr(action, "_CHUNK_PATHS", cap)
            capped = constant_term(A, th)
            assert capped.value == whole.value and capped.per_q == whole.per_q

    def test_curvature_trace_real_nonpositive(self):
        th = theta_block(4)
        rng = np.random.default_rng(17)
        for _ in range(5):
            A = OneForm.from_terms(4, [
                (int(rng.integers(1, 5)), tuple(int(x) for x in rng.integers(-1, 2, size=4)),
                 complex(rng.normal(), rng.normal()) * 0.5)])
            tau = tau_F_squared(A, th)
            assert abs(tau.imag) < 1e-12 * max(1.0, abs(tau))
            assert tau.real <= 1e-12


class TestLineEngine:
    @pytest.mark.parametrize("case", list(_CHIRAL_CASES))
    def test_gram_eigenvalues_match_eigvalsh(self, case):
        # oracle: eigvalsh of the whole Gram matrix; TestChiralRoute checks the traces.
        # Every window holds the line k_perp = 0, where sin(1/2 h.Theta k) vanishes
        # for every hop and the modes split into one-row blocks.
        n, K, _, terms = _CHIRAL_CASES[case]
        th = THETA_3 if n == 3 else theta_block(n)
        A = OneForm.from_terms(n, terms)
        window = ModeWindow(n, K, spinor_dim=2 ** (n // 2))
        G, _ = _chiral_gram(assemble_sparse(covariant_dirac(A, th), window), window)
        want = np.linalg.eigvalsh(G.toarray())
        for banded in (True, False) if _collinear(A) else (False,):
            mu = np.sort(_block_eigenvalues(G, banded))
            assert np.max(np.abs(mu - want)) <= 1e-12 * np.max(want)

    @pytest.mark.parametrize("case, largest", [("n4-noncollinear", 2 * 5 ** 2),
                                               ("n2-index4-imag", 7 ** 2)])
    def test_dense_path_solves_blocks_not_the_window(self, case, largest, monkeypatch):
        # hops e_1, e_2 in n = 4 keep (k_3, k_4), a plane of 25 modes x 2 rows; hops
        # 2 e_1, 2 e_2 keep k mod 2, at most 7 x 7 modes of the 13 x 13 window
        n, K, lam, terms = _CHIRAL_CASES[case]
        sizes, eigvalsh = [], np.linalg.eigvalsh

        def recording(a, *args, **kwargs):
            sizes.append(a.shape[0])
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        hs = heat_trace(n, lam ** -2, theta=theta_block(n), A=OneForm.from_terms(n, terms),
                        window_K=K)
        assert hs.method == "dense-window"
        assert len(sizes) > 1 and max(sizes) <= largest

    def test_chain_path_never_calls_eigvalsh(self, monkeypatch):
        # the chain path solves bands only; a dense per-block fallback would call eigvalsh
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.eigvalsh called on the chain path")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        th = theta_block(2)
        A = OneForm.from_terms(2, [(1, (1, 0), 0.3 + 0.1j), (2, (2, 0), 0.2j)])
        hs = heat_trace(2, 0.16, theta=th, A=A)
        sa = spectral_action(CutoffProfile.gaussian(), 2.5, 2, theta=th, A=A)
        assert hs.method == sa.method == "chain-window"
        assert hs.value > 0 and sa.value > 0

    def test_chain_window_capped_before_assembly(self):
        # n = 4 at lam = 3 has a box basis of 16,402,500; assembling it ran out of memory
        th, p = theta_block(4), CutoffProfile.gaussian()
        A = OneForm.from_terms(4, [(1, (0, 1, 0, 0), 0.37)])
        start = time.perf_counter()
        with pytest.raises(WindowError, match="16402500 exceeds exact limit"):
            spectral_action(p, 3.0, 4, theta=th, A=A)
        with pytest.raises(WindowError, match="16402500 exceeds exact limit"):
            fit_expansion(p, [0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0], 4, theta=th, A=A)
        assert time.perf_counter() - start < 1.0


class TestHutchinson:
    def test_stochastic_trace_near_dense(self):
        # force the stochastic path with a tiny dense limit and a
        # noncollinear one-form, then compare against full diagonalization
        th = theta_block(2)
        A = OneForm.from_terms(2, [(1, (1, 0), 0.3), (2, (0, 1), 0.2j)])
        t = 0.8
        stoch = heat_trace(2, t, theta=th, A=A, window_K=3, dense_limit=10, probes=96)
        dense = heat_trace(2, t, theta=th, A=A, window_K=3, method="dense-window")
        assert stoch.method == "hutchinson"
        assert stoch.value == pytest.approx(dense.value, rel=0.1)

    def test_fixed_seed_reproducible(self):
        th = theta_block(2)
        A = OneForm.from_terms(2, [(1, (1, 0), 0.3), (2, (0, 1), 0.2j)])
        v1 = heat_trace(2, 0.8, theta=th, A=A, window_K=3, dense_limit=10, probes=16).value
        v2 = heat_trace(2, 0.8, theta=th, A=A, window_K=3, dense_limit=10, probes=16).value
        assert v1 == v2

    @pytest.mark.parametrize("case", ["n2-noncollinear-complex", "n3-noncollinear",
                                      "n4-noncollinear"])
    def test_lanczos_quadrature_matches_dense(self, case):
        # per probe, the Gauss quadrature equals v* f(G) v from a full eigh of G
        n, K, lam, terms = _CHIRAL_CASES[case]
        th = THETA_3 if n == 3 else theta_block(n)
        window = ModeWindow(n, K, spinor_dim=2 ** (n // 2))
        M = assemble_sparse(covariant_dirac(OneForm.from_terms(n, terms), th), window)
        G, mult = _chiral_gram(M, window)
        mu, U = np.linalg.eigh(G.toarray())
        rng = np.random.default_rng(3)
        for profile in (CutoffProfile.gaussian(), CutoffProfile.super_gaussian()):
            def f(x):
                return mult * np.array([profile(y) for y in np.sqrt(np.maximum(x, 0.0)) / lam])

            for _ in range(3):
                v = rng.integers(0, 2, size=G.shape[0]) * 2.0 - 1.0
                want = float(np.sum(np.abs(U.conj().T @ v) ** 2 * f(mu)))
                assert _lanczos_quadrature(G, v, f) == pytest.approx(want, rel=1e-12)

    def test_heat_and_action_above_dense_limit(self):
        # both entry points go stochastic on the same non-collinear window and
        # land within 4 standard errors of its dense trace
        n, K, lam, terms = _CHIRAL_CASES["n2-noncollinear-complex"]
        th, A = theta_block(n), OneForm.from_terms(n, terms)
        sgauss = CutoffProfile.super_gaussian()
        pairs = [(heat_trace(n, lam ** -2, theta=th, A=A, window_K=K, dense_limit=100),
                  heat_trace(n, lam ** -2, theta=th, A=A, window_K=K, method="dense-window")),
                 (spectral_action(sgauss, lam, n, theta=th, A=A, window_K=K, dense_limit=100),
                  spectral_action(sgauss, lam, n, theta=th, A=A, window_K=K))]
        for stoch, dense in pairs:
            assert stoch.method == "hutchinson" and dense.method == "dense-window"
            assert stoch.stderr > 0 and dense.stderr == 0
            assert abs(stoch.value - dense.value) <= 4.0 * stoch.stderr

    @pytest.mark.parametrize("probes", [1, 0])
    def test_probe_count_validated(self, probes):
        th = theta_block(2)
        A = OneForm.from_terms(2, [(1, (1, 0), 0.3), (2, (0, 1), 0.2j)])
        with pytest.raises(ValueError, match="probes"):
            heat_trace(2, 0.8, theta=th, A=A, window_K=3, dense_limit=10, probes=probes)


class TestCosmologicalTerm:
    """The leading fitted coefficient against 2^m vol(S^{n-1}), with or without a perturbation."""

    GRID = [6.0, 7.3, 9.0, 11.0, 13.5, 16.4, 20.0, 24.0]

    def test_flat_dimension_two(self):
        fit = fit_expansion(CutoffProfile.gaussian(), self.GRID, 2)
        assert fit.coeffs[2] == pytest.approx(2.0 * vol_sphere(2), rel=1e-8)

    def test_flat_dimension_four(self):
        fit = fit_expansion(CutoffProfile.gaussian(), self.GRID, 4)
        assert fit.coeffs[4] == pytest.approx(8.0 * math.pi ** 2, rel=1e-8)

    def test_perturbation_invariant_dimension_two(self):
        th = theta_block(2)
        A = OneForm.from_terms(2, [(1, (1, 0), 0.4)])
        fit = fit_expansion(CutoffProfile.gaussian(), [2.5, 3.2, 4.1, 5.3, 6.8, 8.7, 10.0], 2,
                            theta=th, A=A)
        ref = 2.0 * vol_sphere(2)
        assert abs(fit.coeffs[2] - ref) <= max(5.0 * fit.sigmas[2], 1e-5 * ref)
