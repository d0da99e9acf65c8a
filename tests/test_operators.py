import itertools
import math

import numpy as np
import pytest

from ncspectral.clifford import build_gamma
from ncspectral.operators import (
    ModeMap,
    ModeWindow,
    OneForm,
    WindowError,
    assemble_dense,
    assemble_sparse,
    conjugate_by_Vu,
    covariant_dirac,
    dirac,
    gauge_transform,
    left_rep,
    pure_gauge_check,
    right_rep,
    spectrum,
    square_expansion_check,
)
from ncspectral.weyl import DeformationMatrix, FourierElement, adjoint

from conftest import random_element


def random_one_form(rng, n, n_terms=2, radius=1):
    terms = []
    for _ in range(n_terms):
        axis = int(rng.integers(1, n + 1))
        k = tuple(int(x) for x in rng.integers(-radius, radius + 1, size=n))
        if not any(k):
            k = (1,) + (0,) * (n - 1)
        terms.append((axis, k, complex(rng.normal(), rng.normal()) * 0.5))
    return OneForm.from_terms(n, terms)


class TestOneForm:
    def test_rejects_selfadjoint_component(self, theta2):
        bad = FourierElement(2, {(1, 0): 1j, (-1, 0): -1j})  # selfadjoint, not anti
        with pytest.raises(ValueError):
            OneForm((bad, FourierElement.zero(2)))

    def test_from_terms_symmetrizes(self, theta2):
        A = OneForm.from_terms(2, [(1, (1, 0), 0.3 + 0.4j)])
        comp = A.components[0]
        assert adjoint(comp).distance(-1.0 * comp) == 0.0
        assert comp.coeff((1, 0)) == 0.3 + 0.4j
        assert comp.coeff((-1, 0)) == -(0.3 - 0.4j)


class TestDirac:
    def test_zero_mode_in_kernel(self):
        D = dirac(2)
        assert D.apply_basis((0, 0), 0) == []
        assert D.apply_basis((0, 0), 1) == []

    def test_mode_action_is_gamma_column(self):
        gs = build_gamma(2)
        D = dirac(2)
        out = dict(((k, i), amp) for k, i, amp in D.apply_basis((1, 0), 0))
        col = gs.gammas[0][:, 0]
        for r in range(2):
            if col[r]:
                assert out[((1, 0), r)] == col[r]

    def test_window_spectrum_enumeration_oracle(self):
        # eigenvalues on a window are +-|k| with spinor multiplicity
        window = ModeWindow(2, 3, spinor_dim=2)
        eigs = spectrum(dirac(2), window)
        want = sorted(
            s * math.sqrt(k0 ** 2 + k1 ** 2)
            for k0, k1 in window.grid.tolist() for s in (1, -1))
        assert np.allclose(eigs, want, atol=1e-12)

    def test_k1_window_spectrum_explicit(self):
        window = ModeWindow(2, 1, spinor_dim=2)
        eigs = spectrum(dirac(2), window)
        r2 = math.sqrt(2.0)
        want = sorted([-r2] * 4 + [-1.0] * 4 + [0.0, 0.0] + [1.0] * 4 + [r2] * 4)
        assert np.allclose(eigs, want, atol=1e-12)

    def test_window_rejects_empty_spinor(self):
        with pytest.raises(ValueError, match="spinor_dim"):
            ModeWindow(2, 0, spinor_dim=0)


class TestRepresentations:
    def test_left_identity(self, theta2):
        one = FourierElement.unit(2, (0, 0))
        L = left_rep(one, theta2, 2)
        assert L.apply_basis((2, -1), 1) == [((2, -1), 1, 1.0 + 0j)]

    def test_right_action_phase(self, theta2):
        q = (1, 1)
        R = right_rep(FourierElement.unit(2, q), theta2, 2)
        k = (2, 0)
        [(k2, i2, amp)] = R.apply_basis(k, 0)
        assert k2 == (3, 1) and i2 == 0
        phase = -0.5 * float(np.asarray(k) @ theta2.theta @ np.asarray(q))
        assert amp == pytest.approx(complex(math.cos(phase), math.sin(phase)), abs=1e-15)

    def test_left_right_commute(self, theta2):
        rng = np.random.default_rng(0)
        window = ModeWindow(2, 2, spinor_dim=2)
        for _ in range(4):
            a = random_element(rng, 2, terms=3, radius=2)
            b = random_element(rng, 2, terms=3, radius=2)
            L = left_rep(a, theta2, 2)
            R = right_rep(b, theta2, 2)
            assert (L @ R).max_deviation(R @ L, window) < 1e-13 * max(
                1.0, a.norm_inf() * b.norm_inf())


class TestCovariantDirac:
    def test_zero_potential_reduces_to_flat(self, theta2):
        window = ModeWindow(2, 2, spinor_dim=2)
        DA = covariant_dirac(OneForm.zero(2), theta2)
        assert DA.max_deviation(dirac(2), window) == 0.0

    def test_pure_gauge_leaves_flat_operator(self, theta2):
        # basis unitaries generate no net perturbation
        window = ModeWindow(2, 2, spinor_dim=2)
        u = FourierElement.unit(2, (1, -1))
        A = gauge_transform(u, OneForm.zero(2), theta2)
        DA = covariant_dirac(A, theta2)
        assert DA.max_deviation(dirac(2), window) < 1e-14

    def test_dense_truncation_hermitian(self, theta2):
        rng = np.random.default_rng(1)
        window = ModeWindow(2, 3, spinor_dim=2)
        for _ in range(4):
            A = random_one_form(rng, 2)
            mat = assemble_dense(covariant_dirac(A, theta2), window)
            assert np.max(np.abs(mat - mat.conj().T)) < 1e-13

    def test_even_dimension_spectrum_symmetric(self, theta2):
        rng = np.random.default_rng(2)
        A = random_one_form(rng, 2)
        window = ModeWindow(2, 3, spinor_dim=2)
        eigs = spectrum(covariant_dirac(A, theta2), window)
        assert np.allclose(eigs, -eigs[::-1], atol=1e-11)


class TestPureGauge:
    def test_zero_mode(self, theta2):
        assert pure_gauge_check((0, 0), 2, theta2) == 0.0

    @pytest.mark.parametrize("k", [(1, 0), (0, 1), (2, -1), (3, 3)])
    def test_dimension_two(self, theta2, k):
        assert pure_gauge_check(k, 2, theta2) < 1e-14

    def test_dimension_four(self, theta4):
        assert pure_gauge_check((1, -2, 0, 3), 4, theta4) < 1e-14


class TestGaugeTransform:
    def test_identity_unitary(self, theta2):
        rng = np.random.default_rng(3)
        A = random_one_form(rng, 2)
        one = FourierElement.unit(2, (0, 0))
        B = gauge_transform(one, A, theta2)
        for ca, cb in zip(A.components, B.components):
            assert ca.distance(cb) < 1e-15

    def test_pure_gauge_constant_components(self, theta2):
        # transforming the zero potential by U_k gives components u d(u*),
        # whose represented operator matches 1 (x) (-k_mu gamma^mu)
        k = (2, -1)
        u = FourierElement.unit(2, k)
        B = gauge_transform(u, OneForm.zero(2), theta2)
        for mu, comp in enumerate(B.components):
            assert comp.support == [(0, 0)]
            assert comp.coeff((0, 0)) == pytest.approx(-1j * k[mu], abs=1e-15)

    def test_not_unitary_rejected(self, theta2):
        a = FourierElement(2, {(1, 0): 0.5})
        A = OneForm.zero(2)
        with pytest.raises(ValueError):
            gauge_transform(a, A, theta2)

    def test_composition(self, theta2):
        rng = np.random.default_rng(4)
        A = random_one_form(rng, 2)
        u = FourierElement.unit(2, (1, 0))
        v = FourierElement.unit(2, (0, 1))
        from ncspectral.weyl import multiply
        uv = multiply(u, v, theta2)
        lhs = gauge_transform(u, gauge_transform(v, A, theta2), theta2)
        rhs = gauge_transform(uv, A, theta2)
        for c1, c2 in zip(lhs.components, rhs.components):
            assert c1.distance(c2) < 1e-13


class TestVuConjugation:
    def test_identity_operator_fixed(self, theta2):
        window = ModeWindow(2, 2, spinor_dim=2)
        ident = ModeMap.identity(2, 2)
        u = FourierElement.unit(2, (1, 1))
        assert conjugate_by_Vu(ident, u, theta2).max_deviation(ident, window) < 1e-14

    def test_flat_operator_covariant(self, theta2):
        window = ModeWindow(2, 2, spinor_dim=2)
        D = dirac(2)
        for k in [(1, 0), (1, 1), (-2, 1)]:
            u = FourierElement.unit(2, k)
            assert conjugate_by_Vu(D, u, theta2).max_deviation(D, window) < 1e-13

    def test_gauge_identity_random(self, theta2):
        rng = np.random.default_rng(5)
        window = ModeWindow(2, 2, spinor_dim=2)
        for _ in range(5):
            A = random_one_form(rng, 2)
            u = FourierElement.unit(2, tuple(int(x) for x in rng.integers(-2, 3, size=2)))
            lhs = conjugate_by_Vu(covariant_dirac(A, theta2), u, theta2)
            rhs = covariant_dirac(gauge_transform(u, A, theta2), theta2)
            assert lhs.max_deviation(rhs, window) < 1e-13


class TestSquareExpansion:
    def test_flat_square_is_diagonal_norm(self, theta2):
        window = ModeWindow(2, 2, spinor_dim=2)
        D = dirac(2)
        sq = D @ D

        def norm_batch(ks, idx):
            nsq = np.sum(ks * ks, axis=1)
            src = np.flatnonzero(nsq)
            return src, ks[src], idx[src], nsq[src].astype(complex)

        diag = ModeMap(2, 2, 0, norm_batch)
        assert sq.max_deviation(diag, window) < 1e-13

    def test_single_mode_dimension_two(self, theta2):
        A = OneForm.from_terms(2, [(1, (0, 1), 0.45)])
        assert square_expansion_check(A, theta2, window_K=2) < 1e-13

    def test_single_mode_dimension_four(self, theta4):
        A = OneForm.from_terms(4, [(2, (1, 0, 0, 0), 0.3 - 0.2j)])
        assert square_expansion_check(A, theta4, window_K=1) < 1e-13

    def test_multi_mode_random(self, theta2):
        rng = np.random.default_rng(6)
        for _ in range(3):
            A = random_one_form(rng, 2, n_terms=3)
            assert square_expansion_check(A, theta2, window_K=2) < 1e-13


class TestKernel:
    @staticmethod
    def kernel_dimension(T, window):
        return int(np.count_nonzero(np.abs(spectrum(T, window)) < 1e-10))

    def test_flat_kernel_dimension_two(self, theta2):
        assert self.kernel_dimension(dirac(2), ModeWindow(2, 2, spinor_dim=2)) == 2

    def test_flat_kernel_dimension_four(self, theta4):
        assert self.kernel_dimension(dirac(4), ModeWindow(4, 1, spinor_dim=4)) == 4

    def test_symmetrized_perturbation_preserves_kernel(self, theta2):
        # the left-minus-right perturbation annihilates the zero modes
        rng = np.random.default_rng(7)
        A = random_one_form(rng, 2)
        DA = covariant_dirac(A, theta2)
        for i in range(2):
            assert DA.apply_basis((0, 0), i) == []


def enumerated_grid(n, K, shape):
    """The window's modes by itertools.product, in its lexicographic order."""
    return [k for k in itertools.product(range(-K, K + 1), repeat=n)
            if shape == "max" or sum(c * c for c in k) <= K * K]


class TestWindowShapes:
    @pytest.mark.parametrize("shape", ["max", "euclid"])
    @pytest.mark.parametrize("K", [0, 1, 3])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_grid_order_matches_enumeration(self, n, K, shape):
        # assembly, positions and the line engine all rely on this order
        window = ModeWindow(n, K, shape=shape)
        want = enumerated_grid(n, K, shape)
        assert window.grid.dtype == np.int64 and window.grid.shape == (len(want), n)
        assert window.grid.tolist() == [list(k) for k in want]
        assert window.basis_size == len(want) * window.spinor_dim
        assert np.array_equal(window.positions(window.grid), np.arange(len(want)))

    def test_euclidean_window_drops_corners(self):
        wmax = ModeWindow(2, 2, shape="max", spinor_dim=2)
        weuc = ModeWindow(2, 2, shape="euclid", spinor_dim=2)
        probe = np.array([[2, 2], [2, 0]], dtype=np.int64)
        assert wmax.positions(probe).tolist() == [24, 22]
        assert weuc.positions(probe)[0] == -1
        assert weuc.grid[weuc.positions(probe)[1]].tolist() == [2, 0]
        assert weuc.basis_size < wmax.basis_size

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            ModeWindow(2, 2, shape="diamond")


class TestDenseAssembly:
    def test_window_guard(self, theta2):
        window = ModeWindow(2, 3, spinor_dim=2)
        with pytest.raises(WindowError):
            assemble_dense(dirac(2), window, basis_limit=10)

    def test_margin_requirement(self, theta2):
        A = OneForm.from_terms(2, [(1, (1, 0), 0.5)])
        DA = covariant_dirac(A, theta2)
        window = ModeWindow(2, 0, spinor_dim=2)
        with pytest.raises(WindowError):
            assemble_dense(DA, window, require_margin=True)

    def test_compression_matches_rule(self, theta2):
        window = ModeWindow(2, 1, spinor_dim=2)
        D = dirac(2)
        mat = assemble_dense(D, window)
        for col, (k, i) in enumerate(zip(*window.basis_arrays())):
            expect = np.zeros(window.basis_size, dtype=complex)
            for k2, i2, amp in D.apply_basis(tuple(k), i):
                [pos] = window.positions(np.array([k2]))
                if pos >= 0:
                    expect[pos * window.spinor_dim + i2] += amp
            assert np.allclose(mat[:, col], expect, atol=0)


def _batch_route_cases(theta):
    rng = np.random.default_rng(8)
    A = random_one_form(rng, 2, n_terms=3)
    a = random_element(rng, 2, terms=3, radius=1)
    b = random_element(rng, 2, terms=3, radius=1)
    D, L, R = dirac(2), left_rep(a, theta, 2), right_rep(b, theta, 2)
    DA = covariant_dirac(A, theta)

    def hop_rule(ks, idx):
        # U_k (x) e_i -> (k_1 + 1 + i/2) U_{k + e_2} (x) e_{1-i}, zero on k_1 = -1, i = 0
        amp = (ks[:, 0] + 1) + 0.5j * idx
        src = np.flatnonzero(amp)
        return src, ks[src] + np.array([0, 1]), 1 - idx[src], amp[src]

    return {"dirac": D, "left_rep": L, "right_rep": R, "covariant_dirac": DA,
            "sum": D + 0.5j * L - R, "composition": DA @ (L - R),
            "rule": ModeMap(2, 2, 1, hop_rule)}


class TestBatchRoute:
    """Window assembly evaluates a map on the whole basis at once; apply_basis on one input."""

    @pytest.mark.parametrize("name", ["dirac", "left_rep", "right_rep", "covariant_dirac",
                                      "sum", "composition", "rule"])
    def test_columns_match_apply_basis(self, theta2, name):
        T = _batch_route_cases(theta2)[name]
        window = ModeWindow(2, 3, spinor_dim=2)
        mat = assemble_sparse(T, window, require_margin=True).toarray()
        lost = 0
        for col, (k, i) in enumerate(zip(*window.basis_arrays())):
            expect = np.zeros(window.basis_size, dtype=complex)
            for k2, i2, amp in T.apply_basis(tuple(k), i):
                assert np.max(np.abs(np.subtract(k2, k))) <= T.spread
                assert amp != 0
                [pos] = window.positions(np.array([k2]))
                if pos >= 0:
                    expect[pos * window.spinor_dim + i2] += amp
                else:
                    # only inputs within the spread of the boundary lose amplitude
                    assert np.max(np.abs(k)) > window.K - T.spread
                    lost += 1
            assert np.allclose(mat[:, col], expect, rtol=0, atol=1e-13)
            assert np.array_equal(mat[:, col] != 0, expect != 0)
        assert (lost > 0) == (T.spread > 0)

    def test_rule_batch_outputs(self):
        T = _batch_route_cases(DeformationMatrix.zero(2))["rule"]
        assert T.apply_basis((2, -1), 0) == [((2, 0), 1, 3 + 0j)]
        assert T.apply_basis((-1, 4), 0) == []

    def test_needs_one_form_of_definition(self):
        with pytest.raises(TypeError):
            ModeMap(2, 2, 0)  # the batch function is required
