import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauwork.channels import unitary_channel
from tauwork.operators import (
    HermitianOperator,
    Spectrum,
    as_complex_matrix,
    cluster_bounds,
    matrix_from_pairs,
    random_hermitian,
    random_unitary,
    spectral_decompose,
    spectrum_expm,
)
from tauwork.scenarios import harmonic_hamiltonian

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def expm(h, scale):
    return spectrum_expm(spectral_decompose(h), scale)


def reconstruct(spec):
    """V diag(lambda) V^dag, the operator the spectrum came from."""
    v = spec.eigenvectors
    return (v * spec.eigenvalues) @ v.conj().T


class TestConstruction:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            as_complex_matrix([[1, 2, 3], [4, 5, 6]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            HermitianOperator([[np.nan, 0], [0, 1]])
        with pytest.raises(ValueError, match="finite"):
            HermitianOperator([[np.inf, 0], [0, 1]])

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            HermitianOperator([[0, 1], [0, 0]])

    def test_symmetrizes_rounding_noise(self):
        h = HermitianOperator([[1.0, 1e-13 * 1j + 0.5], [0.5, 2.0]])
        assert np.array_equal(h.matrix, h.matrix.conj().T)

    def test_matrices_are_frozen(self):
        h = HermitianOperator(SIGMA_X)
        with pytest.raises(ValueError):
            h.matrix[0, 0] = 5.0

    def test_pair_round_trip(self):
        mat = np.array([[1 + 2j, 0.5], [0.5, -1j]])
        pairs = [[[1.0, 2.0], [0.5, 0.0]], [[0.5, 0.0], [0.0, -1.0]]]
        assert np.array_equal(matrix_from_pairs(pairs), mat)

    def test_accepts_non_c_contiguous_matrices(self):
        m = random_hermitian(4, 1).matrix
        assert np.array_equal(HermitianOperator(m.T).matrix, m.T)
        swap = np.eye(3)[:, [2, 1, 0]]
        assert not swap.flags.c_contiguous
        assert np.array_equal(HermitianOperator(swap).matrix, swap)
        cycle = np.eye(3)[:, [2, 0, 1]]
        assert np.array_equal(unitary_channel(cycle).kraus_ops[0], cycle)
        spec = spectral_decompose(random_hermitian(4, 2))
        fortran = Spectrum(spec.eigenvalues, np.asfortranarray(spec.eigenvectors))
        assert np.array_equal(fortran.eigenvectors, spec.eigenvectors)


class TestSpectralDecompose:
    def test_already_diagonal(self):
        spec = spectral_decompose(HermitianOperator(np.diag([0.0, 0.7])))
        np.testing.assert_allclose(spec.eigenvalues, [0.0, 0.7])
        np.testing.assert_allclose(np.abs(spec.eigenvectors), np.eye(2), atol=1e-15)

    def test_sigma_x_by_hand(self):
        # characteristic polynomial lambda^2 - 1 = 0
        spec = spectral_decompose(HermitianOperator(SIGMA_X))
        np.testing.assert_allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-14)

    def test_random_reconstruction(self):
        h = random_hermitian(4, 42)
        spec = spectral_decompose(h)
        v = spec.eigenvectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(4))) < 1e-10
        assert np.max(np.abs(reconstruct(spec) - h.matrix)) < 1e-10

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_orthonormality_completeness_reconstruction(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(5):
            h = random_hermitian(dim, rng)
            spec = spectral_decompose(h)
            v = spec.eigenvectors
            assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) < 1e-10
            total = sum(np.outer(v[:, k], v[:, k].conj()) for k in range(dim))
            assert np.max(np.abs(total - np.eye(dim))) < 1e-12
            assert np.max(np.abs(reconstruct(spec) - h.matrix)) < 1e-10

    def test_degenerate_basis_is_standard(self):
        # a pure multiple of the identity has a fully degenerate spectrum;
        # the deterministic rule must pick the standard basis
        spec = spectral_decompose(HermitianOperator(2.5 * np.eye(3)))
        np.testing.assert_allclose(spec.eigenvectors, np.eye(3), atol=1e-12)

    def test_degenerate_cluster_deterministic(self):
        u = random_unitary(4, 7)
        h = HermitianOperator(u @ np.diag([1.0, 1.0, 1.0, 3.0]).astype(complex) @ u.conj().T)
        a = spectral_decompose(h)
        b = spectral_decompose(HermitianOperator(h.matrix.copy()))
        assert np.array_equal(a.eigenvectors, b.eigenvectors)
        assert np.max(np.abs(reconstruct(a) - h.matrix)) < 1e-10

    def test_cluster_bounds(self):
        # gaps up to 1e-10 of the larger of range and max |eigenvalue| join a cluster
        assert cluster_bounds(np.array([0.0, 0.0, 1e-11, 0.5, 1.0, 1.0])) == [0, 3, 4, 6]
        assert cluster_bounds(np.array([2.0])) == [0, 1]
        assert cluster_bounds(np.zeros(3)) == [0, 3]
        assert cluster_bounds(np.array([1.0, 1.0 + 1e-15, 1.0 + 3e-15])) == [0, 3]
        assert cluster_bounds(np.array([-1.0, 1.0 - 3e-10, 1.0])) == [0, 1, 2, 3]

    def test_rotated_multiple_of_identity_gets_standard_basis(self):
        u = random_unitary(3, 11)
        spec = spectral_decompose(HermitianOperator(u @ (2.5 * np.eye(3)) @ u.conj().T))
        np.testing.assert_allclose(spec.eigenvectors, np.eye(3), atol=1e-12)

    def test_spectrum_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            Spectrum([1.0, 0.0], np.eye(2))
        with pytest.raises(ValueError, match="orthonormal"):
            Spectrum([0.0, 1.0], [[1, 1], [0, 0]])


class TestScaled:
    def test_shares_the_checked_eigenvectors(self):
        spec = spectral_decompose(random_hermitian(4, 3))
        scaled = spec.scaled(2.5)
        assert scaled.eigenvectors is spec.eigenvectors
        assert np.array_equal(scaled.eigenvalues, 2.5 * spec.eigenvalues)
        assert not scaled.eigenvalues.flags.writeable
        assert spec.shifted(1.0).eigenvectors is spec.eigenvectors

    def test_unit_factor_returns_self(self):
        spec = spectral_decompose(random_hermitian(3, 4))
        assert spec.scaled(1.0) is spec

    @pytest.mark.parametrize("factor", [0.0, -2.0, np.nan, np.inf])
    def test_rejects_factors_that_are_not_finite_and_positive(self, factor):
        spec = spectral_decompose(random_hermitian(3, 5))
        with pytest.raises(ValueError, match="finite and positive"):
            spec.scaled(factor)

    def test_rejects_eigenvalues_that_overflow(self):
        spec = spectral_decompose(HermitianOperator(np.diag([1.0, 2.0])))
        with pytest.raises(ValueError, match="non-finite"):
            spec.scaled(1e308)

    @settings(max_examples=60, deadline=None)
    @given(
        omega=st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False),
        levels=st.integers(2, 64),
    )
    def test_harmonic_ladder_is_the_unit_ladder_rescaled(self, omega, levels):
        direct = harmonic_hamiltonian(omega, levels).eigenvalues
        unit = harmonic_hamiltonian(1.0, levels)
        assert np.array_equal(direct, unit.scaled(omega).eigenvalues)


class TestHermitianExpm:
    def test_zero_matrix_gives_identity(self):
        h = HermitianOperator(np.zeros((3, 3)))
        np.testing.assert_allclose(expm(h, 1.7 - 0.3j), np.eye(3), atol=1e-15)

    def test_diagonal_real_scale(self):
        h = HermitianOperator(np.diag([1.0, 2.0]))
        beta = 0.8
        np.testing.assert_allclose(
            expm(h, -beta), np.diag([np.exp(-0.8), np.exp(-1.6)]), atol=1e-15
        )

    def test_sigma_x_closed_form(self):
        # e^(-i pi sigma_x) = cos(pi) 1 - i sin(pi) sigma_x = -1
        u = expm(HermitianOperator(SIGMA_X), -1j * np.pi)
        assert np.max(np.abs(u + np.eye(2))) < 1e-12
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12

    def test_imaginary_scale_is_unitary(self):
        h = random_hermitian(5, 3)
        u = expm(h, -0.37j)
        assert np.max(np.abs(u.conj().T @ u - np.eye(5))) < 1e-10

    def test_negative_real_scale_is_positive_definite(self):
        h = random_hermitian(4, 11)
        m = expm(h, -1.3)
        assert np.linalg.eigvalsh(m)[0] > 0

    def test_semigroup_property(self):
        h = random_hermitian(3, 5)
        a, b = 0.33, 1.21
        lhs = expm(h, -1j * a) @ expm(h, -1j * b)
        rhs = expm(h, -1j * (a + b))
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_real_scale_preserves_hermiticity(self):
        m = expm(random_hermitian(4, 9), -0.5)
        assert np.max(np.abs(m - m.conj().T)) < 1e-12

    def test_rejects_non_finite_scale(self):
        with pytest.raises(ValueError, match="finite"):
            expm(HermitianOperator(SIGMA_X), np.nan)


def test_random_unitary_is_unitary_and_deterministic():
    u1 = random_unitary(6, 123)
    u2 = random_unitary(6, 123)
    assert np.array_equal(u1, u2)
    assert np.max(np.abs(u1.conj().T @ u1 - np.eye(6))) < 1e-12
