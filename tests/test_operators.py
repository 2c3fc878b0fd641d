import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauwork.acceptance import SEED
from tauwork.channels import unitary_channel
from tauwork.operators import (
    HermitianOperator,
    Spectrum,
    as_complex_matrix,
    cluster_bounds,
    matrix_from_pairs,
    random_hermitian,
    random_unitary,
    require,
    spectral_decompose,
    spectrum_expm,
    stacked_eigenvalues,
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

    @pytest.mark.parametrize("pairs", [[[1.0, 2.0]], [[[1.0, 2.0, 3.0]]], [[[[1.0, 2.0]]]]])
    def test_pairs_must_be_rows_of_pairs(self, pairs):
        with pytest.raises(ValueError, match=r"channel.matrix must be rows of \[re, im\] pairs"):
            matrix_from_pairs(pairs, name="channel.matrix")

    def test_spectrum_shapes_must_agree(self):
        with pytest.raises(ValueError, match="eigenvalue/eigenvector shapes are inconsistent"):
            Spectrum([0.0, 1.0], np.eye(3))

    def test_spectrum_rejects_non_finite_eigenvectors(self):
        with pytest.raises(ValueError, match="spectrum contains non-finite entries"):
            Spectrum([0.0, 1.0], [[1.0, 0.0], [0.0, np.nan]])

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


class TestRequire:
    @pytest.mark.parametrize(
        "values",
        [
            {"beta": 2.0},
            {"beta": np.float64(2.0), "alpha": np.float32(0.5)},
            {"beta": 10**308},
            {"steps": np.int64(5), "levels": np.int32(1024)},
            {"gamma": 0, "lambda": np.float64(1.0)},
            {"c": 1e154},
        ],
    )
    def test_accepts_real_numbers_and_numpy_scalars(self, values):
        require(**values)

    @pytest.mark.parametrize(
        "values, message",
        [
            ({"beta": True}, "beta must be a finite number, got True"),
            ({"beta": np.bool_(True)}, "beta must be a finite number, got "),
            ({"beta": 10**400}, "beta must be a finite number, got 1000"),
            ({"beta": "2"}, "beta must be a finite number, got '2'"),
            ({"beta": -1.0}, r"beta must be positive, got -1\.0"),
            ({"gamma": False}, "gamma must be a number in \\[0, 1\\], got False"),
            ({"steps": np.float64(5.0)}, "steps must be an integer"),
            ({"steps": True}, "steps must be an integer, got True"),
            ({"beta": 1.0, "alpha": 0.0}, r"alpha must be positive, got 0\.0"),
        ],
    )
    def test_names_the_first_value_that_breaks_its_rule(self, values, message):
        with pytest.raises(ValueError, match=message):
            require(**values)


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


class TestStackedEigenvalues:
    @pytest.mark.parametrize("seed", [SEED, SEED + 2])
    def test_rows_are_each_decomposition_bit_for_bit(self, seed):
        # the random grids' 200 draws, stacked by dimension as the grids stack them
        rng = np.random.default_rng(seed)
        by_dim = {}
        for _ in range(200):
            dim = int(rng.integers(2, 9))
            by_dim.setdefault(dim, []).append(random_hermitian(dim, rng))
        assert sum(map(len, by_dim.values())) == 200
        for dim, systems in by_dim.items():
            levels = stacked_eigenvalues(systems)
            assert levels.shape == (len(systems), dim) and not levels.flags.writeable
            for row, h in zip(levels, systems):
                assert row.tobytes() == spectral_decompose(h).eigenvalues.tobytes()

    @pytest.mark.parametrize(
        "dims, shapes", [((2, 3, 2), "[(2, 2), (3, 3)]"), ((), "[]")], ids=["mixed", "empty"]
    )
    def test_a_stack_needs_one_dimension(self, dims, shapes):
        systems = [random_hermitian(dim, dim) for dim in dims]
        with pytest.raises(ValueError, match=re.escape(f"one shape, got shapes {shapes}")):
            stacked_eigenvalues(systems)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda evals, vecs: evals.__setitem__((1, 2), np.nan), "non-finite"),
            (lambda evals, vecs: vecs.__setitem__((2, 0, 1), np.inf), "non-finite"),
            (lambda evals, vecs: evals.__setitem__(2, evals[2, ::-1].copy()), "ascending"),
            (lambda evals, vecs: vecs.__setitem__((1, slice(None), 0), 1.001 * vecs[1, :, 0]),
             "orthonormal"),
        ],
        ids=["nan eigenvalue", "inf eigenvector", "descending", "not orthonormal"],
    )
    def test_the_spectrum_check_guards_every_row(self, corrupt, message, monkeypatch):
        # a LAPACK result that a Spectrum would reject, in one row of the stack
        eigh = np.linalg.eigh

        def broken(stack):
            evals, vecs = eigh(stack)
            corrupt(evals, vecs)
            return evals, vecs

        monkeypatch.setattr(np.linalg, "eigh", broken)
        with pytest.raises(ValueError, match=message):
            stacked_eigenvalues([random_hermitian(4, seed) for seed in range(3)])


class TestScaled:
    def test_shares_the_checked_eigenvectors(self):
        spec = spectral_decompose(random_hermitian(4, 3))
        scaled = spec.scaled(2.5)
        assert scaled.eigenvectors is spec.eigenvectors
        assert np.array_equal(scaled.eigenvalues, 2.5 * spec.eigenvalues)
        assert not scaled.eigenvalues.flags.writeable

    def test_unit_factor_returns_self(self):
        spec = spectral_decompose(random_hermitian(3, 4))
        assert spec.scaled(1.0) is spec

    @pytest.mark.parametrize(
        "factor, message",
        [
            (0.0, "must be positive, got 0.0"),
            (-2.0, "must be positive, got -2.0"),
            (np.nan, "must be a finite number, got nan"),
            (np.inf, "must be a finite number, got inf"),
            (True, "must be a finite number, got True"),
        ],
    )
    def test_rejects_factors_that_are_not_finite_and_positive(self, factor, message):
        spec = spectral_decompose(random_hermitian(3, 5))
        with pytest.raises(ValueError, match=f"factor {message}"):
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


class TestDiagonal:
    """``Spectrum(energies)`` is ``Spectrum(energies, np.eye(n))`` without the
    orthonormality check, which the exact identity passes."""

    @pytest.mark.parametrize(
        "energies", [[0.0, 1.0], [-3.0, -3.0, 2.5], list(np.arange(200) + 0.5), [7.0]]
    )
    def test_arrays_are_those_of_the_standard_basis_spectrum(self, energies):
        spec = Spectrum(energies)
        full = Spectrum(energies, np.eye(len(energies)))
        pairs = (spec.eigenvalues, full.eigenvalues), (spec.eigenvectors, full.eigenvectors)
        for got, want in pairs:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable

    @pytest.mark.parametrize(
        "energies",
        [[0.0, np.nan], [np.inf, 1.0], [0.0, -np.inf], [1.0, 0.0], [0.0, 2.0, 1.0], [[0.0, 1.0]]],
        ids=["nan", "inf", "-inf", "descending", "unsorted", "2-D"],
    )
    def test_raises_what_the_standard_basis_spectrum_raises(self, energies):
        n = np.size(energies)
        with pytest.raises(ValueError) as full:
            Spectrum(energies, np.eye(n))
        with pytest.raises(ValueError, match=re.escape(str(full.value))):
            Spectrum(energies)

    def test_the_input_is_copied(self):
        energies = np.array([0.0, 1.0, 2.0])
        spec = Spectrum(energies)
        energies[0] = 5.0
        assert spec.eigenvalues.tolist() == [0.0, 1.0, 2.0]
        assert energies.flags.writeable

    def test_ladders_and_two_levels_are_diagonal_spectra(self, monkeypatch):
        # no orthonormality check: it would form I^dag I, O(d^3) at d levels
        from tauwork import operators
        from tauwork.scenarios import two_level_hamiltonian

        monkeypatch.setattr(operators, "ORTHONORMALITY_ATOL", -1.0)
        assert harmonic_hamiltonian(2.0, 5).eigenvalues.tolist() == [1.0, 3.0, 5.0, 7.0, 9.0]
        assert two_level_hamiltonian(0.5).eigenvectors.tolist() == np.eye(2).tolist()
        with pytest.raises(ValueError, match="orthonormal"):
            Spectrum([0.0, 1.0], np.eye(2))


class TestHermitianExpm:
    @pytest.mark.parametrize(
        "scale, message",
        [
            (-1j * 6.0, "phase |scale| * max|eigenvalue| = 6.0 * 1.7976931348623157e+308"),
            (complex(np.nan, 0.0), "phase |scale| * max|eigenvalue| = nan"),
            (-1j * np.inf, "phase |scale| * max|eigenvalue| = inf"),
        ],
    )
    def test_a_phase_that_is_not_finite_raises(self, scale, message):
        spec = Spectrum([0.0, np.finfo(float).max])
        with pytest.raises(ValueError, match=re.escape(message)):
            spectrum_expm(spec, scale)

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


@pytest.mark.parametrize("draw", [random_hermitian, random_unitary])
def test_random_draws_follow_the_dim_rule(draw):
    # the cap is checked before any array is allocated
    for dim in (10**20, 1025):
        with pytest.raises(ValueError, match=f"dim must be <= 1024, got {dim}"):
            draw(dim, 0)
    with pytest.raises(ValueError, match="dim must be an integer, got 3.0"):
        draw(3.0, 0)
    drawn = draw(3, 0)
    assert getattr(drawn, "matrix", drawn).shape == (3, 3)


def test_random_unitary_is_unitary_and_deterministic():
    u1 = random_unitary(6, 123)
    u2 = random_unitary(6, 123)
    assert np.array_equal(u1, u2)
    assert np.max(np.abs(u1.conj().T @ u1 - np.eye(6))) < 1e-12
