"""Dense complex operator algebra for small quantum systems.

Everything downstream (thermal states, channels, work statistics) is built
on exact eigendecompositions of Hermitian matrices, so this module owns the
validated operator types and the spectral primitives: decomposition with a
deterministic treatment of degenerate eigenspaces and matrix exponentials
through the eigenbasis.

Dimensions are assumed small (a few hundred at most); all arrays are dense
``complex128`` and frozen after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

HERMITICITY_ATOL = 1e-12
ORTHONORMALITY_ATOL = 1e-10
# Eigenvalues closer than this fraction of the spectral scale (see
# ``cluster_bounds``) are treated as one degenerate cluster.
DEGENERACY_REL_GAP = 1e-10


def as_complex_matrix(entries, name: str = "matrix") -> np.ndarray:
    """Coerce ``entries`` to a square, finite complex matrix.

    Returns a read-only ``complex128`` copy. Raises ``ValueError`` for
    non-square shapes or non-finite entries.
    """
    mat = np.array(entries, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
        raise ValueError(f"{name} must be a square matrix, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError(f"{name} contains non-finite entries")
    mat.flags.writeable = False
    return mat


def matrix_from_pairs(data, name: str = "matrix") -> np.ndarray:
    """Build a complex matrix from nested rows of ``[re, im]`` pairs.

    This is the wire format used by scenario files.
    """
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError(f"{name} must be rows of [re, im] pairs")
    return as_complex_matrix(arr[..., 0] + 1j * arr[..., 1], name=name)


@dataclass(frozen=True)
class HermitianOperator:
    """A finite-dimensional Hermitian matrix, the input to ``spectral_decompose``.

    Construction symmetrizes the input when the anti-Hermitian part is below
    ``HERMITICITY_ATOL`` and rejects it otherwise, so ``matrix`` is exactly
    equal to its conjugate transpose.
    """

    matrix: np.ndarray

    def __init__(self, matrix):
        mat = as_complex_matrix(matrix, name="HermitianOperator.matrix")
        dev = np.max(np.abs(mat - mat.conj().T))
        if dev > HERMITICITY_ATOL:
            raise ValueError(
                f"matrix is not Hermitian: max |H - H^dag| = {dev:.3e} > {HERMITICITY_ATOL:.1e}"
            )
        sym = 0.5 * (mat + mat.conj().T)
        sym.flags.writeable = False
        object.__setattr__(self, "matrix", sym)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Spectrum:
    """Full eigensystem of a Hermitian operator.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` holds the
    matching orthonormal eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __init__(self, eigenvalues, eigenvectors):
        evals = np.array(eigenvalues, dtype=float)
        vecs = np.array(eigenvectors, dtype=complex)
        if evals.ndim != 1 or vecs.shape != (evals.size, evals.size):
            raise ValueError("eigenvalue/eigenvector shapes are inconsistent")
        if not np.isfinite(vecs).all():
            raise ValueError("spectrum contains non-finite entries")
        _check_eigenvalues(evals)
        gram = vecs.conj().T @ vecs
        dev = np.max(np.abs(gram - np.eye(evals.size)))
        if dev > ORTHONORMALITY_ATOL:
            raise ValueError(f"eigenvectors not orthonormal: deviation {dev:.3e}")
        vecs.flags.writeable = False
        object.__setattr__(self, "eigenvalues", evals)
        object.__setattr__(self, "eigenvectors", vecs)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def scaled(self, factor: float) -> "Spectrum":
        """Same eigenbasis with every eigenvalue multiplied by ``factor`` > 0.

        A spectrum rescaled by a clock rate or a level spacing; ``scaled(1.0)``
        is ``self``.
        """
        factor = float(factor)
        if not (np.isfinite(factor) and factor > 0):
            raise ValueError(f"scale factor must be finite and positive, got {factor!r}")
        if factor == 1.0:
            return self
        # an overflow to inf is rejected by the eigenvalue check
        with np.errstate(over="ignore"):
            return self._with_eigenvalues(factor * self.eigenvalues)

    def shifted(self, offset: float) -> "Spectrum":
        """Same eigenbasis with all eigenvalues shifted by ``offset``."""
        return self._with_eigenvalues(self.eigenvalues + offset)

    def _with_eigenvalues(self, eigenvalues) -> "Spectrum":
        """This eigenbasis with new eigenvalues.

        The eigenvectors are shared, not copied: they are read-only and were
        checked for orthonormality when this spectrum was built, so only the
        new eigenvalues are checked.
        """
        evals = np.array(eigenvalues, dtype=float)
        if evals.shape != self.eigenvalues.shape:
            raise ValueError("eigenvalue/eigenvector shapes are inconsistent")
        _check_eigenvalues(evals)
        spec = object.__new__(Spectrum)
        object.__setattr__(spec, "eigenvalues", evals)
        object.__setattr__(spec, "eigenvectors", self.eigenvectors)
        return spec


def _check_eigenvalues(evals: np.ndarray) -> None:
    """Raise unless ``evals`` are finite and ascending; then make them read-only."""
    if not np.isfinite(evals).all():
        raise ValueError("spectrum contains non-finite entries")
    if ((evals[1:] - evals[:-1]) < 0).any():
        raise ValueError("eigenvalues must be sorted ascending")
    evals.flags.writeable = False


def cluster_bounds(evals: np.ndarray) -> list[int]:
    """Where each cluster of ascending eigenvalues starts, followed by ``evals.size``.

    Consecutive eigenvalues at most ``DEGENERACY_REL_GAP`` times the spectral
    scale apart share a cluster, so cluster k is ``evals[b[k]:b[k + 1]]``. The
    scale is the larger of the spectral range and the largest |eigenvalue|:
    rounding splits a degenerate level by a multiple of the latter, so a
    multiple of the identity stays one cluster after a change of basis.
    """
    lo, hi = float(evals[0]), float(evals[-1])
    thresh = DEGENERACY_REL_GAP * max(hi - lo, abs(lo), abs(hi))
    gaps = (evals[1:] - evals[:-1]).tolist()
    return [0] + [k + 1 for k, gap in enumerate(gaps) if gap > thresh] + [evals.size]


def _fix_degenerate_clusters(evals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Replace the eigenbasis of each degenerate cluster by a deterministic one.

    Within a cluster the eigenbasis returned by LAPACK is an arbitrary
    orthonormal frame; we fix it by Gram-Schmidt of the standard basis
    vectors projected onto the cluster subspace, taken in index order. This
    makes repeated runs (and different LAPACK builds) reproducible.
    """
    out = np.array(vecs)
    bounds = cluster_bounds(evals)
    for i, j in zip(bounds[:-1], bounds[1:]):
        if j - i > 1:
            out[:, i:j] = _standard_basis_frame(vecs[:, i:j])
    return out

def _standard_basis_frame(block: np.ndarray) -> np.ndarray:
    k = block.shape[1]
    proj = block @ block.conj().T
    frame: list[np.ndarray] = []
    # the block's own columns come after the projected standard basis vectors:
    # a fallback for pathological subspaces barely visible from the standard
    # basis, which keeps the frame complete
    for candidate in chain(proj.T, block.T):
        v = candidate.copy()
        for u in frame:
            v -= u * (u.conj() @ v)
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            frame.append(v / norm)
            if len(frame) == k:
                break
    return np.column_stack(frame)


def spectral_decompose(h: HermitianOperator) -> Spectrum:
    """Eigendecompose ``h`` into an ascending, deterministically based spectrum."""
    evals, vecs = np.linalg.eigh(h.matrix)
    vecs = _fix_degenerate_clusters(evals, vecs)
    return Spectrum(evals, vecs)


def _as_spectrum(h: HermitianOperator | Spectrum) -> Spectrum:
    """``h`` itself when it is already decomposed, else its spectrum."""
    return h if isinstance(h, Spectrum) else spectral_decompose(h)


def spectrum_expm(spec: Spectrum, scale: complex) -> np.ndarray:
    """exp(scale * H) evaluated through the eigenbasis of ``spec``.

    Computed as V diag(exp(scale * lambda)) V^dag, which keeps imaginary
    scales exactly unitary and real negative scales positive definite.
    """
    if not np.isfinite(complex(scale)):
        raise ValueError("scale must be finite")
    v = spec.eigenvectors
    return (v * np.exp(scale * spec.eigenvalues)) @ v.conj().T


def random_hermitian(dim: int, rng: np.random.Generator | int) -> HermitianOperator:
    """A GUE-style random Hermitian matrix, reproducible from the rng/seed."""
    gen = np.random.default_rng(rng) if isinstance(rng, (int, np.integer)) else rng
    a = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    return HermitianOperator(0.5 * (a + a.conj().T))


def random_unitary(dim: int, rng: np.random.Generator | int) -> np.ndarray:
    """A Haar-distributed random unitary, reproducible from the rng/seed."""
    gen = np.random.default_rng(rng) if isinstance(rng, (int, np.integer)) else rng
    a = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    # fix the phase freedom of QR so the draw is a function of ``a`` alone
    d = np.diagonal(r)
    return q * (d / np.abs(d))
