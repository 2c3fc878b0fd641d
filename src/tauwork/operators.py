"""Dense complex operator algebra for small quantum systems, and number rules.

Everything downstream (thermal states, channels, work statistics) is built
on exact eigendecompositions of Hermitian matrices, so this module owns the
validated operator types and the spectral primitives: decomposition with a
deterministic treatment of degenerate eigenspaces and matrix exponentials
through the eigenbasis.

Dimensions are small (scenario files cap them at ``MAX_DIM``); all arrays are
dense ``complex128`` and frozen after construction. ``RULES`` holds each named
number's rule as ``(accepts, message)`` stages, checked in order: scenario
files are validated against it, and engine functions call ``require``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

HERMITICITY_ATOL = 1e-12
ORTHONORMALITY_ATOL = 1e-10
# Eigenvalues closer than this fraction of the spectral scale (see
# ``cluster_bounds``) are treated as one degenerate cluster.
DEGENERACY_REL_GAP = 1e-10
MAX_DIM = 1024  # levels and dim: a 1024 x 1024 complex matrix is 16.8 MB
FINAL_BASES = ("evolved", "instantaneous")  # of a driven run's final measurement
_REAL = (float, int, np.floating, np.integer)


def _finite(value) -> bool:
    """A real number, numpy scalars included, that is neither a bool, nan nor inf."""
    try:
        return (
            isinstance(value, _REAL)
            and value is not True
            and value is not False
            and math.isfinite(value)
        )
    except OverflowError:  # an int beyond the float range
        return False


def _integer(low: int, high: float = math.inf) -> tuple:
    return (
        _INTEGER,
        (lambda v: v >= low, f"must be >= {low}, got {{!r}}"),
        (lambda v: v <= high, f"must be <= {high}, got {{!r}}"),
    )


_INTEGER = (lambda v: isinstance(v, (int, np.integer)) and type(v) is not bool,
            "must be an integer, got {!r}")
_NUMBER = (_finite, "must be a finite number, got {!r}")
_POSITIVE = (_NUMBER, (lambda v: v > 0, "must be positive, got {!r}"))
_FINITE_SQUARE = (lambda v: float(v) * float(v) < math.inf, "must have a finite square, got {!r}")

# name -> stages: the scenario fields, and the engine's clock rates (alpha,
# alpha_final, alpha_min), beta_omega, scale factor, draws (n) and sweep points (count)
RULES = {
    **dict.fromkeys(("g", "p", "M"), (_NUMBER,)),
    **dict.fromkeys(
        ("beta", "mass", "omega", "gap", "t_end", "tau_end", "r_start", "r_end")
        + ("alpha", "alpha_final", "alpha_min", "beta_omega", "factor"),
        _POSITIVE,
    ),
    "c": (*_POSITIVE, _FINITE_SQUARE),
    **dict.fromkeys(
        ("gamma", "lambda"),
        ((lambda v: _finite(v) and 0.0 <= v <= 1.0, "must be a number in [0, 1], got {!r}"),),
    ),
    **dict.fromkeys(("levels", "dim"), _integer(2, MAX_DIM)),
    # the presets whose Kraus lists grow with d, capped so that a flat run fits 10 s
    # and 1 GB on one Xeon core, 1 OpenBLAS thread. Time binds, about as d^5: damping took
    # 7.4 s and 68 MB at dim 112 (14 s at 128), depolarizing 7.2 s and 193 MB at 48
    "amplitude_damping_dim": _integer(2, 112),
    "depolarizing_dim": _integer(2, 48),
    "samples": _integer(2, 10**6),
    # reported only: the exact segment product reads no step count
    "steps": _integer(1, 10**9),
    "seed": _integer(0),
    "n": _integer(1),
    "count": _integer(2, 10**4),  # a sweep checks every point before it runs one
    "final_basis": ((lambda v: v in FINAL_BASES, f"must be one of {FINAL_BASES}, got {{!r}}"),),
}


def require(**values) -> None:
    """Raise ``ValueError("<name> <message>")`` for the first value that breaks its rule."""
    for name, value in values.items():
        for accepts, message in RULES[name]:
            if not accepts(value):
                raise ValueError(f"{name} {message.format(value)}")


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
    matching orthonormal eigenvectors as columns, by default the exact
    standard basis of a diagonal Hamiltonian, which needs no O(d^3) check.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __init__(self, eigenvalues, eigenvectors=None):
        evals = np.array(eigenvalues, dtype=float)
        diagonal = eigenvectors is None
        vecs = np.eye(evals.size, dtype=complex) if diagonal else np.array(eigenvectors, complex)
        if evals.ndim != 1 or vecs.shape != (evals.size, evals.size):
            raise ValueError("eigenvalue/eigenvector shapes are inconsistent")
        _check_spectrum(evals, None if diagonal else vecs)
        vecs.flags.writeable = False
        object.__setattr__(self, "eigenvalues", evals)
        object.__setattr__(self, "eigenvectors", vecs)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def scaled(self, factor: float) -> "Spectrum":
        """Same eigenbasis with every eigenvalue multiplied by ``factor`` > 0.

        A spectrum rescaled by a clock rate or a level spacing; ``scaled(1.0)``
        is ``self``. The eigenvectors are shared, not copied: they are
        read-only and were checked for orthonormality when this spectrum was
        built, so only the new eigenvalues are checked: a positive factor keeps
        them ascending, and one that overflows makes an end overflow.
        """
        require(factor=factor)
        if factor == 1.0:
            return self
        low, high = (float(factor) * float(e) for e in self.eigenvalues[[0, -1]])
        if not (math.isfinite(low) and math.isfinite(high)):
            raise ValueError("spectrum contains non-finite entries")
        evals = factor * self.eigenvalues
        evals.flags.writeable = False
        spec = object.__new__(Spectrum)
        vars(spec).update(eigenvalues=evals, eigenvectors=self.eigenvectors)
        return spec


def _check_spectrum(evals: np.ndarray, vecs: np.ndarray | None = None) -> None:
    """Raise unless ``evals`` are finite and ascending and the columns of ``vecs``,
    when given, finite and orthonormal; then make both read-only. It works on the
    last axes, so a stack of eigensystems is checked as one spectrum is."""
    if not np.isfinite(evals).all() or (vecs is not None and not np.isfinite(vecs).all()):
        raise ValueError("spectrum contains non-finite entries")
    if ((evals[..., 1:] - evals[..., :-1]) < 0).any():
        raise ValueError("eigenvalues must be sorted ascending")
    if vecs is not None:
        dev = np.max(np.abs(vecs.mT.conj() @ vecs - np.eye(evals.shape[-1])))
        if dev > ORTHONORMALITY_ATOL:
            raise ValueError(f"eigenvectors not orthonormal: deviation {dev:.3e}")
        vecs.flags.writeable = False
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


def stacked_eigenvalues(hs: list[HermitianOperator]) -> np.ndarray:
    """The (r, d) eigenvalues of r operators of one dimension d, from one ``eigh`` call.

    Row i is bit for bit ``spectral_decompose(hs[i]).eigenvalues`` and passes a
    ``Spectrum``'s check. The degenerate-cluster fix is skipped: it only picks
    the eigenvectors inside a cluster, and only eigenvalues are returned."""
    shapes = sorted({h.matrix.shape for h in hs})
    if len(shapes) != 1:
        raise ValueError(f"a stack needs operators of one shape, got shapes {shapes}")
    evals, vecs = np.linalg.eigh(np.stack([h.matrix for h in hs]))
    _check_spectrum(evals, vecs)
    return evals


def _as_spectrum(h: HermitianOperator | Spectrum) -> Spectrum:
    """``h`` itself when it is already decomposed, else its spectrum."""
    return h if isinstance(h, Spectrum) else spectral_decompose(h)


def spectrum_expm(spec: Spectrum, scale: complex) -> np.ndarray:
    """exp(scale * H) evaluated through the eigenbasis of ``spec``.

    Computed as V diag(exp(scale * lambda)) V^dag, which keeps imaginary
    scales exactly unitary and real negative scales positive definite.
    Raises ``ValueError`` unless the largest phase, |scale| max|lambda|, is finite.
    """
    evals, v = spec.eigenvalues, spec.eigenvectors
    size, top = abs(complex(scale)), max(-float(evals[0]), float(evals[-1]))
    if not size * top < math.inf:  # a nan or inf scale fails too
        raise ValueError(f"phase |scale| * max|eigenvalue| = {size!r} * {top!r} is not finite")
    return (v * np.exp(scale * evals)) @ v.conj().T


def random_hermitian(dim: int, rng: np.random.Generator | int) -> HermitianOperator:
    """A GUE-style random Hermitian matrix, reproducible from the rng/seed."""
    require(dim=dim)
    gen = np.random.default_rng(rng) if isinstance(rng, (int, np.integer)) else rng
    a = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    return HermitianOperator(0.5 * (a + a.conj().T))


def random_unitary(dim: int, rng: np.random.Generator | int) -> np.ndarray:
    """A Haar-distributed random unitary, reproducible from the rng/seed."""
    require(dim=dim)
    gen = np.random.default_rng(rng) if isinstance(rng, (int, np.integer)) else rng
    a = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    # fix the phase freedom of QR so the draw is a function of ``a`` alone
    d = np.diagonal(r)
    return q * (d / np.abs(d))
