"""Operator algebra foundations: qubit embeddings, vectorization, spectra.

Conventions used throughout the package:

* Qubit 1 is the leftmost tensor factor; qubit ``n`` is the rightmost.
  The computational basis state ``|b_1 b_2 ... b_n>`` has index
  ``sum_q b_q 2^(n-q)``.
* Vectorization is column stacking: entry ``(i, j)`` of a matrix maps to
  vector index ``j*N + i``, so that ``vec(A rho B) = (B^T kron A) vec(rho)``.

All functions accept bare ``numpy`` arrays or :class:`DensityOperator`, the
package's one definition of a valid state: every state argument is converted to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import check

__all__ = [
    "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "SIGMA_MINUS", "SIGMA_PLUS", "IDENTITY_2",
    "DensityOperator", "as_matrix", "embed_local", "vec", "unvec",
    "frobenius_error", "sorted_spectrum", "random_density",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)   # |1><0|
IDENTITY_2 = np.eye(2, dtype=complex)

HERM_ATOL = 1e-12
PSD_ATOL = 1e-12
TRACE_ATOL = 1e-12
# sorted_spectrum accepts propagated states, whose Hermiticity drifts by rounding
_SPECTRUM_HERM_ATOL = 1e-10


def as_matrix(op) -> np.ndarray:
    """Unwrap an operator type to its matrix, or pass an array through."""
    m = getattr(op, "matrix", op)
    return np.asarray(m, dtype=complex)


def _square(op) -> np.ndarray:
    """The matrix of ``op``, or a ValueError if it is not a nonempty square matrix."""
    m = as_matrix(op)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise ValueError(f"expected a nonempty square matrix, got shape {m.shape}")
    return m


def _frozen_array(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DensityOperator:
    """Unit-trace positive semidefinite Hermitian matrix, the one definition of a state.

    Inputs are symmetrized ``(A + A^dag)/2`` before the PSD and trace
    checks, which guards against anti-Hermitian round-off accumulated in
    long propagations.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = _square(self.matrix)
        if not np.isfinite(m).all():
            raise ValueError("matrix is not finite")
        if not np.abs(m - m.conj().T).max() <= HERM_ATOL:
            raise ValueError("matrix is not Hermitian within 1e-12")
        m = (m + m.conj().T) / 2
        evals = np.linalg.eigvalsh(m)
        if not evals.min() >= -PSD_ATOL:
            raise ValueError(f"matrix has negative eigenvalue {evals.min():.3e}")
        tr = np.trace(m).real
        if not abs(tr - 1.0) <= TRACE_ATOL:
            raise ValueError(f"trace is {tr!r}, expected 1")
        object.__setattr__(self, "matrix", _frozen_array(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def spectrum(self) -> np.ndarray:
        return sorted_spectrum(self)


def _density(rho) -> DensityOperator:
    """``rho`` itself if it is a :class:`DensityOperator`, else one built from it."""
    return rho if isinstance(rho, DensityOperator) else DensityOperator(rho)


def embed_local(op, site: int, n: int) -> np.ndarray:
    """Place a single-qubit operator at ``site`` in an ``n``-qubit register.

    Returns ``1 (x) ... (x) op (x) ... (x) 1`` with ``op`` at the given
    site, site ``n`` being the rightmost tensor factor.
    """
    m = as_matrix(op)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got shape {m.shape}")
    check("n", n, int, 1)
    check("site", site, int, (1, n))
    left = np.eye(2 ** (site - 1), dtype=complex)
    right = np.eye(2 ** (n - site), dtype=complex)
    return np.kron(np.kron(left, m), right)


def vec(rho) -> np.ndarray:
    """Column-stack a matrix into a vector: entry (i, j) -> index j*N + i."""
    return _square(rho).reshape(-1, order="F")


def unvec(v) -> np.ndarray:
    """Inverse of :func:`vec`; exact round trip."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    n = int(round(np.sqrt(v.size)))
    if n * n != v.size:
        raise ValueError(f"vector of length {v.size} is not a stacked square matrix")
    return v.reshape(n, n, order="F")


def frobenius_error(a, b) -> float:
    """Euclidean distance of two vectorized states.

    Equals the Frobenius distance of the corresponding matrices since
    column stacking is an isometry.
    """
    a = np.asarray(a, dtype=complex).reshape(-1)
    b = np.asarray(b, dtype=complex).reshape(-1)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def sorted_spectrum(rho) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix in descending order."""
    m = _square(rho)
    if not np.isfinite(m).all():
        raise ValueError("input is not finite")
    if not np.abs(m - m.conj().T).max() <= _SPECTRUM_HERM_ATOL:
        raise ValueError("input is not Hermitian")
    return np.linalg.eigvalsh(m)[::-1].copy()


def random_density(n: int, seed: int) -> DensityOperator:
    """Random full-rank n-qubit density operator, deterministic in ``seed``.

    Ginibre construction: ``G G^dag / tr(G G^dag)`` with i.i.d. complex
    normal entries.  The resulting ensemble (Hilbert-Schmidt measure) is
    unitarily invariant and full rank with probability one.  This is our
    choice of ensemble; sources describing random-pair transfer benchmarks
    do not pin one down.
    """
    dim = 2 ** check("n", n, int, 1)
    check("seed", seed, int, "nonnegative")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real)
