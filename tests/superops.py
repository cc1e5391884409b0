"""Kronecker-product superoperators on the column-stacked ``vec(rho)``: the
tests' oracle for the library's Pauli-product generators.

``L_vec = B L B^dag`` relates the two forms, with ``B = lindblad.pauli_basis(n)``.
"""

import numpy as np

from noisectrl.qops import as_matrix


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of the last two axes, broadcast over the rest."""
    n, m = a.shape[-1], b.shape[-1]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (n * m, n * m))


def commutator_superop(h) -> np.ndarray:
    """Superoperator H_hat with H_hat vec(rho) = vec(H rho - rho H).

    Under column stacking this is ``1 kron H - H^T kron 1``.  A stack
    (..., N, N) of operators gives the stack (..., N^2, N^2).
    """
    m = as_matrix(h)
    ident = np.eye(m.shape[-1])
    return _kron(ident, m) - _kron(m.swapaxes(-1, -2), ident)


def dissipator_superop(v) -> np.ndarray:
    """Unit-amplitude noise superoperator Gamma_hat for a Lindblad operator V.

    Gamma_hat vec(rho) = -vec(V rho V^dag - (V^dag V rho + rho V^dag V)/2),
    i.e. the dissipative part of the master equation enters as
    ``d vec(rho)/dt = -gamma Gamma_hat vec(rho)``.  Stacks (..., N, N) map
    to stacks (..., N^2, N^2) as in :func:`commutator_superop`.
    """
    m = as_matrix(v)
    ident = np.eye(m.shape[-1])
    vdv = m.conj().swapaxes(-1, -2) @ m
    d_hat = _kron(m.conj(), m) - 0.5 * (_kron(ident, vdv) + _kron(vdv.swapaxes(-1, -2), ident))
    return -d_hat
