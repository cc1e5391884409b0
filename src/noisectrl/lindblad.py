"""Liouvillians, propagators and closed-form channels.

Sign conventions, fixed once and pinned by the tests:

* master equation  ``d/dt vec(rho) = -L vec(rho)``
* ``L = i H_hat + sum_l gamma_l Gamma_hat_l``  with ``H_hat`` the commutator
  superoperator and ``Gamma_hat = -D_hat`` minus the dissipator superoperator,
  so that ``d rho/dt = gamma (V rho V^dag - {V^dag V, rho}/2) - i [H, rho]``.
* propagator of a slice ``X = exp(-dt L)``.

Two bases are in use.  :func:`commutator_superop`, :func:`dissipator_superop`
and the closed-form single-qubit channels act on the column-stacked
``vec(rho)`` of :mod:`noisectrl.qops`.  A system's generators live in the
Pauli basis: the orthonormal basis ``{P_a / sqrt(N)}`` of the ``N^2 = 4^n``
Pauli strings ``P_a = p_{a_1} kron ... kron p_{a_n}`` with
``p = (1, sigma_x, sigma_y, sigma_z)`` and string index
``a = sum_q a_q 4^(n-q)`` (qubit 1 most significant, as for computational
states).  :func:`pauli_basis` is the unitary ``B`` whose column ``a`` is
``vec(P_a) / sqrt(N)``: a state has the real coordinates
``r = B^dag vec(rho)``, ``r_a = tr(P_a rho) / sqrt(N)``, and a
superoperator ``S`` becomes ``B^dag S B``.  A Lindblad generator maps
Hermitian matrices to Hermitian matrices, so there it is a real matrix;
trace preservation reads "row 0 is zero", and since ``B`` is unitary every
Frobenius distance is unchanged.

Each system's real generator stack ``(1 + C + L, N^2, N^2)`` (drift plus
background noise, then ``i H_hat`` of each control, then ``Gamma_hat`` of
each switchable noise) is built once, straight from Pauli products, on
first use of ``ControlSystem.pauli_generators``.  :func:`liouvillians`
contracts slice amplitudes with that stack, so it and
:func:`assemble_liouvillian` return real Pauli-basis generators.  States
return to ``vec(rho)`` only where they leave the library: in
``optim.Trajectory.states`` and in the cached hold propagators of
``schedule.propagate_schedule``.  Everything is dense; the target scale is
a handful of qubits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

import numpy as np

from . import _expm
from .exceptions import NumericalHealthError, check
from .qops import IDENTITY_2, SIGMA_MINUS, SIGMA_PLUS, SIGMA_X, SIGMA_Y, SIGMA_Z, as_matrix

__all__ = [
    "commutator_superop", "dissipator_superop", "pauli_basis",
    "liouvillians", "assemble_liouvillian",
    "propagator",
    "v_theta", "theta_generator", "theta_channel_exact",
    "ThetaChannelParams", "diag_channel_theta",
    "BathParams", "heat_bath_generator",
    "trotter_decoupled_propagator",
]

_PAULIS = np.array([IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z])

# relative size of the imaginary part and of row 0 of a Pauli-basis
# generator that still counts as rounding
_ROUNDING = 1e-12


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


@lru_cache(maxsize=None)
def _pauli_tables(n: int):
    """Basis B, product index ``a ^ b``, phase w, commutator and anticommutator tables.

    With the order (1, x, y, z) the product of two Pauli strings is, up to
    its phase ``w``, the string whose index is the bitwise XOR of theirs:
    ``P_a P_b = w[a, b] P_(a^b)``.  So ``A P_b`` has the coefficient
    ``alpha[a^b] w[a^b, b]`` on ``P_a`` and ``P_b A`` the coefficient
    ``alpha[a^b] w[b, a^b]``; ``comm`` holds ``i (w[a^b, b] - w[b, a^b])``
    (0 or +-2) and ``anti`` holds ``(w[a^b, b] + w[b, a^b]) / 2`` (0 or +-1).
    """
    idx = np.arange(4)
    w1 = np.einsum("abij,abji->ab", _PAULIS[idx[:, None] ^ idx],
                   _PAULIS[:, None] @ _PAULIS[None]) / 2
    strings, phase = np.ones((1, 1, 1), dtype=complex), np.ones((1, 1), dtype=complex)
    for _ in range(n):
        dim = 2 * strings.shape[-1]
        strings = _kron(strings[:, None], _PAULIS).reshape(-1, dim, dim)
        phase = np.kron(phase, w1)
    basis = np.ascontiguousarray(strings.transpose(0, 2, 1).reshape(dim * dim, -1).T) / np.sqrt(dim)
    cols = np.arange(dim * dim)
    xor = np.bitwise_xor.outer(cols, cols)
    left, right = phase[xor, cols], phase[cols, xor]
    comm = (1j * (left - right)).real
    anti = (0.5 * (left + right)).real
    tables = (basis, xor, phase, comm, anti)
    for table in tables:
        table.setflags(write=False)
    return tables


def pauli_basis(n: int) -> np.ndarray:
    """Unitary (4^n, 4^n) matrix whose column a is vec(P_a) / sqrt(2^n).

    ``B^dag vec(rho)`` are the real Pauli coordinates of a Hermitian
    ``rho`` and ``B^dag S B`` the Pauli-basis form of a superoperator ``S``
    on ``vec(rho)``; the returned array is shared and read-only.
    """
    return _pauli_tables(check("n", n, int, 1))[0]


def _operators(terms, dim: int) -> np.ndarray:
    """The operators of controls or noises as one (count, N, N) stack."""
    return np.array([as_matrix(t.operator) for t in terms], dtype=complex).reshape(-1, dim, dim)


def _require_rounding(err: np.ndarray, tol: np.ndarray, what: str) -> None:
    """Raise NumericalHealthError at the first k whose err[k] exceeds tol[k] (or is NaN)."""
    bad = np.flatnonzero(~(err <= tol))
    if bad.size:
        k = bad[0]
        raise NumericalHealthError(f"{what} {k}: {err[k]:.2e} exceeds rounding ({tol[k]:.2e})")


def _real(x: np.ndarray, what: str) -> np.ndarray:
    """Real part of each x[k], after checking its imaginary part is rounding."""
    axes = tuple(range(1, x.ndim))
    _require_rounding(np.abs(x.imag).max(axis=axes), _ROUNDING * np.abs(x).max(axis=axes),
                      f"imaginary part of {what}")
    return x.real


def _generator_stack(system) -> np.ndarray:
    """The real Pauli-basis generators of a system, checked, as one read-only stack.

    Rows: drift ``i H_hat(H_0)`` plus every background ``rate Gamma_hat(V)``,
    then ``i H_hat(H_j)`` per control, then ``Gamma_hat(V_l)`` per
    switchable noise.  Each comes straight from Pauli products (see
    :func:`_pauli_tables`): a commutator is a gather of the Hamiltonian's
    coefficients, and ``V P_b V^dag`` runs over the pairs of V's nonzero
    coefficients.  Raises :class:`NumericalHealthError` if an imaginary part
    or row 0 (trace preservation) of a generator exceeds rounding.
    """
    basis, xor, phase, comm, anti = _pauli_tables(system.n)
    size = len(basis)
    cols = np.arange(size)

    def coefficients(ops):
        vecs = ops.swapaxes(-1, -2).reshape(len(ops), size)
        return vecs @ basis.conj() / np.sqrt(system.dim)

    def dissipator(v):
        c = coefficients(v[None])[0]
        out = coefficients((v.conj().T @ v)[None])[0][xor] * anti
        ls = np.flatnonzero(c)[:, None]
        for k in ls[:, 0]:
            b_l = cols ^ ls
            out[k ^ b_l, cols] -= (c[k] * c[ls].conj()) * phase[cols, ls] * phase[k, b_l]
        return _real(out[None], "dissipator")[0]

    hams = np.concatenate([as_matrix(system.h0)[None], _operators(system.controls, system.dim)])
    stack = np.empty((len(hams) + len(system.noises), size, size))
    np.multiply(_real(coefficients(hams), "Hamiltonian")[:, xor], comm, out=stack[:len(hams)])
    for op, rate in system.background_noises:
        if rate > 0:
            stack[0] += rate * dissipator(as_matrix(op))
    for k, noise in enumerate(system.noises):
        stack[len(hams) + k] = dissipator(as_matrix(noise.operator))

    _require_rounding(np.abs(stack[:, 0]).max(axis=-1),
                      _ROUNDING * np.abs(stack).max(axis=(1, 2)),
                      "row 0 (trace preservation) of generator")
    stack[:, 0] = 0.0
    stack.setflags(write=False)
    return stack


def _amplitudes(system, u, gamma):
    """``u`` (M, m) and ``gamma`` (M, l) as float arrays, or a ValueError.

    The one definition of valid amplitudes: each noise amplitude lies in
    [0, gamma_max] of its channel (NaN does not); coherent ones are free.
    """
    u = np.asarray(u, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if u.shape[1:] != (len(system.controls),):
        raise ValueError(f"amplitudes have control shape {u.shape[1:]}, "
                         f"system expects {len(system.controls)} columns")
    if gamma.shape != (len(u), len(system.noises)):
        raise ValueError(f"amplitudes have noise shape {gamma.shape}, "
                         f"expected {(len(u), len(system.noises))}")
    inside = (gamma >= 0) & (gamma <= system.gamma_bounds)
    if not inside.all():
        k, idx = np.argwhere(~inside)[0]
        noise = system.noises[idx]
        raise ValueError(f"noise amplitude gamma[{k}, {idx}] = {gamma[k, idx]} for "
                         f"'{noise.label}' is not a finite number in [0, {noise.gamma_max}]")
    return u, gamma


def liouvillians(system, u, gamma) -> np.ndarray:
    """Slice generators L_k = i H_hat(H_0 + sum_j u_kj H_j) + sum_l gamma_kl Gamma_hat_l.

    ``u`` (M, m) and ``gamma`` (M, l), checked by :func:`_amplitudes`, hold
    one row per slice; the result is the real Pauli-basis stack (M, N^2,
    N^2), one contraction of the amplitudes with the system's generator
    stack.  The background (non-switchable) noise is part of every slice.
    """
    u, gamma = _amplitudes(system, u, gamma)
    stack = system.pauli_generators
    amps = np.concatenate([np.ones((len(u), 1)), u, gamma], axis=1)
    size = stack.shape[-1]
    return (amps @ stack.reshape(len(stack), -1)).reshape(len(u), size, size)


def assemble_liouvillian(system, u, gamma) -> np.ndarray:
    """Build L = i H_hat(H_0 + sum_j u_j H_j) + sum_l gamma_l Gamma_hat_l.

    The single-slice form of :func:`liouvillians`, in the real Pauli basis:
    ``u`` are unbounded real coherent amplitudes, one per control; ``gamma``
    must lie in [0, gamma_max] for each switchable noise channel.
    Background (non-switchable) noise terms of the system are always added.
    """
    return liouvillians(system, np.asarray(u, dtype=float)[None],
                        np.asarray(gamma, dtype=float)[None])[0]


def propagator(ell: np.ndarray, dt: float) -> np.ndarray:
    """Slice propagator X = exp(-dt L), valid for non-normal L, in L's basis."""
    check("dt", dt, rule="nonnegative")
    return _expm.expm(-dt * np.asarray(ell))


# ---------------------------------------------------------------------------
# one-parameter noise family  V_theta = [[0, 1-theta], [theta, 0]]

def v_theta(theta: float) -> np.ndarray:
    """Interpolating Lindblad generator: amplitude damping at theta=0,
    bit flip (sigma_x/2) at theta=1/2."""
    theta = check("theta", theta, rule=(0, 1))
    return np.array([[0.0, 1.0 - theta], [theta, 0.0]], dtype=complex)


def theta_generator(theta: float) -> np.ndarray:
    """4x4 noise superoperator of V_theta at unit amplitude."""
    return dissipator_superop(v_theta(theta))


def theta_channel_exact(theta: float, gamma_t: float) -> np.ndarray:
    """Closed form of exp(-gamma*t Gamma(theta)) for one qubit.

    ``gamma_t`` is the dimensionless product (rate x time).  Basis order is
    the column-stacked (rho00, rho10, rho01, rho11).  Used as an analytic
    oracle against the generic matrix-exponential path.
    """
    check("theta", theta, rule=(0, 1))
    check("gamma_t", gamma_t, rule="nonnegative")
    tb = 1.0 - theta
    c = 1.0 / (tb * tb + theta * theta)
    eps = np.exp(-gamma_t / c)
    epsp = np.exp(gamma_t * (tb * theta - 0.5))
    ch = np.cosh(gamma_t * tb * theta)
    sh = np.sinh(gamma_t * tb * theta)
    return np.array([
        [c * (tb * tb + theta * theta * eps), 0, 0, c * tb * tb * (1 - eps)],
        [0, epsp * ch, epsp * sh, 0],
        [0, epsp * sh, epsp * ch, 0],
        [c * theta * theta * (1 - eps), 0, 0, c * (theta * theta + tb * tb * eps)],
    ], dtype=complex)


@dataclass(frozen=True)
class ThetaChannelParams:
    """Parameters of the diagonal-action theta channel."""

    theta: float
    gamma_star: float
    t: float

    def __post_init__(self):
        check("theta", self.theta, rule=(0, 1))
        check("gamma_star", self.gamma_star, rule="positive")
        check("t", self.t, rule="nonnegative")


def diag_channel_theta(params: ThetaChannelParams, n: int) -> np.ndarray:
    """Action of the theta channel on the diagonal of an n-qubit state.

    Returns the 2^n x 2^n stochastic matrix R_theta(t) = 1^(n-1) kron B with
    the single-qubit block B acting on each population pair: the population
    corners of :func:`theta_channel_exact`.  theta=0 gives the
    amplitude-damping block (column stochastic), theta=1/2 the bit-flip
    averaging block (doubly stochastic).
    """
    check("n", n, int, 1)
    exact = theta_channel_exact(params.theta, params.gamma_star * params.t)
    return np.kron(np.eye(2 ** (n - 1)), exact[np.ix_([0, 3], [0, 3])].real)


# ---------------------------------------------------------------------------
# heat-bath generators

@dataclass(frozen=True)
class BathParams:
    """Bosonic or fermionic bath coupled through sigma_x to one qubit."""

    statistics: Literal["bosonic", "fermionic"]
    beta: float
    omega0: float
    gamma: float

    def __post_init__(self):
        if self.statistics not in ("bosonic", "fermionic"):
            raise ValueError("statistics must be 'bosonic' or 'fermionic'")
        if self.beta != np.inf:     # infinite beta is zero temperature
            check("beta", self.beta, rule="nonnegative")
        check("omega0", self.omega0, rule="positive")
        check("gamma", self.gamma, rule="positive")

    def occupation(self) -> float:
        """Planck / Fermi occupation n(omega0) = 1/(exp(beta omega0) -/+ 1)."""
        x = self.beta * self.omega0
        if self.statistics == "bosonic":
            if x == 0.0:
                raise ValueError("bosonic occupation diverges at beta = 0")
            if np.isinf(x):
                return 0.0
            return float(1.0 / np.expm1(x))
        if np.isinf(x):
            return 0.0
        return float(1.0 / (np.exp(x) + 1.0))


def heat_bath_generator(params: BathParams) -> np.ndarray:
    """Finite-temperature relaxation superoperator for one qubit.

    gamma (1 +/- n) Gamma_hat(sigma-) + gamma n Gamma_hat(sigma+), with the
    plus sign for bosons and minus for fermions.  At beta -> inf only the
    lowering term survives (pure amplitude damping); the fermionic beta -> 0
    limit is proportional to the joint {sigma+, sigma-} generator.
    """
    n_occ = params.occupation()
    sign = 1.0 if params.statistics == "bosonic" else -1.0
    down = dissipator_superop(SIGMA_MINUS)
    up = dissipator_superop(SIGMA_PLUS)
    return params.gamma * ((1.0 + sign * n_occ) * down + n_occ * up)


# ---------------------------------------------------------------------------
# Trotter decoupling of a diagonal drift from terminal bit-flip noise

def trotter_decoupled_propagator(h02, gamma: float, t: float, k: int) -> np.ndarray:
    """k-cycle alternating-sign product approximating exp(-t gamma Gamma_hat).

    ``h02`` is the diagonal operator on the first n-1 qubits whose coupling
    ``h02 kron sigma_z`` to the noisy terminal qubit is to be removed; the
    sign-inverted factor is what ideal pi_x pulses on that qubit produce.
    Converges to the bare bit-flip propagator as k grows, at first order
    (the error halves when k doubles).
    """
    check("t", t, rule="nonnegative")   # a non-finite gamma fails in the exponential
    check("k", k, int, 1)
    m = as_matrix(h02)
    n_rest = m.shape[0]
    coupling = np.kron(m, np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex))
    gam = gamma * dissipator_superop(np.kron(np.eye(n_rest), SIGMA_X / 2))
    h_hat = commutator_superop(coupling)
    h = t / (2 * k)
    halves = _expm.expm(np.array([-h * (gam + 1j * h_hat), -h * (gam - 1j * h_hat)]))
    return np.linalg.matrix_power(halves[0] @ halves[1], k)
