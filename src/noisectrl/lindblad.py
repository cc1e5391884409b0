"""Liouvillians, propagators and closed-form channels.

Sign conventions, fixed once and pinned by the tests:

* master equation  ``d/dt vec(rho) = -L vec(rho)``
* ``L = i H_hat + sum_l gamma_l Gamma_hat_l``  with ``H_hat`` the commutator
  superoperator and ``Gamma_hat = -D_hat`` minus the dissipator superoperator,
  so that ``d rho/dt = gamma (V rho V^dag - {V^dag V, rho}/2) - i [H, rho]``.
* propagator of a slice ``X = exp(-dt L)``.

A system's generators live in the Pauli basis: the orthonormal basis
``{P_a / sqrt(N)}`` of the ``N^2 = 4^n`` Pauli strings
``P_a = p_{a_1} kron ... kron p_{a_n}`` with ``p = (1, sigma_x, sigma_y,
sigma_z)`` and string index ``a = sum_q a_q 4^(n-q)`` (qubit 1 most
significant, as for computational states).  :func:`pauli_basis` is the
unitary ``B`` whose column ``a`` is ``vec(P_a) / sqrt(N)``, with ``vec``
the column stacking of :mod:`noisectrl.qops`: a state has the real
coordinates ``r = B^dag vec(rho)``, ``r_a = tr(P_a rho) / sqrt(N)``, and a
generator ``L`` there acts on ``vec(rho)`` as ``B L B^dag``.  A Lindblad
generator maps Hermitian matrices to Hermitian matrices, so there it is a
real matrix; trace preservation reads "row 0 is zero", and since ``B`` is
unitary every Frobenius distance is unchanged.  Every generator comes from
:func:`_generator_terms`; the closed-form single-qubit channels and
:func:`theta_generator` act on ``vec(rho)``.

A system's real generator rows (drift plus background noise, ``i H_hat``
of each control, ``Gamma_hat`` of each switchable noise) are built from
Pauli products, one stack per row set read, kept by
``ControlSystem.generator_rows``.  :func:`liouvillians`, the one
contraction of slice amplitudes with them, reads only the rows some slice
drives; :func:`assemble_liouvillian` is its one-slice form.  Both return
real Pauli-basis generators.  States return to ``vec(rho)`` only where
they leave the library: in ``optim.Trajectory.states`` and in the cached
holds of ``schedule.propagate_schedule``.  Entry ``(i, j)`` of an operator
lies in the *flip sector* ``i ^ j``, and ``P_a`` has entries only in the
sector whose bit for qubit q is set where ``a_q`` is x or y; so ``B`` is
block diagonal in the ``2^n`` sectors, and a cached hold exponentiates
only the blocks of the groups of sectors its generator couples.
Generators and GRAPE propagators are dense; :func:`propagator` is one
exponential of the whole generator.  The target scale is a handful of
qubits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

import numpy as np

from . import _expm
from .exceptions import NumericalHealthError, check
from .qops import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, as_matrix

__all__ = [
    "pauli_basis",
    "liouvillians", "assemble_liouvillian",
    "propagator",
    "v_theta", "theta_generator", "theta_channel_exact", "diag_channel_theta",
    "BathParams", "heat_bath_generator",
]

_PAULIS = np.array([IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z])

# relative size of the imaginary part and of row 0 of a Pauli-basis
# generator that still counts as rounding
_ROUNDING = 1e-12


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
        strings = np.kron(strings[:, None], _PAULIS[None]).reshape(-1, dim, dim)
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


def _generator_terms(n: int, hams, noises) -> np.ndarray:
    """Real Pauli-basis generators on n qubits, checked, as one stack: ``i H_hat(H)``
    of each Hamiltonian in ``hams`` (count, N, N), then ``Gamma_hat(V)`` of each
    operator V in ``noises``.

    Each comes straight from Pauli products (see :func:`_pauli_tables`): a
    commutator is a gather of the Hamiltonian's coefficients, and ``V P_b
    V^dag`` runs over the pairs of V's nonzero coefficients.  Raises
    :class:`NumericalHealthError` if an imaginary part or row 0 (trace
    preservation) of a generator exceeds rounding; row 0 is then set to zero.
    """
    basis, xor, phase, comm, anti = _pauli_tables(n)
    size = len(basis)
    cols = np.arange(size)
    re, im = np.ascontiguousarray(basis.real), np.ascontiguousarray(basis.imag)

    def coefficients(ops):    # real products: a complex one of a few rows can stall on a BLAS thread
        vecs = ops.swapaxes(-1, -2).reshape(len(ops), size)
        a, b = np.ascontiguousarray(vecs.real), np.ascontiguousarray(vecs.imag)
        return (a @ re + b @ im + 1j * (b @ re - a @ im)) / np.sqrt(2 ** n)

    def dissipator(v):
        c = coefficients(v[None])[0]
        out = coefficients((v.conj().T @ v)[None])[0][xor] * anti
        ls = np.flatnonzero(c)[:, None]
        for k in ls[:, 0]:
            b_l = cols ^ ls
            out[k ^ b_l, cols] -= (c[k] * c[ls].conj()) * phase[cols, ls] * phase[k, b_l]
        return _real(out[None], "dissipator")[0]

    stack = np.empty((len(hams) + len(noises), size, size))
    np.multiply(_real(coefficients(hams), "Hamiltonian")[:, xor], comm, out=stack[:len(hams)])
    for k, v in enumerate(noises, len(hams)):
        stack[k] = dissipator(v)
    _require_rounding(np.abs(stack[:, 0]).max(axis=-1),
                      _ROUNDING * np.abs(stack).max(axis=(1, 2)),
                      "row 0 (trace preservation) of generator")
    stack[:, 0] = 0.0
    return stack


def _generator_stack(system, rows) -> np.ndarray:
    """Rows ``rows`` (ascending) of a system's real Pauli-basis generators from
    :func:`_generator_terms`, as one read-only stack (kept by ``ControlSystem``).

    Rows: drift ``i H_hat(H_0)`` plus every background ``rate Gamma_hat(V)``,
    then ``i H_hat(H_j)`` per control, then ``Gamma_hat(V_l)`` per
    switchable noise.
    """
    hams = np.concatenate([as_matrix(system.h0)[None], _operators(system.controls, system.dim)])
    rows = np.asarray(rows, int)
    h = rows[rows < len(hams)]
    noises = [as_matrix(system.noises[row - len(hams)].operator) for row in rows[len(h):]]
    stack = _generator_terms(system.n, hams[h], noises)
    if 0 in h:
        background = [(as_matrix(op), rate) for op, rate in system.background_noises if rate > 0]
        gens = _generator_terms(system.n, hams[:0], [op for op, _ in background])
        for (_, rate), gen in zip(background, gens):
            stack[0] += rate * gen
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
    N^2), one contraction of the amplitudes with the generator rows that
    some slice drives (``ControlSystem.generator_rows``), so a row no slice
    drives is not built for it.  Background noise is part of every slice.
    """
    u, gamma = _amplitudes(system, u, gamma)
    amps = np.concatenate([np.ones((len(u), 1)), u, gamma], axis=1)
    used = np.flatnonzero(amps.any(axis=0))
    stack = system.generator_rows(used)
    return (amps[:, used] @ stack.reshape(len(used), -1)).reshape((len(u),) + stack.shape[1:])


def assemble_liouvillian(system, u, gamma) -> np.ndarray:
    """Build L = i H_hat(H_0 + sum_j u_j H_j) + sum_l gamma_l Gamma_hat_l.

    The one-slice form of :func:`liouvillians`, in the real Pauli basis:
    ``u`` are unbounded real coherent amplitudes, one per control; ``gamma``
    must lie in [0, gamma_max] for each switchable noise channel.
    Background (non-switchable) noise terms of the system are always added.
    """
    return liouvillians(system, np.asarray(u, dtype=float)[None],
                        np.asarray(gamma, dtype=float)[None])[0]


def propagator(ell: np.ndarray, dt: float) -> np.ndarray:
    """Slice propagator X = exp(-dt L), valid for non-normal L, in L's basis: one
    ``_expm.expm`` call, which raises on anything but a nonempty square matrix."""
    check("dt", dt, rule="nonnegative")
    return _expm.expm(-dt * np.asarray(ell))


# ---------------------------------------------------------------------------
# one-parameter noise family  V_theta = [[0, 1-theta], [theta, 0]]

def v_theta(theta: float) -> np.ndarray:
    """Lindblad operator [[0, 1-theta], [theta, 0]], from which every noise
    operator is built: sigma- (amplitude damping) at theta = 0, sigma_x/2
    (bit flip) at 1/2 and sigma+ at 1, each equal to that literal bit for bit."""
    theta = check("theta", theta, rule=(0, 1))
    return np.array([[0.0, 1.0 - theta], [theta, 0.0]], dtype=complex)


def theta_generator(theta: float) -> np.ndarray:
    """4x4 noise superoperator of V_theta at unit amplitude on ``vec(rho)``:
    ``B D B^dag`` of its real Pauli-basis generator D at n = 1."""
    b = pauli_basis(1)
    return b @ _generator_terms(1, np.empty((0, 2, 2)), [v_theta(theta)])[0] @ b.conj().T


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


def diag_channel_theta(theta: float, gamma_t: float, n: int) -> np.ndarray:
    """Action of the theta channel on the diagonal of an n-qubit state.

    Returns the 2^n x 2^n stochastic matrix R_theta = 1^(n-1) kron B with
    the single-qubit block B acting on each population pair: the population
    corners of :func:`theta_channel_exact` at the same ``gamma_t`` (rate x
    time).  theta=0 gives the amplitude-damping block (column stochastic),
    theta=1/2 the bit-flip averaging block (doubly stochastic).
    """
    check("n", n, int, 1)
    exact = theta_channel_exact(theta, gamma_t)
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

    gamma (1 +/- n) Gamma_hat(V_0) + gamma n Gamma_hat(V_1), V_0 = sigma- and
    V_1 = sigma+, with the plus sign for bosons and minus for fermions.  At
    beta -> inf only the lowering term survives (pure amplitude damping);
    the fermionic beta -> 0 limit is proportional to the joint
    {sigma+, sigma-} generator.
    """
    n_occ = params.occupation()
    sign = 1.0 if params.statistics == "bosonic" else -1.0
    return params.gamma * ((1.0 + sign * n_occ) * theta_generator(0.0)
                           + n_occ * theta_generator(1.0))
