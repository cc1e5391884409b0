"""Piecewise-constant sequence propagation and gradient-based optimization.

A :class:`TransferProblem` fixes the horizon T and its M equal slices, of
length dt = T / M; a :class:`ControlSequence` is only the amplitudes, one
row per slice.  The error functional is the Frobenius distance between the
propagated and target states,

    delta_F^2 = || X_M ... X_1 r_0 - r_target ||^2,

with slice propagators X_k = exp(A_k), A_k = -dt L_k.  Everything here runs
in real arithmetic in the Pauli basis of :mod:`noisectrl.lindblad`: the
L_k are real (N^2, N^2) matrices from the system's generator stack and the
states are the real Pauli coordinates r = B^dag vec(rho), with B =
``pauli_basis(n)`` (columns vec(P_a) / sqrt(N), Pauli strings in base-4
order, qubit 1 most significant).  B is unitary, so delta_F is the
Frobenius distance of the density matrices; :func:`propagate` converts its
states back to column-stacked vec(rho) for ``Trajectory.states``.

The gradient is exact: with forward states f_k and backward vectors b_k,
the derivative of delta_F^2 along a generator direction D of slice k is
2 <Q_k, -dt D>, where Q_k = L(A_k^T, b_k f_k^T) = L(A_k, f_k b_k^T)^T is
the Frechet derivative of the exponential along a rank-one direction.  One
batched ``_expm.expm(A, derivative=True)`` call gives the forward
propagators and keeps each slice's Taylor state (the scaled powers x, ...,
x^5 of its degree-25 polynomial and its squaring ladder), from which all M
derivatives follow at the slice size without a second exponential and
without a solve: the polynomial's derivative along f_k b_k^T needs only the
25 Krylov vectors x^j f_k and (x^T)^j b_k of the scaled exponent x and a
constant Hankel table (Al-Mohy & Higham 2009, with a rank-one direction),
and the squaring ladder carries the derivative as thin factors while they
are narrower than half the slice size.  One derivative per slice serves every
direction.  :func:`optimize` keeps the forward states of its best point, so
its trajectory needs no second propagation.  The L_k are
non-normal, so no eigendecomposition is used.  Box constraints (noise
amplitudes in [0, gamma_max], coherent amplitudes free) are handled by a
projected limited-memory quasi-Newton iteration (scipy's L-BFGS-B);
:func:`optimize` imports ``scipy.optimize`` when it is called, so the other
CLI modes load no scipy module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _expm
from .exceptions import NumericalHealthError, check
from .lindblad import _amplitudes, liouvillians, pauli_basis
from .qops import _density, _health_spectra, vec

__all__ = [
    "ControlSequence", "TransferProblem", "Trajectory",
    "propagate", "error", "gradient",
    "OptimizationResult", "optimize", "optimize_restarts", "random_sequence",
]


@dataclass(frozen=True)
class ControlSequence:
    """Coherent (u) and noise (gamma) amplitudes, one row per time slice.

    A sequence holds no time: it is read on the slices of the
    :class:`TransferProblem` it is passed with, each ``problem.dt`` long, and
    :func:`_check_sequence` requires one row per slice of that problem.
    """

    u: np.ndarray          # (M, n_controls)
    gamma: np.ndarray      # (M, n_noises)

    def __post_init__(self):
        u = np.atleast_2d(np.asarray(self.u, dtype=float))
        g = np.atleast_2d(np.asarray(self.gamma, dtype=float))
        if u.shape[0] != g.shape[0] or u.shape[0] < 1:
            raise ValueError("u and gamma must agree on the number of slices")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "gamma", g)

    @property
    def slice_count(self) -> int:
        return self.u.shape[0]


@dataclass(frozen=True)
class TransferProblem:
    """Steer ``rho0`` to ``target``; both are kept as converted DensityOperator instances."""

    system: object
    rho0: object
    target: object
    total_time: float
    slices: int

    def __post_init__(self):
        check("slices", self.slices, int, 1)
        check("total_time", self.total_time, rule="positive")
        for name in ("rho0", "target"):
            rho = _density(getattr(self, name))
            if rho.dim != self.system.dim:
                raise ValueError("state dimensions do not match the system")
            object.__setattr__(self, name, rho)

    @property
    def dt(self) -> float:
        """The slice length T / M, for every sequence propagated on this problem."""
        return self.total_time / self.slices


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray              # (M+1, N^2) vectorized
    sorted_eigenvalues: np.ndarray  # (M+1, N) descending


def _coordinates(system, rho) -> np.ndarray:
    """Real Pauli coordinates B^dag vec(rho) of a Hermitian state."""
    return (pauli_basis(system.n).conj().T @ vec(rho)).real


def _check_sequence(problem, seq):
    """The one check that ties a sequence to its problem: its amplitudes (the
    shapes and noise bounds of :mod:`noisectrl.lindblad`), then one row per
    slice of the problem."""
    _amplitudes(problem.system, seq.u, seq.gamma)
    if seq.slice_count != problem.slices:
        raise ValueError(f"sequence has {seq.slice_count} slices, "
                         f"problem has {problem.slices}")


def _exponents(problem, u, gamma):
    """The slice exponents A_k = -dt L_k."""
    return -problem.dt * liouvillians(problem.system, u, gamma)


def _forward(problem, x):
    """The forward states f_0 .. f_M under the slice propagators x."""
    f = np.empty((len(x) + 1, x.shape[-1]))
    f[0] = _coordinates(problem.system, problem.rho0)
    for k in range(len(x)):
        f[k + 1] = x[k] @ f[k]
    return f


def _trajectory(problem, f) -> Trajectory:
    """The trajectory of the forward states f_0 .. f_M in Pauli coordinates."""
    f = f @ pauli_basis(problem.system.n).T
    dim = problem.system.dim
    # f[k] is vec(rho_k) (column stacking), so each row reshapes to rho_k^T
    spectra = _health_spectra(f.reshape(-1, dim, dim).transpose(0, 2, 1), "slice")
    times = problem.dt * np.arange(len(f))
    return Trajectory(times=times, states=f, sorted_eigenvalues=spectra)


def propagate(problem: TransferProblem, seq: ControlSequence) -> Trajectory:
    """Propagate slice by slice, recording every state and its spectrum.

    The states pass ``qops._health_spectra``, which names the first bad slice.
    """
    _check_sequence(problem, seq)
    x = _expm.expm(_exponents(problem, seq.u, seq.gamma))
    return _trajectory(problem, _forward(problem, x))


def error(problem: TransferProblem, seq: ControlSequence) -> float:
    """Frobenius distance of the propagated final state to the target."""
    _check_sequence(problem, seq)
    f = _forward(problem, _expm.expm(_exponents(problem, seq.u, seq.gamma)))
    if not np.all(np.isfinite(f[-1])):
        raise NumericalHealthError("propagation produced non-finite state")
    return float(np.linalg.norm(f[-1] - _coordinates(problem.system, problem.target)))


def _error_and_gradient(problem, u, gamma):
    """delta_F^2, its exact gradient (controls then noises) and the forward states."""
    x, frechet = _expm.expm(_exponents(problem, u, gamma), derivative=True)
    f = _forward(problem, x)
    m, dim2 = x.shape[:2]
    r = f[m] - _coordinates(problem.system, problem.target)
    b = np.empty((m, dim2))
    b[m - 1] = r
    for k in range(m - 1, 0, -1):
        b[k - 1] = x[k].T @ b[k]

    # Q_k = L(A_k^T, b_k f_k^T) = L(A_k, f_k b_k^T)^T, read with transposed indices; the
    # gradient needs every row, which is the exponents' stack once each column is driven
    q_t = frechet(f[:m], b)
    stack = problem.system.generator_rows(range(1 + u.shape[1] + gamma.shape[1]))
    grad = -2.0 * problem.dt * np.tensordot(q_t, stack[1:], axes=([2, 1], [1, 2]))
    return float(r @ r), grad, f


def gradient(problem: TransferProblem, seq: ControlSequence) -> np.ndarray:
    """Exact gradient of delta_F^2, shape (M, m + l).

    Columns are ordered as the system's controls followed by its noise
    channels.  Each slice's propagator derivative is the Frechet derivative
    of the exponential along the rank-one direction f_k b_k^T, read from
    the Taylor state of the same batched ``_expm.expm`` call that gives the
    forward propagators, so there is no step size, no second exponential
    and no solve.
    """
    _check_sequence(problem, seq)
    _, grad, _ = _error_and_gradient(problem, seq.u, seq.gamma)
    return grad


@dataclass(frozen=True)
class OptimizationResult:
    """The best sequence seen and its trajectory, equal to ``propagate(problem, sequence)``."""

    sequence: ControlSequence
    trajectory: Trajectory
    error_history: np.ndarray
    final_error: float
    iterations: int
    converged: bool
    message: str = field(default="")


class _ToleranceReached(Exception):
    pass


def optimize(problem: TransferProblem, init: ControlSequence,
             max_iters: int = 500, tol: float = 1e-6) -> OptimizationResult:
    """Minimize delta_F over bounded amplitudes from a given start.

    Stops when delta_F <= tol, on stall, or after ``max_iters`` iterations.
    When L-BFGS-B stops short of ``tol`` with iterations left (for instance
    on its relative-reduction test), it is restarted from the best point
    with fresh memory, within the same ``max_iters`` budget; a restart that
    completes no iteration or does not lower the best error is a stall and
    ends the run.  The returned history holds delta_F per objective
    evaluation, the reported ``iterations`` counts completed L-BFGS
    iterations over all restarts, and the reported sequence is the best one
    seen.  Its trajectory is built from the forward states that the
    objective kept at that point, so no slice is exponentiated again.
    """
    # imported here, not at module level: only optimize jobs pay its import
    import scipy.optimize

    _check_sequence(problem, init)    # L-BFGS-B would clip bad amplitudes silently
    check("max_iters", max_iters, int, 1)
    check("tol", tol, rule="nonnegative")
    m = init.slice_count
    n_c = init.u.shape[1]
    n_g = init.gamma.shape[1]
    bounds = [(None, None)] * (m * n_c)
    for g_max in problem.system.gamma_bounds:
        bounds.extend([(0.0, g_max)] * m)
    # parameter layout: all u (slice-major), then all gamma (noise-major)
    x0 = np.concatenate([init.u.ravel(), init.gamma.T.ravel()])

    history: list[float] = []
    best = {"err": np.inf, "x": x0, "f": None}
    iterations = 0

    def count_iteration(*_):
        nonlocal iterations
        iterations += 1

    def objective(xflat):
        u = xflat[:m * n_c].reshape(m, n_c)
        gamma = xflat[m * n_c:].reshape(n_g, m).T
        e2, grad, f = _error_and_gradient(problem, u, gamma)
        if not np.isfinite(e2):
            raise NumericalHealthError("objective became non-finite")
        err = float(np.sqrt(e2))
        history.append(err)
        if err < best["err"]:
            best["err"] = err
            best["x"] = xflat.copy()
            best["f"] = f
        gflat = np.concatenate([grad[:, :n_c].ravel(), grad[:, n_c:].T.ravel()])
        if err <= tol:
            raise _ToleranceReached
        return e2, gflat

    converged = False
    try:
        while True:
            before, err_before = iterations, best["err"]
            res = scipy.optimize.minimize(
                objective, best["x"], jac=True, method="L-BFGS-B", bounds=bounds,
                callback=count_iteration,
                options=dict(maxiter=max_iters - iterations, ftol=0.0, gtol=1e-16,
                             maxcor=20))
            message = str(res.message)
            stalled = iterations == before or best["err"] >= err_before
            if stalled or iterations >= max_iters:
                break
    except _ToleranceReached:
        converged = True
        message = "tolerance reached"

    xb = best["x"]
    seq = ControlSequence(u=xb[:m * n_c].reshape(m, n_c),
                          gamma=xb[m * n_c:].reshape(n_g, m).T)
    return OptimizationResult(sequence=seq, trajectory=_trajectory(problem, best["f"]),
                              error_history=np.array(history),
                              final_error=best["err"], iterations=iterations,
                              converged=converged, message=message)


def random_sequence(problem: TransferProblem, seed: int,
                    noise_blocks: int | None = None,
                    u_scale: float = 1.0) -> ControlSequence:
    """Random starting sequence, deterministic in the seed.

    With ``noise_blocks`` set, the noise amplitudes are full-on in that
    many equal-duration blocks separated by equal off gaps (the block
    initialisation that steers optimizations toward economic solutions);
    otherwise they are uniform in [0, gamma_max].
    """
    check("seed", seed, int, "nonnegative")
    check("u_scale", u_scale, rule="nonnegative")
    rng = np.random.default_rng(seed)
    m = problem.slices
    n_c = len(problem.system.controls)
    n_g = len(problem.system.noises)
    u = rng.uniform(-u_scale, u_scale, size=(m, n_c))
    bounds = problem.system.gamma_bounds
    if noise_blocks is None:
        gamma = rng.uniform(0.0, 1.0, size=(m, n_g)) * bounds[None, :]
    else:
        check("noise_blocks", noise_blocks, int, 1)
        chunk = m / (2.0 * noise_blocks)
        on = (np.floor(np.arange(m) / chunk).astype(int) % 2) == 0
        gamma = np.where(on[:, None], bounds[None, :], 0.0)
    return ControlSequence(u=u, gamma=gamma)


def optimize_restarts(problem: TransferProblem, restarts: int = 9, seed: int = 0,
                      noise_blocks: int | None = None, u_scale: float = 1.0,
                      max_iters: int = 500, tol: float = 1e-6):
    """Best-of-R multistart wrapper around :func:`optimize`.

    Returns ``(best_result, all_final_errors)``; stops early once a
    restart reaches the tolerance.
    """
    check("restarts", restarts, int, 1)
    check("seed", seed, int, "nonnegative")
    best = None
    finals = []
    for r in range(restarts):
        init = random_sequence(problem, seed + 1000 * r, noise_blocks=noise_blocks,
                               u_scale=u_scale)
        result = optimize(problem, init, max_iters=max_iters, tol=tol)
        finals.append(result.final_error)
        if best is None or result.final_error < best.final_error:
            best = result
        if best.final_error <= tol:
            break
    return best, finals
