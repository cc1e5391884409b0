"""Piecewise-constant sequence propagation and gradient-based optimization.

The error functional is the Frobenius distance between the propagated and
target states,

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
2 <Q_k, -dt D>, where Q_k = L(A_k^T, b_k f_k^T) is the Frechet derivative
of the exponential.  One batched call of ``_expm.expm_frechet`` computes
all M of them at the slice size, from the Pade-13 powers of the scaled
A_k^T and their derivatives (Al-Mohy & Higham 2009, Alg. 6.4), so it
serves every direction; the L_k are non-normal, so no eigendecomposition
is used.  Box constraints (noise amplitudes in [0, gamma_max], coherent
amplitudes free) are handled by a projected limited-memory quasi-Newton
iteration (scipy's L-BFGS-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from . import _expm
from .exceptions import NumericalHealthError, check
from .lindblad import _amplitudes, liouvillians, pauli_basis
from .qops import _density, unvec, vec

__all__ = [
    "ControlSequence", "TransferProblem", "Trajectory",
    "propagate", "error", "gradient",
    "OptimizationResult", "optimize", "optimize_restarts", "random_sequence",
]

# tolerance of propagate()'s Hermiticity, unit-trace and positivity check
_HEALTH_ATOL = 1e-6


@dataclass(frozen=True)
class ControlSequence:
    """M uniform time slices of coherent (u) and noise (gamma) amplitudes."""

    dt: float
    u: np.ndarray          # (M, n_controls)
    gamma: np.ndarray      # (M, n_noises)

    def __post_init__(self):
        u = np.atleast_2d(np.asarray(self.u, dtype=float))
        g = np.atleast_2d(np.asarray(self.gamma, dtype=float))
        check("dt", self.dt, rule="positive")
        if u.shape[0] != g.shape[0] or u.shape[0] < 1:
            raise ValueError("u and gamma must agree on the number of slices")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "gamma", g)

    @property
    def slice_count(self) -> int:
        return self.u.shape[0]

    @property
    def duration(self) -> float:
        return self.dt * self.slice_count

    def refine(self, factor: int = 2) -> "ControlSequence":
        """Split every slice into `factor` identical shorter slices."""
        check("factor", factor, int, 1)
        return ControlSequence(dt=self.dt / factor,
                               u=np.repeat(self.u, factor, axis=0),
                               gamma=np.repeat(self.gamma, factor, axis=0))


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
    _amplitudes(problem.system, seq.u, seq.gamma)
    if abs(seq.duration - problem.total_time) > 1e-9 * max(1.0, problem.total_time):
        raise ValueError("sequence duration does not match the problem horizon")


def _forward(problem, u, gamma):
    """Slice generators L, propagators X = exp(-dt L) and the forward states f."""
    ell = liouvillians(problem.system, u, gamma)
    x = _expm.expm(-problem.dt * ell)
    f = np.empty((len(x) + 1, x.shape[-1]))
    f[0] = _coordinates(problem.system, problem.rho0)
    for k in range(len(x)):
        f[k + 1] = x[k] @ f[k]
    return ell, x, f


def propagate(problem: TransferProblem, seq: ControlSequence) -> Trajectory:
    """Propagate slice by slice, recording every state and its spectrum."""
    _check_sequence(problem, seq)
    _, _, f = _forward(problem, seq.u, seq.gamma)
    f = f @ pauli_basis(problem.system.n).T
    m = seq.slice_count
    dim = problem.system.dim
    spectra = np.empty((m + 1, dim))
    for k in range(m + 1):
        rho = unvec(f[k])
        herm = np.abs(rho - rho.conj().T).max()
        tr = np.trace(rho).real
        evals = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
        if herm > _HEALTH_ATOL or abs(tr - 1.0) > _HEALTH_ATOL or evals.min() < -_HEALTH_ATOL:
            raise NumericalHealthError(
                f"state at slice {k} violates density-operator invariants "
                f"(herm {herm:.2e}, trace dev {abs(tr-1):.2e}, min eig {evals.min():.2e})")
        spectra[k] = evals[::-1]
    times = problem.dt * np.arange(m + 1)
    return Trajectory(times=times, states=f, sorted_eigenvalues=spectra)


def error(problem: TransferProblem, seq: ControlSequence) -> float:
    """Frobenius distance of the propagated final state to the target."""
    _check_sequence(problem, seq)
    _, _, f = _forward(problem, seq.u, seq.gamma)
    if not np.all(np.isfinite(f[-1])):
        raise NumericalHealthError("propagation produced non-finite state")
    return float(np.linalg.norm(f[-1] - _coordinates(problem.system, problem.target)))


def _error_and_gradient(problem, u, gamma):
    """delta_F^2 and its exact gradient, columns ordered controls then noises."""
    ell, x, f = _forward(problem, u, gamma)
    m, dim2 = x.shape[:2]
    r = f[m] - _coordinates(problem.system, problem.target)
    b = np.empty((m, dim2))
    b[m - 1] = r
    for k in range(m - 1, 0, -1):
        b[k - 1] = x[k].T @ b[k]

    # Q_k = L(A_k^T, b_k f_k^T), the Frechet derivative of exp at A_k^T
    at = -problem.dt * ell.transpose(0, 2, 1)
    q = _expm.expm_frechet(at, b[:, :, None] * f[:m, None, :])[1]
    grad = -2.0 * problem.dt * np.einsum("kab,cab->kc", q,
                                          problem.system.pauli_generators[1:])
    return float(r @ r), grad


def gradient(problem: TransferProblem, seq: ControlSequence) -> np.ndarray:
    """Exact gradient of delta_F^2, shape (M, m + l).

    Columns are ordered as the system's controls followed by its noise
    channels.  Each slice's propagator derivative is the Frechet derivative
    of the exponential, computed with the Pade exponential itself (one
    batched ``_expm.expm_frechet`` call), so there is no step size.
    """
    _check_sequence(problem, seq)
    _, grad = _error_and_gradient(problem, seq.u, seq.gamma)
    return grad


@dataclass(frozen=True)
class OptimizationResult:
    sequence: ControlSequence
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
    seen.
    """
    _check_sequence(problem, init)
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
    best = {"err": np.inf, "x": x0}
    iterations = 0

    def count_iteration(*_):
        nonlocal iterations
        iterations += 1

    def objective(xflat):
        u = xflat[:m * n_c].reshape(m, n_c)
        gamma = xflat[m * n_c:].reshape(n_g, m).T
        e2, grad = _error_and_gradient(problem, u, gamma)
        if not np.isfinite(e2):
            raise NumericalHealthError("objective became non-finite")
        err = float(np.sqrt(e2))
        history.append(err)
        if err < best["err"]:
            best["err"] = err
            best["x"] = xflat.copy()
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
    seq = ControlSequence(dt=init.dt,
                          u=xb[:m * n_c].reshape(m, n_c),
                          gamma=xb[m * n_c:].reshape(n_g, m).T)
    return OptimizationResult(sequence=seq, error_history=np.array(history),
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
    return ControlSequence(dt=problem.dt, u=u, gamma=gamma)


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
