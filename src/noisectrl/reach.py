"""Reachability machinery: majorisation, switch times, the HLP scheduler
and its executable compilation, fixed points, and Lie-closure tests.

The scheduler follows the constructive Hardy-Littlewood-Polya decomposition:
a target spectrum majorised by the initial one is reached by at most N-1
pairwise averaging steps, each realized physically by switching bit-flip
noise onto the terminal qubit while every other eigenvalue pair is parked
in a noise-immune subspace.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import _expm
from .exceptions import ConfigurationError, ReachabilityError, check
from .lindblad import v_theta
from .qops import DensityOperator, _density, _square, as_matrix, embed_local
from .schedule import HoldSegment, Schedule, UnitarySegment

__all__ = [
    "majorises", "t_transform",
    "switch_time_amp", "switch_time_theta", "theta_pair_admissible",
    "fixed_point_theta", "beta_of_theta",
    "HlpStep", "HlpPlan", "hlp_plan", "plan_state_transfer",
    "hlp_execute", "predict_executed_spectrum",
    "lie_closure_dimension",
]

_SUM_ATOL = 1e-10
_CLOSURE_TOL = 1e-8
# closure elements taken at a time; see lie_closure_dimension
_CLOSURE_BLOCK = 8


# ---------------------------------------------------------------------------
# majorisation order and elementary transforms

def majorises(x, y, tol: float = 1e-10) -> bool:
    """True iff x is majorised by y (all descending partial sums of x bounded
    by those of y, equal totals)."""
    check("tol", tol, rule="nonnegative")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("spectra must be finite")
    xs = np.sort(x)[::-1]
    ys = np.sort(y)[::-1]
    if abs(xs.sum() - ys.sum()) > tol:
        return False
    return bool(np.all(np.cumsum(xs) <= np.cumsum(ys) + tol))


def t_transform(v, pair: tuple[int, int], lam: float) -> np.ndarray:
    """Mix entries j and k of v: (v_j, v_k) -> (lam v_j + (1-lam) v_k, ...).

    The output is majorised by the input for lam in [0, 1]."""
    check("lam", lam, rule=(0, 1))
    v = np.array(v, dtype=float)
    for j in pair:
        check("pair index", j, int, (0, len(v) - 1))
    _contract_pair(v, *pair, 2.0 * lam - 1.0)
    return v


def _contract_pair(v: np.ndarray, j: int, k: int, eps: float) -> None:
    """Contract v[j], v[k] about their mean m by eps, in place: m +- eps d.

    This is one averaging step of every kind here: a T-transform with
    eps = 2 lambda - 1, an ideal bit-flip exposure, and a protected pair's
    decoupling contraction."""
    m, d = 0.5 * (v[j] + v[k]), 0.5 * (v[j] - v[k])
    v[j], v[k] = m + eps * d, m - eps * d


# ---------------------------------------------------------------------------
# exact switch times for pairwise transfers

def _check_switch(rho_ii, rho_jj, gamma_star, tau) -> None:
    check("rho_ii", rho_ii, rule="nonnegative")
    check("rho_jj", rho_jj, rule="nonnegative")
    if rho_ii + rho_jj == 0:
        raise ValueError("rho_ii and rho_jj must not both be zero")
    check("gamma_star", gamma_star, rule="positive")
    check("tau", tau, rule="nonnegative")


def switch_time_amp(rho_ii: float, rho_jj: float, gamma_star: float, tau: float) -> float:
    """Permutation instant that neutralises an amplitude-damping transfer:
    :func:`switch_time_theta` at theta = 0.

    Permuting the pair at this time and letting damping act for the
    remaining tau - tau_ij restores the pair up to a swap.
    """
    return switch_time_theta(rho_ii, rho_jj, 0.0, gamma_star, tau)


def theta_pair_admissible(rho_ii: float, rho_jj: float, theta: float) -> bool:
    """Pairing condition theta^2/(1-theta)^2 <= rho_ii/rho_jj <= its inverse,
    multiplied out: symmetric in the pair, and true for every pair at theta = 0."""
    check("theta", theta, rule=(0, 0.5, "[)"))
    check("rho_ii", rho_ii, rule="nonnegative")
    check("rho_jj", rho_jj, rule="nonnegative")
    t2, tb2 = theta ** 2, (1.0 - theta) ** 2
    return bool(t2 * rho_jj <= tb2 * rho_ii and t2 * rho_ii <= tb2 * rho_jj)


def switch_time_theta(rho_ii: float, rho_jj: float, theta: float,
                      gamma_star: float, tau: float) -> float:
    """Generalised switch time for the interpolating noise V_theta.

    :func:`switch_time_amp` is its theta = 0 case.  It is meaningful (in
    [0, tau]) exactly when the evolved pair stays admissible.  The formula
    degenerates at theta = 1/2.
    """
    check("theta", theta, rule=(0, 0.5, "[)"))
    _check_switch(rho_ii, rho_jj, gamma_star, tau)
    tb = 1.0 - theta
    c = 1.0 / (tb ** 2 + theta ** 2)
    num = (np.exp(gamma_star * tau / c) * (tb ** 2 * rho_ii - theta ** 2 * rho_jj)
           + (tb ** 2 * rho_jj - theta ** 2 * rho_ii))
    den = (tb ** 2 - theta ** 2) * (rho_ii + rho_jj)
    if not num > 0:
        raise ValueError("rho_ii, rho_jj and theta admit no switch time")
    return float(c / gamma_star * np.log(num / den))


def fixed_point_theta(theta: float) -> DensityOperator:
    """Single-qubit stationary state of V_theta relaxation.

    Unique for theta != 1/2; at theta = 1/2 every mixture of the pair is
    stationary and the returned maximally mixed state is just one of them.
    """
    check("theta", theta, rule=(0, 1))
    tb = 1.0 - theta
    c = 1.0 / (tb ** 2 + theta ** 2)
    return DensityOperator(np.diag([c * tb ** 2, c * theta ** 2]).astype(complex))


def beta_of_theta(theta: float, delta_energy: float) -> float:
    """Inverse bath temperature whose equilibrium matches the V_theta fixed
    point on a qubit with level splitting ``delta_energy``.

    beta = (2/Delta) artanh((tb^2 - theta^2)/(tb^2 + theta^2)); infinite at
    theta = 0 (zero temperature), zero at theta = 1/2.
    """
    check("theta", theta, rule=(0, 1))
    check("delta_energy", delta_energy, rule="positive")
    tb = 1.0 - theta
    bias = (tb ** 2 - theta ** 2) / (tb ** 2 + theta ** 2)
    if abs(bias) >= 1.0:
        return float(np.inf) if bias > 0 else float(-np.inf)
    return float(2.0 / delta_energy * np.arctanh(bias))


# ---------------------------------------------------------------------------
# HLP scheduling

@dataclass(frozen=True)
class HlpStep:
    """One pairwise averaging step.

    ``pair`` indexes the two values in the initial sorted frame (value
    identities, 0-based).  ``tau`` is the bit-flip exposure realizing the
    mixing parameter: tau = -(2/gamma*) ln|1 - 2 lambda| when lam != 1/2,
    while lam = 1/2 steps carry the truncated finite tau from the plan's
    residual allocation (eps = exp(-gamma* tau / 2)).  ``pre_permutation``
    lists, per terminal-qubit slot, which value identity is parked there
    while the noise runs: slots 0 and 1 hold the averaging pair, the rest
    sit in protected pairs.
    """

    pair: tuple[int, int]
    lam: float
    tau: float
    eps: float
    pre_permutation: tuple[int, ...]


@dataclass(frozen=True)
class HlpPlan:
    """Full transfer plan: sorted spectra, steps, and its own prediction."""

    initial_spectrum: np.ndarray
    target_spectrum: np.ndarray
    gamma_star: float
    residual_target: float
    steps: tuple[HlpStep, ...]
    predicted_final_spectrum: np.ndarray
    predicted_residual: float
    diagonalizer_initial: np.ndarray | None = field(default=None)
    diagonalizer_target: np.ndarray | None = field(default=None)

    @property
    def total_dissipative_time(self) -> float:
        return float(sum(s.tau for s in self.steps))


def _hlp_raw_steps(y_sorted: np.ndarray, x_sorted: np.ndarray, tol: float):
    """Adjacent-rule HLP decomposition with value-identity tracking.

    Identity i means "value initially at sorted position i".  Returns
    [(id_j, id_k, lambda)], at most N-1 entries, fixing at least one value
    per step.
    """
    w = y_sorted.copy()
    ids = list(range(len(w)))
    out = []
    for _ in range(len(w) - 1):
        if np.abs(w - x_sorted).max() <= tol:
            break
        below = np.where(x_sorted < w - tol)[0]
        j = int(below.max())                      # largest index with x_j < w_j
        above = np.where(x_sorted > w + tol)[0]
        above = above[above > j]
        if above.size == 0:
            # only tolerance dust remains at the majorisation boundary
            break
        k = int(above.min())                      # smallest index k > j with x_k > w_k
        delta = min(w[j] - x_sorted[j], x_sorted[k] - w[k])
        lam = 1.0 - delta / (w[j] - w[k])
        out.append((ids[j], ids[k], float(lam)))
        _contract_pair(w, j, k, 2.0 * lam - 1.0)
        order = np.argsort(-w, kind="stable")
        w = w[order]
        ids = [ids[o] for o in order]
    return out


def _spectator_pairing(step_idx, raw_steps, values):
    """Terminal-qubit slot layout for one step.

    Slots 0,1 take the averaging pair.  Spectators are paired for parking:
    values destined to be averaged together by a later step are paired with
    each other (their parking contraction is then absorbed by that step's
    own averaging), the remainder adjacently by current value.
    """
    n_vals = len(values)
    ja, ka, _ = raw_steps[step_idx]
    used = {ja, ka}
    pairs = []
    for fa, fb, _ in raw_steps[step_idx + 1:]:
        if fa not in used and fb not in used:
            pairs.append((fa, fb))
            used.update((fa, fb))
    rest = sorted((i for i in range(n_vals) if i not in used),
                  key=lambda i: -values[i])
    pairs.extend((rest[i], rest[i + 1]) for i in range(0, len(rest), 2))
    return [ja, ka] + [q for p in pairs for q in p]


def _simulate_ideal(y_sorted, raw_steps, eps_list):
    """Value-identity simulation through the exact averaging blocks."""
    vals = y_sorted.copy()
    for (ja, ka, _lam), eps in zip(raw_steps, eps_list):
        _contract_pair(vals, ja, ka, eps)
    return vals


def hlp_plan(y, x, gamma_star: float, residual_target: float = 1e-4) -> HlpPlan:
    """Decompose a majorised spectrum transfer into pairwise averaging steps.

    ``y`` and ``x`` are the initial and target spectra (sorted internally).
    Steps follow the constructive rule: take the largest index j with
    x_j < y_j, the smallest k > j with x_k > y_k, and mix with
    lambda = 1 - min{y_j - x_j, x_k - y_k}/(y_j - y_k).  Exactly-half
    mixes need unbounded noise exposure, so every step's eps is floored at
    a common value chosen (by bisection through the exact step arithmetic)
    as the largest one whose predicted residual still meets
    ``residual_target``; that spends the least total noise-on time
    compatible with the requested accuracy.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.shape != x.shape or y.ndim != 1:
        raise ValueError("spectra must be equal-length vectors")
    if not (abs(y.sum() - 1.0) <= _SUM_ATOL and abs(x.sum() - 1.0) <= _SUM_ATOL):
        raise ValueError("spectra must be finite and sum to one")
    if min(y.min(), x.min()) < -_SUM_ATOL:
        raise ValueError("spectra must be nonnegative")
    check("gamma_star", gamma_star, rule="positive")
    check("residual_target", residual_target, rule="positive")
    if not majorises(x, y):
        raise ReachabilityError("target spectrum is not majorised by the initial one")

    y_s = np.sort(y)[::-1].copy()
    x_s = np.sort(x)[::-1].copy()
    raw = _hlp_raw_steps(y_s, x_s, tol=1e-14)
    eps_star = np.clip([2.0 * lam - 1.0 for _, _, lam in raw], 0.0, 1.0)
    is_half = eps_star <= 1e-12   # only exact half-mixes get truncated

    def residual(eps_floor):
        eps = np.where(is_half, eps_floor, eps_star)
        final = _simulate_ideal(y_s, raw, eps)
        return float(np.linalg.norm(np.sort(final) - np.sort(x_s)))

    if not np.any(is_half):
        eps_floor = 0.0
    else:
        hi = 1.0 - 1e-12
        lo = 1e-15
        if residual(hi) <= residual_target:
            eps_floor = hi
        elif (best := residual(lo)) > residual_target:
            raise ReachabilityError(
                f"residual_target {residual_target:g} is below {best:g}, the best "
                f"residual the eps floor {lo:g} reaches")
        else:
            # until lo and hi are neighbours in floating point, where neither can move
            while lo < (mid := np.sqrt(lo * hi)) < hi:
                if residual(mid) <= residual_target:
                    lo = mid
                else:
                    hi = mid
            eps_floor = lo

    eps_all = np.where(is_half, eps_floor, eps_star)
    taus = -2.0 / gamma_star * np.log(eps_all)

    # spectator layouts, computed against the running value assignment
    steps = []
    vals = y_s.copy()
    for idx, ((ja, ka, lam), eps, tau) in enumerate(zip(raw, eps_all, taus)):
        slots = _spectator_pairing(idx, raw, vals)
        steps.append(HlpStep(pair=(ja, ka), lam=lam, tau=float(tau),
                             eps=float(eps), pre_permutation=tuple(slots)))
        _contract_pair(vals, ja, ka, eps)

    return HlpPlan(
        initial_spectrum=y_s, target_spectrum=x_s, gamma_star=gamma_star,
        residual_target=residual_target, steps=tuple(steps),
        predicted_final_spectrum=np.sort(vals)[::-1].copy(),
        predicted_residual=float(np.linalg.norm(np.sort(vals) - np.sort(x_s))))


def plan_state_transfer(rho0, rho_target, gamma_star: float,
                        residual_target: float = 1e-4) -> HlpPlan:
    """HLP plan between density operators, keeping their diagonalizers.

    The emitted schedule then starts by rotating rho0 to its sorted
    eigenbasis and ends by rotating into the target eigenbasis.  Both states
    must be valid DensityOperators.
    """
    w0, v0 = np.linalg.eigh(_density(rho0).matrix)
    wt, vt = np.linalg.eigh(_density(rho_target).matrix)
    order0 = np.argsort(-w0)
    ordert = np.argsort(-wt)
    return replace(hlp_plan(w0[order0], wt[ordert], gamma_star, residual_target),
                   diagonalizer_initial=v0[:, order0], diagonalizer_target=vt[:, ordert])


# ---------------------------------------------------------------------------
# compiling a plan onto a physical system

def _protection_unitary(dim: int) -> np.ndarray:
    """Identity on the first terminal-qubit pair, the rotation
    (1/sqrt2)[[1,-1],[1,1]] on every other pair.

    Conjugating a diagonal state moves each protected pair difference into
    the real coherence quadrature that terminal bit-flip noise leaves
    invariant."""
    v = np.array([[1.0, -1.0], [1.0, 1.0]], dtype=complex) / np.sqrt(2.0)
    out = np.eye(dim, dtype=complex)
    for i in range(1, dim // 2):
        out[2 * i:2 * i + 2, 2 * i:2 * i + 2] = v
    return out


def _terminal_noise(system, theta: float = 0.5):
    """Index of the switchable noise that is V_theta on the last qubit (bit
    flip, theta = 1/2, unless given), or None when the system has none."""
    expected = embed_local(v_theta(theta), system.n, system.n)
    for idx, noise in enumerate(system.noises):
        if np.allclose(as_matrix(noise.operator), expected, rtol=0, atol=1e-12):
            return idx
    return None


def _schedulable(plan: HlpPlan, system, trotter_steps: int):
    """Checked inputs of a compiled schedule: terminal bit-flip noise index, drift energies."""
    check("trotter_steps", trotter_steps, int, 1)
    noise_idx = _terminal_noise(system)
    if noise_idx is None:
        raise ConfigurationError("system lacks switchable bit-flip noise on the terminal qubit")
    h0 = as_matrix(system.h0)
    if np.abs(h0 - np.diag(np.diag(h0))).max() > 1e-12 * np.abs(h0).max():
        raise ConfigurationError("scheduler requires a diagonal drift Hamiltonian")
    if len(plan.initial_spectrum) != system.dim:
        raise ConfigurationError(
            f"plan is for dimension {len(plan.initial_spectrum)}, system has {system.dim}")
    return noise_idx, np.real(np.diag(h0))


def _pair_dynamics(energies, gamma_star: float, tau: float, nseg: int):
    """Exact dynamics of every terminal-qubit pair under one kicked noise train.

    A pair's coherence (Re c, Im c), with drift splitting omega, follows one
    real 2x2 map M per kicked segment.  A protected pair enters with a real
    coherence, its half difference d, and leaves with d M[:, 0].  Returns,
    per pair, the closing echo phase theta that turns M[:, 0] back onto the
    real axis, so that the pair leaves diagonal after unprotection, and the
    factor mu = |M[:, 0]| by which its difference has then contracted."""
    h = tau / nseg
    omegas = energies[0::2] - energies[1::2]
    gen = np.zeros((len(omegas), 2, 2))
    gen[:, 0, 1], gen[:, 1, 0], gen[:, 1, 1] = omegas, -omegas, -gamma_star / 2.0
    hold = _expm.expm(h * gen)
    c, s = np.cos(omegas * h / 2.0), np.sin(omegas * h / 2.0)
    half_kick = np.stack([c, -s, s, c], axis=-1).reshape(-1, 2, 2)
    m = np.linalg.matrix_power(half_kick @ hold @ half_kick, nseg)
    return np.arctan2(m[:, 1, 0], m[:, 0, 0]), np.hypot(m[:, 0, 0], m[:, 1, 0])


def _noise_block_segments(system, noise_idx, energies, tau, trotter_steps):
    """Decoupled noise-on train closed by its per-pair echo phase correction.

    One Trotter cycle is two exponential segments; the drift sign inversion
    of the decoupling identity is realized by exact diagonal drift-echo
    unitaries between segments (symmetric placement).  The closing diagonal
    unitary cancels the leftover rotation of each protected coherence, as
    computed by :func:`_pair_dynamics`.
    """
    nseg = 2 * trotter_steps
    h = tau / nseg
    gamma = np.zeros(len(system.noises))
    gamma[noise_idx] = system.noises[noise_idx].gamma_max
    hold = HoldSegment(u=np.zeros(len(system.controls)), gamma=gamma, duration=h,
                       label="noise-on")
    kick_half = UnitarySegment(np.diag(np.exp(1j * (h / 2.0) * energies)), label="drift-echo")
    kick_full = UnitarySegment(np.diag(np.exp(1j * h * energies)), label="drift-echo")
    thetas, _ = _pair_dynamics(energies, gamma[noise_idx], tau, nseg)
    echo = UnitarySegment(np.diag(np.exp(-0.5j * np.outer(thetas, [1.0, -1.0]).ravel())),
                          label="echo-phase")
    return [kick_half] + [hold, kick_full] * (nseg - 1) + [hold, kick_half, echo]


def hlp_execute(plan: HlpPlan, system, trotter_steps: int = 64) -> Schedule:
    """Compile a plan into a schedule of ideal unitaries and noise holds.

    Requires switchable bit-flip noise on the terminal qubit, a diagonal
    drift, and full unitary controllability (permutations and the
    protection rotation are emitted as ideal instantaneous unitaries).
    Propagating the schedule reproduces the plan's predicted spectrum up
    to the residual allocation plus the finite-k decoupling error.
    """
    noise_idx, energies = _schedulable(plan, system, trotter_steps)
    dim = system.dim

    u12 = _protection_unitary(dim)
    segments = []
    if plan.diagonalizer_initial is not None:
        segments.append(UnitarySegment(plan.diagonalizer_initial.conj().T,
                                       label="diagonalize"))
    for step in plan.steps:
        # row selection of the identity: slot i receives value pre_permutation[i]
        place = u12 @ np.eye(dim, dtype=complex)[list(step.pre_permutation)]
        segments.append(UnitarySegment(place, label="place+protect"))
        segments.extend(_noise_block_segments(system, noise_idx, energies,
                                              step.tau, trotter_steps))
        segments.append(UnitarySegment(place.conj().T, label="unprotect"))
    if plan.diagonalizer_target is not None:
        segments.append(UnitarySegment(plan.diagonalizer_target, label="target-basis"))
    return Schedule(segments=tuple(segments))


def predict_executed_spectrum(plan: HlpPlan, system, trotter_steps: int = 64) -> np.ndarray:
    """Spectrum the compiled schedule should produce, from the exact
    two-level pair dynamics (populations average exactly; protected pairs
    contract by the computable decoupling factor)."""
    noise_idx, energies = _schedulable(plan, system, trotter_steps)
    gamma_star = system.noises[noise_idx].gamma_max
    vals = plan.initial_spectrum.copy()
    for step in plan.steps:
        _, mus = _pair_dynamics(energies, gamma_star, step.tau, 2 * trotter_steps)
        slots = step.pre_permutation
        for i, f in enumerate([step.eps, *mus[1:]]):
            _contract_pair(vals, slots[2 * i], slots[2 * i + 1], f)
    return np.sort(vals)[::-1]


# ---------------------------------------------------------------------------
# Lie closure

def lie_closure_dimension(generators) -> int:
    """Dimension of the real Lie algebra generated by {i H} under commutators.

    The algebra is the smallest span that holds the generators and is
    closed under every ad_g, built as a block Krylov space.  An element iH
    is held as N^2 real coordinates of H, its diagonal and sqrt2 Re,
    sqrt2 Im of its upper triangle, whose dot product is the Hilbert-Schmidt
    inner product for any N.  Each generator's traceless part is scaled to
    unit norm, so that the dimension depends on no generator's units, or
    dropped where its norm is at most ``_CLOSURE_TOL`` of the generator's;
    these are orthonormalized first.  The basis is then
    walked in the order it was found, ``_CLOSURE_BLOCK`` elements at a
    time: for a block B and each orthonormalized generator g the stacked
    bracket g @ B - B @ g has the current basis projected out of it twice
    (two GEMMs a pass, dropping candidates whose residual norm is at most
    ``_CLOSURE_TOL`` after each pass), and the new orthonormal directions
    come from one SVD, keeping singular values above ``_CLOSURE_TOL``.
    The generators are offered in blocks of the same size.  The cost per
    block per generator is one stacked bracket, at most two projections
    and at most one SVD.  At su(16) a block of 8 against a full basis is
    8 x 256 x 255 multiply-adds a product, under the 2^19 at which
    OpenBLAS starts to split a GEMM over threads: a second thread saves
    nothing at that size and stalls every call while another process
    holds its core, so the closure runs on the calling thread alone.
    Hermiticity is checked relative to each generator's largest entry.
    Left-normed brackets [g_1, [g_2, [..., g_k]]] span the generated
    algebra (D'Alessandro, *Introduction to Quantum Control and Dynamics*,
    ch. 3); the final span holds the generators and the brackets of every
    g with each of its elements, so by induction on k it holds them all,
    and brackets of two basis elements are never needed.  Elements are
    traceless, so the span is capped at su(N), dimension N^2 - 1: full
    unitary controllability.
    """
    mats = [_square(g) for g in generators]
    if not mats:
        raise ValueError("need at least one generator")
    dim = mats[0].shape[0]
    for m in mats:
        if m.shape != (dim, dim):
            raise ValueError("generators must share one dimension")
        if not np.isfinite(m).all():
            raise ValueError("generators must be finite")
        if np.abs(m - m.conj().T).max() > 1e-10 * np.abs(m).max():
            raise ValueError("generators must be Hermitian")

    diag, (iu, ju) = np.arange(dim), np.triu_indices(dim, 1)
    n_up = len(iu)

    def coordinates(h: np.ndarray) -> np.ndarray:
        up = np.sqrt(2.0) * h[:, iu, ju]
        return np.concatenate([h[:, diag, diag].real, up.real, up.imag], axis=1)

    def hermitian(x: np.ndarray) -> np.ndarray:
        h = np.zeros((len(x), dim, dim), dtype=complex)
        h[:, diag, diag] = x[:, :dim]
        up = (x[:, dim:dim + n_up] + 1j * x[:, dim + n_up:]) / np.sqrt(2.0)
        h[:, iu, ju], h[:, ju, iu] = up, up.conj()
        return h

    cap = dim * dim - 1
    basis = np.empty((cap, dim * dim))
    size = 0

    def extend(candidates: np.ndarray) -> None:
        nonlocal size
        for _ in range(2):
            candidates = candidates - (candidates @ basis[:size].T) @ basis[:size]
            candidates = candidates[np.linalg.norm(candidates, axis=1) > _CLOSURE_TOL]
        if len(candidates):
            _, s, vt = np.linalg.svd(candidates, full_matrices=False)
            new = vt[s > _CLOSURE_TOL][:cap - size]
            basis[size:size + len(new)] = new
            size += len(new)

    h = np.stack(mats)
    x = coordinates(h - np.trace(h, axis1=1, axis2=2)[:, None, None] / dim * np.eye(dim))
    norms = np.linalg.norm(x, axis=1)
    keep = norms > _CLOSURE_TOL * np.linalg.norm(coordinates(h), axis=1)
    x = x[keep] / norms[keep, None]
    for lo in range(0, len(x), _CLOSURE_BLOCK):
        extend(x[lo:lo + _CLOSURE_BLOCK])
    gens, start = hermitian(basis[:size]), 0
    while start < size < cap:
        stop = min(start + _CLOSURE_BLOCK, size)
        block, start = hermitian(basis[start:stop]), stop
        for g in gens:
            # g @ B - B @ g from one GEMM: g @ B = (B @ g)^H for Hermitian g and B
            bg = (block.reshape(-1, dim) @ g).reshape(block.shape)
            extend(coordinates(1j * (bg.conj().transpose(0, 2, 1) - bg)))
    return size
