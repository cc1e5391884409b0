import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from noisectrl import _expm, models
from noisectrl.exceptions import NumericalHealthError
from noisectrl.lindblad import assemble_liouvillian, liouvillians, pauli_basis, propagator
from noisectrl.models import ghz_state, ion_trap_model, ising_chain, thermal_state, zero_state
from noisectrl.optim import (ControlSequence, TransferProblem, error, gradient,
                             optimize, optimize_restarts, propagate,
                             random_sequence)
from noisectrl.qops import DensityOperator, frobenius_error, random_density, vec
from noisectrl.reach import majorises


def zero_sequence(problem):
    return ControlSequence(u=np.zeros((problem.slices, len(problem.system.controls))),
                           gamma=np.zeros((problem.slices, len(problem.system.noises))))


def full_noise_sequence(problem):
    return ControlSequence(u=np.zeros((problem.slices, len(problem.system.controls))),
                           gamma=np.tile(problem.system.gamma_bounds, (problem.slices, 1)))


class TestPropagate:
    def test_constant_trajectory_for_commuting_setup(self):
        system = ising_chain(3, gamma_star=5.0)
        rho0 = DensityOperator(np.diag([0.4, 0.2, 0.1, 0.1, 0.08, 0.06, 0.04, 0.02]
                                       ).astype(complex))
        problem = TransferProblem(system, rho0, thermal_state(3), 2.0, 10)
        traj = propagate(problem, zero_sequence(problem))
        for row in traj.sorted_eigenvalues:
            np.testing.assert_allclose(row, traj.sorted_eigenvalues[0], atol=1e-12)

    def test_single_qubit_bitflip_spectrum_flow(self):
        # from |0>, populations follow (1 +/- e^{-gamma t / 2})/2
        system = ising_chain(1, noise_kind="bitflip", gamma_star=5.0)
        problem = TransferProblem(system, zero_state(1), thermal_state(1), 1.0, 20)
        traj = propagate(problem, full_noise_sequence(problem))
        eps = np.exp(-5.0 * traj.times / 2.0)
        np.testing.assert_allclose(traj.sorted_eigenvalues[:, 0], (1 + eps) / 2,
                                   atol=1e-10)
        np.testing.assert_allclose(traj.sorted_eigenvalues[:, 1], (1 - eps) / 2,
                                   atol=1e-10)

    def test_free_bitflip_erasure_floor(self):
        # uncontrolled bit flip from |000> stalls at distance sqrt(3/8)
        system = ising_chain(3, noise_kind="bitflip", gamma_star=5.0)
        problem = TransferProblem(system, zero_state(3), thermal_state(3), 4.0, 60)
        traj = propagate(problem, full_noise_sequence(problem))
        target = vec(thermal_state(3).matrix)
        dists = [frobenius_error(s, target) for s in traj.states]
        assert abs(min(dists) - 0.6124) < 1e-3

    def test_states_pass_validation_tightly(self):
        system = ising_chain(2, gamma_star=5.0)
        problem = TransferProblem(system, random_density(2, 3), thermal_state(2),
                                  2.0, 12)
        seq = random_sequence(problem, seed=4)
        traj = propagate(problem, seq)
        for s in traj.states:
            rho = s.reshape(4, 4, order="F")
            assert np.abs(rho - rho.conj().T).max() < 1e-8
            assert abs(np.trace(rho).real - 1) < 1e-8
            assert np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() > -1e-8

    def test_trace_losing_propagators_are_a_numerical_failure(self, monkeypatch):
        system = ising_chain(2, gamma_star=5.0)
        problem = TransferProblem(system, zero_state(2), thermal_state(2), 1.0, 4)
        exact = _expm.expm
        monkeypatch.setattr(_expm, "expm", lambda a: 0.999 * exact(a))
        with pytest.raises(NumericalHealthError, match="slice 1 violates"):
            propagate(problem, zero_sequence(problem))

    def test_non_finite_propagators_are_a_numerical_failure(self, monkeypatch):
        system = ising_chain(2, gamma_star=5.0)
        problem = TransferProblem(system, zero_state(2), thermal_state(2), 1.0, 4)
        exact = _expm.expm
        monkeypatch.setattr(_expm, "expm",
                            lambda a: exact(a) * np.array([1, 1, np.nan, 1])[:, None, None])
        with pytest.raises(NumericalHealthError, match="slice 3 violates .*herm nan"):
            propagate(problem, zero_sequence(problem))

    def test_rejects_gamma_outside_bounds(self):
        system = ising_chain(1, gamma_star=5.0)
        problem = TransferProblem(system, zero_state(1), thermal_state(1), 1.0, 4)
        seq = ControlSequence(u=np.zeros((4, 2)), gamma=np.full((4, 1), 6.0))
        with pytest.raises(ValueError):
            propagate(problem, seq)
        with pytest.raises(ValueError, match="not a finite number in"):
            optimize(problem, seq)    # L-BFGS-B would clip the start into its bounds


def test_problem_rejects_non_hermitian_states():
    # states are propagated as real Pauli coordinates, which only a
    # Hermitian matrix has
    system = ising_chain(1, gamma_star=5.0)
    skew = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        TransferProblem(system, skew, thermal_state(1), 1.0, 4)
    with pytest.raises(ValueError, match="Hermitian"):
        TransferProblem(system, zero_state(1), skew, 1.0, 4)


class TestError:
    def test_zero_for_matching_target(self):
        system = ising_chain(2, gamma_star=5.0)
        rho0 = DensityOperator(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
        problem = TransferProblem(system, rho0, rho0, 1.0, 5)
        assert error(problem, zero_sequence(problem)) < 1e-12

    def test_pure_to_thermal_distance_without_drive(self):
        system = ising_chain(3, gamma_star=5.0)
        problem = TransferProblem(system, zero_state(3), thermal_state(3), 1.0, 5)
        assert np.isclose(error(problem, zero_sequence(problem)), np.sqrt(7 / 8),
                          atol=1e-10)

    def test_invariant_under_slice_refinement(self):
        system = ising_chain(2, gamma_star=5.0)
        problem = TransferProblem(system, random_density(2, 9), random_density(2, 10),
                                  2.0, 8)
        seq = random_sequence(problem, seed=11)
        refined = ControlSequence(u=np.repeat(seq.u, 2, axis=0),
                                  gamma=np.repeat(seq.gamma, 2, axis=0))
        problem2 = TransferProblem(system, problem.rho0, problem.target, 2.0, 16)
        assert abs(error(problem, seq) - error(problem2, refined)) < 1e-10


@pytest.mark.parametrize("call", [propagate, error, gradient, optimize])
def test_sequence_of_another_slice_count_is_rejected(call):
    # the same amplitudes on 16 slices of the 8-slice horizon: every slice
    # propagates for problem.dt, so the 16 slices would run for twice T
    system = ising_chain(2, gamma_star=5.0)
    problem = TransferProblem(system, random_density(2, 9), random_density(2, 10), 2.0, 8)
    seq = random_sequence(problem, seed=11)
    refined = ControlSequence(u=np.repeat(seq.u, 2, axis=0),
                              gamma=np.repeat(seq.gamma, 2, axis=0))
    with pytest.raises(ValueError, match="sequence has 16 slices, problem has 8"):
        call(problem, refined)


class TestGradient:
    def test_zero_when_residual_vanishes(self):
        system = ising_chain(1, gamma_star=5.0)
        rho0 = zero_state(1)
        problem = TransferProblem(system, rho0, rho0, 1.0, 4)
        g = gradient(problem, zero_sequence(problem))
        np.testing.assert_allclose(g, 0, atol=1e-12)

    def test_matches_central_difference_oracle(self):
        # independent oracle: central differences of the full error
        system = ising_chain(2, gamma_star=5.0)
        problem = TransferProblem(system, random_density(2, 1), random_density(2, 501),
                                  2.0, 8)
        seq = random_sequence(problem, seed=8)
        grad = gradient(problem, seq)

        def err2(u, g):
            return error(problem, ControlSequence(u=u, gamma=g)) ** 2

        h = 1e-7
        oracle = np.zeros_like(grad)
        for k in range(seq.slice_count):
            for c in range(grad.shape[1]):
                up, gp = seq.u.copy(), seq.gamma.copy()
                um, gm = seq.u.copy(), seq.gamma.copy()
                if c < seq.u.shape[1]:
                    up[k, c] += h
                    um[k, c] -= h
                else:
                    gp[k, c - seq.u.shape[1]] += h
                    gm[k, c - seq.u.shape[1]] -= h
                oracle[k, c] = (err2(up, gp) - err2(um, gm)) / (2 * h)
        mask = np.abs(oracle) > 1e-8
        rel = np.abs(grad[mask] - oracle[mask]) / np.abs(oracle[mask])
        assert rel.max() <= 1e-5

    def test_noise_gradient_vanishes_at_noise_fixed_point(self):
        # |0><0| is fixed under amplitude damping, so the gamma columns are flat
        system = ising_chain(1, noise_kind="amp", gamma_star=5.0)
        problem = TransferProblem(system, zero_state(1), thermal_state(1), 1.0, 5)
        seq = ControlSequence(u=np.zeros((5, 2)), gamma=np.full((5, 1), 2.0))
        g = gradient(problem, seq)
        np.testing.assert_allclose(g[:, 2], 0, atol=1e-8)


def mixed_scale_problem(n=2):
    """An n-qubit problem whose ten slice exponents -dt L_k have scaling
    exponents 0 to 9, so the squarings of one stack are masked."""
    system = ising_chain(n, gamma_star=5.0, dephasing=0.3)
    problem = TransferProblem(system, random_density(n, 11), random_density(n, 12), 0.1, 10)
    rng = np.random.default_rng(13)
    v = rng.standard_normal((10, 2 * n))
    no_noise = np.zeros((10, 1))
    drive = np.abs(liouvillians(system, v, no_noise) - liouvillians(system, 0 * v, no_noise))
    # slice k > 0 has 1-norm near theta25 2^(k - 1/2), slice 0 is the drift alone
    amplitude = _expm._THETA25 * 2.0 ** (np.arange(10) - 0.5) / (
        problem.dt * drive.sum(axis=-2).max(axis=-1))
    amplitude[0] = 0.0
    seq = ControlSequence(u=amplitude[:, None] * v, gamma=rng.uniform(0.0, 5.0, (10, 1)))
    a = -problem.dt * liouvillians(system, seq.u, seq.gamma)
    assert sorted(scaling_exponents(a)) == list(range(10))
    return problem, seq, a


def scaling_exponents(a):
    norm1 = np.abs(a).sum(axis=-2).max(axis=-1)
    return np.ceil(np.log2(np.maximum(norm1 / _expm._THETA25, 1.0)))


def assert_gradient_matches_scipy_frechet(problem, seq, a):
    """The gradient within 1e-13 of max|ref|, where ref takes each slice's Q_k
    from scipy.linalg.expm_frechet on A_k^T."""
    x = _expm.expm(a)
    basis = pauli_basis(problem.system.n).conj().T
    f = [np.real(basis @ vec(problem.rho0))]
    for xk in x:
        f.append(xk @ f[-1])
    b = [f[-1] - np.real(basis @ vec(problem.target))]
    for xk in x[:0:-1]:
        b.insert(0, xk.T @ b[0])
    system = problem.system
    directions = system.generator_rows(range(1 + len(system.controls) + len(system.noises)))[1:]
    q = [scipy.linalg.expm_frechet(a[k].T, np.outer(b[k], f[k]), compute_expm=False)
         for k in range(len(a))]
    ref = np.array([[-2.0 * problem.dt * np.sum(qk * d) for d in directions] for qk in q])
    grad = gradient(problem, seq)
    assert np.abs(grad - ref).max() <= 1e-13 * np.abs(ref).max()


class TestSharedPadeState:
    def test_one_exponential_call_gives_the_forward_propagators(self, monkeypatch):
        problem, seq, a = mixed_scale_problem()
        exact = _expm.expm
        calls = []

        def recording(arg, **kwargs):
            out = exact(arg, **kwargs)
            calls.append((arg, out))
            return out

        monkeypatch.setattr(_expm, "expm", recording)
        gradient(problem, seq)
        assert len(calls) == 1
        (arg, (x, _)), = calls
        np.testing.assert_array_equal(arg, a)
        np.testing.assert_array_equal(x, exact(a))    # bit for bit those of error()

    def test_gradient_matches_scipy_frechet_per_slice(self):
        assert_gradient_matches_scipy_frechet(*mixed_scale_problem())

    def test_gradient_matches_scipy_frechet_per_slice_on_three_qubits(self):
        # N^2 = 64 against 25 Krylov vectors a side
        assert_gradient_matches_scipy_frechet(*mixed_scale_problem(3))

    def test_gradient_matches_scipy_frechet_per_slice_on_the_ion_trap(self):
        # N^2 = 256; the two slices scale by different exponents
        system = ion_trap_model()
        problem = TransferProblem(system, thermal_state(4), ghz_state(4), 10.0, 2)
        seq = random_sequence(problem, 1)
        seq = ControlSequence(u=seq.u * np.array([[0.1], [1.0]]), gamma=seq.gamma)
        a = -problem.dt * liouvillians(system, seq.u, seq.gamma)
        assert len(set(scaling_exponents(a))) == 2
        assert_gradient_matches_scipy_frechet(problem, seq, a)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 2), noise=st.sampled_from(["amp", "bitflip"]),
       dephasing=st.sampled_from([0.0, 0.3]), slices=st.integers(1, 6),
       horizon=st.floats(0.2, 4.0), u_scale=st.floats(0.0, 3.0),
       seed=st.integers(0, 2 ** 30))
def test_gradient_matches_central_differences(n, noise, dephasing, slices, horizon,
                                              u_scale, seed):
    system = ising_chain(n, noise_kind=noise, gamma_star=5.0, dephasing=dephasing)
    problem = TransferProblem(system, random_density(n, seed), random_density(n, seed + 1),
                              horizon, slices)
    h = 1e-5
    seq = random_sequence(problem, seed + 2, u_scale=u_scale)
    # keep the noise amplitudes a step inside [0, gamma_max] for the oracle
    seq = ControlSequence(u=seq.u, gamma=np.clip(seq.gamma, h, 5.0 - h))
    grad = gradient(problem, seq)
    amps = np.concatenate([seq.u, seq.gamma], axis=1)
    n_c = seq.u.shape[1]

    def err2(a):
        return error(problem, ControlSequence(u=a[:, :n_c], gamma=a[:, n_c:])) ** 2

    oracle = np.zeros_like(grad)
    for k, c in np.ndindex(*grad.shape):
        step = np.zeros_like(amps)
        step[k, c] = h
        oracle[k, c] = (err2(amps + step) - err2(amps - step)) / (2 * h)
    assert np.abs(grad - oracle).max() <= 1e-6 * np.abs(grad).max()


class TestOptimize:
    def test_single_qubit_erasure_converges(self):
        # gamma* T = 30 makes the asymptotic target reachable to 1e-6
        system = ising_chain(1, noise_kind="bitflip", gamma_star=5.0)
        problem = TransferProblem(system, zero_state(1), thermal_state(1), 6.0, 12)
        result = optimize(problem, random_sequence(problem, 1), tol=1e-6)
        assert result.final_error <= 1e-6
        assert result.converged

    def test_history_best_is_final(self):
        system = ising_chain(2, gamma_star=5.0)
        problem = TransferProblem(system, random_density(2, 31), random_density(2, 32),
                                  4.0, 16)
        result = optimize(problem, random_sequence(problem, 33), max_iters=40,
                          tol=1e-9)
        assert np.isclose(result.final_error, result.error_history.min())
        running_best = np.minimum.accumulate(result.error_history)
        assert np.all(np.diff(running_best) <= 0)

    def test_trajectory_is_that_of_propagate(self):
        # the trajectory comes from the objective's forward states at the best
        # point, bit for bit those of a second propagation
        system = ising_chain(2, gamma_star=5.0)
        problem = TransferProblem(system, random_density(2, 31), random_density(2, 32),
                                  4.0, 16)
        result = optimize(problem, random_sequence(problem, 33), max_iters=5, tol=1e-9)
        best, finals = optimize_restarts(problem, restarts=3, seed=2, max_iters=3, tol=1e-9)
        assert finals.index(best.final_error) < len(finals) - 1
        for res in (result, best):
            traj = propagate(problem, res.sequence)
            for name in ("times", "states", "sorted_eigenvalues"):
                np.testing.assert_array_equal(getattr(res.trajectory, name), getattr(traj, name))

    def test_one_run_builds_the_generator_stack_once(self, monkeypatch):
        # the exponents and the gradient directions read one stored stack
        built = []
        exact = models._generator_stack
        monkeypatch.setattr(models, "_generator_stack",
                            lambda system, rows: built.append(rows) or exact(system, rows))
        system = ising_chain(2, gamma_star=5.0, dephasing=0.1)
        problem = TransferProblem(system, random_density(2, 31), random_density(2, 32),
                                  4.0, 16)
        result = optimize(problem, random_sequence(problem, 33), max_iters=5, tol=1e-9)
        assert len(result.error_history) > 1
        assert built == [tuple(range(6))]

    def test_projected_gradient_small_at_optimum(self):
        system = ising_chain(1, noise_kind="bitflip", gamma_star=5.0)
        problem = TransferProblem(system, zero_state(1), thermal_state(1), 6.0, 12)
        tol = 1e-6
        result = optimize(problem, random_sequence(problem, 5), tol=tol)
        assert result.final_error <= tol
        g = gradient(problem, result.sequence)
        proj = g.copy()
        n_c = len(system.controls)
        at_lo = result.sequence.gamma <= 1e-12
        at_hi = result.sequence.gamma >= 5.0 - 1e-12
        gg = proj[:, n_c:]
        gg[at_lo & (gg > 0)] = 0.0
        gg[at_hi & (gg < 0)] = 0.0
        assert np.linalg.norm(np.concatenate([proj[:, :n_c].ravel(), gg.ravel()])) \
            <= 10 * tol


class TestTrajectoryInvariants:
    def test_bitflip_majorisation_and_purity(self):
        rng = np.random.default_rng(40)
        for trial in range(6):
            n = 2 if trial % 2 == 0 else 3
            system = ising_chain(n, noise_kind="bitflip", gamma_star=5.0)
            rho0 = random_density(n, 100 + trial)
            problem = TransferProblem(system, rho0, thermal_state(n), 1.5, 8)
            seq = random_sequence(problem, seed=200 + trial)
            traj = propagate(problem, seq)
            w0 = traj.sorted_eigenvalues[0]
            purity = [float(np.sum(w ** 2)) for w in traj.sorted_eigenvalues]
            for w in traj.sorted_eigenvalues[1:]:
                assert majorises(w, w0, tol=1e-9)
            assert np.all(np.diff(purity) <= 1e-9)


class TestRandomSequence:
    def test_noise_block_pattern(self):
        system = ising_chain(1, noise_kind="bitflip", gamma_star=5.0)
        problem = TransferProblem(system, zero_state(1), thermal_state(1), 1.2, 12)
        seq = random_sequence(problem, seed=0, noise_blocks=3)
        on = seq.gamma[:, 0] > 0
        np.testing.assert_array_equal(
            on, [True, True, False, False] * 3)
        assert np.all(seq.gamma[on, 0] == 5.0)

    def test_uniform_respects_bounds(self):
        system = ising_chain(2, gamma_star=5.0)
        problem = TransferProblem(system, zero_state(2), thermal_state(2), 1.0, 30)
        seq = random_sequence(problem, seed=7)
        assert seq.gamma.min() >= 0
        assert seq.gamma.max() <= 5.0

    def test_deterministic(self):
        system = ising_chain(2, gamma_star=5.0)
        problem = TransferProblem(system, zero_state(2), thermal_state(2), 1.0, 6)
        a = random_sequence(problem, seed=9)
        b = random_sequence(problem, seed=9)
        np.testing.assert_array_equal(a.u, b.u)
        np.testing.assert_array_equal(a.gamma, b.gamma)


def test_optimize_restarts_improves_and_stops_early():
    system = ising_chain(1, noise_kind="bitflip", gamma_star=5.0)
    problem = TransferProblem(system, zero_state(1), thermal_state(1), 6.0, 12)
    best, finals = optimize_restarts(problem, restarts=5, seed=0, tol=1e-6)
    assert best.final_error <= 1e-6
    assert len(finals) <= 5


def test_optimize_restarts_rejects_fewer_than_one_restart():
    system = ising_chain(1, noise_kind="bitflip", gamma_star=5.0)
    problem = TransferProblem(system, zero_state(1), thermal_state(1), 1.0, 4)
    for restarts in (0, -1):
        with pytest.raises(ValueError, match="restarts must be at least 1"):
            optimize_restarts(problem, restarts=restarts, max_iters=2)


class TestIterations:
    def test_counts_lbfgs_iterations_when_tolerance_is_hit(self):
        # every L-BFGS iteration costs at least one evaluation after the
        # initial one, so the count stays below the evaluation count
        system = ising_chain(1, noise_kind="bitflip", gamma_star=5.0)
        problem = TransferProblem(system, zero_state(1), thermal_state(1), 6.0, 12)
        result = optimize(problem, random_sequence(problem, 1), tol=1e-6)
        assert result.converged
        assert 1 <= result.iterations < len(result.error_history)

    def test_counts_lbfgs_iterations_at_the_budget(self):
        system = ising_chain(2, gamma_star=5.0)
        problem = TransferProblem(system, random_density(2, 31), random_density(2, 32),
                                  4.0, 16)
        result = optimize(problem, random_sequence(problem, 33), max_iters=7, tol=1e-12)
        assert not result.converged
        assert result.iterations == 7
        assert len(result.error_history) > 7


def test_error_with_background_dephasing_matches_slice_assembly():
    # the optimizer's batched generators carry the background noise exactly
    # as the single-slice builder does
    system = ising_chain(3, gamma_star=5.0, dephasing=0.2)
    problem = TransferProblem(system, random_density(3, 2), thermal_state(3), 1.2, 6)
    seq = random_sequence(problem, seed=3)
    v = vec(problem.rho0.matrix)
    b = pauli_basis(3)
    for k in range(seq.slice_count):
        x = propagator(assemble_liouvillian(system, seq.u[k], seq.gamma[k]), problem.dt)
        v = b @ x @ b.conj().T @ v
    expected = np.linalg.norm(v - vec(problem.target.matrix))
    assert abs(error(problem, seq) - expected) < 1e-12
    traj = propagate(problem, seq)
    np.testing.assert_allclose(traj.states[-1], v, rtol=0, atol=1e-12)
