import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from noisectrl import _expm, reach
from noisectrl.exceptions import ConfigurationError, ReachabilityError
from noisectrl.lindblad import ThetaChannelParams, diag_channel_theta
from noisectrl.models import ising_chain, thermal_state
from noisectrl.qops import DensityOperator, frobenius_error, random_density, sorted_spectrum, vec
from noisectrl.reach import (beta_of_theta, fixed_point_theta,
                             hlp_execute, hlp_plan, lie_closure_dimension,
                             majorises, plan_state_transfer,
                             predict_executed_spectrum, switch_time_amp,
                             switch_time_theta, t_transform,
                             theta_pair_admissible)
from noisectrl.schedule import UnitarySegment, propagate_schedule
from noisectrl.qops import SIGMA_X, SIGMA_Y, SIGMA_Z, as_matrix, embed_local


def random_prob_vector(n, rng):
    p = rng.random(n)
    return p / p.sum()


class TestMajorises:
    def test_half_half_below_pure(self):
        assert majorises([0.5, 0.5], [1.0, 0.0])

    def test_uniform_below_everything(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = random_prob_vector(8, rng)
            assert majorises(np.full(8, 1 / 8), p)

    def test_partial_sum_example(self):
        assert majorises([0.5, 0.3, 0.2], [0.6, 0.3, 0.1])
        assert not majorises([0.6, 0.3, 0.1], [0.5, 0.3, 0.2])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            majorises([0.5, 0.5], [1.0, 0.0, 0.0])

    def test_partial_order_properties(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = random_prob_vector(6, rng)
            b = random_prob_vector(6, rng)
            c = random_prob_vector(6, rng)
            assert majorises(a, a)  # reflexive
            if majorises(a, b) and majorises(b, a):  # antisymmetric up to sorting
                np.testing.assert_allclose(np.sort(a), np.sort(b), atol=1e-9)
            if majorises(a, b) and majorises(b, c):  # transitive
                assert majorises(a, c)


class TestTTransform:
    def test_identity_at_lambda_one(self):
        v = [0.4, 0.35, 0.25]
        np.testing.assert_allclose(t_transform(v, (0, 2), 1.0), v)

    def test_full_average(self):
        np.testing.assert_allclose(t_transform([1.0, 0.0], (0, 1), 0.5), [0.5, 0.5])

    def test_partial_mix(self):
        np.testing.assert_allclose(t_transform([0.7, 0.3], (0, 1), 0.75), [0.6, 0.4])

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            t_transform([1.0, 0.0], (0, 1), 1.2)

    def test_output_majorised_by_input(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            v = random_prob_vector(5, rng)
            j, k = sorted(rng.choice(5, size=2, replace=False))
            out = t_transform(v, (j, k), rng.random())
            assert majorises(out, v)


class TestSwitchTimes:
    def test_zero_window(self):
        assert switch_time_amp(0.3, 0.7, 2.0, 0.0) == 0.0

    def test_log_two_case(self):
        # rho_ii = rho_jj = 1/2, gamma = 1, tau = ln3:
        # tau_ij = ln((e^ln3 + 1)/2) = ln 2
        assert np.isclose(switch_time_amp(0.5, 0.5, 1.0, np.log(3.0)), np.log(2.0))

    def test_neutralization_by_block_composition(self):
        # damping, permuting at tau_ij, then damping again swaps the pair
        rng = np.random.default_rng(3)
        for _ in range(10):
            a, b = rng.random(2) + 0.05
            gamma, tau = 1.7, 0.9
            tij = switch_time_amp(a, b, gamma, tau)
            assert 0 <= tij <= tau

            def damp_block(t):
                e = np.exp(-gamma * t)
                return np.array([[1.0, 1.0 - e], [0.0, e]])

            swap = np.array([[0.0, 1.0], [1.0, 0.0]])
            out = damp_block(tau - tij) @ swap @ damp_block(tij) @ np.array([a, b])
            np.testing.assert_allclose(out, [b, a], atol=1e-12)

    def test_theta_zero_reduces_to_amp(self):
        for a, b in ((0.3, 0.5), (0.9, 0.02)):
            assert np.isclose(switch_time_theta(a, b, 0.0, 2.0, 1.1),
                              switch_time_amp(a, b, 2.0, 1.1))

    def test_admissibility_boundary(self):
        # at theta = 1/4 the allowed ratio window is [1/9, 9]
        assert theta_pair_admissible(9.0, 1.0, 0.25)
        assert not theta_pair_admissible(10.0, 1.0, 0.25)
        assert theta_pair_admissible(1.0, 9.0, 0.25)
        assert not theta_pair_admissible(1.0, 10.0, 0.25)

    def test_switch_time_in_window_iff_admissible(self):
        # admissibility is invariant along the evolution once it holds, and
        # the switch instant lands in [0, tau] exactly in that case
        gamma, tau = 2.0, 1.5
        theta = 0.3
        rng = np.random.default_rng(4)
        for _ in range(40):
            a, b = rng.random(2) + 1e-3
            tij = switch_time_theta(a, b, theta, gamma, tau)
            if theta_pair_admissible(a, b, theta):
                assert -1e-9 <= tij <= tau + 1e-9
                params = ThetaChannelParams(theta=theta, gamma_star=gamma, t=tau)
                evolved = diag_channel_theta(params, 1) @ np.array([a, b])
                assert theta_pair_admissible(evolved[0], evolved[1], theta)
            else:
                assert tij < -1e-9 or tij > tau + 1e-9

    def test_half_theta_rejected(self):
        with pytest.raises(ValueError):
            switch_time_theta(0.5, 0.5, 0.5, 1.0, 1.0)


class TestFixedPointAndTemperature:
    def test_theta_zero_is_ground_state(self):
        np.testing.assert_allclose(fixed_point_theta(0.0).matrix,
                                   np.diag([1.0, 0.0]), atol=1e-14)
        assert beta_of_theta(0.0, 1.0) == np.inf

    def test_half_theta_is_infinite_temperature(self):
        assert beta_of_theta(0.5, 1.0) == 0.0
        np.testing.assert_allclose(fixed_point_theta(0.5).matrix, np.eye(2) / 2)

    def test_quarter_theta(self):
        np.testing.assert_allclose(fixed_point_theta(0.25).matrix,
                                   np.diag([0.9, 0.1]), atol=1e-14)
        assert np.isclose(beta_of_theta(0.25, 2.0), np.arctanh(0.8), atol=1e-14)


class TestHlpPlan:
    def test_single_full_average(self):
        plan = hlp_plan([1.0, 0.0], [0.5, 0.5], gamma_star=2.0, residual_target=1e-5)
        assert len(plan.steps) == 1
        step = plan.steps[0]
        assert step.pair == (0, 1)
        assert np.isclose(step.lam, 0.5)
        assert step.tau > 0 and np.isfinite(step.tau)
        assert plan.predicted_residual <= 1e-5

    def test_partial_mix_has_exact_tau(self):
        plan = hlp_plan([0.7, 0.3], [0.6, 0.4], gamma_star=2.0)
        assert len(plan.steps) == 1
        assert np.isclose(plan.steps[0].lam, 0.75)
        # lam = 3/4 -> tau = -(2/gamma) ln|1 - 2 lam| = (2/gamma) ln 2
        assert np.isclose(plan.steps[0].tau, np.log(2.0))
        assert plan.predicted_residual < 1e-12

    def test_model_cooling_case(self):
        # diag(1..8)/36 -> uniform: four half-mixes, noise-on time 12/J
        y = np.arange(8, 0, -1) / 36.0
        plan = hlp_plan(y, np.full(8, 1 / 8), gamma_star=5.0, residual_target=9.95e-5)
        assert len(plan.steps) == 4
        assert all(np.isclose(s.lam, 0.5) for s in plan.steps)
        assert abs(plan.total_dissipative_time - 12.0) < 0.05
        assert np.isclose(plan.predicted_residual, 9.95e-5, rtol=1e-3)

    def test_plan_arithmetic_is_exact_before_truncation(self):
        # composing the raw transforms maps y to x exactly in <= N-1 steps
        rng = np.random.default_rng(5)
        for _ in range(25):
            y = np.sort(random_prob_vector(8, rng))[::-1]
            x = np.sort(t_transform(
                t_transform(y, (0, 5), rng.random()), (2, 7), rng.random()))[::-1]
            plan = hlp_plan(y, x, gamma_star=5.0, residual_target=1e-9)
            assert len(plan.steps) <= 7
            w = y.copy()
            for s in plan.steps:
                exact_lam = s.lam
                w = t_transform(w, s.pair, exact_lam)
            np.testing.assert_allclose(np.sort(w), np.sort(x), atol=1e-12)

    def test_anti_trap_invariant(self):
        # every intermediate spectrum w satisfies x < w < y
        rng = np.random.default_rng(6)
        for _ in range(25):
            y = random_prob_vector(8, rng)
            x = y.copy()
            for _ in range(4):
                j, k = sorted(rng.choice(8, size=2, replace=False))
                x = t_transform(x, (j, k), rng.random())
            plan = hlp_plan(y, x, gamma_star=5.0, residual_target=1e-8)
            w = plan.initial_spectrum.copy()
            for s in plan.steps:
                w = t_transform(w, s.pair, s.lam)
                assert majorises(w, plan.initial_spectrum, tol=1e-9)
                assert majorises(plan.target_spectrum, w, tol=1e-9)

    def test_tau_realizes_lambda_through_channel_block(self):
        # switching bit-flip noise on for tau_jk performs exactly the
        # lambda-mix on a protected pair
        lam = 0.8
        gamma = 3.0
        tau = -2.0 / gamma * np.log(2 * lam - 1)
        params = ThetaChannelParams(theta=0.5, gamma_star=gamma, t=tau)
        block = diag_channel_theta(params, 1)
        np.testing.assert_allclose(block @ np.array([1.0, 0.0]),
                                   [lam, 1 - lam], atol=1e-12)

    def test_rejects_non_majorised_target(self):
        with pytest.raises(ReachabilityError):
            hlp_plan([0.6, 0.4], [0.7, 0.3], gamma_star=1.0)

    def test_equal_spectra_empty_plan(self):
        plan = hlp_plan([0.6, 0.4], [0.6, 0.4], gamma_star=1.0)
        assert plan.steps == ()
        assert plan.predicted_residual < 1e-12


class TestHlpExecute:
    def test_empty_plan_emits_only_diagonalizers(self):
        rho = random_density(2, 12)
        plan = plan_state_transfer(rho, rho, gamma_star=5.0)
        assert plan.steps == ()
        system = ising_chain(2, noise_kind="bitflip", gamma_star=5.0)
        schedule = hlp_execute(plan, system)
        assert len(schedule) == 2
        assert all(isinstance(seg, UnitarySegment) for seg in schedule.segments)
        out = propagate_schedule(system, schedule, rho)
        assert frobenius_error(vec(out), vec(rho.matrix)) < 1e-10

    def test_two_qubit_execution_matches_plan_prediction(self):
        plan = hlp_plan([0.4, 0.3, 0.2, 0.1], np.full(4, 0.25),
                        gamma_star=5.0, residual_target=1e-6)
        system = ising_chain(2, noise_kind="bitflip", gamma_star=5.0)
        schedule = hlp_execute(plan, system, trotter_steps=64)
        rho0 = DensityOperator(np.diag(plan.initial_spectrum).astype(complex))
        out = propagate_schedule(system, schedule, rho0)
        got = sorted_spectrum(out)
        assert np.linalg.norm(got - plan.predicted_final_spectrum) < 1e-6

    def test_three_qubit_cooling_end_to_end(self):
        y = np.arange(8, 0, -1) / 36.0
        plan = hlp_plan(y, np.full(8, 1 / 8), gamma_star=5.0, residual_target=9.95e-5)
        system = ising_chain(3, noise_kind="bitflip", gamma_star=5.0)
        schedule = hlp_execute(plan, system, trotter_steps=64)
        rho0 = DensityOperator(np.diag(plan.initial_spectrum).astype(complex))
        out = propagate_schedule(system, schedule, rho0)
        assert frobenius_error(vec(out), vec(thermal_state(3).matrix)) <= 1.5e-4

    def test_forward_model_matches_execution(self):
        plan = hlp_plan([0.4, 0.3, 0.2, 0.1], [0.35, 0.3, 0.2, 0.15],
                        gamma_star=5.0, residual_target=1e-6)
        system = ising_chain(2, noise_kind="bitflip", gamma_star=5.0)
        schedule = hlp_execute(plan, system, trotter_steps=32)
        rho0 = DensityOperator(np.diag(plan.initial_spectrum).astype(complex))
        out = propagate_schedule(system, schedule, rho0)
        predicted = predict_executed_spectrum(plan, system, trotter_steps=32)
        assert np.linalg.norm(sorted_spectrum(out) - predicted) < 1e-9

    def test_general_state_transfer_with_diagonalizers(self):
        rng = np.random.default_rng(21)
        rho0 = random_density(2, 31)
        w = sorted_spectrum(rho0)
        target_spec = t_transform(t_transform(w, (0, 3), 0.8), (1, 2), 0.7)
        u = np.linalg.qr(rng.standard_normal((4, 4))
                         + 1j * rng.standard_normal((4, 4)))[0]
        target = DensityOperator(u @ np.diag(np.sort(target_spec)[::-1]) @ u.conj().T)
        plan = plan_state_transfer(rho0, target, gamma_star=5.0, residual_target=1e-6)
        system = ising_chain(2, noise_kind="bitflip", gamma_star=5.0)
        out = propagate_schedule(system, hlp_execute(plan, system, 64), rho0)
        assert frobenius_error(vec(out), vec(target.matrix)) < 5e-6

    def test_requires_terminal_bitflip(self):
        plan = hlp_plan([0.7, 0.3], [0.5, 0.5], gamma_star=5.0)
        amp_system = ising_chain(1, noise_kind="amp", gamma_star=5.0)
        with pytest.raises(ConfigurationError):
            hlp_execute(plan, amp_system)

    @pytest.mark.parametrize("trotter", [0, -1])
    def test_rejects_nonpositive_trotter_count(self, trotter):
        plan = hlp_plan([0.4, 0.3, 0.2, 0.1], np.full(4, 0.25), gamma_star=5.0)
        system = ising_chain(2, noise_kind="bitflip", gamma_star=5.0)
        for compile_or_predict in (hlp_execute, predict_executed_spectrum):
            with pytest.raises(ValueError, match="trotter_steps must be at least 1"):
                compile_or_predict(plan, system, trotter_steps=trotter)

    @pytest.mark.parametrize("trotter", [2.5, 3.0])
    def test_rejects_non_integer_trotter_count(self, trotter):
        plan = hlp_plan([0.4, 0.3, 0.2, 0.1], np.full(4, 0.25), gamma_star=5.0)
        system = ising_chain(2, noise_kind="bitflip", gamma_star=5.0)
        for compile_or_predict in (hlp_execute, predict_executed_spectrum):
            with pytest.raises(ValueError, match="trotter_steps must be an integer"):
                compile_or_predict(plan, system, trotter_steps=trotter)


def test_stacked_pair_dynamics_equals_one_pair_at_a_time():
    # reference: each pair's kicked 2x2 map exponentiated and powered alone
    energies = np.random.default_rng(9).normal(size=8) * 3.0
    gamma_star, tau, nseg = 5.0, 0.7, 16
    h = tau / nseg
    thetas, mus = reach._pair_dynamics(energies, gamma_star, tau, nseg)
    for i, omega in enumerate(energies[0::2] - energies[1::2]):
        gen = np.array([[0.0, omega], [-omega, -gamma_star / 2.0]])
        c, s = np.cos(omega * h / 2.0), np.sin(omega * h / 2.0)
        kick = np.array([[c, -s], [s, c]])
        m = np.linalg.matrix_power(kick @ _expm.expm(h * gen) @ kick, nseg)
        assert thetas[i] == np.arctan2(m[1, 0], m[0, 0])
        assert mus[i] == np.hypot(m[0, 0], m[1, 0])


PAIRS4 = [(j, k) for j in range(4) for k in range(j + 1, 4)]


@settings(max_examples=25, deadline=None)
@given(weights=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
       mixes=st.lists(st.tuples(st.sampled_from(PAIRS4), st.floats(0.0, 1.0)),
                      min_size=1, max_size=3),
       basis_seed=st.none() | st.integers(0, 2 ** 16))
def test_executed_hlp_chain_matches_its_prediction(weights, mixes, basis_seed):
    """Plan, compile and propagate a random majorised two-qubit transfer: the
    schedule has 4k+4 segments per step (plus two basis changes for a
    density-operator plan) and lands on the predicted spectrum."""
    y = np.array(weights) / sum(weights)
    x = y
    for pair, lam in mixes:
        x = t_transform(x, pair, lam)
    trotter = 2
    if basis_seed is None:
        plan = hlp_plan(y, x, gamma_star=5.0, residual_target=1e-3)
        rho0 = DensityOperator(np.diag(plan.initial_spectrum).astype(complex))
        basis_changes = 0
    else:
        rng = np.random.default_rng(basis_seed)
        u, v = (np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
                for _ in range(2))
        rho0 = DensityOperator(u @ np.diag(y) @ u.conj().T)
        target = DensityOperator(v @ np.diag(x) @ v.conj().T)
        plan = plan_state_transfer(rho0, target, gamma_star=5.0, residual_target=1e-3)
        basis_changes = 2
    system = ising_chain(2, noise_kind="bitflip", gamma_star=5.0)
    schedule = hlp_execute(plan, system, trotter_steps=trotter)
    assert len(schedule) == len(plan.steps) * (4 * trotter + 4) + basis_changes
    out = propagate_schedule(system, schedule, rho0)
    predicted = predict_executed_spectrum(plan, system, trotter_steps=trotter)
    assert np.abs(sorted_spectrum(out) - predicted).max() < 1e-9


class TestLieClosure:
    def test_single_generator(self):
        assert lie_closure_dimension([SIGMA_X]) == 1

    def test_su2(self):
        assert lie_closure_dimension([SIGMA_X, SIGMA_Y]) == 3

    def test_two_qubit_full_control(self):
        sys2 = ising_chain(2)
        gens = [sys2.h0] + [c.operator for c in sys2.controls]
        assert lie_closure_dimension(gens) == 15

    def test_three_qubit_full_control(self):
        sys3 = ising_chain(3)
        gens = [sys3.h0] + [c.operator for c in sys3.controls]
        assert lie_closure_dimension(gens) == 63

    def test_invariant_under_basis_recombination(self):
        rng = np.random.default_rng(7)
        gens = [embed_local(SIGMA_X, 1, 2), embed_local(SIGMA_Y, 1, 2),
                embed_local(SIGMA_Z, 2, 2) + 0.3 * embed_local(SIGMA_X, 1, 2)]
        d0 = lie_closure_dimension(gens)
        a = rng.standard_normal((3, 3))
        while abs(np.linalg.det(a)) < 0.1:
            a = rng.standard_normal((3, 3))
        mixed = [sum(a[i, j] * gens[j] for j in range(3)) for i in range(3)]
        assert lie_closure_dimension(mixed) == d0

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            lie_closure_dimension([np.array([[0.0, 1.0], [0.0, 0.0]])])

    @pytest.mark.parametrize("bad", [np.full((2, 2), np.nan),
                                     np.diag([np.inf, 1.0]),
                                     np.array([[0.0, np.inf], [np.inf, 0.0]])])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            lie_closure_dimension([SIGMA_X, bad])

    def test_proper_subalgebra_of_su4(self):
        # so(4): ZZ with x-only local terms never reaches the y-rotations
        gens = [pauli_string("ZZ"), pauli_string("XI"), pauli_string("IX")]
        assert lie_closure_dimension(gens) == _all_pairs_closure(gens) == 6

    def test_x_only_three_qubit_chain_is_not_controllable(self):
        drift = pauli_string("ZZI") + pauli_string("IZZ")
        gens = [drift, pauli_string("XII"), pauli_string("IXI"), pauli_string("IIX")]
        assert lie_closure_dimension(gens) == _all_pairs_closure(gens) == 15


PAULIS = {"I": np.eye(2, dtype=complex), "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}


def pauli_string(label: str) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for p in label:
        out = np.kron(out, PAULIS[p])
    return out


def _all_pairs_closure(generators, tol: float = 1e-10) -> int:
    """Reference closure: brackets of every pair of basis elements.

    Dimension of the real Lie algebra generated by {i H} under commutators.

    Generators are projected to their traceless part; candidates are
    orthonormalized against the running basis in the Hilbert-Schmidt inner
    product (two Gram-Schmidt passes, threshold ``tol``).  Full unitary
    controllability on n qubits corresponds to the value N^2 - 1.
    """
    mats = [as_matrix(g) for g in generators]
    if not mats:
        raise ValueError("need at least one generator")
    dim = mats[0].shape[0]
    for m in mats:
        if m.shape != (dim, dim):
            raise ValueError("generators must share one dimension")
        if np.abs(m - m.conj().T).max() > 1e-10:
            raise ValueError("generators must be Hermitian")

    max_dim = dim * dim
    basis_flat = np.empty((max_dim, dim * dim), dtype=complex)
    basis_mats: list[np.ndarray] = []

    def try_add(candidate: np.ndarray) -> None:
        v = candidate.reshape(-1)
        m = len(basis_mats)
        for _ in range(2):
            if m:
                coeff = basis_flat[:m].conj() @ v
                v = v - basis_flat[:m].T @ coeff
        nrm = np.linalg.norm(v)
        if nrm > tol:
            v = v / nrm
            basis_flat[m] = v
            basis_mats.append(v.reshape(dim, dim))

    for m in mats:
        traceless = m - (np.trace(m) / dim) * np.eye(dim)
        try_add(1j * traceless)

    i = 0
    while i < len(basis_mats):
        a = basis_mats[i]
        for j in range(i):
            b = basis_mats[j]
            try_add(a @ b - b @ a)
        i += 1
    return len(basis_mats)


@st.composite
def pauli_generator_sets(draw):
    n = draw(st.integers(1, 3))
    labels = draw(st.lists(st.text("IXYZ", min_size=n, max_size=n)
                           .filter(lambda lab: set(lab) != {"I"}),
                           min_size=1, max_size=4, unique=True))
    return [pauli_string(lab) for lab in labels]


@settings(max_examples=40, deadline=None)
@given(gens=pauli_generator_sets(), seed=st.integers(0, 2**32 - 1))
def test_closure_matches_all_pairs_reference(gens, seed):
    """Pauli subsets give many proper subalgebras; the generator-bracket
    closure must find the same dimension as the all-pairs reference on each,
    on an invertible real recombination of it, and on a unitary conjugation."""
    rng = np.random.default_rng(seed)
    k, dim = len(gens), gens[0].shape[0]
    a = rng.standard_normal((k, k))
    while abs(np.linalg.det(a)) < 0.1:
        a = rng.standard_normal((k, k))
    u = np.linalg.qr(rng.standard_normal((dim, dim))
                     + 1j * rng.standard_normal((dim, dim)))[0]
    expected = _all_pairs_closure(gens)
    for variant in (gens,
                    [sum(a[i, j] * gens[j] for j in range(k)) for i in range(k)],
                    [u @ g @ u.conj().T for g in gens]):
        assert _all_pairs_closure(variant) == expected
        assert lie_closure_dimension(variant) == expected


@settings(max_examples=15, deadline=None)
@given(gens=pauli_generator_sets(), exponent=st.floats(-12.0, 12.0))
@example(gens=[SIGMA_X, SIGMA_Y], exponent=-11.0)
def test_closure_dimension_is_unit_invariant(gens, exponent):
    """Rescaling every Hamiltonian by one factor c, i.e. changing units,
    leaves the generated algebra and so its dimension unchanged."""
    c = 10.0 ** exponent
    assert lie_closure_dimension([c * g for g in gens]) == lie_closure_dimension(gens)
