import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from noisectrl import _expm, lindblad, models, reach
from noisectrl.exceptions import NumericalHealthError
from noisectrl.lindblad import (BathParams, assemble_liouvillian, diag_channel_theta,
                                heat_bath_generator, pauli_basis, propagator,
                                theta_channel_exact, theta_generator, v_theta)
from noisectrl.lindblad import liouvillians
from noisectrl.models import ControlSystem, ion_trap_model, ising_chain, thermal_state, zero_state
from noisectrl.optim import ControlSequence, TransferProblem, error
from noisectrl.qops import (IDENTITY_2, SIGMA_MINUS, SIGMA_PLUS, SIGMA_X, SIGMA_Y, SIGMA_Z,
                            embed_local, random_density, unvec, vec)
from noisectrl.schedule import HoldSegment, Schedule, UnitarySegment, propagate_schedule
from superops import commutator_superop, dissipator_superop


def displayed_theta_generator(theta):
    """Gamma(theta) as printed: -[[-t^2,0,0,tb^2],[0,tbt-1/2,tbt,0],...]."""
    tb = 1 - theta
    return -np.array([
        [-theta ** 2, 0, 0, tb ** 2],
        [0, tb * theta - 0.5, tb * theta, 0],
        [0, tb * theta, tb * theta - 0.5, 0],
        [theta ** 2, 0, 0, -tb ** 2],
    ], dtype=complex)


def random_liouvillian(n, seed, gamma=1.0):
    rng = np.random.default_rng(seed)
    dim = 2 ** n
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (h + h.conj().T) / 2
    v = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 1j * commutator_superop(h) + gamma * dissipator_superop(v)


class TestCommutatorSuperop:
    def test_pauli_commutator(self):
        out = commutator_superop(SIGMA_Z) @ vec(SIGMA_X)
        np.testing.assert_allclose(out, vec(2j * SIGMA_Y), atol=1e-14)

    def test_commuting_diagonal_case(self):
        h = np.diag([1.0, -2.0]).astype(complex)
        rho = np.diag([0.3, 0.7]).astype(complex)
        np.testing.assert_allclose(commutator_superop(h) @ vec(rho), 0, atol=1e-14)

    def test_spectrum_is_pairwise_differences(self):
        # oracle: brute-force eigensolve of H, then all lambda_i - lambda_j
        rng = np.random.default_rng(3)
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = (h + h.conj().T) / 2
        lam = np.linalg.eigvalsh(h)
        expected = np.sort([li - lj for li in lam for lj in lam])
        got = np.sort(np.linalg.eigvals(commutator_superop(h)).real)
        np.testing.assert_allclose(got, expected, atol=1e-10)


class TestDissipatorSuperop:
    def test_amplitude_damping_on_excited_state(self):
        # d rho/dt = -Gamma_hat vec(rho) must pump |1><1| into |0><0|
        gam = dissipator_superop(SIGMA_MINUS)
        rho_dot = unvec(-gam @ vec(np.diag([0.0, 1.0]).astype(complex)))
        np.testing.assert_allclose(rho_dot, np.diag([1.0, -1.0]), atol=1e-14)

    @pytest.mark.parametrize("theta", [0.0, 0.25, 0.5, 0.8])
    def test_matches_displayed_theta_generator(self, theta):
        np.testing.assert_allclose(theta_generator(theta),
                                   displayed_theta_generator(theta), atol=1e-14)
        np.testing.assert_allclose(theta_generator(theta), dissipator_superop(v_theta(theta)),
                                   rtol=0, atol=1e-15)

    def test_trace_preservation_row(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            v = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            gam = dissipator_superop(v)
            left = vec(np.eye(3)).conj() @ gam
            np.testing.assert_allclose(left, 0, atol=1e-12)


class TestAssembleLiouvillian:
    def test_everything_off_is_zero(self):
        sys1 = ising_chain(1, gamma_star=5.0)
        ell = assemble_liouvillian(sys1, np.zeros(2), np.zeros(1))
        np.testing.assert_allclose(ell, 0, atol=1e-14)

    def test_single_qubit_bitflip_structure(self):
        # gamma * Gamma_hat(sigma_x / 2) = (gamma / 4) * displayed sigma_x generator
        sys1 = ising_chain(1, noise_kind="bitflip", gamma_star=5.0)
        b = pauli_basis(1)
        ell = b @ assemble_liouvillian(sys1, np.zeros(2), np.array([2.0])) @ b.conj().T
        displayed = -np.array([
            [-1, 0, 0, 1], [0, -1, 1, 0], [0, 1, -1, 0], [1, 0, 0, -1],
        ], dtype=complex)
        np.testing.assert_allclose(ell, 2.0 / 4.0 * displayed, atol=1e-14)

    def test_bilinearity_in_u(self):
        sys3 = ising_chain(3, gamma_star=5.0)
        rng = np.random.default_rng(0)
        u1, u2 = rng.standard_normal((2, 6))
        g = np.array([1.0])
        lhs = (assemble_liouvillian(sys3, u1 + u2, g)
               - assemble_liouvillian(sys3, u2, g))
        rhs = (assemble_liouvillian(sys3, u1, g)
               - assemble_liouvillian(sys3, np.zeros(6), g))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_rejects_out_of_bound_gamma(self):
        sys1 = ising_chain(1, gamma_star=5.0)
        with pytest.raises(ValueError):
            assemble_liouvillian(sys1, np.zeros(2), np.array([5.5]))
        with pytest.raises(ValueError):
            assemble_liouvillian(sys1, np.zeros(2), np.array([-0.1]))


def random_operators(rng, count, dim, hermitian):
    a = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    return (a + a.conj().swapaxes(-1, -2)) / 2 if hermitian else a


class TestBatchedSuperops:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(0, 4),
           dim=st.sampled_from([2, 3, 4, 8]))
    def test_commutator_stack_matches_per_matrix_kron(self, seed, count, dim):
        hs = random_operators(np.random.default_rng(seed), count, dim, hermitian=True)
        got = commutator_superop(hs)
        assert got.shape == (count, dim * dim, dim * dim)
        ident = np.eye(dim)
        for k, h in enumerate(hs):
            np.testing.assert_array_equal(got[k], np.kron(ident, h) - np.kron(h.T, ident))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 4),
           dim=st.sampled_from([2, 4]))
    def test_dissipator_stack_matches_single_operators(self, seed, count, dim):
        vs = random_operators(np.random.default_rng(seed), count, dim, hermitian=False)
        got = dissipator_superop(vs)
        for k, v in enumerate(vs):
            np.testing.assert_array_equal(got[k], dissipator_superop(v))

    def test_stack_shape_is_kept(self):
        hs = random_operators(np.random.default_rng(1), 6, 4, hermitian=True).reshape(2, 3, 4, 4)
        got = commutator_superop(hs)
        assert got.shape == (2, 3, 16, 16)
        np.testing.assert_array_equal(got[1, 2], commutator_superop(hs[1, 2]))


class TestLiouvillians:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_slices_match_single_slice_assembly_with_background(self, seed):
        system = ising_chain(3, gamma_star=5.0, dephasing=0.2)
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((4, len(system.controls)))
        gamma = rng.uniform(0.0, 5.0, size=(4, 1))
        ells = liouvillians(system, u, gamma)
        assert ells.shape == (4, 64, 64)
        for k in range(4):
            np.testing.assert_allclose(ells[k], assemble_liouvillian(system, u[k], gamma[k]),
                                       rtol=0, atol=1e-13)

    def test_sum_of_terms(self):
        # the generator is the drift, each control, each noise and the
        # background, built term by term from the primitives
        system = ising_chain(2, gamma_star=5.0, dephasing=0.3)
        rng = np.random.default_rng(7)
        u = rng.standard_normal(len(system.controls))
        gamma = np.array([1.5])
        expected = 1j * commutator_superop(system.h0)
        for amp, ctrl in zip(u, system.controls):
            expected = expected + 1j * amp * commutator_superop(ctrl.operator)
        expected = expected + gamma[0] * dissipator_superop(system.noises[0].operator)
        for op, rate in system.background_noises:
            expected = expected + rate * dissipator_superop(op)
        b = pauli_basis(2)
        np.testing.assert_allclose(b @ liouvillians(system, u[None], gamma[None])[0] @ b.conj().T,
                                   expected, rtol=0, atol=1e-13)

    def test_dephasing_background_decays_coherence(self):
        # sigma_z/2 at rate g on one qubit damps |0><1| at rate g/2
        system = ising_chain(1, gamma_star=5.0, dephasing=0.4)
        b = pauli_basis(1)
        ell = b @ assemble_liouvillian(system, np.zeros(2), np.zeros(1)) @ b.conj().T
        coh = vec(np.array([[0, 1], [0, 0]], dtype=complex))
        np.testing.assert_allclose(ell @ coh, 0.2 * coh, atol=1e-15)


def superoperator_terms(system):
    """The stack's terms from the column-stacked primitives, in its row order."""
    drift = 1j * commutator_superop(system.h0)
    for op, rate in system.background_noises:
        drift = drift + rate * dissipator_superop(op)
    return np.array([drift] + [1j * commutator_superop(c.operator) for c in system.controls]
                    + [dissipator_superop(noise.operator) for noise in system.noises])


class TestPauliStack:
    def test_basis_columns_are_normalised_pauli_strings(self):
        paulis = [IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z]
        b = pauli_basis(2)
        np.testing.assert_allclose(b.conj().T @ b, np.eye(16), rtol=0, atol=1e-15)
        for a in range(16):
            string = np.kron(paulis[a // 4], paulis[a % 4])
            np.testing.assert_array_equal(b[:, a], vec(string) / 2)
        rho = random_density(2, 4).matrix
        coords = b.conj().T @ vec(rho)
        assert np.abs(coords.imag).max() < 1e-16
        assert coords[0] == pytest.approx(0.5)     # tr(rho) / sqrt(N)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_basis_is_zero_outside_its_flip_sector_blocks(self, n):
        # entry (i, j), vec index j N + i, lies in sector i ^ j; string a in
        # the sector whose bit for qubit q is set where a_q is x or y
        dim = 2 ** n
        b = pauli_basis(n)
        v = np.arange(dim * dim)
        entry_sector = (v % dim) ^ (v // dim)
        digits = v[:, None] // 4 ** np.arange(n - 1, -1, -1) % 4
        string_sector = ((digits == 1) | (digits == 2)) @ 2 ** np.arange(n - 1, -1, -1)
        assert np.all(b[entry_sector[:, None] != string_sector] == 0)
        for s in range(dim):
            block = b[np.ix_(entry_sector == s, string_sector == s)]
            np.testing.assert_allclose(block.conj().T @ block, np.eye(dim), rtol=0, atol=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 3), site=st.integers(1, 3),
           noise=st.one_of(st.sampled_from(["amp", "bitflip"]), st.floats(0.0, 1.0)),
           dephasing=st.one_of(st.none(), st.floats(0.01, 2.0)),
           coupling=st.floats(0.1, 3.0))
    def test_stack_is_the_real_form_of_the_superoperators(self, n, site, noise, dephasing,
                                                          coupling):
        system = ising_chain(n, coupling=coupling, noise_kind=noise, noisy_site=min(site, n),
                             dephasing=dephasing)
        stack = system.pauli_generators
        assert stack.dtype == np.float64
        assert stack.shape == (1 + len(system.controls) + len(system.noises), 4 ** n, 4 ** n)
        assert not stack[:, 0].any()
        b = pauli_basis(n)
        np.testing.assert_allclose(b @ stack @ b.conj().T, superoperator_terms(system),
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("make", [
        *(lambda n=n, kind=kind, deph=deph: ising_chain(n, coupling=1.3, noise_kind=kind,
                                                       dephasing=deph)
          for n in (1, 2, 3, 4) for kind in ("amp", "bitflip", 0.3) for deph in (None, 0.2)),
        lambda: ion_trap_model(),
    ])
    def test_rows_built_on_demand_match_the_full_stack(self, make):
        full = make().pauli_generators
        last = len(full) - 1
        for rows in ([0], [last], [0, last], list(range(1, last + 1))):
            got = make().generator_rows(np.array(rows))
            for row, k in zip(got, rows):
                assert np.abs(row - full[k]).max() <= 1e-15 * np.abs(full[k]).max()

    def test_holds_build_only_the_rows_they_read(self, monkeypatch):
        built = []
        exact = models._generator_stack
        monkeypatch.setattr(models, "_generator_stack",
                            lambda system, rows=None: built.append(rows) or exact(system, rows))
        system = ising_chain(4, noise_kind="bitflip", dephasing=0.1)
        u = np.zeros(8)
        ell = assemble_liouvillian(system, u, np.zeros(1))            # drift only
        assemble_liouvillian(system, u, np.array([2.0]))              # drift kept, noise built
        u[3] = 0.5
        assemble_liouvillian(system, u, np.array([2.0]))
        assert [list(rows) for rows in built] == [[0], [9], [4]]
        np.testing.assert_array_equal(system.generator_rows(np.array([0])), [ell])
        np.testing.assert_array_equal(system.pauli_generators[[0, 4, 9]],
                                      system.generator_rows(np.array([0, 4, 9])))
        assert built[-1] is None and len(built) == 4

    def test_stack_is_built_once_and_read_only(self):
        system = ising_chain(2, dephasing=0.1)
        assert system.pauli_generators is system.pauli_generators
        with pytest.raises(ValueError):
            system.pauli_generators[0, 0, 0] = 1.0

    @pytest.mark.parametrize("corrupt, message", [
        (lambda t: (t[0] * 1j,) + t[1:], "imaginary part of Hamiltonian"),
        (lambda t: t[:4] + (2 * t[4],), r"row 0 \(trace preservation\) of generator 5"),
    ])
    def test_broken_build_raises(self, monkeypatch, corrupt, message):
        tables = lindblad._pauli_tables(2)
        monkeypatch.setattr(lindblad, "_pauli_tables", lambda n: corrupt(tables))
        with pytest.raises(NumericalHealthError, match=message):
            ising_chain(2, noise_kind="amp").pauli_generators

    def test_non_finite_drift_raises(self):
        # the system itself rejects the drift, before any generator is built
        sys1 = ising_chain(1)
        with pytest.raises(NumericalHealthError):
            bad = ControlSystem(n=1, h0=np.full((2, 2), np.nan), controls=sys1.controls,
                                noises=sys1.noises)
            liouvillians(bad, np.zeros((1, 2)), np.zeros((1, 1)))

    def test_liouvillians_reject_misshaped_amplitudes(self):
        sys1 = ising_chain(1)
        with pytest.raises(ValueError):
            liouvillians(sys1, np.zeros((2, 3)), np.zeros((2, 0)))
        with pytest.raises(ValueError):
            liouvillians(sys1, np.zeros((2, 2)), np.zeros((3, 1)))


class TestExpm:
    def test_real_input_stays_real_and_matches_complex_path(self):
        system = ising_chain(2, dephasing=0.2)
        rng = np.random.default_rng(3)
        a = -0.4 * liouvillians(system, rng.standard_normal((6, 4)),
                                rng.uniform(0.0, 5.0, (6, 1)))
        got = _expm.expm(a)
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, _expm.expm(a.astype(complex)), rtol=0, atol=1e-14)
        assert _expm.expm(a[0]).dtype == np.float64

    def test_large_member_does_not_degrade_its_neighbours(self):
        # every matrix is scaled by its own exponent, so a neighbour of a
        # large-amplitude slice comes out as if exponentiated alone
        system = ising_chain(2)
        rng = np.random.default_rng(5)
        small = -0.3 * liouvillians(system, rng.standard_normal((2, 4)), np.full((2, 1), 2.0))
        large = -30.0 * liouvillians(system, 20 * rng.standard_normal((1, 4)), np.full((1, 1), 5.0))
        got = _expm.expm(np.concatenate([small[:1], large, small[1:]]))
        for k, member in zip((0, 2), small):
            np.testing.assert_allclose(got[k], _expm.expm(member), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("exponent", [np.full((4, 4), np.nan),      # non-finite
                                          np.array([[800.0]])])          # overflowing
    def test_bad_exponent_raises_health_error(self, exponent):
        with pytest.raises(NumericalHealthError):
            _expm.expm(exponent)

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3), (0, 0), (3, 0, 0)])
    def test_non_square_input_raises_value_error(self, shape):
        with pytest.raises(ValueError, match="square"):
            _expm.expm(np.zeros(shape))
        with pytest.raises(ValueError, match="square"):
            _expm.expm(np.zeros(shape), derivative=True)

    def test_frechet_direction_must_match_the_exponent(self):
        frechet = _expm.expm(np.zeros((2, 3, 3)), derivative=True)[1]
        for u, v in (((3,), (2, 3)), ((2, 3), (3,)), ((2, 4), (2, 4)), ((2, 3, 3), (2, 3, 3))):
            with pytest.raises(ValueError, match="do not match"):
                frechet(np.zeros(u), np.zeros(v))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           log_norms=st.lists(st.floats(-3.0, np.log10(2e3)), min_size=1, max_size=10))
    @example(seed=0, log_norms=[-3.0] + [np.log10(_expm._THETA25 * 2 ** (s - 0.5))
                                         for s in range(1, 10)])
    def test_frechet_matches_scipy_per_member(self, seed, log_norms):
        # 1-norms from 1e-3 to 2e3 mix scaling exponents 0 to 9 in one stack,
        # so the derivative's rank, at most 25 2^s after s squarings, passes n = 16
        system = ising_chain(2, dephasing=0.3)
        rng = np.random.default_rng(seed)
        k = len(log_norms)
        ell = liouvillians(system, rng.standard_normal((k, 4)), rng.uniform(0.0, 5.0, (k, 1)))
        norm1 = np.abs(ell).sum(axis=-2).max(axis=-1)
        a = -(10.0 ** np.array(log_norms) / norm1)[:, None, None] * ell
        u, v = rng.standard_normal((2, k, 16))
        r, frechet = _expm.expm(a, derivative=True)
        l = frechet(u, v)
        assert r.dtype == l.dtype == np.float64
        for j in range(k):
            ref_r, ref_l = scipy.linalg.expm_frechet(a[j], np.outer(u[j], v[j]))
            # scipy scales to 1-norm 4.74 rather than 2.43; near 1-norm 2e3 the
            # two then differ by up to 2.3e-13, on scipy's side against a
            # 40-digit reference (the kernel stays within 6e-15 of it on these
            # stacks), so the bound grows as 4 ||a||_1 u there
            rtol = max(1e-13, 2 * 10.0 ** log_norms[j] * np.finfo(float).eps)
            for got, ref in ((r[j], ref_r), (l[j], ref_l), (r[j], _expm.expm(a[j]))):
                assert np.abs(got - ref).max() <= rtol * np.abs(ref).max()

    @pytest.mark.parametrize("n, exponents", [(2, [0, 1, 2, 3, 4, 5, 6]), (3, [0, 2, 3, 4]),
                                              (4, [0, 1, 3, 5])])
    def test_frechet_ladder_crossover_matches_scipy(self, n, exponents):
        # the rank-25 derivative climbs the ladder as thin factors while their
        # doubled width 25 2^(step+1) is at most N^2, then densifies: at step 0
        # on 16^2, after one step on 64^2 and after three on 256^2; members
        # that stop squaring earlier ride along as zero columns
        system = ising_chain(n, dephasing=0.3)
        rng = np.random.default_rng(n)
        k = len(exponents)
        ell = liouvillians(system, rng.standard_normal((k, 2 * n)), rng.uniform(0.0, 5.0, (k, 1)))
        norm1 = _expm._THETA25 * 2.0 ** (np.array(exponents) - 0.5)
        a = -(norm1 / np.abs(ell).sum(axis=-2).max(axis=-1))[:, None, None] * ell
        u, v = rng.standard_normal((2, k, 4 ** n))
        l = _expm.expm(a, derivative=True)[1](u, v)
        state = _expm._exp(a, keep=True)[1]
        assert list(state[0]) == exponents
        for j in range(k):
            ref = scipy.linalg.expm_frechet(a[j], np.outer(u[j], v[j]), compute_expm=False)
            rtol = max(1e-13, 2 * norm1[j] * np.finfo(float).eps)
            assert np.abs(l[j] - ref).max() <= rtol * np.abs(ref).max()

    def test_expm_and_frechet_match_a_40_digit_reference(self):
        # one-qubit Liouvillians with scaling exponents 0 to 9 in one stack,
        # each scaled to just under theta25, at the scipy test's rtol; the
        # derivative's reference is the upper-right block of exp([[a, u v^T],
        # [0, a]]), so the bound measures the kernel's own error, not that of
        # scipy's reference near 1-norm 2e3
        mpmath = pytest.importorskip("mpmath")
        system = ising_chain(1, dephasing=0.3)
        rng = np.random.default_rng(21)
        ell = liouvillians(system, rng.standard_normal((10, 2)), rng.uniform(0.0, 5.0, (10, 1)))
        norm1 = 0.99 * _expm._THETA25 * 2.0 ** np.arange(10)
        a = -(norm1 / np.abs(ell).sum(axis=-2).max(axis=-1))[:, None, None] * ell
        u, v = rng.standard_normal((2, 10, 4))
        r, frechet = _expm.expm(a, derivative=True)
        l = frechet(u, v)
        assert list(_expm._exp(a, keep=True)[1][0]) == list(range(10))
        for j in range(10):
            block = np.block([[a[j], np.outer(u[j], v[j])], [np.zeros((4, 4)), a[j]]])
            with mpmath.workdps(40):
                ref = np.array(mpmath.expm(mpmath.matrix(block.tolist())).tolist(), dtype=float)
            rtol = max(1e-13, 2 * norm1[j] * np.finfo(float).eps)
            for got, want in ((r[j], ref[:4, :4]), (l[j], ref[:4, 4:])):
                assert np.abs(got - want).max() <= rtol * np.abs(want).max()

    def test_theta25_is_the_root_of_the_backward_error_series(self):
        # exp(x) = T_25(x) exp(h(x)) with h(x) = log(e^-x T_25(x)) = sum_(k > 25)
        # h_k x^k; theta_25 is where the relative backward error bound
        # sum |h_k| theta^(k-1) reaches 2^-53 (150 terms, 40 digits)
        mpmath = pytest.importorskip("mpmath")
        m, terms = 25, 150
        with mpmath.workdps(40):
            f = [mpmath.mpf(1)] + [mpmath.mpf(0)] * m + [
                mpmath.fsum((-1) ** (k - j) / (mpmath.factorial(k - j) * mpmath.factorial(j))
                            for j in range(m + 1))
                for k in range(m + 1, terms + 1)]
            h = [mpmath.mpf(0)] * (terms + 1)
            for k in range(m + 1, terms + 1):    # h' f = f', with h_k = 0 up to degree m
                h[k] = f[k] - mpmath.fsum(j * h[j] * f[k - j] for j in range(m + 1, k - m)) / k
            theta = mpmath.findroot(
                lambda t: mpmath.fsum(abs(h[k]) * t ** (k - 1) for k in range(m + 1, terms + 1))
                - mpmath.mpf(2) ** -53, 2.4)
        assert abs(float(theta) / _expm._THETA25 - 1) <= 1e-7

    @pytest.mark.parametrize("kind", [float, complex])
    def test_kernel_makes_no_solve(self, monkeypatch, kind):
        # T_25 has no denominator: exp(a) and L(a, u v^T) factor no matrix, on
        # members that square (thin and dense ladder steps) and ones that do not
        def refuse(*args, **kwargs):
            raise AssertionError("the exponential called a dense solver")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        monkeypatch.setattr(np.linalg, "inv", refuse)
        for n, scales in ((2, [0.1, 5.0, 60.0]), (3, [0.05, 40.0])):
            system = ising_chain(n, dephasing=0.3)
            rng = np.random.default_rng(n)
            k = len(scales)
            ell = liouvillians(system, rng.standard_normal((k, 2 * n)),
                               rng.uniform(0.0, 5.0, (k, 1)))
            a = -np.array(scales)[:, None, None] * ell * (np.exp(0.3j) if kind is complex else 1)
            u, v = rng.standard_normal((2, k, 4 ** n)).astype(kind)
            r, frechet = _expm.expm(a, derivative=True)
            l = frechet(u, v)
            assert r.dtype == l.dtype == np.dtype(kind)
            assert np.all(np.isfinite(r)) and np.all(np.isfinite(l))

    def test_stack_equals_one_member_at_a_time(self):
        system = ising_chain(2)
        rng = np.random.default_rng(8)
        scale = 10.0 ** rng.uniform(-1.0, 2.0, 7)
        a = -scale[:, None, None] * liouvillians(system, rng.standard_normal((7, 4)),
                                                 rng.uniform(0.0, 5.0, (7, 1)))
        u, v = rng.standard_normal((2, 7, 16))
        r, frechet = _expm.expm(a, derivative=True)
        l = frechet(u, v)
        for j in range(len(a)):
            rj, frechet_j = _expm.expm(a[j], derivative=True)
            lj = frechet_j(u[j], v[j])
            np.testing.assert_array_equal(r[j], rj)
            np.testing.assert_array_equal(l[j], lj)

    @pytest.mark.parametrize("a, u, v", [
        (np.full((4, 4), np.nan), np.zeros(4), np.zeros(4)),
        (np.zeros((4, 4)), np.full(4, np.nan), np.zeros(4)),
        (np.array([[800.0]]), np.array([1.0]), np.array([1.0])),
        (np.array([[700.0]]), np.array([1e5]), np.array([1e5])),
        (np.zeros((4, 4)), np.zeros(4), np.array([0.0, np.nan, 0.0, 0.0])),
    ], ids=["nan-exponent", "nan-direction", "overflowing-exp", "overflowing-derivative",
            "nan-v"])
    def test_frechet_bad_input_raises_health_error(self, a, u, v):
        with pytest.raises(NumericalHealthError):
            _expm.expm(a, derivative=True)[1](u, v)


@pytest.mark.parametrize("call", [
    lambda: reach._pair_dynamics(np.array([np.inf, 0.0, 1.0, -1.0]), 5.0, 1.0, 4),
    lambda: error(TransferProblem(ising_chain(1), zero_state(1), thermal_state(1), 1.0, 2),
                  ControlSequence(np.full((2, 2), np.nan), np.zeros((2, 1)))),
], ids=["pair_dynamics", "optim"])
def test_non_finite_exponent_is_a_numerical_failure(call):
    with pytest.raises(NumericalHealthError, match="non-finite"):
        call()


class TestPropagator:
    def test_zero_time_is_identity(self):
        ell = random_liouvillian(1, 1)
        np.testing.assert_allclose(propagator(ell, 0.0), np.eye(4), atol=1e-14)

    @pytest.mark.parametrize("theta", [0.0, 0.25, 0.5])
    @pytest.mark.parametrize("gamma_t", [0.1, 1.0, 10.0])
    def test_theta_channel_closed_form(self, theta, gamma_t):
        gamma = 2.0
        x = propagator(gamma * theta_generator(theta), gamma_t / gamma)
        np.testing.assert_allclose(x, theta_channel_exact(theta, gamma_t),
                                   atol=1e-10)

    def test_taylor_series_oracle(self):
        # oracle: brute-force truncated series of exp(-dt L)
        for seed in (2, 3):
            ell = random_liouvillian(2, seed)
            dt = 0.2
            term = np.eye(16, dtype=complex)
            total = term.copy()
            for k in range(1, 60):
                term = term @ (-dt * ell) / k
                total += term
            np.testing.assert_allclose(propagator(ell, dt), total, atol=1e-8)

    def test_trace_preservation(self):
        for seed in (4, 5):
            x = propagator(random_liouvillian(2, seed), 0.3)
            left = vec(np.eye(4)).conj() @ x
            np.testing.assert_allclose(left, vec(np.eye(4)).conj(), atol=1e-10)

    def test_choi_positivity(self):
        # complete positivity of the generated channel on a random 1-qubit L
        x = propagator(random_liouvillian(1, 6), 0.7)
        choi = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                e = np.zeros((2, 2), dtype=complex)
                e[i, j] = 1.0
                choi += np.kron(e, unvec(x @ vec(e)))
        evals = np.linalg.eigvalsh((choi + choi.conj().T) / 2)
        assert evals.min() > -1e-8

    def test_unital_fixed_point(self):
        sys3 = ising_chain(3, noise_kind="bitflip", gamma_star=5.0)
        ell = assemble_liouvillian(sys3, np.zeros(6), np.array([5.0]))
        b = pauli_basis(3)
        v_mix = vec(np.eye(8) / 8)
        np.testing.assert_allclose(b @ propagator(ell, 1.3) @ b.conj().T @ v_mix, v_mix,
                                   atol=1e-10)

    def test_amp_damping_ground_state_fixed(self):
        sys3 = ising_chain(3, noise_kind="amp", gamma_star=5.0)
        ell = assemble_liouvillian(sys3, np.zeros(6), np.array([5.0]))
        ground = np.zeros((8, 8), dtype=complex)
        ground[0, 0] = 1.0
        b = pauli_basis(3)
        np.testing.assert_allclose(b @ propagator(ell, 1.1) @ b.conj().T @ vec(ground),
                                   vec(ground), atol=1e-10)

    def test_non_finite_input_raises(self):
        bad = np.full((4, 4), np.nan, dtype=complex)
        with pytest.raises(NumericalHealthError):
            propagator(bad, 1.0)

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 3), (0, 0)])
    def test_non_square_generator_raises_value_error(self, shape):
        with pytest.raises(ValueError):
            propagator(np.zeros(shape), 0.1)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), sizes=st.lists(st.integers(1, 8), min_size=1, max_size=6),
           is_complex=st.booleans(), log_norm=st.floats(-3.0, 2.0))
    def test_permuted_block_diagonal_generator(self, seed, sizes, is_complex, log_norm):
        # each block is skew plus positive semidefinite, so exp(-t L) is a
        # contraction and its entries are at most 1; scipy's own error against a
        # 40-digit reference reaches 1.3e-14 on such draws near its unscaled 1-norm
        # threshold (this module's 6e-17 there), hence 2e-14 rather than 1e-14
        rng = np.random.default_rng(seed)

        def draw(k):
            g, h = rng.standard_normal((2, k, k)) + (1j * rng.standard_normal((2, k, k))
                                                     if is_complex else 0.0)
            return h - h.conj().T + g @ g.conj().T

        ell = scipy.linalg.block_diag(*(draw(k) for k in sizes))
        linked = ell.copy()
        ends = np.cumsum(sizes)[:-1]
        linked[ends - 1, ends] = 0.5       # one entry joins each block to the next
        block = np.repeat(np.arange(len(sizes)), sizes)
        perm = rng.permutation(len(ell))
        ell, linked, block = ell[np.ix_(perm, perm)], linked[np.ix_(perm, perm)], block[perm]
        dt = 10.0 ** log_norm / np.abs(ell).sum(axis=0).max()

        # one exponential of the whole generator, which keeps its block pattern
        x = propagator(ell, dt)
        assert x.dtype == ell.dtype
        np.testing.assert_array_equal(x, _expm.expm(-dt * ell))
        assert np.all(x[block[:, None] != block] == 0)
        ref = scipy.linalg.expm(-dt * ell)
        assert np.abs(x - ref).max() <= 2e-14 * max(1.0, np.abs(ref).max())
        np.testing.assert_array_equal(propagator(linked, dt), _expm.expm(-dt * linked))
        still = propagator(ell, 0.0)
        assert np.all(still[~np.eye(len(ell), dtype=bool)] == 0)
        np.testing.assert_allclose(np.diag(still), 1.0, rtol=0, atol=1e-15)
        ell[tuple(rng.integers(len(ell), size=2))] = np.nan
        with pytest.raises(NumericalHealthError):
            propagator(ell, dt)

    @pytest.mark.parametrize("theta, gamma_t", [(2.0, 1.0), (-0.1, 1.0), (0.3, -1.0),
                                                (np.nan, 1.0), (0.3, np.nan)])
    def test_theta_channel_rejects_out_of_range_arguments(self, theta, gamma_t):
        with pytest.raises(ValueError):
            theta_channel_exact(theta, gamma_t)


class TestDiagChannelTheta:
    def test_full_damping(self):
        np.testing.assert_allclose(diag_channel_theta(0.0, 60.0, 1),
                                   [[1, 1], [0, 0]], atol=1e-12)

    def test_full_averaging(self):
        np.testing.assert_allclose(diag_channel_theta(0.5, 120.0, 1),
                                   [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)

    def test_quarter_theta_fixed_column(self):
        # c_theta = 1.6 puts the stationary populations at (0.9, 0.1)
        block = diag_channel_theta(0.25, 200.0, 1)
        np.testing.assert_allclose(block[:, 0], [0.9, 0.1], atol=1e-12)
        np.testing.assert_allclose(block[:, 1], [0.9, 0.1], atol=1e-12)

    @pytest.mark.parametrize("theta", [0.0, 0.2, 0.5, 0.7])
    @pytest.mark.parametrize("t", [0.1, 1.0, 4.0])
    def test_stochasticity(self, theta, t):
        r = diag_channel_theta(theta, 2.0 * t, 2)
        np.testing.assert_allclose(r.sum(axis=0), 1.0, atol=1e-12)
        if theta == 0.5:
            np.testing.assert_allclose(r.sum(axis=1), 1.0, atol=1e-12)

    def test_matches_population_block_of_exact_channel(self):
        # populations of the full channel and a convex split into
        # damping plus averaging parts, as the generalisation states
        theta, gs, t = 0.3, 2.0, 0.8
        block = diag_channel_theta(theta, gs * t, 1)
        x = theta_channel_exact(theta, gs * t)
        np.testing.assert_allclose(block, x[np.ix_([0, 3], [0, 3])].real, atol=1e-12)
        tb = 1 - theta
        c = 1 / (tb ** 2 + theta ** 2)
        eps = np.exp(-gs * t / c)
        damp = np.array([[1, 1 - eps], [0, eps]])
        avg = 0.5 * np.array([[1 + eps, 1 - eps], [1 - eps, 1 + eps]])
        np.testing.assert_allclose(
            block, c * (tb ** 2 - theta ** 2) * damp + 2 * c * theta ** 2 * avg,
            atol=1e-12)


class TestHeatBath:
    def test_zero_temperature_is_pure_damping(self):
        params = BathParams("bosonic", beta=np.inf, omega0=1.0, gamma=0.7)
        np.testing.assert_allclose(heat_bath_generator(params),
                                   0.7 * dissipator_superop(SIGMA_MINUS), atol=1e-14)

    def test_fermionic_high_temperature_limit(self):
        params = BathParams("fermionic", beta=1e-12, omega0=1.0, gamma=1.0)
        gen = heat_bath_generator(params)
        joint = dissipator_superop(SIGMA_MINUS) + dissipator_superop(SIGMA_PLUS)
        np.testing.assert_allclose(gen, 0.5 * joint, atol=1e-9)
        # the joint generator halves the two-operator x/y dissipator
        xy = dissipator_superop(SIGMA_X) + dissipator_superop(SIGMA_Y)
        np.testing.assert_allclose(xy, 2 * joint, atol=1e-14)

    def test_bosonic_zero_beta_rejected(self):
        with pytest.raises(ValueError):
            heat_bath_generator(BathParams("bosonic", beta=0.0, omega0=1.0, gamma=1.0))

    def test_matches_displayed_matrix(self):
        # gen = -gamma (M_down + n M_pm) with the printed matrices
        for stats, sign in (("bosonic", +1), ("fermionic", -1)):
            params = BathParams(stats, beta=0.9, omega0=1.3, gamma=1.1)
            n_occ = params.occupation()
            m_down = np.array([[0, 0, 0, 1], [0, -0.5, 0, 0],
                               [0, 0, -0.5, 0], [0, 0, 0, -1.0]])
            m_mix = np.array([[-1, 0, 0, sign], [0, -(1 + sign) / 2, 0, 0],
                              [0, 0, -(1 + sign) / 2, 0], [1, 0, 0, -sign]])
            np.testing.assert_allclose(heat_bath_generator(params),
                                       -1.1 * (m_down + n_occ * m_mix), atol=1e-12)

    def test_populations_indistinguishable_coherences_not(self):
        # infinite-T limit vs plain sigma_x noise: same action on diagonals,
        # but only sigma_x noise leaves Re rho_01 untouched
        joint = dissipator_superop(SIGMA_MINUS) + dissipator_superop(SIGMA_PLUS)
        flip = dissipator_superop(SIGMA_X)   # same population relaxation rate
        x_joint = propagator(joint, 0.8)
        x_flip = propagator(flip, 0.8)
        diag = vec(np.diag([0.7, 0.3]).astype(complex))
        np.testing.assert_allclose(x_joint @ diag, x_flip @ diag, atol=1e-12)
        coh = np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex)
        out_flip = unvec(x_flip @ vec(coh))
        out_joint = unvec(x_joint @ vec(coh))
        assert np.isclose(out_flip[0, 1].real, 0.2, atol=1e-12)
        assert abs(out_joint[0, 1].real - 0.2) > 1e-3


def decoupled_hold(gamma, t, k):
    """First-order pi-pulse decoupling as a schedule: (hold h, X_2, hold h, X_2) x k,
    h = t / 2k, at bit-flip amplitude ``gamma`` on a two-qubit chain."""
    hold = HoldSegment(np.zeros(4), np.array([gamma]), t / (2 * k))
    return Schedule((hold, UnitarySegment(embed_local(SIGMA_X, 2, 2))) * (2 * k))


def bare_hold(gamma, t):
    return Schedule((HoldSegment(np.zeros(4), np.array([gamma]), t),))


class TestTrotterDecoupling:
    def test_exact_when_drift_vanishes(self):
        bare = ising_chain(2, coupling=0.0, noise_kind="bitflip")
        rho = random_density(2, 3)
        np.testing.assert_allclose(propagate_schedule(bare, decoupled_hold(2.0, 0.9, 1), rho),
                                   propagate_schedule(bare, bare_hold(2.0, 0.9), rho),
                                   rtol=0, atol=1e-12)

    def test_error_halves_with_k(self):
        # drift (pi/2) sigma_z sigma_z, removed from the terminal noise at first order
        chain = ising_chain(2, noise_kind="bitflip")
        gamma, t = 5.0, 0.5
        rho = random_density(2, 5)
        exact = propagate_schedule(ising_chain(2, coupling=0.0, noise_kind="bitflip"),
                                   bare_hold(gamma, t), rho)
        errs = {k: np.linalg.norm(propagate_schedule(chain, decoupled_hold(gamma, t, k), rho)
                                  - exact)
                for k in (8, 16, 32, 64)}
        for k in (8, 16, 32):
            ratio = errs[2 * k] / errs[k]
            assert 0.4 <= ratio <= 0.6

    def test_pi_pulse_sign_inversion(self):
        # conjugating a hold by the terminal pi_x pulse flips the coupling sign exactly
        pulse = UnitarySegment(embed_local(SIGMA_X, 2, 2))
        hold = bare_hold(1.5, 0.4).segments[0]
        rho = random_density(2, 7)
        lhs = propagate_schedule(ising_chain(2, noise_kind="bitflip"),
                                 Schedule((pulse, hold, pulse)), rho)
        rhs = propagate_schedule(ising_chain(2, coupling=-1.0, noise_kind="bitflip"),
                                 Schedule((hold,)), rho)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)


def test_theta_fixed_point_annihilated():
    for theta in np.arange(0.05, 0.46, 0.05):
        tb = 1 - theta
        c = 1 / (tb ** 2 + theta ** 2)
        rho_inf = np.diag([c * tb ** 2, c * theta ** 2]).astype(complex)
        np.testing.assert_allclose(theta_generator(theta) @ vec(rho_inf), 0,
                                   atol=1e-12)


def test_v_theta_endpoints():
    # bit for bit: the named noises are built from v_theta and must not move
    for theta, literal in ((0.0, SIGMA_MINUS), (0.5, SIGMA_X / 2), (1.0, SIGMA_PLUS)):
        assert v_theta(theta).dtype == literal.dtype
        assert v_theta(theta).tobytes() == literal.tobytes()
