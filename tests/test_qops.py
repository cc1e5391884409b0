import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisectrl.qops import (DensityOperator, SIGMA_MINUS, SIGMA_X, SIGMA_Z, _herm,
                            embed_local, frobenius_error, random_density,
                            sorted_spectrum, unvec, vec)


def haar_unitary(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestEmbedLocal:
    def test_site_two_of_two(self):
        np.testing.assert_allclose(embed_local(SIGMA_X, 2, 2),
                                   np.kron(np.eye(2), SIGMA_X))

    def test_terminal_lowering_operator(self):
        # 1 (x) ... (x) |0><1| : nonzero entries connect |a1> -> |a0|
        n = 3
        va = embed_local(SIGMA_MINUS, n, n)
        expected = np.kron(np.eye(4), SIGMA_MINUS)
        np.testing.assert_allclose(va, expected)

    def test_single_qubit_identity_case(self):
        np.testing.assert_allclose(embed_local(SIGMA_Z / 2, 1, 1), SIGMA_Z / 2)

    def test_out_of_range_site(self):
        with pytest.raises(ValueError):
            embed_local(SIGMA_X, 4, 3)
        with pytest.raises(ValueError):
            embed_local(SIGMA_X, 0, 3)

    def test_spectrum_multiplicity(self):
        # embedding copies the local spectrum 2^(n-1) times
        rng = np.random.default_rng(7)
        local = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        local = local + local.conj().T
        for site in (1, 2, 3):
            big = embed_local(local, site, 3)
            expected = np.sort(np.tile(np.linalg.eigvalsh(local), 4))
            np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(big)), expected,
                                       atol=1e-12)


class TestVectorization:
    def test_ground_state_projector(self):
        rho = np.array([[1, 0], [0, 0]], dtype=complex)
        np.testing.assert_allclose(vec(rho), [1, 0, 0, 0])

    def test_sigma_x_over_two(self):
        np.testing.assert_allclose(vec(SIGMA_X / 2), [0, 0.5, 0.5, 0])

    def test_round_trip(self):
        rho = random_density(2, seed=3).matrix
        np.testing.assert_allclose(unvec(vec(rho)), rho)

    def test_isometry(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            assert np.isclose(np.linalg.norm(vec(a)), np.linalg.norm(a, "fro"))

    def test_kron_identity(self):
        # vec(A rho B) = (B^T kron A) vec(rho) pins the column-stacking choice
        rng = np.random.default_rng(1)
        a, rho, b = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                     for _ in range(3))
        np.testing.assert_allclose(np.kron(b.T, a) @ vec(rho), vec(a @ rho @ b))

    def test_unvec_rejects_non_square_length(self):
        with pytest.raises(ValueError):
            unvec(np.zeros(5))


class TestFrobeniusError:
    def test_zero_on_equal(self):
        v = vec(random_density(2, 5).matrix)
        assert frobenius_error(v, v) == 0.0

    def test_pure_to_thermal_three_qubits(self):
        # hand oracle: (1 - 1/8)^2 + 7 * (1/8)^2 = 7/8
        zero = np.zeros((8, 8), dtype=complex)
        zero[0, 0] = 1.0
        thermal = np.eye(8) / 8
        by_hand = np.sqrt((1 - 1 / 8) ** 2 + 7 * (1 / 8) ** 2)
        assert np.isclose(frobenius_error(vec(zero), vec(thermal)), by_hand)
        assert np.isclose(by_hand, np.sqrt(7 / 8))

    def test_free_evolution_floor_value(self):
        # diag(1/2, 1/2, 0, ..., 0) against the 3-qubit thermal state
        rho = np.diag([0.5, 0.5, 0, 0, 0, 0, 0, 0]).astype(complex)
        d = frobenius_error(vec(rho), vec(np.eye(8) / 8))
        assert np.isclose(d, np.sqrt(3 / 8), atol=1e-12)
        assert abs(d - 0.61237) < 1e-5

    def test_metric_properties(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b, c = (vec(random_density(2, rng.integers(1 << 30)).matrix)
                       for _ in range(3))
            assert np.isclose(frobenius_error(a, b), frobenius_error(b, a))
            assert frobenius_error(a, c) <= (frobenius_error(a, b)
                                             + frobenius_error(b, c) + 1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            frobenius_error(np.zeros(4), np.zeros(16))


class TestSortedSpectrum:
    def test_thermal(self):
        np.testing.assert_allclose(sorted_spectrum(np.eye(8) / 8), np.full(8, 1 / 8))

    def test_pure(self):
        np.testing.assert_allclose(sorted_spectrum(np.diag([1.0, 0.0])), [1, 0])

    def test_unitary_invariance(self):
        rng = np.random.default_rng(2)
        base = np.diag([0.7, 0.3]).astype(complex)
        for _ in range(10):
            u = haar_unitary(2, rng)
            np.testing.assert_allclose(sorted_spectrum(u @ base @ u.conj().T),
                                       [0.7, 0.3], atol=1e-10)

    def test_descending_and_normalized(self):
        w = sorted_spectrum(random_density(3, 9).matrix)
        assert np.all(np.diff(w) <= 0)
        assert abs(w.sum() - 1) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            sorted_spectrum(np.array([[0, 1], [0, 0]], dtype=complex))


class TestRandomDensity:
    def test_invariants_single_qubit(self):
        rho = random_density(1, 42)
        assert rho.dim == 2  # construction already validates

    def test_three_qubits(self):
        w = sorted_spectrum(random_density(3, 5))
        assert len(w) == 8
        assert abs(w.sum() - 1) < 1e-12
        assert w.min() > 0  # full rank almost surely

    def test_deterministic(self):
        np.testing.assert_array_equal(random_density(2, 17).matrix,
                                      random_density(2, 17).matrix)


class TestDensityOperatorValidation:
    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityOperator(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityOperator(np.diag([0.6, 0.6]).astype(complex))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.2], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError):
            DensityOperator(m)

    def test_symmetrizes_round_off(self):
        m = np.diag([0.5, 0.5]).astype(complex)
        m[0, 1] = 1e-13j  # anti-Hermitian noise below tolerance
        m[1, 0] = 1e-13j
        rho = DensityOperator(m)
        np.testing.assert_allclose(rho.matrix, rho.matrix.conj().T)


class TestHermiticityError:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([1, 2, 3, 4, 16]),
           count=st.integers(1, 4), scale=st.sampled_from([0.0, 1e-13, 1.0]),
           bad=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 15), st.integers(0, 15),
                                  st.sampled_from([np.nan, np.inf, -np.inf]), st.booleans()),
                        max_size=4))
    def test_upper_triangle_equals_the_full_difference_bit_for_bit(self, seed, dim, count,
                                                                   scale, bad):
        # non-finite values land on and off the diagonal, in the real or imaginary part
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((2, count, dim, dim)) + 1j * rng.standard_normal((2, count, dim, dim))
        stack = g[0] + g[0].conj().swapaxes(-1, -2) + scale * g[1]
        for k, i, j, value, imaginary in bad:
            stack[k % count, i % dim, j % dim] = complex(0.0, value) if imaginary else value
        with np.errstate(invalid="ignore"):     # inf - inf
            full = np.abs(stack - stack.swapaxes(-1, -2).conj()).max(axis=(-2, -1))
            np.testing.assert_array_equal(_herm(stack), full)
