import numpy as np
import pytest

from noisectrl.exceptions import ConfigurationError, NumericalHealthError
from noisectrl.lindblad import assemble_liouvillian, pauli_basis, propagator
from noisectrl.models import (Control, ControlSystem, Noise, ghz_state, ion_trap_model,
                              ising_chain, thermal_state, zero_state)
from noisectrl.qops import unvec, vec
from noisectrl.reach import lie_closure_dimension


class TestIsingChain:
    def test_single_qubit(self):
        sys1 = ising_chain(1, gamma_star=5.0)
        np.testing.assert_allclose(sys1.h0, 0)
        assert len(sys1.controls) == 2
        assert len(sys1.noises) == 1

    def test_drift_is_diagonal(self):
        for n in (2, 3, 4):
            h0 = ising_chain(n).h0
            assert np.abs(h0 - np.diag(np.diag(h0))).max() == 0

    def test_three_qubit_chain_is_fully_controllable(self):
        sys3 = ising_chain(3, gamma_star=5.0)
        gens = [sys3.h0] + [c.operator for c in sys3.controls]
        assert lie_closure_dimension(gens) == 63

    def test_dephasing_adds_background_channels(self):
        sys3 = ising_chain(3, gamma_star=5.0, dephasing=0.2)
        assert len(sys3.background_noises) == 3
        assert all(rate == 0.2 for _, rate in sys3.background_noises)
        assert len(ising_chain(3, gamma_star=5.0).background_noises) == 0

    def test_noise_kinds(self):
        assert ising_chain(2, noise_kind="amp").noises[0].label == "amp2"
        assert ising_chain(2, noise_kind="bitflip").noises[0].label == "bitflip2"
        assert ising_chain(2, noise_kind=0.25).noises[0].label == "theta2"
        with pytest.raises(ValueError):
            ising_chain(2, noise_kind="depolarize")

    def test_invalid_site(self):
        with pytest.raises(ValueError):
            ising_chain(2, noisy_site=3)

    def test_diagonal_states_stay_diagonal(self):
        # drift + switchable noise leave the diagonal sector invariant at u=0
        sys3 = ising_chain(3, noise_kind="bitflip", gamma_star=5.0)
        ell = assemble_liouvillian(sys3, np.zeros(6), np.array([5.0]))
        b = pauli_basis(3)
        x = b @ propagator(ell, 0.7) @ b.conj().T
        rng = np.random.default_rng(8)
        for _ in range(5):
            p = rng.random(8)
            rho = np.diag(p / p.sum()).astype(complex)
            out = unvec(x @ vec(rho))
            off = out - np.diag(np.diag(out))
            assert np.abs(off).max() < 1e-12


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_overflowing_coupling_is_rejected_when_the_chain_is_built():
    # pi * 1e308 overflows, and inf times the zero entries of a ZZ product
    # is NaN, which a Hermiticity tolerance test lets through
    with pytest.raises(NumericalHealthError, match="non-finite entries in drift"):
        ising_chain(3, coupling=1e308)


@pytest.mark.parametrize("part", ["control", "noise", "background"])
def test_non_finite_operators_are_rejected(part):
    bad = np.array([[0.0, np.nan], [np.nan, 0.0]], dtype=complex)
    ok = np.diag([0.5, -0.5]).astype(complex)
    with pytest.raises(NumericalHealthError, match="non-finite"):
        ControlSystem(
            n=1, h0=np.zeros((2, 2)),
            controls=(Control("x", bad if part == "control" else ok),),
            noises=(Noise("v", bad if part == "noise" else ok, 1.0),),
            background_noises=((bad if part == "background" else ok, 0.1),))


@pytest.mark.parametrize("gamma_max, rate", [(np.nan, 0.1), (1.0, np.nan)])
def test_nan_rates_are_rejected(gamma_max, rate):
    op = np.diag([0.5, -0.5]).astype(complex)
    with pytest.raises(ConfigurationError):
        ControlSystem(n=1, h0=np.zeros((2, 2)), controls=(),
                      noises=(Noise("v", op, gamma_max),), background_noises=((op, rate),))


class TestIonTrap:
    def test_control_listing(self):
        trap = ion_trap_model(gamma_star=5.0)
        assert len(trap.controls) == 8
        assert trap.control_labels() == ["z1", "z2", "z3", "z4",
                                         "Fx", "Fy", "Fx2", "Fy2"]
        assert trap.noises[0].label == "amp4"

    def test_collective_x_spreads_excitation(self):
        trap = ion_trap_model()
        fx = dict(zip(trap.control_labels(),
                      (c.operator for c in trap.controls)))["Fx"]
        ket0 = np.zeros(16)
        ket0[0] = 1.0
        out = fx @ ket0
        # one excitation on each qubit with amplitude 1/2
        expected = np.zeros(16)
        for q in range(4):
            expected[1 << q] = 0.5
        np.testing.assert_allclose(out, expected)

    @pytest.mark.slow
    def test_full_su16_closure(self):
        trap = ion_trap_model()
        gens = [c.operator for c in trap.controls]
        assert lie_closure_dimension(gens) == 255


class TestStates:
    def test_ghz_two_qubits_is_pure(self):
        w = ghz_state(2).spectrum()
        np.testing.assert_allclose(w, [1, 0, 0, 0], atol=1e-12)

    def test_ghz_four_qubits(self):
        rho = ghz_state(4).matrix
        assert np.isclose(rho[0, 0], 0.5)
        assert np.isclose(rho[15, 15], 0.5)
        assert np.isclose(rho[0, 15], 0.5)
        assert np.isclose(np.trace(rho @ rho).real, 1.0)

    def test_thermal_and_zero(self):
        np.testing.assert_allclose(thermal_state(2).matrix, np.eye(4) / 4)
        assert zero_state(3).matrix[0, 0] == 1.0
