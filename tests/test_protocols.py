from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from noisectrl.models import ising_chain, thermal_state, zero_state
from noisectrl.protocols import (_swap_sites_matrix, erase_error_bitflip, erase_protocol_amp,
                                 erase_protocol_bitflip, erase_time_bitflip,
                                 init_error, init_protocol, init_time_bound)
from noisectrl.qops import frobenius_error, vec
from noisectrl.schedule import propagate_schedule


def simulate_report(report, n, noise_kind, rho0, target, gamma_star=5.0):
    system = ising_chain(n, noise_kind=noise_kind, gamma_star=gamma_star)
    rho_f = propagate_schedule(system, report.schedule, rho0)
    return frobenius_error(vec(rho_f), vec(target.matrix))


class TestInitFormulas:
    def test_asymptotic_limit_is_exact(self):
        assert init_error(3, 5.0, 100.0) < 1e-12

    def test_untouched_state(self):
        # T_n = 0 leaves the thermal state: distance sqrt(7/8)
        assert np.isclose(init_error(3, 5.0, 0.0), np.sqrt(7 / 8))

    def test_single_qubit_half_decay(self):
        # n=1, e=1/2: delta^2 = 1 - 2*(3/4) + 5/8 = 1/8
        t = np.log(2.0) / 5.0
        assert np.isclose(init_error(1, 5.0, t) ** 2, 0.125)

    def test_monotone_in_noise_time(self):
        times = np.linspace(0.0, 3.0, 12)
        errs = [init_error(3, 5.0, t) for t in times]
        assert np.all(np.diff(errs) < 0)


class TestInitTimeBound:
    def test_paper_example_numbers(self):
        # n=3, J=1, gamma*=5, delta=0.01: 3 + 0.6 ln(sqrt(12)/0.02)
        got = init_time_bound(3, 5.0, 1.0, 0.01)
        by_hand = 3.0 + 3.0 / 5.0 * np.log(np.sqrt(12.0) / 0.02)
        assert np.isclose(got, by_hand)
        assert abs(got - 6.09) < 0.01

    def test_monotone_in_target(self):
        assert init_time_bound(3, 5.0, 1.0, 0.05) < init_time_bound(3, 5.0, 1.0, 0.01)

    def test_first_order_consistency_with_exact_inversion(self):
        # numeric inversion of the exact error formula agrees with the
        # linearized bound within 10% on the noise-time term
        from scipy.optimize import brentq
        for delta in (0.05, 0.02, 0.01):
            n, gs, j = 3, 5.0, 1.0
            tn_exact = brentq(lambda t: init_error(n, gs, t) - delta, 1e-6, 50.0)
            tn_bound = init_time_bound(n, gs, j, delta) - 3.0
            assert abs(tn_bound - tn_exact) / tn_exact < 0.10


class TestInitProtocolSimulation:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("noise_time", [0.3, 1.0, 2.5])
    def test_simulated_error_matches_formula(self, n, noise_time):
        report = init_protocol(n, 5.0, 1.0, noise_time)
        got = simulate_report(report, n, "amp", thermal_state(n), zero_state(n))
        assert abs(got - report.predicted_error) < 1e-10

    def test_duration_decomposition(self):
        charged = init_protocol(3, 5.0, 1.0, 2.0, charge_swap_time=True)
        free = init_protocol(3, 5.0, 1.0, 2.0, charge_swap_time=False)
        assert np.isclose(charged.predicted_duration - free.predicted_duration, 3.0)
        assert np.isclose(free.predicted_duration, 2.0)
        # the swap accounting does not change the simulated state
        e1 = simulate_report(charged, 3, "amp", thermal_state(3), zero_state(3))
        e2 = simulate_report(free, 3, "amp", thermal_state(3), zero_state(3))
        assert abs(e1 - e2) < 1e-14


class TestEraseAmp:
    def test_single_qubit_duration(self):
        report = erase_protocol_amp(1, 5.0, 1.0)
        assert np.isclose(report.predicted_duration, np.log(2.0) / 5.0)

    def test_three_qubit_duration(self):
        # binom(3,2)/J + (3/5) ln 2
        report = erase_protocol_amp(3, 5.0, 1.0)
        assert np.isclose(report.predicted_duration, 3.0 + 0.6 * np.log(2.0))
        assert abs(report.predicted_duration - 3.416) < 1e-3

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exact_erasure(self, n):
        report = erase_protocol_amp(n, 5.0, 1.0)
        got = simulate_report(report, n, "amp", zero_state(n), thermal_state(n))
        assert got <= 1e-9
        assert report.predicted_error == 0.0


class TestEraseBitflip:
    def test_asymptotic_and_untouched(self):
        assert erase_error_bitflip(3, 5.0, 1e3) < 1e-12
        assert np.isclose(erase_error_bitflip(3, 5.0, 0.0), np.sqrt(7 / 8))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("noise_time", [0.4, 1.2, 3.0])
    def test_simulated_matches_formula(self, n, noise_time):
        report = erase_protocol_bitflip(n, 5.0, 1.0, noise_time)
        got = simulate_report(report, n, "bitflip", zero_state(n), thermal_state(n))
        assert abs(got - report.predicted_error) < 1e-10

    def test_time_inversion_round_trip(self):
        for delta in (0.05, 0.2):
            t_total = erase_time_bitflip(3, 5.0, 1.0, delta)
            noise_time = t_total - 3.0
            assert np.isclose(erase_error_bitflip(3, 5.0, noise_time), delta)

    def test_inversion_rejects_unreachable_delta(self):
        with pytest.raises(ValueError):
            erase_time_bitflip(3, 5.0, 1.0, 0.99)
        with pytest.raises(ValueError):
            erase_time_bitflip(3, 5.0, 1.0, 0.0)


class TestQubitCycle:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 5), gamma_star=st.floats(0.1, 20.0), coupling=st.floats(0.05, 20.0),
           noise_time=st.floats(0.0, 50.0), charge=st.booleans())
    # the per-qubit hold time 5e-324 / 2 underflows to 0, and so must the prediction
    @example(n=2, gamma_star=1.0, coupling=1.0, noise_time=5e-324, charge=False)
    def test_prediction_matches_the_schedule_clock(self, n, gamma_star, coupling,
                                                   noise_time, charge):
        for report in (init_protocol(n, gamma_star, coupling, noise_time, charge),
                       erase_protocol_amp(n, gamma_star, coupling, charge),
                       erase_protocol_bitflip(n, gamma_star, coupling, noise_time, charge)):
            clock = report.schedule.duration
            assert abs(report.predicted_duration - clock) <= 1e-12 * abs(clock)
            swaps = [seg for seg in report.schedule.segments if seg.label.startswith("iswap")]
            assert len(swaps) == comb(n, 2)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_swap_matrix_exchanges_the_two_bits(self, n):
        idx = np.arange(2 ** n)
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                differ = ((idx >> (n - a)) ^ (idx >> (n - b))) & 1
                jdx = idx ^ (differ << (n - a)) ^ (differ << (n - b))
                # column idx holds a one in row jdx[idx] only
                np.testing.assert_array_equal(_swap_sites_matrix(a, b, n),
                                              np.eye(2 ** n)[:, jdx])
