import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisectrl.exceptions import NumericalHealthError
from noisectrl.lindblad import assemble_liouvillian, pauli_basis, propagator
from noisectrl.models import ising_chain
from noisectrl.qops import random_density, sorted_spectrum, unvec, vec
from noisectrl.schedule import (HoldSegment, Schedule, UnitarySegment,
                                propagate_schedule)


def random_unitary(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_schedule(rng, system, holds):
    segments = [UnitarySegment(random_unitary(rng, system.dim), label="u")]
    for _ in range(holds):
        segments.append(HoldSegment(
            u=rng.standard_normal(len(system.controls)),
            gamma=rng.uniform(0.0, 1.0, len(system.noises)) * system.gamma_bounds,
            duration=float(rng.uniform(0.05, 0.4)), label="hold"))
        segments.append(UnitarySegment(random_unitary(rng, system.dim),
                                       charged_duration=0.25, label="u"))
    return Schedule(segments=tuple(segments))


def superoperator_reference(system, schedule, rho0):
    """Every segment as an explicit superoperator on vec(rho)."""
    v = vec(rho0)
    b = pauli_basis(system.n)
    rows = [sorted_spectrum(rho0)]
    for seg in schedule.segments:
        if isinstance(seg, UnitarySegment):
            v = np.kron(seg.unitary.conj(), seg.unitary) @ v
        else:
            x = propagator(assemble_liouvillian(system, seg.u, seg.gamma), seg.duration)
            v = b @ x @ b.conj().T @ v
        rho = unvec(v)
        rows.append(sorted_spectrum((rho + rho.conj().T) / 2))
    return unvec(v), np.array(rows)


class TestPropagateSchedule:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([2, 3]),
           noise=st.sampled_from(["amp", "bitflip"]), holds=st.integers(1, 3))
    def test_matches_superoperator_reference(self, seed, n, noise, holds):
        rng = np.random.default_rng(seed)
        system = ising_chain(n, noise_kind=noise, gamma_star=5.0)
        rho0 = random_density(n, seed).matrix
        assert np.abs(rho0 - np.diag(np.diag(rho0))).max() > 1e-3
        schedule = random_schedule(rng, system, holds)
        expected, expected_rows = superoperator_reference(system, schedule, rho0)
        rho_f, times, rows = propagate_schedule(system, schedule, rho0, record=True)
        np.testing.assert_allclose(rho_f, expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rows, expected_rows, rtol=0, atol=1e-12)
        np.testing.assert_allclose(propagate_schedule(system, schedule, rho0), rho_f,
                                   rtol=0, atol=0)
        assert len(times) == len(schedule) + 1
        assert np.isclose(times[-1], schedule.duration)

    def test_repeated_hold_reuses_its_propagator(self):
        # a train of one repeated hold equals one hold of the summed duration
        system = ising_chain(2, noise_kind="bitflip", gamma_star=5.0)
        hold = HoldSegment(u=np.array([0.3, -0.2, 0.1, 0.4]), gamma=np.array([2.0]),
                           duration=0.1)
        rho0 = random_density(2, 5).matrix
        train = propagate_schedule(system, Schedule(segments=(hold,) * 5), rho0)
        single = propagate_schedule(system, Schedule(segments=(
            HoldSegment(u=hold.u, gamma=hold.gamma, duration=0.5),)), rho0)
        np.testing.assert_allclose(train, single, rtol=0, atol=1e-12)

    def test_non_finite_unitary_is_a_numerical_failure(self):
        # NaN fails the final trace test, which is written so that it does
        system = ising_chain(1, noise_kind="bitflip")
        bad = Schedule(segments=(UnitarySegment(np.full((2, 2), np.nan)),))
        with pytest.raises(NumericalHealthError, match="trace"):
            propagate_schedule(system, bad, random_density(1, 5))
