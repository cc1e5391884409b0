import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisectrl import _expm, schedule as schedule_module
from noisectrl.exceptions import NumericalHealthError
from noisectrl.lindblad import assemble_liouvillian, pauli_basis, propagator
from noisectrl.models import ising_chain, zero_state
from noisectrl.qops import _health_spectra, random_density, sorted_spectrum, unvec, vec
from noisectrl.reach import hlp_execute, hlp_plan
from noisectrl.schedule import (HoldSegment, Schedule, UnitarySegment,
                                propagate_schedule)


def random_unitary(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_schedule(rng, system, holds):
    """A dense unitary, then holds that alternate between zero and random
    controls, each followed by one shared diagonal kick or a dense unitary,
    then equal copies of the zero-control holds: both forms of both segment
    kinds, and repeated holds of both sector patterns."""
    kick = UnitarySegment(np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, system.dim))),
                          label="kick")
    segments = [UnitarySegment(random_unitary(rng, system.dim), label="u")]
    for k in range(holds):
        coherent = k % 2 == 1
        segments.append(HoldSegment(
            u=rng.standard_normal(len(system.controls)) * coherent,
            gamma=rng.uniform(0.0, 1.0, len(system.noises)) * system.gamma_bounds,
            duration=float(rng.uniform(0.05, 0.4)), label="hold"))
        segments.append(UnitarySegment(random_unitary(rng, system.dim),
                                       charged_duration=0.25, label="u") if coherent else kick)
    for seg in segments[1:2 * holds:4]:
        segments += [HoldSegment(u=seg.u.copy(), gamma=seg.gamma.copy(),
                                 duration=seg.duration, label="hold"), kick]
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
           noise=st.sampled_from(["amp", "bitflip"]), holds=st.integers(1, 4))
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

    @pytest.mark.parametrize("record", [False, True])
    def test_non_finite_unitary_is_a_numerical_failure(self, record):
        # a NaN state fails the health check whether or not states are recorded
        system = ising_chain(1, noise_kind="bitflip")
        bad = Schedule(segments=(UnitarySegment(np.full((2, 2), np.nan)),))
        with pytest.raises(NumericalHealthError, match="trace"):
            propagate_schedule(system, bad, random_density(1, 5), record=record)

    @pytest.mark.parametrize("record", [False, True])
    def test_trace_losing_propagators_are_a_numerical_failure(self, monkeypatch, record):
        system = ising_chain(2, gamma_star=5.0)
        exact = _expm.expm
        monkeypatch.setattr(_expm, "expm", lambda a: 0.999 * exact(a))
        hold = HoldSegment(u=np.zeros(4), gamma=np.zeros(1), duration=0.1)
        with pytest.raises(NumericalHealthError, match="segment boundary 1 violates"):
            propagate_schedule(system, Schedule(segments=(hold,)), zero_state(2),
                               record=record)


class TestSectorHolds:
    """A hold acts in blocks of the flip sectors its propagator couples."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("controls, groups", [
        ("none", lambda n: (2 ** n, 1)),         # diagonal drift and noise: one sector each
        ("x1", lambda n: (2 ** (n - 1), 2)),     # sigma_x on qubit 1 pairs s with s ^ 2^(n-1)
        ("all", lambda n: (1, 2 ** n)),          # every control: one dense group
    ])
    def test_sector_hold_equals_the_dense_basis_change(self, n, controls, groups):
        system = ising_chain(n, noise_kind="bitflip", gamma_star=5.0)
        u = np.zeros(len(system.controls))
        if controls == "x1":
            u[0] = 0.7
        elif controls == "all":
            u = np.random.default_rng(n).standard_normal(len(u))
        x = propagator(assemble_liouvillian(system, u, np.array([3.0])), 0.3)
        b = pauli_basis(n)
        dense = b @ x @ b.conj().T            # on vec(rho), the column-stacked state
        hold = HoldSegment(u=u, gamma=np.array([3.0]), duration=0.3)
        [blocks] = schedule_module._hold_blocks(system, [hold])
        dim = 2 ** n
        assert [(len(index), index.shape[1] // dim) for index, _ in blocks] == [groups(n)]
        op = np.zeros_like(dense)             # on rho.ravel(), the row-major state
        for index, m in blocks:
            op[index[:, :, None], index[:, None, :]] = m
        assert np.array_equal(np.sort(np.concatenate([i.ravel() for i, _ in blocks])),
                              np.arange(dim * dim))
        v = np.arange(dim * dim)
        row_major = v % dim * dim + v // dim
        assert np.abs(op[np.ix_(row_major, row_major)] - dense).max() <= 1e-15 * np.abs(dense).max()

    def test_hold_matches_a_40_digit_reference(self):
        # a 4-qubit bit-flip hold: its generator splits into 108 blocks of dimension 1
        # to 8, which the reference exponentiates at 40 digits; the hold exponentiates
        # its 16 one-sector blocks of dimension 16
        mpmath = pytest.importorskip("mpmath")
        from scipy.sparse.csgraph import connected_components
        system = ising_chain(4, noise_kind="bitflip", gamma_star=5.0)
        ell = assemble_liouvillian(system, np.zeros(8), np.array([5.0]))
        a = -0.37 * ell
        count, label = connected_components(a != 0, directed=True, connection="weak")
        assert count == 108
        ref = np.zeros(a.shape)
        with mpmath.workdps(40):
            for c in range(count):
                idx = np.ix_(label == c, label == c)
                ref[idx] = np.array(mpmath.expm(mpmath.matrix(a[idx].tolist())).tolist(), dtype=float)
        b = pauli_basis(4)
        v = np.arange(256)
        row_major = v % 16 * 16 + v // 16
        dense = (b @ ref @ b.conj().T)[np.ix_(row_major, row_major)]    # on rho.ravel()
        hold = HoldSegment(u=np.zeros(8), gamma=np.array([5.0]), duration=0.37)
        [[(index, m)]] = schedule_module._hold_blocks(system, [hold])
        assert m.shape == (16, 16, 16)
        assert np.abs(dense[index[:, :, None], index[:, None, :]] - m).max() <= 1e-15

    def test_distinct_holds_share_one_exponential(self, monkeypatch):
        # three distinct zero-control holds, some repeated, share one sector pattern:
        # one generator per distinct hold and one exponential of their 3 x 16 blocks
        system = ising_chain(4, noise_kind="bitflip", gamma_star=5.0)
        shapes, generators = [], []
        exact, assemble = _expm.expm, schedule_module.assemble_liouvillian
        monkeypatch.setattr(_expm, "expm", lambda a: shapes.append(a.shape) or exact(a))
        monkeypatch.setattr(schedule_module, "assemble_liouvillian",
                            lambda *args: generators.append(args) or assemble(*args))
        a, b, c = (HoldSegment(u=np.zeros(8), gamma=np.array([g]), duration=t)
                   for g, t in ((5.0, 0.3), (2.0, 0.3), (5.0, 0.1)))
        copy = HoldSegment(u=np.zeros(8), gamma=np.array([5.0]), duration=0.3)
        flip = UnitarySegment(np.eye(16)[::-1])
        schedule = Schedule(segments=(a, b, flip, a, c, copy, flip, b, c))
        rho0 = random_density(4, 3).matrix
        rho = propagate_schedule(system, schedule, rho0)
        assert shapes == [(48, 16, 16)]
        assert len(generators) == 3
        monkeypatch.setattr(_expm, "expm", exact)
        expected, _ = superoperator_reference(system, schedule, rho0)
        np.testing.assert_allclose(rho, expected, rtol=0, atol=1e-12)

    def test_diagonal_unitaries_act_as_phases_and_others_densely(self, monkeypatch):
        calls = []
        exact = schedule_module._phases
        monkeypatch.setattr(schedule_module, "_phases",
                            lambda unitary, shape: calls.append(unitary) or exact(unitary, shape))
        system = ising_chain(2, noise_kind="bitflip", gamma_star=5.0)
        rng = np.random.default_rng(3)
        kick = UnitarySegment(np.diag(np.exp(1j * rng.uniform(-3, 3, 4))))
        dense = UnitarySegment(random_unitary(rng, 4))
        rho0 = random_density(2, 8).matrix
        rho = propagate_schedule(system, Schedule(segments=(kick, dense, kick, dense, kick)), rho0)
        assert len(calls) == 2                # decided once per distinct segment
        assert exact(dense.unitary, (4, 4)) is None
        p = np.diag(kick.unitary)
        np.testing.assert_array_equal(exact(kick.unitary, (4, 4)), np.outer(p, p.conj()))
        expected = rho0
        for u in (kick, dense, kick, dense, kick):
            expected = u.unitary @ expected @ u.unitary.conj().T
        np.testing.assert_allclose(rho, expected, rtol=0, atol=1e-14)


class TestComponents:
    @settings(max_examples=300, deadline=None)
    @given(size=st.integers(1, 64), kind=st.sampled_from(["random", "empty", "full"]),
           density=st.floats(0.0, 0.12), seed=st.integers(0, 2 ** 32 - 1))
    def test_components_match_scipy(self, size, kind, density, seed):
        from scipy.sparse.csgraph import connected_components
        pattern = {"random": np.random.default_rng(seed).random((size, size)) < density,
                   "empty": np.zeros((size, size), bool),
                   "full": np.ones((size, size), bool)}[kind]
        count, label = connected_components(pattern, directed=True, connection="weak")
        found = sorted((np.flatnonzero(label == c) for c in range(count)),
                       key=lambda c: (len(c), c[0]))
        expected = [np.array([c for c in found if len(c) == k])
                    for k in sorted({len(c) for c in found})]
        got = schedule_module._components(pattern)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            np.testing.assert_array_equal(g, e)


class TestRecordedStatesInStacks:
    """Recorded states are checked in stacks of at most ``_CHECK_BYTES``: 256
    four-qubit states, fewer than a four-qubit HLP schedule records."""

    @pytest.fixture(scope="class")
    def chain(self):
        system = ising_chain(4, noise_kind="bitflip", gamma_star=5.0)
        y = np.sort(np.random.default_rng(4).dirichlet(np.ones(16)))[::-1]
        plan = hlp_plan(y, np.full(16, 1 / 16), gamma_star=5.0, residual_target=1e-3)
        schedule = hlp_execute(plan, system, trotter_steps=8)
        stack = schedule_module._CHECK_BYTES // (16 * 16 * 16)
        assert len(schedule) + 1 > 2 * stack
        return system, schedule, np.diag(plan.initial_spectrum).astype(complex), stack

    def test_spectra_equal_one_state_checks_bit_for_bit(self, chain, monkeypatch):
        # a row after a hold, and the initial row, is its state's own spectrum bit for bit;
        # a row after a unitary carries the row before it, also across a stack edge
        system, schedule, rho0, stack = chain
        stacks = []

        def spy(states, where, first=0, carried=None, before=None):
            stacks.append((first, np.array(states), np.array(carried)))
            return _health_spectra(states, where, first, carried, before)

        monkeypatch.setattr(schedule_module, "_health_spectra", spy)
        _, times, spectra = propagate_schedule(system, schedule, rho0, record=True)
        assert [first for first, _, _ in stacks] == list(range(0, len(schedule) + 1, stack))
        states = np.concatenate([states for _, states, _ in stacks])
        carried = np.concatenate([carried for _, _, carried in stacks])
        assert len(states) == len(spectra) == len(times) == len(schedule) + 1
        after_unitary = [False] + [isinstance(seg, UnitarySegment) for seg in schedule.segments]
        np.testing.assert_array_equal(carried, after_unitary)
        assert any(carried[first] for first, _, _ in stacks)
        for k, (state, row) in enumerate(zip(states, spectra)):
            own = _health_spectra(state, "one state")
            if carried[k]:
                np.testing.assert_array_equal(row, spectra[k - 1])
                np.testing.assert_allclose(row, own, rtol=0, atol=1e-14)
            else:
                np.testing.assert_array_equal(row, own)
        # boundary k holds the state after k segments, on either side of a stack edge
        for k in (0, stack - 1, stack, stack + 1, 2 * stack, len(schedule)):
            prefix = Schedule(segments=schedule.segments[:k])
            np.testing.assert_array_equal((states[k] + states[k].conj().T) / 2,
                                          propagate_schedule(system, prefix, rho0))

    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("row", [0, 37])
    def test_non_unitary_segment_gets_its_own_spectrum(self, chain, record, row):
        # 1.1 times a permutation scales the spectrum by 1.21: the boundary after it is
        # named, with its own least eigenvalue, mid-stack or as the first row of a stack
        system, schedule, rho0, stack = chain
        k = stack + row
        permutation = np.eye(16)[np.random.default_rng(k).permutation(16)]

        def insert(u):
            return schedule.segments[:k - 1] + (UnitarySegment(u),) + schedule.segments[k - 1:]

        bad = Schedule(segments=insert(1.1 * permutation))
        where = k if record else len(bad)
        # the maps are linear, so the state at `where` is 1.21 times the unscaled one
        least = 1.21 * np.linalg.eigvalsh(propagate_schedule(
            system, Schedule(segments=insert(permutation)[:where]), rho0))[0]
        with pytest.raises(NumericalHealthError,
                           match=f"segment boundary {where} violates .*trace dev 2.10e-01") as err:
            propagate_schedule(system, bad, rho0, record=record)
        reported = float(re.search(r"min eig (\S+)\)", str(err.value)).group(1))
        assert abs(reported - least) <= 5e-3 * abs(least)

    @pytest.mark.parametrize("record", [False, True])
    def test_bad_state_past_the_first_stack_is_named_by_its_boundary(self, chain, record):
        system, schedule, rho0, stack = chain
        k = stack + 37
        nan = UnitarySegment(np.full((16, 16), np.nan))
        bad = Schedule(segments=schedule.segments[:k - 1] + (nan,) + schedule.segments[k - 1:])
        where = k if record else len(bad)
        with pytest.raises(NumericalHealthError, match=f"segment boundary {where} violates"):
            propagate_schedule(system, bad, rho0, record=record)
