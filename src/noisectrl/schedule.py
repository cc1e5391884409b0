"""Segmented control schedules mixing ideal unitaries and constant holds.

Analytic protocols and the majorisation scheduler emit sequences that
interleave instantaneous unitaries (permutations, protection rotations,
pi pulses) with finite holds of constant amplitudes.  Uniform-slice
sequences (module :mod:`noisectrl.optim`) do not fit that shape, so the
schedule is its own small structure.

A unitary segment may carry a nonzero ``charged_duration`` for time
accounting (e.g. an i-swap costs 1/J on the chain) while still acting
instantaneously on the state; on the diagonal states where such swaps are
used the drift commutes, so this bookkeeping loses nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lindblad import assemble_liouvillian, pauli_basis, propagator
from .qops import _density, _health_spectra, unvec, vec

__all__ = ["UnitarySegment", "HoldSegment", "Schedule", "propagate_schedule"]

# size of one stack of recorded states checked together: 256 four-qubit states
_CHECK_BYTES = 1 << 20


@dataclass(frozen=True)
class UnitarySegment:
    """Ideal instantaneous unitary; duration is accounting only."""

    unitary: np.ndarray
    charged_duration: float = 0.0
    label: str = ""


@dataclass(frozen=True)
class HoldSegment:
    """Constant amplitudes for a finite duration."""

    u: np.ndarray
    gamma: np.ndarray
    duration: float
    label: str = ""


@dataclass(frozen=True)
class Schedule:
    segments: tuple = field(default=())

    @property
    def duration(self) -> float:
        """Wall-clock duration including charged unitary time."""
        total = 0.0
        for seg in self.segments:
            total += seg.duration if isinstance(seg, HoldSegment) else seg.charged_duration
        return total

    @property
    def noise_on_time(self) -> float:
        """Total duration of the holds in which any noise amplitude is nonzero."""
        total = 0.0
        for seg in self.segments:
            if isinstance(seg, HoldSegment) and np.any(seg.gamma):
                total += seg.duration
        return total

    def __len__(self) -> int:
        return len(self.segments)


def propagate_schedule(system, schedule: Schedule, rho0, record: bool = False):
    """Apply a schedule to a state.

    Returns the final density matrix, or ``(final, times, spectra)`` with
    one row per segment boundary when ``record`` is set.  The state stays a
    matrix: a unitary acts as ``U rho U^dag``, a hold as its propagator on
    ``vec(rho)``.  Hold propagators are memoized on (amplitudes, duration),
    which collapses the cost of the long repetitive decoupling trains; each
    is built on first use by ``lindblad.propagator`` (one exponential per
    sparsity block of the real Pauli-basis generator) and taken to the
    column-stacked basis once, when it enters the memo.  ``rho0`` must be a
    valid DensityOperator of the system's dimension.  The final state, or
    with ``record`` every state, passes ``qops._health_spectra``, which names
    the first bad boundary; recorded states are checked, and their spectra
    taken, in stacks of at most about ``_CHECK_BYTES``.
    """
    rho = _density(rho0).matrix
    if len(rho) != system.dim:
        raise ValueError(f"rho0 dimension {len(rho)} does not match "
                         f"the system dimension {system.dim}")
    basis = pauli_basis(system.n)
    cache: dict = {}
    times = [0.0]
    spectra = []
    if record:    # boundary i waits in row i % len(states) until its stack is checked
        states = np.empty((max(1, _CHECK_BYTES // rho.nbytes),) + rho.shape, dtype=complex)
        states[0] = rho
    t = 0.0
    for i, seg in enumerate(schedule.segments, 1):
        if isinstance(seg, UnitarySegment):
            rho = seg.unitary @ rho @ seg.unitary.conj().T
            t += seg.charged_duration
        else:
            key = (seg.u.tobytes(), seg.gamma.tobytes(), seg.duration)
            x = cache.get(key)
            if x is None:
                ell = assemble_liouvillian(system, seg.u, seg.gamma)
                x = basis @ propagator(ell, seg.duration) @ basis.conj().T
                cache[key] = x
            rho = unvec(x @ vec(rho))
            t += seg.duration
        if record:
            times.append(t)
            if i % len(states) == 0:
                spectra.append(_health_spectra(states, "segment boundary", i - len(states)))
            states[i % len(states)] = rho
    if record:
        last = len(schedule) % len(states) + 1
        spectra.append(_health_spectra(states[:last], "segment boundary", len(schedule) + 1 - last))
    else:
        _health_spectra(rho, f"segment boundary {len(schedule)}")
    rho = (rho + rho.conj().T) / 2
    if record:
        return rho, np.array(times), np.concatenate(spectra)
    return rho
