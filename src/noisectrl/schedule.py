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

from .lindblad import _components, assemble_liouvillian, pauli_basis, propagator
from .qops import _density, _health_spectra

__all__ = ["UnitarySegment", "HoldSegment", "Schedule", "propagate_schedule"]

# size of one stack of recorded states checked together: 256 four-qubit states
_CHECK_BYTES = 1 << 20
# largest ||U^dag U - 1||_F of a unitary whose recorded state carries the spectrum before it
_EXACT = 1e-13


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

    def __len__(self) -> int:
        return len(self.segments)


def _hold_blocks(x: np.ndarray, n: int) -> list:
    """A real Pauli-basis hold propagator ``x`` as flip-sector blocks of ``B x B^dag``.

    Entry ``(i, j)`` of a state lies in flip sector ``i ^ j``, and column
    ``a`` of ``B = pauli_basis(n)`` only in the sector whose bit for qubit
    q is set where the string digit ``a_q`` is x or y (1 or 2), so
    ``B x B^dag`` couples two sectors only where ``x`` does.  Returns one
    ``(index, m)`` pair per size of the groups of sectors that ``x``
    couples: ``index`` (groups, k 2^n) holds the row-major flat indices of
    each group's state entries and ``m`` the matching blocks of
    ``B x B^dag``.  A hold of diagonal drift and noise gives 2^n one-sector
    groups; one that couples every sector is the whole dense change.
    """
    basis = pauli_basis(n)
    dim = 2 ** n
    cells = np.arange(dim * dim)
    sector = (cells // dim) ^ (cells % dim)       # of a row-major or a vec index alike
    digits = cells[:, None] // 4 ** np.arange(n - 1, -1, -1) % 4
    of_string = ((digits == 1) | (digits == 2)) @ 2 ** np.arange(n - 1, -1, -1)
    entries = np.argsort(sector, kind="stable").reshape(dim, dim)
    order = np.argsort(of_string, kind="stable")
    strings = order.reshape(dim, dim)
    rows = (x != 0)[order].reshape(dim, dim, -1).any(axis=1)    # (sector, string)
    coupled = rows[:, order].reshape(dim, dim, dim).any(axis=2)
    blocks = []
    for group in _components(coupled):
        index = entries[group].reshape(len(group), -1)
        paulis = strings[group].reshape(len(group), -1)
        vecs = index % dim * dim + index // dim     # vec index of each entry
        b = basis[vecs[:, :, None], paulis[:, None, :]]
        m = b @ x[paulis[:, :, None], paulis[:, None, :]] @ b.conj().swapaxes(-1, -2)
        blocks.append((index, m))
    return blocks


def _phases(unitary: np.ndarray, shape: tuple):
    """``outer(p, conj(p))`` for a diagonal unitary with diagonal ``p``, else None;
    ``U rho U^dag`` of a diagonal ``U`` is ``rho`` times it, entry by entry."""
    if unitary.shape != shape:
        return None
    p = np.diagonal(unitary)
    return np.outer(p, p.conj()) if np.array_equal(unitary, np.diag(p)) else None


def propagate_schedule(system, schedule: Schedule, rho0, record: bool = False):
    """Apply a schedule to a state.

    Returns the final density matrix, or ``(final, times, spectra)`` with
    one row per segment boundary when ``record`` is set.  The state stays a
    matrix.  A diagonal unitary acts as ``rho * outer(p, conj(p))`` with its
    diagonal ``p``, any other as ``U rho U^dag``, decided once per distinct
    segment object.  A hold acts on the state's entries gathered into flip
    sectors, one batched matrix-vector product per block size of its
    :func:`_hold_blocks`.  Holds are memoized on (amplitudes, duration),
    which collapses the cost of the long repetitive decoupling trains; each
    is built on first use by ``lindblad.propagator`` (one exponential per
    sparsity block of the real Pauli-basis generator) and taken to sector
    blocks of the column-stacked basis once, when it enters the memo.
    ``rho0`` must be a valid DensityOperator of the system's dimension.  The
    final state, or with ``record`` every state, passes
    ``qops._health_spectra``, which names the first bad boundary; recorded
    states are checked in stacks of at most about ``_CHECK_BYTES``.  A
    recorded boundary after a unitary with ``||U^dag U - 1||_F <= _EXACT``,
    decided once per distinct segment object, carries the spectrum before it,
    which its own eigenvalues match within ``_EXACT ||rho||_2`` by Weyl's
    inequality; the initial state and every boundary after a hold or another
    unitary get their own ``eigvalsh``.
    """
    rho = _density(rho0).matrix
    if len(rho) != system.dim:
        raise ValueError(f"rho0 dimension {len(rho)} does not match "
                         f"the system dimension {system.dim}")
    holds: dict = {}
    unitaries: dict = {}
    times = [0.0]
    spectra = []
    if record:    # boundary i waits in row i % len(states) until its stack is checked
        states = np.empty((max(1, _CHECK_BYTES // rho.nbytes),) + rho.shape, dtype=complex)
        states[0], carried = rho, np.zeros(len(states), bool)
    t = 0.0
    for i, seg in enumerate(schedule.segments, 1):
        if isinstance(seg, UnitarySegment):
            if id(seg) not in unitaries:
                u, phases = seg.unitary, _phases(seg.unitary, rho.shape)
                gram = (np.diag(np.diagonal(phases).real) if phases is not None
                        else u.conj().T @ u if u.shape == rho.shape else np.nan)
                unitaries[id(seg)] = phases, np.linalg.norm(gram - np.eye(len(rho))) <= _EXACT
            phases, exact = unitaries[id(seg)]
            if phases is None:
                rho = seg.unitary @ rho @ seg.unitary.conj().T
            else:
                rho = rho * phases
            t += seg.charged_duration
        else:
            key = (seg.u.tobytes(), seg.gamma.tobytes(), seg.duration)
            blocks = holds.get(key)
            if blocks is None:
                ell = assemble_liouvillian(system, seg.u, seg.gamma)
                blocks = holds[key] = _hold_blocks(propagator(ell, seg.duration), system.n)
            flat, out = rho.ravel(), np.empty(rho.size, dtype=complex)
            for index, m in blocks:
                out[index] = (m @ flat[index][..., None])[..., 0]
            rho = out.reshape(rho.shape)
            t += seg.duration
            exact = False
        if record:
            times.append(t)
            if i % len(states) == 0:
                spectra.append(_health_spectra(states, "segment boundary", i - len(states),
                                               carried, spectra[-1][-1] if spectra else None))
            states[i % len(states)], carried[i % len(states)] = rho, exact
    if record:
        last = len(schedule) % len(states) + 1
        spectra.append(_health_spectra(states[:last], "segment boundary", len(schedule) + 1 - last,
                                       carried[:last], spectra[-1][-1] if spectra else None))
    else:
        _health_spectra(rho, f"segment boundary {len(schedule)}")
    rho = (rho + rho.conj().T) / 2
    if record:
        return rho, np.array(times), np.concatenate(spectra)
    return rho
