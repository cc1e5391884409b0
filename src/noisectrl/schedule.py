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

from . import _expm
from .exceptions import check
from .lindblad import assemble_liouvillian, pauli_basis
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


def _components(pattern: np.ndarray) -> list:
    """Weakly connected components of a square boolean pattern: one ``(count, k)``
    index array per component size ``k``, ascending; a row is one component.
    Squaring the symmetric reachability matrix ``pattern | pattern.T | 1`` until
    it stops changing closes every path in about log2(k) products; each
    component is labelled by its smallest index, so rows run in the order of
    their first index, and indices ascend within a row."""
    reach = pattern | pattern.T | np.eye(len(pattern), dtype=bool)
    while not np.array_equal(step := reach @ reach, reach):    # boolean: or of ands
        reach = step
    labels = reach.argmax(axis=1)       # the first index each index reaches
    size = np.bincount(labels)[labels]
    order = np.lexsort((labels, size))   # by block size, then block; indices ascending
    return [order[size[order] == k].reshape(-1, k) for k in np.unique(size)]


def _hold_blocks(system, holds) -> list:
    """Each hold's ``B exp(-dt L) B^dag`` as flip-sector blocks, all built together.

    Entry ``(i, j)`` of a state lies in flip sector ``i ^ j``, and column
    ``a`` of ``B = pauli_basis(n)`` only in the sector whose bit for qubit
    q is set where the string digit ``a_q`` is x or y (1 or 2), so
    ``exp(-dt L)`` couples two sectors only where the real generator ``L``
    does.  Each hold's one ``assemble_liouvillian`` call gives its pattern
    of coupled sectors and its blocks ``L[P_G, P_G]`` on the strings of each
    group G of them; holds of one pattern share its groups, and one
    ``_expm.expm`` call per block size serves every hold.  Returns per hold
    one ``(index, m)`` pair per group size: ``index`` (groups, k 2^n) holds
    the row-major flat indices of each group's state entries and ``m`` the
    blocks ``B_G X_GG B_G^dag`` (2^n one-sector groups for diagonal drift
    and noise, one for a hold that couples every sector)."""
    n, dim = system.n, system.dim
    cells = np.arange(dim * dim)
    sector = (cells // dim) ^ (cells % dim)       # of a row-major or a vec index alike
    digits = cells[:, None] // 4 ** np.arange(n - 1, -1, -1) % 4
    of_string = ((digits == 1) | (digits == 2)) @ 2 ** np.arange(n - 1, -1, -1)
    entries = np.argsort(sector, kind="stable").reshape(dim, dim)
    order = np.argsort(of_string, kind="stable")
    strings = order.reshape(dim, dim)
    groups, parts = {}, []      # parts: (hold, index, strings, -dt L[P_G, P_G]) per group size
    for h, seg in enumerate(holds):
        ell = assemble_liouvillian(system, seg.u, seg.gamma)
        dt = check("dt", seg.duration, rule="nonnegative")
        rows = (ell != 0)[order].reshape(dim, dim, -1).any(axis=1)    # (sector, string)
        coupled = rows[:, order].reshape(dim, dim, dim).any(axis=2)
        if (key := coupled.tobytes()) not in groups:
            groups[key] = [(entries[g].reshape(len(g), -1), strings[g].reshape(len(g), -1))
                           for g in _components(coupled)]
        parts += [(h, index, paulis, -dt * ell[paulis[:, :, None], paulis[:, None, :]])
                  for index, paulis in groups[key]]
    blocks = [[] for _ in holds]
    for size in sorted({part[1].shape[1] for part in parts}):
        same = [part for part in parts if part[1].shape[1] == size]
        index, paulis = (np.concatenate([part[k] for part in same]) for k in (1, 2))
        vecs = index % dim * dim + index // dim     # vec index of each entry
        b = pauli_basis(n)[vecs[:, :, None], paulis[:, None, :]]
        m = b @ _expm.expm(np.concatenate([part[3] for part in same])) @ b.conj().swapaxes(-1, -2)
        at = np.cumsum([0] + [len(part[1]) for part in same])
        for (h, own, _, _), lo, hi in zip(same, at, at[1:]):
            blocks[h].append((own, m[lo:hi]))
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
    which collapses the cost of the long repetitive decoupling trains; that
    key is built once per distinct segment object, and the holds of the
    distinct keys are built before the first segment is applied, in one
    :func:`_hold_blocks` call, so a bad hold amplitude is reported before
    the segments ahead of it run.
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
    segments = {id(seg): seg for seg in schedule.segments if isinstance(seg, HoldSegment)}
    keys = {i: (seg.u.tobytes(), seg.gamma.tobytes(), seg.duration)
            for i, seg in segments.items()}
    first = {key: segments[i] for i, key in keys.items()}
    built = dict(zip(first, _hold_blocks(system, list(first.values()))))
    holds = {i: built[key] for i, key in keys.items()}
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
            flat, out = rho.ravel(), np.empty(rho.size, dtype=complex)
            for index, m in holds[id(seg)]:
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
