"""Closed-form qubit-by-qubit protocols and their error/time formulas.

These serve both as baselines for the optimizer and as exact oracles for
the propagation machinery: with equal per-qubit noise times the residual
error of each n-step protocol is known in closed form.

All schedules assume the chain model: noise switchable on the terminal
qubit, diagonal Ising drift, swaps between diagonal states realized by
i-swaps of duration 1/J each (charged to the duration accounting; the
unitaries themselves are ideal).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Literal

import numpy as np

from .exceptions import check
from .qops import SIGMA_X, embed_local
from .schedule import HoldSegment, Schedule, UnitarySegment

__all__ = [
    "ProtocolReport",
    "init_error", "init_protocol", "init_time_bound",
    "erase_protocol_amp",
    "erase_error_bitflip", "erase_time_bitflip", "erase_protocol_bitflip",
]


@dataclass(frozen=True)
class ProtocolReport:
    schedule: Schedule
    predicted_error: float
    predicted_duration: float
    formula_id: Literal["th0est", "time_ex1", "zeroth_est", "erase_amp"]


def _swap_sites_matrix(a: int, b: int, n: int) -> np.ndarray:
    """Basis permutation exchanging qubits at sites a and b."""
    dim = 2 ** n
    perm = np.zeros((dim, dim), dtype=complex)
    for idx in range(dim):
        bits = [(idx >> (n - q)) & 1 for q in range(1, n + 1)]
        bits[a - 1], bits[b - 1] = bits[b - 1], bits[a - 1]
        jdx = sum(bit << (n - q) for q, bit in zip(range(1, n + 1), bits))
        perm[jdx, idx] = 1.0
    return perm


def _bring_qubit_to_terminal(site: int, n: int, swap_time: float):
    """Adjacent swap chain moving the qubit at `site` to site n."""
    segs = []
    for s in range(site, n):
        segs.append(UnitarySegment(_swap_sites_matrix(s, s + 1, n),
                                   charged_duration=swap_time, label=f"iswap{s}{s+1}"))
    return segs


def _qubit_cycle_schedule(n: int, step_segments, swap_time: float) -> Schedule:
    """Visit every qubit once with the noise site fixed at n.

    Step q damps the qubit originally at site n - q + 1; bringing it to the
    terminal site costs q - 1 adjacent swaps, binom(n, 2) in total.
    """
    segments = []
    for q in range(1, n + 1):
        if q > 1:
            segments.extend(_bring_qubit_to_terminal(n - q + 1, n, swap_time))
        segments.extend(step_segments)
    return Schedule(segments=tuple(segments))


def _check_protocol(n, gamma_star, coupling=1.0, total_noise_time=0.0, charge_swap_time=True):
    """Check the arguments the protocols share; a default stands in for one not taken."""
    check("n", n, int, 1)
    check("gamma_star", gamma_star, rule="positive")
    check("coupling", coupling, rule="positive")
    check("total_noise_time", total_noise_time, rule="nonnegative")
    check("charge_swap_time", charge_swap_time, bool)


def init_error(n: int, gamma_star: float, total_noise_time: float) -> float:
    """Residual error of the n-step initialisation at equal per-qubit times.

    delta^2 = 1 - 2 (1 - e/2)^n + (1 - e + e^2/2)^n with
    e = exp(-gamma* T_n / n); exact for the protocol built here.
    """
    _check_protocol(n, gamma_star, total_noise_time=total_noise_time)
    e = np.exp(-gamma_star * total_noise_time / n)
    d2 = 1.0 - 2.0 * (1.0 - e / 2.0) ** n + (1.0 - e + e * e / 2.0) ** n
    return float(np.sqrt(max(d2, 0.0)))


def init_protocol(n: int, gamma_star: float, coupling: float,
                  total_noise_time: float, charge_swap_time: bool = True) -> ProtocolReport:
    """Thermal state to |0...0| by damping each qubit in turn.

    Amplitude damping acts on the terminal site for T_n/n per qubit, with
    i-swaps between steps.  Equal per-qubit times minimise the residual,
    so the prediction is :func:`init_error`.
    """
    _check_protocol(n, gamma_star, coupling, total_noise_time, charge_swap_time)
    tau = total_noise_time / n
    u = np.zeros(2 * n)
    hold = HoldSegment(u=u, gamma=np.array([gamma_star]), duration=tau, label="damp")
    swap_time = (1.0 / coupling) if charge_swap_time else 0.0
    schedule = _qubit_cycle_schedule(n, [hold], swap_time)
    duration = total_noise_time + comb(n, 2) * swap_time
    return ProtocolReport(schedule=schedule,
                          predicted_error=init_error(n, gamma_star, total_noise_time),
                          predicted_duration=duration, formula_id="th0est")


def init_time_bound(n: int, gamma_star: float, coupling: float,
                    delta_target: float) -> float:
    """First-order total duration of the initialisation protocol,

    T_a ~ binom(n,2)/J + (n/gamma*) ln(sqrt(n(n+1)) / (2 delta)).
    Valid for small delta; tested here only up to delta = 0.05.
    """
    _check_protocol(n, gamma_star, coupling)
    check("delta_target", delta_target, rule=(0, 1, "()"))
    return float(comb(n, 2) / coupling
                 + n / gamma_star * np.log(np.sqrt(n * (n + 1)) / (2.0 * delta_target)))


def erase_protocol_amp(n: int, gamma_star: float, coupling: float,
                       charge_swap_time: bool = True) -> ProtocolReport:
    """|0...0> to the thermal state, exactly, with amplitude damping.

    Each round flips the terminal qubit and damps for ln(2)/gamma*, which
    splits its populations in half exactly; total duration
    binom(n,2)/J + (n/gamma*) ln 2 with zero residual error.
    """
    _check_protocol(n, gamma_star, coupling, charge_swap_time=charge_swap_time)
    tau = np.log(2.0) / gamma_star
    u = np.zeros(2 * n)
    flip = UnitarySegment(embed_local(SIGMA_X, n, n), label="flip")
    hold = HoldSegment(u=u, gamma=np.array([gamma_star]), duration=tau, label="damp")
    swap_time = (1.0 / coupling) if charge_swap_time else 0.0
    schedule = _qubit_cycle_schedule(n, [flip, hold], swap_time)
    duration = comb(n, 2) * swap_time + n * tau
    return ProtocolReport(schedule=schedule, predicted_error=0.0,
                          predicted_duration=duration, formula_id="erase_amp")


def erase_error_bitflip(n: int, gamma_star: float, total_noise_time: float) -> float:
    """Residual of the n-step bit-flip erasure at equal per-qubit times.

    delta^2 = 2^-n ((1 + e^2)^n - 1) with e = exp(-gamma* T_n / (2n));
    exact for the protocol built here, zero only asymptotically.
    """
    _check_protocol(n, gamma_star, total_noise_time=total_noise_time)
    e = np.exp(-gamma_star * total_noise_time / (2.0 * n))
    d2 = 2.0 ** (-n) * ((1.0 + e * e) ** n - 1.0)
    return float(np.sqrt(d2))


def erase_time_bitflip(n: int, gamma_star: float, coupling: float,
                       delta_target: float) -> float:
    """Total duration reaching a given bit-flip erasure residual,

    T_b = binom(n,2)/J - (n/gamma*) ln((2^n delta^2 + 1)^(1/n) - 1).
    """
    _check_protocol(n, gamma_star, coupling)
    hi = np.sqrt((2.0 ** n - 1.0) / 2.0 ** n)
    check("delta_target", delta_target, rule=(0, float(hi), "()"))
    inner = (2.0 ** n * delta_target ** 2 + 1.0) ** (1.0 / n) - 1.0
    return float(comb(n, 2) / coupling - n / gamma_star * np.log(inner))


def erase_protocol_bitflip(n: int, gamma_star: float, coupling: float,
                           total_noise_time: float,
                           charge_swap_time: bool = True) -> ProtocolReport:
    """|0...0> toward the thermal state with bit-flip noise, qubit by qubit."""
    _check_protocol(n, gamma_star, coupling, total_noise_time, charge_swap_time)
    tau = total_noise_time / n
    u = np.zeros(2 * n)
    hold = HoldSegment(u=u, gamma=np.array([gamma_star]), duration=tau, label="average")
    swap_time = (1.0 / coupling) if charge_swap_time else 0.0
    schedule = _qubit_cycle_schedule(n, [hold], swap_time)
    duration = total_noise_time + comb(n, 2) * swap_time
    return ProtocolReport(schedule=schedule,
                          predicted_error=erase_error_bitflip(n, gamma_star, total_noise_time),
                          predicted_duration=duration, formula_id="zeroth_est")
