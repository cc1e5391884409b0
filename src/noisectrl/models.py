"""Concrete control systems and named states.

Two families are provided: Ising-ZZ chains with local x/y controls and one
switchable noise channel on a terminal qubit, and a four-qubit trapped-ion
model with collective controls.  Amplitudes are in units of the chain
coupling J (or the trap interaction strength), times in the inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import ConfigurationError
from .lindblad import _generator_stack, v_theta
from .qops import (DensityOperator, IDENTITY_2, SIGMA_MINUS, SIGMA_X, SIGMA_Y,
                   SIGMA_Z, as_matrix, embed_local)

__all__ = [
    "Control", "Noise", "ControlSystem",
    "ising_chain", "ion_trap_model",
    "ghz_state", "thermal_state", "zero_state",
]


@dataclass(frozen=True)
class Control:
    label: str
    operator: np.ndarray


@dataclass(frozen=True)
class Noise:
    label: str
    operator: np.ndarray
    gamma_max: float
    kind: str = "custom"     # 'amp' | 'bitflip' | 'theta' | 'custom'


@dataclass(frozen=True)
class ControlSystem:
    """Drift + labelled controls + switchable and background noise.

    The operators are taken as fixed once the system is built: the real
    Pauli-basis generator stack is computed from them on first use and
    kept.
    """

    n: int
    h0: np.ndarray
    controls: tuple[Control, ...]
    noises: tuple[Noise, ...]
    background_noises: tuple[tuple[np.ndarray, float], ...] = field(default=())

    def __post_init__(self):
        dim = 2 ** self.n
        h0 = np.asarray(self.h0, dtype=complex)
        if h0.shape != (dim, dim):
            raise ConfigurationError(f"drift has shape {h0.shape}, expected {(dim, dim)}")
        if np.abs(h0 - h0.conj().T).max() > 1e-12:
            raise ConfigurationError("drift is not Hermitian")
        for c in self.controls:
            if as_matrix(c.operator).shape != (dim, dim):
                raise ConfigurationError(f"control '{c.label}' has wrong dimension")
            if np.abs(c.operator - np.conj(c.operator).T).max() > 1e-12:
                raise ConfigurationError(f"control '{c.label}' is not Hermitian")
        for noise in self.noises:
            if as_matrix(noise.operator).shape != (dim, dim):
                raise ConfigurationError(f"noise '{noise.label}' has wrong dimension")
            if noise.gamma_max <= 0:
                raise ConfigurationError(f"noise '{noise.label}' needs gamma_max > 0")
        for op, rate in self.background_noises:
            if as_matrix(op).shape != (dim, dim):
                raise ConfigurationError("background noise operator has wrong dimension")
            if rate < 0:
                raise ConfigurationError("background noise rate must be nonnegative")

    @property
    def dim(self) -> int:
        return 2 ** self.n

    @cached_property
    def pauli_generators(self) -> np.ndarray:
        """Read-only real stack (1 + C + L, N^2, N^2) of Pauli-basis generators.

        Row 0 is the drift ``i H_hat(H_0)`` plus the background noise, then
        ``i H_hat(H_j)`` per control and ``Gamma_hat(V_l)`` per switchable
        noise (see :mod:`noisectrl.lindblad` for the basis).
        """
        return _generator_stack(self)

    @property
    def gamma_bounds(self) -> np.ndarray:
        return np.array([noise.gamma_max for noise in self.noises])

    def control_labels(self) -> list[str]:
        return [c.label for c in self.controls]

    def noise_labels(self) -> list[str]:
        return [noise.label for noise in self.noises]


def _chain_drift(n: int, coupling: float) -> np.ndarray:
    dim = 2 ** n
    h0 = np.zeros((dim, dim), dtype=complex)
    for q in range(1, n):
        h0 += np.pi * coupling * 0.5 * (
            embed_local(SIGMA_Z, q, n) @ embed_local(SIGMA_Z, q + 1, n))
    return h0


def ising_chain(n: int, coupling: float = 1.0, noise_kind="amp",
                noisy_site: int | None = None, gamma_star: float = 5.0,
                dephasing: float | None = None) -> ControlSystem:
    """Ising-ZZ chain with local x/y controls and one switchable noise channel.

    ``noise_kind`` is ``"amp"``, ``"bitflip"`` or a float theta in [0, 1]
    selecting the interpolating generator.  The noisy site defaults to the
    last qubit.  ``dephasing`` adds a constant sigma_z/2 background channel
    on every qubit at the given rate.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    if noisy_site is None:
        noisy_site = n
    if not 1 <= noisy_site <= n:
        raise ValueError(f"noisy site {noisy_site} out of range")
    if gamma_star <= 0:
        raise ValueError("gamma_star must be positive")

    controls = []
    for q in range(1, n + 1):
        controls.append(Control(f"x{q}", embed_local(SIGMA_X / 2, q, n)))
        controls.append(Control(f"y{q}", embed_local(SIGMA_Y / 2, q, n)))

    if isinstance(noise_kind, str):
        if noise_kind == "amp":
            local, kind = SIGMA_MINUS, "amp"
        elif noise_kind == "bitflip":
            local, kind = SIGMA_X / 2, "bitflip"
        else:
            raise ValueError(f"unknown noise kind {noise_kind!r}")
    else:
        local, kind = v_theta(float(noise_kind)), "theta"
    noise = Noise(f"{kind}{noisy_site}", embed_local(local, noisy_site, n),
                  gamma_star, kind)

    background = ()
    if dephasing is not None and dephasing > 0:
        background = tuple((embed_local(SIGMA_Z / 2, q, n), float(dephasing))
                           for q in range(1, n + 1))

    return ControlSystem(n=n, h0=_chain_drift(n, coupling),
                         controls=tuple(controls), noises=(noise,),
                         background_noises=background)


def ion_trap_model(gamma_star: float = 5.0) -> ControlSystem:
    """Four trapped-ion qubits: local z controls, collective x/y drives and
    their squares, amplitude damping switchable on the terminal qubit.

    The drift is taken as zero (control amplitudes are expressed relative
    to the interaction strength; no separate free Hamiltonian is modelled).
    """
    n = 4
    fx = 0.5 * sum(embed_local(SIGMA_X, q, n) for q in range(1, n + 1))
    fy = 0.5 * sum(embed_local(SIGMA_Y, q, n) for q in range(1, n + 1))
    controls = [Control(f"z{q}", embed_local(SIGMA_Z / 2, q, n)) for q in range(1, n + 1)]
    controls += [Control("Fx", fx), Control("Fy", fy),
                 Control("Fx2", fx @ fx), Control("Fy2", fy @ fy)]
    noise = Noise(f"amp{n}", embed_local(SIGMA_MINUS, n, n), gamma_star, "amp")
    return ControlSystem(n=n, h0=np.zeros((2 ** n, 2 ** n), dtype=complex),
                         controls=tuple(controls), noises=(noise,))


def ghz_state(n: int) -> DensityOperator:
    """|GHZ_n><GHZ_n| with |GHZ_n> = (|0...0> + |1...1>)/sqrt(2)."""
    if n < 2:
        raise ValueError("GHZ state needs at least two qubits")
    dim = 2 ** n
    psi = np.zeros(dim, dtype=complex)
    psi[0] = psi[-1] = 1.0 / np.sqrt(2)
    return DensityOperator(np.outer(psi, psi.conj()))


def thermal_state(n: int) -> DensityOperator:
    """Maximally mixed state 1/2^n."""
    dim = 2 ** n
    return DensityOperator(np.eye(dim, dtype=complex) / dim)


def zero_state(n: int) -> DensityOperator:
    """|0...0><0...0|."""
    dim = 2 ** n
    m = np.zeros((dim, dim), dtype=complex)
    m[0, 0] = 1.0
    return DensityOperator(m)
