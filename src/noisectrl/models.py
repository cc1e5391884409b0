"""Concrete control systems and named states.

Two families are provided: Ising-ZZ chains with local x/y controls and one
switchable noise channel on a terminal qubit, and a four-qubit trapped-ion
model with collective controls.  Amplitudes are in units of the chain
coupling J (or the trap interaction strength), times in the inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigurationError, NumericalHealthError, check
from .lindblad import _generator_stack, v_theta
from .qops import DensityOperator, SIGMA_X, SIGMA_Y, SIGMA_Z, as_matrix, embed_local

__all__ = [
    "NOISE_THETA", "Control", "Noise", "ControlSystem",
    "ising_chain", "ion_trap_model",
    "ghz_state", "thermal_state", "zero_state",
]

# the named switchable noises: theta of their operator V_theta (lindblad.v_theta)
NOISE_THETA = {"amp": 0.0, "bitflip": 0.5}


@dataclass(frozen=True)
class Control:
    label: str
    operator: np.ndarray


@dataclass(frozen=True)
class Noise:
    label: str
    operator: np.ndarray
    gamma_max: float


@dataclass(frozen=True)
class ControlSystem:
    """Drift + labelled controls + switchable and background noise.

    The operators are taken as fixed once the system is built: the stack of
    each set of real Pauli-basis generator rows that is read
    (:meth:`generator_rows`) is computed from them on first use and kept.
    """

    n: int
    h0: np.ndarray
    controls: tuple[Control, ...]
    noises: tuple[Noise, ...]
    background_noises: tuple[tuple[np.ndarray, float], ...] = field(default=())

    def __post_init__(self):
        dim = 2 ** check("n", self.n, int, 1)

        def finite_operator(what, op):
            m = as_matrix(op)
            if m.shape != (dim, dim):
                raise ConfigurationError(f"{what} has shape {m.shape}, expected {(dim, dim)}")
            # before any tolerance check: NaN > tol is False, so NaN would pass it
            if not np.all(np.isfinite(m)):
                raise NumericalHealthError(f"non-finite entries in {what}")
            return m

        def hermitian_operator(what, op):
            m = finite_operator(what, op)
            if np.abs(m - m.conj().T).max() > 1e-12 * np.abs(m).max():
                raise ConfigurationError(f"{what} is not Hermitian")

        hermitian_operator("drift", self.h0)
        for c in self.controls:
            hermitian_operator(f"control '{c.label}'", c.operator)
        for noise in self.noises:
            finite_operator(f"noise '{noise.label}'", noise.operator)
            # the amplitude check is only as good as its bound: inf fails too
            if not 0 < noise.gamma_max < np.inf:
                raise ConfigurationError(f"noise '{noise.label}' needs a finite gamma_max > 0")
        for op, rate in self.background_noises:
            finite_operator("background noise operator", op)
            if not 0 <= rate < np.inf:
                raise ConfigurationError("background noise rate must be finite and nonnegative")

    @property
    def dim(self) -> int:
        return 2 ** self.n

    def generator_rows(self, rows) -> np.ndarray:
        """Rows ``rows`` (ascending) of the real Pauli-basis generators as one
        read-only stack: one ``lindblad._generator_stack`` call per row set, kept."""
        rows = tuple(map(int, rows))
        kept = self.__dict__.setdefault("_stacks", {})
        if rows not in kept:
            kept[rows] = _generator_stack(self, rows)
        return kept[rows]

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

    ``noise_kind`` is a name in :data:`NOISE_THETA` (``"amp"``, ``"bitflip"``)
    or a float theta in [0, 1]; either selects V_theta.  The noisy site
    defaults to the last qubit.  ``dephasing`` adds a constant sigma_z/2
    background channel on every qubit at the given rate.  ``n`` is at most
    6: the dense Pauli generator stack takes about 34 GB at n = 7.
    """
    check("n", n, int, (1, 6))
    check("coupling", coupling)
    noisy_site = n if noisy_site is None else check("noisy_site", noisy_site, int, (1, n))
    check("gamma_star", gamma_star, rule="positive")

    controls = []
    for q in range(1, n + 1):
        controls.append(Control(f"x{q}", embed_local(SIGMA_X / 2, q, n)))
        controls.append(Control(f"y{q}", embed_local(SIGMA_Y / 2, q, n)))

    if isinstance(noise_kind, str):
        if noise_kind not in NOISE_THETA:
            raise ValueError(f"unknown noise kind {noise_kind!r}")
        theta, kind = NOISE_THETA[noise_kind], noise_kind
    else:
        theta, kind = noise_kind, "theta"
    noise = Noise(f"{kind}{noisy_site}", embed_local(v_theta(theta), noisy_site, n), gamma_star)

    background = ()
    if dephasing is not None and check("dephasing", dephasing, rule="nonnegative") > 0:
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
    check("gamma_star", gamma_star, rule="positive")
    n = 4
    fx = 0.5 * sum(embed_local(SIGMA_X, q, n) for q in range(1, n + 1))
    fy = 0.5 * sum(embed_local(SIGMA_Y, q, n) for q in range(1, n + 1))
    controls = [Control(f"z{q}", embed_local(SIGMA_Z / 2, q, n)) for q in range(1, n + 1)]
    controls += [Control("Fx", fx), Control("Fy", fy),
                 Control("Fx2", fx @ fx), Control("Fy2", fy @ fy)]
    noise = Noise(f"amp{n}", embed_local(v_theta(NOISE_THETA["amp"]), n, n), gamma_star)
    return ControlSystem(n=n, h0=np.zeros((2 ** n, 2 ** n), dtype=complex),
                         controls=tuple(controls), noises=(noise,))


def ghz_state(n: int) -> DensityOperator:
    """|GHZ_n><GHZ_n| with |GHZ_n> = (|0...0> + |1...1>)/sqrt(2)."""
    dim = 2 ** check("n", n, int, 2)
    psi = np.zeros(dim, dtype=complex)
    psi[0] = psi[-1] = 1.0 / np.sqrt(2)
    return DensityOperator(np.outer(psi, psi.conj()))


def thermal_state(n: int) -> DensityOperator:
    """Maximally mixed state 1/2^n."""
    dim = 2 ** check("n", n, int, 1)
    return DensityOperator(np.eye(dim, dtype=complex) / dim)


def zero_state(n: int) -> DensityOperator:
    """|0...0><0...0|."""
    dim = 2 ** check("n", n, int, 1)
    m = np.zeros((dim, dim), dtype=complex)
    m[0, 0] = 1.0
    return DensityOperator(m)
