"""Open-loop control of n-qubit open systems with switchable Markovian noise.

Library layout:

* :mod:`noisectrl.qops`       operator algebra, vectorization, spectra, density operators
* :mod:`noisectrl.lindblad`   the Pauli basis, the one generator builder, propagators, closed-form channels
* :mod:`noisectrl.models`     Ising chains, the ion-trap system, named states
* :mod:`noisectrl.reach`      majorisation, switch times, HLP scheduling with its drift decoupling, Lie closure
* :mod:`noisectrl.schedule`   segmented schedules (ideal unitaries + holds)
* :mod:`noisectrl.optim`      sequence propagation, gradients, optimization
* :mod:`noisectrl.protocols`  closed-form initialisation/erasure protocols
* :mod:`noisectrl.cli`        config-driven experiment runner
"""

from .exceptions import (ConfigurationError, NoiseCtrlError,
                         NumericalHealthError, ReachabilityError)
from .qops import (IDENTITY_2, SIGMA_MINUS, SIGMA_PLUS, SIGMA_X, SIGMA_Y,
                   SIGMA_Z, DensityOperator, embed_local, frobenius_error,
                   random_density, sorted_spectrum, unvec, vec)
from .lindblad import (BathParams, assemble_liouvillian, diag_channel_theta,
                       heat_bath_generator, liouvillians, pauli_basis, propagator,
                       theta_channel_exact, theta_generator, v_theta)
from .models import (ControlSystem, ghz_state, ion_trap_model, ising_chain,
                     thermal_state, zero_state)
from .reach import (HlpPlan, HlpStep, beta_of_theta, fixed_point_theta,
                    hlp_execute, hlp_plan, lie_closure_dimension, majorises,
                    plan_state_transfer, predict_executed_spectrum,
                    switch_time_amp, switch_time_theta, t_transform,
                    theta_pair_admissible)
from .schedule import HoldSegment, Schedule, UnitarySegment, propagate_schedule
from .optim import (ControlSequence, OptimizationResult, TransferProblem,
                    Trajectory, error, gradient, optimize, optimize_restarts,
                    propagate, random_sequence)
from .protocols import (ProtocolReport, erase_error_bitflip,
                        erase_protocol_amp, erase_protocol_bitflip,
                        erase_time_bitflip, init_error, init_protocol,
                        init_time_bound)

__version__ = "0.1.0"
