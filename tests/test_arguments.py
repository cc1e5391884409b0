"""Bad scalar and array arguments to the public API end in a ValueError.

One table row per public function with scalar arguments: a valid baseline
call and, per scalar argument, which of the swept values it accepts.  Every
other value must raise a ValueError naming the argument; an accepted value
must give a result without NaN (an infinite result can be legitimate, as the
zero temperature of ``beta_of_theta(0, ...)``).  Nothing else may come out:
no TypeError, ZeroDivisionError or OverflowError, and, since the suite turns
RuntimeWarnings into errors, no divide-by-zero or invalid-value warning.

Left out on purpose: ``ising_chain``'s ``noise_kind``, whose theta is
``v_theta``'s row.

Array arguments have three tables: non-finite arrays and noise amplitudes,
invalid states (each raises the ValueError of ``DensityOperator``, the one
definition of a state), and wrong shapes.  An infinite ``gamma_max`` or
background rate is a ``ConfigurationError``, as a NaN one is
(``test_models.test_nan_rates_are_rejected``).
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisectrl import lindblad, models, optim, protocols, qops, reach, schedule
from noisectrl.exceptions import ConfigurationError

SWEPT = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "-1": -1, "0": 0,
         "2.5": 2.5, "True": True}

_CHAIN = models.ising_chain(2, noise_kind="bitflip")
_PLAN = reach.hlp_plan([0.4, 0.3, 0.2, 0.1], np.full(4, 0.25), gamma_star=5.0)
_QUBIT = models.ising_chain(1, noise_kind="bitflip")
_PROBLEM = optim.TransferProblem(_QUBIT, models.zero_state(1), models.thermal_state(1), 1.0, 2)
_START = optim.random_sequence(_PROBLEM, 1)


def _bath(**kw):
    return lindblad.heat_bath_generator(lindblad.BathParams("bosonic", **kw))


# (function, baseline keyword arguments, {argument: accepted swept values})
TABLE = [
    (qops.embed_local, dict(op=qops.SIGMA_X, site=1, n=3), {"site": "", "n": ""}),
    (qops.random_density, dict(n=1, seed=1), {"n": "", "seed": "0"}),
    (models.ising_chain, dict(n=2, coupling=1.0, noisy_site=2, gamma_star=5.0, dephasing=0.1),
     {"n": "", "coupling": "-1 0 2.5", "noisy_site": "", "gamma_star": "2.5",
      "dephasing": "0 2.5"}),
    (models.ion_trap_model, dict(gamma_star=5.0), {"gamma_star": "2.5"}),
    (models.ghz_state, dict(n=2), {"n": ""}),
    (models.thermal_state, dict(n=1), {"n": ""}),
    (models.zero_state, dict(n=1), {"n": ""}),
    (lindblad.pauli_basis, dict(n=1), {"n": ""}),
    (lindblad.propagator, dict(ell=np.eye(4), dt=0.1), {"dt": "0 2.5"}),
    (lindblad.v_theta, dict(theta=0.2), {"theta": "0"}),
    (lindblad.theta_channel_exact, dict(theta=0.2, gamma_t=1.0),
     {"theta": "0", "gamma_t": "0 2.5"}),
    (lindblad.diag_channel_theta, dict(theta=0.2, gamma_t=5.0, n=1),
     {"theta": "0", "gamma_t": "0 2.5", "n": ""}),
    (_bath, dict(beta=1.0, omega0=1.0, gamma=1.0),
     {"beta": "inf 2.5", "omega0": "2.5", "gamma": "2.5"}),
    (reach.majorises, dict(x=[0.6, 0.4], y=[0.7, 0.3], tol=1e-10), {"tol": "0 2.5"}),
    (reach.t_transform, dict(v=[0.7, 0.3], pair=(0, 1), lam=0.3), {"lam": "0"}),
    (reach.switch_time_amp, dict(rho_ii=0.7, rho_jj=0.3, gamma_star=5.0, tau=1.0),
     {"rho_ii": "0 2.5", "rho_jj": "0 2.5", "gamma_star": "2.5", "tau": "0 2.5"}),
    (reach.theta_pair_admissible, dict(rho_ii=0.6, rho_jj=0.4, theta=0.2),
     {"rho_ii": "0 2.5", "rho_jj": "0 2.5", "theta": "0"}),
    (reach.switch_time_theta, dict(rho_ii=0.6, rho_jj=0.4, theta=0.2, gamma_star=5.0, tau=1.0),
     {"rho_ii": "2.5", "rho_jj": "0 2.5", "theta": "0", "gamma_star": "2.5", "tau": "0 2.5"}),
    (reach.fixed_point_theta, dict(theta=0.2), {"theta": "0"}),
    (reach.beta_of_theta, dict(theta=0.2, delta_energy=1.0),
     {"theta": "0", "delta_energy": "2.5"}),
    (reach.hlp_plan, dict(y=[0.7, 0.3], x=[0.6, 0.4], gamma_star=5.0, residual_target=1e-4),
     {"gamma_star": "2.5", "residual_target": "2.5"}),
    (reach.hlp_execute, dict(plan=_PLAN, system=_CHAIN, trotter_steps=2),
     {"trotter_steps": ""}),
    (reach.predict_executed_spectrum, dict(plan=_PLAN, system=_CHAIN, trotter_steps=2),
     {"trotter_steps": ""}),
    (optim.TransferProblem, dict(system=_QUBIT, rho0=models.zero_state(1),
                                 target=models.thermal_state(1), total_time=1.0, slices=2),
     {"total_time": "2.5", "slices": ""}),
    (optim.random_sequence, dict(problem=_PROBLEM, seed=1, noise_blocks=1, u_scale=1.0),
     {"seed": "0", "noise_blocks": "", "u_scale": "0 2.5"}),
    (optim.optimize, dict(problem=_PROBLEM, init=_START, max_iters=1, tol=1e-6),
     {"max_iters": "", "tol": "0 2.5"}),
    (optim.optimize_restarts, dict(problem=_PROBLEM, restarts=1, seed=0, noise_blocks=1,
                                   u_scale=1.0, max_iters=1, tol=1e-6),
     {"restarts": "", "seed": "0", "noise_blocks": "", "u_scale": "0 2.5", "max_iters": "",
      "tol": "0 2.5"}),
    (protocols.init_error, dict(n=2, gamma_star=5.0, total_noise_time=1.0),
     {"n": "", "gamma_star": "2.5", "total_noise_time": "0 2.5"}),
    (protocols.init_protocol, dict(n=2, gamma_star=5.0, coupling=1.0, total_noise_time=1.0,
                                   charge_swap_time=True),
     {"n": "", "gamma_star": "2.5", "coupling": "2.5", "total_noise_time": "0 2.5",
      "charge_swap_time": "True"}),
    (protocols.init_time_bound, dict(n=2, gamma_star=5.0, coupling=1.0, delta_target=0.05),
     {"n": "", "gamma_star": "2.5", "coupling": "2.5", "delta_target": ""}),
    (protocols.erase_protocol_amp, dict(n=2, gamma_star=5.0, coupling=1.0,
                                        charge_swap_time=True),
     {"n": "", "gamma_star": "2.5", "coupling": "2.5", "charge_swap_time": "True"}),
    (protocols.erase_error_bitflip, dict(n=2, gamma_star=5.0, total_noise_time=1.0),
     {"n": "", "gamma_star": "2.5", "total_noise_time": "0 2.5"}),
    (protocols.erase_time_bitflip, dict(n=2, gamma_star=5.0, coupling=1.0, delta_target=0.1),
     {"n": "", "gamma_star": "2.5", "coupling": "2.5", "delta_target": ""}),
    (protocols.erase_protocol_bitflip, dict(n=2, gamma_star=5.0, coupling=1.0,
                                            total_noise_time=1.0, charge_swap_time=True),
     {"n": "", "gamma_star": "2.5", "coupling": "2.5", "total_noise_time": "0 2.5",
      "charge_swap_time": "True"}),
]
CASES = [(fn, base, arg, label, label in accepted.split())
         for fn, base, args in TABLE for arg, accepted in args.items() for label in SWEPT]


def _arrays(out):
    """Every array or number in a result, through dataclasses, tuples and lists."""
    if dataclasses.is_dataclass(out):
        return [a for f in dataclasses.fields(out) for a in _arrays(getattr(out, f.name))]
    if isinstance(out, (tuple, list)):
        return [a for item in out for a in _arrays(item)]
    return [] if out is None or isinstance(out, str) else [np.asarray(out)]


# hypothesis draws no case twice and stops when all are drawn, so every case runs
@settings(max_examples=2 * len(CASES), deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(CASES))
def test_bad_scalar_argument_raises_value_error_naming_it(case):
    fn, base, arg, label, accepted = case
    try:
        out = fn(**{**base, arg: SWEPT[label]})
    except ValueError as exc:
        assert not accepted, f"{fn.__name__}({arg}={label}) raised {exc}"
        assert arg in str(exc)
        return
    assert accepted, f"{fn.__name__}({arg}={label}) was accepted"
    assert not any(np.isnan(a).any() for a in _arrays(out))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("call", [
    lambda bad: qops.DensityOperator(np.diag([bad, 1.0])),
    lambda bad: qops.sorted_spectrum(np.diag([bad, 1.0])),
    lambda bad: reach.majorises([bad, 1.0], [0.5, 0.5]),
    lambda bad: reach.hlp_plan([bad, 1.0], [0.5, 0.5], gamma_star=5.0),
    lambda bad: lindblad.assemble_liouvillian(_CHAIN, np.zeros(4), [bad]),
    lambda bad: optim.error(_PROBLEM, optim.ControlSequence(np.zeros((2, 2)), [[bad], [0.0]])),
], ids=["DensityOperator", "sorted_spectrum", "majorises", "hlp_plan", "assemble_liouvillian",
        "error"])
def test_non_finite_array_raises_value_error(call, bad):
    with pytest.raises(ValueError, match="finite"):
        call(bad)


# each state argument is converted through DensityOperator and raises its error
@pytest.mark.parametrize("state, message", [
    (np.diag([np.nan, 1.0]), "not finite"),
    (np.diag([2.0, -1.0]), "negative eigenvalue"),
    (np.array([[1.0, 1.0], [0.0, 0.0]]), "not Hermitian"),
], ids=["nan", "not-psd", "not-hermitian"])
@pytest.mark.parametrize("call", [
    lambda rho: optim.TransferProblem(_QUBIT, rho, models.zero_state(1), 1.0, 2),
    lambda rho: optim.TransferProblem(_QUBIT, models.zero_state(1), rho, 1.0, 2),
    lambda rho: schedule.propagate_schedule(_QUBIT, schedule.Schedule(), rho),
    lambda rho: reach.plan_state_transfer(rho, models.thermal_state(1), gamma_star=5.0),
    lambda rho: reach.plan_state_transfer(models.zero_state(1), rho, gamma_star=5.0),
], ids=["TransferProblem-rho0", "TransferProblem-target", "propagate_schedule",
        "plan_state_transfer-rho0", "plan_state_transfer-target"])
def test_invalid_state_raises_value_error(call, state, message):
    with pytest.raises(ValueError, match=message):
        call(state)


@pytest.mark.parametrize("call, message", [
    (lambda: qops.sorted_spectrum(np.zeros(3)), "square matrix"),
    (lambda: qops.DensityOperator(np.zeros((0, 0))), "square matrix"),
    (lambda: optim.TransferProblem(_QUBIT, np.full(2, 0.5), models.zero_state(1), 1.0, 2),
     "square matrix"),
    (lambda: schedule.propagate_schedule(_QUBIT, schedule.Schedule(), np.full(2, 0.5)),
     "square matrix"),
    (lambda: reach.plan_state_transfer(np.full(2, 0.5), models.zero_state(1), gamma_star=5.0),
     "square matrix"),
    (lambda: lindblad.assemble_liouvillian(_CHAIN, np.zeros(3), [0.0]), "control shape"),
    (lambda: schedule.propagate_schedule(_CHAIN, schedule.Schedule(), models.zero_state(1)),
     "rho0 dimension 2 does not match the system dimension 4"),
], ids=["sorted_spectrum", "DensityOperator", "TransferProblem", "propagate_schedule",
        "plan_state_transfer", "assemble_liouvillian", "propagate_schedule-dimension"])
def test_wrong_shape_array_raises_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("gamma_max, rate", [(np.inf, 0.1), (1.0, np.inf)])
def test_infinite_rates_are_a_configuration_error(gamma_max, rate):
    # an infinite gamma_max would let the amplitude check pass infinite amplitudes
    op = np.diag([0.5, -0.5]).astype(complex)
    with pytest.raises(ConfigurationError, match="finite"):
        models.ControlSystem(n=1, h0=np.zeros((2, 2)), controls=(),
                             noises=(models.Noise("v", op, gamma_max),),
                             background_noises=((op, rate),))
