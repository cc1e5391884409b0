"""Config-driven experiment runner.

One JSON document describes an experiment; subcommands select the mode::

    noisectrl simulate --config cfg.json --out results/
    noisectrl optimize | hlp | protocol | controllability | majorize | validate

Artifacts written to the output directory:

* ``trajectory.csv``   time, descending eigenvalues, Frobenius distance to target
* ``sequence.csv``     per-slice amplitudes (slice modes) or segment listing
* ``result.json``      mode-specific summary, deterministic for fixed config+seed

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 reachability violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import comb
from pathlib import Path

import numpy as np

from . import models, optim, protocols, reach
from .exceptions import ConfigurationError, NumericalHealthError, ReachabilityError
from .qops import DensityOperator, as_matrix, frobenius_error, sorted_spectrum, vec, random_density
from .schedule import HoldSegment, Schedule, UnitarySegment, propagate_schedule

MODES = ("simulate", "optimize", "hlp", "protocol", "controllability", "majorize")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_REACHABILITY = 4


# ---------------------------------------------------------------------------
# config handling

def _fmt(x: float) -> str:
    return "%.17g" % x


def validate(config: dict, mode: str | None = None) -> list[str]:
    """Collect configuration diagnostics without running anything."""
    diags: list[str] = []
    if not isinstance(config, dict):
        return ["config root must be a JSON object"]
    cfg_mode = config.get("mode")
    if cfg_mode is not None and cfg_mode not in MODES:
        diags.append(f"mode: unknown mode {cfg_mode!r}")
    if mode and cfg_mode is not None and cfg_mode != mode:
        diags.append(f"mode: config says {cfg_mode!r} but subcommand is {mode!r}")
    mode = mode or cfg_mode

    system = None
    system_failed = False
    sys_cfg = config.get("system")
    if mode in ("simulate", "optimize", "hlp", "protocol", "controllability"):
        if not isinstance(sys_cfg, dict):
            diags.append("system: missing section")
        else:
            try:
                system = _build_system(sys_cfg)
            except (ConfigurationError, ValueError, KeyError, TypeError) as exc:
                diags.append(f"system: {exc}")
                system_failed = True

    for key in ("initial", "target"):
        st_cfg = config.get(key)
        needs = mode in ("simulate", "optimize", "hlp", "majorize")
        if st_cfg is None:
            if needs:
                diags.append(f"{key}: missing section")
            continue
        # without a system there is no qubit count to size the state with
        if (system_failed and isinstance(st_cfg, dict) and "n" not in st_cfg
                and st_cfg.get("state") != "spectrum"):
            continue
        try:
            state = _build_state(st_cfg, system.n if system else None)
            if system is not None and state.dim != system.dim:
                diags.append(f"{key}: dimension {state.dim} does not match system "
                             f"dimension {system.dim}")
        except (ValueError, KeyError, TypeError) as exc:
            diags.append(f"{key}: {exc}")

    if mode in ("simulate", "optimize"):
        hz = config.get("horizon")
        if not isinstance(hz, dict):
            diags.append("horizon: missing section")
        else:
            if not hz.get("T", 0) > 0:
                diags.append("horizon: T must be positive")
            if not int(hz.get("slices", 0)) >= 1:
                diags.append("horizon: slices must be at least 1")

    if mode == "optimize":
        opts = config.get("optimizer", {})
        fd_step = opts.get("fd_step") if isinstance(opts, dict) else None
        if fd_step is not None and not (isinstance(fd_step, (int, float)) and fd_step > 0):
            diags.append("optimizer: fd_step must be positive")

    seq_cfg = config.get("sequence", {})
    if mode == "simulate" and system is not None and isinstance(seq_cfg, dict):
        gamma = seq_cfg.get("gamma")
        if gamma is not None:
            g = np.asarray(gamma, dtype=float)
            bounds = system.gamma_bounds
            if g.ndim != 2 or g.shape[1] != len(bounds):
                diags.append("sequence: gamma must be an M x n_noises array")
            elif np.any(g < 0) or np.any(g > bounds[None, :]):
                diags.append("sequence: gamma outside [0, gamma_max]")

    if mode == "protocol":
        pr = config.get("protocol")
        if not isinstance(pr, dict):
            diags.append("protocol: missing section")
        elif pr.get("kind") not in ("init", "erase_amp", "erase_bitflip"):
            diags.append(f"protocol: unknown kind {pr.get('kind')!r}")
        elif pr.get("kind") != "erase_amp" and not pr.get("noise_time", 0) >= 0:
            diags.append("protocol: noise_time must be nonnegative")

    if mode == "hlp":
        hl = config.get("hlp", {})
        if isinstance(hl, dict):
            if hl.get("residual_target", 1e-4) <= 0:
                diags.append("hlp: residual_target must be positive")
            if int(hl.get("trotter_steps", 64)) < 1:
                diags.append("hlp: trotter_steps must be at least 1")
    return diags


def _build_system(cfg: dict):
    model = cfg.get("model")
    if model == "ising_chain":
        noise = cfg.get("noise", "amp")
        if isinstance(noise, dict):
            noise = float(noise["theta"])
        return models.ising_chain(
            n=int(cfg["n"]), coupling=float(cfg.get("coupling", 1.0)),
            noise_kind=noise, noisy_site=cfg.get("noisy_site"),
            gamma_star=float(cfg.get("gamma_star", 5.0)),
            dephasing=cfg.get("dephasing"))
    if model == "ion_trap":
        return models.ion_trap_model(gamma_star=float(cfg.get("gamma_star", 5.0)))
    raise ConfigurationError(f"unknown model {model!r}")


def _build_state(cfg: dict, n: int | None) -> DensityOperator:
    name = cfg.get("state")
    if name == "thermal":
        return models.thermal_state(int(cfg.get("n", n)))
    if name == "zero":
        return models.zero_state(int(cfg.get("n", n)))
    if name == "ghz":
        return models.ghz_state(int(cfg.get("n", n)))
    if name == "random":
        return random_density(int(cfg.get("n", n)), int(cfg["seed"]))
    if name == "spectrum":
        values = np.asarray(cfg["values"], dtype=float)
        if values.ndim != 1 or abs(values.sum() - 1.0) > 1e-9 or values.min() < -1e-12:
            raise ValueError("spectrum must be a probability vector")
        return DensityOperator(np.diag(np.sort(values)[::-1]).astype(complex))
    raise ValueError(f"unknown state {name!r}")


def _build_sequence(cfg: dict, problem, seed: int) -> optim.ControlSequence:
    style = cfg.get("style", "zero")
    if cfg.get("u") is not None or cfg.get("gamma") is not None:
        u = np.asarray(cfg.get("u"), dtype=float)
        gamma = np.asarray(cfg.get("gamma"), dtype=float)
        return optim.ControlSequence(dt=problem.dt, u=u, gamma=gamma)
    m = problem.slices
    if style == "zero":
        return optim.ControlSequence(
            dt=problem.dt, u=np.zeros((m, len(problem.system.controls))),
            gamma=np.zeros((m, len(problem.system.noises))))
    if style == "full_noise":
        return optim.ControlSequence(
            dt=problem.dt, u=np.zeros((m, len(problem.system.controls))),
            gamma=np.tile(problem.system.gamma_bounds, (m, 1)))
    if style == "uniform_random":
        return optim.random_sequence(problem, seed, u_scale=float(cfg.get("u_scale", 1.0)))
    if style == "noise_blocks":
        return optim.random_sequence(problem, seed,
                                     noise_blocks=int(cfg.get("blocks", 3)),
                                     u_scale=float(cfg.get("u_scale", 1.0)))
    raise ConfigurationError(f"unknown sequence style {style!r}")


# ---------------------------------------------------------------------------
# artifact writers

def _write_trajectory(path: Path, times, spectra, errors):
    dim = spectra.shape[1]
    header = "time," + ",".join(f"lambda_{i+1}" for i in range(dim)) + ",delta_F"
    with path.open("w") as fh:
        fh.write(header + "\n")
        for t, row, err in zip(times, spectra, errors):
            fh.write(",".join([_fmt(t)] + [_fmt(v) for v in row] + [_fmt(err)]) + "\n")


def _write_slices(path: Path, system, seq: optim.ControlSequence):
    labels = [f"u_{c}" for c in system.control_labels()]
    labels += [f"gamma_{nz}" for nz in system.noise_labels()]
    with path.open("w") as fh:
        fh.write("slice,t_start," + ",".join(labels) + "\n")
        for k in range(seq.slice_count):
            row = [str(k), _fmt(k * seq.dt)]
            row += [_fmt(v) for v in seq.u[k]]
            row += [_fmt(v) for v in seq.gamma[k]]
            fh.write(",".join(row) + "\n")


def _write_segments(path: Path, schedule: Schedule):
    with path.open("w") as fh:
        fh.write("segment,kind,label,duration,gamma_max\n")
        for i, seg in enumerate(schedule.segments):
            if isinstance(seg, HoldSegment):
                fh.write(f"{i},hold,{seg.label},{_fmt(seg.duration)},"
                         f"{_fmt(float(seg.gamma.max()) if seg.gamma.size else 0.0)}\n")
            else:
                fh.write(f"{i},unitary,{seg.label},{_fmt(seg.charged_duration)},0\n")


def _write_result(path: Path, payload: dict):
    with path.open("w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _trajectory_errors(spectra_states, target_vec):
    return [frobenius_error(state, target_vec) for state in spectra_states]


# ---------------------------------------------------------------------------
# mode runners

def _run_simulate(config, out, seed):
    system = _build_system(config["system"])
    rho0 = _build_state(config["initial"], system.n)
    target = _build_state(config["target"], system.n)
    hz = config["horizon"]
    problem = optim.TransferProblem(system=system, rho0=rho0, target=target,
                                    total_time=float(hz["T"]), slices=int(hz["slices"]))
    seq = _build_sequence(config.get("sequence", {}), problem, seed)
    traj = optim.propagate(problem, seq)
    tvec = vec(as_matrix(target))
    errors = _trajectory_errors(traj.states, tvec)
    _write_trajectory(out / "trajectory.csv", traj.times, traj.sorted_eigenvalues, errors)
    _write_slices(out / "sequence.csv", system, seq)
    _write_result(out / "result.json", {
        "mode": "simulate", "seed": seed,
        "final_error": errors[-1],
        "duration": problem.total_time,
        "slices": problem.slices,
    })
    return EXIT_OK


def _run_optimize(config, out, seed):
    system = _build_system(config["system"])
    rho0 = _build_state(config["initial"], system.n)
    target = _build_state(config["target"], system.n)
    hz = config["horizon"]
    problem = optim.TransferProblem(system=system, rho0=rho0, target=target,
                                    total_time=float(hz["T"]), slices=int(hz["slices"]))
    opts = config.get("optimizer", {})
    best, finals = optim.optimize_restarts(
        problem, restarts=int(opts.get("restarts", 9)), seed=seed,
        noise_blocks=opts.get("noise_blocks"),
        u_scale=float(opts.get("u_scale", 1.0)),
        max_iters=int(opts.get("max_iters", 500)),
        tol=float(opts.get("tol", 1e-6)),
        fd_step=opts.get("fd_step"))
    traj = optim.propagate(problem, best.sequence)
    tvec = vec(as_matrix(target))
    errors = _trajectory_errors(traj.states, tvec)
    _write_trajectory(out / "trajectory.csv", traj.times, traj.sorted_eigenvalues, errors)
    _write_slices(out / "sequence.csv", system, best.sequence)
    _write_result(out / "result.json", {
        "mode": "optimize", "seed": seed,
        "final_error": best.final_error,
        "converged": bool(best.converged),
        "iterations": int(best.iterations),
        "error_history": [float(e) for e in best.error_history],
        "restart_finals": [float(e) for e in finals],
        "duration": problem.total_time,
    })
    return EXIT_OK


def _run_hlp(config, out, seed):
    system = _build_system(config["system"])
    rho0 = _build_state(config["initial"], system.n)
    target = _build_state(config["target"], system.n)
    hl = config.get("hlp", {})
    plan = reach.plan_state_transfer(rho0, target,
                                     gamma_star=system.gamma_bounds.max(),
                                     residual_target=float(hl.get("residual_target", 1e-4)))
    payload = {
        "mode": "hlp", "seed": seed,
        "total_dissipative_time": plan.total_dissipative_time,
        "predicted_residual": plan.predicted_residual,
        "steps": json.loads(plan.to_json())["steps"],
        "initial_spectrum": [float(v) for v in plan.initial_spectrum],
        "target_spectrum": [float(v) for v in plan.target_spectrum],
    }
    if hl.get("execute", True):
        trotter = int(hl.get("trotter_steps", 64))
        schedule = reach.hlp_execute(plan, system, trotter_steps=trotter)
        rho_f, times, spectra = propagate_schedule(system, schedule, rho0, record=True)
        executed = frobenius_error(vec(rho_f), vec(as_matrix(target)))
        tvec = vec(as_matrix(target))
        # spectra carry segment-boundary rows; recompute distance rows cheaply
        payload.update({
            "trotter_steps": trotter,
            "executed_residual": executed,
            "executed_spectrum": [float(v) for v in sorted_spectrum(rho_f)],
            "predicted_executed_spectrum": [
                float(v) for v in reach.predict_executed_spectrum(plan, system, trotter)],
        })
        _write_segments(out / "sequence.csv", schedule)
        errs = [float(np.linalg.norm(np.sort(row)[::-1] - plan.target_spectrum))
                for row in spectra]
        _write_trajectory(out / "trajectory.csv", times, spectra, errs)
    _write_result(out / "result.json", payload)
    return EXIT_OK


def _run_protocol(config, out, seed):
    system = _build_system(config["system"])
    pr = config["protocol"]
    kind = pr["kind"]
    gamma_star = system.gamma_bounds.max()
    coupling = float(config["system"].get("coupling", 1.0))
    charge = bool(pr.get("charge_swap_time", True))
    n = system.n
    if kind == "init":
        report = protocols.init_protocol(n, gamma_star, coupling,
                                         float(pr["noise_time"]), charge)
        rho0, target = models.thermal_state(n), models.zero_state(n)
    elif kind == "erase_amp":
        report = protocols.erase_protocol_amp(n, gamma_star, coupling, charge)
        rho0, target = models.zero_state(n), models.thermal_state(n)
    else:
        report = protocols.erase_protocol_bitflip(n, gamma_star, coupling,
                                                  float(pr["noise_time"]), charge)
        rho0, target = models.zero_state(n), models.thermal_state(n)
    expected_kind = {"init": "amp", "erase_amp": "amp", "erase_bitflip": "bitflip"}[kind]
    if system.noises[0].kind != expected_kind:
        raise ConfigurationError(
            f"protocol '{kind}' needs {expected_kind} noise, system has "
            f"'{system.noises[0].kind}'")
    rho_f, times, spectra = propagate_schedule(system, report.schedule, rho0, record=True)
    simulated = frobenius_error(vec(rho_f), vec(as_matrix(target)))
    errs = [frobenius_error(vec(np.diag(np.sort(row)[::-1]).astype(complex)),
                            vec(as_matrix(target))) for row in spectra]
    _write_trajectory(out / "trajectory.csv", times, spectra, errs)
    _write_segments(out / "sequence.csv", report.schedule)
    _write_result(out / "result.json", {
        "mode": "protocol", "seed": seed, "kind": kind,
        "formula_id": report.formula_id,
        "predicted_error": report.predicted_error,
        "simulated_error": simulated,
        "predicted_duration": report.predicted_duration,
        "swap_count": comb(n, 2),
    })
    return EXIT_OK


def _run_controllability(config, out, seed):
    system = _build_system(config["system"])
    gens = [system.h0] + [c.operator for c in system.controls]
    dim = reach.lie_closure_dimension(gens)
    required = system.dim ** 2 - 1
    _write_result(out / "result.json", {
        "mode": "controllability", "seed": seed,
        "lie_closure_dimension": int(dim),
        "required_for_full_control": int(required),
        "fully_controllable": bool(dim == required),
    })
    return EXIT_OK


def _run_majorize(config, out, seed):
    initial = _build_state(config["initial"], None)
    target = _build_state(config["target"], None)
    y = sorted_spectrum(initial)
    x = sorted_spectrum(target)
    result = reach.majorises(x, y)
    _write_result(out / "result.json", {
        "mode": "majorize", "seed": seed,
        "target_majorised_by_initial": bool(result),
        "initial_spectrum": [float(v) for v in y],
        "target_spectrum": [float(v) for v in x],
        "partial_sum_slack": [float(v) for v in np.cumsum(y) - np.cumsum(x)],
    })
    return EXIT_OK


_RUNNERS = {
    "simulate": _run_simulate,
    "optimize": _run_optimize,
    "hlp": _run_hlp,
    "protocol": _run_protocol,
    "controllability": _run_controllability,
    "majorize": _run_majorize,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="noisectrl",
        description="Open-system control experiments with switchable noise.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in MODES + ("validate",):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, type=Path)
        p.add_argument("--out", type=Path, default=None)
        p.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        config = json.loads(args.config.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {args.config}: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    mode = None if args.command == "validate" else args.command
    diags = validate(config, mode)
    if args.command == "validate":
        for d in diags:
            print(d)
        return EXIT_OK if not diags else EXIT_CONFIG
    if diags:
        for d in diags:
            print(f"config error: {d}", file=sys.stderr)
        return EXIT_CONFIG

    seed = args.seed if args.seed is not None else int(config.get("seed", 0))
    out = args.out if args.out is not None else Path(config.get("out", "."))
    out.mkdir(parents=True, exist_ok=True)

    try:
        return _RUNNERS[args.command](config, out, seed)
    except (ConfigurationError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ReachabilityError as exc:
        print(f"reachability error: {exc}", file=sys.stderr)
        return EXIT_REACHABILITY
    except NumericalHealthError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
