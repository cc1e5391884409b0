"""Config-driven experiment runner.

One JSON document describes an experiment; subcommands select the mode::

    noisectrl simulate --config cfg.json --out results/
    noisectrl optimize | hlp | protocol | controllability | majorize | validate

Artifacts written to the output directory:

* ``trajectory.csv``   time, descending eigenvalues, distance to target (states or spectra)
* ``sequence.csv``     per-slice amplitudes (slice modes) or segment listing
* ``result.json``      mode-specific summary, deterministic for fixed config+seed

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 reachability violation.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import models, optim, protocols, reach
from .exceptions import ConfigurationError, NumericalHealthError, ReachabilityError, check
from .qops import (DensityOperator, as_matrix, frobenius_error, random_density,
                   sorted_spectrum, vec)
from .schedule import HoldSegment, Schedule, propagate_schedule

MODES = ("simulate", "optimize", "hlp", "protocol", "controllability", "majorize")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_REACHABILITY = 4


# ---------------------------------------------------------------------------
# config loading: each section is read, checked and built once, here

_REQUIRED = object()
_STATES = {"thermal": models.thermal_state, "zero": models.zero_state,
           "ghz": models.ghz_state, "random": random_density}
# each protocol's noise (a name in models.NOISE_THETA), switchable on the last qubit
_PROTOCOL_NOISE = {"init": "amp", "erase_amp": "amp", "erase_bitflip": "bitflip"}


def _fmt(x: float) -> str:
    return "%.17g" % x


def _get(sec: dict, key: str, kind, default=_REQUIRED, rule=None):
    """``sec[key]`` of type ``kind`` obeying ``rule``, or a ValueError naming the key."""
    value = sec.get(key, default)
    if value is _REQUIRED:
        raise ValueError(f"{key} is required")
    if value is None and default is None:
        return None
    return check(key, value, kind, rule)


def _section(config: dict, name: str, required: bool = True) -> dict:
    sec = config.get(name, None if required else {})
    if not isinstance(sec, dict):
        raise ValueError("must be an object" if name in config else "missing section")
    return sec


def load(config, mode: str | None = None, seed: int | None = None):
    """Read, check and build each section ``mode`` needs, each exactly once.

    Returns ``(built, diagnostics)``; ``built`` is what the mode's runner takes,
    complete only without diagnostics.  ``seed`` overrides the config's.  A
    section whose inputs already failed is skipped, so each fault is reported once.
    A system whose operators come out non-finite raises
    :class:`NumericalHealthError` instead of a diagnostic.
    """
    if not isinstance(config, dict):
        return {}, ["config root must be a JSON object"]
    diags: list[str] = []

    @contextmanager
    def section(name):
        try:
            yield
        except (ValueError, TypeError, OverflowError, ConfigurationError) as exc:
            diags.append(f"{name}: {exc}")

    cfg_mode = config.get("mode")
    if cfg_mode is not None and cfg_mode not in MODES:
        diags.append(f"mode: unknown mode {cfg_mode!r}")
    if mode and cfg_mode is not None and cfg_mode != mode:
        diags.append(f"mode: config says {cfg_mode!r} but subcommand is {mode!r}")
    mode = mode or cfg_mode
    if mode is None:
        diags.append("mode: missing, and no mode subcommand was given")
    seed = config.get("seed", 0) if seed is None else seed
    try:
        check("seed", seed, int, "nonnegative")
    except ValueError:
        diags.append("seed: must be a nonnegative integer")
        seed = 0    # so that the sections drawing from the seed are still checked
    if not isinstance(config.get("out", "."), str):
        diags.append("out: must be a string")
    built = {"seed": seed, "out": Path(str(config.get("out", ".")))}

    system = coupling = None
    if mode in ("simulate", "optimize", "hlp", "protocol", "controllability"):
        with section("system"):
            sec = _section(config, "system")
            model = _get(sec, "model", str)
            gamma_star = _get(sec, "gamma_star", float, 5.0, "positive")
            coupling = _get(sec, "coupling", float, 1.0, "positive")
            noise = sec.get("noise", "amp")
            if isinstance(noise, dict):
                noise = _get(noise, "theta", float)
            elif noise not in list(models.NOISE_THETA):    # a list: unhashable noise too
                raise ValueError(f"unknown noise {noise!r}")
            if model == "ion_trap":
                system = models.ion_trap_model(gamma_star=gamma_star)
            elif model == "ising_chain":
                system = models.ising_chain(
                    n=_get(sec, "n", int), coupling=coupling, noise_kind=noise,
                    noisy_site=_get(sec, "noisy_site", int, None), gamma_star=gamma_star,
                    dephasing=_get(sec, "dephasing", float, None, "nonnegative"))
            else:
                raise ValueError(f"unknown model {model!r}")

    state_modes = ("simulate", "optimize", "hlp", "majorize")
    for key in ("initial", "target") if mode in state_modes else ():
        with section(key):
            sec = _section(config, key)
            name = _get(sec, "state", str)
            if name == "spectrum":
                values = np.asarray(_get(sec, "values", list), dtype=float)
                if values.ndim != 1:
                    raise ValueError("spectrum must be a probability vector")
                state = DensityOperator(np.diag(np.sort(values)[::-1]).astype(complex))
            elif name not in _STATES:
                raise ValueError(f"unknown state {name!r}")
            elif system is None and mode != "majorize" and "n" not in sec:
                continue    # no system to size the state with; its fault is reported
            else:
                n = _get(sec, "n", int, _REQUIRED if system is None else system.n, 1)
                seed_arg = [_get(sec, "seed", int, rule="nonnegative")] if name == "random" else []
                state = _STATES[name](n, *seed_arg)
            dim = (system or built.get("initial", state)).dim
            if state.dim != dim:
                raise ValueError(f"dimension {state.dim} does not match "
                                 f"{'system' if system else 'initial'} dimension {dim}")
            built[key] = state

    if mode in ("simulate", "optimize"):
        with section("horizon"):
            sec = _section(config, "horizon")
            total_time = _get(sec, "T", float, rule="positive")
            slices = _get(sec, "slices", int, rule=1)
            if system is not None and "initial" in built and "target" in built:
                built["problem"] = optim.TransferProblem(system, built["initial"],
                                                         built["target"], total_time, slices)
    problem = built.get("problem")

    if mode == "simulate" and problem is not None:
        with section("sequence"):
            sec = _section(config, "sequence", required=False)
            style = _get(sec, "style", str, "zero")
            if sec.get("u") is not None or sec.get("gamma") is not None:
                seq = optim.ControlSequence(_get(sec, "u", list), _get(sec, "gamma", list))
            elif style in ("zero", "full_noise"):
                u = np.zeros((slices, len(system.controls)))
                gamma = np.tile(system.gamma_bounds, (slices, 1)) * (style == "full_noise")
                seq = optim.ControlSequence(u, gamma)
            elif style in ("uniform_random", "noise_blocks"):
                u_scale = _get(sec, "u_scale", float, 1.0, "nonnegative")
                blocks = None
                if style == "noise_blocks":
                    blocks = _get(sec, "blocks", int, 3, 1)
                seq = optim.random_sequence(problem, seed, noise_blocks=blocks, u_scale=u_scale)
            else:
                raise ValueError(f"unknown style {style!r}")
            optim._check_sequence(problem, seq)
            built["sequence"] = seq

    if mode == "optimize":
        with section("optimizer"):
            sec = _section(config, "optimizer", required=False)
            built["optimizer"] = dict(
                restarts=_get(sec, "restarts", int, 9, 1), seed=seed,
                noise_blocks=_get(sec, "noise_blocks", int, None, 1),
                u_scale=_get(sec, "u_scale", float, 1.0, "nonnegative"),
                max_iters=_get(sec, "max_iters", int, 500, 1),
                tol=_get(sec, "tol", float, 1e-6, "nonnegative"))

    if mode == "hlp":
        with section("hlp"):
            sec = _section(config, "hlp", required=False)
            hl = dict(residual_target=_get(sec, "residual_target", float, 1e-4, "positive"),
                      trotter_steps=_get(sec, "trotter_steps", int, 64, 1),
                      execute=_get(sec, "execute", bool, True))
            # the executed schedule averages pairs by switching bit flip on the last qubit
            if hl["execute"] and system is not None and reach._terminal_noise(system) is None:
                raise ValueError("execute needs bitflip noise on the last qubit, "
                                 f"system has {system.noises[0].label!r}")
            built["hlp"] = hl

    if mode == "protocol" and system is not None:
        with section("protocol"):
            sec = _section(config, "protocol")
            kind = _get(sec, "kind", str)
            if kind not in _PROTOCOL_NOISE:
                raise ValueError(f"unknown kind {kind!r}")
            # the closed forms hold only for their own noise on the last qubit
            noise = _PROTOCOL_NOISE[kind]
            if reach._terminal_noise(system, models.NOISE_THETA[noise]) is None:
                raise ValueError(f"{kind!r} needs {noise} noise on the last qubit, "
                                 f"system has {system.noises[0].label!r}")
            noise_time = _get(sec, "noise_time", float,
                              None if kind == "erase_amp" else _REQUIRED, "nonnegative")
            built["protocol"] = dict(kind=kind, coupling=coupling, noise_time=noise_time,
                                     charge_swap_time=_get(sec, "charge_swap_time", bool, True))
    built["system"] = system
    return built, diags


def validate(config, mode: str | None = None) -> list[str]:
    """Collect configuration diagnostics without running anything."""
    return load(config, mode)[1]


# ---------------------------------------------------------------------------
# artifact writers

def _write_table(path: Path, labels, columns):
    """A CSV table under a header row, each number as ``%.17g``: the bytes of
    ``np.savetxt(fmt="%.17g", delimiter=",")``.  One ``%`` formats the first of
    each run of rows equal bit for bit (``-0.0`` and ``0.0`` print apart), whose
    line is then repeated."""
    table = np.column_stack(columns)
    bits = table.view(np.uint8)
    starts = np.flatnonzero(np.r_[True, (bits[1:] != bits[:-1]).any(axis=1)][:len(table)])
    lines = ((",".join(["%.17g"] * table.shape[1]) + "\n") * len(starts)
             % tuple(table[starts].ravel().tolist())).splitlines(keepends=True)
    counts = np.diff(np.r_[starts, len(table)]).tolist()
    body = "".join(line * count for line, count in zip(lines, counts))
    path.write_text(",".join(labels) + "\n" + body)


def _write_trajectory(path: Path, times, spectra, errors):
    labels = [f"lambda_{i+1}" for i in range(spectra.shape[1])]
    _write_table(path, ["time", *labels, "delta_F"], [times, spectra, errors])


def _write_slices(path: Path, problem: optim.TransferProblem, seq: optim.ControlSequence):
    labels = [f"u_{c}" for c in problem.system.control_labels()]
    labels += [f"gamma_{nz}" for nz in problem.system.noise_labels()]
    k = np.arange(seq.slice_count)
    _write_table(path, ["slice", "t_start", *labels], [k, k * problem.dt, seq.u, seq.gamma])


def _write_segments(path: Path, schedule: Schedule):
    """One row per segment; the line after the index is formatted once per distinct
    segment object."""
    lines = {}
    for seg in schedule.segments:
        if id(seg) in lines:
            continue
        if isinstance(seg, HoldSegment):
            lines[id(seg)] = (f"hold,{seg.label},{_fmt(seg.duration)},"
                              f"{_fmt(float(seg.gamma.max()) if seg.gamma.size else 0.0)}\n")
        else:
            lines[id(seg)] = f"unitary,{seg.label},{_fmt(seg.charged_duration)},0\n"
    path.write_text("segment,kind,label,duration,gamma_max\n" + "".join(
        f"{i},{lines[id(seg)]}" for i, seg in enumerate(schedule.segments)))


def _write_result(path: Path, payload: dict):
    with path.open("w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# mode runners: each takes what load() built, never the raw config, writes
# its CSV artifacts and returns the payload of result.json

def _run_transfer(built, out):
    """simulate and optimize: propagate the given sequence or take the optimized
    one with its trajectory."""
    problem = built["problem"]
    result = {"duration": problem.total_time}
    if "optimizer" in built:
        best, finals = optim.optimize_restarts(problem, **built["optimizer"])
        seq, traj = best.sequence, best.trajectory
        result.update({
            "final_error": best.final_error,
            "converged": bool(best.converged),
            "iterations": int(best.iterations),
            "error_history": [float(e) for e in best.error_history],
            "restart_finals": [float(e) for e in finals],
        })
    else:
        seq = built["sequence"]
        traj = optim.propagate(problem, seq)
    tvec = vec(as_matrix(problem.target))
    errors = [frobenius_error(state, tvec) for state in traj.states]
    _write_trajectory(out / "trajectory.csv", traj.times, traj.sorted_eigenvalues, errors)
    _write_slices(out / "sequence.csv", problem, seq)
    if "optimizer" not in built:
        result.update({"final_error": errors[-1], "slices": problem.slices})
    return result


def _run_schedule(out, system, schedule, rho0, target_spectrum):
    """Propagate a schedule, write its segments and trajectory; return the final state.

    A trajectory row holds the descending spectrum at a segment boundary and
    its Euclidean distance to the descending ``target_spectrum``."""
    rho_f, times, spectra = propagate_schedule(system, schedule, rho0, record=True)
    _write_segments(out / "sequence.csv", schedule)
    _write_trajectory(out / "trajectory.csv", times, spectra,
                      np.linalg.norm(spectra - target_spectrum, axis=1))
    return rho_f


def _run_hlp(built, out):
    system, rho0, target, hl = built["system"], built["initial"], built["target"], built["hlp"]
    plan = reach.plan_state_transfer(rho0, target,
                                     gamma_star=system.gamma_bounds.max(),
                                     residual_target=hl["residual_target"])
    payload = {
        "total_dissipative_time": plan.total_dissipative_time,
        "predicted_residual": plan.predicted_residual,
        "steps": [{"pair": list(s.pair), "lambda": s.lam, "tau": s.tau, "eps": s.eps,
                   "pre_permutation": list(s.pre_permutation)} for s in plan.steps],
        "initial_spectrum": [float(v) for v in plan.initial_spectrum],
        "target_spectrum": [float(v) for v in plan.target_spectrum],
    }
    if hl["execute"]:
        trotter = hl["trotter_steps"]
        schedule = reach.hlp_execute(plan, system, trotter_steps=trotter)
        rho_f = _run_schedule(out, system, schedule, rho0, plan.target_spectrum)
        payload.update({
            "trotter_steps": trotter,
            "executed_residual": frobenius_error(vec(rho_f), vec(as_matrix(target))),
            "executed_spectrum": [float(v) for v in sorted_spectrum(rho_f)],
            "predicted_executed_spectrum": [
                float(v) for v in reach.predict_executed_spectrum(plan, system, trotter)],
        })
    return payload


def _run_protocol(built, out):
    system, pr = built["system"], built["protocol"]
    kind, n, gamma_star = pr["kind"], system.n, system.gamma_bounds.max()
    coupling, charge = pr["coupling"], pr["charge_swap_time"]
    rho0, target = models.zero_state(n), models.thermal_state(n)
    if kind == "init":
        report = protocols.init_protocol(n, gamma_star, coupling, pr["noise_time"], charge)
        rho0, target = target, rho0
    elif kind == "erase_amp":
        report = protocols.erase_protocol_amp(n, gamma_star, coupling, charge)
    else:
        report = protocols.erase_protocol_bitflip(n, gamma_star, coupling,
                                                  pr["noise_time"], charge)
    rho_f = _run_schedule(out, system, report.schedule, rho0, sorted_spectrum(target))
    return {
        "kind": kind,
        "formula_id": report.formula_id,
        "predicted_error": report.predicted_error,
        "simulated_error": frobenius_error(vec(rho_f), vec(as_matrix(target))),
        "predicted_duration": report.predicted_duration,
        "swap_count": math.comb(n, 2),
    }


def _run_controllability(built, out):
    system = built["system"]
    dim = reach.lie_closure_dimension([system.h0] + [c.operator for c in system.controls])
    required = system.dim ** 2 - 1
    return {
        "lie_closure_dimension": int(dim),
        "required_for_full_control": int(required),
        "fully_controllable": bool(dim == required),
    }


def _run_majorize(built, out):
    y, x = sorted_spectrum(built["initial"]), sorted_spectrum(built["target"])
    return {
        "target_majorised_by_initial": bool(reach.majorises(x, y)),
        "initial_spectrum": [float(v) for v in y],
        "target_spectrum": [float(v) for v in x],
        "partial_sum_slack": [float(v) for v in np.cumsum(y) - np.cumsum(x)],
    }


_RUNNERS = {
    "simulate": _run_transfer,
    "optimize": _run_transfer,
    "hlp": _run_hlp,
    "protocol": _run_protocol,
    "controllability": _run_controllability,
    "majorize": _run_majorize,
}


@functools.cache
def _keep_freed_memory() -> None:
    """Have glibc keep freed heap memory, once per process; a no-op where the C
    library has no ``mallopt``.  By default glibc returns each freed
    multi-megabyte temporary (a GRAPE evaluation's slice stacks) to the system,
    and the next evaluation faults its pages in again."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 1 << 30)     # M_TRIM_THRESHOLD: keep up to 1 GiB free at the heap top
    mallopt(-3, 32 << 20)    # M_MMAP_THRESHOLD: heap blocks below 32 MiB; stops glibc sliding it


def main(argv=None) -> int:
    """Run one subcommand; returns its exit code.  Sets glibc's allocator
    thresholds first (:func:`_keep_freed_memory`).  Only ``optimize`` loads
    scipy, when :func:`noisectrl.optim.optimize` runs."""
    _keep_freed_memory()
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
    try:
        # building a system can already fail numerically (a non-finite drift)
        built, diags = load(config, mode, args.seed)
        if args.command == "validate":
            for d in diags:
                print(d)
            return EXIT_OK if not diags else EXIT_CONFIG
        if diags:
            for d in diags:
                print(f"config error: {d}", file=sys.stderr)
            return EXIT_CONFIG

        out = args.out if args.out is not None else built["out"]
        out.mkdir(parents=True, exist_ok=True)
        payload = _RUNNERS[args.command](built, out)
        _write_result(out / "result.json",
                      {**payload, "mode": args.command, "seed": built["seed"]})
        return EXIT_OK
    except ConfigurationError as exc:
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
