"""Workload definitions: job configs generated from a seed, and their checks.

A workload is a *round* of CLI jobs that the timed phase repeats until the
run's time is spent.  Every config is derived from the workload seed, so one
seed always yields the same jobs and byte-identical ``result.json`` files.
Each job is checked from its own artifacts; a failed check is never dropped.

Jobs of 0.1 s are a poor median on a machine whose speed changes by half
between seconds, so each round's median falls on its longest job kind:
``hlp-chain`` has eight 4-qubit transfers, whose propagation dominates,
against five shorter jobs (the 3-qubit cooling and four protocols), and
``closure`` times the two su(16) closures (ion trap and a 4-qubit chain)
while the 3- and 2-qubit closures run, and are checked, in set-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from noisectrl import models, qops

# 4-qubit HLP at 64 Trotter cycles: |executed - predicted| spectrum gap.
# Measured up to 3e-13 on 2 cores with OpenBLAS; the tolerance leaves more
# than two decades of room.  The gap falls roughly as k^-4 (3e-10 at k=4,
# 2e-11 to 5e-9 at k=8), so it is only checked at k=64.
HLP4_SPECTRUM_TOL = 1e-10
# 3-qubit 12/J cooling executed at 64 Trotter cycles (acceptance criterion 2)
HLP3_RESIDUAL_TOL = 2e-4
# closed-form protocol residuals against the simulator (acceptance criterion 4)
PROTOCOL_TOL = 1e-10
TROTTER = 64


@dataclass
class Job:
    kind: str          # job family, used for per-kind medians
    mode: str          # CLI subcommand
    config: dict
    path: Path | None = None
    expect: dict = field(default_factory=dict)


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _sub_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 1 << 30))


# ---------------------------------------------------------------------------
# job builders

def pair2_job(rng) -> Job:
    """Two-qubit chain, amplitude damping on qubit 2, random state pair.

    A fixed L-BFGS budget (30 iterations) toward tol 9e-4: time-to-tol on
    random pairs needs 42 to 393 evaluations, which spreads a 10-job median
    by 30% between seeds; a fixed budget keeps the evaluation count within
    a few percent while every expm, gradient and L-BFGS path still runs.
    """
    cfg = {
        "mode": "optimize", "seed": _sub_seed(rng),
        "system": {"model": "ising_chain", "n": 2, "coupling": 1.0,
                   "noise": "amp", "gamma_star": 5.0},
        "initial": {"state": "random", "seed": _sub_seed(rng)},
        "target": {"state": "random", "seed": _sub_seed(rng)},
        "horizon": {"T": 8.0, "slices": 40},
        "optimizer": {"restarts": 1, "noise_blocks": 3, "max_iters": 30,
                      "tol": 9e-4},
    }
    return Job("pair2", "optimize", cfg)


def trap_job(rng, slices: int = 8) -> Job:
    """Ion trap, thermal to GHZ_4, one restart and one L-BFGS iteration.

    One iteration is always two objective-plus-gradient evaluations; three
    iterations gave four or five evaluations depending on the start, which
    made the job median jump by a quarter between seeds.
    """
    cfg = {
        "mode": "optimize", "seed": _sub_seed(rng),
        "system": {"model": "ion_trap", "gamma_star": 5.0},
        "initial": {"state": "thermal"},
        "target": {"state": "ghz"},
        "horizon": {"T": 10.0, "slices": slices},
        "optimizer": {"restarts": 1, "max_iters": 1, "tol": 1e-6},
    }
    return Job("trap", "optimize", cfg)


def hlp3_job(trotter: int = TROTTER) -> Job:
    """The paper's 12/J pairwise cooling on the 3-qubit chain."""
    cfg = {
        "mode": "hlp", "seed": 0,
        "system": {"model": "ising_chain", "n": 3, "coupling": 1.0,
                   "noise": "bitflip", "gamma_star": 5.0},
        "initial": {"state": "spectrum",
                    "values": [float(v) for v in np.arange(8, 0, -1) / 36.0]},
        "target": {"state": "thermal"},
        "hlp": {"residual_target": 9.95e-5, "trotter_steps": trotter,
                "execute": True},
    }
    return Job("hlp3", "hlp", cfg, expect={"trotter": trotter})


def hlp4_job(rng, trotter: int = TROTTER) -> Job:
    """Random 4-qubit spectrum to a target majorised by it.

    The target is the initial spectrum after eight pairwise T-transforms of
    mirrored values, so it is majorised by construction.
    """
    y = np.sort(rng.dirichlet(np.ones(16)))[::-1]
    x = y.copy()
    for i in range(8):
        lam = rng.uniform(0.6, 0.95)
        a, b = x[i], x[15 - i]
        x[i], x[15 - i] = lam * a + (1 - lam) * b, (1 - lam) * a + lam * b
    cfg = {
        "mode": "hlp", "seed": _sub_seed(rng),
        "system": {"model": "ising_chain", "n": 4, "coupling": 1.0,
                   "noise": "bitflip", "gamma_star": 5.0},
        "initial": {"state": "spectrum", "values": [float(v) for v in y]},
        "target": {"state": "spectrum", "values": [float(v) for v in x]},
        "hlp": {"residual_target": 1e-4, "trotter_steps": trotter,
                "execute": True},
    }
    return Job("hlp4", "hlp", cfg, expect={"trotter": trotter})


def protocol_job(rng, kind: str, n: int) -> Job:
    noise = "bitflip" if kind == "erase_bitflip" else "amp"
    cfg = {
        "mode": "protocol", "seed": 0,
        "system": {"model": "ising_chain", "n": n, "coupling": 1.0,
                   "noise": noise, "gamma_star": 5.0},
        "protocol": {"kind": kind,
                     "noise_time": float(rng.uniform(0.5, 2.5))},
    }
    return Job(f"protocol-{kind}-{n}", "protocol", cfg)


def closure_job(system: dict, dim: int) -> Job:
    cfg = {"mode": "controllability", "seed": 0, "system": system}
    return Job(f"closure{dim}-{system['model']}", "controllability", cfg,
               expect={"dimension": dim})


def _chain_system(rng, n: int) -> dict:
    return {"model": "ising_chain", "n": n,
            "coupling": float(rng.uniform(0.5, 2.0)),
            "noise": "amp", "noisy_site": int(rng.integers(1, n + 1)),
            "gamma_star": 5.0}


# ---------------------------------------------------------------------------
# workloads

def rounds(workload: str, seed: int) -> tuple[list[Job], list[Job]]:
    """(jobs of one round, warm-up jobs) for a workload and seed.

    Warm-up jobs are small instances of the round's job kinds, so that the
    first timed round pays no first-call costs.  Jobs of the median kind
    are spread through the round, so that they sample the whole run.
    """
    rng, warm_rng = _rng(seed, 1), _rng(seed, 2)
    if workload == "grape-pair2":
        return [pair2_job(rng) for _ in range(8)], [pair2_job(warm_rng)]
    if workload == "grape-trap":
        return [trap_job(rng) for _ in range(2)], [trap_job(warm_rng, slices=1)]
    if workload == "hlp-chain":
        small = [hlp3_job(), protocol_job(rng, "init", 3),
                 protocol_job(rng, "init", 4), protocol_job(rng, "erase_amp", 3),
                 protocol_job(rng, "erase_bitflip", 4)]
        jobs = []
        for job in small[:4]:
            jobs += [hlp4_job(rng), hlp4_job(rng), job]
        jobs.append(small[4])
        warm = [hlp3_job(), protocol_job(warm_rng, "init", 4),
                hlp4_job(warm_rng, trotter=8)]
        return jobs, warm
    if workload == "closure":
        jobs = [closure_job({"model": "ion_trap", "gamma_star": 5.0}, 255),
                closure_job(_chain_system(rng, 4), 255)]
        warm = [closure_job(_chain_system(warm_rng, 3), 63),
                closure_job(_chain_system(warm_rng, 2), 15)]
        return jobs, warm
    raise KeyError(workload)


WORKLOADS = ("grape-pair2", "grape-trap", "hlp-chain", "closure")


def probe_jobs(seed: int) -> list[Job]:
    """Small jobs that reach every layer, for layers a workload never calls.

    Together they run expm at dimension 16 (optimize), 64 (hlp holds) and
    256 (4-qubit protocol holds), the schedule, HLP, protocol and closure
    layers.
    """
    rng = _rng(seed, 3)
    opt = pair2_job(rng)
    opt.config["horizon"] = {"T": 2.0, "slices": 4}
    opt.config["optimizer"].update(max_iters=1)
    opt.kind = "probe-optimize"
    hlp = hlp3_job(trotter=8)
    hlp.kind = "probe-hlp3"
    proto = protocol_job(rng, "init", 4)
    proto.kind = "probe-protocol"
    clo = closure_job(_chain_system(rng, 2), 15)
    clo.kind = "probe-closure"
    return [opt, hlp, proto, clo]


# ---------------------------------------------------------------------------
# building the library's objects from a generated config (probes, predictions)

def build_system(cfg: dict):
    if cfg["model"] == "ion_trap":
        return models.ion_trap_model(gamma_star=cfg["gamma_star"])
    return models.ising_chain(n=cfg["n"], coupling=cfg["coupling"],
                              noise_kind=cfg["noise"],
                              noisy_site=cfg.get("noisy_site"),
                              gamma_star=cfg["gamma_star"])


def build_state(cfg: dict, n: int):
    name = cfg["state"]
    if name == "thermal":
        return models.thermal_state(n)
    if name == "ghz":
        return models.ghz_state(n)
    if name == "random":
        return qops.random_density(n, cfg["seed"])
    values = np.sort(np.asarray(cfg["values"]))[::-1]
    return qops.DensityOperator(np.diag(values).astype(complex))


# ---------------------------------------------------------------------------
# checks

def _finite_descent(result: dict) -> str | None:
    hist = result.get("error_history") or []
    if not hist or not all(math.isfinite(e) for e in hist):
        return "error_history empty or non-finite"
    if not min(hist) < hist[0]:
        return "best error not below the first"
    if result["final_error"] != min(hist):
        return "final_error is not the best of error_history"
    return None


def check(job: Job, rc: int, result: dict | None) -> str | None:
    """None when the job's artifacts pass its check, else the reason."""
    if rc != 0 or result is None:
        return f"exit code {rc}"
    if job.mode == "optimize":
        return _finite_descent(result)
    if job.mode == "hlp":
        # the tolerances hold at 64 Trotter cycles; the smaller warm-up and
        # probe instances only have to exit cleanly
        if job.expect["trotter"] != TROTTER:
            return None
        if job.config["system"]["n"] == 3:
            res = result["executed_residual"]
            return None if res <= HLP3_RESIDUAL_TOL else f"executed_residual {res:.3e}"
        gap = float(np.max(np.abs(np.subtract(
            result["executed_spectrum"], result["predicted_executed_spectrum"]))))
        if not gap <= HLP4_SPECTRUM_TOL:
            return f"executed spectrum off prediction by {gap:.3e}"
        return None
    if job.mode == "protocol":
        gap = abs(result["simulated_error"] - result["predicted_error"])
        return None if gap <= PROTOCOL_TOL else f"protocol residual gap {gap:.3e}"
    if job.mode == "controllability":
        dim = result["lie_closure_dimension"]
        return None if dim == job.expect["dimension"] else f"closure dimension {dim}"
    return f"no check for mode {job.mode}"


def work_units(job: Job, result: dict, out: Path) -> int:
    """Evaluations a job performed, in the workload's unit of work.

    optimize: objective-plus-gradient evaluations (len(error_history));
    hlp/protocol: schedule segments applied (rows of sequence.csv);
    controllability: basis elements of the closure found.
    """
    if job.mode == "optimize":
        return len(result["error_history"])
    if job.mode in ("hlp", "protocol"):
        with (out / "sequence.csv").open() as fh:
            return sum(1 for _ in fh) - 1
    return int(result["lie_closure_dimension"])


def predicted_segments(job: Job, result: dict) -> int:
    """Segments the current design emits for a schedule job.

    hlp: per step a placement, the kicked train of 2k holds and 2k - 1 echo
    kicks between two half kicks, the phase correction and the unplacement (4k + 4);
    plus the two basis changes of a state transfer.  protocol: one hold per
    qubit (and a flip before it for erase_amp) plus binom(n, 2) swaps.
    """
    if job.mode == "hlp":
        k = job.expect["trotter"]
        return len(result["steps"]) * (4 * k + 4) + 2
    n = job.config["system"]["n"]
    per_qubit = 2 if job.config["protocol"]["kind"] == "erase_amp" else 1
    return n * per_qubit + math.comb(n, 2)
