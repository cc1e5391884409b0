"""noisectrl benchmark: time to a verified result through the real CLI.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grape-pair2 --seed 1 --seconds 20 --trace 0

One process is one closed-loop client: it calls ``noisectrl.cli.main`` once
per job, in process, and sends the next job only after the previous job's
``result.json`` has been checked.  The timed phase repeats the workload's
round of jobs (see ``workloads.py``) in whole rounds, for ``--seconds`` on
average: it stops when another round would end more than half a round late.

``--trace 0`` reports the end-to-end metrics with no instrumentation
installed.  ``--trace 1`` wraps the library's layer entry points from this
directory (``tracing.py``) and reports the per-layer metrics instead.  A line
of details (environment, per-kind medians, result hashes, predicted counts)
precedes the result, which is always the last line of standard output.
BLAS threads are left at the machine default.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPS = 3

# metric names and units, as the benchmark's specification lists them
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _environment(np, scipy) -> dict:
    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
    except TypeError:      # numpy < 1.26 has no dict mode
        pass
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


def _src_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "noisectrl").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Runner:
    """Runs jobs through the CLI and keeps one record per job."""

    def __init__(self, cli, wl, workdir: Path, tracer=None):
        self.cli = cli
        self.wl = wl
        self.workdir = workdir
        self.tracer = tracer
        self.count = 0

    def write_configs(self, jobs):
        for job in jobs:
            self.count += 1
            job.path = self.workdir / f"config{self.count}.json"
            job.path.write_text(json.dumps(job.config))

    def run(self, job) -> dict:
        self.count += 1
        out = self.workdir / f"job{self.count}"
        span = self.tracer.open("job", job=self.count) if self.tracer else None
        t0 = time.perf_counter()
        rc, result, digest = -1, None, None
        try:
            rc = self.cli.main([job.mode, "--config", str(job.path),
                                "--out", str(out)])
            if rc == 0:
                raw = (out / "result.json").read_bytes()
                digest = hashlib.sha256(raw).hexdigest()
                result = json.loads(raw)
            why = self.wl.check(job, rc, result)
        except Exception as exc:   # a crashed job is a failed job, never a lost one
            why = f"{type(exc).__name__}: {exc}"
        dur = time.perf_counter() - t0
        if span is not None:
            self.tracer.close(span, dur)
        rec = {"job": job, "dur": dur, "rc": rc, "result": result,
               "sha256": digest, "why": why, "span": span,
               "units": 0, "bytes": 0}
        if why is None:
            rec["units"] = self.wl.work_units(job, result, out)
        if out.exists():
            rec["bytes"] = sum(f.stat().st_size for f in out.iterdir())
            shutil.rmtree(out)
        return rec


def _median(xs):
    return statistics.median(xs) if xs else math.nan


def _tail(durs):
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(durs)
    if n < 20:
        return {"n": n, "percentile": None, "value": None}
    p = math.floor(100 * (1 - 10 / n))
    return {"n": n, "percentile": p,
            "value": statistics.quantiles(durs, n=100, method="inclusive")[p - 1]}


def _check_hashes(records, store: Path) -> list[str]:
    """Same job, same bytes: within this run and against every earlier run
    on the same source tree (traced or not), keyed by the job's config."""
    problems = []
    stored = json.loads(store.read_text()) if store.exists() else {}
    seen = dict(stored)
    for rec in records:
        if rec["sha256"] is None:
            continue
        job = rec["job"]
        key = hashlib.sha256(
            (job.mode + json.dumps(job.config, sort_keys=True)).encode()).hexdigest()
        if seen.setdefault(key, rec["sha256"]) != rec["sha256"]:
            rec["why"] = rec["why"] or "result.json differs from an earlier one"
            problems.append(f"{job.kind}: result.json differs from an earlier one")
    if not problems and seen != stored:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(seen, sort_keys=True))
    return sorted(set(problems))


def _probe(fn, *args, reps=3, budget=1.0, **kwargs):
    """Median seconds of a few calls; fewer when one call is slow."""
    times = []
    while len(times) < reps and (not times or sum(times) < budget):
        t0 = time.perf_counter()
        fn(*args, **kwargs)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _direct_probes(wl, round_jobs, probe_jobs) -> dict:
    """optim and schedule entry points on the workload's own first input
    (or the probe jobs' input when the workload has none of that kind)."""
    from noisectrl import optim, reach, schedule

    def first(mode):
        for job in list(round_jobs) + list(probe_jobs):
            if job.mode == mode:
                return job.config
    m = {}
    cfg = first("optimize")
    system = wl.build_system(cfg["system"])
    problem = optim.TransferProblem(
        system, wl.build_state(cfg["initial"], system.n),
        wl.build_state(cfg["target"], system.n),
        cfg["horizon"]["T"], cfg["horizon"]["slices"])
    opts = cfg["optimizer"]
    start = optim.random_sequence(problem, cfg["seed"],
                                  noise_blocks=opts.get("noise_blocks"))
    m["optim.eval_ms"] = 1e3 * _probe(optim.gradient, problem, start)
    m["optim.forward_ms"] = 1e3 * _probe(optim.error, problem, start)
    m["optim.propagate_ms"] = 1e3 * _probe(optim.propagate, problem, start)

    cfg = first("hlp")
    system = wl.build_system(cfg["system"])
    rho0 = wl.build_state(cfg["initial"], system.n)
    plan = reach.plan_state_transfer(rho0, wl.build_state(cfg["target"], system.n),
                                     gamma_star=system.gamma_bounds.max(),
                                     residual_target=cfg["hlp"]["residual_target"])
    sched = reach.hlp_execute(plan, system, cfg["hlp"]["trotter_steps"])
    plain = _probe(schedule.propagate_schedule, system, sched, rho0)
    recorded = _probe(schedule.propagate_schedule, system, sched, rho0, record=True)
    m["schedule.propagate_s"] = plain
    m["schedule.record_s"] = recorded - plain
    m["schedule.us_per_segment"] = 1e6 * plain / len(sched.segments)
    return m


def _predictions(wl, records, systems) -> dict:
    """Counts the current design predicts for the jobs of one bucket."""
    n_jobs = max(len(records), 1)
    opt = [r["job"] for r in records if r["job"].mode == "optimize"]
    pred = {"models.builds_per_job_predicted": 2.0}   # validate + runner
    if opt:
        cfg = opt[0].config
        system = systems[json.dumps(cfg["system"], sort_keys=True)]
        directions = len(system.controls) + len(system.noises)
        pred["expm.matrices_per_eval_predicted"] = float(
            (1 + directions) * cfg["horizon"]["slices"])
    else:
        pred["expm.matrices_per_eval_predicted"] = math.nan
    segs = dims = 0
    for r in records:
        job = r["job"]
        if r["result"] is None:
            continue
        if job.mode in ("hlp", "protocol"):
            segs += wl.predicted_segments(job, r["result"])
        if job.mode == "controllability":
            dims += systems[json.dumps(job.config["system"], sort_keys=True)].dim ** 2 - 1
    pred["schedule.segments_predicted"] = segs / n_jobs
    pred["closure.dim_predicted"] = dims / n_jobs
    return pred


PREDICTED_LAYER = {"expm.matrices_per_eval_predicted": "optim",
                   "schedule.segments_predicted": "schedule",
                   "closure.dim_predicted": "reach.closure",
                   "models.builds_per_job_predicted": "models"}
METRIC_LAYER = {"expm": "expm", "liouvillian": "lindblad", "optim": "optim",
                "schedule": "schedule", "hlp": "reach", "closure": "reach.closure",
                "protocol": "protocols", "models": "models", "cli": "cli"}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "noisectrl" / "cli.py").is_file():
        print(f"benchmark: no noisectrl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import numpy as np
    import scipy
    from noisectrl import cli
    import workloads as wl
    import tracing
    import_s = time.perf_counter() - T_START

    if args.workload not in wl.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = WORK / f"run{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, np, scipy, cli, wl, tracing, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, np, scipy, cli, wl, tracing, import_s, workdir) -> int:
    runner = Runner(cli, wl, workdir)
    failures = []

    # set-up: model construction, config generation and one warm-up job,
    # repeated; the median repetition plus the one-off import time
    rep_s = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        round_jobs, warm = wl.rounds(args.workload, args.seed)
        probe_jobs = wl.probe_jobs(args.seed) if args.trace else []
        systems = {}
        for job in round_jobs + warm + probe_jobs:
            key = json.dumps(job.config["system"], sort_keys=True)
            if key not in systems:
                systems[key] = wl.build_system(job.config["system"])
        runner.write_configs(round_jobs + warm + probe_jobs)
        for job in warm:
            rec = runner.run(job)
            if rec["why"] is not None:
                failures.append(f"warm-up {job.kind}: {rec['why']}")
        rep_s.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(rep_s)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        runner.tracer = tracer
        tracer.bucket = "timed"

    # whole rounds; stop when the next one would end more than half a round
    # past --seconds, so that a run measures --seconds on average
    records, rounds = [], 0
    t0 = time.perf_counter()
    while True:
        for job in round_jobs:
            records.append(runner.run(job))
        rounds += 1
        timed_wall = time.perf_counter() - t0
        if timed_wall * (1 + 0.5 / rounds) >= args.seconds:
            break

    failures += _check_hashes(records, WORK / "hashes" / f"{_src_fingerprint()}.json")
    failed = sum(r["why"] is not None for r in records)
    failures += sorted({f"{r['job'].kind}: {r['why']}" for r in records
                        if r["why"] is not None})
    durs = [r["dur"] for r in records]
    kinds = {}
    for r in records:
        kinds.setdefault(r["job"].kind, []).append(r["dur"])

    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": _environment(np, scipy),
        "rounds": rounds, "jobs": len(records),
        "timed_wall_s": timed_wall, "import_s": import_s, "setup_reps_s": rep_s,
        "job_s": durs,
        "solve_s_tail": _tail(durs),
        "solve_s_by_kind": {k: {"median": _median(v), "n": len(v)}
                            for k, v in sorted(kinds.items())},
        "evals_per_job": {k: sorted({r["units"] for r in records
                                     if r["job"].kind == k}) for k in kinds},
        "result_sha256": [r["sha256"] for r in records[:len(round_jobs)]],
        "failures": failures,
    }

    if args.trace:
        metrics = _traced_metrics(args, wl, tracing, tracer, runner, records,
                                  round_jobs, probe_jobs, systems, details)
        metrics["trace.solve_s"] = {"value": _median(durs), "unit": "s"}
    else:
        work = sum(r["units"] for r in records)
        values = {
            "solve_s": _median(durs),
            "evals_per_s": work / sum(durs),
            "solved_frac": (len(records) - failed) / len(records),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    print(json.dumps(details, default=str))
    print(json.dumps({"correct": not failures, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


def _traced_metrics(args, wl, tracing, tracer, runner, records, round_jobs,
                    probe_jobs, systems, details) -> dict:
    timed = tracing.layer_metrics(tracer, "timed", records)
    timed |= _predictions(wl, records, systems)
    used = tracing.layers_used(tracer, "timed") | {"cli"}

    tracer.bucket = None
    for job in probe_jobs:      # unrecorded first pass: first-call costs
        runner.run(job)
    tracer.bucket = "probe"
    probe_records = [runner.run(job) for job in probe_jobs]
    tracer.bucket = None
    for r in probe_records:
        if r["why"] is not None:
            details["failures"].append(f"{r['job'].kind}: {r['why']}")
    probe = tracing.layer_metrics(tracer, "probe", probe_records)
    probe |= _predictions(wl, probe_records, systems)
    tracer.uninstall()

    direct = _direct_probes(wl, round_jobs, probe_jobs)
    timed |= direct
    probe |= direct

    metrics, from_probe = {}, []
    for name, unit in PER_LAYER.items():
        if name == "trace.solve_s":
            continue
        layer = PREDICTED_LAYER.get(name, METRIC_LAYER[name.split(".")[0]])
        value = timed.get(name, math.nan)
        if layer not in used or not math.isfinite(value):
            value = probe.get(name, math.nan)
            from_probe.append(name)
        metrics[name] = {"value": value if math.isfinite(value) else 0.0,
                         "unit": unit}
    details["per_layer_from_probe"] = from_probe
    details["probe_sha256"] = [r["sha256"] for r in probe_records]
    return metrics


if __name__ == "__main__":
    sys.exit(main())
