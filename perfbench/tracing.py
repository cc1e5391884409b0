"""In-memory spans around the library's layer entry points.

The tracer wraps module attributes from outside the package: every call the
CLI or the library makes through a wrapped attribute records a span (name,
parent span, job, duration) plus the counts taken at that boundary.  Nothing
is written under ``src/``; ``uninstall`` restores the originals.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

# Pade-13 scaling threshold (Higham 2005, Table 10.2): the expm layer's rule
THETA13 = 5.371920351148152


class Span:
    __slots__ = ("name", "parent", "job", "dur", "info")

    def __init__(self, name, parent, job):
        self.name = name
        self.parent = parent
        self.job = job
        self.dur = 0.0
        self.info = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.bucket: str | None = None     # spans outside a bucket are dropped
        self._saved: list[tuple[object, str, object]] = []

    # -- span recording ---------------------------------------------------
    def open(self, name, job=None) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(name, parent, job if job is not None else
                    (parent.job if parent is not None else None))
        self.stack.append(span)
        return span

    def close(self, span: Span, dur: float) -> None:
        span.dur = dur
        self.stack.pop()
        if self.bucket is not None:
            span.info = (span.info or {}) | {"bucket": self.bucket}
            self.spans.append(span)

    def _wrap(self, name, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                tracer.close(span, dur)
            if hook is not None and tracer.bucket is not None:
                span.info = (span.info or {}) | hook(args, kwargs, out)
            return out
        return wrapper

    def patch(self, module, attr, name, hook=None):
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, self._wrap(name, original, hook))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def select(self, bucket, name=None):
        return [s for s in self.spans
                if s.info["bucket"] == bucket and (name is None or s.name == name)]


# ---------------------------------------------------------------------------
# hooks: counts taken at the boundary, outside the span's own time

def _expm_hook(args, kwargs, out):
    a = np.asarray(args[0])
    n = a.shape[-1]
    flat = a.reshape(-1, n, n)
    norms = np.abs(flat).sum(axis=-2).max(axis=-1)
    with np.errstate(divide="ignore"):
        scale = np.where(norms > THETA13,
                         np.ceil(np.log2(np.maximum(norms, THETA13) / THETA13)), 0)
    # computed, not measured: per matrix 6 products of the Pade-13 terms plus
    # one per squaring (8 n^3 real flops each for complex), and the LU solve
    # with n right-hand sides (8/3 n^3 + 8 n^3)
    n3 = float(n) ** 3
    flops = float(((6 + scale) * 8 * n3).sum() + len(flat) * (8 / 3 + 8) * n3)
    return {"dim": n, "matrices": len(flat), "scale_max": int(scale.max()),
            "flops": flops}


def _schedule_hook(args, kwargs, out):
    from noisectrl.schedule import HoldSegment
    schedule = args[1]
    holds = [s for s in schedule.segments if isinstance(s, HoldSegment)]
    keys = {(s.u.tobytes(), s.gamma.tobytes(), s.duration) for s in holds}
    record = kwargs.get("record", args[3] if len(args) > 3 else False)
    return {"segments": len(schedule.segments), "holds": len(holds),
            "distinct_holds": len(keys), "record": bool(record)}


def _optimize_hook(args, kwargs, out):
    return {"converged": bool(out.converged), "evals": len(out.error_history)}


def _closure_hook(args, kwargs, out):
    return {"dim": int(out)}


def _plan_hook(args, kwargs, out):
    return {"steps": len(out.steps)}


def install(tracer: Tracer):
    """Wrap every layer entry point at the attribute its caller looks up."""
    from noisectrl import _expm, cli, models, optim, protocols, reach, schedule
    tracer.patch(_expm, "expm", "expm", _expm_hook)
    tracer.patch(schedule, "assemble_liouvillian", "liouvillian")
    tracer.patch(optim, "optimize_restarts", "optim.restarts")
    tracer.patch(optim, "optimize", "optim.optimize", _optimize_hook)
    tracer.patch(optim, "_error_and_gradient", "optim.eval")
    tracer.patch(optim, "propagate", "optim.propagate")
    tracer.patch(cli, "propagate_schedule", "schedule.propagate", _schedule_hook)
    tracer.patch(reach, "plan_state_transfer", "hlp.plan", _plan_hook)
    tracer.patch(reach, "hlp_execute", "hlp.compile")
    tracer.patch(reach, "predict_executed_spectrum", "hlp.predict")
    tracer.patch(reach, "lie_closure_dimension", "closure", _closure_hook)
    for fn in ("init_protocol", "erase_protocol_amp", "erase_protocol_bitflip"):
        tracer.patch(protocols, fn, "protocol.build")
    for fn in ("ising_chain", "ion_trap_model"):
        tracer.patch(models, fn, "models.build")
    tracer.patch(cli, "validate", "cli.validate")


# ---------------------------------------------------------------------------
# per-layer metrics

LAYER_OF = {
    "expm": "expm", "liouvillian": "lindblad",
    "optim.restarts": "optim", "optim.optimize": "optim", "optim.eval": "optim",
    "optim.propagate": "optim", "schedule.propagate": "schedule",
    "hlp.plan": "reach", "hlp.compile": "reach", "hlp.predict": "reach",
    "closure": "reach.closure", "protocol.build": "protocols",
    "models.build": "models", "cli.validate": "cli",
}
EXPM_DIMS = (16, 64, 256)


def _sum(spans, key=None):
    if key is None:
        return float(sum(s.dur for s in spans))
    return float(sum(s.info[key] for s in spans))


def _inside(span: Span, name: str) -> bool:
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


def layer_metrics(tracer: Tracer, bucket: str, jobs: list[dict]) -> dict:
    """Per-layer figures of one bucket of spans.

    ``jobs`` holds one record per job of the bucket (its span, result and
    per-job bookkeeping).  Counts and busy times are per job; ratios are
    taken where the work happens.
    """
    n_jobs = max(len(jobs), 1)
    sel = functools.partial(tracer.select, bucket)
    m: dict[str, float] = {}

    ex = sel("expm")
    m["expm.calls"] = len(ex) / n_jobs
    m["expm.matrices"] = _sum(ex, "matrices") / n_jobs
    m["expm.busy_s"] = _sum(ex) / n_jobs
    for d in EXPM_DIMS:
        at = [s for s in ex if s.info["dim"] == d]
        mats = _sum(at, "matrices")
        m[f"expm.ms_per_matrix.{d}"] = 1e3 * _sum(at) / mats if mats else math.nan
    m["expm.scale_max"] = max((s.info["scale_max"] for s in ex), default=0)
    m["expm.gflop_computed"] = _sum(ex, "flops") / 1e9 / n_jobs
    busy = _sum(ex)
    m["expm.gflops"] = _sum(ex, "flops") / 1e9 / busy if busy else math.nan
    in_eval = [s for s in ex if _inside(s, "optim.eval")]
    evals = sel("optim.eval")
    m["expm.matrices_per_eval"] = (_sum(in_eval, "matrices") / len(evals)
                                   if evals else math.nan)

    liou = sel("liouvillian")
    m["liouvillian.calls"] = len(liou) / n_jobs
    m["liouvillian.busy_s"] = _sum(liou) / n_jobs

    opt = sel("optim.optimize")
    restarts_span = sel("optim.restarts")
    m["optim.evals"] = len(evals) / n_jobs
    m["optim.restarts"] = len(opt) / n_jobs
    iters = [j["result"]["iterations"] for j in jobs
             if j["result"] and "iterations" in j["result"]]
    m["optim.lbfgs_iters"] = sum(iters) / n_jobs
    m["optim.evals_per_iter"] = (len(evals) / sum(iters)) if sum(iters) else math.nan
    m["optim.restart_hit_ratio"] = (sum(s.info["converged"] for s in opt) / len(opt)
                                    if opt else math.nan)
    span_s = _sum(restarts_span)
    ex_in_opt = _sum([s for s in ex if _inside(s, "optim.restarts")])
    m["optim.expm_share"] = ex_in_opt / span_s if span_s else math.nan
    m["optim.overhead_s"] = (span_s - ex_in_opt) / n_jobs

    sch = sel("schedule.propagate")
    segs = _sum(sch, "segments")
    holds = _sum(sch, "holds")
    m["schedule.segments"] = segs / n_jobs
    m["schedule.holds"] = holds / n_jobs
    m["schedule.unitaries"] = (segs - holds) / n_jobs
    misses = _sum(sch, "distinct_holds")
    m["schedule.hold_hit_ratio"] = (holds - misses) / holds if holds else math.nan
    m["liouvillian.calls_predicted"] = misses / n_jobs

    plans = sel("hlp.plan")
    m["hlp.plan_s"] = _sum(plans) / n_jobs
    m["hlp.steps"] = _sum(plans, "steps") / n_jobs
    m["hlp.compile_s"] = _sum(sel("hlp.compile")) / n_jobs
    m["hlp.predict_s"] = _sum(sel("hlp.predict")) / n_jobs
    clo = sel("closure")
    m["closure.s"] = _sum(clo) / n_jobs
    m["closure.dim"] = _sum(clo, "dim") / n_jobs
    m["protocol.build_s"] = _sum(sel("protocol.build")) / n_jobs
    builds = sel("models.build")
    m["models.build_s"] = _sum(builds) / n_jobs
    m["models.builds_per_job"] = len(builds) / n_jobs
    m["cli.validate_s"] = _sum(sel("cli.validate")) / n_jobs
    m["cli.artifact_bytes"] = sum(j["bytes"] for j in jobs) / n_jobs

    # job self time: the job span minus its direct library children
    other = 0.0
    for j in jobs:
        kids = [s for s in tracer.spans
                if s.parent is j["span"] and s.info["bucket"] == bucket]
        other += j["span"].dur - _sum(kids)
    m["cli.other_s"] = other / n_jobs
    return m


def layers_used(tracer: Tracer, bucket: str) -> set[str]:
    return {LAYER_OF[s.name] for s in tracer.select(bucket) if s.name in LAYER_OF}
