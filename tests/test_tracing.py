"""The benchmark's traced run (``perfbench/run.py --trace 1``) wraps library
entry points by attribute name, so renaming one of them breaks it."""

import json
from pathlib import Path

import numpy as np

from noisectrl import cli, lindblad

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_wraps_every_entry_point(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        saved = list(tracer._saved)
        assert saved
        for module, attr, original in saved:
            assert getattr(module, attr).__wrapped__ is original, attr
    finally:
        tracer.uninstall()
    for module, attr, original in saved:
        assert getattr(module, attr) is original, attr


TINY_JOBS = {
    "optimize": {
        "system": {"model": "ising_chain", "n": 1, "noise": "bitflip", "gamma_star": 5.0},
        "initial": {"state": "zero"}, "target": {"state": "thermal"},
        "horizon": {"T": 2.0, "slices": 4}, "optimizer": {"restarts": 1, "max_iters": 2}},
    "hlp": {
        "system": {"model": "ising_chain", "n": 2, "noise": "bitflip", "gamma_star": 5.0},
        "initial": {"state": "spectrum", "values": [0.4, 0.3, 0.2, 0.1]},
        "target": {"state": "thermal"}, "hlp": {"residual_target": 1e-3, "trotter_steps": 2}},
}


def test_every_expm_call_reaches_the_traced_attribute(tmp_path, monkeypatch):
    # a caller that binds expm at import time would bypass the tracer's
    # wrapper, and its layer would report no expm work
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    tracer = tracing.Tracer()
    tracer.bucket = "test"
    tracing.install(tracer)
    try:
        for mode, cfg in TINY_JOBS.items():
            path = tmp_path / f"{mode}.json"
            path.write_text(json.dumps(cfg | {"mode": mode}))
            assert cli.main([mode, "--config", str(path), "--out", str(tmp_path / mode)]) == 0
        lindblad.trotter_decoupled_propagator(np.diag([1.0, -1.0]), 1.0, 1.0, 2)
    finally:
        tracer.uninstall()
    spans = tracer.select("test", "expm")
    for caller in ("optim.eval", "optim.propagate", "schedule.propagate",
                   "hlp.compile", "hlp.predict"):
        assert any(tracing._inside(s, caller) for s in spans), caller
    assert spans[-1].parent is None     # the direct Trotter call
