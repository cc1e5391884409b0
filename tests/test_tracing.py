"""The benchmark's traced run (``perfbench/run.py --trace 1``) wraps library
entry points by attribute name, so renaming one of them breaks it."""

from pathlib import Path

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
