"""The benchmark's span tracer must find every function it wraps.

``bench/tracer.py`` raises ``TraceError`` when a target is renamed or
deleted; loading it here turns that into a tier-1 failure instead of a
failed traced benchmark run.
"""

import importlib.util
from pathlib import Path

import nilwitness.cli  # noqa: F401  (loads every module the tracer targets)
from nilwitness import magnus

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("nilwitness_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists():
    tracer = _load_tracer().Tracer()
    original = magnus.MagnusElement.__mul__
    tracer.install()
    try:
        assert magnus.MagnusElement.__mul__ is not original
    finally:
        tracer.uninstall()
    assert magnus.MagnusElement.__mul__ is original
