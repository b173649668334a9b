"""Tests of the benchmark itself: self-time arithmetic, tracer installation,
reference checks, and a small-K run of every workload.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracer import LAYERS, TraceError, Tracer, self_times

sys.path.insert(0, str(run.SRC))

from nilwitness import magnus, witness  # noqa: E402


def _fake_clock():
    now = [0.0]
    return now, lambda: now[0]


def test_self_time_is_duration_minus_children():
    now, clock = _fake_clock()
    tracer = Tracer(layers={}, clock=clock)

    def leaf():
        now[0] += 2.0

    inner = tracer.wrap("inner", leaf)

    def body():
        now[0] += 1.0
        inner()
        inner()
        now[0] += 0.5

    outer = tracer.wrap("outer", body)
    outer()
    assert self_times(tracer.spans) == {"outer": (1.5, 1), "inner": (4.0, 2)}
    assert tracer.covered_s() == 5.5
    assert [span[1] for span in tracer.spans] == [None, 0, 0]


def test_call_from_inside_the_same_layer_stays_in_its_span():
    now, clock = _fake_clock()
    tracer = Tracer(layers={}, clock=clock)

    def countdown(n):
        now[0] += 1.0
        if n:
            traced(n - 1)

    traced = tracer.wrap("layer", countdown)
    traced(3)
    assert self_times(tracer.spans) == {"layer": (4.0, 1)}


def test_missing_target_fails_loudly_and_patches_nothing():
    original = magnus.MagnusElement.__mul__
    layers = {"magnus.mul": LAYERS["magnus.mul"], "magnus.gone": ("magnus:no_such_function",)}
    with pytest.raises(TraceError, match="no_such_function"):
        Tracer(layers=layers).install()
    assert magnus.MagnusElement.__mul__ is original


def test_names_imported_by_name_are_rebound_where_callers_look():
    originals = (witness.leading_lie, witness.present_with_generators, magnus.commutator)
    tracer = Tracer()
    tracer.install()
    try:
        assert witness.leading_lie is not originals[0]
        assert witness.present_with_generators is not originals[1]
        assert magnus.commutator is not originals[2]
        witness.build_witness((1, 0), 6)
    finally:
        tracer.uninstall()
    assert (witness.leading_lie, witness.present_with_generators, magnus.commutator) == originals
    metrics = tracer.layer_metrics()
    for layer in ("magnus.leading_lie", "freelie.present", "magnus.commutator", "witness.verify"):
        assert metrics[f"{layer}.calls"] > 0, layer
    assert tracer.covered_s() > 0


def _declared(kind: str) -> set[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


@pytest.mark.parametrize("workload", sorted(run.PASSES))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_reports_every_metric(workload, trace):
    record = run.benchmark(workload, seed=1, seconds=0, trace=trace, size="smoke")
    assert record["failed"] == 0, record["failures"]
    assert record["attempted"] > run.SETUP_PROBES
    assert set(record["metrics"]) == _declared("per_layer" if trace else "end_to_end")
    if trace:
        assert record["metrics"]["trace.coverage"]["value"] > 0.5
    else:
        assert all(m["value"] > 0 for m in record["metrics"].values())


def _smoke_refs() -> dict:
    return json.loads(run.REFERENCE.read_text())["smoke"]


def test_output_differing_from_reference_counts_as_failed():
    refs = _smoke_refs()
    refs["witness"]["construct_sha256"] = "0" * 64
    refs["coinv"]["Q"] += 1
    first = sorted(refs["sweep"])[0]
    refs["sweep"][first] = "0" * 64
    bench = run.Run("smoke", refs)
    try:
        run.witness_pass(bench, False, 0)
        run.coinv_pass(bench, False, 0)
        run.sweep_pass(bench, False, 0)
    finally:
        bench.close()
    assert bench.failed == 3
    assert bench.attempted == 2 + 2 + len(refs["sweep"])
    assert [f.split(":")[0] for f in bench.failures] == ["construct", "coinv Q K=6", f"build {first}"]


def test_memory_cap_is_a_failed_operation():
    bench = run.Run("smoke", _smoke_refs())
    try:
        _, setup_problem = bench.job({"kind": "probe", "mem_cap_mb": 48})
        out, problem = bench.job({"kind": "sweep", "K": 10, "qs": [[1, 1, 1, 1]], "mem_cap_mb": 48})
    finally:
        bench.close()
    assert setup_problem is None
    assert out is None and problem == "over_cap"


def test_without_sources_the_run_fails_without_a_result(tmp_path: Path):
    (tmp_path / "BENCHMARK.json").write_text((run.ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "coinv", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
