"""The benchmark's helpers must find every name of the package they use.

``bench/tracer.py`` raises ``TraceError`` when a target is renamed or
deleted, and ``bench/child.py`` calls the evaluator and the witness pair
directly; running both here turns a deleted name into a tier-1 failure
instead of a failed benchmark run.
"""

import importlib
import importlib.util
import json
import pkgutil
from pathlib import Path

import nilwitness
from nilwitness import cli, magnus, witness

BENCH = Path(__file__).resolve().parents[1] / "bench"

# the tracer rebinds a target in every loaded module that holds it, and the
# package loads most of its modules on first use: import every one
for _info in pkgutil.iter_modules(nilwitness.__path__):
    importlib.import_module(f"nilwitness.{_info.name}")


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists():
    tracer = _load("nilwitness_bench_tracer", BENCH / "tracer.py").Tracer()
    original = magnus.MagnusElement.__mul__
    tracer.install()
    try:
        assert magnus.MagnusElement.__mul__ is not original
    finally:
        tracer.uninstall()
    assert magnus.MagnusElement.__mul__ is original


def test_benchmark_child_helpers_run(monkeypatch):
    # child.py imports tracer as a top-level module, as it does when run from
    # bench/; a traced witness run reads its pair back from the written file
    monkeypatch.syspath_prepend(str(BENCH))
    child = _load("nilwitness_bench_child", BENCH / "child.py")
    pair = witness.build_witness((1,), 4)
    again = witness.WitnessPair.from_json(json.loads(json.dumps(pair.to_json())))
    assert child.max_coeff_bits([pair]) == child.max_coeff_bits([again]) >= 1
    digest = child.witness_digest(pair.to_json())
    assert len(digest) == 64
    assert digest == child.witness_digest(witness.build_witness((1,), 4).to_json())


# the layers a construct and the verify of its file must enter
WITNESS_LAYERS = (
    "magnus.mul",
    "magnus.pow",
    "magnus.commutator",
    "magnus.eval",
    "magnus.leading_lie",
    "freelie.present",
    "lamplighter.eval",
    "words.parse",
    "witness.build",
    "witness.verify",
)


def test_traced_witness_run_sees_every_layer(tmp_path, capsys):
    # a function bound once where a class is made (an alias in a class body)
    # would keep calling the untraced original and read 0 calls here
    tracer = _load("nilwitness_bench_tracer", BENCH / "tracer.py").Tracer()
    path = str(tmp_path / "witness.json")
    witness._workspace.cache_clear()
    tracer.install()
    try:
        argv = ["construct", "--q", "1,0,1", "--weight", "7", "--out", path]
        assert cli.main(argv) == 0
        assert cli.main(["verify", "--in", path]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = tracer.layer_metrics()
    assert [name for name in WITNESS_LAYERS if not metrics[f"{name}.calls"]] == []


def test_traced_coinv_run_enters_both_eliminations(capsys):
    # field_rank does not pass through linalg.rref, so a coinv run reads 0
    # calls there; the build and the oracle are the layers it must enter
    tracer = _load("nilwitness_bench_tracer", BENCH / "tracer.py").Tracer()
    tracer.install()
    try:
        assert cli.main(["coinv", "--ring", "Zp:3", "--weight", "8"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = tracer.layer_metrics()
    assert [name for name in ("coinv.build", "coinv.oracle") if not metrics[f"{name}.calls"]] == []
