"""nilwitness benchmark: end-to-end timings per workload, and a traced run
that splits them by layer.

    python3 bench/run.py --workload witness|sweep|coinv --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src``.

Every CLI job or library batch runs in its own fresh child process
(``bench/child.py``), one child at a time: a closed loop with one client and
no extra threads.  A run repeats passes over the workload's jobs until
``--seconds`` have gone by and reports medians over the passes, with every
time scaled to a reference machine speed (see ``CAL_REF_S``).  Each child
caps its own address space and has a wall-clock timeout; hitting either is a
failed operation, as is an exit code other than 0 or an output that differs
from ``bench/reference.json``.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it has the per-layer metrics of
traced passes (``bench/tracer.py``), which alternate with untraced passes
that give the tracing overhead.  A full record, with the machine and the commit, goes to
``bench/results/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from child import EXIT_OVER_CAP, EXIT_TRACE_ERROR

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
REFERENCE = BENCH / "reference.json"
RESULTS = BENCH / "results"

MEM_CAP_MB = 3072  # address-space cap per child; the largest job peaks near 50 MB RSS
CHILD_TIMEOUT_S = 120
RUN_DEADLINE_S = 165  # no child runs past this; the whole run stays under 180 s
SETUP_PROBES = 5  # set-up-only children per run, on top of the job children

# Seconds of child.calibrate() on a quiet 2-core Intel Xeon under Python 3.11.7.
# Times are reported at this reference speed: wall time x CAL_REF_S / the mean
# of the calibration times measured before and after it in the same child.
# On a shared host every process runs up to half slower for seconds to minutes
# at a time; scaling by the loop's speed next to each job cancels most of that
# while keeping any change in the program's own speed.  Wall times stay in the
# record as *_wall_s.
CAL_REF_S = 0.0432

# Sizes below the README's desk scale (K = 11-13): a run of about 30 s then
# holds ten or more passes of jobs a few seconds long, which its medians need
# to hold still on a shared 2-core machine.
SIZES = {
    "full": {
        "q": "1,0,1,1,0,1",
        "witness_K": 10,
        # at K = 9 all four entries of q reach the witness (slot 2i+1 <= K)
        "sweep_K": 9,
        "sweep_len": 4,
        "coinv": (("Q", 9), ("Zp:3", 20)),
    },
    "smoke": {
        "q": "1,0,1,1,0,1",
        "witness_K": 6,
        "sweep_K": 6,
        "sweep_len": 2,
        "coinv": (("Q", 6), ("Zp:3", 6)),
    },
}

# job metric -> layer metrics expected to move it
JOB_FEEDS = {
    "construct_s": [
        "magnus.mul", "magnus.pow", "magnus.commutator", "magnus.eval", "magnus.leading_lie",
        "freelie.present", "lamplighter.eval", "witness.build",
    ],
    "verify_s": [
        "magnus.mul", "magnus.pow", "magnus.commutator", "magnus.eval", "lamplighter.eval",
        "series.mul", "words.parse", "witness.verify",
    ],
    "sweep_s": [
        "magnus.mul", "magnus.pow", "magnus.letter", "magnus.eval", "magnus.leading_lie",
        "freelie.present", "lamplighter.eval", "witness.build", "witness.verify",
    ],
    "coinv_q_s": ["linalg.rref", "coinv.build", "coinv.oracle", "series.mul"],
    "coinv_zp_s": ["linalg.rref", "coinv.build", "coinv.oracle", "series.mul"],
}
COINV_JOBS = {"Q": "coinv_q_s", "Zp:3": "coinv_zp_s"}

# name -> (unit, definition, layer metrics that feed it; None: those of the workload's jobs)
END_TO_END = {
    "setup_s": ("s", "fresh child: import nilwitness.cli until ready to run; median over the run's children", []),
    "work_s": ("s", "the workload's jobs in one pass, after set-up; median over passes", None),
    "peak_rss_mb": ("MB", "largest child ru_maxrss in the run", ["magnus.eval", "lamplighter.eval"]),
}
LAYER_UNITS = {"self_s": "s", "calls": "count", "cells": "count"}
TRACE_METRICS = {
    "magnus.max_coeff_bits": "bits",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


def sha256_file(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def sweep_sequences(length: int, seed: int) -> list[list[int]]:
    """All 0/1 sequences of the given length; seed 0 keeps lexicographic
    order, any other seed shuffles it."""
    qs = [list(q) for q in itertools.product((0, 1), repeat=length)]
    if seed:
        random.Random(seed).shuffle(qs)
    return qs


def _to_reference_speed(out: dict) -> None:
    """Rescale a child's times to the reference speed, keeping the wall
    times under *_wall_s."""
    speed = CAL_REF_S / statistics.fmean(out["cal_s"])
    for key in ("setup_s", "job_s", "covered_s"):
        if key in out:
            out[key.replace("_s", "_wall_s")] = out[key]
            out[key] *= speed
    for key in out.get("layers", {}):
        if key.endswith(".self_s"):
            out["layers"][key] *= speed


class Run:
    """Children, operation counts and failures of one benchmark run."""

    def __init__(self, size: str = "full", refs: dict | None = None):
        self.cfg = SIZES[size]
        self.refs = refs
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self.setup_samples: list[float] = []
        self.rss_mb: list[float] = []
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        RESULTS.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=RESULTS))

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def job(self, spec: dict) -> tuple[dict | None, str | None]:
        """Run one child; return its output and a problem, one of them None."""
        timeout = min(CHILD_TIMEOUT_S, self.deadline - time.monotonic())
        if timeout <= 0:
            return None, "timeout (run deadline)"
        spec = {"src": str(SRC), "mem_cap_mb": MEM_CAP_MB, **spec}
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), json.dumps(spec)],
                capture_output=True,
                text=True,
                timeout=timeout,
                cwd=ROOT,
            )
        except subprocess.TimeoutExpired:
            return None, f"timeout after {timeout:.0f} s"
        if proc.returncode == EXIT_TRACE_ERROR:
            raise SystemExit(f"tracer could not be installed: {proc.stderr.strip()}")
        over_cap = "resource limit exceeded" in proc.stderr
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            return None, "over_cap" if over_cap else f"exit {proc.returncode}: {tail[0]}"
        out = json.loads(proc.stdout.splitlines()[-1])
        _to_reference_speed(out)
        self.setup_samples.append(out["setup_s"])
        if "peak_rss_mb" in out and not spec.get("trace"):
            self.rss_mb.append(out["peak_rss_mb"])
        rc = out.get("rc", 0)
        if rc != 0:
            return out, "over_cap" if rc == EXIT_OVER_CAP and over_cap else f"exit {rc}"
        return out, None

    def count(self, label: str, problem: str | None, n: int = 1) -> None:
        self.attempted += n
        if problem:
            self.failed += n
            self.failures.append(f"{label}: {problem}")

    def probe_setup(self) -> None:
        for _ in range(SETUP_PROBES):
            _, problem = self.job({"kind": "probe"})
            self.count("set-up probe", problem)

    def cli(self, argv: list[str], traced: bool, **extra) -> tuple[dict | None, str | None]:
        return self.job({"kind": "cli", "argv": argv, "trace": traced, **extra})


def _digest_problem(path: Path, want: str) -> str | None:
    got = sha256_file(path)
    return None if got == want else f"sha256 {got} != reference {want}"


def witness_pass(run: Run, traced: bool, seed: int) -> dict:
    cfg, ref = run.cfg, run.refs["witness"]
    wfile = run.tmp / "witness.json"
    vfile = run.tmp / "verify.json"
    argv = ["construct", "--q", cfg["q"], "--weight", str(cfg["witness_K"]), "--out", str(wfile)]
    c, problem = run.cli(argv, traced)
    run.count("construct", problem or _digest_problem(wfile, ref["construct_sha256"]))
    bits_from = {"coeff_bits_file": str(wfile)} if traced else {}
    v, problem = run.cli(["verify", "--in", str(wfile), "--out", str(vfile)], traced, **bits_from)
    run.count("verify", problem or _digest_problem(vfile, ref["verify_sha256"]))
    for path in (wfile, vfile):
        path.unlink(missing_ok=True)
    return {"construct_s": c, "verify_s": v}


def sweep_problems(out: dict, qs: list[list[int]], K: int, ref: dict) -> list[tuple[str, str | None]]:
    """One (label, problem) per sequence: report.ok, the odd slots of n
    against q, and the witness digest against the reference."""
    by_q = {tuple(r["q"]): r for r in out["results"]}
    checks = []
    for q in qs:
        label = "build " + ",".join(map(str, q))
        r = by_q.get(tuple(q))
        if r is None:
            checks.append((label, "no result"))
            continue
        slots = [(2 * i + 1, q[i - 1] if i - 1 < len(q) else 0) for i in range(1, (K - 1) // 2 + 1)]
        if not r["ok"]:
            problem = "report not ok"
        elif any(r["n"][slot - 3] != want for slot, want in slots):
            problem = f"odd slots of n {r['n']} do not reproduce q"
        elif r["sha256"] != ref[",".join(map(str, q))]:
            problem = "witness differs from the reference"
        else:
            problem = None
        checks.append((label, problem))
    return checks


def sweep_pass(run: Run, traced: bool, seed: int) -> dict:
    cfg = run.cfg
    qs = sweep_sequences(cfg["sweep_len"], seed)
    out, problem = run.job({"kind": "sweep", "K": cfg["sweep_K"], "qs": qs, "trace": traced})
    if problem:
        run.count("sweep", problem, n=len(qs))
        return {"sweep_s": None}
    for label, p in sweep_problems(out, qs, cfg["sweep_K"], run.refs["sweep"]):
        run.count(label, p)
    return {"sweep_s": out}


def coinv_pass(run: Run, traced: bool, seed: int) -> dict:
    outs = {}
    for ring, K in run.cfg["coinv"]:
        path = run.tmp / "coinv.json"
        out, problem = run.cli(["coinv", "--ring", ring, "--weight", str(K), "--out", str(path)], traced)
        if not problem:
            report = json.loads(path.read_text())
            want = run.refs["coinv"][ring]
            if not (report["ok"] and report["rank"] == want == report["oracle_rank"]):
                problem = f"rank {report['rank']} / oracle {report['oracle_rank']} != reference {want}"
        run.count(f"coinv {ring} K={K}", problem)
        path.unlink(missing_ok=True)
        outs[COINV_JOBS[ring]] = out
    return outs


PASSES = {"witness": witness_pass, "sweep": sweep_pass, "coinv": coinv_pass}


def run_passes(run: Run, workload: str, seed: int, seconds: float, modes: tuple[bool, ...]) -> dict:
    """Rounds of one pass per mode (False untraced, True traced) until
    `seconds` have gone by, at least one; no round is started that would
    likely end past the run's deadline.  Returns the passes of each mode."""
    passes: dict[bool, list[dict]] = {mode: [] for mode in modes}
    start = time.monotonic()
    while True:
        t = time.monotonic()
        for mode in modes:
            passes[mode].append(PASSES[workload](run, mode, seed))
        now = time.monotonic()
        if now - start >= seconds or now + (now - t) > run.deadline:
            return passes


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def job_times(passes: list[dict], key: str = "job_s") -> tuple[dict[str, float], list[float]]:
    """Median time per job, and the work time of every complete pass."""
    jobs = {name: _median([p[name][key] for p in passes if p[name]]) for name in passes[0]}
    work = [sum(p[n][key] for n in p) for p in passes if all(p.values())]
    return jobs, work


def layer_metrics(passes: list[dict]) -> dict[str, float]:
    """Per traced pass, layer metrics summed over its children; then the
    median over passes.  Coverage is covered time over job time."""
    per_pass = []
    for p in passes:
        outs = [o for o in p.values() if o]
        if len(outs) != len(p):
            continue
        total: dict[str, float] = {}
        for o in outs:
            for key, value in o["layers"].items():
                if key == "magnus.max_coeff_bits":
                    total[key] = max(total.get(key, 0), value)
                else:
                    total[key] = total.get(key, 0) + value
        job_s = sum(o["job_s"] for o in outs)
        total["trace.coverage"] = sum(o["covered_s"] for o in outs) / job_s
        per_pass.append(total)
    if not per_pass:
        return {}
    return {key: _median([t[key] for t in per_pass]) for key in per_pass[0]}


def metric_unit(name: str) -> str:
    if name in TRACE_METRICS:
        return TRACE_METRICS[name]
    return LAYER_UNITS[name.rsplit(".", 1)[1]]


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.machine(),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
    }


def _why(workload: str) -> str:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(w["why"] for w in spec["workloads"] if w["name"] == workload)


def _commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def benchmark(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Run one workload; return the full record of the run."""
    refs = json.loads(REFERENCE.read_text())[size]
    run = Run(size, refs)
    try:
        run.probe_setup()
        passes = run_passes(run, workload, seed, seconds, (False, True) if trace else (False,))
    finally:
        run.close()
    untraced, traced = passes[False], passes.get(True, [])
    jobs, work = job_times(untraced)
    jobs_wall, work_wall = job_times(untraced, "job_wall_s")
    record = {
        "workload": workload,
        "why": _why(workload),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": dict(run.cfg),
        "environment": environment(),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_frac": run.failed / run.attempted,
        "failures": run.failures,
        "jobs": {name: {"value": v, "unit": "s", "layers": JOB_FEEDS[name]} for name, v in jobs.items()},
        "jobs_wall_s": jobs_wall,
        "work_s_per_pass": work,
        "work_wall_s_per_pass": work_wall,
        "setup_s_samples": run.setup_samples,
    }
    if not trace:
        values = {
            "setup_s": _median(run.setup_samples),
            "work_s": _median(work),
            "peak_rss_mb": max(run.rss_mb, default=0.0),
        }
        feeds = sorted({layer for name in jobs for layer in JOB_FEEDS[name]})
        record["metrics"] = {
            name: {"value": values[name], "unit": unit, "definition": definition,
                   "layers": feeds if layers is None else layers}
            for name, (unit, definition, layers) in END_TO_END.items()
        }
    else:
        layers = layer_metrics(traced)
        traced_work = job_times(traced)[1]
        if layers:
            layers["trace.overhead_s"] = _median(traced_work) - _median(work)
        record["metrics"] = {name: {"value": v, "unit": metric_unit(name)} for name, v in layers.items()}
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PASSES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit on SIGTERM lets subprocess.run kill and reap the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "nilwitness" / "cli.py").is_file():
        print(f"no nilwitness sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    record = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n")

    passes = record["passes"]
    print(f"workload {args.workload}  seed {args.seed}  passes {passes['untraced']} untraced, {passes['traced']} traced")
    for name, job in record["jobs"].items():
        print(f"  {name:<28} {job['value']:12.4f} {job['unit']}   (wall {record['jobs_wall_s'][name]:.4f} s)")
    for name, m in record["metrics"].items():
        print(f"  {name:<28} {m['value']:12.6g} {m['unit']}")
    print(f"  {'failed_frac':<28} {record['failed_frac']:12.4g} ratio ({record['failed']} of {record['attempted']})")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in record["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
