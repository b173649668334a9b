"""One benchmark job in its own fresh process.

    python3 bench/child.py '<job spec as JSON>'

The spec names the checkout's source directory (``src``), an address-space
cap in MB (``mem_cap_mb``), whether to trace (``trace``), for a traced run
the witness file whose coefficient sizes to read (``coeff_bits_file``), and
the job (``kind``):

- ``probe``: set up only;
- ``cli``: ``nilwitness.cli.main(argv)``;
- ``sweep``: ``witness.build_witness(q, K)`` for every q in ``qs``.

The child caps its own address space, times ``import nilwitness.cli`` as
set-up and the job after it, and prints one JSON line.  It also times a fixed
loop of plain Python (``calibrate``) before the import and after the job, so
that the parent can tell a slow machine from a slow program.  Exit codes: 0 the job
ran (a CLI job reports its own exit code in ``rc``), 3 the memory cap was hit
(stderr says "resource limit exceeded"), 4 the tracer could not be installed.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time

from tracer import TraceError, Tracer

EXIT_OVER_CAP = 3
EXIT_TRACE_ERROR = 4


def _cap_address_space(mb: int) -> None:
    cap = mb * 1024 * 1024
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def calibrate() -> float:
    """Seconds for a fixed loop of integer, list and dict work that uses no
    nilwitness code: the machine's speed next to a job."""
    t = time.perf_counter()
    row = list(range(64))
    table: dict[int, int] = {}
    acc = 0
    for i in range(60000):
        c = row[i & 63] * (i + 1) ** 3
        acc = (acc + c * c) & ((1 << 256) - 1)
        table[i & 1023] = acc
    return time.perf_counter() - t


def witness_digest(payload: dict) -> str:
    """sha256 of a JSON object serialized as the CLI writes it."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def max_coeff_bits(pairs) -> int:
    """Largest coefficient bit length in the Magnus images of the r- and
    s-products of the given witness pairs."""
    from nilwitness.magnus import MagnusEvaluator

    evaluators: dict[int, MagnusEvaluator] = {}
    best = 0
    for pair in pairs:
        T = pair.K + 1
        ev = evaluators.setdefault(T, MagnusEvaluator(T))
        for g in (ev.eval(pair.r_word()), ev.eval(pair.s_word())):
            for d in range(1, T + 1):
                for c in g.degree_terms(d).values():
                    best = max(best, abs(c).bit_length())
    return best


def run(spec: dict) -> dict:
    _cap_address_space(spec["mem_cap_mb"])
    sys.path.insert(0, spec["src"])
    cal_s = [calibrate()]
    t0 = time.perf_counter()
    import nilwitness.cli as cli
    from nilwitness import witness

    setup_s = time.perf_counter() - t0
    out: dict = {"setup_s": setup_s, "cal_s": cal_s}
    kind = spec["kind"]
    if kind == "probe":
        cal_s.append(calibrate())
        return out

    tracer = None
    if spec.get("trace"):
        tracer = Tracer()
        tracer.install()
    pairs = []
    t1 = time.perf_counter()
    try:
        if kind == "cli":
            out["rc"] = cli.main(spec["argv"])
        elif kind == "sweep":
            pairs = [witness.build_witness(q, spec["K"]) for q in spec["qs"]]
        else:
            raise ValueError(f"unknown job kind {kind!r}")
    finally:
        job_s = time.perf_counter() - t1
        if tracer is not None:
            tracer.uninstall()
    cal_s.append(calibrate())
    out["job_s"] = job_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if kind == "sweep":
        out["results"] = [
            {"q": list(p.q), "ok": p.report.ok, "n": list(p.n), "sha256": witness_digest(p.to_json())}
            for p in pairs
        ]
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["covered_s"] = tracer.covered_s()
        if spec.get("coeff_bits_file"):
            with open(spec["coeff_bits_file"]) as fh:
                pairs = [witness.WitnessPair.from_json(json.load(fh))]
        out["layers"]["magnus.max_coeff_bits"] = max_coeff_bits(pairs)
    return out


def main() -> int:
    spec = json.loads(sys.argv[1])
    try:
        out = run(spec)
    except MemoryError:
        print("resource limit exceeded", file=sys.stderr)
        return EXIT_OVER_CAP
    except TraceError as exc:
        print(f"tracer: {exc}", file=sys.stderr)
        return EXIT_TRACE_ERROR
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
