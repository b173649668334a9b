"""Record the outputs the benchmark checks against, for every size.

    python3 bench/record_reference.py

Writes ``bench/reference.json``: the sha256 of the ``construct`` and
``verify`` JSON of the witness workload, the sha256 of every sweep witness
(serialized as the CLI writes it), and the coinvariant ranks, which must
equal the independent oracle's.  Run it only when an output is meant to
change, and say so in the change.
"""

from __future__ import annotations

import json

from run import REFERENCE, SIZES, Run, sha256_file, sweep_sequences


def record(size: str) -> dict:
    run = Run(size)
    cfg = run.cfg
    try:
        wfile, vfile, cfile = (run.tmp / name for name in ("w.json", "v.json", "c.json"))
        for argv in (
            ["construct", "--q", cfg["q"], "--weight", str(cfg["witness_K"]), "--out", str(wfile)],
            ["verify", "--in", str(wfile), "--out", str(vfile)],
        ):
            _, problem = run.cli(argv, traced=False)
            if problem:
                raise SystemExit(f"{argv[0]}: {problem}")
        witness = {"construct_sha256": sha256_file(wfile), "verify_sha256": sha256_file(vfile)}

        qs = sweep_sequences(cfg["sweep_len"], 0)
        out, problem = run.job({"kind": "sweep", "K": cfg["sweep_K"], "qs": qs})
        if problem:
            raise SystemExit(f"sweep: {problem}")
        sweep = {",".join(map(str, r["q"])): r["sha256"] for r in out["results"]}

        coinv = {}
        for ring, K in cfg["coinv"]:
            _, problem = run.cli(["coinv", "--ring", ring, "--weight", str(K), "--out", str(cfile)], traced=False)
            report = json.loads(cfile.read_text())
            if problem or report["rank"] != report["oracle_rank"]:
                raise SystemExit(f"coinv {ring}: {problem or 'rank differs from the oracle'}")
            coinv[ring] = report["rank"]
    finally:
        run.close()
    return {"witness": witness, "sweep": sweep, "coinv": coinv}


if __name__ == "__main__":
    refs = {size: record(size) for size in SIZES}
    REFERENCE.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    print(json.dumps(refs, indent=2, sort_keys=True))
