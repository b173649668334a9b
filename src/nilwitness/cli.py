"""Command-line driver with machine-readable JSON reports.

Each subcommand's handler computes its report and returns it with its
verdict, and writes nothing itself.  main stamps the report with "schema"
(SCHEMA) and "command" (the subcommand's name), writes it as one line of
sorted, compact JSON to the --out file or else to stdout, and returns the
exit code: 0 when the verdict holds, 1 when a mathematical check failed.  The
verdict is the report's "ok" field; construct, whose report has none, returns
the witness report's.  An exception becomes exit code 2 for usage errors, 1
for internal errors and 3 for resource or I/O errors, and then no report is
written.  An exception of a type that main does not name is an internal
error, printed as "internal error: <type>: <message>" with no traceback.
Reports are deterministic byte-for-byte for a fixed configuration
(timings go to stderr, never into the JSON).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction

from . import coinv, freelie, magnus, series, witness
from .lamplighter import gamma_weight_lamp, phi_word
from .words import parse_word_expr

SCHEMA = "1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# largest phi --weight K: phi takes time ~K^2
MAX_SERIES_WEIGHT = 64
# largest coinv --weight K: coinv eliminates K(K-1)/2 columns twice; the rows
# hold at most 3 nonzeros, but the oracle's reversed order fills them in, so
# over Q, the slowest ring, the time grows ~K^5: both eliminations take about
# 0.4 s at K = 24 and 0.8 s at 28
MAX_COINV_WEIGHT = 24
# largest report --weight K, and largest weight 2n + 2 of identities --max-n:
# neither builds a witness, and at the limit each takes about 10 s
MAX_REPORT_WEIGHT = 20
# largest involution --trials: the time is linear in it, about 3 s at 1000
MAX_TRIALS = 1000


class UsageError(ValueError):
    pass


class InputError(Exception):
    """An input file that was read but holds bad data (exit 3)."""


class OutputLimitError(Exception):
    """A computed number too long to write as text (exit 3)."""


def _as_text(render):
    """render(), which writes computed numbers as text.  Python refuses to
    write an integer of more than sys.get_int_max_str_digits() digits, with a
    ValueError that only its message tells apart; for a computed result that
    is a resource limit, not bad usage.  Any other ValueError passes."""
    try:
        return render()
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        raise OutputLimitError(
            f"a result has more than {sys.get_int_max_str_digits()} digits, "
            "Python's limit for writing an integer as text"
        ) from None


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise OSError(f"cannot read {what} file: {exc}") from exc


def _parse_q(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad sequence {text!r}: {exc}") from None


def cmd_identities(args) -> tuple[dict, bool]:
    if args.max_n < 1:
        raise UsageError("--max-n must be >= 1")
    if 2 * args.max_n + 2 > MAX_REPORT_WEIGHT:
        raise UsageError(f"--max-n must be at most {(MAX_REPORT_WEIGHT - 2) // 2}")
    results = []
    ok = True
    for n in range(1, args.max_n + 1):
        lie_ok = freelie.check_identity(n)
        group_ok = magnus.check_group_identity(n)
        ok &= lie_ok and group_ok
        results.append({"n": n, "lie": lie_ok, "group": group_ok})
    report = {
        "config": {"max_n": args.max_n},
        "results": results,
        "ok": ok,
    }
    return report, report["ok"]


def cmd_construct(args) -> tuple[dict, bool]:
    q = _parse_q(args.q)
    # the factor words hold their exponents as text
    pair = _as_text(lambda: witness.build_witness(q, args.weight))
    return pair.to_json(), pair.report.ok


def cmd_verify(args) -> tuple[dict, bool]:
    data = _load_json(args.infile, "witness")
    try:
        pair = witness.WitnessPair.from_json(data)
    except KeyError as exc:
        raise InputError(f"witness file lacks the key {exc}") from None
    except (TypeError, ValueError, RecursionError) as exc:
        raise InputError(f"bad witness file: {type(exc).__name__}: {exc}") from None
    try:
        # a failed check's detail writes the lamplighter image as text
        report = _as_text(lambda: witness.verify_witness(pair))
    except RecursionError:
        raise InputError("witness words are nested too deeply to evaluate") from None
    payload = {
        "q": list(pair.q),
        "K": pair.K,
        "report": report.to_json(),
        "ok": report.ok,
    }
    return payload, payload["ok"]


def cmd_phi(args) -> tuple[dict, bool]:
    if args.weight > MAX_SERIES_WEIGHT:
        raise UsageError(f"--weight must be at most {MAX_SERIES_WEIGHT}")
    ring = series.ring_from_tag(args.ring)
    try:
        img = phi_word(parse_word_expr(args.word), ring, args.weight)
    except RecursionError:
        raise UsageError("word nested too deeply to evaluate") from None
    weight = gamma_weight_lamp(img)
    payload = {
        "config": {"word": args.word, "ring": args.ring, "K": args.weight},
        "image": _as_text(img.to_json),
        "weight": "inf" if weight == series.INFINITE_WEIGHT else weight,
        "ok": True,
    }
    return payload, payload["ok"]


def _exact_coeffs(name: str, coeffs, K: int) -> list[Fraction]:
    """The coefficients of one series of a coinv --in file, which must be a
    JSON list of at most K integers and strings in Fraction syntax such as
    "1/10".  A float would be read as the value of its binary double and a
    bool as 0 or 1, so both raise TypeError, as does a series that is not a
    list; a longer list would lose its coefficients past x^(K-1), so it
    raises ValueError.  So does a string in exponent notation: from
    "1e10000000" Fraction would build the integer 10^10000000."""
    if type(coeffs) is not list:
        raise TypeError(f"series {name!r} is a JSON {type(coeffs).__name__}, not a list")
    if len(coeffs) > K:
        raise ValueError(f"series {name!r} has {len(coeffs)} coefficients, more than --weight {K}")
    for c in coeffs:
        if type(c) not in (int, str):
            raise TypeError(
                f"series {name!r} holds the JSON {type(c).__name__} {c!r}, "
                "not an integer or a string"
            )
        if type(c) is str and ("e" in c or "E" in c):
            raise ValueError(f"series {name!r} holds {c[:20]!r}, in exponent notation")
    return list(map(Fraction, coeffs))


def cmd_coinv(args) -> tuple[dict, bool]:
    ring = series.ring_from_tag(args.ring)
    if isinstance(ring, series.IntegerRing):
        raise UsageError("coinvariants are computed over Q or Z/p")
    if not 2 <= args.weight <= MAX_COINV_WEIGHT:
        raise UsageError(f"--weight must be in 2..{MAX_COINV_WEIGHT}")
    inputs = {}
    if args.infile:
        data = _load_json(args.infile, "series")
        try:
            found = data.get("series") if type(data) is dict else None
            if type(found) is not dict:
                raise TypeError('the file holds no JSON object under the key "series"')
            for name, coeffs in found.items():
                inputs[name] = series.TruncatedSeries.from_coeffs(
                    ring, args.weight, _exact_coeffs(name, coeffs, args.weight)
                )
        except (OverflowError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad series file: {type(exc).__name__}: {exc}") from None
    space = coinv.build_coinvariants(ring, args.weight)
    thetas = {name: coinv.theta(f) for name, f in inputs.items()}
    classes = _as_text(lambda: {name: list(map(str, t)) for name, t in thetas.items()})
    oracle = coinv.coinvariant_rank_oracle(ring, args.weight)
    payload = {
        **space.to_json(),
        "oracle_rank": oracle,
        "theta_classes": classes,
        "ok": oracle == space.rank,
    }
    return payload, payload["ok"]


def cmd_involution(args) -> tuple[dict, bool]:
    if not 1 <= args.trials <= MAX_TRIALS:
        raise UsageError(f"--trials must be in 1..{MAX_TRIALS}")
    instances = [(-1, 2), (2, 2), (5, 3)]
    results = [
        coinv.involution_exactness_report(
            coinv.InvolutiveField(d, dim), trials=args.trials, seed=args.seed
        )
        for d, dim in instances
    ]
    ok = all(r["ok"] for r in results)
    payload = {
        "config": {"trials": args.trials, "seed": args.seed},
        "results": results,
        "ok": ok,
    }
    return payload, payload["ok"]


def cmd_report(args) -> tuple[dict, bool]:
    if not 1 <= args.weight <= MAX_REPORT_WEIGHT:
        raise UsageError(f"--weight must be in 1..{MAX_REPORT_WEIGHT}")
    rng = random.Random(args.seed)
    t0 = time.monotonic()
    sections = {}

    counts = [len(freelie.hall_basis(args.weight).words_of_weight(w)) for w in range(1, args.weight + 1)]
    witt = [freelie.witt_number(w) for w in range(1, args.weight + 1)]
    sections["basis_counts"] = {"counts": counts, "witt": witt, "ok": counts == witt}

    ids = {
        "lie": [freelie.check_identity(n) for n in (1, 2)],
        "group": [magnus.check_group_identity(n) for n in (1, 2)],
    }
    sections["identities"] = {**ids, "ok": all(ids["lie"]) and all(ids["group"])}

    filt = [
        series.check_augmentation_iso(series.ring_from_tag(tag), n)
        for tag in ("Z", "Q", "Zp:5")
        for n in (1, 3)
    ]
    sections["filtration_iso"] = {"checks": filt, "ok": all(filt)}

    anchors = []
    for k in range(1, args.weight):
        img = phi_word(f"[a,_{k} b]" if k > 1 else "[a,b]", "Z", args.weight)
        want = [0] * args.weight
        want[k] = 1
        anchors.append(list(img.f.coeffs) == want and img.e == 0)
    sections["shift_anchor"] = {"ok": all(anchors)}

    powers_ok = True
    for _ in range(10):
        r1 = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        r2 = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        f = series.TruncatedSeries.from_coeffs(
            series.QQ, 8, [1] + [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(7)]
        )
        lhs = series.rat_pow(f, r1 + r2)
        rhs = series.rat_pow(f, r1) * series.rat_pow(f, r2)
        powers_ok &= lhs == rhs
    sections["rational_powers"] = {"ok": powers_ok}

    q = tuple(rng.randint(0, 1) for _ in range(3))
    pair = witness.build_witness(q, 7)
    sections["witness"] = {"q": list(q), "K": 7, "report": pair.report.to_json(), "ok": pair.report.ok}

    # witness series in the coinvariant quotient, where theta(f) = 0 exactly
    # when sigma(f) = f.  Checked: the probe witness series are fixed, theta
    # vanishes on the fixed series only, and Phi kills every relation row.
    K, sigma = 8, series.sigma_tilde
    space = coinv.build_coinvariants(series.QQ, K)

    def over_q(coeffs):
        return series.TruncatedSeries.from_coeffs(series.QQ, K, coeffs)

    probes = ((0, 0, 0), q, tuple(1 - v for v in q))
    wseries = [over_q(witness.witness_series(witness.build_witness(p, K)).coeffs) for p in probes]
    fixed = all(sigma(f) == f for f in wseries)
    samples = [over_q([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(K)])
               for _ in range(10)]
    samples += [g + sigma(g) for g in samples]
    zero_iff_fixed = all((not any(coinv.theta(f))) == (sigma(f) == f) for f in samples)
    x = [over_q((0,) * k + (1,)) for k in range(K)]
    tx = [over_q((0,) * k + (1, 1)) for k in range(K)]  # t x^k = x^k + x^(k+1)
    kills = all(coinv.pairing(tx[i], tx[j]) == coinv.pairing(x[i], x[j]) for i, j in space.pairs)
    sections["witness_classes"] = {
        "rank": space.rank,
        "witnesses_fixed": fixed,
        "theta_zero_iff_fixed": zero_iff_fixed,
        "pairing_kills_relations": kills,
        "ok": fixed and zero_iff_fixed and kills,
    }

    ok = all(s["ok"] for s in sections.values())
    payload = {
        "config": {"seed": args.seed, "weight": args.weight},
        "sections": sections,
        "ok": ok,
    }
    print(f"report completed in {time.monotonic() - t0:.1f}s", file=sys.stderr)
    return payload, payload["ok"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilwitness",
        description="exact checks for free nilpotent quotients, completed "
        "lamplighter groups, and truncated coinvariants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identities", help="bracket identity suites")
    p.add_argument("--max-n", type=int, default=2)
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("construct", help="build and verify a witness pair")
    p.add_argument("--q", required=True, help='sequence, e.g. "1,0,1,1"')
    p.add_argument("--weight", "-K", type=int, default=9)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="re-verify a witness JSON file")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("phi", help="lamplighter image of a word")
    p.add_argument("--word", required=True)
    p.add_argument("--ring", default="Z", help="Z, Q, or Zp:<p>")
    p.add_argument("--weight", "-K", type=int, default=8)
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("coinv", help="exterior-square coinvariant ranks")
    p.add_argument("--ring", default="Q", help="Q or Zp:<p>")
    p.add_argument("--weight", "-K", type=int, default=6)
    p.add_argument("--in", dest="infile", default=None, help="JSON with series to classify")
    p.set_defaults(func=cmd_coinv)

    p = sub.add_parser("involution", help="involutive-field exactness suite")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_involution)

    p = sub.add_parser("report", help="aggregate verification report")
    p.add_argument("--weight", "-K", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_report)

    for p in sub.choices.values():
        p.add_argument("--out", default=None, help="write the JSON report here")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        report, ok = args.func(args)
        _emit({"schema": SCHEMA, "command": args.command, **report}, args.out)
        return EXIT_OK if ok else EXIT_CHECK_FAILED
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except OutputLimitError as exc:
        print(f"resource limit exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("resource limit exceeded", file=sys.stderr)
        return EXIT_RESOURCE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
