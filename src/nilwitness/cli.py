"""Command-line driver with machine-readable JSON reports.

Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 usage
error, 3 resource or I/O error.  Reports are deterministic byte-for-byte for
a fixed configuration (timings go to stderr, never into the JSON).
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
# largest coinv --weight K: coinv eliminates K(K-1)/2 columns twice, in time
# ~K^4.5; over Q, the slowest ring, K = 24 takes about 3 s and K = 26 about 6 s
MAX_COINV_WEIGHT = 24
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
    write an integer of more than sys.get_int_max_str_digits() digits; for a
    computed result that is a resource limit, not bad usage."""
    try:
        return render()
    except ValueError:
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


def cmd_identities(args) -> int:
    if args.max_n < 1:
        raise UsageError("--max-n must be >= 1")
    if 2 * args.max_n + 2 > witness.MAX_K:
        raise UsageError(f"--max-n must be at most {(witness.MAX_K - 2) // 2}")
    results = []
    ok = True
    for n in range(1, args.max_n + 1):
        lie_ok = freelie.check_identity(n)
        group_ok = magnus.check_group_identity(n)
        ok &= lie_ok and group_ok
        results.append({"n": n, "lie": lie_ok, "group": group_ok})
    report = {
        "schema": SCHEMA,
        "command": "identities",
        "config": {"max_n": args.max_n},
        "results": results,
        "ok": ok,
    }
    _emit(report, args.out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_construct(args) -> int:
    pair = witness.build_witness(_parse_q(args.q), args.weight)
    payload = {"schema": SCHEMA, "command": "construct", **pair.to_json()}
    _emit(payload, args.out)
    return EXIT_OK if pair.report.ok else EXIT_CHECK_FAILED


def cmd_verify(args) -> int:
    data = _load_json(args.infile, "witness")
    try:
        pair = witness.WitnessPair.from_json(data)
    except KeyError as exc:
        raise InputError(f"witness file lacks the key {exc}") from None
    except (TypeError, ValueError, RecursionError) as exc:
        raise InputError(f"bad witness file: {type(exc).__name__}: {exc}") from None
    try:
        report = witness.verify_witness(pair)
    except RecursionError:
        raise InputError("witness words are nested too deeply to evaluate") from None
    payload = {
        "schema": SCHEMA,
        "command": "verify",
        "q": list(pair.q),
        "K": pair.K,
        "report": report.to_json(),
        "ok": report.ok,
    }
    _emit(payload, args.out)
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def cmd_phi(args) -> int:
    if args.weight > MAX_SERIES_WEIGHT:
        raise UsageError(f"--weight must be at most {MAX_SERIES_WEIGHT}")
    ring = series.ring_from_tag(args.ring)
    try:
        img = phi_word(parse_word_expr(args.word), ring, args.weight)
    except RecursionError:
        raise UsageError("word nested too deeply to evaluate") from None
    weight = gamma_weight_lamp(img)
    payload = {
        "schema": SCHEMA,
        "command": "phi",
        "config": {"word": args.word, "ring": args.ring, "K": args.weight},
        "image": _as_text(img.to_json),
        "weight": "inf" if weight == series.INFINITE_WEIGHT else weight,
        "ok": True,
    }
    _emit(payload, args.out)
    return EXIT_OK


def _exact_coeffs(name: str, coeffs) -> list[Fraction]:
    """The coefficients of one series of a coinv --in file, which must be a
    JSON list of integers and of strings in Fraction syntax such as "1/10".
    A float would be read as the value of its binary double and a bool as 0
    or 1, so both raise TypeError, as does a series that is not a list."""
    if type(coeffs) is not list:
        raise TypeError(f"series {name!r} is a JSON {type(coeffs).__name__}, not a list")
    for c in coeffs:
        if type(c) not in (int, str):
            raise TypeError(
                f"series {name!r} holds the JSON {type(c).__name__} {c!r}, "
                "not an integer or a string"
            )
    return list(map(Fraction, coeffs))


def cmd_coinv(args) -> int:
    ring = series.ring_from_tag(args.ring)
    if isinstance(ring, series.IntegerRing):
        raise UsageError("coinvariants are computed over Q or Z/p")
    if not 2 <= args.weight <= MAX_COINV_WEIGHT:
        raise UsageError(f"--weight must be in 2..{MAX_COINV_WEIGHT}")
    inputs = {}
    if args.infile:
        data = _load_json(args.infile, "series")
        try:
            for name, coeffs in data.get("series", {}).items():
                inputs[name] = series.TruncatedSeries.from_coeffs(
                    ring, args.weight, _exact_coeffs(name, coeffs)
                )
        except (AttributeError, OverflowError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad series file: {type(exc).__name__}: {exc}") from None
    space = coinv.build_coinvariants(ring, args.weight)
    thetas = {name: coinv.theta(f) for name, f in inputs.items()}
    classes = _as_text(lambda: {name: list(map(str, t)) for name, t in thetas.items()})
    oracle = coinv.coinvariant_rank_oracle(ring, args.weight)
    payload = {
        "schema": SCHEMA,
        "command": "coinv",
        **space.to_json(),
        "oracle_rank": oracle,
        "theta_classes": classes,
        "ok": oracle == space.rank,
    }
    _emit(payload, args.out)
    return EXIT_OK if payload["ok"] else EXIT_CHECK_FAILED


def cmd_involution(args) -> int:
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
        "schema": SCHEMA,
        "command": "involution",
        "config": {"trials": args.trials, "seed": args.seed},
        "results": results,
        "ok": ok,
    }
    _emit(payload, args.out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_report(args) -> int:
    if not 1 <= args.weight <= witness.MAX_K:
        raise UsageError(f"--weight must be in 1..{witness.MAX_K}")
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
        "schema": SCHEMA,
        "command": "report",
        "config": {"seed": args.seed, "weight": args.weight},
        "sections": sections,
        "ok": ok,
    }
    _emit(payload, args.out)
    print(f"report completed in {time.monotonic() - t0:.1f}s", file=sys.stderr)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


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
        return args.func(args)
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


if __name__ == "__main__":
    sys.exit(main())
